"""One repetition of a benchmark workload, in a fresh interpreter.

    python3 bench/worker.py '<json spec>'

The spec names the verify calls to make (suite, dimension), the seed and
whether to trace.  The worker times ``import ternalg`` plus one
``superspace.build`` at the highest dimension (set-up), then makes one
``ternalg.cli.main(["verify", ...])`` call per suite (the verify time),
and prints one JSON line with the timings, every call's exit code and JSON
report, the process's peak RSS and garbage-collector statistics.  It is
started by ``run.py``, which gates the reports and aggregates repetitions.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import sys
import time
import traceback


def main() -> int:
    spec = json.loads(sys.argv[1])
    dims = [dim for _, dim in spec["calls"]]

    t0 = time.perf_counter()
    import ternalg
    from ternalg import cli, superspace
    alg = superspace.build(superspace.SuperspaceConfig(
        metric=superspace.MetricSignature.minkowski(max(dims))))
    setup_s = time.perf_counter() - t0
    del alg

    tracer = None
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    calls = []
    t_first = time.perf_counter()
    for suite, dim in spec["calls"]:
        argv = ["verify", "--suite", suite, "--dim", str(dim),
                "--seed", str(spec["seed"]), "--report", "json"]
        out = io.StringIO()
        error = None
        t = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                if tracer is None:
                    rc = cli.main(argv)
                else:
                    rc = tracer.suite_call(suite, lambda: cli.main(argv))
        except Exception:  # a crashed call is a failed call, not a lost run
            rc, error = None, traceback.format_exc()
        calls.append({"suite": suite, "dim": dim, "rc": rc, "error": error,
                      "s": time.perf_counter() - t, "report": out.getvalue()})
    verify_s = time.perf_counter() - t_first

    import numpy
    result = {
        "ternalg_file": ternalg.__file__,
        "setup_s": setup_s,
        "verify_s": verify_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "gc": [s["collections"] for s in gc.get_stats()],
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "calls": calls,
    }
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.summary()
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
