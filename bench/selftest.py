"""Self-test of the benchmark's gate and tracer.

    python3 bench/selftest.py

Exits 0 when every check below holds, 1 otherwise:

* negative control: a suite run through the public
  ``run_suite(SuiteSpec(..., kappa=Fraction(1, 3)))`` has wrong verdicts,
  and the gate reports ``failed_share > 0`` for it; the same suite at the
  default kappa gives ``failed_share == 0``;
* a crashed or non-zero verify call, or a repetition lost with its
  process, fails every check it should have made;
* tracing changes no verdict, and its counts repeat exactly between two
  traced runs of the same input;
* BENCHMARK.json names exactly the workloads ``run.py`` defines, and every
  metric it names is produced.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from ternalg.report import emit_json  # noqa: E402
from ternalg.suites import SuiteSpec, run_suite  # noqa: E402

FAILURES = []


def check(ok: bool, what: str):
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        FAILURES.append(what)


def verify_document(suite: str, dim: int, kappa=Fraction(1, 2)) -> dict:
    spec = SuiteSpec(suite, dimension=dim, seed=0, kappa=kappa)
    return json.loads(emit_json(run_suite(spec), spec.config_dict()))


def failed_share(doc: dict, suite: str, dim: int) -> float:
    ids = run.load_expected()[suite][str(dim)]
    return run.gate_document(doc, ids, dim, 0) / len(ids)


def verdicts(doc: dict):
    return [(c["check_id"], c["status"], c["residuals"]) for c in doc["checks"]]


def main() -> int:
    expected = run.load_expected()

    share = failed_share(verify_document("superspace", 2, Fraction(1, 3)),
                         "superspace", 2)
    check(share > 0, f"kappa = 1/3 gives failed_share {share:.2f} > 0")
    good = verify_document("superspace", 2)
    share = failed_share(good, "superspace", 2)
    check(share == 0, f"kappa = 1/2 gives failed_share {share:.2f} == 0")

    wrong_dim = dict(good, config=dict(good["config"], dimension=3))
    check(failed_share(wrong_dim, "superspace", 2) == 1,
          "a report for another dimension fails every check")
    extra = dict(good, checks=good["checks"] + [dict(good["checks"][0],
                                                      check_id="extra")])
    check(failed_share(extra, "superspace", 2) > 0,
          "an unexpected check ID counts as a failure")
    call = {"suite": "superspace", "dim": 2, "rc": 1, "error": None,
            "report": json.dumps(good)}
    check(run.gate_call(call, expected, 0) == (5, 5),
          "a non-zero exit fails every check of the call")
    call.update(rc=None, error="RuntimeError: boom")
    check(run.gate_call(call, expected, 0) == (5, 5),
          "a crashed call fails every check of the call")
    lost = [(False, {"lost": "exit -9", "calls": [],
                     "expected_calls": [["superspace", 2], ["closure", 2]]})]
    check(run.tally(lost, expected, 0) == (9, 9),
          "a lost repetition fails every check it should have made")

    plain = verify_document("closure", 2)
    runs = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            doc = verify_document("closure", 2)
        finally:
            tracer.uninstall()
        runs.append((doc, run.layer_metrics(tracer.summary())))
    check(all(verdicts(doc) == verdicts(plain) for doc, _ in runs),
          "tracing changes no verdict")
    check(failed_share(runs[0][0], "closure", 2) == 0,
          "the traced run passes the gate")
    counts = [{n: m[n] for n in run.REPEATING_COUNTS} for _, m in runs]
    check(counts[0] == counts[1] and counts[0]["superspace.ad_V.calls"] > 0,
          "traced counts repeat exactly: " + json.dumps(counts[0]))
    from ternalg import cyclo
    check(cyclo.Cyclo.__radd__ is cyclo.Cyclo.__add__,
          "uninstall restores the Cyclo aliases")

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    check([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
          "BENCHMARK.json names the workloads run.py defines")
    produced = set(runs[0][1]) | {"process.gc.collections",
                                  "process.gc.gen2", "trace.overhead_s"}
    missing = [m["name"] for m in spec["per_layer"]
               if m["name"] not in produced]
    check(not missing, "every per-layer metric is produced "
          f"(missing: {missing})")
    fake = [(False, {"verify_s": 1.0, "setup_s": 1.0, "peak_rss_mb": 1.0})]
    missing = [m["name"] for m in spec["end_to_end"]
               if m["name"] not in run.end_to_end(fake)]
    check(not missing, f"every end-to-end metric is produced "
          f"(missing: {missing})")

    print(f"{len(FAILURES)} failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
