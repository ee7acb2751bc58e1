"""Run-to-run spread of the end-to-end metrics, and the trajectory record.

    python3 bench/spread.py --seeds 10                       # every workload
    python3 bench/spread.py --workload closure-d3 --seeds 5
    python3 bench/spread.py --seeds 10 --record "seed commit"

Runs ``run.py --trace 0`` once per seed (seeds 1..N) on each workload and
prints, per end-to-end metric, the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread, (q3 - q1) / median,
next to the metric's bound from BENCHMARK.json.  A spread above a third
of its bound marks the metric as unsteady.  ``--record LABEL`` appends the
medians, quartiles and environment to ``trajectory.json``.
"""

from __future__ import annotations

import argparse
import datetime
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from run import WORKLOADS  # noqa: E402


def one_run(workload: str, seed: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(l[5:]) for l in lines if l.startswith("env: "))
    return json.loads(lines[-1]), env


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--record", metavar="LABEL")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or list(WORKLOADS)
    entry = {"label": args.record, "date": datetime.date.today().isoformat(),
             "run_seconds": spec["run_seconds"], "seeds": args.seeds,
             "workloads": {}}
    steady = True
    for workload in workloads:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in range(1, args.seeds + 1):
            result, env = one_run(workload, seed)
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} of "
                      f"{result['attempted']} checks failed")
                steady = False
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + "  ".join(
                f"{n}={v[-1]:.4g}" for n, v in values.items()), flush=True)
        entry["env"] = env
        summary = {}
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med
            flag = "ok" if spread <= m["bound"] / 3 else "UNSTEADY"
            if m["name"] != "setup_s" and spread > m["bound"] / 3:
                steady = False
            print(f"  {workload:<14} {m['name']:<12} median {med:.4g} "
                  f"{m['unit']}  q1 {q1:.4g}  q3 {q3:.4g}  spread "
                  f"{spread:.3f}  bound {m['bound']}  {flag}")
            summary[m["name"]] = {"median": med, "q1": q1,
                                  "q3": q3, "spread": spread, "unit": m["unit"],
                                  "values": v}
        entry["workloads"][workload] = summary
    if args.record:
        path = BENCH / "trajectory.json"
        history = json.loads(path.read_text()) if path.exists() else []
        history.append(entry)
        path.write_text(json.dumps(history, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
