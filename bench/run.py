"""Benchmark of ``ternalg verify``, the batch verifier's only user-facing job.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 bench/run.py --workload all          # every workload, one table

Each repetition runs ``bench/worker.py`` in a fresh interpreter, so caches
start cold and the peak RSS belongs to that repetition alone; users pay
both on every ``verify``.  A run repeats the workload until ``--seconds``
is spent and reports medians over the repetitions.  Every verdict is gated:
each check must pass with no residuals, and the check IDs must be the set
the (suite, dimension) emitted when the benchmark was defined
(``expected_checks.json``).

With ``--trace 0`` the run prints the end-to-end metrics.  With
``--trace 1`` it alternates untraced and traced repetitions and prints the
per-layer metrics (see README.md); the full trace, spans included, is
written to ``.bench_out/``.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

# name -> (suites, dimension); one verify call per suite.  Why each exists
# is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "relations-d2": (("para", "roby", "poincare", "superspace"), 2),
    "closure-d3": (("closure",), 3),
    "crosscheck-d3": (("oracle", "engine", "arith", "colour", "order3"), 3),
}
SUITES = ("arith", "engine", "para", "roby", "poincare", "order3", "colour",
          "superspace", "closure", "oracle")

# Every run, repetitions included, ends well inside 180 s.
DEADLINE_S = 165.0


class BenchError(Exception):
    """The benchmark cannot measure here; no result is printed."""


# -- verdict gate ---------------------------------------------------------

def load_expected() -> dict:
    with open(BENCH / "expected_checks.json") as fh:
        return json.load(fh)


def gate_document(doc: dict, expected_ids, dim: int, seed: int) -> int:
    """Number of wrong verdicts in one verify report.

    A check counts as failed when it is missing, not ``pass`` or carries
    residuals; a check ID outside the expected set counts too.  A report
    for other inputs than requested fails every check.
    """
    expected_ids = set(expected_ids)
    config = doc.get("config", {})
    if config.get("dimension") != dim or config.get("seed") != seed:
        return len(expected_ids)
    got = {c["check_id"]: c for c in doc.get("checks", [])}
    failed = sum(1 for cid in expected_ids
                 if cid not in got or got[cid]["status"] != "pass"
                 or got[cid]["residuals"])
    failed += len(set(got) - expected_ids)
    return min(failed, len(expected_ids))


def gate_call(call: dict, expected: dict, seed: int) -> tuple[int, int]:
    """(attempted, failed) for one verify call; a crash or a non-zero exit
    fails every check of the call."""
    expected_ids = expected[call["suite"]][str(call["dim"])]
    attempted = len(expected_ids)
    if call.get("error") or call.get("rc") != 0:
        return attempted, attempted
    try:
        doc = json.loads(call["report"])
    except ValueError:
        return attempted, attempted
    return attempted, gate_document(doc, expected_ids, call["dim"], seed)


# -- repetitions ----------------------------------------------------------

def worker_env() -> dict:
    env = dict(os.environ)
    # measure the default serial suite runner
    env.pop("TERNALG_THREADS", None)
    env["PYTHONPATH"] = str(SRC)
    # fixed string hashing, so traced counts repeat exactly
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(calls, seed: int, traced: bool, timeout: float) -> dict:
    spec = json.dumps({"calls": calls, "seed": seed, "trace": traced})
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), spec], cwd=ROOT,
            env=worker_env(), capture_output=True, text=True,
            timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return {"lost": "timed out"}
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"lost": f"exit {proc.returncode}: {tail[0]}"}
    try:
        rep = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {"lost": "no result line"}
    if not Path(rep["ternalg_file"]).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"imported ternalg from {rep['ternalg_file']}, "
                         f"not from {SRC}")
    return rep


def repeat(workload: str, seed: int, seconds: float, trace: bool,
           t_start: float) -> list[tuple[bool, dict]]:
    """Repetitions until ``seconds`` are spent: untraced only, or
    alternating untraced and traced.  At least one of each kind runs."""
    suites, dim = WORKLOADS[workload]
    calls = [[s, dim] for s in suites]
    cycle = (False, True) if trace else (False,)
    reps: list[tuple[bool, dict]] = []
    took = {False: [], True: []}
    t_measure = time.monotonic()
    k = 0
    while True:
        traced = cycle[k % len(cycle)]
        if k >= len(cycle):
            now = time.monotonic()
            guess = statistics.median(took[traced])
            if (now - t_measure + guess > seconds
                    or now - t_start + 1.5 * guess > DEADLINE_S):
                break
        t = time.monotonic()
        rep = run_worker(calls, seed, traced,
                         DEADLINE_S - (t - t_start))
        rep.setdefault("calls", [])
        rep["expected_calls"] = calls
        took[traced].append(time.monotonic() - t)
        reps.append((traced, rep))
        k += 1
        if "lost" in rep:
            break
    return reps


# -- metrics --------------------------------------------------------------

def _median(values):
    return statistics.median(values) if values else 0.0


def tally(reps, expected: dict, seed: int) -> tuple[int, int]:
    attempted = failed = 0
    for _, rep in reps:
        done = {(c["suite"], c["dim"]) for c in rep["calls"]}
        for call in rep["calls"]:
            a, f = gate_call(call, expected, seed)
            attempted += a
            failed += f
        for suite, dim in rep["expected_calls"]:
            if (suite, dim) not in done:  # lost with its process
                n = len(expected[suite][str(dim)])
                attempted += n
                failed += n
    return attempted, failed


def end_to_end(reps) -> dict:
    plain = [r for traced, r in reps if not traced and "lost" not in r]
    return {
        "verify_s": _median([r["verify_s"] for r in plain]),
        "setup_s": _median([r["setup_s"] for r in plain]),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in plain]),
    }


# per-layer metric -> (aggregate name, field) in the tracer summary
_AGGREGATE_METRICS = {
    "cyclo.mul.calls": ("cyclo.mul", "calls"),
    "cyclo.addsub.calls": ("cyclo.addsub", "calls"),
    "cyclo.div.calls": ("cyclo.div", "calls"),
    "algebra.product.calls": ("algebra.product", "calls"),
    "algebra.product.self_s": ("algebra.product", "self_s"),
    "algebra.linear.calls": ("algebra.linear", "calls"),
    "algebra.linear.self_s": ("algebra.linear", "self_s"),
    "algebra.normalize.calls": ("algebra.normalize", "calls"),
    "algebra.normalize.s": ("algebra.normalize", "s"),
    "algebra.reduce.calls": ("algebra.reduce", "calls"),
    "algebra.reduce.s": ("algebra.reduce", "s"),
    "algebra.system_init.s": ("algebra.system_init", "s"),
    "algebra.commutator.calls": ("algebra.commutator", "calls"),
    "algebra.commutator.s": ("algebra.commutator", "s"),
    "algebra.sym3.calls": ("algebra.sym3", "calls"),
    "algebra.sym3.s": ("algebra.sym3", "s"),
    "superspace.ad_V.calls": ("superspace.ad_V", "calls"),
    "superspace.ad_V.s": ("superspace.ad_V", "s"),
    "superspace.V.s": ("superspace.V", "s"),
    "superspace.colour_action.calls": ("superspace.colour_action", "calls"),
    "superspace.colour_action.s": ("superspace.colour_action", "s"),
    "superspace.build.s": ("superspace.build", "s"),
    "matrixrep.build_rep.s": ("matrixrep.build_rep", "s"),
    "matrixrep.matmul.calls": ("matrixrep.matmul", "calls"),
    "matrixrep.matmul.s": ("matrixrep.matmul", "s"),
    "matrixrep.evaluate.s": ("matrixrep.evaluate", "s"),
    "order3.check_lie.s": ("order3.check_lie", "s"),
    "order3.against_superspace.s": ("order3.against_superspace", "s"),
    "colour.check_axioms.s": ("colour.check_axioms", "s"),
    "report.emit.s": ("report.emit", "s"),
}
_CYCLO = ("cyclo.mul", "cyclo.addsub", "cyclo.div")
# counts that must repeat exactly between traced repetitions at one seed
REPEATING_COUNTS = ("cyclo.mul.calls", "cyclo.addsub.calls", "cyclo.div.calls",
                    "algebra.product.calls", "algebra.product.pairs",
                    "algebra.product.terms_out", "algebra.product.peak_terms",
                    "superspace.ad_V.calls", "superspace.ad_V.words",
                    "superspace.ad_V.distinct_words")


def layer_metrics(summary: dict) -> dict:
    agg = summary["aggregates"]
    out = {}
    for metric, (name, field) in _AGGREGATE_METRICS.items():
        out[metric] = agg.get(name, {}).get(field, 0)
    out["cyclo.self_s"] = sum(agg.get(n, {}).get("self_s", 0.0)
                              for n in _CYCLO)
    out.update(summary["counts"])
    return out


def per_layer(reps) -> tuple[dict, bool, dict]:
    """Per-layer metrics, whether the counts repeated, and the last trace."""
    plain = [r for traced, r in reps if not traced and "lost" not in r]
    traced = [r for t, r in reps if t and "lost" not in r]
    layers = [layer_metrics(r["trace"]) for r in traced]
    metrics = {}
    for name in layers[0] if layers else ():
        values = [m[name] for m in layers]
        metrics[name] = (values[0] if isinstance(values[0], int)
                         else _median(values))
    repeated = all(m[name] == layers[0][name]
                   for m in layers for name in REPEATING_COUNTS)

    gcs = [tuple(r["gc"]) for r in plain]
    repeated = repeated and len(set(gcs)) <= 1
    if gcs:
        metrics["process.gc.collections"] = sum(gcs[0])
        metrics["process.gc.gen2"] = gcs[0][2]
    # suite and check sweep times come from the untraced repetitions
    for suite in SUITES:
        metrics[f"suite.{suite}.s"] = _median(
            [c["s"] for r in plain for c in r["calls"] if c["suite"] == suite])
    check_s = {}
    for r in plain:
        for c in r["calls"]:
            try:
                doc = json.loads(c["report"])
            except ValueError:
                continue
            for chk in doc["checks"]:
                check_s.setdefault(chk["check_id"], []).append(
                    chk["elapsed_ms"] / 1000.0)
    for cid in sorted(check_s):
        metrics[f"check.{cid}.s"] = _median(check_s[cid])
    metrics["trace.overhead_s"] = (
        _median([r["verify_s"] for r in traced])
        - _median([r["verify_s"] for r in plain]))
    return metrics, repeated, (traced[-1]["trace"] if traced else {})


# -- environment and output -----------------------------------------------

def environment(reps) -> dict:
    done = [r for _, r in reps if "lost" not in r]
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=10)
            if proc.returncode == 0:
                commit = proc.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"commit": commit,
            "python": done[0]["python"] if done else sys.version.split()[0],
            "numpy": done[0]["numpy"] if done else "unknown",
            "nproc": os.cpu_count(),
            "TERNALG_THREADS": "unset"}


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def emit(metrics: dict, wanted, correct: bool, attempted: int, failed: int):
    """The result line: exactly the metrics BENCHMARK.json names."""
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing and correct:
        raise BenchError(f"metrics not produced: {', '.join(missing)}")
    # a run that lost its repetitions is reported as failed, not dropped
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": metrics.get(m["name"], 0),
                                "unit": m["unit"]} for m in wanted}}))


def unit_of(name: str) -> str:
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_share"):
        return "ratio"
    return "count"


def print_table(title: str, metrics: dict):
    print(f"== {title}")
    width = max(len(n) for n in metrics)
    for name, value in metrics.items():
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:<{width}}  {shown:>12} {unit_of(name)}")


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 t_start: float) -> tuple[dict, bool, int, int]:
    expected = load_expected()
    reps = repeat(workload, seed, seconds, trace, t_start)
    attempted, failed = tally(reps, expected, seed)
    correct = failed == 0
    for traced, rep in reps:
        if "lost" in rep:
            print(f"repetition lost ({'traced' if traced else 'untraced'}): "
                  f"{rep['lost']}", file=sys.stderr)
        for call in rep["calls"]:
            if call["error"]:
                print(f"verify --suite {call['suite']} crashed:\n"
                      f"{call['error']}", file=sys.stderr)
    n_plain = sum(1 for t, _ in reps if not t)
    n_traced = len(reps) - n_plain
    env = environment(reps)
    metrics = end_to_end(reps)
    metrics["failed_share"] = failed / attempted if attempted else 1.0
    print_table(f"{workload} seed={seed} end to end "
                f"(median of {n_plain} untraced repetitions)", metrics)
    print("  repetitions verify_s: " + " ".join(
        f"{r['verify_s']:.3f}" for t, r in reps if not t and "lost" not in r))
    if trace:
        layers, repeated, last = per_layer(reps)
        if not repeated:
            correct = False
            print("count metrics differ between repetitions at one seed",
                  file=sys.stderr)
        print_table(f"{workload} seed={seed} per layer "
                    f"({n_traced} traced repetitions)", layers)
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"trace-{workload}-seed{seed}.json"
        with open(path, "w") as fh:
            json.dump({"workload": workload, "seed": seed, "env": env,
                       "metrics": layers, "end_to_end": metrics,
                       "trace": last}, fh)
        print(f"trace written to {path.relative_to(ROOT)}")
        metrics = layers
    print("env: " + json.dumps(env))
    return metrics, correct, attempted, failed


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None,
                   help="measuring time per workload (default: run_seconds "
                        "in BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    t_start = time.monotonic()
    try:
        if not (SRC / "ternalg" / "__init__.py").is_file():
            raise BenchError(f"no ternalg source tree at {SRC}")
        spec = load_spec()
        seconds = args.seconds or spec["run_seconds"]
        wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
        compileall.compile_dir(str(SRC), quiet=1)
        if args.workload != "all":
            metrics, correct, attempted, failed = run_workload(
                args.workload, args.seed, seconds, bool(args.trace), t_start)
            emit(metrics, wanted, correct, attempted, failed)
            return 0
        names = [m["name"] for m in wanted]
        if not args.trace:
            names.append("failed_share")
        combined, correct, attempted, failed = {}, True, 0, 0
        for workload in WORKLOADS:
            metrics, ok, a, f = run_workload(workload, args.seed, seconds,
                                             bool(args.trace), time.monotonic())
            correct, attempted, failed = correct and ok, attempted + a, failed + f
            combined.update({f"{workload}.{n}": metrics.get(n, 0)
                             for n in names})
        print_table("all workloads", combined)
        print(json.dumps({"correct": correct, "attempted": attempted,
                          "failed": failed,
                          "metrics": {n: {"value": v, "unit": unit_of(n)}
                                      for n, v in combined.items()}}))
        return 0
    except (BenchError, OSError, json.JSONDecodeError) as err:
        print(f"bench: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
