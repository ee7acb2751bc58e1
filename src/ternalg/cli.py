"""Command-line front end.

Verbs:

* ``verify --suite <id> [--dim N] [--seed S] [--report json|text] [--out F]``
* ``eval '<expr>' [--dim N] [--star]``
* ``dump-factor --csv``
* ``export-sc --instance cubic-poincare [--dim N] [--out F]``

Exit status is 0 iff everything requested passed, and 2 for bad input.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .colour import factor_table_csv, paper_factor
from .order3 import cubic_poincare
from .report import emit_json, emit_text
from .suites import SUITE_IDS, SuiteSpec, run_suite
from .superspace import MetricSignature, SuperspaceConfig, build

# J_{MN} and L_{MN} take single-digit indices, so d = 10 is the largest
# dimension whose every generator the DSL can name.
MAX_DIM = 10

_GENERATOR_HELP = """\
generator names: theta^M, theta, d_M, eps1^M..eps3^M, x^M, P_M,
derived symbols J_{MN}, L_{MN}, V_1..V_3, psi+_M, psi-_M (M, N indices
below the configured dimension); 'q' is the primitive cube root of unity.
Brackets: [a,b] commutator, {a,b,c} symmetric ternary,
cbr((g1),(g2),(g3); a,b,c) colour ternary with grade vectors,
star(e) the antilinear anti-involution, act(a,b,..; e) nested commutators.
A leading '-' negates the first term; put an expression that starts with
'-' after '--', options first: ternalg eval --dim 2 -- '-q'.
"""


@functools.cache  # built on the first call, not at import
def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ternalg",
        description="Exact checks for the order-two parafermionic "
                    "superspace and its cubic symmetry algebra.")
    sub = p.add_subparsers(dest="verb", required=True)

    v = sub.add_parser("verify", help="run a named check suite")
    v.add_argument("--suite", required=True, choices=SUITE_IDS)
    v.add_argument("--dim", type=int, default=4)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--report", choices=("json", "text"), default="text")
    v.add_argument("--out", default=None, help="write the report to a file")

    e = sub.add_parser("eval", help="evaluate a DSL expression",
                       epilog=_GENERATOR_HELP,
                       formatter_class=argparse.RawDescriptionHelpFormatter)
    e.add_argument("expr")
    e.add_argument("--dim", type=int, default=4)
    e.add_argument("--star", action="store_true",
                   help="apply the star involution to the result")

    f = sub.add_parser("dump-factor",
                       help="dump the commutation factor over Z_3^3")
    f.add_argument("--csv", action="store_true", required=True,
                   help="CSV of q-exponents, 27 x 27")

    x = sub.add_parser("export-sc", help="export structure constants as JSON")
    x.add_argument("--instance", required=True, choices=("cubic-poincare",))
    x.add_argument("--dim", type=int, default=4)
    x.add_argument("--out", default=None)
    return p


def _write(text: str, out=None):
    (out or sys.stdout).write(text if text.endswith("\n") else text + "\n")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)

    dim = getattr(args, "dim", None)
    if dim is not None and not 1 <= dim <= MAX_DIM:
        print(f"error: --dim must be between 1 and {MAX_DIM}, got {dim}",
              file=sys.stderr)
        return 2

    # open --out before any work, so an unwritable path costs no run
    out = None
    if getattr(args, "out", None) is not None:
        try:
            out = open(args.out, "w")
        except OSError as err:
            print(f"error: cannot write --out {args.out}: {err.strerror}",
                  file=sys.stderr)
            return 2
    try:
        return _run(args, out)
    finally:
        if out is not None:
            out.close()


def _run(args, out) -> int:
    if args.verb == "verify":
        spec = SuiteSpec(args.suite, dimension=args.dim, seed=args.seed)
        reports = run_suite(spec)
        if args.report == "json":
            _write(emit_json(reports, spec.config_dict()), out)
        else:
            _write(emit_text(reports), out)
        return 0 if all(r.passed for r in reports) else 1

    if args.verb == "eval":
        from . import dsl  # only eval parses an expression

        alg = build(SuperspaceConfig(metric=MetricSignature.minkowski(args.dim)))
        try:
            value = dsl.evaluate(args.expr, alg)
        except dsl.DslError as err:
            print(f"error: {err}", file=sys.stderr)
            return 2
        except RecursionError:
            print("error: expression is nested too deeply", file=sys.stderr)
            return 2
        if args.star:
            value = value.star()
        print(value)
        return 0

    if args.verb == "dump-factor":
        _write(factor_table_csv(paper_factor()))
        return 0

    if args.verb == "export-sc":
        sc = cubic_poincare(MetricSignature.minkowski(args.dim))
        _write(sc.to_json(), out)
        return 0

    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
