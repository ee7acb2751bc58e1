"""CLI verbs, exit codes, report formats and determinism."""

import json
import os
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from ternalg.cli import main
from ternalg.order3 import cubic_poincare
from ternalg.report import emit_json
from ternalg.suites import SUITE_IDS, SuiteSpec, run_suite
from ternalg.superspace import MetricSignature


def _strip_timings(doc: dict) -> dict:
    doc = json.loads(json.dumps(doc))
    for c in doc["checks"]:
        c["elapsed_ms"] = 0.0
    return doc


def _mask_timings(text: str) -> str:
    return re.sub(r'"elapsed_ms": [^,\n]+', '"elapsed_ms": 0', text)


def test_verify_text_pass(capsys):
    code = main(["verify", "--suite", "colour"])
    out = capsys.readouterr().out
    assert code == 0
    assert "[PASS] colour.axioms" in out
    assert "checks passed" in out


def test_verify_json_document(capsys):
    code = main(["verify", "--suite", "arith", "--report", "json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["version"] == "1"
    assert doc["config"]["dimension"] == 4
    assert doc["config"]["kappa"] == "1/2"
    assert all(c["status"] == "pass" for c in doc["checks"])
    # ids come out sorted
    ids = [c["check_id"] for c in doc["checks"]]
    assert ids == sorted(ids)


def test_verify_deterministic(capsys):
    main(["verify", "--suite", "engine", "--seed", "3", "--report", "json"])
    first = _strip_timings(json.loads(capsys.readouterr().out))
    main(["verify", "--suite", "engine", "--seed", "3", "--report", "json"])
    second = _strip_timings(json.loads(capsys.readouterr().out))
    assert json.dumps(first) == json.dumps(second)


def test_closure_report_does_not_depend_on_the_seed(capsys):
    """``closure`` draws no sample: ``verify --suite closure --dim 3`` at
    seeds 0 and 7 gives the same JSON apart from ``config.seed`` and the
    timings."""
    docs = []
    for seed in ("0", "7"):
        assert main(["verify", "--suite", "closure", "--dim", "3", "--seed",
                     seed, "--report", "json"]) == 0
        doc = _strip_timings(json.loads(capsys.readouterr().out))
        assert doc["config"].pop("seed") == int(seed)
        docs.append(doc)
    assert docs[0] == docs[1]


def test_verify_json_is_byte_identical_across_hash_seeds():
    """``verify --suite all --dim 3 --report json`` in two interpreters
    with different string-hash seeds prints the same bytes, elapsed_ms
    masked: no report depends on set or dict iteration order."""
    src = Path(__file__).resolve().parent.parent / "src"
    outputs = []
    for seed in ("1", "2"):
        run = subprocess.run(
            [sys.executable, "-m", "ternalg.cli", "verify", "--suite", "all",
             "--dim", "3", "--report", "json"], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": seed})
        assert run.returncode == 0, run.stderr
        outputs.append(_mask_timings(run.stdout))
    assert outputs[0].count('"elapsed_ms": 0') == 55
    assert outputs[0] == outputs[1]


def test_verify_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main(["verify", "--suite", "colour", "--report", "json",
                 "--out", str(target)])
    capsys.readouterr()
    assert code == 0
    doc = json.loads(target.read_text())
    assert doc["checks"]


def test_eval(capsys):
    assert main(["eval", "[P_0, x^0]", "--dim", "2"]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_eval_star(capsys):
    assert main(["eval", "q", "--star", "--dim", "2"]) == 0
    assert capsys.readouterr().out.strip() == "(-1 - q)"


def test_eval_error_exit_code(capsys):
    assert main(["eval", "[x^0"]) == 2
    assert "error" in capsys.readouterr().err


def _readme_eval_examples():
    """(argv, printed) for each ``ternalg eval`` line of the README's CLI
    block; printed is the X of a trailing ``# -> X``, else None."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```")[0]
    examples = []
    for line in block.splitlines():
        if line.startswith("ternalg eval "):
            argv = shlex.split(line, comments=True)[1:]
            printed = line.partition("# -> ")[2].strip() or None
            examples.append(pytest.param(argv, printed, id=" ".join(argv)))
    assert examples, "the README's CLI block has no 'ternalg eval' line"
    return examples


@pytest.mark.parametrize("argv, printed", _readme_eval_examples())
def test_readme_eval_examples(argv, printed, capsys):
    assert main(argv) == 0
    out = capsys.readouterr().out
    if printed is not None:
        assert out.strip() == printed


@pytest.mark.parametrize("argv", [["(-1)*q"], ["--star", "q"], ["1 - q*q"]])
def test_eval_reads_back_its_scalar_output(argv, capsys):
    assert main(["eval", "--dim", "2"] + argv) == 0
    printed = capsys.readouterr().out.strip()
    assert main(["eval", "--dim", "2", "--", printed]) == 0
    assert capsys.readouterr().out.strip() == printed


@pytest.mark.parametrize("expr, dim", [
    ("theta^0 + foo", "4"),
    ("theta^0 * theta^7", "2"),
    # a lowered index is not another spelling: theta_1 = -theta^1
    ("theta^1 + theta_1", "2"),
    # a Green component must exist; x^mu is one generator, named x^mu
    ("theta^0 + x^0(1)", "2"),
])
def test_eval_unknown_generator_position(expr, dim, capsys):
    assert main(["eval", expr, "--dim", dim]) == 2
    err = capsys.readouterr().err
    assert "unknown generator" in err
    assert "(at position 10)" in err


@pytest.mark.parametrize("expr", [
    "(" * 400 + "theta^0" + ")" * 400,
    "[" * 400 + "theta^0" + ", theta^1]" * 400,
], ids=["parentheses", "commutators"])
def test_eval_deep_nesting_rejected(expr, capsys):
    assert main(["eval", expr, "--dim", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: expression is nested too deeply\n"


@pytest.mark.parametrize("expr, message, pos", [
    ("1/0 * theta^0", "zero denominator", 2),
    ("cbr((1,0),(0,1,0),(0,0,1); theta^0, theta^1, d_1)",
     "a grade vector needs exactly three components", 4),
    ("theta^0 + cbr((1,0,0),(0,1,0); theta^0, theta^1, d_1)",
     "cbr needs exactly three grade vectors", 10),
])
def test_eval_bad_literal_position(expr, message, pos, capsys):
    assert main(["eval", expr, "--dim", "2"]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert f"(at position {pos})" in err


LONG = "9" * 5000  # past int()'s default limit of 4,300 digits


@pytest.mark.parametrize("expr, message", [
    ("1/" + LONG, "number is too long (at position 2)"),
    ("cbr((" + LONG + ",0,0),(0,1,0),(0,0,1); theta^0, theta^1, d_1)",
     "number is too long (at position 5)"),
    ("psi+_" + LONG, "number is too long (at position 5)"),
    # each literal reads, but their product has 6,000 digits
    ("9" * 3000 + "*" + "9" * 3000, "a coefficient is too long to print"),
], ids=["rational", "grade", "psi-index", "product"])
def test_eval_rejects_numbers_past_the_int_digit_limit(expr, message, capsys):
    """A literal that ``int()`` refuses to convert, and a result whose
    coefficient ``str()`` refuses to print, are bad input: exit 2 and one
    ``error:`` line, with no traceback and nothing printed."""
    assert main(["eval", expr, "--dim", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def _assert_golden(doc: dict, name: str):
    """``doc`` equals the stored report ``tests/data/<name>`` apart from
    the timings."""
    for c in doc["checks"]:
        del c["elapsed_ms"]
    golden = Path(__file__).parent / "data" / name
    assert doc == json.loads(golden.read_text())


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 10])
def test_verify_all_matches_golden_report(dim, capsys):
    """``verify --suite all``, seed 0, equals the stored report apart from
    the timings: at d = 1 and 2, where the free-name group Sym(F) is the
    only quotient, at d = 3, at d = 4 and 5, where the spatial quotient is
    live too (S_3 and S_4 on the spatial indices), and at ``MAX_DIM`` =
    10, where the pair tables answer the most reversed pairs."""
    assert main(["verify", "--suite", "all", "--dim", str(dim), "--seed", "0",
                 "--report", "json"]) == 0
    _assert_golden(json.loads(capsys.readouterr().out),
                   f"verify_all_d{dim}_seed0.json")


def test_verify_all_runs_at_dim_1(capsys):
    """Every suite runs at the smallest accepted dimension; the probes that
    need a second index are skipped and named in the notes."""
    assert main(["verify", "--suite", "all", "--dim", "1",
                 "--report", "json"]) == 0
    checks = {c["check_id"]: c for c in
              json.loads(capsys.readouterr().out)["checks"]}
    assert all(c["status"] == "pass" for c in checks.values())
    assert "d = 1" in checks["psi.bracket"]["notes"]
    assert "d = 1" in checks["closure.symmetric"]["notes"]


def test_failing_report_matches_golden(corrupted_d2_runs):
    """With the pairing corrupted to kappa = 1/3, ``--suite all`` at d = 2
    fails 13 checks; their residual indices and renderings equal the stored
    report apart from the timings."""
    spec, reports = corrupted_d2_runs["kappa=1/3"]
    _assert_golden(json.loads(emit_json(reports, spec.config_dict())),
                   "verify_all_d2_kappa13.json")


def test_failing_report_d3_matches_golden():
    """With kappa = 1/3 at d = 3 the spatial gate passes, but some orbit
    representatives are nonzero, so the sweeps fall back to every tuple:
    ``--suite all`` fails 14 checks (``closure.leib`` 18 residuals,
    ``para1.2`` 72, ``psi.bracket`` 42, ...), and their residuals equal the
    stored report apart from the timings."""
    spec = SuiteSpec("all", dimension=3, kappa=Fraction(1, 3))
    reports = run_suite(spec)
    failed = {r.check_id: len(r.residuals) for r in reports if not r.passed}
    assert len(failed) == 14
    assert (failed["closure.leib"], failed["para1.2"],
            failed["psi.bracket"]) == (18, 72, 42)
    _assert_golden(json.loads(emit_json(reports, spec.config_dict())),
                   "verify_all_d3_kappa13.json")


@pytest.mark.parametrize("dim, kappa, strategy, name", [
    (3, Fraction(1, 2), "leftmost", "verify_all_d3_seed0.json"),
    (4, Fraction(1, 2), "leftmost", "verify_all_d4_seed0.json"),
    (5, Fraction(1, 2), "leftmost", "verify_all_d5_seed0.json"),
    (2, Fraction(1, 3), "leftmost", "verify_all_d2_kappa13.json"),
    (3, Fraction(1, 3), "leftmost", "verify_all_d3_kappa13.json"),
    (3, Fraction(1, 2), "random", "verify_all_d3_seed0.json")],
    ids=["d3", "d4", "d5", "d2-kappa13", "d3-kappa13", "d3-random"])
def test_reference_kernel_reproduces_the_golden_report(
        dim, kappa, strategy, name, reference_kernel):
    """With every product normal-formed by the one-step rewriter and every
    bracket pair on the two-pass path, ``--suite all`` still equals the
    stored report apart from the timings, failing residuals included: no
    verdict rests on ``times_word`` or on the graded shortcut alone.  The
    ``engine.*`` checks then compare the rewriter with itself, so they
    show nothing here."""
    reference_kernel(strategy)
    spec = SuiteSpec("all", dimension=dim, seed=0, kappa=kappa)
    _assert_golden(json.loads(emit_json(run_suite(spec), spec.config_dict())),
                   name)


def test_dump_factor(capsys):
    assert main(["dump-factor", "--csv"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 28
    assert lines[0].startswith("a\\b,")


def test_export_sc(tmp_path, capsys):
    """The written document holds the cubic Poincare tables exactly: each
    entry is an index tuple and its value, an exact rational in a string,
    and the entries of each table are its nonzeros."""
    target = tmp_path / "sc.json"
    assert main(["export-sc", "--instance", "cubic-poincare", "--dim", "3",
                 "--out", str(target)]) == 0
    capsys.readouterr()
    doc = json.loads(target.read_text())
    sc = cubic_poincare(MetricSignature.minkowski(3))
    assert (doc["dim0"], doc["dim1"]) == (sc.dim0, sc.dim1) == (6, 3)
    assert (doc["labels0"], doc["labels1"]) == (list(sc.labels0),
                                                list(sc.labels1))
    for name, table in (("f", sc.f), ("R", sc.R), ("Q", sc.Q)):
        entries = {tuple(entry[:-1]): Fraction(entry[-1])
                   for entry in doc[name]}
        assert entries == table and len(doc[name]) == len(table)


def test_export_sc_matches_golden(capsys):
    """``export-sc`` at d = 3 prints the stored document byte for byte: a
    pin of the tables that is not read back from ``cubic_poincare``."""
    assert main(["export-sc", "--instance", "cubic-poincare",
                 "--dim", "3"]) == 0
    golden = Path(__file__).parent / "data" / "export_sc_d3.json"
    assert capsys.readouterr().out == golden.read_text()


@pytest.mark.parametrize("dim", ["0", "11"])
@pytest.mark.parametrize("verb", [
    ["verify", "--suite", "para"],
    ["eval", "theta^0"],
    ["export-sc", "--instance", "cubic-poincare"],
])
def test_bad_dim_rejected_before_any_work(verb, dim, monkeypatch, capsys):
    import ternalg.cli as cli

    def must_not_run(*args, **kwargs):
        raise AssertionError("work started before --dim was validated")

    for name in ("run_suite", "build", "cubic_poincare"):
        monkeypatch.setattr(cli, name, must_not_run)
    assert main(verb + ["--dim", dim]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "--dim" in captured.err


def test_unknown_suite_rejected():
    with pytest.raises(SystemExit):
        main(["verify", "--suite", "bogus"])


def test_one_process_runs_each_verb_as_a_fresh_process(capsys):
    """``main`` builds its parser once, on its first call, and reuses it: one
    process that runs ``verify``, then ``eval``, then a bad ``--suite``
    gets from each the exit code, stdout and stderr (elapsed_ms masked)
    that a fresh ``python -m ternalg.cli`` gets, and the bad suite exits
    with code 2."""
    import ternalg.cli as cli

    src = Path(__file__).resolve().parent.parent / "src"
    results = []
    for argv in (["verify", "--suite", "engine", "--dim", "2",
                  "--report", "json"],
                 ["eval", "--dim", "2", "[theta^0, d_0]"],
                 ["verify", "--suite", "bogus"]):
        try:
            code = main(argv)
        except SystemExit as exit:
            code = exit.code
        got = capsys.readouterr()
        fresh = subprocess.run([sys.executable, "-m", "ternalg.cli", *argv],
                               capture_output=True, text=True,
                               env={**os.environ, "PYTHONPATH": str(src)})
        results.append(code)
        assert (code, _mask_timings(got.out), got.err) == (
            fresh.returncode, _mask_timings(fresh.stdout), fresh.stderr)
    assert results == [0, 0, 2]
    assert cli._build_parser.cache_info().misses == 1


def test_suite_spec_validation():
    with pytest.raises(ValueError):
        SuiteSpec("bogus")
    assert "all" in SUITE_IDS



@pytest.mark.parametrize("verb", [
    ["verify", "--suite", "arith", "--dim", "2"],
    ["export-sc", "--instance", "cubic-poincare", "--dim", "2"],
])
def test_unwritable_out_rejected_before_any_work(verb, tmp_path, monkeypatch,
                                                 capsys):
    import ternalg.cli as cli

    def must_not_run(*args, **kwargs):
        raise AssertionError("work started before --out was opened")

    for name in ("run_suite", "build", "cubic_poincare"):
        monkeypatch.setattr(cli, name, must_not_run)
    target = tmp_path / "missing" / "r.json"
    assert main(verb + ["--out", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: ") and "--out" in captured.err
    assert not target.parent.exists()


def test_verify_never_imports_numpy():
    """ternalg runs on the standard library alone: a whole ``verify --suite
    all`` in a fresh interpreter leaves numpy unimported."""
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys; from ternalg import cli; "
            "code = cli.main(['verify', '--suite', 'all', '--dim', '2']); "
            "print('numpy' in sys.modules, code)")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "False 0"


# ternalg's standard-library imports, bar ``re`` (the DSL's alone), and
# ``__future__``, which every module's ``from __future__ import
# annotations`` imports
STDLIB_DEPENDENCIES = ("__future__, argparse, collections.abc, fractions, "
                       "functools, itertools, json, math, random, time")


def _modules_loaded_by(statement: str) -> set:
    src = Path(__file__).resolve().parent.parent / "src"
    code = f"import sys; {statement}; print(*sorted(sys.modules))"
    run = subprocess.run([sys.executable, "-S", "-c", code],
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert run.returncode == 0, run.stderr
    return set(run.stdout.split())


def test_import_loads_only_what_a_run_executes():
    """``import ternalg.cli``, in a fresh interpreter without site hooks,
    loads no module that ternalg's standard-library dependencies do not
    load alone, apart from ternalg's own, and not ``ternalg.dsl``, which
    only ``eval`` needs.  Comparing against those dependencies keeps the
    test independent of what each Python version's stdlib imports."""
    extra = (_modules_loaded_by("import ternalg.cli")
             - _modules_loaded_by(f"import {STDLIB_DEPENDENCIES}"))
    assert {name for name in extra if name.partition(".")[0] != "ternalg"} \
        == set()
    assert "ternalg.cli" in extra and "ternalg.dsl" not in extra
