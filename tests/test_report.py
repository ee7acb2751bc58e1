"""The check primitive: CheckReport times itself and records residuals."""

import inspect
import json
from fractions import Fraction

import pytest

from ternalg.algebra import Element, GeneratorSystem
from ternalg.cyclo import ONE, Q, ZERO
from ternalg.report import CheckReport, emit_json, reports_to_document


def _pair_system():
    return GeneratorSystem(("a", "b"), swap_sign={(0, 1): -1},
                           contraction={(1, 0): ONE}, square_zero=(0, 1))


def test_elapsed_stamped_on_normal_exit():
    with CheckReport("t.normal", "ref") as rep:
        assert rep.elapsed_ms == 0.0
        sum(range(1000))
    assert rep.elapsed_ms > 0.0
    assert rep.passed


def test_elapsed_stamped_on_early_return():
    def check():
        with CheckReport("t.return", "ref") as rep:
            rep.add_residual(("shape",), "mismatch")
            return rep

    rep = check()
    assert rep.elapsed_ms > 0.0
    assert rep.status == "fail"


def test_exception_propagates():
    rep = CheckReport("t.raise", "ref")
    with pytest.raises(ZeroDivisionError):
        with rep:
            ONE / ZERO
    assert rep.elapsed_ms > 0.0


@pytest.mark.parametrize("zero", [
    Element.zero(_pair_system()), ZERO, Fraction(0), 0,
], ids=["Element", "Cyclo", "Fraction", "int"])
def test_expect_zero_skips_zero(zero):
    rep = CheckReport("t.zero", "ref")
    rep.expect_zero((0,), zero)
    assert rep.passed and rep.residuals == []


def test_expect_zero_records_str_of_nonzero():
    system = _pair_system()
    b_a = Element.generator(system, 1) * Element.generator(system, 0)
    values = [b_a, Q - ONE, Fraction(-2, 3), 5]
    rep = CheckReport("t.nonzero", "ref")
    for k, v in enumerate(values):
        rep.expect_zero((k, "x"), v)
    assert rep.status == "fail"
    assert rep.residuals == [{"indices": [k, "x"], "element": str(v)}
                             for k, v in enumerate(values)]
    assert rep.residuals[0]["element"] == "1 - a b"


def test_document_holds_only_record_fields():
    """Each check's dict holds the record's fields, in constructor order,
    and nothing else (not the start time of the ``with`` block)."""
    with CheckReport("t.doc", "ref", notes="n") as rep:
        rep.expect_zero(("i",), Fraction(1, 2))
    doc = reports_to_document([rep], {"seed": 0})
    assert list(doc["checks"][0]) \
        == list(inspect.signature(CheckReport).parameters) \
        == ["check_id", "paper_ref", "status", "residuals", "elapsed_ms",
            "notes"]
    assert json.loads(emit_json([rep], {"seed": 0})) == doc
