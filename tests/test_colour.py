"""Commutation factors on Z_3^3 and the induced colour-bracket weights."""

import json

import pytest

from ternalg.algebra import colour3, sym3
from ternalg.colour import (CommutationFactor, GradeVector, check_axioms,
                            col3_weights, colour_weights, factor_table_csv,
                            paper_factor, standard_grades)
from ternalg.cyclo import ONE, Q, ZERO
from ternalg.report import emit_json


def test_axioms_exhaustive():
    rep = check_axioms(paper_factor())
    assert rep.passed, rep.residuals[:3]


def test_factor_group_follows_form_size():
    """The factor's group is Z_3^k for its k x k form."""
    assert len(list(paper_factor().elements())) == 27
    one = CommutationFactor(exponent_form=[[0]])
    assert list(one.elements()) == [(0,), (1,), (2,)]
    assert check_axioms(one).passed


@pytest.mark.parametrize("form", [[], [[0, 1]], [[0, 1], [1]],
                                  [[0, 1, 1], [-1, 0, 1]]])
def test_exponent_form_must_be_square(form):
    with pytest.raises(ValueError, match="square"):
        CommutationFactor(exponent_form=form)


def test_non_factor_counterexample():
    # q^(a1*b1) is symmetric, so N(a,b)N(b,a) = q^(2 a1 b1) != 1
    bad = CommutationFactor(exponent_form=[[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    rep = check_axioms(bad)
    assert not rep.passed
    assert any("q^" in res["element"] for res in rep.residuals)


def test_failing_axioms_report_as_json():
    """Residual indices of a failing sweep are plain ints, so the report
    serialises: 20 axiom-1 pairs, then the total."""
    bad = CommutationFactor(exponent_form=[[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    doc = json.loads(emit_json([check_axioms(bad)], {}))
    residuals = doc["checks"][0]["residuals"]
    assert len(residuals) == 21
    assert residuals[0] == {"indices": [[1, 0, 0], [1, 0, 0]],
                            "element": "N(a,b)N(b,a) = q^2"}
    for res in residuals[:20]:
        assert all(type(x) is int for grade in res["indices"] for x in grade)
    assert residuals[20] == {"indices": ["..."],
                             "element": "324 axiom-1 violations total"}


def test_non_biadditive_exponent_fails_axiom_3():
    """q^(a1^2 b1) is additive in b but not in a: the column sweep over c
    reports the first failing column, c = (1,0,0), capped at five triples."""
    class Skewed(CommutationFactor):
        def exponent(self, a, b):
            return a[0] * a[0] * b[0] % 3

    rep = check_axioms(Skewed(exponent_form=[[0] * 3] * 3))
    messages = [res["element"] for res in rep.residuals]
    assert "axiom 2 fails" not in messages
    axiom3 = [res["indices"] for res in rep.residuals
              if res["element"] == "axiom 3 fails"]
    assert axiom3 == [[(1, 0, 0), b, (1, 0, 0)] for b in
                      ((1, 0, 0), (1, 0, 1), (1, 0, 2), (1, 1, 0), (1, 1, 1))]


def test_col3_weights():
    assert tuple(col3_weights()) == (ONE, Q * Q, Q * Q, Q, Q, ONE)


def test_weights_sum_to_zero():
    assert sum(col3_weights(), ZERO) == ZERO


def test_zero_grades_give_symmetric_bracket():
    zero = GradeVector((0, 0, 0))
    weights = colour_weights(paper_factor(), zero, zero, zero)
    assert all(w == ONE for w in weights)


def test_grade_vector_reduction():
    assert GradeVector((4, -1, 3)) == (1, 2, 0)


def test_colour3_matches_sym3_for_unit_weights(alg2):
    a, b, c = alg2.theta(0), alg2.theta(1), alg2.d(0)
    assert colour3(a, b, c, (ONE,) * 6) == sym3(a, b, c)


def test_colour3_cube_vanishes(alg2):
    # weights sum to zero, so the bracket of three equal arguments dies
    u = alg2.eps(1, 0) + alg2.theta(1)
    assert not colour3(u, u, u, col3_weights())


def test_factor_symmetry_pairing():
    n = paper_factor()
    g1, g2, g3 = standard_grades()
    assert n(g1, g2) * n(g2, g1) == ONE
    assert n(g1, g2) == Q


def test_csv_dump_shape():
    text = factor_table_csv(paper_factor())
    lines = text.strip().split("\n")
    assert len(lines) == 1 + 27
    assert lines[0].startswith("a\\b,000,001")
    assert set(lines[1].split(",")[1:]) <= {"0", "1", "2"}
