"""Expression language: grammar, round trips, evaluation, errors."""

import pytest

from ternalg import dsl
from ternalg.algebra import commutator, sym3
from ternalg.cyclo import Cyclo, Q


ROUND_TRIP_SOURCES = [
    "[P_0, x^0]",
    "{theta^0, theta^1, d_1} - 2*theta^0",
    "cbr((1,0,0),(0,1,0),(0,0,1); V_1, V_2, V_3)",
    "star([theta^0, d_1]) + 1/2 * x^0 P_0",
    "act(V_1, V_2; theta^0 theta^1)",
    "J_{01} - L_{01}",
    "psi+_0 psi-_1",
    "1 + 2*q * x^0 P_0",
    "-3/4 * eps2^1",
    "(theta^0 + theta^1) (d_0 - d_1)",
]


@pytest.mark.parametrize("src", ROUND_TRIP_SOURCES)
def test_parse_render_fixpoint(src):
    ast = dsl.parse(src)
    rendered = dsl.render(ast)
    assert dsl.parse(rendered) == ast


@pytest.mark.parametrize("src", ROUND_TRIP_SOURCES)
def test_rendered_text_is_stable(src):
    once = dsl.render(dsl.parse(src))
    assert dsl.render(dsl.parse(once)) == once


def test_evaluation_against_engine(alg2):
    assert str(dsl.evaluate(dsl.parse("[P_0, x^0]"), alg2)) == "1"
    e = dsl.evaluate(dsl.parse("{theta^0, theta^1, d_1} - 2*theta^0"), alg2)
    assert not e
    lhs = dsl.evaluate(dsl.parse("[[theta^0, d_1], theta^1]"), alg2)
    assert lhs == commutator(commutator(alg2.theta(0), alg2.d(1)),
                             alg2.theta(1))


def test_symmetric_bracket_node(alg2):
    got = dsl.evaluate(dsl.parse("{psi+_0, psi+_0, psi+_1}"), alg2)
    want = sym3(alg2.psi(1, 0), alg2.psi(1, 0), alg2.psi(1, 1))
    assert got == want


def test_colour_bracket_weights(alg2):
    # trivial grades make cbr coincide with the symmetric bracket
    got = dsl.evaluate(
        dsl.parse("cbr((0,0,0),(0,0,0),(0,0,0); theta^0, theta^1, d_1)"),
        alg2)
    assert got == sym3(alg2.theta(0), alg2.theta(1), alg2.d(1))


def test_scalar_literals(alg2):
    from fractions import Fraction
    got = dsl.evaluate(dsl.parse("1/2 + 3*q"), alg2)
    assert got.terms == {(): Cyclo(Fraction(1, 2), 3)}
    got = dsl.evaluate(dsl.parse("-2"), alg2)
    assert got.terms == {(): Cyclo(-2)}


def test_derived_symbols(alg2):
    assert dsl.evaluate(dsl.parse("J_{01}"), alg2) == alg2.J(0, 1)
    assert dsl.evaluate(dsl.parse("L_{01}"), alg2) == alg2.lorentz(0, 1)
    assert dsl.evaluate(dsl.parse("V_2"), alg2) == alg2.V(2)
    assert dsl.evaluate(dsl.parse("theta"), alg2) == alg2.theta_scalar()
    assert dsl.evaluate(dsl.parse("q"), alg2).terms == {(): Q}


def test_act_node(alg2):
    got = dsl.evaluate(dsl.parse("act(V_1; theta^0)"), alg2)
    assert got == alg2.eps(1, 0)


def test_star_node(alg2):
    got = dsl.evaluate(dsl.parse("star(q * theta^0)"), alg2)
    assert got == alg2.theta(0).scale(Q.conj())


@pytest.mark.parametrize("bad", [
    "theta^9", "frob_0", "[x^0", "1 +", "cbr((1,0); a, b, c)",
    "{a, b}", "act(; x^0)", "theta^0 )",
    # the index position is part of the name: theta_1 = -theta^1 at
    # eta = (+, -), so reading it as theta^1 would flip a sign
    "theta_1", "x_1", "eps2_1", "d^1", "P^1", "psi+^0", "theta^01",
    "psi-_01", "psi+_2", "J_{02}", "L_{20}", "J_{11}",
])
def test_errors_are_positioned(bad, alg2):
    with pytest.raises(dsl.DslError) as exc:
        dsl.evaluate(dsl.parse(bad), alg2)
    assert "position" in str(exc.value)


def test_optional_star_between_factors(alg2):
    assert dsl.evaluate(dsl.parse("theta^0 * d_0"), alg2) == \
        dsl.evaluate(dsl.parse("theta^0 d_0"), alg2)
