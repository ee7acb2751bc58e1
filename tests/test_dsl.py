"""Expression language: grammar, evaluation, pinned values, errors."""

import json
from pathlib import Path

import pytest

from ternalg import dsl
from ternalg.algebra import commutator, sym3
from ternalg.cyclo import ONE, Cyclo, Q
from ternalg.superspace import CLS_THETA


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

# str() of each source's value at d = 2, one entry per ROUND_TRIP_SOURCES
PINNED = json.loads(
    (Path(__file__).parent / "data" / "dsl_values_d2.json").read_text())


@pytest.mark.parametrize("src", ROUND_TRIP_SOURCES)
def test_parse_render_fixpoint(src, alg2):
    """The source rendered one token per word reads as the same element,
    and the rendered value, Green components included, reads back as
    itself."""
    value = dsl.evaluate(src, alg2)
    spaced = " ".join(text for kind, text, _ in dsl._tokenize(src)
                      if kind != "eof")
    assert dsl.evaluate(spaced, alg2) == value
    assert dsl.evaluate(str(value), alg2) == value


@pytest.mark.parametrize("src", ROUND_TRIP_SOURCES)
def test_rendered_text_is_stable(src, alg2):
    """The rendered value of every source is pinned: a parser change that
    reads a source differently shows here."""
    assert str(dsl.evaluate(src, alg2)) == PINNED[src]


def test_evaluation_against_engine(alg2):
    assert str(dsl.evaluate("[P_0, x^0]", alg2)) == "1"
    e = dsl.evaluate("{theta^0, theta^1, d_1} - 2*theta^0", alg2)
    assert not e
    lhs = dsl.evaluate("[[theta^0, d_1], theta^1]", alg2)
    assert lhs == commutator(commutator(alg2.theta(0), alg2.d(1)),
                             alg2.theta(1))


def test_symmetric_bracket_node(alg2):
    got = dsl.evaluate("{psi+_0, psi+_0, psi+_1}", alg2)
    want = sym3(alg2.psi(1, 0), alg2.psi(1, 0), alg2.psi(1, 1))
    assert got == want


def test_colour_bracket_weights(alg2):
    # trivial grades make cbr coincide with the symmetric bracket
    got = dsl.evaluate(
        "cbr((0,0,0),(0,0,0),(0,0,0); theta^0, theta^1, d_1)", alg2)
    assert got == sym3(alg2.theta(0), alg2.theta(1), alg2.d(1))


def test_scalar_literals(alg2):
    from fractions import Fraction
    got = dsl.evaluate("1/2 + 3*q", alg2)
    assert got.terms == {(): Cyclo(Fraction(1, 2), 3)}
    got = dsl.evaluate("-2", alg2)
    assert got.terms == {(): Cyclo(-2)}


@pytest.mark.parametrize("src, same, misread", [
    ("1 + 1*q*x^0", "1 + q*x^0", "(1 + q)*x^0"),
    ("1 + 2*q*x^0", "1 + (2*q*x^0)", "(1 + 2*q)*x^0"),
    ("1 + 2*q * x^0 P_0", "1 + (2*q*x^0 P_0)", "(1 + 2*q)*x^0 P_0"),
    ("1/2 + 3*q*theta^0", "1/2 + (3*q*theta^0)", "(1/2 + 3*q)*theta^0"),
])
def test_products_bind_tighter_than_sums(src, same, misread, alg2):
    """'*' binds tighter than '+' whether or not the next term starts with
    a number: a scalar like ``1 + 2*q`` is a sum of terms, not a literal
    that swallows the factor after it."""
    value = dsl.evaluate(src, alg2)
    assert value == dsl.evaluate(same, alg2)
    assert value != dsl.evaluate(misread, alg2)


@pytest.mark.parametrize("rest", ["2*q*x^0", "q*x^0", "1/2*theta^0 d_0",
                                  "3*[P_0, x^0]"])
def test_plus_and_minus_bind_alike(rest, alg2):
    """``a + t`` and ``a - t`` differ only in the sign of the term t."""
    plus = dsl.evaluate(f"1 + {rest}", alg2)
    minus = dsl.evaluate(f"1 - {rest}", alg2)
    one = dsl.evaluate("1", alg2)
    assert plus - one == -(minus - one)
    assert plus - one == dsl.evaluate(rest, alg2)


@pytest.mark.parametrize("src, rendered", [
    ("x^0*2", "2*x^0"),
    ("q*1/2", "1/2*q"),
    ("2*3", "6"),
    ("(2)*(3)", "6"),
    ("x^0*-2*P_0", "-2*x^0 P_0"),
])
def test_number_after_star(src, rendered, alg2):
    """A number may follow '*' as well as start a term."""
    value = dsl.evaluate(src, alg2)
    assert str(value) == rendered
    assert dsl.evaluate(rendered, alg2) == value


def test_derived_symbols(alg2):
    assert dsl.evaluate("J_{01}", alg2) == alg2.J(0, 1)
    assert dsl.evaluate("L_{01}", alg2) == alg2.lorentz(0, 1)
    assert dsl.evaluate("V_2", alg2) == alg2.V(2)
    assert dsl.evaluate("theta", alg2) == alg2.theta_scalar()
    assert dsl.evaluate("q", alg2).terms == {(): Q}


def test_act_node(alg2):
    got = dsl.evaluate("act(V_1; theta^0)", alg2)
    assert got == alg2.eps(1, 0)


def test_star_node(alg2):
    got = dsl.evaluate("star(q * theta^0)", alg2)
    assert got == alg2.theta(0).scale(Q.conj())


@pytest.mark.parametrize("bad", [
    "theta^9", "frob_0", "[x^0", "1 +", "cbr((1,0); a, b, c)",
    "{a, b}", "act(; x^0)", "theta^0 )",
    # a number joins a term at its start or after '*', never juxtaposed
    "2 x^0", "x^0 2", "x^0*",
    # the index position is part of the name: theta_1 = -theta^1 at
    # eta = (+, -), so reading it as theta^1 would flip a sign
    "theta_1", "x_1", "eps2_1", "d^1", "P^1", "psi+^0", "theta^01",
    "psi-_01", "psi+_2", "J_{02}", "L_{20}", "J_{11}",
])
def test_errors_are_positioned(bad, alg2):
    with pytest.raises(dsl.DslError) as exc:
        dsl.evaluate(bad, alg2)
    assert "position" in str(exc.value)


def test_green_component_names(alg2):
    """A name followed by (INT) is the Green component the engine prints,
    not the name times a juxtaposed number."""
    th0_2 = alg2.components[(CLS_THETA, 0)][1]
    assert dsl.evaluate("theta^0(2)", alg2).terms == {(th0_2,): ONE}
    assert dsl.evaluate("theta^0(1) + theta^0(2)", alg2) == alg2.theta(0)


def test_optional_star_between_factors(alg2):
    assert dsl.evaluate("theta^0 * d_0", alg2) == \
        dsl.evaluate("theta^0 d_0", alg2)


def test_leading_unary_minus(alg2):
    th0, d0 = alg2.theta(0), alg2.d(0)
    assert dsl.evaluate("-q", alg2).terms == {(): -Q}
    assert dsl.evaluate("-theta^0", alg2) == -th0
    assert dsl.evaluate("-[theta^0, d_0]", alg2) == -commutator(th0, d0)
    assert dsl.evaluate("-(1 + q)", alg2).terms == {(): Cyclo(-1, -1)}
    assert dsl.evaluate("[-theta^0, d_0]", alg2) == -commutator(th0, d0)
    assert not dsl.evaluate("-theta^0 + theta^0", alg2)
    # a '-' before a number is the scalar's sign, as before
    assert dsl.evaluate("-2*theta^0", alg2) == th0.scale(-2)


@pytest.mark.parametrize("src, message, pos", [
    ("theta_1 + (", "unknown generator 'theta_1'", 0),
    ("( + foo", "unexpected '+'", 2),
    ("- -q", "unexpected '-'", 2),
    ("-", "unexpected 'end'", 1),
    ("", "unexpected 'end'", 0),
])
def test_first_error_in_reading_order(src, message, pos, alg2):
    with pytest.raises(dsl.DslError) as exc:
        dsl.evaluate(src, alg2)
    assert str(exc.value) == f"{message} (at position {pos})"
    assert exc.value.pos == pos
