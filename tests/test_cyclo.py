"""Ring axioms and rendering for the exact coefficient field; every
rendering reads back through the expression language."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from ternalg import dsl
from ternalg.algebra import Element
from ternalg.cyclo import Cyclo, ONE, Q, ZERO

rationals = st.builds(Fraction,
                      st.integers(min_value=-50, max_value=50),
                      st.integers(min_value=1, max_value=12))
cyclos = st.builds(Cyclo, rationals, rationals)


def test_primitive_root():
    assert Q ** 3 == ONE
    assert ONE + Q + Q * Q == ZERO
    assert Q * Q == Cyclo(-1, -1)


@given(cyclos, cyclos, cyclos)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a
    assert a * ONE == a
    assert a + ZERO == a
    assert a - a == ZERO


@given(cyclos, cyclos)
def test_conjugation(a, b):
    assert a.conj().conj() == a
    assert (a + b).conj() == a.conj() + b.conj()
    assert (a * b).conj() == a.conj() * b.conj()


@given(cyclos)
def test_norm_is_nonnegative_rational(a):
    n = a * a.conj()
    assert n.is_real()
    assert n.re == a.norm()
    assert n.re >= 0
    assert (n.re == 0) == a.is_zero()


@given(cyclos, cyclos)
def test_division(a, b):
    if b:
        assert (a / b) * b == a


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


@given(cyclos, st.integers(min_value=0, max_value=8))
def test_pow_matches_repeated_product(a, k):
    expected = ONE
    for _ in range(k):
        expected = expected * a
    assert a ** k == expected


def _read_back(text, alg):
    """The Q(q) value of a scalar DSL expression."""
    return dsl.evaluate(text, alg).terms.get((), ZERO)


@given(cyclos)
def test_str_parse_round_trip(alg2, a):
    assert dsl.evaluate(str(a), alg2) == Element.scalar(alg2.system, a)


def test_parse_literals(alg2):
    assert _read_back("1/2", alg2) == Cyclo(Fraction(1, 2))
    assert _read_back("-2 + 3*q", alg2) == Cyclo(-2, 3)
    assert _read_back("q", alg2) == Q
    # the renderings of 0, +-1, +-q and +-q^2 read back as themselves
    for x in (ZERO, ONE, -ONE, Q, -Q, Q * Q, -(Q * Q)):
        assert _read_back(str(x), alg2) == x


def test_mixed_arithmetic_with_ints():
    assert 2 * Q == Q + Q
    assert Q - 1 == Cyclo(-1, 1)
    assert 1 - Q == Cyclo(1, -1)


# -- differential check against the Fraction-pair reference -------------


class RefCyclo:
    """Reference Q(q) element stored as a pair of Fractions re + im_q * q."""

    def __init__(self, re=0, im_q=0):
        self.re = Fraction(re)
        self.im_q = Fraction(im_q)

    def __add__(self, other):
        other = _ref(other)
        return RefCyclo(self.re + other.re, self.im_q + other.im_q)

    __radd__ = __add__

    def __sub__(self, other):
        other = _ref(other)
        return RefCyclo(self.re - other.re, self.im_q - other.im_q)

    def __rsub__(self, other):
        return _ref(other) - self

    def __neg__(self):
        return RefCyclo(-self.re, -self.im_q)

    def __mul__(self, other):
        other = _ref(other)
        a, b = self.re, self.im_q
        c, d = other.re, other.im_q
        bd = b * d
        return RefCyclo(a * c - bd, a * d + b * c - bd)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _ref(other)
        n = other.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(q)")
        return self * other.conj() * RefCyclo(1 / n)

    def __rtruediv__(self, other):
        return _ref(other) / self

    def __pow__(self, k):
        if k < 0:
            return RefCyclo(1) / self ** (-k)
        out = RefCyclo(1)
        for _ in range(k):
            out = out * self
        return out

    def conj(self):
        return RefCyclo(self.re - self.im_q, -self.im_q)

    def norm(self):
        a, b = self.re, self.im_q
        return a * a - a * b + b * b

    def __str__(self):
        if self.im_q == 0:
            return str(self.re)
        if self.re == 0:
            if self.im_q == 1:
                return "q"
            if self.im_q == -1:
                return "-q"
            return f"{self.im_q}*q"
        sign = "+" if self.im_q > 0 else "-"
        mag = abs(self.im_q)
        qpart = "q" if mag == 1 else f"{mag}*q"
        return f"{self.re} {sign} {qpart}"

    def __repr__(self):
        return f"Cyclo({self.re!r}, {self.im_q!r})"


def _ref(x):
    return x if isinstance(x, RefCyclo) else RefCyclo(x)


def _same(x, ref):
    """x is a canonical Cyclo with the value of the reference element."""
    assert isinstance(x, Cyclo)
    assert x.den > 0
    assert gcd(x.a, x.b, x.den) == 1
    assert (x.re, x.im_q) == (ref.re, ref.im_q)
    for field in (x.a, x.b, x.den):
        assert type(field) is int


# rationals with a zero numerator or a large denominator now and then, so
# that zero operands and denominators that do not divide each other occur
wide_rationals = st.builds(Fraction,
                           st.integers(min_value=-10**6, max_value=10**6),
                           st.integers(min_value=1, max_value=10**4))
coords = st.one_of(st.integers(min_value=-6, max_value=6), rationals,
                   wide_rationals)
pairs = st.tuples(coords, coords)
scalars = st.one_of(st.integers(min_value=-20, max_value=20), rationals)


@given(pairs)
def test_constructor_is_canonical(p):
    _same(Cyclo(*p), RefCyclo(*p))


@given(pairs, pairs)
def test_ring_operations_match_reference(p, r):
    x, y = Cyclo(*p), Cyclo(*r)
    rx, ry = RefCyclo(*p), RefCyclo(*r)
    _same(x + y, rx + ry)
    _same(x - y, rx - ry)
    _same(x * y, rx * ry)
    _same(-x, -rx)


@given(pairs, scalars)
def test_mixed_operands_match_reference(p, s):
    x, rx = Cyclo(*p), RefCyclo(*p)
    _same(x + s, rx + s)
    _same(s + x, s + rx)
    _same(x - s, rx - s)
    _same(s - x, s - rx)
    _same(x * s, rx * s)
    _same(s * x, s * rx)
    if s:
        _same(x / s, rx / s)
    else:
        with pytest.raises(ZeroDivisionError):
            x / s
    if x:
        _same(s / x, s / rx)
    else:
        with pytest.raises(ZeroDivisionError):
            s / x


@given(pairs, pairs)
def test_conj_norm_division_match_reference(p, r):
    x, y = Cyclo(*p), Cyclo(*r)
    rx, ry = RefCyclo(*p), RefCyclo(*r)
    _same(x.conj(), rx.conj())
    assert x.norm() == rx.norm()
    assert type(x.norm()) is Fraction
    if ry.norm():
        _same(x / y, rx / ry)
    else:
        with pytest.raises(ZeroDivisionError):
            x / y


@given(pairs, st.integers(min_value=-5, max_value=5))
def test_pow_matches_reference(p, k):
    x, rx = Cyclo(*p), RefCyclo(*p)
    if k < 0 and not x:
        with pytest.raises(ZeroDivisionError):
            x ** k
    else:
        _same(x ** k, rx ** k)


@given(pairs)
def test_rendering_matches_reference(alg2, p):
    x, rx = Cyclo(*p), RefCyclo(*p)
    assert str(x) == str(rx)
    assert repr(x) == repr(rx)
    _same(_read_back(str(x), alg2), rx)


@given(st.one_of(st.integers(min_value=-10**6, max_value=10**6),
                 rationals, wide_rationals))
def test_hash_agrees_with_equal_rationals(y):
    x = Cyclo(y)
    assert x == y and y == x
    assert hash(x) == hash(y)
    assert x == Fraction(y) and hash(x) == hash(Fraction(y))


@given(pairs, scalars)
def test_equality_with_rationals_matches_reference(p, s):
    x, rx = Cyclo(*p), RefCyclo(*p)
    assert (x == s) == (rx.im_q == 0 and rx.re == s)
    assert (x != s) == (not (x == s))
