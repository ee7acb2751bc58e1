"""Exact arithmetic in Q and in the cyclotomic extension Q(q), q = e^{2*i*pi/3}.

Every coefficient in this package lives in Q(q).  The minimal polynomial
q^2 + q + 1 = 0 makes {1, q} an integral basis, so an element is stored as
three Python ints (a, b, den) meaning (a + b*q) / den, always in canonical
form: den > 0 and gcd(a, b, den) == 1.  Equal elements therefore have equal
fields, and zero is a == b == 0.  Every operation uses integer arithmetic
only; equality-to-zero is the core query of the whole package and must
never go through floats.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

__all__ = ["Rational", "Cyclo", "Q", "ONE", "ZERO"]

# Arbitrary-precision exact rationals; stored reduced with positive
# denominator (Fraction guarantees both).
Rational = Fraction


def _as_rational(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"cannot coerce {x!r} into an exact rational")


class Cyclo:
    """An exact element re + im_q * q of Q(q) with q^2 = -1 - q.

    The fields ``a``, ``b`` and ``den`` hold (a + b*q) / den in canonical
    form; treat them as read-only.  ``re`` and ``im_q`` give the two
    coordinates as :class:`fractions.Fraction`.
    """

    __slots__ = ("a", "b", "den")

    def __init__(self, re=0, im_q=0):
        if type(re) is int and type(im_q) is int:
            self.a, self.b, self.den = re, im_q, 1
            return
        re = _as_rational(re)
        im_q = _as_rational(im_q)
        # both fractions are reduced, so scaling them to the lcm of their
        # denominators leaves the triple without a common factor
        d1, d2 = re.denominator, im_q.denominator
        den = d1 // gcd(d1, d2) * d2
        self.a = re.numerator * (den // d1)
        self.b = im_q.numerator * (den // d2)
        self.den = den

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.den)

    @property
    def im_q(self) -> Fraction:
        return Fraction(self.b, self.den)

    # -- ring structure -------------------------------------------------

    def __add__(self, other) -> "Cyclo":
        if type(other) is Cyclo:
            d, f = self.den, other.den
            if d == f:
                if d == 1:
                    return _new(self.a + other.a, self.b + other.b, 1)
                return _reduced(self.a + other.a, self.b + other.b, d)
            return _reduced(self.a * f + other.a * d,
                            self.b * f + other.b * d, d * f)
        return self + _coerce(other)

    __radd__ = __add__

    def __sub__(self, other) -> "Cyclo":
        if type(other) is Cyclo:
            d, f = self.den, other.den
            if d == f:
                if d == 1:
                    return _new(self.a - other.a, self.b - other.b, 1)
                return _reduced(self.a - other.a, self.b - other.b, d)
            return _reduced(self.a * f - other.a * d,
                            self.b * f - other.b * d, d * f)
        return self - _coerce(other)

    def __rsub__(self, other) -> "Cyclo":
        return _coerce(other) - self

    def __neg__(self) -> "Cyclo":
        return _new(-self.a, -self.b, self.den)

    def __mul__(self, other) -> "Cyclo":
        if type(other) is Cyclo:
            a, b, d = self.a, self.b, self.den
            c, e, f = other.a, other.b, other.den
            # (a + b q)(c + e q) = ac + (ae + bc) q + be q^2,  q^2 = -1 - q
            be = b * e
            if d == 1 and f == 1:
                return _new(a * c - be, a * e + b * c - be, 1)
            return _reduced(a * c - be, a * e + b * c - be, d * f)
        if isinstance(other, (int, Fraction)):
            return self * _coerce(other)
        return NotImplemented  # lets an Element scale itself by a Cyclo

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Cyclo":
        other = _coerce(other)
        c, e, f = other.a, other.b, other.den
        n = c * c - c * e + e * e      # f^2 * norm(other), > 0 unless zero
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(q)")
        # self * conj(other) / norm(other), conj(c + e q) = (c - e) - e q
        a, b = self.a, self.b
        return _reduced((a * (c - e) + b * e) * f, (b * c - a * e) * f,
                        self.den * n)

    def __rtruediv__(self, other) -> "Cyclo":
        return _coerce(other) / self

    def __pow__(self, k: int) -> "Cyclo":
        if k < 0:
            return ONE / self ** (-k)
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- involution and predicates --------------------------------------

    def conj(self) -> "Cyclo":
        """Complex conjugation, q -> q^2 = -1 - q."""
        return _new(self.a - self.b, -self.b, self.den)

    def norm(self) -> Fraction:
        """self * conj(self), always a nonnegative rational."""
        a, b = self.a, self.b
        return Fraction(a * a - a * b + b * b, self.den * self.den)

    def is_real(self) -> bool:
        return self.b == 0

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def __bool__(self) -> bool:
        return self.a != 0 or self.b != 0

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, Cyclo)):
            other = _coerce(other)
            return (self.a == other.a and self.b == other.b
                    and self.den == other.den)
        return NotImplemented

    def __hash__(self):
        # a real value hashes as the equal int or Fraction does
        if self.b == 0:
            return hash(self.a) if self.den == 1 else hash(self.re)
        return hash((self.a, self.b, self.den))

    # -- rendering ------------------------------------------------------

    def __str__(self) -> str:
        re, im_q = self.re, self.im_q
        if im_q == 0:
            return str(re)
        if re == 0:
            if im_q == 1:
                return "q"
            if im_q == -1:
                return "-q"
            return f"{im_q}*q"
        sign = "+" if im_q > 0 else "-"
        mag = abs(im_q)
        qpart = "q" if mag == 1 else f"{mag}*q"
        return f"{re} {sign} {qpart}"

    def __repr__(self) -> str:
        return f"Cyclo({self.re!r}, {self.im_q!r})"


_object_new = object.__new__


def _new(a: int, b: int, den: int) -> Cyclo:
    """A Cyclo from fields already in canonical form."""
    x = _object_new(Cyclo)
    x.a = a
    x.b = b
    x.den = den
    return x


def _reduced(a: int, b: int, den: int) -> Cyclo:
    """A Cyclo from fields with den > 0, cancelling their common factor."""
    g = gcd(a, b, den)
    if g == 1:
        return _new(a, b, den)
    return _new(a // g, b // g, den // g)


def _coerce(x) -> Cyclo:
    if type(x) is Cyclo:
        return x
    x = _as_rational(x)
    return _new(x.numerator, 0, x.denominator)


ZERO = Cyclo(0)
ONE = Cyclo(1)
Q = Cyclo(0, 1)  # the primitive cube root of unity
