"""Small expression language for superspace elements.

Grammar (whitespace insensitive)::

    expr   := ['-'] term (('+' | '-') term)*
    term   := operand ('*' operand | factor)*
    operand := rational | factor
    factor := gen
            | '(' expr ')'
            | '[' expr ',' expr ']'
            | '{' expr ',' expr ',' expr '}'
            | 'cbr' '(' grades ';' expr ',' expr ',' expr ')'
            | 'star' '(' expr ')'
            | 'act' '(' exprlist ';' expr ')'
    gen    := IDENT ('^' INT | '_' (INT | '{' INT INT? '}'))? ('(' INT ')')?
    rational := ['-'] INT ('/' INT)?

A factor may follow a factor without '*', a number only after '*' (or
at the start of a term): ``x^0*2``, ``q*1/2`` and ``2*3`` read as
``2*x^0``, ``1/2*q`` and ``6``, while ``2 x^0`` is rejected.  A '-'
followed by a number is the sign of a rational; a leading '-' before
anything else negates the first term, so ``-q`` and ``-[theta^0, d_0]``
read.  A Q(q) scalar is an expression like any other: ``1 + 2*q`` is the
sum of two terms, ``(1 + 2*q)*x^0`` scales x^0 by it, and every rendering
``str(Cyclo)`` reads back as its own value.

Generator names are the algebra's labels, ``SuperspaceAlgebra.symbols``:
``theta^0``, ``theta``, ``d_1``, ``eps2^3``, ``x^0``, ``P_2``; the derived
symbols are ``J_{01}``, ``L_{01}``, ``V_1``..``V_3``, and ``psi+_0`` /
``psi-_0``.  The index position is part of the name: ``theta_0``, ``d^0``
and ``theta^00`` are unknown generators, not other spellings of
``theta^0``.  A name followed by ``(`` INT ``)`` is a Green component as
the engine prints it, ``theta^0(1)``; ``x^0(1)`` is unknown, not 1*x^0.
A bare ``q`` is the primitive cube root of unity.

The parser evaluates as it reads: every rule returns the normal-formed
element it denotes, so there is no syntax tree, and the first error in
reading order is raised with the offending position, after any lexical
error: an unknown character, or a number past int()'s digit limit.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .algebra import Element, colour3, commutator, nested_action, sym3
from .colour import GradeVector, colour_weights, paper_factor
from .cyclo import Q
from .superspace import SuperspaceAlgebra


class DslError(ValueError):
    """Syntax or resolution error, annotated with a source position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


# -- tokens ---------------------------------------------------------------

_TOKEN_RE = re.compile(r"""
      (?P<ws>\s+)
    | (?P<num>\d+)
    | (?P<ident>psi[+-]|[A-Za-z][A-Za-z0-9]*)
    | (?P<punct>[-+*/^_(){},;\[\]])
""", re.VERBOSE)


def _tokenize(src: str):
    """(kind, text, pos) triples; kind is 'num', 'ident', 'eof' or the
    punctuation character itself."""
    out = []
    i = 0
    while i < len(src):
        m = _TOKEN_RE.match(src, i)
        if m is None:
            raise DslError(f"unexpected character {src[i]!r}", i)
        i = m.end()
        if m.lastgroup == "ws":
            continue
        text = m.group()
        kind = m.lastgroup if m.lastgroup != "punct" else text
        if kind == "num":
            try:
                int(text)
            except ValueError:  # more digits than int() converts
                raise DslError("number is too long", m.start()) from None
        out.append((kind, text, m.start()))
    out.append(("eof", "", len(src)))
    return out


# -- names ----------------------------------------------------------------

# the derived symbols; every base name is looked up in ``alg.symbols``
_DERIVED_RE = re.compile(
    r"^psi([+-])_(0|[1-9]\d*)$|^(J|L)_\{(\d)(\d)\}$|^V_([123])$|^q$")


def _resolve(name: str, alg: SuperspaceAlgebra) -> Element:
    """The named element; the accessors raise KeyError for an index at or
    above the dimension."""
    if name in alg.symbols:
        return alg.symbols[name]
    if name in alg.system.names:   # a Green component
        return Element.generator(alg.system, alg.system.names.index(name))
    m = _DERIVED_RE.match(name)
    if m is None:
        raise KeyError(name)
    if m.group(1) is not None:
        return alg.psi(1 if m.group(1) == "+" else -1, int(m.group(2)))
    if m.group(3) is not None:
        mu, nu = int(m.group(4)), int(m.group(5))
        if mu == nu:
            raise KeyError(name)
        return alg.J(mu, nu) if m.group(3) == "J" else alg.lorentz(mu, nu)
    if m.group(6) is not None:
        return alg.V(int(m.group(6)))
    return Element.scalar(alg.system, Q)   # bare q


# -- parser ---------------------------------------------------------------

_FACTOR_START = ("ident", "(", "[", "{")


class _Parser:
    def __init__(self, src: str, alg: SuperspaceAlgebra):
        self.toks = _tokenize(src)
        self.i = 0
        self.alg = alg

    def kind(self, ahead: int = 0) -> str:
        return self.toks[self.i + ahead][0]

    def next(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def accept(self, kind: str) -> bool:
        """Consume the next token if it is a ``kind``."""
        if self.kind() != kind:
            return False
        self.i += 1
        return True

    def expect(self, kind: str):
        t = self.next()
        if t[0] != kind:
            raise DslError(f"expected {kind!r}, found {t[1] or 'end'!r}", t[2])
        return t

    # expr := ['-'] term (('+'|'-') term)*
    def expr(self, close: str | None = None) -> Element:
        """The value of one expression; ``close`` is the token that must
        follow it, if any."""
        negate = self.kind() == "-" and not self.at_rational()
        if negate:
            self.i += 1
        out = self.term()
        if negate:
            out = -out
        while self.kind() in ("+", "-"):
            sign = self.next()[0]
            e = self.term()
            out = out + e if sign == "+" else out - e
        if close is not None:
            self.expect(close)
        return out

    # term := operand ('*' operand | factor)*
    def term(self) -> Element:
        """Operands joined by '*'; a factor may also follow a factor
        directly (juxtaposition is canonical), a number only after '*'."""
        number = self.at_rational()
        out = self.operand()
        while self.accept("*") or (self.kind() in _FACTOR_START
                                   and not number):
            number = self.at_rational()
            out = out * self.operand()
        return out

    def at_rational(self) -> bool:
        return self.kind() == "num" or (self.kind() == "-"
                                        and self.kind(1) == "num")

    # operand := rational | factor
    def operand(self) -> Element:
        if self.at_rational():
            return Element.scalar(self.alg.system, self.rational())
        return self.factor()

    def rational(self) -> Fraction:
        sign = -1 if self.accept("-") else 1
        num = int(self.expect("num")[1])
        if self.accept("/"):
            t = self.expect("num")
            den = int(t[1])
            if not den:
                raise DslError("zero denominator", t[2])
            return Fraction(sign * num, den)
        return Fraction(sign * num)

    def factor(self) -> Element:
        if self.accept("("):
            return self.expr(")")
        if self.accept("["):
            return commutator(self.expr(","), self.expr("]"))
        if self.accept("{"):
            return sym3(self.expr(","), self.expr(","), self.expr("}"))
        kind, text, pos = self.toks[self.i]
        if kind != "ident":
            raise DslError(f"unexpected {text or 'end'!r}", pos)
        if text == "cbr":
            return self.cbr()
        if text == "star":
            self.i += 1
            self.expect("(")
            return self.expr(")").star()
        if text == "act":
            return self.act()
        return self.gen()

    def cbr(self) -> Element:
        start = self.next()
        self.expect("(")
        grades = [self.grade()]
        while self.accept(","):
            grades.append(self.grade())
        if len(grades) != 3:
            raise DslError("cbr needs exactly three grade vectors", start[2])
        self.expect(";")
        weights = colour_weights(paper_factor(), *grades)
        return colour3(self.expr(","), self.expr(","), self.expr(")"),
                       weights)

    def grade(self) -> GradeVector:
        start = self.expect("(")
        comps = [int(self.expect("num")[1])]
        while self.accept(","):
            comps.append(int(self.expect("num")[1]))
        self.expect(")")
        if len(comps) != 3:
            raise DslError("a grade vector needs exactly three components",
                           start[2])
        return GradeVector(comps)

    def act(self) -> Element:
        self.i += 1
        self.expect("(")
        ops = [self.expr()]
        while self.accept(","):
            ops.append(self.expr())
        self.expect(";")
        return nested_action(ops, self.expr(")"))

    # gen := IDENT ('^' INT | '_' (INT | '{' INT INT? '}'))? ('(' INT ')')?
    def gen(self) -> Element:
        _, name, pos = self.next()
        if self.accept("^"):
            name += "^" + self.expect("num")[1]
        elif self.accept("_"):
            if self.accept("{"):
                digits = self.expect("num")[1]
                if self.kind() == "num":
                    digits += self.next()[1]
                self.expect("}")
                name += "_{" + digits + "}"
            else:
                name += "_" + self.expect("num")[1]
        if [t[0] for t in self.toks[self.i:self.i + 3]] == ["(", "num", ")"]:
            name += "(" + self.toks[self.i + 1][1] + ")"
            self.i += 3
        try:
            return _resolve(name, self.alg)
        except KeyError:
            raise DslError(f"unknown generator {name!r}", pos) from None


def evaluate(src: str, alg: SuperspaceAlgebra) -> Element:
    """The normal-formed element that ``src`` denotes in ``alg``."""
    p = _Parser(src, alg)
    value = p.expr()
    kind, text, pos = p.toks[p.i]
    if kind != "eof":
        raise DslError(f"trailing input {text!r}", pos)
    return value
