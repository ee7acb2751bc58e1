"""Small expression language for superspace elements.

Grammar (whitespace insensitive)::

    expr   := term (('+' | '-') term)*
    term   := scalar ('*' factor+)? | factor+
    factor := gen
            | '(' expr ')'
            | '[' expr ',' expr ']'
            | '{' expr ',' expr ',' expr '}'
            | 'cbr' '(' grades ';' expr ',' expr ',' expr ')'
            | 'star' '(' expr ')'
            | 'act' '(' exprlist ';' expr ')'
    gen    := IDENT ('^' INT | '_' (INT | '{' INT INT '}'))?
    scalar := rational ('+' rational '* q')?

Generator names are the algebra's labels, ``SuperspaceAlgebra.symbols``:
``theta^0``, ``theta``, ``d_1``, ``eps2^3``, ``x^0``, ``P_2``; the derived
symbols are ``J_{01}``, ``L_{01}``, ``V_1``..``V_3``, and ``psi+_0`` /
``psi-_0``.  The index position is part of the name: ``theta_0``, ``d^0``
and ``theta^00`` are unknown generators, not other spellings of
``theta^0``.  A bare ``q`` is the primitive cube root of unity.

Syntax errors carry the offending position.  ``parse(render(ast))`` is the
identity on ASTs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import Element, colour3, commutator, nested_action
from .colour import GradeVector, colour_weights, paper_factor
from .cyclo import Cyclo, ONE, Q
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


@dataclass(frozen=True)
class Token:
    kind: str   # 'num', 'ident', or the punctuation character itself
    text: str
    pos: int


def _tokenize(src: str):
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
        out.append(Token(kind, text, m.start()))
    out.append(Token("eof", "", len(src)))
    return out


# -- AST ------------------------------------------------------------------

@dataclass(frozen=True)
class Gen:
    name: str
    pos: int = field(default=0, compare=False)  # source offset, for errors

    def render(self) -> str:
        return self.name


@dataclass(frozen=True)
class ScalarLit:
    value: Cyclo

    def render(self) -> str:
        re_, im = self.value.re, self.value.im_q
        if not im:
            return str(re_)
        return f"{re_} + {im}*q"


@dataclass(frozen=True)
class Sum:
    # (sign, node) pairs with sign in {+1, -1}; at least two entries
    parts: tuple

    def render(self) -> str:
        bits = [self.parts[0][1].render()]
        for sign, node in self.parts[1:]:
            bits.append("+" if sign > 0 else "-")
            bits.append(node.render())
        return " ".join(bits)


@dataclass(frozen=True)
class Term:
    scalar: "ScalarLit | None"
    factors: tuple  # possibly empty only when scalar is present

    def render(self) -> str:
        fac = " ".join(_paren(f) for f in self.factors)
        if self.scalar is None:
            return fac
        s = self.scalar.render()
        return f"{s} * {fac}" if fac else s


@dataclass(frozen=True)
class Comm:
    a: object
    b: object

    def render(self) -> str:
        return f"[{self.a.render()}, {self.b.render()}]"


@dataclass(frozen=True)
class SymBracket:
    a: object
    b: object
    c: object

    def render(self) -> str:
        return f"{{{self.a.render()}, {self.b.render()}, {self.c.render()}}}"


@dataclass(frozen=True)
class ColourBracket:
    grades: tuple  # three integer triples
    a: object
    b: object
    c: object

    def render(self) -> str:
        gs = ",".join("(" + ",".join(map(str, g)) + ")" for g in self.grades)
        return (f"cbr({gs}; {self.a.render()}, {self.b.render()}, "
                f"{self.c.render()})")


@dataclass(frozen=True)
class Star:
    a: object

    def render(self) -> str:
        return f"star({self.a.render()})"


@dataclass(frozen=True)
class Act:
    ops: tuple
    target: object

    def render(self) -> str:
        return ("act(" + ", ".join(o.render() for o in self.ops)
                + f"; {self.target.render()})")


def _paren(node) -> str:
    if isinstance(node, (Sum, Term)):
        return f"({node.render()})"
    return node.render()


# -- parser ---------------------------------------------------------------

class _Parser:
    def __init__(self, tokens):
        self.toks = tokens
        self.i = 0

    def peek(self) -> Token:
        return self.toks[self.i]

    def next(self) -> Token:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, kind: str) -> Token:
        t = self.next()
        if t.kind != kind:
            raise DslError(f"expected {kind!r}, found {t.text or 'end'!r}", t.pos)
        return t

    # expr := term (('+'|'-') term)*
    def expr(self):
        parts = [(1, self.term())]
        while self.peek().kind in "+-":
            sign = 1 if self.next().kind == "+" else -1
            parts.append((sign, self.term()))
        if len(parts) == 1:
            return parts[0][1]
        return Sum(tuple(parts))

    # term := scalar ('*' factor+)? | factor+
    def term(self):
        scalar = None
        if self.peek().kind == "num" or (
                self.peek().kind == "-" and self.toks[self.i + 1].kind == "num"):
            scalar = self.scalar()
            if self.peek().kind == "*":
                self.next()
            else:
                return Term(scalar, ())
        factors = [self.factor()]
        while True:
            # '*' between factors is tolerated, juxtaposition is canonical
            if (self.peek().kind == "*"
                    and self.toks[self.i + 1].kind in ("ident", "(", "[", "{")):
                self.next()
                factors.append(self.factor())
            elif self._starts_factor():
                factors.append(self.factor())
            else:
                break
        if scalar is None and len(factors) == 1:
            return factors[0]
        return Term(scalar, tuple(factors))

    def _starts_factor(self) -> bool:
        return self.peek().kind in ("ident", "(", "[", "{")

    # scalar := rational ('+' rational '* q')?
    def scalar(self) -> ScalarLit:
        re_ = self.rational()
        mark = self.i
        if self.peek().kind == "+":
            self.next()
            try:
                im = self.rational()
                self.expect("*")
                t = self.expect("ident")
                if t.text != "q":
                    raise DslError("expected 'q'", t.pos)
                return ScalarLit(Cyclo(re_, im))
            except DslError:
                self.i = mark  # the '+' belonged to the enclosing expr
        return ScalarLit(Cyclo(re_))

    def rational(self) -> Fraction:
        sign = 1
        if self.peek().kind == "-":
            self.next()
            sign = -1
        num = int(self.expect("num").text)
        if self.peek().kind == "/":
            self.next()
            t = self.expect("num")
            den = int(t.text)
            if not den:
                raise DslError("zero denominator", t.pos)
            return Fraction(sign * num, den)
        return Fraction(sign * num)

    def factor(self):
        t = self.peek()
        if t.kind == "(":
            self.next()
            e = self.expr()
            self.expect(")")
            return e
        if t.kind == "[":
            self.next()
            a = self.expr()
            self.expect(",")
            b = self.expr()
            self.expect("]")
            return Comm(a, b)
        if t.kind == "{":
            self.next()
            a = self.expr()
            self.expect(",")
            b = self.expr()
            self.expect(",")
            c = self.expr()
            self.expect("}")
            return SymBracket(a, b, c)
        if t.kind == "ident" and t.text == "cbr":
            return self.cbr()
        if t.kind == "ident" and t.text == "star":
            self.next()
            self.expect("(")
            e = self.expr()
            self.expect(")")
            return Star(e)
        if t.kind == "ident" and t.text == "act":
            return self.act()
        if t.kind == "ident":
            return self.gen()
        raise DslError(f"unexpected {t.text or 'end'!r}", t.pos)

    def cbr(self):
        start = self.next()
        self.expect("(")
        grades = [self.grade()]
        while self.peek().kind == ",":
            self.next()
            grades.append(self.grade())
        if len(grades) != 3:
            raise DslError("cbr needs exactly three grade vectors",
                           start.pos)
        self.expect(";")
        a = self.expr()
        self.expect(",")
        b = self.expr()
        self.expect(",")
        c = self.expr()
        self.expect(")")
        return ColourBracket(tuple(grades), a, b, c)

    def grade(self):
        start = self.expect("(")
        comps = [int(self.expect("num").text)]
        while self.peek().kind == ",":
            self.next()
            comps.append(int(self.expect("num").text))
        self.expect(")")
        if len(comps) != 3:
            raise DslError("a grade vector needs exactly three components",
                           start.pos)
        return tuple(comps)

    def act(self):
        self.next()
        self.expect("(")
        ops = [self.expr()]
        while self.peek().kind == ",":
            self.next()
            ops.append(self.expr())
        self.expect(";")
        target = self.expr()
        self.expect(")")
        return Act(tuple(ops), target)

    # gen := IDENT ('^' INT | '_' (INT | '{' INT INT? '}'))?
    def gen(self) -> Gen:
        start = self.next()
        name = start.text
        t = self.peek()
        if t.kind == "^":
            self.next()
            name += "^" + self.expect("num").text
        elif t.kind == "_":
            self.next()
            if self.peek().kind == "{":
                self.next()
                digits = self.expect("num").text
                if self.peek().kind == "num":
                    digits += self.next().text
                self.expect("}")
                name += "_{" + digits + "}"
            else:
                name += "_" + self.expect("num").text
        return Gen(name, start.pos)


def parse(src: str):
    p = _Parser(_tokenize(src))
    ast = p.expr()
    t = p.peek()
    if t.kind != "eof":
        raise DslError(f"trailing input {t.text!r}", t.pos)
    return ast


def render(ast) -> str:
    return ast.render()


# -- evaluation -----------------------------------------------------------

# the derived symbols; every base name is looked up in ``alg.symbols``
_DERIVED_RE = re.compile(
    r"^psi([+-])_(0|[1-9]\d*)$|^(J|L)_\{(\d)(\d)\}$|^V_([123])$|^q$")


def _resolve(name: str, alg: SuperspaceAlgebra) -> Element:
    """The named element; the accessors raise KeyError for an index at or
    above the dimension."""
    if name in alg.symbols:
        return alg.symbols[name]
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


def evaluate(ast, alg: SuperspaceAlgebra) -> Element:
    """Evaluate an AST against an algebra; results are always normal-formed."""
    if isinstance(ast, Gen):
        try:
            return _resolve(ast.name, alg)
        except KeyError:
            raise DslError(f"unknown generator {ast.name!r}",
                           ast.pos) from None
    if isinstance(ast, ScalarLit):
        return Element.scalar(alg.system, ast.value)
    if isinstance(ast, Sum):
        out = Element.zero(alg.system)
        for sign, node in ast.parts:
            e = evaluate(node, alg)
            out = out + (e if sign > 0 else -e)
        return out
    if isinstance(ast, Term):
        out = Element.scalar(alg.system,
                             ast.scalar.value if ast.scalar else ONE)
        for f in ast.factors:
            out = out * evaluate(f, alg)
        return out
    if isinstance(ast, Comm):
        return commutator(evaluate(ast.a, alg), evaluate(ast.b, alg))
    if isinstance(ast, SymBracket):
        args = [evaluate(n, alg) for n in (ast.a, ast.b, ast.c)]
        return colour3(*args, (ONE,) * 6)
    if isinstance(ast, ColourBracket):
        factor = paper_factor()
        grades = [GradeVector(g) for g in ast.grades]
        weights = colour_weights(factor, *grades)
        args = [evaluate(n, alg) for n in (ast.a, ast.b, ast.c)]
        return colour3(*args, weights)
    if isinstance(ast, Star):
        return evaluate(ast.a, alg).star()
    if isinstance(ast, Act):
        ops = [evaluate(n, alg) for n in ast.ops]
        return nested_action(ops, evaluate(ast.target, alg))
    raise TypeError(f"not an AST node: {ast!r}")
