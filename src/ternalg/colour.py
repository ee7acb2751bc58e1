"""Commutation factors on Z_3^k and colour-bracket weights.

A commutation factor N on a finite abelian group satisfies
N(a,b) N(b,a) = 1 and is biadditive in each slot.  Here the group is
Z_3^k, k = 3 for the paper's parameter families, and the factor takes
values in the cube roots of unity, represented exactly in Q(q).  The
factor converts the fully symmetric ternary bracket into the q-weighted
colour bracket.
"""

from __future__ import annotations

import itertools

from .cyclo import Cyclo, ONE, Q
from .report import CheckReport


class GradeVector(tuple):
    """An element of Z_3^k, componentwise reduced."""

    def __new__(cls, components):
        return super().__new__(cls, (c % 3 for c in components))


class CommutationFactor:
    """A map (grade, grade) -> Q(q)* on Z_3^k given by a k x k bilinear
    exponent form B of Python ints, N(a, b) = q^(a . B . b mod 3)."""

    def __init__(self, exponent_form):
        self.exponent_form = [[int(x) for x in row] for row in exponent_form]
        k = len(self.exponent_form)
        if not k or any(len(row) != k for row in self.exponent_form):
            raise ValueError("an exponent form must be a nonempty square "
                             "matrix")

    def elements(self):
        """The group Z_3^k of the k x k form, in lexicographic order."""
        return itertools.product(range(3), repeat=len(self.exponent_form))

    def exponent(self, a, b) -> int:
        """a . B . b mod 3, the exponent of q in N(a, b)."""
        return sum(x * r * y for x, row in zip(a, self.exponent_form)
                   for r, y in zip(row, b)) % 3

    def __call__(self, a, b) -> Cyclo:
        return Q ** self.exponent(a, b)


def paper_factor() -> CommutationFactor:
    """The factor on Z_3^3 with exponent a1(b2+b3) + a2 b3 - b1(a2+a3) - b2 a3."""
    form = [[0, 1, 1],
            [-1, 0, 1],
            [-1, -1, 0]]
    return CommutationFactor(exponent_form=form)


def check_axioms(factor: CommutationFactor) -> CheckReport:
    """Exhaustive verification of the three commutation-factor axioms over
    the factor's group: axiom 1 over all pairs, axioms 2 and 3 over all
    triples, row by row over a and column by column over c (never
    materialising the cube)."""
    elems = list(factor.elements())
    order = range(len(elems))
    with CheckReport("colour.axioms",
                     "N(a,b) N(b,a) = 1; N(a,b+c) = N(a,b) N(a,c); "
                     "N(a+b,c) = N(a,c) N(b,c)") as rep:
        # E[i][j]: exponent of N(elems[i], elems[j]); S[i][j]: index of the sum
        E = [[factor.exponent(a, b) for b in elems] for a in elems]
        index = {e: i for i, e in enumerate(elems)}
        S = [[index[GradeVector(x + y for x, y in zip(b, c))] for c in elems]
             for b in elems]
        bad = [(i, j) for i in order for j in order if (E[i][j] + E[j][i]) % 3]
        for i, j in bad[:20]:
            rep.add_residual((elems[i], elems[j]),
                             f"N(a,b)N(b,a) = q^{(E[i][j] + E[j][i]) % 3}")
        if len(bad) > 20:
            rep.add_residual(("...",), f"{len(bad)} axiom-1 violations total")
        # axiom 3 follows by transposition symmetry, but is verified anyway
        for axiom, lines in ((2, E), (3, list(zip(*E)))):
            for x, Ex in enumerate(lines):
                bad = [(j, k) for j in order for k in order
                       if (Ex[S[j][k]] - Ex[j] - Ex[k]) % 3]
                for j, k in bad[:5]:
                    abc = (x, j, k) if axiom == 2 else (j, k, x)
                    rep.add_residual([elems[t] for t in abc],
                                     f"axiom {axiom} fails")
                if bad:
                    break
    return rep


def colour_weights(factor: CommutationFactor, g1, g2, g3):
    """The six colour-bracket weights for orderings (123,231,312,132,213,321)."""
    def plus(a, b):
        return GradeVector(x + y for x, y in zip(a, b))

    return (ONE,
            factor(g1, plus(g2, g3)),
            factor(plus(g1, g2), g3),
            factor(g2, g3),
            factor(g1, g2),
            factor(g1, g2) * factor(g1, g3) * factor(g2, g3))


def standard_grades():
    """The parameter-family grades (1,0,0), (0,1,0), (0,0,1) on Z_3^3."""
    return (GradeVector((1, 0, 0)), GradeVector((0, 1, 0)),
            GradeVector((0, 0, 1)))


def col3_weights():
    """The weights (1, q^2, q^2, q, q, 1) induced by the standard grades."""
    return colour_weights(paper_factor(), *standard_grades())


def factor_table_csv(factor: CommutationFactor) -> str:
    """CSV dump of the factor over its whole group, as exponents of q."""
    elems = list(factor.elements())
    header = "a\\b," + ",".join("".join(map(str, e)) for e in elems)
    lines = [header]
    for a in elems:
        lines.append("".join(map(str, a)) + "," + ",".join(
            str(factor.exponent(a, b)) for b in elems))
    return "\n".join(lines) + "\n"
