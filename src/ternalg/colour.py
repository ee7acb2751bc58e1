"""Abelian grading groups, commutation factors, and colour-bracket weights.

A commutation factor N on a finite abelian group satisfies
N(a,b) N(b,a) = 1 and is biadditive in each slot.  Here the group of
interest is Z_3 x Z_3 x Z_3 and the factor takes values in the cube roots
of unity, represented exactly in Q(q).  The factor converts the fully
symmetric ternary bracket into the q-weighted colour bracket.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .cyclo import Cyclo, ONE, Q
from .report import CheckReport


@dataclass(frozen=True)
class GradingGroup:
    """The group Z_n^k."""

    modulus: int = 3
    rank: int = 3

    def __post_init__(self):
        if self.modulus < 2 or self.rank < 1:
            raise ValueError("need modulus >= 2 and rank >= 1")

    def elements(self):
        return itertools.product(range(self.modulus), repeat=self.rank)


class GradeVector(tuple):
    """An element of Z_n^k, componentwise reduced."""

    def __new__(cls, components, modulus: int = 3):
        return super().__new__(cls, (c % modulus for c in components))


class CommutationFactor:
    """A map (grade, grade) -> Q(q)* given by a bilinear exponent form B of
    Python ints, N(a, b) = q^(a . B . b mod 3)."""

    def __init__(self, exponent_form=None, modulus: int = 3):
        if exponent_form is None:
            raise ValueError("a commutation factor needs an exponent form")
        if modulus != 3:
            raise ValueError("exponent forms are supported for modulus 3")
        self.modulus = modulus
        self.exponent_form = [[int(x) for x in row] for row in exponent_form]

    def exponent(self, a, b) -> int:
        """a . B . b mod 3, the exponent of q in N(a, b)."""
        return sum(x * r * y for x, row in zip(a, self.exponent_form)
                   for r, y in zip(row, b)) % self.modulus

    def __call__(self, a, b) -> Cyclo:
        return Q ** self.exponent(a, b)


def paper_factor() -> CommutationFactor:
    """The factor on Z_3^3 with exponent a1(b2+b3) + a2 b3 - b1(a2+a3) - b2 a3."""
    form = [[0, 1, 1],
            [-1, 0, 1],
            [-1, -1, 0]]
    return CommutationFactor(exponent_form=form)


def check_axioms(factor: CommutationFactor, group: GradingGroup) -> CheckReport:
    """Exhaustive verification of the three commutation-factor axioms: axiom 1
    over all pairs, axioms 2 and 3 over all triples, row by row over a and
    column by column over c (never materialising the cube)."""
    rank = len(factor.exponent_form)
    if (group.modulus, group.rank) != (factor.modulus, rank):
        raise ValueError(f"group Z_{group.modulus}^{group.rank} does not match "
                         f"the factor's modulus {factor.modulus} and rank {rank}")
    n = group.modulus
    elems = list(group.elements())
    order = range(len(elems))
    with CheckReport("colour.axioms",
                     "N(a,b) N(b,a) = 1; N(a,b+c) = N(a,b) N(a,c); "
                     "N(a+b,c) = N(a,c) N(b,c)") as rep:
        # E[i][j]: exponent of N(elems[i], elems[j]); S[i][j]: index of the sum
        E = [[factor.exponent(a, b) for b in elems] for a in elems]
        index = {e: i for i, e in enumerate(elems)}
        S = [[index[tuple((x + y) % n for x, y in zip(b, c))] for c in elems]
             for b in elems]
        bad = [(i, j) for i in order for j in order if (E[i][j] + E[j][i]) % n]
        for i, j in bad[:20]:
            rep.add_residual((elems[i], elems[j]),
                             f"N(a,b)N(b,a) = q^{(E[i][j] + E[j][i]) % n}")
        if len(bad) > 20:
            rep.add_residual(("...",), f"{len(bad)} axiom-1 violations total")
        # axiom 3 follows by transposition symmetry, but is verified anyway
        for axiom, lines in ((2, E), (3, list(zip(*E)))):
            for x, Ex in enumerate(lines):
                bad = [(j, k) for j in order for k in order
                       if (Ex[S[j][k]] - Ex[j] - Ex[k]) % n]
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
        return GradeVector((x + y for x, y in zip(a, b)), factor.modulus)

    return (ONE,
            factor(g1, plus(g2, g3)),
            factor(plus(g1, g2), g3),
            factor(g2, g3),
            factor(g1, g2),
            factor(g1, g2) * factor(g1, g3) * factor(g2, g3))


def standard_grades(modulus: int = 3):
    """The parameter-family grades (1,0,0), (0,1,0), (0,0,1) on Z_3^3."""
    return (GradeVector((1, 0, 0), modulus),
            GradeVector((0, 1, 0), modulus),
            GradeVector((0, 0, 1), modulus))


def col3_weights():
    """The weights (1, q^2, q^2, q, q, 1) induced by the standard grades."""
    return colour_weights(paper_factor(), *standard_grades())


def factor_table_csv(factor: CommutationFactor, group: GradingGroup) -> str:
    """CSV dump of the factor over the whole group, as exponents of q."""
    elems = list(group.elements())
    header = "a\\b," + ",".join("".join(map(str, e)) for e in elems)
    lines = [header]
    for a in elems:
        lines.append("".join(map(str, a)) + "," + ",".join(
            str(factor.exponent(a, b)) for b in elems))
    return "\n".join(lines) + "\n"
