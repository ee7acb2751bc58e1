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

import numpy as np

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
    """A map (grade, grade) -> Q(q)* given by a bilinear exponent form B,
    N(a, b) = q^(a . B . b mod 3).

    The exponent form makes the axiom sweep over Z_3^3 (all 27^2 pairs and
    27^3 triples) a vectorised one.
    """

    def __init__(self, exponent_form=None, modulus: int = 3):
        if exponent_form is None:
            raise ValueError("a commutation factor needs an exponent form")
        if modulus != 3:
            raise ValueError("exponent forms are supported for modulus 3")
        self.modulus = modulus
        self.exponent_form = np.asarray(exponent_form, dtype=np.int64)

    def __call__(self, a, b) -> Cyclo:
        e = int(np.dot(np.dot(a, self.exponent_form), b)) % self.modulus
        return Q ** e


def paper_factor() -> CommutationFactor:
    """The factor on Z_3^3 with exponent a1(b2+b3) + a2 b3 - b1(a2+a3) - b2 a3."""
    form = [[0, 1, 1],
            [-1, 0, 1],
            [-1, -1, 0]]
    return CommutationFactor(exponent_form=form)


def check_axioms(factor: CommutationFactor, group: GradingGroup) -> CheckReport:
    """Exhaustive verification of the three commutation-factor axioms.

    Axiom 1 runs over all pairs, axioms 2 and 3 over all triples (streamed
    row by row, never materialising the full cube).
    """
    if group.modulus != factor.modulus:
        raise ValueError(f"group modulus {group.modulus} differs from the "
                         f"factor's modulus {factor.modulus}")
    with CheckReport("colour.axioms",
                     "N(a,b) N(b,a) = 1; N(a,b+c) = N(a,b) N(a,c); "
                     "N(a+b,c) = N(a,c) N(b,c)") as rep:
        _check_axioms_exponent(factor, group, rep)
    return rep


def _check_axioms_exponent(factor, group, rep):
    n = group.modulus
    elems = np.array(list(group.elements()), dtype=np.int64)
    order = len(elems)
    # E[i, j] = exponent of N(elems[i], elems[j]) mod n
    E = (elems @ factor.exponent_form @ elems.T) % n
    bad = np.argwhere((E + E.T) % n != 0)
    for i, j in bad[:20]:
        rep.add_residual((tuple(elems[i]), tuple(elems[j])),
                         f"N(a,b)N(b,a) = q^{int((E[i, j] + E[j, i]) % n)}")
    if len(bad) > 20:
        rep.add_residual(("...",), f"{len(bad)} axiom-1 violations total")
    # index of the sum b + c for every pair, as a flat lookup
    weights = n ** np.arange(elems.shape[1] - 1, -1, -1)
    sum_index = (((elems[:, None, :] + elems[None, :, :]) % n) @ weights)
    for i in range(order):  # stream over a; each row check covers order^2 triples
        lhs = E[i, sum_index]               # N(a, b+c) exponents
        rhs = (E[i][:, None] + E[i][None, :]) % n
        bad = np.argwhere((lhs - rhs) % n != 0)
        for j, k in bad[:5]:
            rep.add_residual((tuple(elems[i]), tuple(elems[j]), tuple(elems[k])),
                             "axiom 2 fails")
        if len(bad):
            break
    # axiom 3 follows by transposition symmetry of the bilinear form, but
    # verify it independently anyway
    for k in range(order):
        lhs = E[sum_index, k]               # N(a+b, c) exponents
        rhs = (E[:, k][:, None] + E[:, k][None, :]) % n
        bad = np.argwhere((lhs - rhs) % n != 0)
        for i, j in bad[:5]:
            rep.add_residual((tuple(elems[i]), tuple(elems[j]), tuple(elems[k])),
                             "axiom 3 fails")
        if len(bad):
            break


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
    elems = np.array(list(group.elements()), dtype=np.int64)
    E = (elems @ factor.exponent_form @ elems.T) % group.modulus
    header = "a\\b," + ",".join("".join(map(str, e)) for e in elems)
    lines = [header]
    for i, e in enumerate(elems):
        lines.append("".join(map(str, e)) + "," + ",".join(map(str, E[i])))
    return "\n".join(lines) + "\n"
