"""Brute-force cross-check: explicit sparse matrices for small fermionic
subsystems.

Each Green component of each selected name gets one fermionic mode.  Within
a Green sector the modes carry sign strings (so same-sector components
anticommute exactly); the two sectors occupy disjoint tensor slots and
therefore commute exactly.  A conjugate d-component is realised as
kappa * (annihilation at the partner theta mode), which keeps every entry
in Q(q) - no square roots, and self-adjointness is irrelevant for identity
checking.

Only one direction of faithfulness is used: a symbolic zero must map to the
zero matrix.  The converse is not claimed (the parafermionic realisation is
itself non-faithful); the oracle is a bug-catcher for the rewriter, not a
completeness proof.
"""

from __future__ import annotations

import itertools
import random

from .algebra import Element, random_raw_terms
from .cyclo import Cyclo, ONE, ZERO
from .report import CheckReport
from .superspace import CLS_DEL, CLS_THETA, SuperspaceAlgebra

MAX_MODES = 12  # dimension cap 2^12 = 4096


class SparseMatrix:
    """Minimal exact sparse matrix over Q(q): {(row, col): Cyclo}."""

    __slots__ = ("dim", "entries")

    def __init__(self, dim, entries=None):
        self.dim = dim
        self.entries = entries or {}

    @classmethod
    def identity(cls, dim):
        return cls(dim, {(i, i): ONE for i in range(dim)})

    @classmethod
    def zero(cls, dim):
        return cls(dim)

    def __add__(self, other):
        out = dict(self.entries)
        for k, v in other.entries.items():
            s = out.get(k, ZERO) + v
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return SparseMatrix(self.dim, out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        c = c if isinstance(c, Cyclo) else Cyclo(c)
        if not c:
            return SparseMatrix(self.dim)
        return SparseMatrix(self.dim, {k: c * v for k, v in self.entries.items()})

    def __mul__(self, other):
        by_row = {}
        for (i, j), v in other.entries.items():
            by_row.setdefault(i, []).append((j, v))
        out = {}
        for (i, k), u in self.entries.items():
            for j, v in by_row.get(k, ()):
                s = out.get((i, j), ZERO) + u * v
                if s:
                    out[(i, j)] = s
                else:
                    out.pop((i, j), None)
        return SparseMatrix(self.dim, out)

    def is_zero(self):
        return not self.entries

    def __eq__(self, other):
        return self.dim == other.dim and self.entries == other.entries

    def __hash__(self):
        raise TypeError("unhashable")


def _kron(a: SparseMatrix, b: SparseMatrix) -> SparseMatrix:
    out = {}
    for (i, j), u in a.entries.items():
        for (k, l), v in b.entries.items():
            out[(i * b.dim + k, j * b.dim + l)] = u * v
    return SparseMatrix(a.dim * b.dim, out)


_I2 = SparseMatrix(2, {(0, 0): ONE, (1, 1): ONE})
_Z = SparseMatrix(2, {(0, 0): ONE, (1, 1): -ONE})
_CREATE = SparseMatrix(2, {(1, 0): ONE})   # raising on one mode
_ANNIHILATE = SparseMatrix(2, {(0, 1): ONE})


def _mode_operator(n_modes, sector_slice, mode, local: SparseMatrix):
    """Jordan-Wigner string inside one sector, identity outside it."""
    lo, hi = sector_slice
    out = SparseMatrix(1, {(0, 0): ONE})
    for m in range(n_modes):
        if m == mode:
            fac = local
        elif lo <= m < hi and m > mode:
            fac = _Z
        else:
            fac = _I2
        out = _kron(out, fac)
    return out


class MatrixRep:
    """Sparse matrices for every Green component of the selected names."""

    def __init__(self, alg: SuperspaceAlgebra, names):
        """``names`` are (cls, mu) keys of parafermionic names, e.g.
        (CLS_THETA, 0); bosonic generators are not representable."""
        self.alg = alg
        self.names = list(names)
        n_modes = 2 * len(self.names)
        if n_modes > MAX_MODES:
            raise ValueError(f"{n_modes} modes exceed the {MAX_MODES}-mode cap")
        self.dim = 2 ** n_modes
        kappa = Cyclo(alg.config.pairing_kappa)
        # sector 0 occupies modes [0, len), sector 1 modes [len, 2 len)
        half = len(self.names)
        mode_of = {}
        for pos, (cls, mu) in enumerate(self.names):
            for green in (0, 1):
                mode_of[(cls, mu, green)] = green * half + pos
        self.matrices = {}
        for cls, mu in self.names:
            partner = self._conjugate_partner((cls, mu))
            for green in (0, 1):
                sector = (green * half, green * half + half)
                gid = alg._ids[(cls, mu, green)]
                if partner is not None:
                    # land on the partner theta mode, scaled to the pairing
                    mode = mode_of[partner + (green,)]
                    mat = _mode_operator(n_modes, sector, mode,
                                         _ANNIHILATE).scale(kappa)
                else:
                    mode = mode_of[(cls, mu, green)]
                    mat = _mode_operator(n_modes, sector, mode, _CREATE)
                self.matrices[gid] = mat

    def _conjugate_partner(self, name):
        cls, mu = name
        if cls == CLS_DEL and (CLS_THETA, mu) in self.names:
            return (CLS_THETA, mu)
        return None

    def evaluate_raw(self, terms) -> SparseMatrix:
        """Evaluate a word->coefficient map without normal forming."""
        out = SparseMatrix.zero(self.dim)
        for word, coeff in terms.items():
            mat = SparseMatrix.identity(self.dim)
            for g in word:
                if g not in self.matrices:
                    raise KeyError(f"generator {self.alg.system.names[g]} "
                                   "not present in this representation")
                mat = mat * self.matrices[g]
            out = out + mat.scale(coeff)
        return out

    def evaluate(self, element: Element) -> SparseMatrix:
        return self.evaluate_raw(element.terms)


def build_rep(alg: SuperspaceAlgebra, names) -> MatrixRep:
    return MatrixRep(alg, names)


def cross_check_element(rep: MatrixRep, raw_terms) -> bool:
    """Raw-word evaluation and normal-form evaluation must agree."""
    raw = rep.evaluate_raw(raw_terms)
    nf = rep.evaluate(Element(rep.alg.system, raw_terms))
    return (raw - nf).is_zero()


def check_representation(rep: MatrixRep) -> CheckReport:
    """Construction targets: pairing anticommutators, cross-sector
    commutators, zero squares."""
    alg = rep.alg
    kappa = Cyclo(alg.config.pairing_kappa)
    with CheckReport(
            "oracle.rep",
            "matrix model realises the swap/contraction table exactly: "
            "{theta_r, d_r} = kappa, cross-sector commutators vanish"
    ) as rep_report:
        gids = sorted(rep.matrices)
        ident = SparseMatrix.identity(rep.dim)
        for u, v in itertools.combinations_with_replacement(gids, 2):
            mu, mv = rep.matrices[u], rep.matrices[v]
            sign = alg.system.swap_sign(u, v) if u != v else -1
            if u == v:
                res = mu * mu
                if not res.is_zero():
                    rep_report.add_residual((alg.system.names[u],) * 2,
                                            "square does not vanish")
                continue
            c = alg.system.contraction(max(u, v), min(u, v))
            if sign == -1:
                res = mu * mv + mv * mu - ident.scale(c)
            else:
                res = mu * mv - mv * mu
            if not res.is_zero():
                rep_report.add_residual(
                    (alg.system.names[u], alg.system.names[v]),
                    "pair rule not realised")
    return rep_report


def check_random_equivalence(rep: MatrixRep, n_samples: int = 200,
                             max_degree: int = 4, seed: int = 0) -> CheckReport:
    """Seeded sweep: raw and normal-form matrix evaluations agree."""
    gens = sorted(rep.matrices)
    rng = random.Random(seed)
    with CheckReport(
            "oracle.random",
            f"{n_samples} seeded random elements of degree <= {max_degree}: "
            "raw-word and normal-form matrix evaluations agree") as report:
        for k in range(n_samples):
            raw = random_raw_terms(rep.alg.system, rng, gens,
                                   max_degree=max_degree, n_terms=4)
            if not cross_check_element(rep, raw):
                report.add_residual((k,), "raw and normal-form matrices differ")
    return report
