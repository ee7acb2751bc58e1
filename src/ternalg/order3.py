"""Structure-constant model of elementary Lie algebras of order three.

The data is a triple (f, R, Q): an antisymmetric bracket table f on the
even part g0, the action R of g0 on the odd part g1, and a fully symmetric
ternary table Q mapping S^3(g1) into g0.  Four identities are checked,
each exhaustively over its index ranges:

  1. Jacobi identity of f;
  2. representation property [R_i, R_j] = f_{ij}^k R_k;
  3. equivariance of Q under the g0 action (implied by g1 being a
     representation and Q landing in g0; not usually displayed);
  4. the four-term fundamental identity contracted over structure
     constants.

Each identity is a row of ``_AXIOMS``: its outer index tuples and, for
each tuple, a short list of contractions of two tables.  One loop in
``check_lie_order3`` reads every row.

All entries are exact rationals.  The tables store their nonzero entries
only, and the checks contract over those: the sum of every index tuple is
still formed, exactly, and the only terms left out are products with a zero
factor (the cubic Poincare tables are almost all zeros).

The cubic Poincare extension is provided as a built-in instance, its
Lorentz entries written from one rotation rule, and its even sector can be
cross-validated against the differential realisation on the ternary
superspace.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction

# commutator is unused here; bench/tracer.py patches it
from .algebra import commutator, linear_combination
from .record import Record
from .report import CheckReport
from .superspace import MetricSignature, SuperspaceAlgebra


_ZERO = Fraction(0)


class Table(dict):
    """A sparse exact table of the given shape, {index tuple: nonzero
    Fraction}.  Unset entries read as zero.  A write stores Fraction(value),
    or deletes the entry if that is zero.  An index of the wrong length or
    out of range raises IndexError."""

    def __init__(self, *shape):
        self.shape = shape  # dict.__new__ has made the empty mapping

    def _check(self, idx):
        if len(idx) != len(self.shape) or not all(
                type(i) is int and 0 <= i < n
                for i, n in zip(idx, self.shape)):
            raise IndexError(f"index {idx} outside shape {self.shape}")

    def __getitem__(self, idx):
        try:
            return super().__getitem__(idx)
        except TypeError:  # unhashable, such as a slice before Python 3.12
            raise IndexError(f"index {idx} outside shape {self.shape}") \
                from None

    def __missing__(self, idx):
        self._check(idx)
        return _ZERO

    def __setitem__(self, idx, value):
        self._check(idx)
        value = Fraction(value)
        if value:
            super().__setitem__(idx, value)
        else:
            self.pop(idx, None)

    def copy(self) -> "Table":
        out = Table(*self.shape)
        out.update(self)
        return out


class StructureConstants3(Record):
    """Sparse exact tables f_{ij}^k, R_{ia}^b, Q_{abc}^i.

    Index convention: [X_i, X_j] = f_{ij}^k X_k, [X_i, Y_a] = R_{ia}^b Y_b,
    {Y_a, Y_b, Y_c} = Q_{abc}^i X_i.
    """

    _fields = ("dim0", "dim1", "f", "R", "Q", "labels0", "labels1")

    def __init__(self, dim0: int, dim1: int, f: Table, R: Table, Q: Table,
                 labels0: tuple = (), labels1: tuple = ()):
        self.dim0, self.dim1 = dim0, dim1
        self.f, self.R, self.Q = f, R, Q
        if f.shape != (dim0,) * 3:
            raise ValueError("f must have shape (dim0, dim0, dim0)")
        if R.shape != (dim0, dim1, dim1):
            raise ValueError("R must have shape (dim0, dim1, dim1)")
        if Q.shape != (dim1,) * 3 + (dim0,):
            raise ValueError("Q must have shape (dim1, dim1, dim1, dim0)")
        self.labels0 = labels0 or tuple(f"X{i}" for i in range(dim0))
        self.labels1 = labels1 or tuple(f"Y{a}" for a in range(dim1))
        for name, labels, n in (("labels0", self.labels0, dim0),
                                ("labels1", self.labels1, dim1)):
            if len(labels) != n:
                raise ValueError(f"{name} has {len(labels)} labels, "
                                 f"expected {n}")

    # -- storage invariants --------------------------------------------

    def validate_symmetries(self) -> list:
        """Broken f antisymmetry and Q symmetry (first i per odd triple), in
        index order; a broken pair or orbit has a nonzero member to visit."""
        bad = []
        f, Q = self.f, self.Q
        pairs = {t for i, j, k in f for t in ((i, j, k), (j, i, k))}
        for i, j, k in sorted(pairs):
            if f[i, j, k] != -f[j, i, k]:
                bad.append(("f-antisym", i, j, k))
        failed = set()
        orbits = {p + (i,) for *odd, i in Q for p in itertools.permutations(odd)}
        for idx in sorted(orbits):
            odd, i = idx[:3], idx[3]
            if odd not in failed and any(
                    Q[p + (i,)] != Q[idx] for p in itertools.permutations(odd)):
                failed.add(odd)
                bad.append(("Q-sym",) + idx)
        return bad

    # -- JSON export (ternalg reads none back) -------------------------

    def to_json(self) -> str:
        def sparse(table):
            return [list(idx) + [str(v)] for idx, v in sorted(table.items())]

        return json.dumps({
            "dim0": self.dim0, "dim1": self.dim1,
            "labels0": list(self.labels0), "labels1": list(self.labels1),
            "f": sparse(self.f), "R": sparse(self.R), "Q": sparse(self.Q),
        }, indent=2)


def _rows(table) -> dict:
    """The nonzero entries of ``table`` grouped by their leading indices:
    {leading index tuple: [(last index, value), ...]}, last index ascending."""
    rows = {}
    for idx, v in sorted(table.items()):
        rows.setdefault(idx[:-1], []).append((idx[-1], v))
    return rows


# One row per axiom: (check ID, relation, outer(dim0, dim1) -> the outer
# index tuples, terms(*t) -> the contractions of the sum at outer tuple t).
# A contraction (sign, A, lead, B, prefix, suffix) adds
# sign * A[lead + (m,)] * B[prefix + (m,) + suffix + (l,)] to the sum at the
# trailing index l, for every m.
_AXIOMS = (
    ("order3.jacobi",
     "f_{ij}^m f_{mk}^l + f_{jk}^m f_{mi}^l + f_{ki}^m f_{mj}^l = 0",
     lambda n0, n1: itertools.combinations(range(n0), 3),
     lambda i, j, k: ((1, "f", (i, j), "f", (), (k,)),
                      (1, "f", (j, k), "f", (), (i,)),
                      (1, "f", (k, i), "f", (), (j,)))),
    ("order3.rep",
     "[R_i, R_j] = f_{ij}^k R_k  (g1 is a g0 representation)",
     lambda n0, n1: ((i, j, a)
                     for i, j in itertools.combinations(range(n0), 2)
                     for a in range(n1)),
     lambda i, j, a: ((1, "R", (j, a), "R", (i,), ()),
                      (-1, "R", (i, a), "R", (j,), ()),
                      (-1, "f", (i, j), "R", (), (a,)))),
    ("order3.equivariance",
     "R_{ia}^e Q_{ebc}^j + R_{ib}^e Q_{aec}^j + R_{ic}^e Q_{abe}^j"
     " = Q_{abc}^k f_{ik}^j  (implied by the even sector acting"
     " on the ternary bracket)",
     lambda n0, n1: ((i,) + odd for i in range(n0) for odd in
                     itertools.combinations_with_replacement(range(n1), 3)),
     lambda i, a, b, c: ((1, "R", (i, a), "Q", (), (b, c)),
                         (1, "R", (i, b), "Q", (a,), (c,)),
                         (1, "R", (i, c), "Q", (a, b), ()),
                         (-1, "Q", (a, b, c), "f", (i,), ()))),
    ("order3.fi",
     "Q_{bcd}^i R_{ia}^e + Q_{dab}^i R_{ic}^e + Q_{cda}^i R_{ib}^e"
     " + Q_{abc}^i R_{id}^e = 0  (four-term fundamental identity)",
     lambda n0, n1: itertools.combinations_with_replacement(range(n1), 4),
     lambda a, b, c, d: ((1, "Q", (b, c, d), "R", (), (a,)),
                         (1, "Q", (d, a, b), "R", (), (c,)),
                         (1, "Q", (c, d, a), "R", (), (b,)),
                         (1, "Q", (a, b, c), "R", (), (d,)))),
)


def check_lie_order3(sc: StructureConstants3) -> list[CheckReport]:
    """All four order-three axioms, exhaustively over index ranges.

    The sum of every index tuple is formed exactly, as a contraction over
    the nonzero table entries; the only terms left out are products with a
    zero factor.  The nonzeros are indexed afresh on every call, so a table
    edited between calls is checked as it stands.  For each outer index
    tuple the sums of the trailing index are reported in ascending order.
    """
    tables = {"f": _rows(sc.f), "R": _rows(sc.R), "Q": _rows(sc.Q)}
    reports = []
    for check_id, relation, outer, terms in _AXIOMS:
        with CheckReport(check_id, relation) as rep:
            for t in outer(sc.dim0, sc.dim1):
                acc = {}
                for sign, a, lead, b, prefix, suffix in terms(*t):
                    rows = tables[b]
                    for m, u in tables[a].get(lead, ()):
                        for l, v in rows.get(prefix + (m,) + suffix, ()):
                            acc[l] = acc.get(l, 0) + sign * u * v
                for l in sorted(acc):
                    rep.expect_zero(t + (l,), acc[l])
        reports.append(rep)
    return reports


def cubic_poincare(metric: MetricSignature) -> StructureConstants3:
    """The cubic Poincare extension: g0 = Lorentz + translations, g1 the
    vector representation, ternary bracket landing on translations."""
    d = metric.dimension
    eta = metric.eta
    lorentz_pairs = list(itertools.combinations(range(d), 2))
    n_lor = len(lorentz_pairs)
    n0 = n_lor + d
    n1 = d
    lor_index = {p: i for i, p in enumerate(lorentz_pairs)}

    def L(mu, nu):
        """Basis index and orientation sign of L_{mu nu}, mu != nu."""
        return (lor_index[mu, nu], 1) if mu < nu else (lor_index[nu, mu], -1)

    def rotate(mu, nu, rho):
        """[L_{mu nu}, X_rho] = eta_{nu rho} X_mu - eta_{mu rho} X_nu, as
        (coefficient, index) pairs."""
        return [(s * eta[rho], x) for s, x, y in ((1, mu, nu), (-1, nu, mu))
                if y == rho]

    f, R, Q = Table(n0, n0, n0), Table(n0, n1, n1), Table(n1, n1, n1, n0)

    def add_f(i, j, k, val):
        f[i, j, k] += val
        f[j, i, k] -= val

    for (mu, nu), (rho, sigma) in itertools.combinations(lorentz_pairs, 2):
        # [L_{mu nu}, L_{rho sigma}] rotates each index of L_{rho sigma}
        rotated = [(x, sigma, c) for c, x in rotate(mu, nu, rho)] \
            + [(rho, x, c) for c, x in rotate(mu, nu, sigma)]
        for a, b, c in rotated:
            k, s = L(a, b)
            add_f(lor_index[mu, nu], lor_index[rho, sigma], k, c * s)
    for (mu, nu), rho in itertools.product(lorentz_pairs, range(d)):
        # [L_{mu nu}, P_rho] and [L_{mu nu}, V_rho] by the same rule
        for c, x in rotate(mu, nu, rho):
            add_f(lor_index[mu, nu], n_lor + rho, n_lor + x, c)
            R[lor_index[mu, nu], rho, x] += c
    # [P, V] = 0: R rows for translations stay zero
    for mu, nu, rho in itertools.product(range(d), repeat=3):
        for sigma in range(d):
            val = ((eta[mu] if mu == nu else 0) * (1 if rho == sigma else 0)
                   + (eta[mu] if mu == rho else 0) * (1 if nu == sigma else 0)
                   + (eta[rho] if rho == nu else 0) * (1 if mu == sigma else 0))
            if val:
                Q[mu, nu, rho, n_lor + sigma] = Fraction(val)

    labels0 = tuple(f"L_{{{mu}{nu}}}" for mu, nu in lorentz_pairs) \
        + tuple(f"P_{mu}" for mu in range(d))
    labels1 = tuple(f"V_{mu}" for mu in range(d))
    return StructureConstants3(n0, n1, f, R, Q, labels0, labels1)


def check_against_superspace(sc: StructureConstants3, alg: SuperspaceAlgebra,
                             comm) -> CheckReport:
    """Cross-validate the even sector against the differential realisation.

    Every [L, L] and [L, P] engine bracket must match the f-contraction
    from the structure-constant table, and [J, theta] the R-contraction.
    The brackets are read from ``comm`` (``superspace.poincare_brackets``),
    the table that the ``poincare`` checks compare with their eta
    formulas, so each is formed once and compared with both encodings.
    """
    d = alg.dimension
    lorentz_pairs = list(itertools.combinations(range(d), 2))
    with CheckReport("order3.superspace",
                     "engine brackets of the realised L, P match the "
                     "f table; [J, theta] matches the R table") as rep:
        keys = [("lorentz", mu, nu) for mu, nu in lorentz_pairs] \
            + [("P", mu) for mu in range(d)]
        basis = [getattr(alg, name)(*idx) for name, *idx in keys]
        n0 = len(basis)
        if n0 != sc.dim0 or d != sc.dim1:
            rep.add_residual(("shape",),
                             f"table is {sc.dim0}+{sc.dim1} dimensional, "
                             f"realisation is {n0}+{d}")
            return rep
        f, R = _rows(sc.f), _rows(sc.R)
        for i, j in itertools.combinations(range(n0), 2):
            rhs = linear_combination(alg.system, (
                (v, basis[k]) for k, v in f.get((i, j), ())))
            rep.expect_zero((sc.labels0[i], sc.labels0[j]),
                            comm(keys[i], keys[j]) - rhs)
        for (idx, (mu, nu)), rho in itertools.product(enumerate(lorentz_pairs),
                                                      range(d)):
            # theta with the index lowered plays the role of V_rho
            rhs = linear_combination(alg.system, (
                (v, alg.theta_lower(b)) for b, v in R.get((idx, rho), ())))
            rep.expect_zero((sc.labels0[idx], f"theta^{rho}"),
                            comm(("J", mu, nu), ("theta_lower", rho)) - rhs)
    return rep
