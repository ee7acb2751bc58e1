"""Structure-constant tables: axioms, the built-in instance and corruption
detection."""

import itertools
import random
from fractions import Fraction

import pytest

from ternalg.order3 import (StructureConstants3, Table,
                            check_against_superspace, check_lie_order3,
                            cubic_poincare)
from ternalg.report import CheckReport
from ternalg.superspace import MetricSignature, poincare_brackets


def _all_pass(reports):
    failed = [(r.check_id, r.residuals[:2]) for r in reports if not r.passed]
    assert not failed, failed


@pytest.mark.parametrize("d", range(2, 11))
def test_cubic_poincare_passes(d):
    sc = cubic_poincare(MetricSignature.minkowski(d))
    assert sc.dim0 == d * (d - 1) // 2 + d
    assert sc.dim1 == d
    assert not sc.validate_symmetries()
    _all_pass(check_lie_order3(sc))


def test_euclidean_metric_passes():
    sc = cubic_poincare(MetricSignature(3, (1, 1, 1)))
    _all_pass(check_lie_order3(sc))


def test_abelian_instance_passes():
    sc = StructureConstants3(2, 2, Table(2, 2, 2), Table(2, 2, 2),
                             Table(2, 2, 2, 2))
    _all_pass(check_lie_order3(sc))


def _corrupt(sc):
    return StructureConstants3(sc.dim0, sc.dim1, sc.f.copy(), sc.R.copy(),
                               sc.Q.copy(), sc.labels0, sc.labels1)


def _jacobi_corruption():
    sc = _corrupt(cubic_poincare(MetricSignature.minkowski(4)))
    # overwrite [L_{01}, L_{02}] with a wrong target
    for k in range(sc.dim0):
        sc.f[0, 1, k] = 0
    sc.f[0, 1, 3] = Fraction(1)
    sc.f[1, 0, 3] = Fraction(-1)
    return sc


def _fi_corruption():
    sc = _corrupt(cubic_poincare(MetricSignature.minkowski(4)))
    # symmetric corruption: Q-storage stays valid but the fundamental
    # identity breaks at the touched odd indices
    for p in set(itertools.permutations((0, 1, 1))):
        sc.Q[p + (0,)] += Fraction(1)
    return sc


def test_broken_jacobi_is_localized():
    sc = _jacobi_corruption()
    reports = {r.check_id: r for r in check_lie_order3(sc)}
    bad = reports["order3.jacobi"]
    assert not bad.passed
    # every reported index tuple involves the corrupted bracket pair
    assert all({0, 1} & set(res["indices"][:3]) for res in bad.residuals)


def _q_asymmetry():
    sc = _corrupt(cubic_poincare(MetricSignature.minkowski(4)))
    sc.Q[0, 1, 2, 0] += Fraction(1)   # only one permutation touched
    return sc


def test_broken_q_symmetry_is_detected():
    bad = _q_asymmetry().validate_symmetries()
    assert bad
    assert bad[0][0] == "Q-sym"
    assert set(bad[0][1:4]) == {0, 1, 2}


def test_broken_fi_is_localized():
    sc = _fi_corruption()
    assert not sc.validate_symmetries()
    reports = {r.check_id: r for r in check_lie_order3(sc)}
    assert not reports["order3.fi"].passed
    for res in reports["order3.fi"].residuals:
        assert {0, 1} & set(res["indices"][:4])


def test_superspace_cross_check(alg2):
    sc = cubic_poincare(MetricSignature.minkowski(2))
    rep = check_against_superspace(sc, alg2, poincare_brackets(alg2))
    assert rep.passed, rep.residuals[:3]


def test_superspace_metric_mismatch(alg2):
    # flipped signature realises different structure constants
    sc = cubic_poincare(MetricSignature(2, (-1, 1)))
    rep = check_against_superspace(sc, alg2, poincare_brackets(alg2))
    assert not rep.passed


def test_shape_validation():
    with pytest.raises(ValueError):
        StructureConstants3(2, 2, Table(2, 2), Table(2, 2, 2),
                            Table(2, 2, 2, 2))


def _dense_residuals(sc):
    """Test-only reference: the four axiom sweeps written out from their
    formulas as dense loops over every table entry, zeros included.  The
    entries are read from plain dict copies of the tables, so no read goes
    through ``Table``'s index check.  Returns {check_id: residuals}."""
    n0, n1 = sc.dim0, sc.dim1
    f, R, Q = ({**table}.get for table in (sc.f, sc.R, sc.Q))
    reports = {check_id: CheckReport(check_id, "") for check_id in (
        "order3.jacobi", "order3.rep", "order3.equivariance", "order3.fi")}

    def expect_zero(check_id, indices, value):
        reports[check_id].expect_zero(indices, value)

    for i, j, k in itertools.combinations(range(n0), 3):
        for l in range(n0):
            expect_zero("order3.jacobi", (i, j, k, l), sum(
                f((i, j, m), 0) * f((m, k, l), 0)
                + f((j, k, m), 0) * f((m, i, l), 0)
                + f((k, i, m), 0) * f((m, j, l), 0) for m in range(n0)))
    for i, j in itertools.combinations(range(n0), 2):
        for a in range(n1):
            for c in range(n1):
                s = sum(R((j, a, b), 0) * R((i, b, c), 0)
                        - R((i, a, b), 0) * R((j, b, c), 0)
                        for b in range(n1))
                s -= sum(f((i, j, k), 0) * R((k, a, c), 0) for k in range(n0))
                expect_zero("order3.rep", (i, j, a, c), s)
    for i in range(n0):
        for a, b, c in itertools.combinations_with_replacement(range(n1), 3):
            for j in range(n0):
                s = sum(R((i, a, e), 0) * Q((e, b, c, j), 0)
                        + R((i, b, e), 0) * Q((a, e, c, j), 0)
                        + R((i, c, e), 0) * Q((a, b, e, j), 0)
                        for e in range(n1))
                s -= sum(Q((a, b, c, k), 0) * f((i, k, j), 0)
                         for k in range(n0))
                expect_zero("order3.equivariance", (i, a, b, c, j), s)
    for a, b, c, d in itertools.combinations_with_replacement(range(n1), 4):
        for e in range(n1):
            expect_zero("order3.fi", (a, b, c, d, e), sum(
                Q((b, c, d, i), 0) * R((i, a, e), 0)
                + Q((d, a, b, i), 0) * R((i, c, e), 0)
                + Q((c, d, a, i), 0) * R((i, b, e), 0)
                + Q((a, b, c, i), 0) * R((i, d, e), 0)
                for i in range(n0)))
    return {check_id: r.residuals for check_id, r in reports.items()}


def _assert_matches_dense(sc):
    """Same residuals in the same order as the dense loops; returns them."""
    dense = _dense_residuals(sc)
    assert {r.check_id: r.residuals for r in check_lie_order3(sc)} == dense
    return dense


_VALUES = [Fraction(v) for v in ("0", "1", "-1", "2", "-3", "1/2", "-2/3")]


def _random_corruption(seed):
    """A cubic Poincare table with a few entries of f, R and Q overwritten;
    on odd seeds every Q edit is written to all permutations of its odd
    indices, so the table keeps its storage symmetry."""
    rng = random.Random(seed)
    sc = _corrupt(cubic_poincare(MetricSignature.minkowski(rng.randint(1, 3))))
    symmetrise = seed % 2 == 1
    for _ in range(rng.randint(1, 5)):
        table = rng.choice("fRQ")
        value = rng.choice(_VALUES)
        if table == "f":
            i, j, k = (rng.randrange(sc.dim0) for _ in range(3))
            sc.f[i, j, k] = value
        elif table == "R":
            i = rng.randrange(sc.dim0)
            a, b = (rng.randrange(sc.dim1) for _ in range(2))
            sc.R[i, a, b] = value
        else:
            odd = tuple(rng.randrange(sc.dim1) for _ in range(3))
            i = rng.randrange(sc.dim0)
            for p in set(itertools.permutations(odd)) if symmetrise else [odd]:
                sc.Q[p + (i,)] = value
    return sc


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_sparse_sweeps_match_dense_cubic_poincare(d):
    _assert_matches_dense(cubic_poincare(MetricSignature.minkowski(d)))


def test_sparse_sweeps_match_dense_euclidean():
    _assert_matches_dense(cubic_poincare(MetricSignature(3, (1, 1, 1))))


def test_sparse_sweeps_match_dense_on_corruptions():
    for sc in (_jacobi_corruption(), _fi_corruption()):
        assert any(_assert_matches_dense(sc).values())


def test_sparse_sweeps_match_dense_on_random_corruptions():
    failing = 0
    for seed in range(60):
        failing += any(_assert_matches_dense(_random_corruption(seed)).values())
    # the sweep is only a test if most of the corruptions break an axiom
    assert failing >= 40, failing


def _dense_symmetry_violations(sc):
    """Test-only reference: the storage-symmetry scan as dense loops over
    every index, zeros included; for each odd triple only its first
    failing i is reported."""
    bad = []
    n0, n1 = sc.dim0, sc.dim1
    for i, j, k in itertools.product(range(n0), repeat=3):
        if sc.f[i, j, k] != -sc.f[j, i, k]:
            bad.append(("f-antisym", i, j, k))
    for a, b, c in itertools.product(range(n1), repeat=3):
        for i in range(n0):
            v = sc.Q[a, b, c, i]
            if any(sc.Q[p + (i,)] != v
                   for p in itertools.permutations((a, b, c))):
                bad.append(("Q-sym", a, b, c, i))
                break
    return bad


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_symmetry_scan_matches_dense_cubic_poincare(d):
    sc = cubic_poincare(MetricSignature.minkowski(d))
    assert sc.validate_symmetries() == _dense_symmetry_violations(sc) == []


def test_symmetry_scan_matches_dense_on_corruptions():
    for sc in (_q_asymmetry(), _jacobi_corruption(), _fi_corruption()):
        assert sc.validate_symmetries() == _dense_symmetry_violations(sc)


def test_symmetry_scan_matches_dense_on_random_corruptions():
    broken = 0
    for seed in range(60):
        sc = _random_corruption(seed)
        bad = sc.validate_symmetries()
        assert bad == _dense_symmetry_violations(sc), seed
        broken += bool(bad)
    # the comparison is only a test if many corruptions break a symmetry
    assert broken >= 30, broken


def test_table_reads_zero_and_stores_nonzeros_only():
    t = Table(2, 3)
    assert t[1, 2] == 0 and t[1, 2] is t[0, 0]
    t[0, 1] = 2
    t[1, 1] = "1/3"
    assert t[0, 1] == Fraction(2) and type(t[0, 1]) is Fraction
    assert dict(t) == {(0, 1): Fraction(2), (1, 1): Fraction(1, 3)}
    t[0, 1] -= 2
    assert dict(t) == {(1, 1): Fraction(1, 3)}


@pytest.mark.parametrize("idx", [(0,), (0, 1, 0), (-1, 0), (2, 0), (0, 3),
                                 (1, slice(None))])
def test_table_rejects_bad_index(idx):
    t = Table(2, 3)
    with pytest.raises(IndexError):
        t[idx] = 1
    # a slice is unhashable before Python 3.12, and still an IndexError
    with pytest.raises(IndexError):
        t[idx]
    assert not t


def test_table_copy_is_independent():
    t = Table(2, 2)
    t[0, 1] = 1
    c = t.copy()
    assert type(c) is Table and c.shape == t.shape and c == t
    c[0, 1] = 0
    assert t[0, 1] == 1
