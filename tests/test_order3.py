"""Structure-constant tables: axioms, the built-in instance, corruption
detection and JSON interchange."""

import itertools
import json
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
    sc.f[0, 1, :] = 0
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


def test_json_round_trip():
    sc = cubic_poincare(MetricSignature.minkowski(3))
    again = StructureConstants3.from_json(sc.to_json())
    assert again.f == sc.f
    assert again.R == sc.R
    assert again.Q == sc.Q
    assert again.labels0 == sc.labels0


def test_json_rejects_broken_symmetry():
    sc = _corrupt(cubic_poincare(MetricSignature.minkowski(2)))
    sc.Q[0, 0, 1, 0] += Fraction(1)
    with pytest.raises(ValueError):
        StructureConstants3.from_json(sc.to_json())


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
    formulas as dense loops over every table entry, zeros included.
    Returns {check_id: residuals}."""
    n0, n1 = sc.dim0, sc.dim1
    f, R, Q = sc.f, sc.R, sc.Q
    reports = {check_id: CheckReport(check_id, "") for check_id in (
        "order3.jacobi", "order3.rep", "order3.equivariance", "order3.fi")}

    def expect_zero(check_id, indices, value):
        reports[check_id].expect_zero(indices, value)

    for i, j, k in itertools.combinations(range(n0), 3):
        for l in range(n0):
            expect_zero("order3.jacobi", (i, j, k, l), sum(
                f[i, j, m] * f[m, k, l] + f[j, k, m] * f[m, i, l]
                + f[k, i, m] * f[m, j, l] for m in range(n0)))
    for i, j in itertools.combinations(range(n0), 2):
        for a in range(n1):
            for c in range(n1):
                s = sum(R[j, a, b] * R[i, b, c] - R[i, a, b] * R[j, b, c]
                        for b in range(n1))
                s -= sum(f[i, j, k] * R[k, a, c] for k in range(n0))
                expect_zero("order3.rep", (i, j, a, c), s)
    for i in range(n0):
        for a, b, c in itertools.combinations_with_replacement(range(n1), 3):
            for j in range(n0):
                s = sum(R[i, a, e] * Q[e, b, c, j] + R[i, b, e] * Q[a, e, c, j]
                        + R[i, c, e] * Q[a, b, e, j] for e in range(n1))
                s -= sum(Q[a, b, c, k] * f[i, k, j] for k in range(n0))
                expect_zero("order3.equivariance", (i, a, b, c, j), s)
    for a, b, c, d in itertools.combinations_with_replacement(range(n1), 4):
        for e in range(n1):
            expect_zero("order3.fi", (a, b, c, d, e), sum(
                Q[b, c, d, i] * R[i, a, e] + Q[d, a, b, i] * R[i, c, e]
                + Q[c, d, a, i] * R[i, b, e] + Q[a, b, c, i] * R[i, d, e]
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


def test_table_slice_assigns_across_the_axis():
    t = Table(2, 3)
    t[1, :] = 5
    assert sorted(t) == [(1, 0), (1, 1), (1, 2)]
    t[1, 1] = 1
    t[:, 1] = 0
    assert sorted(t) == [(1, 0), (1, 2)]


@pytest.mark.parametrize("idx", [(0,), (0, 1, 0), (-1, 0), (2, 0), (0, 3)])
def test_table_rejects_bad_index(idx):
    t = Table(2, 3)
    with pytest.raises(IndexError):
        t[idx] = 1
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


@pytest.mark.parametrize("table, entry", [
    ("f", [-1, 0, 0, "1"]),      # negative: no wrap-around to the last index
    ("R", [0, 2, 0, "1"]),       # out of range: R is 3 x 2 x 2 at d = 2
    ("Q", [0, 1, "1"]),          # short: no broadcast across a whole row
])
def test_json_rejects_bad_index(table, entry):
    doc = json.loads(cubic_poincare(MetricSignature.minkowski(2)).to_json())
    doc[table].append(entry)
    with pytest.raises(ValueError) as err:
        StructureConstants3.from_json(json.dumps(doc))
    assert f"{table} entry {entry}" in str(err.value)


def _append(table, entry):
    def corrupt(doc):
        doc[table].append(entry)
    return corrupt


@pytest.mark.parametrize("corrupt, message", [
    (_append("f", [0, 1, 2, 0.1]), "f entry [0, 1, 2, 0.1]"),   # no floats
    (_append("R", [0, 0, 0, True]), "R entry [0, 0, 0, True]"),  # not 1
    (_append("R", [0, 0, 0, "1/0"]), "R entry [0, 0, 0, '1/0']"),
    (_append("Q", [0, 0, 0, 0, "abc"]), "Q entry [0, 0, 0, 0, 'abc']"),
    (lambda doc: doc.update(labels0=doc["labels0"][:1]), "labels0"),
    (lambda doc: doc.pop("R"), "lack R"),
], ids=["float", "bool", "zero-denominator", "not-a-number", "short-labels",
        "missing-table"])
def test_json_rejects_bad_value(corrupt, message):
    """Every bad document raises one ValueError that names the table and
    the entry, at load time rather than in a later check."""
    doc = json.loads(cubic_poincare(MetricSignature.minkowski(2)).to_json())
    corrupt(doc)
    with pytest.raises(ValueError) as err:
        StructureConstants3.from_json(json.dumps(doc))
    assert type(err.value) is ValueError
    assert message in str(err.value)
