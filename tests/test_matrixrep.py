"""The sparse-matrix oracle for small fermionic subsystems."""

import random

import pytest

from ternalg.algebra import Element, random_raw_terms, sym3
from ternalg.cyclo import Cyclo, ONE
from ternalg.matrixrep import (MatrixRep, SparseMatrix, build_rep,
                               check_random_equivalence, check_representation,
                               cross_check_element)
from ternalg.suites import _oracle_subsystems
from ternalg.superspace import CLS_DEL, CLS_EPS, CLS_THETA


def test_sparse_matrix_arithmetic():
    ident = SparseMatrix.identity(2)
    z = SparseMatrix.zero(2)
    assert (ident - ident).is_zero()
    assert ident * ident == ident
    assert ident + z == ident
    assert ident.scale(Cyclo(0, 1)) * ident.scale(Cyclo(0, 1)) \
        == ident.scale(Cyclo(0, 1) ** 2)


def test_construction_targets(alg2):
    rep = build_rep(alg2, [(CLS_THETA, 0), (CLS_DEL, 0)])
    assert rep.dim == 16
    report = check_representation(rep)
    assert report.passed, report.residuals[:3]


def test_pairing_scaled_to_kappa(alg2):
    rep = build_rep(alg2, [(CLS_THETA, 0), (CLS_DEL, 0)])
    th = rep.matrices[alg2._ids[(CLS_THETA, 0, 0)]]
    d = rep.matrices[alg2._ids[(CLS_DEL, 0, 0)]]
    half_ident = SparseMatrix.identity(rep.dim).scale(alg2.config.pairing_kappa)
    assert th * d + d * th == half_ident


def test_homomorphism_on_random_pairs(alg2):
    rep = build_rep(alg2, [(CLS_THETA, 0), (CLS_THETA, 1), (CLS_DEL, 1)])
    rng = random.Random(1)
    gens = sorted(rep.matrices)
    for _ in range(20):
        a = Element(alg2.system, random_raw_terms(alg2.system, rng, gens,
                                                  max_degree=3))
        b = Element(alg2.system, random_raw_terms(alg2.system, rng, gens,
                                                  max_degree=3))
        assert rep.evaluate(a * b) == rep.evaluate(a) * rep.evaluate(b)


def test_walk_is_the_matrix_product(alg4):
    """Walking the columns through a word equals the left-to-right product
    of the generator matrices; raw-versus-normal-form agreement alone would
    not notice a walk in the wrong direction, because the fermionic rules
    are stable under word reversal."""
    rng = random.Random(3)
    for _, names in _oracle_subsystems(3):
        rep = build_rep(alg4, names)
        gens = sorted(rep.matrices)
        for _ in range(30):
            word = tuple(rng.choice(gens) for _ in range(rng.randint(0, 6)))
            coeff = Cyclo(rng.randint(-3, 3), rng.randint(1, 2))
            product = SparseMatrix.identity(rep.dim)
            for g in word:
                product = product * rep.matrices[g]
            assert rep.evaluate_raw({word: coeff}) == product.scale(coeff)


def test_random_equivalence(alg2):
    rep = build_rep(alg2, [(CLS_THETA, 0), (CLS_DEL, 0), (CLS_EPS[0], 1)])
    report = check_random_equivalence(rep, n_samples=200, seed=0)
    assert report.passed, report.residuals[:3]


def test_symbolic_zero_maps_to_zero_matrix(alg2):
    rep = build_rep(alg2, [(CLS_THETA, 0), (CLS_THETA, 1), (CLS_DEL, 1)])
    th0, th1, d1 = alg2.theta(0), alg2.theta(1), alg2.d(1)
    survivor = sym3(th0, th1, d1) - th0.scale(2)
    assert not survivor
    assert rep.evaluate(survivor).is_zero()
    assert rep.evaluate(sym3(th0, th1, th1)).is_zero()


def test_raw_vs_normal_agreement_example(alg2):
    rep = build_rep(alg2, [(CLS_THETA, 0), (CLS_DEL, 0)])
    th = alg2._ids[(CLS_THETA, 0, 0)]
    d = alg2._ids[(CLS_DEL, 0, 0)]
    raw = {(d, th): ONE, (th, d): ONE}   # {theta(1), d(1)} before rewriting
    assert cross_check_element(rep, raw)
    assert rep.evaluate_raw(raw) == SparseMatrix.identity(rep.dim).scale(
        alg2.config.pairing_kappa)


def test_single_component_square_is_zero(alg2):
    rep = build_rep(alg2, [(CLS_THETA, 0)])
    th = alg2._ids[(CLS_THETA, 0, 0)]
    assert rep.evaluate_raw({(th, th): ONE}).is_zero()


def test_mode_cap(alg4):
    names = [(CLS_THETA, mu) for mu in range(4)] \
        + [(CLS_DEL, mu) for mu in range(3)]
    with pytest.raises(ValueError):
        MatrixRep(alg4, names)


def test_bosonic_generators_rejected(alg2):
    rep = build_rep(alg2, [(CLS_THETA, 0)])
    with pytest.raises(KeyError):
        rep.evaluate(alg2.x(0))


def test_random_equivalence_catches_a_wrong_contraction(alg2, monkeypatch):
    """The zero image of raw - nf still tells a wrong normal form: with every
    contraction of the rule table negated, raw words and their normal forms
    no longer evaluate to the same matrix."""
    rep = build_rep(alg2, dict(_oracle_subsystems(2))["th0-d0"])
    assert check_random_equivalence(rep, seed=0).passed
    negated = [{u: -c for u, c in row.items()}
               for row in alg2.system._contraction]
    monkeypatch.setattr(alg2.system, "_contraction", negated)
    report = check_random_equivalence(rep, seed=0)
    assert not report.passed
    assert len(report.residuals) > 50, len(report.residuals)
