"""The sparse-matrix oracle for small fermionic subsystems."""

import random
import re
from fractions import Fraction
from itertools import combinations, permutations, product

import pytest

from conftest import rewritten_strings
from ternalg import matrixrep, suites
from ternalg.algebra import Element, random_raw_terms, sym3
from ternalg.cyclo import Cyclo, ONE
from ternalg.matrixrep import (SparseMatrix, build_rep,
                               check_random_equivalence, check_representation,
                               cross_check_element)
from ternalg.suites import _oracle_subsystems, _raw_products
from ternalg.superspace import (CLS_DEL, CLS_EPS, CLS_P, CLS_THETA, CLS_X,
                                MetricSignature, SuperspaceConfig, build)


def _state_table(rep, record):
    """One generator's action on each basis state, read off its record by
    the rule of the module docstring: None, or (row, sign, kappa exponent)."""
    bit, need, string, k = record
    return [(j ^ bit, -1 if (j & string).bit_count() & 1 else 1, k)
            if (j & bit) == need else None for j in range(rep.dim)]


def _weight(rep, sign, k):
    """sign * kappa**k."""
    power = rep.kappa ** k
    return power if sign > 0 else -power


def _matrices(rep):
    """Reference generator matrices, built state by state from the records."""
    return {gid: SparseMatrix(rep.dim, {
                (step[0], j): _weight(rep, step[1], step[2])
                for j, step in enumerate(_state_table(rep, record))
                if step is not None})
            for gid, record in rep.actions.items()}


def _state_walk(rep, terms):
    """Reference evaluation: walk every basis column through every letter of
    every word, right to left, with an integer sign and a kappa exponent."""
    tables = {gid: _state_table(rep, record)
              for gid, record in rep.actions.items()}
    out = {}
    for word, coeff in terms.items():
        letters = [tables[g] for g in reversed(word)]
        for j in range(rep.dim):
            state, sign, k = j, 1, 0
            for action in letters:
                step = action[state]
                if step is None:
                    break
                state, s, dk = step
                sign *= s
                k += dk
            else:
                value = _weight(rep, sign, k) * coeff
                prev = out.get((state, j))
                out[(state, j)] = value if prev is None else prev + value
    return SparseMatrix(rep.dim, {key: v for key, v in out.items() if v})


def _identity(dim, c=ONE):
    return SparseMatrix(dim, {(i, i): c for i in range(dim)})


def test_sparse_matrix_arithmetic():
    q = Cyclo(0, 1)
    ident = _identity(2)
    assert ident * ident == ident
    assert _identity(2, q) * _identity(2, q) == _identity(2, q ** 2)
    assert SparseMatrix(2, {}).is_zero()


def test_generator_records(alg2):
    """th0-d0 at d = 2 has two modes, theta^0 per sector; d_0 acts on its
    partner theta mode and owns none, and a sector of one mode has no
    Jordan-Wigner string."""
    rep = build_rep(alg2, dict(_oracle_subsystems(2))["th0-d0"])
    th = alg2.components[(CLS_THETA, 0)]
    d = alg2.components[(CLS_DEL, 0)]
    assert rep.dim == 4
    assert rep.actions == {th[0]: (0b10, 0, 0, 0),
                           d[0]: (0b10, 0b10, 0, 1),
                           th[1]: (0b01, 0, 0, 0),
                           d[1]: (0b01, 0b01, 0, 1)}


def test_closed_form_matches_state_walk():
    """evaluate_raw equals the per-column walk on every oracle subsystem:
    each word of length <= 3 alone (repeated letters, contradictory words
    such as theta^0(1) theta^0(1) d_0(1), the empty word), all of them in
    one map, seeded multi-word maps, and both orders of each generator pair
    (one shape, so they cancel, where the two anticommute).  The
    oracle subsystems have no two words that differ only in their flipped
    bits F, so two conjugate pairs in one sector supply such a pair:
    theta^0 theta^1 flips both modes, d_0 theta^0 d_1 theta^1 neither."""
    rng = random.Random(5)
    pairs = [(CLS_THETA, 0), (CLS_THETA, 1), (CLS_DEL, 0), (CLS_DEL, 1)]
    for dim, kappa in product((2, 3, 4), (Fraction(1, 2), Fraction(1, 3))):
        alg = build(SuperspaceConfig(metric=MetricSignature.minkowski(dim),
                                     pairing_kappa=kappa))
        cases = []  # (rep, word maps)
        for _, names in _oracle_subsystems(dim):
            rep = build_rep(alg, names)
            gens = sorted(rep.actions)
            words = [w for n in range(4) for w in product(gens, repeat=n)]
            maps = [{w: ONE} for w in words]
            maps.append({w: Cyclo(rng.randint(-3, 3), rng.randint(1, 2))
                         for w in words})
            maps += [{(u, v): ONE, (v, u): ONE} for u, v in
                     combinations(gens, 2)]
            cases.append((rep, maps))
        rep = build_rep(alg, pairs)
        t0, t1, d0, d1 = (alg.components[name][0] for name in pairs)
        cases.append((rep, [{(t0, t1): ONE, (d0, t0, d1, t1): ONE}]))
        for rep, maps in cases:
            gens = sorted(rep.actions)
            maps += [random_raw_terms(alg.system, rng, gens, max_degree=5,
                                      n_terms=6) for _ in range(20)]
            for terms in maps:
                assert rep.evaluate_raw(terms) == _state_walk(rep, terms), \
                    (dim, kappa, rep.names, terms)
        rep = build_rep(alg, [(CLS_THETA, 0), (CLS_THETA, 1)])
        assert rep.evaluate_raw({(t0, t1): ONE, (t1, t0): ONE}).is_zero()


def test_construction_targets(alg2):
    rep = build_rep(alg2, [(CLS_THETA, 0), (CLS_DEL, 0)])
    assert rep.dim == 4
    report = check_representation(rep)
    assert report.passed, report.residuals[:3]


def test_pairing_scaled_to_kappa(alg2):
    rep = build_rep(alg2, [(CLS_THETA, 0), (CLS_DEL, 0)])
    mats = _matrices(rep)
    th = mats[alg2.components[(CLS_THETA, 0)][0]]
    d = mats[alg2.components[(CLS_DEL, 0)][0]]
    kappa = Cyclo(alg2.config.pairing_kappa)
    # {th, d} = kappa: th d and d th are kappa times the complementary
    # projectors on "mode occupied" and "mode empty"
    occupied = {j for _, j in (th * d).entries}
    assert len(occupied) == rep.dim // 2
    assert th * d == SparseMatrix(rep.dim, {(j, j): kappa for j in occupied})
    assert d * th == SparseMatrix(rep.dim, {(j, j): kappa
                                            for j in range(rep.dim)
                                            if j not in occupied})


def test_homomorphism_on_random_pairs(alg2):
    rep = build_rep(alg2, [(CLS_THETA, 0), (CLS_THETA, 1), (CLS_DEL, 1)])
    rng = random.Random(1)
    gens = sorted(rep.actions)
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
        mats = _matrices(rep)
        gens = sorted(mats)
        for _ in range(30):
            word = tuple(rng.choice(gens) for _ in range(rng.randint(0, 6)))
            coeff = Cyclo(rng.randint(-3, 3), rng.randint(1, 2))
            product = _identity(rep.dim, coeff)
            for g in word:
                product = product * mats[g]
            assert rep.evaluate_raw({word: coeff}) == product


def test_random_equivalence(alg2):
    rep = build_rep(alg2, [(CLS_THETA, 0), (CLS_DEL, 0), (CLS_EPS[0], 1)])
    report = check_random_equivalence(rep, seed=0)
    assert report.passed, report.residuals[:3]


def _samples(rep, seed):
    """The samples of ``check_random_equivalence(rep, seed)``, drawn alike."""
    rng = random.Random(seed)
    gens = sorted(rep.actions)
    return [random_raw_terms(rep.alg.system, rng, gens,
                             max_degree=matrixrep.MAX_DEGREE, n_terms=4)
            for _ in range(matrixrep.N_SAMPLES)]


@pytest.mark.parametrize("dim", [2, 3])
def test_random_equivalence_residuals_match_a_per_word_loop(dim):
    """Under the Jordan-Wigner corruptions that the control matrix runs
    against oracle.random.*, the sweep reports exactly the distinct sampled
    words that ``cross_check_element`` fails one by one, each at the first
    sample that holds it.  That is at least as strict as asking each sample
    as a whole: every sample that fails as a whole holds a reported word,
    and a word that fails alone is reported also where it cancels inside a
    sample that passes as a whole (at seed 7, sample 43 holds two such
    words under cross-sector-JW)."""
    alg = build(SuperspaceConfig(metric=MetricSignature.minkowski(dim)))
    render = alg.system.render_word
    cancelled = 0  # samples passing as a whole that hold a failing word
    for rewrite in (lambda bit, string: 0, lambda bit, string: bit - 1):
        Rep = rewritten_strings(rewrite)
        failing = 0
        for (_, names), seed in product(_oracle_subsystems(dim), (0, 7)):
            rep = Rep(alg, names)
            samples = _samples(rep, seed)
            fails, want = {}, []  # word -> it fails alone
            for k, raw in enumerate(samples):
                for w in raw:
                    if w not in fails:
                        fails[w] = not cross_check_element(rep, {w: ONE})
                        if fails[w]:
                            want.append({"indices": [k, render(w)], "element":
                                         "raw and normal-form matrices differ"})
            residuals = check_random_equivalence(rep, seed).residuals
            assert residuals == want
            reported = {r["indices"][1] for r in residuals}
            for raw in samples:
                bad = {render(w) for w in raw if fails[w]}
                assert bad <= reported
                if not cross_check_element(rep, raw):
                    assert bad
                elif bad:
                    cancelled += 1
            failing += len(want)
        assert failing
    assert cancelled


def test_random_equivalence_evaluates_each_distinct_word_once(alg2,
                                                              monkeypatch):
    """On a passing representation and under the cross-sector-JW
    corruption alike, ``evaluate_raw`` runs once per distinct sampled word
    and ``cross_check_element`` only ever sees a single word: a failing
    word is never asked again inside a whole sample."""
    evaluate_raw = matrixrep.MatrixRep.evaluate_raw
    cross_check = matrixrep.cross_check_element
    for Rep, passes in ((matrixrep.MatrixRep, True),
                        (rewritten_strings(lambda bit, string: bit - 1),
                         False)):
        for _, names in _oracle_subsystems(2):
            rep = Rep(alg2, names)
            words = {w for raw in _samples(rep, 0) for w in raw}
            calls, checked = [], []
            with monkeypatch.context() as mp:
                mp.setattr(matrixrep.MatrixRep, "evaluate_raw",
                           lambda self, terms: calls.append(terms)
                           or evaluate_raw(self, terms))
                mp.setattr(matrixrep, "cross_check_element",
                           lambda rep, raw: checked.append(raw)
                           or cross_check(rep, raw))
                assert check_random_equivalence(rep, seed=0).passed == passes
            assert len(calls) == len(words)
            assert all(len(raw) == 1 for raw in checked)
            assert sorted(w for raw in checked for w in raw) == sorted(words)


def test_symbolic_zero_maps_to_zero_matrix(alg2):
    """The raw concatenated words of sym3(theta^0, theta^1, d_1) - 2 theta^0
    and of sym3(theta^0, theta^1, theta^1), never normal formed, walk to the
    zero matrix."""
    rep = build_rep(alg2, [(CLS_THETA, 0), (CLS_THETA, 1), (CLS_DEL, 1)])
    th0, th1, d1 = alg2.theta(0), alg2.theta(1), alg2.d(1)
    assert not sym3(th0, th1, d1) - th0.scale(2)
    assert not sym3(th0, th1, th1)
    for raw in (_raw_products(*((1, *p) for p in permutations((th0, th1, d1))),
                              (-2, th0)),
                _raw_products(*((1, *p) for p in permutations((th0, th1, th1))))):
        assert any(len(word) == 3 for word in raw)
        assert rep.evaluate_raw(raw).is_zero()


def test_raw_vs_normal_agreement_example(alg2):
    rep = build_rep(alg2, [(CLS_THETA, 0), (CLS_DEL, 0)])
    th = alg2.components[(CLS_THETA, 0)][0]
    d = alg2.components[(CLS_DEL, 0)][0]
    raw = {(d, th): ONE, (th, d): ONE}   # {theta(1), d(1)} before rewriting
    assert cross_check_element(rep, raw)
    assert rep.evaluate_raw(raw) == _identity(
        rep.dim, Cyclo(alg2.config.pairing_kappa))


def test_single_component_square_is_zero(alg2):
    rep = build_rep(alg2, [(CLS_THETA, 0)])
    th = alg2.components[(CLS_THETA, 0)][0]
    assert rep.evaluate_raw({(th, th): ONE}).is_zero()


def test_bosonic_generators_rejected(alg2):
    """A letter outside the subsystem is named, also in a word that its
    other letters have already made zero, at either end."""
    rep = build_rep(alg2, [(CLS_THETA, 0)])
    with pytest.raises(KeyError):
        rep.evaluate(alg2.x(0))
    th = alg2.components[(CLS_THETA, 0)][0]
    (x0,), = alg2.x(0).terms
    th1 = alg2.components[(CLS_THETA, 1)][0]
    for word in ((th1,), (th, th1), (x0, th, th), (th, th, x0)):
        foreign = alg2.system.names[th1 if th1 in word else x0]
        with pytest.raises(KeyError, match=re.escape(foreign)):
            rep.evaluate_raw({word: ONE})
    for names in ([(CLS_X, 0)], [(CLS_THETA, 0), (CLS_P, 1)]):
        with pytest.raises(ValueError):
            build_rep(alg2, names)


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


def test_representation_catches_a_wrong_contraction(alg2, monkeypatch):
    """The rule-table check walks u v - s v u - c: with every contraction
    negated, exactly the conjugate theta/d pairs stop being realised."""
    rep = build_rep(alg2, dict(_oracle_subsystems(2))["th0-d0"])
    assert check_representation(rep).passed
    negated = [{u: -c for u, c in row.items()}
               for row in alg2.system._contraction]
    monkeypatch.setattr(alg2.system, "_contraction", negated)
    report = check_representation(rep)
    assert report.residuals == [
        {"indices": [f"theta^0({g})", f"d_0({g})"],
         "element": "pair rule not realised"} for g in (1, 2)]


def test_oracle_zero_walks_raw_words(alg2, monkeypatch):
    """oracle.zero walks the raw probe words: matrices built at kappa = 1/3
    under normal forms taken at kappa = 1/2 give the surviving symmetric
    bracket a nonzero image, though every probe is still a symbolic zero."""
    wrong = build(SuperspaceConfig(metric=MetricSignature.minkowski(2),
                                   pairing_kappa=Fraction(1, 3)))
    build_rep = suites.matrixrep.build_rep
    monkeypatch.setattr(suites.matrixrep, "build_rep",
                        lambda alg, names: build_rep(wrong, names))
    zero = suites.check_oracle(alg2)[-1]
    assert zero.check_id == "oracle.zero"
    assert {"indices": ["sym-surviving"],
            "element": "nonzero matrix image"} in zero.residuals
