"""Rewriting engine: normal forms, confluence, brackets, star."""

import collections
import math
import random
from fractions import Fraction

import pytest

from conftest import UncheckedSystem, cross_sector_pairing
from ternalg import superspace
from ternalg.algebra import (TERNARY_ORDERINGS, ConfluenceError, Element,
                             GeneratorSystem, IncompatibleSystems,
                             _accumulate, anticommutator, colour3, commutator,
                             nested_action, random_element, random_raw_terms,
                             sum_of_products, sym3)
from ternalg.colour import col3_weights
from ternalg.cyclo import Cyclo, ONE, Q, ZERO
from ternalg.superspace import (CLS_DEL, CLS_EPS, CLS_P, CLS_THETA,
                                CLS_THETA_SC, CLS_X, MetricSignature,
                                SuperspaceConfig, build)


def fermion_pair():
    """Two anticommuting generators a, b with {b, a} = 1, a^2 = b^2 = 0."""
    return GeneratorSystem(
        ("a", "b"),
        swap_sign={(0, 1): -1},
        contraction={(1, 0): ONE},
        square_zero=(0, 1))


def test_basic_rewrites():
    sys_ = fermion_pair()
    a = Element.generator(sys_, 0)
    b = Element.generator(sys_, 1)
    assert str(b * a) == "1 - a b"
    assert anticommutator(a, b) == Element.scalar(sys_, 1)
    assert a * a == Element.zero(sys_)
    assert (a * b) * (a * b) == a * b


def test_normal_form_idempotent(alg2):
    sys_ = alg2.system
    rng = random.Random(7)
    for _ in range(100):
        raw = random_raw_terms(sys_, rng)
        nf = sys_.normalize_terms(raw)
        assert sys_.normalize_terms(nf) == nf


def _reference_raw_terms(gens, rng, max_degree, n_terms):
    """The randint/choice body that ``random_raw_terms`` draws the same
    numbers as."""
    terms = {}
    for _ in range(n_terms):
        deg = rng.randint(0, max_degree)
        word = tuple(rng.choice(gens) for _ in range(deg))
        coeff = Cyclo(rng.randint(-3, 3), rng.randint(-2, 2))
        if coeff:
            _accumulate(terms, word, coeff)
    return terms


def test_random_raw_terms_reproduces_the_randint_choice_stream(alg2):
    """For every seed 0..49 and generator list, two generators seeded alike
    run through every (max_degree, n_terms) in turn, one through
    ``random_raw_terms`` and one through the randint/choice body: each call
    gives the same term map and leaves the same generator state.  One
    letter (n = 1) and a power of two (n = 4, 8) still reject draws."""
    for seed in range(50):
        for n in (1, 2, 3, 4, 6, 8):
            gens = list(range(0, 2 * n, 2))
            fast, ref = random.Random(seed), random.Random(seed)
            for max_degree in range(7):
                for n_terms in range(1, 7):
                    got = random_raw_terms(alg2.system, fast, gens,
                                           max_degree, n_terms)
                    want = _reference_raw_terms(gens, ref, max_degree,
                                                n_terms)
                    assert got == want, (seed, n, max_degree, n_terms)
                    assert fast.getstate() == ref.getstate()


def test_random_raw_terms_needs_a_generator_for_letters(alg2):
    """No generators and max_degree > 0 (or max_degree < 0) is refused
    before the first draw; degree-0 words need no generator."""
    rng = random.Random(0)
    state = rng.getstate()
    for max_degree in (1, 4, -1):
        with pytest.raises(ValueError):
            random_raw_terms(alg2.system, rng, [], max_degree)
        assert rng.getstate() == state
    ref = random.Random(0)
    assert (random_raw_terms(alg2.system, rng, [], 0, 5)
            == _reference_raw_terms([], ref, 0, 5))
    assert rng.getstate() == ref.getstate()


def test_strategy_confluence(alg2):
    """Leftmost, rightmost and random rule application all agree with the
    insertion-based normal former, over 100 seeded inputs."""
    sys_ = alg2.system
    rng = random.Random(11)
    for _ in range(100):
        raw = random_raw_terms(sys_, rng)
        nf = sys_.normalize_terms(raw)
        assert sys_.reduce_terms(raw, "leftmost") == nf
        assert sys_.reduce_terms(raw, "rightmost") == nf
        assert sys_.reduce_terms(raw, "random", rng=rng) == nf


def test_product_is_associative(alg2):
    rng = random.Random(3)
    for _ in range(20):
        a, b, c = (random_element(alg2.system, rng, max_degree=3, n_terms=2)
                   for _ in range(3))
        assert (a * b) * c == a * (b * c)


def test_degree_parity(alg2):
    """Rewrites remove generators in pairs, so Z2 parity is graded."""
    ids = [gid for (cls, _), comp in alg2.components.items()
           if cls < CLS_X for gid in comp]
    rng = random.Random(5)
    for _ in range(30):
        wa = tuple(rng.choice(ids) for _ in range(rng.randint(1, 3)))
        wb = tuple(rng.choice(ids) for _ in range(rng.randint(1, 3)))
        prod = (Element(alg2.system, {wa: ONE})
                * Element(alg2.system, {wb: ONE}))
        for word in prod.terms:
            assert len(word) % 2 == (len(wa) + len(wb)) % 2


def test_star_laws_on_fermionic_sector(alg2):
    ids = sorted(gid for (cls, _), comp in alg2.components.items()
                 if cls < CLS_X for gid in comp)
    rng = random.Random(13)
    for _ in range(40):
        a = random_element(alg2.system, rng, ids, max_degree=3)
        b = random_element(alg2.system, rng, ids, max_degree=3)
        assert a.star().star() == a
        assert (a + b).star() == a.star() + b.star()
        assert (a * b).star() == b.star() * a.star()
        assert a.scale(Q).star() == a.star().scale(Q.conj())


def test_star_fixes_generators(alg2):
    for gid in range(alg2.system.size()):
        g = Element.generator(alg2.system, gid)
        assert g.star() == g


def test_sym3_permutation_invariance(alg2):
    import itertools
    rng = random.Random(17)
    args = [random_element(alg2.system, rng, max_degree=2, n_terms=2)
            for _ in range(3)]
    base = sym3(*args)
    for p in itertools.permutations(args):
        assert sym3(*p) == base


def test_commutator_bilinearity(alg2):
    rng = random.Random(19)
    a, b, c = (random_element(alg2.system, rng, max_degree=2)
               for _ in range(3))
    assert commutator(a + b, c) == commutator(a, c) + commutator(b, c)
    assert commutator(a, b) == -commutator(b, a)


def test_nested_action_order():
    sys_ = fermion_pair()
    a = Element.generator(sys_, 0)
    b = Element.generator(sys_, 1)
    tgt = a * b
    assert nested_action([a, b], tgt) == commutator(a, commutator(b, tgt))


def test_mixed_systems_rejected(alg2):
    other = fermion_pair()
    x = Element.generator(alg2.system, 0)
    y = Element.generator(other, 0)
    with pytest.raises(IncompatibleSystems):
        x + y
    with pytest.raises(IncompatibleSystems):
        commutator(x, y)
    with pytest.raises(IncompatibleSystems):
        anticommutator(y, x)
    for args in ((x, x, y), (x, y, x), (y, x, x)):
        with pytest.raises(IncompatibleSystems):
            sym3(*args)
        with pytest.raises(IncompatibleSystems):
            colour3(*args, col3_weights())


def test_inconsistent_rules_rejected():
    # u v -> v u + 1 together with v^2 -> 0 is not confluent: the overlap
    # word u v v reduces to 2v one way and to 0 the other
    with pytest.raises(ConfluenceError):
        GeneratorSystem(
            ("v", "u"),
            swap_sign={},
            contraction={(1, 0): ONE},
            square_zero=(0,))


def _is_homomorphism(sys_, image) -> bool:
    """Reference for ``preserves_rules``: the generator map sends every
    defining relation, u v - s(u, v) v u - c(u, v) for u after v and u u
    for a square-zero u, to a word map whose normal form is zero."""
    for u in range(sys_.size()):
        a = image[u]
        g = Element.generator(sys_, u)
        if not g * g and Element(sys_, {(a, a): ONE}):
            return False
        for v in range(u):
            b = image[v]
            raw = {(a, b): ONE, (b, a): Cyclo(-sys_.swap_sign(u, v))}
            if sys_.contraction(u, v):
                raw[()] = -sys_.contraction(u, v)
            if Element(sys_, raw):
                return False
    return True


def test_preserves_rules_matches_mapped_relations():
    """``preserves_rules`` holds exactly when the generator permutation
    and its inverse both send every defining relation to zero: on a
    fermion pair, on two Weyl pairs whose contractions differ in sign (a
    map that reverses the order of a commuting pair must negate its
    contraction), and on the d = 2 superspace with its Green sector swap,
    its index swap 0 <-> 1 (the rule table ignores eta), and seeded
    random permutations."""
    weyl = GeneratorSystem(("x", "p", "y", "q"),
                           contraction={(1, 0): ONE, (3, 2): -ONE})
    alg = build(SuperspaceConfig(metric=MetricSignature.minkowski(2)))
    comps = alg.components
    sector_swap = list(range(alg.system.size()))
    index_swap = list(sector_swap)
    for (cls, mu), ids in comps.items():
        if len(ids) == 2:
            sector_swap[ids[0]], sector_swap[ids[1]] = ids[1], ids[0]
        for g, h in zip(ids, comps[(cls, 1 - mu)] if cls else ids):
            index_swap[g] = h
    rng = random.Random(5)
    cases = [(fermion_pair(), [1, 0], True), (weyl, [3, 2, 1, 0], True),
             (weyl, [1, 0, 2, 3], False), (weyl, [0, 1, 3, 2], False),
             (weyl, [0, 1, 0, 2], False),
             (alg.system, sector_swap, True), (alg.system, index_swap, True)]
    for _ in range(20):
        perm = list(range(alg.system.size()))
        rng.shuffle(perm)
        cases.append((alg.system, perm, None))
    # seeded random transpositions; a few swap two generators with equal rules
    for _ in range(20):
        perm = list(range(alg.system.size()))
        i, j = rng.sample(range(alg.system.size()), 2)
        perm[i], perm[j] = j, i
        cases.append((alg.system, perm, None))
    for sys_, image, want in cases:
        got = sys_.preserves_rules(image)
        if sorted(image) == list(range(sys_.size())):
            inverse = sorted(range(len(image)), key=image.__getitem__)
            assert got == (_is_homomorphism(sys_, image)
                           and _is_homomorphism(sys_, inverse)), image
        if want is not None:
            assert got is want, image


def _confluent_by_full_sweep(sys_) -> bool:
    """Reference check: reduce every descending overlap word both ways."""
    n = sys_.size()
    for u in range(n):
        for v in range(u + 1):
            for w in range(v + 1):
                word = (u, v, w)
                if (sys_.reduce_terms({word: ONE}, "leftmost")
                        != sys_.reduce_terms({word: ONE}, "rightmost")):
                    return False
    return True


def _assert_names_a_witness(err, args):
    """The overlap word that ``err`` names is a descending word of the
    table ``args`` whose leftmost and rightmost reductions differ."""
    named = str(err).split("overlap word ")[1].split(":")[0]
    word = tuple(args[0].index(name) for name in named.split(" "))
    assert len(word) == 3 and list(word) == sorted(word, reverse=True)
    unchecked = UncheckedSystem(*args)
    assert (unchecked.reduce_terms({word: ONE}, "leftmost")
            != unchecked.reduce_terms({word: ONE}, "rightmost"))


def _random_rule_table(rng, n_max):
    """Seeded (names, swap, contraction, square_zero) on at most ``n_max``
    generators: mixed swap signs, a few contractions, and about half the
    generators not square-zero, so that words repeat letters."""
    values = (1, -1, 2, Fraction(1, 2), Fraction(-2, 3), Q, Cyclo(1, -1))
    n = rng.randint(1, n_max)
    pairs = [(u, v) for u in range(n) for v in range(u)]
    swap = {p: rng.choice((1, -1)) for p in pairs}
    contraction = {p: rng.choice(values) for p in pairs if rng.random() < 0.3}
    square_zero = [u for u in range(n) if rng.random() < 0.5]
    return [f"g{k}" for k in range(n)], swap, contraction, square_zero


def test_confluence_check_matches_full_sweep():
    """The construction-time sign criterion reduces nothing; on random
    small rule tables it must accept and reject exactly what reducing
    every overlap word both ways accepts and rejects, and name a word
    that the two reductions disagree on."""
    rng = random.Random(29)
    outcomes = []
    for _ in range(3000):
        args = _random_rule_table(rng, 5)
        try:
            GeneratorSystem(*args)
            accepted = True
        except ConfluenceError as err:
            accepted = False
            _assert_names_a_witness(err, args)
        assert accepted == _confluent_by_full_sweep(UncheckedSystem(*args)), args
        outcomes.append(accepted)
    assert any(outcomes) and not all(outcomes)


def _rule_table(monkeypatch, d, kappa=Fraction(1, 2), sectors=(0, 1)):
    """The (names, swap, contraction, square_zero) arguments that ``build``
    passes to ``GeneratorSystem`` at dimension d."""
    tables = []

    def record(*args):
        tables.append(args)
        return GeneratorSystem(*args)

    with monkeypatch.context() as mp:
        mp.setattr(superspace, "GeneratorSystem", record)
        mp.setattr(superspace, "GREEN_SECTORS", sectors)
        build(SuperspaceConfig(metric=MetricSignature.minkowski(d),
                               pairing_kappa=kappa))
    (table,) = tables
    return table


@pytest.mark.parametrize("d, kappa, sectors", [
    (1, Fraction(1, 2), (0, 1)), (2, Fraction(1, 2), (0, 1)),
    (3, Fraction(1, 2), (0, 1)), (2, Fraction(1, 3), (0, 1)),
    (2, Fraction(1, 2), (0, 1, 2))])
def test_superspace_rule_tables_are_confluent(monkeypatch, d, kappa, sectors):
    """The superspace rule tables (and the kappa = 1/3 and p = 3 ones) pass
    the construction check and reducing every overlap word both ways."""
    args = _rule_table(monkeypatch, d, kappa, sectors)
    GeneratorSystem(*args)
    assert _confluent_by_full_sweep(UncheckedSystem(*args))


def _flipped_swap(a, b):
    """A corruption that flips the swap sign of the same-sector pair a, b."""
    def corrupt(names, swap, contraction, square_zero):
        key = (names.index(a), names.index(b))
        return names, {**swap, key: -swap[key]}, contraction, square_zero
    return corrupt


@pytest.mark.parametrize("corrupt", [
    cross_sector_pairing,
    _flipped_swap("d_0(1)", "theta^0(1)"),
    _flipped_swap("d_0(1)", "theta^1(1)")],
    ids=["cross-sector-pairing", "same-sector-swap-plus", "flipped-sign"])
def test_corrupted_rule_tables_rejected(monkeypatch, corrupt):
    """Corrupted d = 2 tables fail both the construction check and the full
    sweep, and the error names an overlap word whose leftmost and
    rightmost reductions really differ."""
    args = corrupt(*_rule_table(monkeypatch, 2))
    with pytest.raises(ConfluenceError) as err:
        GeneratorSystem(*args)
    _assert_names_a_witness(err.value, args)
    assert not _confluent_by_full_sweep(UncheckedSystem(*args))


def _raw_product(a_raw: dict, b_raw: dict) -> dict:
    out = {}
    for wa, ca in a_raw.items():
        for wb, cb in b_raw.items():
            out[wa + wb] = out.get(wa + wb, 0) + ca * cb
    return out


def _check_product_against_reducer(sys_, pairs, rng):
    for a_raw, b_raw in pairs:
        a, b = Element(sys_, a_raw), Element(sys_, b_raw)
        got = (a * b).terms
        raw = _raw_product(a_raw, b_raw)
        assert sys_.reduce_terms(raw, "leftmost") == got
        assert sys_.reduce_terms(raw, "rightmost") == got
        assert sys_.reduce_terms(raw, "random", rng=rng) == got


def test_product_matches_reducer_superspace():
    """Differential test of the product kernel against the one-step
    rewriter at d = 3, on words mixing both Green sectors, conjugate
    theta/d pairs and repeated bosons."""
    alg = build(SuperspaceConfig(metric=MetricSignature.minkowski(3)))
    ids = alg.components
    x0, p0 = ids[(CLS_X, 0)][0], ids[(CLS_P, 0)][0]
    pool = [ids[(CLS_THETA, 0)][g] for g in (0, 1)]
    pool += [ids[(CLS_DEL, 0)][g] for g in (0, 1)]
    pool += [ids[(CLS_THETA, 1)][0], ids[(CLS_DEL, 1)][1],
             ids[(CLS_THETA_SC, 0)][1], ids[(CLS_EPS[1], 2)][0],
             x0, p0, ids[(CLS_X, 1)][0], ids[(CLS_P, 1)][0]]
    rng = random.Random(31)
    pairs = [({(p0, p0): ONE}, {(x0, x0): ONE}),
             ({(x0, p0, x0): Q}, {(p0, p0, x0): ONE})]
    pairs += [(random_raw_terms(alg.system, rng, pool, 6, 3),
               random_raw_terms(alg.system, rng, pool, 6, 3))
              for _ in range(150)]
    _check_product_against_reducer(alg.system, pairs, rng)


def test_product_matches_reducer_fermion_pair():
    sys_ = fermion_pair()
    rng = random.Random(37)
    pairs = [(random_raw_terms(sys_, rng, max_degree=6),
              random_raw_terms(sys_, rng, max_degree=6))
             for _ in range(100)]
    _check_product_against_reducer(sys_, pairs, rng)


def test_canonical_rendering_stable(alg2):
    rng = random.Random(23)
    e = random_element(alg2.system, rng)
    again = Element(alg2.system, dict(e.terms))
    assert str(e) == str(again)


def test_scalar_coercion(alg2):
    e = Element.generator(alg2.system, 0)
    assert e.scale(2) == e + e
    assert e * 2 == 2 * e
    assert e.scale(Cyclo(0, 1)) == e.scale(Q)


def test_fraction_scalar_on_either_side(alg2):
    theta = alg2.theta(0)
    assert theta * Fraction(1, 2) == theta.scale(Cyclo(Fraction(1, 2)))
    assert Fraction(1, 2) * theta == theta * Fraction(1, 2)
    assert str(Fraction(-2, 3) * theta) == "-2/3*theta^0(1) - 2/3*theta^0(2)"
    assert Q * theta == theta * Q == theta.scale(Q)


def test_non_scalar_operand_is_a_type_error(alg2):
    theta = alg2.theta(0)
    for bad in ("x", 0.5, None, [1]):
        with pytest.raises(TypeError):
            theta * bad
        with pytest.raises(TypeError):
            bad * theta


def test_times_word_merges_into_out(alg2):
    """The kernel adds into what ``out`` already holds: a zero coefficient
    adds nothing, a product that cancels a held term drops its word, and an
    empty right factor adds ``coeff * word`` as it stands."""
    sys_ = alg2.system
    th, d = alg2.components[(CLS_THETA, 0)][0], alg2.components[(CLS_DEL, 0)][0]
    held = (alg2.theta(0) * alg2.d(0)).terms
    for word, coeff in held.items():
        out = dict(held)
        sys_.times_word((), ZERO, word, out)
        assert out == held
        sys_.times_word((), -coeff, word, out)
        assert word not in out and len(out) == len(held) - 1
    out = {}
    sys_.times_word((d,), ZERO, (th,), out)
    assert out == {}
    sys_.times_word((d,), Q, (th,), out)     # d theta = -theta d + 1/2
    assert out == {(th, d): -Q, (): Q * Fraction(1, 2)}
    sys_.times_word((th, d), Q, (), out)
    assert out == {(): Q * Fraction(1, 2)}


def _bracket_operands(alg, rng, count):
    """Seeded elements of degree <= 3 at d = 2 over theta/d pairs of both
    Green sectors, eps, the scalar theta, x and P, half of them plus a Green
    sum, so that both the fermionic and the bosonic contractions fire."""
    ids = alg.components
    pool = [ids[(CLS_THETA, 0)][g] for g in (0, 1)]
    pool += [ids[(CLS_DEL, 0)][g] for g in (0, 1)]
    pool += [ids[(CLS_THETA, 1)][0], ids[(CLS_DEL, 1)][0],
             ids[(CLS_THETA_SC, 0)][1], ids[(CLS_EPS[0], 0)][1],
             ids[(CLS_EPS[2], 1)][0]]
    pool += [ids[(cls, mu)][0] for cls in (CLS_X, CLS_P) for mu in (0, 1)]
    named = [alg.theta(0), alg.d(0), alg.theta_scalar(), alg.eps(2, 1),
             alg.x(1), alg.P(1), alg.theta(1) + alg.d(1)]
    out = []
    for _ in range(count):
        e = random_element(alg.system, rng, pool, max_degree=3, n_terms=3)
        if rng.random() < 0.5:
            e = e + rng.choice(named)
        out.append(e)
    return out


def _has_bosonic_contraction(alg, raw) -> bool:
    """Whether some raw word puts P_mu before x_mu."""
    pairs = [(alg.components[(CLS_P, mu)][0], alg.components[(CLS_X, mu)][0])
             for mu in range(alg.dimension)]
    return any(p in w and x in w[w.index(p):] for w in raw for p, x in pairs)


def _raw_colour3(args, weights) -> dict:
    """The six-ordering word map of colour3, words concatenated, never
    normal-formed."""
    raw: dict = {}
    for (i, j, k), w in zip(TERNARY_ORDERINGS, weights):
        for wi, ci in args[i].terms.items():
            for wj, cj in args[j].terms.items():
                for wk, ck in args[k].terms.items():
                    word = wi + wj + wk
                    raw[word] = raw.get(word, ZERO) + w * ci * cj * ck
    return raw


def test_colour3_matches_reducer_on_raw_orderings(alg2):
    """Differential test of the grouped ternary bracket against the one-step
    rewriter applied to the sum of the six concatenated triple words, with
    unit weights, the paper weights and random weights with a zero; sym3
    is checked against the unit-weight word map of every operand triple."""
    rng = random.Random(41)
    weight_sets = [(ONE,) * 6, col3_weights()]
    for _ in range(4):
        ws = [Cyclo(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(6)]
        ws[rng.randrange(6)] = ZERO
        weight_sets.append(tuple(ws))
    sys_ = alg2.system
    bosonic = 0
    for weights in weight_sets:
        for _ in range(6):
            args = _bracket_operands(alg2, rng, 3)
            raw = _raw_colour3(args, weights)
            bosonic += _has_bosonic_contraction(alg2, raw)
            assert sys_.reduce_terms(raw, "leftmost") == \
                colour3(*args, weights).terms
            assert sys_.reduce_terms(_raw_colour3(args, (ONE,) * 6),
                                     "leftmost") == sym3(*args).terms
    assert bosonic >= 6


def test_sum_of_products_matches_reducer(alg2):
    """sum_of_products at each sign equals the one-step normal form of the
    raw word map of x y + sign y x summed over its pairs, a zero element
    among them on either side."""
    rng = random.Random(47)
    sys_ = alg2.system
    zero = Element.zero(sys_)
    bosonic = 0
    for _ in range(10):
        ops = _bracket_operands(alg2, rng, 6)
        pairs = list(zip(ops[::2], ops[1::2]))
        pairs[1:1] = [(ops[1], zero), (zero, ops[4])]
        for sign in (0, -1, 1):
            raw: dict = {}
            for x, y in pairs:
                for wx, cx in x.terms.items():
                    for wy, cy in y.terms.items():
                        raw[wx + wy] = raw.get(wx + wy, ZERO) + cx * cy
                        raw[wy + wx] = raw.get(wy + wx, ZERO) + sign * cx * cy
            bosonic += _has_bosonic_contraction(alg2, raw)
            assert sys_.reduce_terms(raw, "leftmost") == \
                sum_of_products(pairs, sign).terms
    assert bosonic >= 10
    assert not sum_of_products([(ops[0], zero), (zero, ops[1])], -1)


def test_commutator_matches_reducer_on_raw_products(alg2):
    """commutator(a, b) equals the one-step normal form of the raw ab - ba
    word map, and anticommutator that of ab + ba."""
    rng = random.Random(43)
    sys_ = alg2.system
    bosonic = 0
    for _ in range(40):
        a, b = _bracket_operands(alg2, rng, 2)
        for bracket, sign in ((commutator, -1), (anticommutator, 1)):
            raw: dict = {}
            for wa, ca in a.terms.items():
                for wb, cb in b.terms.items():
                    raw[wa + wb] = raw.get(wa + wb, ZERO) + ca * cb
                    raw[wb + wa] = raw.get(wb + wa, ZERO) + sign * ca * cb
            bosonic += _has_bosonic_contraction(alg2, raw)
            assert sys_.reduce_terms(raw, "leftmost") == bracket(a, b).terms
    assert bosonic >= 10


def _graded_sign(sys_, u, v):
    """eps with v u = eps u v, read off the rule table for two words with
    no contraction across them; None if a letter of u contracts with one
    of v."""
    if any(sys_.contraction(max(a, b), min(a, b)) for a in u for b in v):
        return None
    return math.prod(sys_.swap_sign(a, b) for a in u for b in v if a != b)


def _assert_brackets_are_two_products(pairs):
    """commutator and anticommutator equal x y -+ y x formed as two sign-0
    products, on every (x, y) of ``pairs``; returns how many pairs of
    non-empty words took the graded path, by eps."""
    graded = collections.Counter()
    for x, y in pairs:
        xy, yx = sum_of_products(((x, y),)), sum_of_products(((y, x),))
        assert commutator(x, y) == xy - yx
        assert anticommutator(x, y) == xy + yx
        graded.update(_graded_sign(x.system, u, v)
                      for u in x.terms for v in y.terms if u and v)
    return graded


def test_graded_brackets_match_two_products():
    """The graded path of ``sum_of_products`` (one kernel pass or none for
    a pair of words with no contraction across it) gives the brackets that
    two full products give, on seeded random elements of random rule
    tables: confluent ones, and ones the construction check would reject,
    since the kernel's own two passes differ by the swap signs alone."""
    rng = random.Random(53)
    graded = collections.Counter()
    confluent = 0
    for _ in range(600):
        args = _random_rule_table(rng, 6)
        try:
            sys_ = GeneratorSystem(*args)
            confluent += 1
        except ConfluenceError:
            sys_ = UncheckedSystem(*args)
        ops = [random_element(sys_, rng, max_degree=4, n_terms=3)
               for _ in range(10)]
        graded += _assert_brackets_are_two_products(zip(ops[::2], ops[1::2]))
    assert confluent > 200 and 600 - confluent > 100
    assert graded[1] > 1000 and graded[-1] > 1000


def test_graded_path_reads_the_last_sign_of_a_pair_given_twice():
    """A swap sign given for both orientations of a pair keeps the last
    one, in the rule table and in the masks of the graded path."""
    for first, last in ((-1, 1), (1, -1)):
        sys_ = GeneratorSystem(("a", "b"), {(0, 1): first, (1, 0): last})
        a, b = Element.generator(sys_, 0), Element.generator(sys_, 1)
        assert sys_.swap_sign(0, 1) == last
        assert commutator(a, b) == a * b - b * a
        assert anticommutator(a, b) == a * b + b * a


@pytest.mark.parametrize("d", [2, 3])
def test_graded_brackets_match_two_products_superspace(d):
    """The same on the superspace algebras at d = 2 and 3, over every
    generator and over the operands of ``_bracket_operands``, whose
    fermionic and bosonic contractions fire."""
    alg = build(SuperspaceConfig(metric=MetricSignature.minkowski(d)))
    rng = random.Random(59 + d)
    ops = [random_element(alg.system, rng, max_degree=3, n_terms=4)
           for _ in range(40)]
    ops += _bracket_operands(alg, rng, 40)
    graded = _assert_brackets_are_two_products(zip(ops, ops[1:] + ops[:1]))
    assert graded[1] and graded[-1] and graded[None]


def test_graded_pairs_take_one_pass_or_none(monkeypatch, alg2):
    """At d = 2 [theta^0, theta^1] takes one kernel pass per same-sector
    pair of Green components, which anticommute, and none for a
    cross-sector pair, which commute; [theta^0, d_0] keeps both passes on
    its two contracting same-sector pairs and takes none on the others."""
    theta0, theta1, d0 = (alg2.components[key] for key in (
        (CLS_THETA, 0), (CLS_THETA, 1), (CLS_DEL, 0)))
    want = Element(alg2.system, {(u, v): Cyclo(2)
                                 for u, v in zip(theta0, theta1)})
    passes = []
    times_word = GeneratorSystem.times_word
    monkeypatch.setattr(GeneratorSystem, "times_word", lambda self, *args:
                        passes.append((args[0], args[2]))
                        or times_word(self, *args))
    assert commutator(alg2.theta(0), alg2.theta(1)) == want
    assert sorted(passes) == [((u,), (v,)) for u, v in zip(theta0, theta1)]
    passes.clear()
    commutator(alg2.theta(0), alg2.d(0))
    assert sorted(passes) == sorted(
        pair for u, v in zip(theta0, d0) for pair in (((u,), (v,)),
                                                      ((v,), (u,))))
