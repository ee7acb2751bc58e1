"""Parafermionic relation families, realised symmetry generators and the
transformation checks, at the small dimension where everything is fast."""

import itertools
import random
from fractions import Fraction

import pytest

from conftest import (UncheckedSystem, cross_sector_pairing, eps1_pairing,
                      third_pairing_at)
from ternalg import dsl, order3, suites, superspace
from ternalg.algebra import (TERNARY_ORDERINGS, Element, GeneratorSystem,
                             commutator, nested_action, random_element, sym3)
from ternalg.colour import col3_weights
from ternalg.cyclo import ONE, Cyclo, Q, ZERO
from ternalg.report import CheckReport
from ternalg.suites import SuiteSpec, run_suite
from ternalg.superspace import (CLS_DEL, CLS_EPS, CLS_P, CLS_THETA,
                                CLS_THETA_SC, CLS_X, DOUBLE_BRACKET_FAMILIES,
                                GREEN_SECTORS, REALISED_QUARTIC_COEFFS,
                                REFERENCE_QUARTIC_COEFFS, SYM_BRACKET_FAMILIES,
                                MetricSignature, SuperspaceConfig,
                                _expected_double, _expected_leib,
                                _expected_LL, _expected_sym, _label,
                                _psi_base, _rotated, build,
                                check_closure, check_parafermion_relations,
                                check_poincare_realisation, check_psi_bracket,
                                check_roby, check_superspace_transformation,
                                colour_action, poincare_brackets)


def _all_pass(reports):
    failed = [(r.check_id, r.residuals[:2]) for r in reports if not r.passed]
    assert not failed, failed


def test_green_component_counts(alg2):
    # 11 parafermionic names at d=2 (scalar theta, theta^mu, d_mu and the
    # three eps families), two Green components each, plus x and P
    assert alg2.system.size() == 11 * 2 + 2 * 2
    comps = alg2.components
    # the layout names every generator id exactly once
    assert sorted(g for ids in comps.values() for g in ids) == \
        list(range(alg2.system.size()))
    for (cls, mu), ids in comps.items():
        label = _label(cls, mu)
        if cls in (CLS_X, CLS_P):
            assert [alg2.system.names[g] for g in ids] == [label]
        else:
            assert len(ids) == len(GREEN_SECTORS)
            assert [alg2.system.names[g] for g in ids] == \
                [f"{label}({g + 1})" for g in GREEN_SECTORS]
    # the labels are the DSL base names, and each spells its own element
    assert set(alg2.symbols) == {
        "theta", "theta^0", "theta^1", "d_0", "d_1", "eps1^0", "eps1^1",
        "eps2^0", "eps2^1", "eps3^0", "eps3^1", "x^0", "x^1", "P_0", "P_1"}
    for label, element in alg2.symbols.items():
        assert dsl.evaluate(label, alg2) is element


def test_component_level_pairing(alg2):
    from ternalg.algebra import Element
    from ternalg.superspace import CLS_DEL, CLS_THETA
    sys_ = alg2.system
    th = Element.generator(sys_, alg2.components[(CLS_THETA, 0)][0])
    d_same = Element.generator(sys_, alg2.components[(CLS_DEL, 0)][0])
    d_cross = Element.generator(sys_, alg2.components[(CLS_DEL, 0)][1])
    # same Green sector: {theta(r), d(r)} = kappa = 1/2
    assert str(th * d_same + d_same * th) == "1/2"
    # distinct sectors commute
    assert not commutator(th, d_cross)
    # parafermionic squares vanish
    assert not th * th


def test_relation_families(alg2):
    _all_pass(check_parafermion_relations(alg2))


def test_trilinear_spot_checks(alg2):
    th0, th1, d1 = alg2.theta(0), alg2.theta(1), alg2.d(1)
    assert commutator(commutator(th0, d1), th1) == th0
    assert sym3(th0, th1, d1) == th0.scale(2)
    assert not sym3(th0, th1, th1)
    assert not commutator(commutator(th0, th1), th1)


def test_corrupted_pairing_leaves_residual():
    """With kappa = 1 the trilinear coefficients double, so the family
    [[theta, d], theta] check must fail with residual exactly theta^mu."""
    alg = build(SuperspaceConfig(metric=MetricSignature.minkowski(2),
                                 pairing_kappa=Fraction(1)))
    reports = {r.check_id: r for r in check_parafermion_relations(alg)}
    bad = reports["para1.3"]
    assert not bad.passed
    rendered = [r["element"] for r in bad.residuals]
    assert str(alg.theta(0)) in rendered


def _slot_keys(alg, kind):
    """The slot keys of one pattern letter: "N" the coordinate-type names,
    "D" the conjugates d_mu."""
    if kind == "N":
        return alg.coordinate_keys
    return [(CLS_DEL, mu) for mu in range(alg.dimension)]


def _ordered_para_residuals(alg):
    """Reference for ``check_parafermion_relations``: ``lhs - rhs`` reduced
    for every ordered slot-key tuple, with no orbit quotient and no pair
    table.  Returns [(check_id, residuals)] in family order."""
    out = []
    el = alg._named
    for family_id, pattern, _ in DOUBLE_BRACKET_FAMILIES + SYM_BRACKET_FAMILIES:
        rep = CheckReport(family_id, "")
        slots = [_slot_keys(alg, kind) for kind in pattern]
        for a, b, c in itertools.product(*slots):
            if family_id.startswith("para."):
                lhs = sym3(el[a], el[b], el[c])
                rhs = _expected_sym(alg, a, b, c)
            else:
                lhs = commutator(commutator(el[a], el[b]), el[c])
                rhs = _expected_double(alg, a, b, c)
            rep.expect_zero((_label(*a), _label(*b), _label(*c)), lhs - rhs)
        out.append((family_id, rep.residuals))
    return out


def _ordered_psi_bracket(alg):
    """Reference for ``check_psi_bracket``: one symmetric bracket per
    ordered (s, mu, nu, rho), with the right-hand side written out.
    Returns (residuals, notes)."""
    d, eta = alg.dimension, alg.eta
    rep = CheckReport("psi.bracket", "")
    global_sign = None
    for s in (1, -1):
        for mu, nu, rho in itertools.product(range(d), repeat=3):
            lhs = sym3(alg.psi(s, mu), alg.psi(s, nu), alg.psi(s, rho))
            base = (alg.psi(s, rho).scale(4 * eta[mu] if mu == nu else 0)
                    + alg.psi(s, mu).scale(4 * eta[nu] if nu == rho else 0)
                    + alg.psi(s, nu).scale(4 * eta[rho] if rho == mu else 0))
            if not base:
                rep.expect_zero((s, mu, nu, rho), lhs)
                continue
            for candidate in (1, -1):
                if lhs - base.scale(candidate * s):
                    continue
                if global_sign is None:
                    global_sign = candidate
                elif global_sign != candidate:
                    rep.add_residual((s, mu, nu, rho),
                                     f"sign flips to {candidate:+d}")
                break
            else:
                rep.add_residual((s, mu, nu, rho),
                                 str(lhs - base) + " (no uniform sign)")
    sign_txt = "undetermined" if global_sign is None else f"{global_sign:+d}"
    notes = (f"computed global sign {sign_txt} "
             f"(i.e. bracket = sign * s * 4(...)); "
             "tabulated reference prints the opposite overall sign -s; ")
    if d >= 2:
        mixed = min(2, d - 1)
        notes += (f"mixed bracket {{psi+_0, psi+_1, psi-_{mixed}}} = "
                  + str(sym3(alg.psi(1, 0), alg.psi(1, 1), alg.psi(-1, mixed))))
    else:
        notes += ("mixed bracket {psi+_0, psi+_1, psi-_2} "
                  "not formed: it needs psi^1, and d = 1")
    return rep.residuals, notes


@pytest.mark.parametrize("d, kappa, sectors, n_para, n_psi", [
    (2, Fraction(1, 2), (0, 1), 0, 0),
    (3, Fraction(1, 2), (0, 1), 0, 0),
    (2, Fraction(1, 3), (0, 1), 98, 16),
    (3, Fraction(1, 3), (0, 1), 222, 42),
    (2, Fraction(1, 2), (0, 1, 2), 935, 16),
    (4, Fraction(1, 2), (0, 1), 0, 0),
    (4, Fraction(1, 3), (0, 1), 396, 80),
    (3, Fraction(1, 2), (0, 1, 2), 2848, 54),
    (4, Fraction(1, 2), (0, 1, 2), 6405, 128),
])
def test_orbit_sweeps_match_ordered_reference(d, kappa, sectors, n_para,
                                              n_psi, monkeypatch):
    """Reducing once per symmetry orbit (and, from d = 3, once per orbit of
    S_{d-1} first) reports, tuple for tuple and in the same order, what the
    ordered sweep reports: on passing algebras and on two corruptions (a
    wrong pairing, three Green sectors)."""
    monkeypatch.setattr(superspace, "GREEN_SECTORS", sectors)
    alg = build(SuperspaceConfig(metric=MetricSignature.minkowski(d),
                                 pairing_kappa=kappa))
    got = [(r.check_id, r.residuals)
           for r in check_parafermion_relations(alg)]
    assert got == _ordered_para_residuals(alg)
    assert sum(len(residuals) for _, residuals in got) == n_para
    psi = check_psi_bracket(alg)
    assert (psi.residuals, psi.notes) == _ordered_psi_bracket(alg)
    assert len(psi.residuals) == n_psi


def _ordered_roby_residuals(alg):
    """Reference for ``check_roby``: ``sym3`` of every unordered triple of
    slot keys, with no pair table."""
    rep = CheckReport("roby", "")
    el = alg._named
    for a, b, c in itertools.combinations_with_replacement(
            alg.coordinate_keys, 3):
        rep.expect_zero((_label(*a), _label(*b), _label(*c)),
                        sym3(el[a], el[b], el[c]))
    return rep.residuals


@pytest.mark.parametrize("d, kappa, sectors, n_roby", [
    (2, Fraction(1, 2), (0, 1), 0),
    (3, Fraction(1, 2), (0, 1), 0),
    (2, Fraction(1, 3), (0, 1), 0),
    (2, Fraction(1, 2), (0, 1, 2), 165),
    (4, Fraction(1, 2), (0, 1), 0),
    (4, Fraction(1, 3), (0, 1), 0),
    (3, Fraction(1, 2), (0, 1, 2), 455),
    (4, Fraction(1, 2), (0, 1, 2), 969),
])
def test_roby_pair_table_matches_ordered_reference(d, kappa, sectors, n_roby,
                                                   monkeypatch):
    """Forming each {u, v} once per call (and, from d = 3, reducing once
    per orbit of S_{d-1} first) reports, triple for triple, what ``sym3``
    per triple reports: on passing algebras, on a wrong pairing and with
    three Green sectors, where every triple fails."""
    monkeypatch.setattr(superspace, "GREEN_SECTORS", sectors)
    alg = build(SuperspaceConfig(metric=MetricSignature.minkowski(d),
                                 pairing_kappa=kappa))
    got = check_roby(alg).residuals
    assert got == _ordered_roby_residuals(alg)
    assert len(got) == n_roby


def _ordered_closure_residuals(alg, weights):
    """Reference for ``closure.leib`` and ``closure.annihilate``: every
    ordered index tuple reduced directly, with no quotient; degree 4 on the
    sample that ``check_closure`` draws with seed 0.  Returns the two
    residual lists."""
    d = alg.dimension
    leib = CheckReport("closure.leib", "")
    for a1, a2, a3 in itertools.product(range(d), repeat=3):
        target = alg.theta(a1) * alg.theta(a2) * alg.theta(a3)
        rhs = Element.zero(alg.system)
        for i, j, k in itertools.permutations((1, 2, 3)):
            rhs = rhs + alg.eps(i, a1) * alg.eps(j, a2) * alg.eps(k, a3)
        leib.expect_zero((a1, a2, a3),
                         alg.ad_V(1, alg.ad_V(2, alg.ad_V(3, target))) - rhs)
    rng = random.Random(0)
    sample = sorted({tuple(rng.randrange(d) for _ in range(4))
                     for _ in range(superspace.DEGREE4_SAMPLES)})
    annihilate = CheckReport("closure.annihilate", "")
    for idx in [idx for degree in (1, 2, 3)
                for idx in itertools.product(range(d), repeat=degree)] + sample:
        target = alg.theta(idx[0])
        for mu in idx[1:]:
            target = target * alg.theta(mu)
        annihilate.expect_zero((len(idx),) + idx,
                               colour_action(alg, weights, target))
    return leib.residuals, annihilate.residuals


def _control_algebra(name, d, monkeypatch):
    """(algebra, colour weights) at dimension d under one named control:
    "none", "kappa=1/3", "p=3", "non-confluent" (the cross-sector pairing,
    construction check skipped), "unit-weights", "spatial-kappa" (kappa =
    1/3 on every spatial pairing d_mu theta^mu, mu >= 1, and 1/2 at mu = 0:
    S_{d-1} stays a symmetry, and every residual has a spatial index) or
    "last-index" (kappa = 1/3 on d_{d-1} theta^{d-1} alone, which breaks
    S_{d-1})."""
    kappa, weights = Fraction(1, 2), col3_weights()
    if name == "kappa=1/3":
        kappa = Fraction(1, 3)
    elif name == "p=3":
        monkeypatch.setattr(superspace, "GREEN_SECTORS", (0, 1, 2))
    elif name == "non-confluent":
        monkeypatch.setattr(superspace, "GeneratorSystem", lambda *args:
                            UncheckedSystem(*cross_sector_pairing(*args)))
    elif name == "unit-weights":
        weights = (ONE,) * 6
    elif name in ("spatial-kappa", "last-index"):
        rewrite = third_pairing_at(lambda d: range(1, d) if name ==
                                   "spatial-kappa" else [d - 1])
        monkeypatch.setattr(superspace, "GeneratorSystem", lambda *args:
                            GeneratorSystem(*rewrite(*args)))
    alg = build(SuperspaceConfig(metric=MetricSignature.minkowski(d),
                                 pairing_kappa=kappa))
    return alg, weights


def _first_appearance_indices(idx):
    """An index tuple with its spatial indices renumbered 1, 2, ... in
    order of first appearance."""
    names = {0: 0}
    return tuple(names.setdefault(mu, len(names)) for mu in idx)


@pytest.mark.parametrize("name", ["none", "kappa=1/3", "p=3", "non-confluent",
                                  "unit-weights", "spatial-kappa",
                                  "last-index"])
@pytest.mark.parametrize("d", [3, 4])
def test_closure_sweeps_match_ordered_reference(d, name, monkeypatch):
    """``closure.leib`` and ``closure.annihilate``, reduced once per orbit
    of S_{d-1} first, report tuple for tuple what the ordered sweep
    reports, on the default algebra and under six controls; the para and
    roby sweeps are compared too under the three rule tables that the
    parametrised orbit tests above cannot build.  Under "spatial-kappa"
    the gate passes and every residual has a spatial index, so these match
    only if the representatives reach the spatial orbits."""
    alg, weights = _control_algebra(name, d, monkeypatch)
    reports = {r.check_id: r.residuals
               for r in check_closure(alg, weights, seed=0)}
    if name == "spatial-kappa":
        assert superspace._spatial_symmetry(alg) and reports["closure.leib"]
    assert (reports["closure.leib"], reports["closure.annihilate"]) == \
        _ordered_closure_residuals(alg, weights)
    if name in ("non-confluent", "spatial-kappa", "last-index"):
        got = [(r.check_id, r.residuals)
               for r in check_parafermion_relations(alg)]
        assert got == _ordered_para_residuals(alg)
        assert check_roby(alg).residuals == _ordered_roby_residuals(alg)


@pytest.mark.parametrize("d", [3, 4])
def test_representatives_meet_every_orbit_once(d):
    """``_representatives`` yields one slot tuple per orbit of (bracket
    symmetry x S_{d-1}) for the para, roby and closure slot lists, against
    orbits found by brute force over all of S_{d-1}."""
    alg = build(SuperspaceConfig(metric=MetricSignature.minkowski(d)))
    perms = {superspace._sorted_slots: list(itertools.permutations(range(3))),
             superspace._ordered_12: [(0, 1, 2), (1, 0, 2)], None: [None]}
    thetas = [(CLS_THETA, mu) for mu in range(d)]
    cases = [([_slot_keys(alg, kind) for kind in pattern], canon)
             for pattern in ("NNN", "NND", "NDN", "NDD", "DDN", "DDD")
             for canon in (superspace._sorted_slots, superspace._ordered_12)]
    cases += [([thetas] * k, None) for k in (1, 2, 3)]
    relabellings = [(0,) + p for p in itertools.permutations(range(1, d))]

    def orbit(t, canon):
        return min(tuple((cls, sigma[mu]) for cls, mu in
                         (t if p is None else [t[i] for i in p]))
                   for p in perms[canon] for sigma in relabellings)

    for slots, canon in cases:
        orbits = {orbit(t, canon) for t in itertools.product(*slots)}
        reps = list(superspace._representatives(slots, canon))
        assert sorted(orbit(t, canon) for t in reps) == sorted(orbits)
        assert set(reps) <= set(itertools.product(*slots))


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_spatial_gate_verdict_on_the_default_algebra(d):
    """The gate passes the default algebra at d = 3..5, and is closed at
    d <= 2, where S_{d-1} is trivial; the verdict is kept on the algebra."""
    alg = build(SuperspaceConfig(metric=MetricSignature.minkowski(d)))
    assert superspace._spatial_symmetry(alg) is (d >= 3)
    assert alg._cache[("spatial",)] is (d >= 3)


@pytest.mark.parametrize("d", [3, 4])
def test_spatial_gate_refuses_a_rule_table_that_singles_out_an_index(
        d, monkeypatch):
    """With kappa = 1/3 on d_{d-1} theta^{d-1} alone the gate refuses, and
    the closure, para and roby sweeps report what the ordered sweeps
    report (``test_closure_sweeps_match_ordered_reference``), including
    residuals whose first-appearance representative is zero.  The gate is
    load-bearing: forced open at d = 4, the quotient misses residuals."""
    alg, weights = _control_algebra("last-index", d, monkeypatch)
    assert not superspace._spatial_symmetry(alg)
    leib, _ = _ordered_closure_residuals(alg, weights)
    failing = {tuple(r["indices"]) for r in leib}
    assert any(_first_appearance_indices(idx) not in failing
               for idx in failing)
    if d == 4:
        monkeypatch.setattr(superspace, "_spatial_symmetry", lambda alg: True)
        got = [(r.check_id, r.residuals)
               for r in check_parafermion_relations(alg)]
        assert got != _ordered_para_residuals(alg)


def test_spatial_gate_checks_V():
    """The gate maps each V_i too: with the mu = d - 1 term [eps_1, d]
    dropped from V_1 alone, the rule table is still symmetric, and the
    gate refuses."""
    alg = build(SuperspaceConfig(metric=MetricSignature.minkowski(3)))
    alg._cache[("V", 1)] = alg.V(1) - commutator(alg.eps(1, 2), alg.d(2))
    assert not superspace._spatial_symmetry(alg)


def test_reversed_J_control(monkeypatch):
    """J_{mu nu} negated (the reversed orientation) fails at d = 3 exactly
    the checks that read J's orientation against the cubic Poincare table;
    at d = 2 there is one L pair, so poincare.LL cannot fail there."""
    J = superspace.SuperspaceAlgebra.J
    monkeypatch.setattr(superspace.SuperspaceAlgebra, "J",
                        lambda self, mu, nu: -J(self, mu, nu))
    reports = run_suite(SuiteSpec("all", dimension=3))
    assert {r.check_id: len(r.residuals) for r in reports if not r.passed} \
        == {"poincare.LL": 6, "poincare.Jtheta": 6, "order3.superspace": 9}


def test_d_eps1_control_fails_trans_eps(monkeypatch, corrupted_d2_runs):
    """Each d_mu component contracted with eps1^mu of its own sector makes
    [V_i, eps1^a] nonzero: ``trans.eps`` fails with 6 residuals at d = 2
    and, where S_{d-1} is live and the sweeps fall back, 9 at d = 3."""
    _, reports = corrupted_d2_runs["d-eps1"]
    failed = {r.check_id: len(r.residuals) for r in reports if not r.passed}
    assert failed["trans.eps"] == 6
    monkeypatch.setattr(superspace, "GeneratorSystem",
                        lambda *args: GeneratorSystem(*eps1_pairing(*args)))
    reports = run_suite(SuiteSpec("all", dimension=3))
    assert {r.check_id: len(r.residuals) for r in reports if not r.passed} \
        == {"para1.2": 72, "para1.3": 39, "para1.4": 9, "para1.5": 12,
            "para.2": 75, "para.3": 15, "trans.eps": 9,
            "closure.annihilate": 29, "closure.deltax": 3,
            "closure.symmetric": 8}


def _counted_commutator(monkeypatch):
    """Route every ``commutator`` of superspace and order3 through one
    counter; returns the list of first arguments, one per call."""
    firsts = []

    def counted(a, b):
        firsts.append(a)
        return commutator(a, b)
    for module in (superspace, order3):
        monkeypatch.setattr(module, "commutator", counted)
    return firsts


def test_poincare_job_forms_each_bracket_once(monkeypatch):
    """``poincare.*`` and ``order3.superspace`` read one bracket table: at
    d = 3 the job forms 9 [L, L], 9 [L, P], 3 [P, P], 9 [J, theta],
    9 [P, theta] and 3 [J, theta-scalar] commutators, 42 in all, and
    ``order3.superspace`` adds none of its own."""
    firsts = _counted_commutator(monkeypatch)
    assert all(r.passed for r in run_suite(SuiteSpec("poincare", dimension=3)))
    assert len(firsts) == 42


def test_V_brackets_come_from_the_ad_V_rows(monkeypatch):
    """Over ``--suite all`` at d = 3, [V_i, g] is formed only by the row
    builder of ``ad_V``: one commutator on V_i per row of its table, so
    ``trans`` and ``closure`` share the rows."""
    firsts = _counted_commutator(monkeypatch)
    built = []
    monkeypatch.setattr(suites, "build",
                        lambda config: built.append(build(config)) or built[-1])
    assert all(r.passed for r in run_suite(SuiteSpec("all", dimension=3)))
    alg = built[0]  # the run's algebra; ``check_engine`` builds its own
    V = [alg._cache[("V", i)] for i in (1, 2, 3)]
    rows = sum(len(alg._cache[("adV", i)]) for i in (1, 2, 3))
    assert rows and sum(any(a is v for v in V) for a in firsts) == rows


def test_colour_action_matches_nested_sum(alg2):
    """``colour_action`` (grouped by the leading V_i) equals the direct sum
    of w * [V_i, [V_j, [V_k, t]]] over the six orderings, on theta monomials
    of degree 1-3 and on x^alpha at d = 2, with the paper weights and with
    random weights that include a zero; no zero coefficient is stored."""
    rng = random.Random(47)
    weight_sets = [col3_weights()]
    for _ in range(2):
        ws = [Cyclo(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(6)]
        ws[rng.randrange(6)] = ZERO
        weight_sets.append(tuple(ws))
    targets = [alg2.x(alpha) for alpha in range(2)]
    for degree in (1, 2, 3):
        for idx in itertools.product(range(2), repeat=degree):
            target = alg2.theta(idx[0])
            for mu in idx[1:]:
                target = target * alg2.theta(mu)
            targets.append(target)
    nonzero = 0
    for weights in weight_sets:
        for target in targets:
            want = Element.zero(alg2.system)
            for (i, j, k), w in zip(TERNARY_ORDERINGS, weights):
                ops = [alg2.V(i + 1), alg2.V(j + 1), alg2.V(k + 1)]
                want = want + nested_action(ops, target).scale(w)
            got = colour_action(alg2, weights, target)
            assert got == want, str(target)
            assert all(got.terms.values())
            nonzero += bool(got)
    # three nested actions kill every theta monomial of degree < 3, and the
    # paper weights kill degree 3 too; so the comparison is carried by
    # x^alpha (2 per weight set) and by 4 degree-3 monomials per random set
    assert nonzero == 2 * 3 + 4 * 2


def _spatial_generators(d):
    """The transposition (1 2) and the cycle (1 ... d-1) of the spatial
    indices, as index maps: the two generators of S_{d-1}."""
    return [(0, 2, 1) + tuple(range(3, d)), (0,) + tuple(range(2, d)) + (1,)]


def _spatial_action(alg, sigma):
    """The action of the index map ``sigma`` on elements: each generator of
    (cls, mu) goes to the generator of (cls, sigma[mu]) in its Green
    sector, and the mapped words are normal formed again."""
    image = {}
    for (cls, mu), ids in alg.components.items():
        image.update(zip(ids, alg.components[(cls, sigma[mu])]))
    return lambda e: Element(alg.system, {tuple(image[g] for g in w): c
                                          for w, c in e.terms.items()})


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_expected_sides_have_the_bracket_symmetry(d):
    """The right-hand sides obey the symmetry the orbit quotient relies on:
    ``_expected_sym`` is invariant under every permutation of its slots,
    ``_expected_double`` is antisymmetric in slots 1-2 for every triple of
    slot keys (the double families order slots 1-2 whatever their kinds),
    and the psi right-hand side is symmetric in (mu, nu, rho).  From
    d = 3, ``_expected_sym``, ``_expected_double``, the ``closure.leib``
    right-hand side ``_expected_leib``, the ``trans`` targets eps(i, a)
    and delta_x(i, a), the eta sides of ``poincare.LL`` (``_expected_LL``),
    ``poincare.LP`` and ``poincare.Jtheta`` (``_rotated``) and
    ``_psi_base`` are also covariant under both generators of S_{d-1}:
    each maps the side at a tuple to the side at the mapped tuple."""
    alg = build(SuperspaceConfig(metric=MetricSignature.minkowski(d)))
    choices = _slot_keys(alg, "N") + _slot_keys(alg, "D")
    for triple in itertools.product(choices, repeat=3):
        want = _expected_sym(alg, *triple)
        for perm in itertools.permutations(triple):
            assert _expected_sym(alg, *perm) == want
        a, b, c = triple
        assert _expected_double(alg, a, b, c) == \
            -_expected_double(alg, b, a, c)
    for s in (1, -1):
        for idx in itertools.product(range(d), repeat=3):
            want = _psi_base(alg, s, *idx)
            for perm in itertools.permutations(idx):
                assert _psi_base(alg, s, *perm) == want
    for sigma in _spatial_generators(d) if d >= 3 else ():
        act = _spatial_action(alg, sigma)
        for triple in itertools.product(choices, repeat=3):
            mapped = [(cls, sigma[mu]) for cls, mu in triple]
            for side in (_expected_sym, _expected_double):
                assert act(side(alg, *triple)) == side(alg, *mapped)
        for idx in itertools.product(range(d), repeat=3):
            mapped = [sigma[mu] for mu in idx]
            assert act(_expected_leib(alg, *idx)) == \
                _expected_leib(alg, *mapped)
            for vector in (alg.P, alg.theta_lower):
                assert act(_rotated(alg, vector, *idx)) == \
                    _rotated(alg, vector, *mapped)
            for s in (1, -1):
                assert act(_psi_base(alg, s, *idx)) == \
                    _psi_base(alg, s, *mapped)
        for idx in itertools.product(range(d), repeat=4):
            assert act(_expected_LL(alg, *idx)) == \
                _expected_LL(alg, *(sigma[mu] for mu in idx))
        for i, a in itertools.product((1, 2, 3), range(d)):
            for target in (alg.eps, alg.delta_x):
                assert act(target(i, a)) == target(i, sigma[a])


def test_roby(alg2):
    _all_pass([check_roby(alg2)])


def test_roby_instance_count(alg2):
    # 7 coordinate-type names at d=2 -> C(9,3) unordered triples with
    # repetition; every one reduces to zero
    names = alg2.coordinate_keys
    assert len(names) == 1 + 2 + 3 * 2


def test_poincare(alg2):
    _all_pass(check_poincare_realisation(alg2, poincare_brackets(alg2)))


def test_lorentz_orientation(alg2):
    # [J_{01}, theta_1] = eta_{11} theta_0
    lhs = commutator(alg2.J(0, 1), alg2.theta_lower(1))
    assert lhs == alg2.theta_lower(0).scale(alg2.eta[1])


def test_psi_bracket(alg2):
    rep = check_psi_bracket(alg2)
    assert rep.passed, rep.residuals[:2]
    assert "computed global sign +1" in rep.notes
    # at d = 2 the mixed bracket takes psi-_1, and its label says so
    assert "mixed bracket {psi+_0, psi+_1, psi-_1} = 0" in rep.notes


def test_transformation(alg2):
    _all_pass(check_superspace_transformation(alg2))


def test_transformation_spot_checks(alg2):
    assert commutator(alg2.V(1), alg2.theta(0)) == alg2.eps(1, 0)
    assert commutator(alg2.V(2), alg2.x(1)) == alg2.delta_x(2, 1)
    assert not commutator(alg2.V(1), alg2.eps(3, 0))


def test_ad_V_matches_commutator():
    """Differential test of the Leibniz expansion in ``ad_V`` against
    V*e - e*V at d = 3, over words from every generator class."""
    alg = build(SuperspaceConfig(metric=MetricSignature.minkowski(3)))
    ids = alg.components
    pool = [ids[(cls, mu)][g] for cls in (CLS_THETA, CLS_DEL)
            for mu in (0, 1) for g in (0, 1)]
    pool += [ids[(cls, 0)][g] for cls in (CLS_THETA_SC,) + CLS_EPS
             for g in (0, 1)]
    pool += [ids[(cls, mu)][0] for cls in (CLS_X, CLS_P) for mu in (0, 1)]
    rng = random.Random(41)
    elements = [Element.zero(alg.system), Element.scalar(alg.system, Q)]
    elements += [random_element(alg.system, rng, pool, max_degree=5, n_terms=3)
                 for _ in range(40)]
    for i in (1, 2, 3):
        for e in elements:
            assert alg.ad_V(i, e) == commutator(alg.V(i), e), (i, str(e))


@pytest.mark.parametrize("d", (1, 2, 3))
@pytest.mark.parametrize("kappa", (Fraction(1, 2), Fraction(1, 3)))
def test_composite_symbols_match_term_by_term_sums(d, kappa):
    """J, L, V, delta-x and the quartic shapes, each one sum_of_products
    call, equal the same sums built one product and one partial sum at a
    time, with every commutator spelled a * b - b * a."""
    alg = build(SuperspaceConfig(metric=MetricSignature.minkowski(d),
                                 pairing_kappa=kappa))
    zero = Element.zero(alg.system)
    th = alg.theta_scalar()

    def comm(a, b):
        return a * b - b * a

    def delta_x(i, alpha):
        out = zero
        for mu in range(d):
            out = out + (comm(th, alg.theta(mu))
                         * comm(alg.eps(i, alpha), alg.theta_lower(mu)))
        return out

    for mu, nu in itertools.product(range(d), repeat=2):
        J = (comm(alg.theta_lower(mu), alg.d(nu))
             - comm(alg.theta_lower(nu), alg.d(mu)))
        assert alg.J(mu, nu) == J
        orbital = (alg.x_lower(mu) * alg.P(nu)
                   - alg.x_lower(nu) * alg.P(mu))
        assert alg.lorentz(mu, nu) == orbital + J
    for i in (1, 2, 3):
        V = zero
        for mu in range(d):
            V = (V + comm(alg.eps(i, mu), alg.d(mu))
                 + delta_x(i, mu) * alg.P(mu))
        assert V and alg.V(i) == V
        for alpha in range(d):
            assert alg.delta_x(i, alpha) == delta_x(i, alpha)
    for (j, k, l), alpha in itertools.product(REALISED_QUARTIC_COEFFS,
                                              range(d)):
        shape = zero
        for mu in range(d):
            shape = shape + (comm(th, alg.eps(j, mu))
                             * comm(alg.eps(k, alpha), alg.eps_lower(l, mu)))
        assert shape and superspace._quartic_shape(alg, j, k, l, alpha) == shape


def test_V_without_vector_indices_is_zero():
    alg = build(SuperspaceConfig(metric=MetricSignature(0, ())))
    assert not alg.V(1)


def test_closure(alg2):
    reports = check_closure(alg2, col3_weights(), seed=0)
    _all_pass(reports)
    by_id = {r.check_id: r for r in reports}
    assert "multiset matches" in by_id["closure.deltax"].notes


def test_realised_quartic_coefficients_pair_differently():
    """The notes of ``closure.deltax`` state a fact about two constants:
    the realised coefficients have the reference multiset
    {-1, -1, -q, -q, -q^2, -q^2} but pair with different quartic shapes."""
    want = sorted(map(str, [-Cyclo(1), -Cyclo(1), -Q, -Q, -Q * Q, -Q * Q]))
    for coeffs in (REALISED_QUARTIC_COEFFS, REFERENCE_QUARTIC_COEFFS):
        assert sorted(map(str, coeffs.values())) == want
    assert set(REALISED_QUARTIC_COEFFS) == set(REFERENCE_QUARTIC_COEFFS)
    assert REALISED_QUARTIC_COEFFS != REFERENCE_QUARTIC_COEFFS


def test_dimension_three_smoke():
    alg = build(SuperspaceConfig(metric=MetricSignature.minkowski(3)))
    _all_pass(check_poincare_realisation(alg, poincare_brackets(alg)))


def test_green_order_three_control(corrupted_d2_runs):
    """Three Green sectors instead of two: the trilinear relations, the
    Poincare realisation, the transformations and the closure still hold,
    while the ternary relations that are specific to order two fail with
    these exact residual counts at d = 2.  The matrix oracle follows the
    layout (``oracle.rep.*`` and ``oracle.random.*`` pass), and only its
    order-two probes in ``oracle.zero`` fail."""
    _, reports = corrupted_d2_runs["p=3"]
    failed = {r.check_id: len(r.residuals) for r in reports if not r.passed}
    assert failed == {"para.1": 729, "para.2": 162, "para.3": 36,
                      "para.4": 8, "roby": 165, "psi.bracket": 16,
                      "oracle.zero": 3}
    assert len(reports) == 55


def test_px_and_unit_weight_controls(corrupted_d2_runs):
    """A negated P x contraction fails the x/P sector (and the
    structure-table cross-check that reads [L, P]); unit colour weights
    fail the weight check and both colour-bracket closure checks.  Both
    with these exact residual counts at d = 2."""
    for name, want in (
            ("Px=-1", {"poincare.LP": 2, "trans.x": 6,
                       "order3.superspace": 2, "closure.deltax": 2}),
            ("unit-weights", {"colour.weights": 2, "closure.annihilate": 5,
                              "closure.deltax": 4})):
        _, reports = corrupted_d2_runs[name]
        assert {r.check_id: len(r.residuals)
                for r in reports if not r.passed} == want, name


# check ID -> the corruptions of ``corrupted_d2_runs`` that fail it at d = 2
CONTROLS = {
    "engine.confluence": {"non-confluent"}, "engine.star": {"non-confluent"},
    "para1.2": {"kappa=1/3", "non-confluent", "d-eps1"},
    "para1.3": {"kappa=1/3", "non-confluent", "d-eps1"},
    "para1.4": {"kappa=1/3", "non-confluent", "d-eps1"},
    "para1.5": {"kappa=1/3", "non-confluent", "d-eps1"},
    "para.1": {"p=3"},
    "para.2": {"kappa=1/3", "p=3", "non-confluent", "d-eps1"},
    "para.3": {"kappa=1/3", "p=3", "non-confluent", "d-eps1"},
    "para.4": {"p=3"}, "roby": {"p=3"},
    "poincare.Jtheta": {"kappa=1/3", "non-confluent"},
    "poincare.LP": {"Px=-1"},
    "order3.superspace": {"kappa=1/3", "Px=-1", "non-confluent"},
    "colour.weights": {"unit-weights"},
    "trans.theta": {"kappa=1/3", "non-confluent"}, "trans.x": {"Px=-1"},
    "trans.eps": {"d-eps1"},
    "psi.bracket": {"kappa=1/3", "p=3", "non-confluent"},
    "closure.leib": {"kappa=1/3", "non-confluent"},
    "closure.annihilate": {"unit-weights", "non-confluent", "d-eps1"},
    "closure.deltax": {"kappa=1/3", "Px=-1", "unit-weights", "d-eps1"},
    "closure.symmetric": {"non-confluent", "d-eps1"},
    "oracle.zero": {"kappa=1/3", "p=3", "non-confluent", "no-JW",
                    "cross-sector-JW"},
} | {f"oracle.{kind}.{sub}": want for kind in ("rep", "random")
     for sub, want in (
         ("th0", {"cross-sector-JW"}),
         ("th0-d0", {"non-confluent", "cross-sector-JW"}),
         ("sc-th0-d0", {"non-confluent", "no-JW", "cross-sector-JW"}),
         ("e1-e2-e3", {"no-JW", "cross-sector-JW"}),
         ("th0-th1", {"no-JW", "cross-sector-JW"}),
         ("th0-e1", {"no-JW", "cross-sector-JW"}),
         ("th0-th1-d1", {"non-confluent", "no-JW", "cross-sector-JW"}))}

# check IDs that no corruption fails: no suite-wide control shows yet
# that they can fail.  A new corruption shrinks this list; loosening a
# check never may.  (order3.* and colour.axioms have table-level
# corruption tests of their own in test_order3.py and test_colour.py.)
NO_CONTROL_YET = {
    "arith.root", "arith.ring", "arith.conj", "arith.division",
    "engine.idempotent", "engine.sym3",
    "para1.1", "para1.6",
    "poincare.LL", "poincare.PP", "poincare.Ptheta",
    "order3.jacobi", "order3.rep", "order3.equivariance", "order3.fi",
    "colour.axioms",
    "trans.deltax",
}


def test_control_matrix(corrupted_d2_runs):
    """Pin, for every check ID of ``--suite all`` at d = 2, the set of
    corruptions that fail it."""
    failing = {}
    for name, (_, reports) in corrupted_d2_runs.items():
        for r in reports:
            failing.setdefault(r.check_id, set())
            if not r.passed:
                failing[r.check_id].add(name)
    assert {cid: s for cid, s in failing.items() if s} == CONTROLS
    assert {cid for cid, s in failing.items() if not s} == NO_CONTROL_YET
    assert len(failing) == 55
