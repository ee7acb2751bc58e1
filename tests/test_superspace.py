"""Parafermionic relation families, realised symmetry generators and the
transformation checks, at the small dimension where everything is fast."""

import gc
import itertools
import random
from fractions import Fraction

import pytest

from conftest import (B00_FORM, TABLE_EDITS, UncheckedSystem,
                      cross_sector_pairing, d_d_pairing, edited_tables,
                      eps1_pairing, theta_eps1_pairing, third_pairing_at,
                      xp_odd, xp_theta_odd)
from ternalg import colour, dsl, order3, suites, superspace
from ternalg.algebra import (TERNARY_ORDERINGS, Element, GeneratorSystem,
                             anticommutator, commutator, nested_action,
                             random_element, sym3)
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
                                _expected_LL, _expected_quartic,
                                _expected_sym, _label,
                                _psi_base, _rotated, build,
                                check_closure, check_parafermion_relations,
                                check_poincare_realisation, check_psi_bracket,
                                check_roby, check_superspace_transformation,
                                colour_action, nested_actions,
                                poincare_brackets)


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


# (d, kappa, Green sectors): (para residuals, psi residuals)
ORBIT_SWEEP_RESIDUALS = {
    (2, Fraction(1, 2), (0, 1)): (0, 0),
    (3, Fraction(1, 2), (0, 1)): (0, 0),
    (2, Fraction(1, 3), (0, 1)): (98, 16),
    (3, Fraction(1, 3), (0, 1)): (222, 42),
    (2, Fraction(1, 2), (0, 1, 2)): (935, 16),
    (4, Fraction(1, 2), (0, 1)): (0, 0),
    (4, Fraction(1, 3), (0, 1)): (396, 80),
    (3, Fraction(1, 2), (0, 1, 2)): (2848, 54),
    (4, Fraction(1, 2), (0, 1, 2)): (6405, 128),
}


@pytest.mark.parametrize("d, kappa, sectors", list(ORBIT_SWEEP_RESIDUALS),
                         ids=[f"{d}-kappa{k.numerator}_{k.denominator}"
                              f"-p{len(s)}" for d, k, s in
                              ORBIT_SWEEP_RESIDUALS])
def test_orbit_sweeps_match_ordered_reference(d, kappa, sectors,
                                              monkeypatch):
    """Reducing once per symmetry orbit (and, from d = 3, once per orbit of
    S_{d-1} first) reports, tuple for tuple and in the same order, what the
    ordered sweep reports: on passing algebras and on two corruptions (a
    wrong pairing, three Green sectors), with the residual counts pinned in
    ``ORBIT_SWEEP_RESIDUALS``."""
    n_para, n_psi = ORBIT_SWEEP_RESIDUALS[d, kappa, sectors]
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


# (d, kappa, Green sectors): roby residuals
ROBY_RESIDUALS = {
    (2, Fraction(1, 2), (0, 1)): 0,
    (3, Fraction(1, 2), (0, 1)): 0,
    (2, Fraction(1, 3), (0, 1)): 0,
    (2, Fraction(1, 2), (0, 1, 2)): 165,
    (4, Fraction(1, 2), (0, 1)): 0,
    (4, Fraction(1, 3), (0, 1)): 0,
    (3, Fraction(1, 2), (0, 1, 2)): 455,
    (4, Fraction(1, 2), (0, 1, 2)): 969,
}


@pytest.mark.parametrize("d, kappa, sectors", list(ROBY_RESIDUALS),
                         ids=[f"{d}-kappa{k.numerator}_{k.denominator}"
                              f"-p{len(s)}" for d, k, s in ROBY_RESIDUALS])
def test_roby_pair_table_matches_ordered_reference(d, kappa, sectors,
                                                   monkeypatch):
    """Forming each {u, v} once per call (and, from d = 3, reducing once
    per orbit of S_{d-1} first) reports, triple for triple, what ``sym3``
    per triple reports: on passing algebras, on a wrong pairing and with
    three Green sectors, where every triple fails; the residual counts are
    pinned in ``ROBY_RESIDUALS``."""
    monkeypatch.setattr(superspace, "GREEN_SECTORS", sectors)
    alg = build(SuperspaceConfig(metric=MetricSignature.minkowski(d),
                                 pairing_kappa=kappa))
    got = check_roby(alg).residuals
    assert got == _ordered_roby_residuals(alg)
    assert len(got) == ROBY_RESIDUALS[d, kappa, sectors]


@pytest.mark.parametrize("d", [2, 3])
def test_roby_is_para1_on_sorted_triples(d, monkeypatch):
    """With three Green sectors, where every triple fails, ``roby``'s
    residuals are ``para.1``'s restricted to non-decreasing slot triples:
    one identity on the same names.  The counts are those pinned in
    ``ROBY_RESIDUALS``."""
    monkeypatch.setattr(superspace, "GREEN_SECTORS", (0, 1, 2))
    alg = build(SuperspaceConfig(metric=MetricSignature.minkowski(d)))
    para1 = {r.check_id: r for r in check_parafermion_relations(alg)}["para.1"]
    names = {label: key for key, label in alg.labels.items()}
    sorted_triples = [r for r in para1.residuals
                      if sorted(r["indices"], key=names.get) == r["indices"]]
    roby = check_roby(alg).residuals
    assert roby == sorted_triples
    assert len(roby) == ROBY_RESIDUALS[d, Fraction(1, 2), (0, 1, 2)]


def _ordered_closure_residuals(alg, weights):
    """Reference for the four ``closure.*`` checks: every ordered index
    tuple of degree 1..3, every alpha and every lemma row (j, k, mu)
    reduced directly, with no quotient, pair table or ``nested_actions``
    memo.  Returns {check ID: residuals}."""
    d = alg.dimension
    reps = {cid: CheckReport(cid, "") for cid in (
        "closure.leib", "closure.annihilate", "closure.deltax",
        "closure.symmetric")}
    for a1, a2, a3 in itertools.product(range(d), repeat=3):
        target = alg.theta(a1) * alg.theta(a2) * alg.theta(a3)
        rhs = Element.zero(alg.system)
        for i, j, k in itertools.permutations((1, 2, 3)):
            rhs = rhs + alg.eps(i, a1) * alg.eps(j, a2) * alg.eps(k, a3)
        reps["closure.leib"].expect_zero(
            (a1, a2, a3), alg.ad_V(1, alg.ad_V(2, alg.ad_V(3, target))) - rhs)
    for degree in (1, 2, 3):
        for idx in itertools.product(range(d), repeat=degree):
            target = alg.theta(idx[0])
            for mu in idx[1:]:
                target = target * alg.theta(mu)
            reps["closure.annihilate"].expect_zero((degree,) + idx, colour_action(
                alg, weights, nested_actions(alg, target)))
    th = alg.theta_scalar()
    for alpha in range(d):
        bracket = colour_action(alg, weights, nested_actions(alg, alg.x(alpha)))
        shapes = Element.zero(alg.system)
        for ((j, k, l), coeff), mu in itertools.product(
                REALISED_QUARTIC_COEFFS.items(), range(d)):
            shapes = shapes + (commutator(th, alg.eps(j, mu)) * commutator(
                alg.eps(k, alpha), alg.eps(l, mu))).scale(coeff * alg.eta[mu])
        reps["closure.deltax"].expect_zero((alpha,), bracket - shapes)
        if bracket.star() == bracket:
            reps["closure.deltax"].add_residual(
                ("star", alpha), "colour bracket on x^alpha is star-fixed; "
                "expected a genuinely complex element")
    for probe in [p for p in ((0, 0, 1), (0, 1, 2), (1, 2, 3)) if max(p) < d]:
        target = alg.theta(probe[0]) * alg.theta(probe[1]) * alg.theta(probe[2])
        for i, j, k in itertools.permutations((1, 2, 3)):
            reps["closure.symmetric"].expect_zero(probe, nested_action(
                [alg.V(i), alg.V(j), alg.V(k)], target) - nested_action(
                [alg.V(1), alg.V(2), alg.V(3)], target))
    for j, k, mu in itertools.product((1, 2, 3), (1, 2, 3), range(d)):
        reps["closure.symmetric"].expect_zero(
            ("lemma", j, k, mu), alg.ad_V(j, alg.ad_V(k, alg.theta(mu))))
    return {cid: rep.residuals for cid, rep in reps.items()}


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


# control -> the ``closure.*`` checks it fails at d = 3 and 4
CLOSURE_FAILS = {
    "none": set(), "p=3": set(),
    "kappa=1/3": {"closure.leib", "closure.deltax"},
    "non-confluent": {"closure.leib", "closure.annihilate",
                      "closure.symmetric"},
    "unit-weights": {"closure.annihilate", "closure.deltax"},
    "spatial-kappa": {"closure.leib", "closure.deltax"},
    "last-index": {"closure.leib", "closure.deltax"},
}


@pytest.mark.parametrize("name", sorted(CLOSURE_FAILS))
@pytest.mark.parametrize("d", [3, 4])
def test_closure_sweeps_match_ordered_reference(d, name, monkeypatch):
    """The four ``closure.*`` checks, reduced once per orbit of S_{d-1}
    first (the theta tuples, alpha and the lemma rows; not the three
    probes), report tuple for tuple what the ordered sweep reports, on the
    default algebra and under six controls, each failing the checks in
    ``CLOSURE_FAILS``; the para and roby sweeps are compared too under the
    three rule tables that the parametrised orbit tests above cannot
    build.  Under "spatial-kappa" the gate passes and every residual has a
    spatial index, so these match only if the representatives reach the
    spatial orbits."""
    alg, weights = _control_algebra(name, d, monkeypatch)
    reports = {r.check_id: r.residuals
               for r in check_closure(alg, weights)}
    if name == "spatial-kappa":
        assert superspace._spatial_symmetry(alg)
    assert reports == _ordered_closure_residuals(alg, weights)
    assert {cid for cid, residuals in reports.items() if residuals} == \
        CLOSURE_FAILS[name]
    if name in ("non-confluent", "spatial-kappa", "last-index"):
        got = [(r.check_id, r.residuals)
               for r in check_parafermion_relations(alg)]
        assert got == _ordered_para_residuals(alg)
        assert check_roby(alg).residuals == _ordered_roby_residuals(alg)


def _free_keys(alg):
    """The free keys F in layout order: theta and every eps_i^mu."""
    return [key for key in alg.coordinate_keys if key[0] != CLS_THETA]


def _name_generators(alg):
    """The transposition (f_0 f_1) and the cycle (f_0 ... f_{n-1}) of the
    free keys, as key maps: the two generators of Sym(F)."""
    free = _free_keys(alg)
    swap = dict(zip(free[:2], free[1::-1]))
    cycle = dict(zip(free, free[1:] + free[:1]))
    return [lambda key, move=move: move.get(key, key)
            for move in (swap, cycle)]


def _index_generators(d):
    """The generators of S_{d-1} as key maps that move the spatial indices
    of theta^mu and d_mu only (they commute with Sym(F))."""
    return [lambda key, sigma=sigma: (key[0], sigma[key[1]])
            if key[0] in (CLS_THETA, CLS_DEL) else key
            for sigma in (_spatial_generators(d) if d >= 3 else ())]


def _orbit_roots(universe, slots, moves):
    """{tuple: orbit root} over ``product(*slots)``, by union-find under
    ``moves`` on keys over every tuple of ``product(*universe)``."""
    root = {}

    def find(t):
        while root.setdefault(t, t) != t:
            t = root[t]
        return t
    for t in itertools.product(*universe):
        for image in [tuple(map(move, t)) for move in moves]:
            root[find(image)] = find(t)
    return {t: find(t) for t in itertools.product(*slots)}


def _sorted_index_moves(d):
    """The generators of S_{d-1} on tagged slot keys: every index after the
    tag is mapped, and an index pair is re-sorted."""
    def move(key, sigma):
        indices = [sigma[mu] for mu in key[1:]]
        return key[0], *(sorted(indices) if len(indices) == 2 else indices)
    return [lambda key, sigma=sigma: move(key, sigma)
            for sigma in _spatial_generators(d)]


def _tagged_slot_lists(d):
    """name -> slot lists of the poincare, psi and trans sweeps at d."""
    pairs = list(itertools.combinations(range(d), 2))
    L, J, PP = ([(tag, *p) for p in pairs] for tag in ("lorentz", "J", "P"))
    P, lower, theta = ([(tag, rho) for rho in range(d)]
                       for tag in ("P", "theta_lower", "theta"))
    return {"[L, L]": [L, L], "[L, P]": [L, P], "[J, theta_lower]":
            [J, lower], "[P, P]": [PP], "[P, theta]": [P, theta],
            "[J, theta]": [J, [("theta_scalar",)]],
            "(s, mu)": [[(-1, mu) for mu in range(d)]] * 3,
            "(None, alpha)": [[(None, a) for a in range(d)]]}


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
def test_first_appearance_meets_every_orbit_once(d):
    """``_first_appearance`` yields one slot tuple per orbit of Sym(F) x
    S_{d-1} for the para, roby and closure slot lists (at d <= 4), at the
    group that ``_sweep`` passes it (Sym(F) only where a slot holds a free
    key, S_{d-1} only from d = 3; at d <= 2 closure has the trivial group,
    whose orbits are single tuples), in product order, against orbits
    found by brute force: the connected components of the tuples under the
    generators of each factor.  From d = 3 it yields at least one tuple
    per S_{d-1} orbit for the tagged slot lists of the poincare, psi and
    trans sweeps, where S_{d-1} maps every index after a key's tag and
    re-sorts an index pair: [L, L] at d = 5 yields 11 tuples for 9
    orbits."""
    alg = build(SuperspaceConfig(metric=MetricSignature.minkowski(d)))
    free = superspace._name_symmetry(alg)
    thetas = [(CLS_THETA, mu) for mu in range(d)]
    cases = [[_slot_keys(alg, kind) for kind in pattern]
             for pattern in ("NNN", "NND", "NDN", "NDD", "DDN", "DDD")]
    cases += [[thetas] * k for k in (1, 2, 3)]
    all_keys = _slot_keys(alg, "N") + _slot_keys(alg, "D")
    for slots in cases if d <= 4 else ():
        names = free if any(key in free for keys in slots
                            for key in keys) else {}
        moves = _index_generators(d) + (_name_generators(alg) if names else [])
        orbit = _orbit_roots([all_keys] * len(slots), slots, moves)
        reps = list(superspace._first_appearance(slots, names, d >= 3))
        assert reps == [t for t in itertools.product(*slots) if t in reps]
        assert sorted(orbit[t] for t in reps) == sorted(set(orbit.values()))

    for name, slots in _tagged_slot_lists(d).items() if d >= 3 else ():
        orbit = _orbit_roots(slots, slots, _sorted_index_moves(d))
        reps = list(superspace._first_appearance(slots, {}, True))
        assert reps == [t for t in itertools.product(*slots) if t in reps]
        assert {orbit[t] for t in reps} == set(orbit.values()), name
        if (name, d) == ("[L, L]", 5):
            assert (len(reps), len(set(orbit.values()))) == (11, 9)


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
    leib = _ordered_closure_residuals(alg, weights)["closure.leib"]
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


@pytest.mark.parametrize("name", ["none", "kappa=1/3", "p=3", "non-confluent",
                                  "unit-weights", "spatial-kappa",
                                  "last-index"])
@pytest.mark.parametrize("d", [3, 4, 5])
def test_spatial_gate_matches_a_normal_forming_reference(d, name,
                                                         monkeypatch):
    """The gate compares each mapped V_i term map with V_i's as it stands.
    On the default algebra and under every control, each generator of
    S_{d-1} gets the verdict of the reference that normal-forms the image
    of V_i before it compares (``_key_action``), with the rule table
    checked as before."""
    alg, _ = _control_algebra(name, d, monkeypatch)
    for sigma in _spatial_generators(d):
        def move(key, sigma=sigma):
            return key[0], sigma[key[1]]
        act = _key_action(alg, move)
        assert superspace._is_automorphism(alg, move, True) is (
            superspace._is_automorphism(alg, move, False)
            and all(act(alg.V(i)) == alg.V(i) for i in (1, 2, 3)))


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_name_gate_verdict_on_the_default_algebra(d):
    """The name gate passes the default algebra at every d: it maps the
    1 + 3d free keys, theta and the eps_i^mu, to their places in layout
    order, and the verdict is kept on the algebra."""
    alg = build(SuperspaceConfig(metric=MetricSignature.minkowski(d)))
    free = superspace._name_symmetry(alg)
    assert free == {key: n for n, key in enumerate(_free_keys(alg))}
    assert len(free) == 1 + 3 * d and alg._cache[("names",)] is free


@pytest.mark.parametrize("name, rewrite", [("theta-eps1", theta_eps1_pairing),
                                           ("d-eps1", eps1_pairing)])
@pytest.mark.parametrize("d", [2, 3])
def test_name_gate_refuses_a_rule_table_that_singles_out_a_name(
        d, name, rewrite, monkeypatch):
    """A contraction of eps1^mu alone, with theta^mu or with d_mu, sets
    eps1 apart from the other free keys: the gate refuses, and the para
    and roby sweeps report what the ordered sweeps report.  The gate is
    load-bearing: forced open under "theta-eps1" at d = 2, the quotient
    misses para residuals."""
    free = superspace._name_symmetry(
        build(SuperspaceConfig(metric=MetricSignature.minkowski(d))))
    monkeypatch.setattr(superspace, "GeneratorSystem",
                        lambda *args: GeneratorSystem(*rewrite(*args)))
    alg = build(SuperspaceConfig(metric=MetricSignature.minkowski(d)))
    assert superspace._name_symmetry(alg) == {}
    got = [(r.check_id, r.residuals) for r in check_parafermion_relations(alg)]
    assert got == _ordered_para_residuals(alg)
    assert check_roby(alg).residuals == _ordered_roby_residuals(alg)
    if (name, d) == ("theta-eps1", 2):
        monkeypatch.setattr(superspace, "_name_symmetry", lambda alg: free)
        assert [(r.check_id, r.residuals)
                for r in check_parafermion_relations(alg)] != got


def test_para_and_roby_form_one_bracket_per_orbit_at_d2(monkeypatch):
    """At d = 2, where S_{d-1} is trivial and Sym(F) is the only quotient,
    each para family and roby forms these many brackets ([u, v], {u, v},
    [[u, v], w] and {u, v, w}, counted per sweep): 163 over the ten para
    families and 27 for roby, where sweeping every tuple forms 1,133 and
    210."""
    calls = []
    for name in ("commutator", "anticommutator", "sum_of_products"):
        monkeypatch.setattr(superspace, name,
                            lambda *args, bracket=getattr(superspace, name):
                            calls.append(args) or bracket(*args))
    formed = []
    sweep = superspace._sweep

    def counted(*args):
        before = len(calls)
        yield from sweep(*args)
        formed.append(len(calls) - before)
    monkeypatch.setattr(superspace, "_sweep", counted)
    alg = build(SuperspaceConfig(metric=MetricSignature.minkowski(2)))
    _all_pass(check_parafermion_relations(alg) + [check_roby(alg)])
    assert formed == [30, 14, 26, 12, 10, 6, 27, 22, 12, 4, 27]


@pytest.mark.parametrize("d", [2, 3])
def test_sweep_forms_each_value_once(d, monkeypatch):
    """Under kappa = 1/3, where sweeps fall back to every tuple, each
    ``_sweep`` call forms ``value`` at most once per canonical key of its
    bracket symmetry across the quotient pass and the fallback: both read
    one memo.  The 25 sweeps are the ten para families, roby,
    ``closure.leib``, three ``closure.annihilate`` degrees,
    ``closure.deltax`` and nine lemma rows (j, k) of
    ``closure.symmetric``."""
    sweep = superspace._sweep
    formed = []

    def counted(alg, slots, value, *canon):
        keys = []
        formed.append(keys)

        def traced(t):
            keys.append(canon[0](t)[0] if canon else t)
            return value(t)
        yield from sweep(alg, slots, traced, *canon)
    monkeypatch.setattr(superspace, "_sweep", counted)
    alg, weights = _control_algebra("kappa=1/3", d, monkeypatch)
    reports = (check_parafermion_relations(alg) + [check_roby(alg)]
               + check_closure(alg, weights))
    assert not all(r.passed for r in reports) and len(formed) == 25
    assert all(len(keys) == len(set(keys)) for keys in formed)


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
            "closure.annihilate": 27, "closure.deltax": 3,
            "closure.symmetric": 17}


def _ordered_poincare_and_trans_residuals(alg):
    """Reference for the five ``poincare.*`` checks and the four ``trans.*``
    checks: every ordered tuple swept and every bracket formed directly,
    with no quotient, pair table or ``ad_V`` row.  Returns {check ID:
    residuals}."""
    d, eta = alg.dimension, alg.eta
    reps = {cid: CheckReport(cid, "") for cid in (
        "poincare.LL", "poincare.LP", "poincare.Jtheta", "poincare.PP",
        "poincare.Ptheta", "trans.theta", "trans.x", "trans.eps",
        "trans.deltax")}
    pairs = list(itertools.combinations(range(d), 2))
    for (mu, nu), (rho, sigma) in itertools.product(pairs, repeat=2):
        reps["poincare.LL"].expect_zero(
            (mu, nu, rho, sigma),
            commutator(alg.lorentz(mu, nu), alg.lorentz(rho, sigma))
            - _expected_LL(alg, mu, nu, rho, sigma))
    for cid, op, vector in (("poincare.LP", alg.lorentz, alg.P),
                            ("poincare.Jtheta", alg.J, alg.theta_lower)):
        for (mu, nu), rho in itertools.product(pairs, range(d)):
            rhs = (vector(mu).scale(eta[nu] if nu == rho else 0)
                   - vector(nu).scale(eta[mu] if mu == rho else 0))
            reps[cid].expect_zero((mu, nu, rho),
                                  commutator(op(mu, nu), vector(rho)) - rhs)
    for mu, nu in pairs:
        reps["poincare.PP"].expect_zero((mu, nu),
                                        commutator(alg.P(mu), alg.P(nu)))
    for mu, nu in itertools.product(range(d), repeat=2):
        reps["poincare.Ptheta"].expect_zero(
            ("P", mu, nu), commutator(alg.P(mu), alg.theta(nu)))
    for mu, nu in pairs:
        reps["poincare.Ptheta"].expect_zero(
            ("J-scalar", mu, nu), commutator(alg.J(mu, nu), alg.theta_scalar()))
    for i, a in itertools.product((1, 2, 3), range(d)):
        reps["trans.theta"].expect_zero(
            (i, a), commutator(alg.V(i), alg.theta(a)) - alg.eps(i, a))
        reps["trans.x"].expect_zero(
            (i, a), commutator(alg.V(i), alg.x(a)) - alg.delta_x(i, a))
    for i, j, a in itertools.product((1, 2, 3), (1, 2, 3), range(d)):
        reps["trans.eps"].expect_zero((i, j, a),
                                      commutator(alg.V(i), alg.eps(j, a)))
    deltax = reps["trans.deltax"]
    dx = [alg.delta_x(1, a) for a in range(d)]
    for a in range(d):
        deltax.expect_zero(("star", a), dx[a].star() - dx[a])
        for b in range(d):
            deltax.expect_zero(("dxdx", a, b), commutator(dx[a], dx[b]))
        for key in alg.coordinate_keys:
            deltax.expect_zero(("gen", a, alg.labels[key]),
                               commutator(dx[a], alg._named[key]))
    return {cid: rep.residuals for cid, rep in reps.items()}


@pytest.mark.parametrize("name, rewrite, at_d2, at_d3", [
    ("theta-eps1", theta_eps1_pairing,
     {"para1.1": 64, "para1.3": 8, "para.1": 96, "para.2": 8, "roby": 18,
      "trans.theta": 2, "trans.eps": 6, "trans.deltax": 10,
      "closure.leib": 4, "closure.annihilate": 10, "closure.deltax": 2,
      "closure.symmetric": 10},
     {"para1.1": 144, "para1.3": 18, "para.1": 216, "para.2": 18,
      "roby": 39, "trans.theta": 3, "trans.eps": 9, "trans.deltax": 21,
      "closure.leib": 18, "closure.annihilate": 30, "closure.deltax": 3,
      "closure.symmetric": 17}),
    ("d-d", d_d_pairing,
     {"para1.4": 18, "para1.6": 4, "para.3": 18, "para.4": 6,
      "psi.bracket": 12},
     {"para1.4": 78, "para1.6": 18, "para.3": 78, "para.4": 24,
      "poincare.LL": 6, "order3.superspace": 3, "psi.bracket": 48}),
])
def test_unit_pairing_controls(name, rewrite, at_d2, at_d3, monkeypatch,
                               corrupted_d2_runs):
    """theta^mu contracted with eps1^mu fails ``trans.deltax`` (6 of its 21
    residuals at d = 3 are [delta-x, delta-x]) and ``para1.1``; d_mu
    contracted with d_nu fails ``para1.6`` and, from d = 3, where there is
    more than one L pair, ``poincare.LL``.  Both failing sets are pinned at
    d = 2 and 3, and at d = 3 the ``poincare.*`` and ``trans.*`` residual
    lists, read through ``_sweep`` and pair tables, equal every ordered
    bracket formed directly."""
    _, reports = corrupted_d2_runs[name]
    assert {r.check_id: len(r.residuals)
            for r in reports if not r.passed} == at_d2
    monkeypatch.setattr(superspace, "GeneratorSystem",
                        lambda *args: GeneratorSystem(*rewrite(*args)))
    reports = {r.check_id: r for r in run_suite(SuiteSpec("all", dimension=3))}
    assert {cid: len(r.residuals)
            for cid, r in reports.items() if not r.passed} == at_d3
    alg = build(SuperspaceConfig(metric=MetricSignature.minkowski(3)))
    ordered = _ordered_poincare_and_trans_residuals(alg)
    assert {cid: reports[cid].residuals for cid in ordered} == ordered
    if name == "theta-eps1":
        assert sum(r["indices"][0] == "dxdx"
                   for r in reports["trans.deltax"].residuals) == 6


# d -> residuals of ``closure.annihilate`` under a weight set whose sum is
# not zero
ANNIHILATE_FAILS = {2: 4, 3: 18}


@pytest.mark.parametrize("d", sorted(ANNIHILATE_FAILS))
def test_closure_annihilate_sees_only_the_weight_sum(d):
    """``closure.annihilate`` passes under three weight variants whose sum
    is 0 (q and q^2 swapped, w_0 and w_1 swapped, the weights rotated by
    one) and fails, with ``ANNIHILATE_FAILS[d]`` residuals, under unit
    weights and under w_5 = 0; ``closure.deltax`` fails all five.  On
    theta monomials the three nested actions are symmetric in the V labels
    (``closure.symmetric``), so the colour bracket there is (sum of the
    weights) times one nested action: the check tests sum(w) =
    2(1 + q + q^2) = 0."""
    alg = build(SuperspaceConfig(metric=MetricSignature.minkowski(d)))
    w = col3_weights()
    for weights, weight_sum in (
            (tuple(c.conj() for c in w), ZERO),
            ((w[1], w[0]) + w[2:], ZERO), (w[1:] + w[:1], ZERO),
            ((ONE,) * 6, Cyclo(6)), (w[:5] + (ZERO,), -ONE)):
        assert sum(weights, ZERO) == weight_sum
        failed = {r.check_id: len(r.residuals)
                  for r in check_closure(alg, weights) if not r.passed}
        assert failed.pop("closure.deltax")
        assert failed == ({} if weight_sum == ZERO
                          else {"closure.annihilate": ANNIHILATE_FAILS[d]})


def _lemma_rows(reports):
    """The ``("lemma", j, k, mu)`` residuals of ``closure.symmetric``."""
    symmetric = {r.check_id: r for r in reports}["closure.symmetric"]
    return [tuple(r["indices"]) for r in symmetric.residuals
            if r["indices"][0] == "lemma"]


def test_closure_lemma_rows(corrupted_d2_runs):
    """``closure.symmetric`` reads the lemma [V_j, [V_k, theta^mu]] = 0,
    which settles ``closure.annihilate`` at every degree, one row per
    (j, k, mu).  At d = 2 it fails on the 6 rows with k = 1 when eps1^mu
    contracts with d_mu or theta^mu (V_1 reads eps1), on all 18 when x/P
    anticommute with theta^mu/d_mu, and on none under the controls that
    leave [V_k, theta^mu] alone.  It holds on the default algebra at
    d = 1..5, where each double action is also formed directly."""
    want = {"d-eps1": 6, "theta-eps1": 6, "xP-theta-odd": 18, "d-d": 0,
            "non-confluent": 0, "kappa=1/3": 0, "unit-weights": 0}
    rows = {name: _lemma_rows(corrupted_d2_runs[name][1]) for name in want}
    assert {name: len(r) for name, r in rows.items()} == want
    assert rows["d-eps1"] == rows["theta-eps1"] == [
        ("lemma", j, 1, mu) for j in (1, 2, 3) for mu in (0, 1)]
    for d in range(1, 6):
        alg = build(SuperspaceConfig(metric=MetricSignature.minkowski(d)))
        assert _lemma_rows(check_closure(alg, col3_weights())) == []
        assert not any(alg.ad_V(j, alg.ad_V(k, alg.theta(mu)))
                       for j in (1, 2, 3) for k in (1, 2, 3)
                       for mu in range(d))


def _counted_commutator(monkeypatch, *names):
    """Route every ``commutator`` of superspace and order3, and each other
    bracket in ``names`` of superspace, through one counter; returns the
    list of argument pairs (a, b), one per call."""
    calls = []

    def counted(bracket):
        return lambda a, b: calls.append((a, b)) or bracket(a, b)
    for module in (superspace, order3):
        monkeypatch.setattr(module, "commutator", counted(commutator))
    for name in names:
        monkeypatch.setattr(superspace, name, counted(getattr(superspace, name)))
    return calls


def _recorded_pair_tables(monkeypatch):
    """Route every ``_pair_table`` through a recorder; returns the list of
    (sign, formed) per table, ``formed`` the (u, v) of each bracket that
    the table formed, in order."""
    tables = []
    pair_table = superspace._pair_table

    def recorded(element, sign):
        formed, keys = [], []
        tables.append((sign, formed))
        inner = pair_table(lambda key: keys.append(key) or element(key), sign)

        def recording(u, v):  # forming a bracket names u, then v
            keys.clear()
            value = inner(u, v)
            if len(keys) == 2:
                formed.append(tuple(keys))
            return value
        return recording
    monkeypatch.setattr(superspace, "_pair_table", recorded)
    return tables


def test_poincare_job_forms_each_bracket_once(monkeypatch):
    """``poincare.*`` and ``order3.superspace`` read one bracket table that
    forms each unordered pair of distinct keys at most once, and forms no
    other commutator once V is built (from d = 3 the spatial gate of
    ``_sweep`` reads V_1..V_3).  At d = 3 it forms 31: ``order3.superspace``
    reads 3 [L, L] (the [L_b, L_a] are read as -[L_a, L_b], and the
    [L_a, L_a] are zero unformed), 9 [L, P], 3 [P, P] and 9 [J, theta];
    ``poincare.Ptheta`` reads one tuple per S_{d-1} orbit first, 5 of the
    9 [P, theta] and 2 of the 3 [J, theta-scalar]."""
    alg = build(SuperspaceConfig(metric=MetricSignature.minkowski(3)))
    for i in (1, 2, 3):
        alg.V(i)
    monkeypatch.setattr(suites, "build", lambda config: alg)
    tables = _recorded_pair_tables(monkeypatch)
    calls = _counted_commutator(monkeypatch)
    assert all(r.passed for r in run_suite(SuiteSpec("poincare", dimension=3)))
    [(sign, formed)] = tables
    assert sign < 0 and all(u != v for u, v in formed)
    pairs = {frozenset(pair) for pair in formed}
    assert len(pairs) == len(formed) == len(calls) == 31


def test_V_brackets_come_from_the_ad_V_rows(monkeypatch):
    """Over ``--suite all`` at d = 3, [V_i, g] is formed only by the row
    builder of ``ad_V``: one commutator on V_i per row of its table, so
    ``trans`` and ``closure`` share the rows."""
    calls = _counted_commutator(monkeypatch)
    built = []
    monkeypatch.setattr(suites, "build",
                        lambda config: built.append(build(config)) or built[-1])
    assert all(r.passed for r in run_suite(SuiteSpec("all", dimension=3)))
    alg = built[0]  # the run's algebra; ``check_engine`` builds its own
    V = [alg._cache[("V", i)] for i in (1, 2, 3)]
    rows = sum(len(alg._cache[("adV", i)]) for i in (1, 2, 3))
    assert rows and sum(any(a is v for v in V) for a, _ in calls) == rows


@pytest.mark.parametrize("sign, bracket", [(-1, commutator),
                                           (1, anticommutator)])
def test_pair_table_answers_the_reversed_pair(sign, bracket, monkeypatch, alg2):
    """A pair table forms (u, v) once and answers (v, u) from it, negated
    for a commutator and unchanged for an anticommutator; each answer
    equals the bracket formed directly.  A repeated pair forms nothing,
    and neither does a commutator [u, u]."""
    calls = _counted_commutator(monkeypatch, "anticommutator")
    keys = [(CLS_THETA, 0), (CLS_DEL, 0), (CLS_EPS[0], 1)]
    inner = superspace._pair_table(alg2._named.__getitem__, sign)
    for u, v in itertools.product(keys, repeat=2):
        assert inner(u, v) == bracket(alg2._named[u], alg2._named[v])
        assert inner(v, u) == bracket(alg2._named[v], alg2._named[u])
    # one per unordered pair of the three keys, the three (u, u) aside
    # for a commutator
    assert len(calls) == (6 if sign > 0 else 3)


@pytest.mark.parametrize("canon, bracket, n", [
    (superspace._sorted_slots, anticommutator, 2),
    (superspace._ordered_12, commutator, 2),
    (superspace._sorted_slots, sym3, 3),
    (superspace._ordered_12,
     lambda a, b, c: commutator(commutator(a, b), c), 3),
])
def test_orbit_table_forms_each_orbit_once(canon, bracket, n, alg2):
    """An ``_orbit_table`` forms ``value`` once per orbit of its slot
    symmetry, and answers every tuple, sign included, with what ``value``
    formed directly gives."""
    keys = [(CLS_THETA, 0), (CLS_DEL, 0), (CLS_EPS[0], 1)]
    formed = []

    def value(t):
        formed.append(t)
        return bracket(*map(alg2._named.__getitem__, t))
    lookup = superspace._orbit_table(value, canon)
    tuples = list(itertools.product(keys, repeat=n))
    for t in tuples + tuples[::-1]:
        assert lookup(t) == bracket(*map(alg2._named.__getitem__, t))
    orbits = {canon(t)[0] for t in tuples}
    assert len(formed) == len(orbits) and set(formed) == orbits


def _key(element):
    """A hashable key that equal elements share."""
    return frozenset(element.terms.items())


def test_each_bracket_is_formed_once_inside_a_check(monkeypatch):
    """At d = 3: ``check_superspace_transformation`` forms each
    [delta-x_a, delta-x_b] once per unordered pair a != b (3, not 9); the
    closure suite forms 165 commutators, 33 of them in ``closure.deltax``
    (9 [theta, eps_j^mu] and 24 unordered [eps_k^alpha, eps_l^mu]: it
    reads alpha = 0 and 1, one per S_{d-1} orbit, so no pair with both
    indices 2 is formed); and
    over ``--suite all`` none of the seven pair tables forms a pair twice
    or forms both (u, v) and (v, u), and no commutator table forms a
    (u, u)."""
    alg = build(SuperspaceConfig(metric=MetricSignature.minkowski(3)))
    dx = [_key(alg.delta_x(1, a)) for a in range(3)]
    calls = _counted_commutator(monkeypatch)
    _all_pass(check_superspace_transformation(alg))
    dxdx = [(_key(a), _key(b)) for a, b in calls
            if _key(a) in dx and _key(b) in dx]
    assert len(dxdx) == len(set(dxdx)) == 3
    assert not {(v, u) for u, v in dxdx if u != v} & set(dxdx)

    calls.clear()
    assert all(r.passed for r in run_suite(SuiteSpec("closure", dimension=3)))
    eps = [_key(alg.eps(i, mu)) for i in (1, 2, 3) for mu in range(3)]
    assert len(calls) == 165
    assert sum(_key(b) in eps for _, b in calls) == 33

    tables = _recorded_pair_tables(monkeypatch)
    assert all(r.passed for r in run_suite(SuiteSpec("all", dimension=3)))
    assert len(tables) == 7 and all(formed for _, formed in tables)
    for sign, formed in tables:
        assert len(set(formed)) == len(formed)
        assert not {(v, u) for u, v in formed if u != v} & set(formed)
        assert sign > 0 or all(u != v for u, v in formed)


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
            got = colour_action(alg2, weights, nested_actions(alg2, target))
            assert got == want, str(target)
            assert all(got.terms.values())
            nonzero += bool(got)
    # three nested actions kill every theta monomial of degree < 3, and the
    # paper weights kill degree 3 too; so the comparison is carried by
    # x^alpha (2 per weight set) and by 4 degree-3 monomials per random set
    assert nonzero == 2 * 3 + 4 * 2


# d -> ``ad_V`` calls of one ``check_closure`` call
CLOSURE_AD_V_CALLS = {2: 211, 3: 306, 5: 324}


@pytest.mark.parametrize("d", sorted(CLOSURE_AD_V_CALLS))
def test_closure_forms_each_nested_action_once(d, monkeypatch):
    """One ``check_closure`` call forms each nested action
    [V_l1, [V_l2, [..., t]]] on each target t once: one ``nested_actions``
    per theta tuple serves ``closure.leib``, ``.annihilate`` and
    ``.symmetric`` (its lemma rows read the degree-1 tables), and
    ``colour_action`` reads its inner and middle actions from it.  The
    ``ad_V`` totals are pinned; from d = 3 the lemma rows and x^alpha are
    read at one mu or alpha per S_{d-1} orbit.  Each ``ad_V`` call is traced back through
    the outputs of earlier calls to the element it started from: no call
    that started from a ``nested_actions`` target repeats a (target,
    labels) pair, and no nonzero target value gets a second
    ``nested_actions`` (zero theta monomials, such as theta^0 theta^0
    theta^0, are equal across tuples)."""
    ad_V, real_nested = superspace.SuperspaceAlgebra.ad_V, nested_actions
    origin, targets, values, calls = {}, {}, [], []
    kept = []  # every traced element stays alive, so no id is reused

    def traced_ad_V(self, i, element):
        out = ad_V(self, i, element)
        start, labels = origin.get(id(element), (element, ()))
        origin[id(out)] = start, (i,) + labels
        kept.extend((element, out))
        calls.append((targets.get(id(start)), (i,) + labels))
        return out

    def traced_nested(alg, target):
        targets[id(target)] = len(targets)
        values.extend([frozenset(target.terms.items())] if target else [])
        kept.append(target)
        return real_nested(alg, target)

    monkeypatch.setattr(superspace.SuperspaceAlgebra, "ad_V", traced_ad_V)
    monkeypatch.setattr(superspace, "nested_actions", traced_nested)
    alg = build(SuperspaceConfig(metric=MetricSignature.minkowski(d)))
    _all_pass(check_closure(alg, col3_weights()))
    assert len(calls) == CLOSURE_AD_V_CALLS[d]
    formed = [call for call in calls if call[0] is not None]
    assert formed and len(set(formed)) == len(formed)
    assert values and len(set(values)) == len(values)


def test_closure_frees_its_nested_actions_when_it_returns():
    """The nested-action tables live for one ``check_closure`` call: no
    reference cycle holds them (or anything else the call formed) until the
    next full collection."""
    alg = build(SuperspaceConfig(metric=MetricSignature.minkowski(3)))
    gc.collect()
    gc.disable()
    try:
        _all_pass(check_closure(alg, col3_weights()))
        assert gc.collect() == 0
    finally:
        gc.enable()


def _spatial_generators(d):
    """The transposition (1 2) and the cycle (1 ... d-1) of the spatial
    indices, as index maps: the two generators of S_{d-1}."""
    return [(0, 2, 1) + tuple(range(3, d)), (0,) + tuple(range(2, d)) + (1,)]


def _key_action(alg, move):
    """The action of the layout-key map ``move`` on elements: each
    generator of a key goes to the generator of ``move(key)`` in its Green
    sector, and the mapped words are normal formed again."""
    image = {}
    for key, ids in alg.components.items():
        image.update(zip(ids, alg.components[move(key)]))
    return lambda e: Element(alg.system, {tuple(image[g] for g in w): c
                                          for w, c in e.terms.items()})


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_expected_sides_have_the_bracket_symmetry(d):
    """The right-hand sides obey the symmetry the orbit quotient relies on:
    ``_expected_sym`` is invariant under every permutation of its slots,
    ``_expected_double`` is antisymmetric in slots 1-2 for every triple of
    slot keys (the double families order slots 1-2 whatever their kinds),
    and the psi right-hand side is symmetric in (mu, nu, rho).  From
    d = 3, ``_expected_sym``, ``_expected_double``, the ``closure.leib``
    right-hand side ``_expected_leib``, the ``closure.deltax`` quartic side
    ``_expected_quartic``, the ``trans`` targets eps(i, a) and
    delta_x(i, a), the eta sides of ``poincare.LL`` (``_expected_LL``),
    ``poincare.LP`` and ``poincare.Jtheta`` (``_rotated``) and
    ``_psi_base`` are also covariant under both generators of S_{d-1}:
    each maps the side at a tuple to the side at the mapped tuple.  At
    every d, ``_expected_sym`` and ``_expected_double`` are covariant under
    both generators of Sym(F), which permute the free keys (theta and the
    eps_i^mu) and which the para and roby quotient uses."""
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
    for move in _name_generators(alg):
        act = _key_action(alg, move)
        for triple in itertools.product(choices, repeat=3):
            mapped = [move(key) for key in triple]
            for side in (_expected_sym, _expected_double):
                assert act(side(alg, *triple)) == side(alg, *mapped)
    for sigma in _spatial_generators(d) if d >= 3 else ():
        act = _key_action(alg, lambda key: (key[0], sigma[key[1]]))
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
        comm = superspace._pair_table(alg._named.__getitem__, -1)
        for a in range(d):
            assert act(_expected_quartic(alg, comm, a)) == \
                _expected_quartic(alg, comm, sigma[a])


def _moved_composites(alg):
    """The accessor calls (name, *args) whose element does not map to the
    same accessor at mapped indices under a generator of S_{d-1}
    (``_key_action``): J, lorentz, psi, theta_lower and P, the composites
    that the poincare and psi values read, at every index tuple."""
    d, moved = alg.dimension, []
    for sigma in _spatial_generators(d):
        act = _key_action(alg, lambda key: (key[0], sigma[key[1]]))
        for name, fixed, arity in (("J", (), 2), ("lorentz", (), 2),
                                   ("psi", (1,), 1), ("psi", (-1,), 1),
                                   ("theta_lower", (), 1), ("P", (), 1)):
            accessor = getattr(alg, name)
            for idx in itertools.product(range(d), repeat=arity):
                if act(accessor(*fixed, *idx)) != \
                        accessor(*fixed, *(sigma[mu] for mu in idx)):
                    moved.append((name, *fixed, *idx))
    return moved


@pytest.mark.parametrize("d", [3, 4, 5])
def test_composites_map_to_themselves_at_mapped_indices(d, monkeypatch):
    """The spatial gate verifies the rule table and V_i; the poincare and
    psi quotients also rest on the composites their values read.  Each of
    J, lorentz, psi, theta_lower and P maps to itself at mapped indices
    under both generators of S_{d-1}, and lorentz, J and the eta sides
    ``_expected_LL`` and ``_rotated`` change sign with the order of each
    index pair, which ``_sweep`` reads sorted.  From d = 4, with lorentz
    doubled on every spatial pair that contains d - 1, the rule table and
    V_i are unchanged and the gate passes, but the quotient passes
    ``poincare.LL`` and ``poincare.LP`` (every ordered tuple swept reports
    14 and 4 residuals at d = 4): this test is the one that fails.  (At
    d = 3 the one spatial pair is {1, 2}, and the doubling is symmetric.)"""
    alg = build(SuperspaceConfig(metric=MetricSignature.minkowski(d)))
    assert _moved_composites(alg) == []
    for mu, nu in itertools.product(range(d), repeat=2):
        assert alg.lorentz(nu, mu) == -alg.lorentz(mu, nu)
        assert alg.J(nu, mu) == -alg.J(mu, nu)
        for rho in range(d):
            for vector in (alg.P, alg.theta_lower):
                assert _rotated(alg, vector, nu, mu, rho) == \
                    -_rotated(alg, vector, mu, nu, rho)
            for sigma in range(d):
                want = _expected_LL(alg, mu, nu, rho, sigma)
                assert _expected_LL(alg, nu, mu, rho, sigma) == -want
                assert _expected_LL(alg, mu, nu, sigma, rho) == -want
    if d == 3:
        return
    lorentz = superspace.SuperspaceAlgebra.lorentz
    monkeypatch.setattr(
        superspace.SuperspaceAlgebra, "lorentz", lambda self, mu, nu:
        lorentz(self, mu, nu).scale(2 if d - 1 in (mu, nu) and min(mu, nu)
                                    else 1))
    alg = build(SuperspaceConfig(metric=MetricSignature.minkowski(d)))
    assert superspace._spatial_symmetry(alg)
    assert {name for name, *_ in _moved_composites(alg)} == {"lorentz"}
    reports = check_poincare_realisation(alg, poincare_brackets(alg))
    assert all(r.passed for r in reports)
    if d == 4:
        ordered = _ordered_poincare_and_trans_residuals(alg)
        assert (len(ordered["poincare.LL"]), len(ordered["poincare.LP"])) \
            == (14, 4)


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
    """J, L, V and delta-x, each one sum_of_products call, equal the same
    sums built one product and one partial sum at a time, with every
    commutator spelled a * b - b * a; and ``closure.deltax`` reports at
    alpha exactly the colour bracket on x^alpha minus the sum of coeff x
    quartic shape built that way."""
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
    want = []
    for alpha in range(d):
        diff = colour_action(alg, col3_weights(),
                             nested_actions(alg, alg.x(alpha)))
        for (j, k, l), coeff in REALISED_QUARTIC_COEFFS.items():
            shape = zero
            for mu in range(d):
                eps_lower = alg.eps(l, mu).scale(alg.eta[mu])
                shape = shape + (comm(th, alg.eps(j, mu))
                                 * comm(alg.eps(k, alpha), eps_lower))
            assert shape
            diff = diff - shape.scale(coeff)
        if diff:
            want.append({"indices": [alpha], "element": str(diff)})
    deltax = {r.check_id: r for r in check_closure(alg, col3_weights())}[
        "closure.deltax"]
    assert [r for r in deltax.residuals if r["indices"][0] != "star"] == want
    assert bool(want) is (kappa != Fraction(1, 2))


def test_V_without_vector_indices_is_zero():
    alg = build(SuperspaceConfig(metric=MetricSignature(0, ())))
    assert not alg.V(1)


def test_closure(alg2):
    reports = check_closure(alg2, col3_weights())
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
            ("unit-weights", {"colour.weights": 2, "closure.annihilate": 4,
                              "closure.deltax": 4})):
        _, reports = corrupted_d2_runs[name]
        assert {r.check_id: len(r.residuals)
                for r in reports if not r.passed} == want, name


@pytest.mark.parametrize("name, rewrite, at_d2, at_d3", [
    ("xP-odd", xp_odd,
     {"poincare.LP": 2, "poincare.PP": 1, "order3.superspace": 3,
      "trans.x": 6, "closure.deltax": 2},
     {"poincare.LL": 6, "poincare.LP": 6, "poincare.PP": 3,
      "order3.superspace": 12, "trans.x": 9, "closure.deltax": 3}),
    ("xP-theta-odd", xp_theta_odd,
     {"poincare.Ptheta": 4, "trans.theta": 6, "trans.x": 6,
      "closure.leib": 4, "closure.annihilate": 10, "closure.deltax": 2,
      "closure.symmetric": 22},
     {"poincare.Ptheta": 9, "trans.theta": 9, "trans.x": 9,
      "closure.leib": 18, "closure.annihilate": 30, "closure.deltax": 3,
      "closure.symmetric": 36}),
])
def test_odd_swap_controls(name, rewrite, at_d2, at_d3, monkeypatch,
                           corrupted_d2_runs):
    """x/P anticommuting across indices fails ``poincare.PP`` and, from
    d = 3, where there is more than one L pair, ``poincare.LL``; x/P
    anticommuting with the theta^mu/d_mu components fails
    ``poincare.Ptheta``.  Both failing sets are pinned at d = 2 and 3, and
    at d = 3 the ``poincare.*`` and ``trans.*`` residual lists equal the
    ordered reference's."""
    _, reports = corrupted_d2_runs[name]
    assert {r.check_id: len(r.residuals)
            for r in reports if not r.passed} == at_d2
    monkeypatch.setattr(superspace, "GeneratorSystem",
                        lambda *args: GeneratorSystem(*rewrite(*args)))
    reports = {r.check_id: r for r in run_suite(SuiteSpec("all", dimension=3))}
    assert {cid: len(r.residuals)
            for cid, r in reports.items() if not r.passed} == at_d3
    alg = build(SuperspaceConfig(metric=MetricSignature.minkowski(3)))
    ordered = _ordered_poincare_and_trans_residuals(alg)
    assert {cid: reports[cid].residuals for cid in ordered} == ordered


def test_exponent_form_control(monkeypatch, corrupted_d2_runs):
    """B_00 = 1 in the paper's exponent form keeps N biadditive (every
    N(a, b) = q^(a.B.b) is) but breaks N(a, b) N(b, a) = 1 wherever a_1 and
    b_1 are both nonzero: ``colour.axioms`` alone fails, with its first 20
    axiom-1 pairs and the count line, at d = 2 and 3.  The colour weights
    never pair the first grade with itself, so ``colour.weights`` passes."""
    want = {"colour.axioms": 21}
    _, reports = corrupted_d2_runs["B00=1"]
    assert {r.check_id: len(r.residuals)
            for r in reports if not r.passed} == want
    monkeypatch.setattr(colour, "paper_factor",
                        lambda: colour.CommutationFactor(B00_FORM))
    reports = run_suite(SuiteSpec("all", dimension=3))
    assert {r.check_id: len(r.residuals)
            for r in reports if not r.passed} == want


def test_kernel_mutant_controls(corrupted_d2_runs):
    """The two ``KERNEL_MUTANTS`` of ``times_word`` fail the engine suite
    with these exact residual counts at d = 2.  "kernel-gap-2" fails
    ``engine.sym3`` because {b, c} and {c, b} reach the kernel by
    different passes: a pair of words with no contraction across it takes
    one pass, in the order its anticommutator names it, so the mutant's
    wrong signs no longer cancel between the orderings of sym3.  Likewise
    "conj=id" (``Cyclo.conj`` the identity) fails the arith suite's
    ``arith.conj``, on the norm test alone: conj(conj(a)) = a and conj is
    still a ring map, while a * a is not a nonnegative rational for any of
    the 20 seed-0 pairs.  A norm test that asks for a non-real and a
    negative norm at once (``and`` for ``or``) reports 10."""
    for name, want in (
            ("kernel-gap-2", {"engine.confluence": 75, "engine.star": 2,
                              "engine.sym3": 9}),
            ("kernel-front", {"engine.idempotent": 50,
                              "engine.confluence": 270, "engine.star": 30,
                              "engine.sym3": 24}),
            ("conj=id", {"arith.conj": 20})):
        _, reports = corrupted_d2_runs[name]
        assert {r.check_id: len(r.residuals)
                for r in reports if not r.passed} == want, name


def test_table_edit_controls(corrupted_d2_runs):
    """The ``TABLE_EDITS`` of the cubic Poincare tables fail only order3
    checks, with these exact residual counts at d = 2, and each edited
    table keeps its storage symmetries.  ``order3.superspace`` sees the
    wrong [P_0, P_1] but not "RP0": it compares only the Lorentz rows of R
    with the realisation, and never reads Q."""
    for name, want in (
            ("PP=P0", {"order3.superspace": 1, "order3.jacobi": 1,
                       "order3.equivariance": 4}),
            ("RP0", {"order3.rep": 3, "order3.equivariance": 3,
                     "order3.fi": 2}),
            ("Q-L01", {"order3.equivariance": 4, "order3.fi": 2})):
        _, reports = corrupted_d2_runs[name]
        assert {r.check_id: len(r.residuals)
                for r in reports if not r.passed} == want, name
        sc = edited_tables(TABLE_EDITS[name])(MetricSignature.minkowski(2))
        assert not sc.validate_symmetries(), name


# check ID -> the corruptions of ``corrupted_d2_runs`` that fail it at d = 2
CONTROLS = {
    "engine.idempotent": {"kernel-front"},
    "engine.confluence": {"non-confluent", "kernel-gap-2", "kernel-front"},
    "engine.star": {"non-confluent", "kernel-gap-2", "kernel-front"},
    "engine.sym3": {"kernel-gap-2", "kernel-front"},
    "para1.1": {"theta-eps1"},
    "para1.2": {"kappa=1/3", "non-confluent", "d-eps1"},
    "para1.3": {"kappa=1/3", "non-confluent", "d-eps1", "theta-eps1"},
    "para1.4": {"kappa=1/3", "non-confluent", "d-eps1", "d-d"},
    "para1.5": {"kappa=1/3", "non-confluent", "d-eps1"},
    "para1.6": {"d-d"},
    "para.1": {"p=3", "theta-eps1"},
    "para.2": {"kappa=1/3", "p=3", "non-confluent", "d-eps1", "theta-eps1"},
    "para.3": {"kappa=1/3", "p=3", "non-confluent", "d-eps1", "d-d"},
    "para.4": {"p=3", "d-d"}, "roby": {"p=3", "theta-eps1"},
    "poincare.Jtheta": {"kappa=1/3", "non-confluent"},
    "poincare.LP": {"Px=-1", "xP-odd"}, "poincare.PP": {"xP-odd"},
    "poincare.Ptheta": {"xP-theta-odd"},
    "order3.superspace": {"kappa=1/3", "Px=-1", "non-confluent", "xP-odd",
                          "PP=P0"},
    "order3.jacobi": {"PP=P0"}, "order3.rep": {"RP0"},
    "order3.equivariance": {"PP=P0", "RP0", "Q-L01"},
    "order3.fi": {"RP0", "Q-L01"},
    "colour.axioms": {"B00=1"}, "colour.weights": {"unit-weights"},
    "arith.conj": {"conj=id"},
    "trans.theta": {"kappa=1/3", "non-confluent", "theta-eps1",
                    "xP-theta-odd"},
    "trans.x": {"Px=-1", "xP-odd", "xP-theta-odd"},
    "trans.eps": {"d-eps1", "theta-eps1"},
    "trans.deltax": {"theta-eps1"},
    "psi.bracket": {"kappa=1/3", "p=3", "non-confluent", "d-d"},
    "closure.leib": {"kappa=1/3", "non-confluent", "theta-eps1",
                     "xP-theta-odd"},
    "closure.annihilate": {"unit-weights", "non-confluent", "d-eps1",
                           "theta-eps1", "xP-theta-odd"},
    "closure.deltax": {"kappa=1/3", "Px=-1", "unit-weights", "d-eps1",
                       "theta-eps1", "xP-odd", "xP-theta-odd"},
    "closure.symmetric": {"non-confluent", "d-eps1", "theta-eps1",
                          "xP-theta-odd"},
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
# check never may.  poincare.LL stays: at d = 2 there is one L, so nothing
# can fail it there; the d = 3 controls above do.
NO_CONTROL_YET = {
    "arith.root", "arith.ring", "arith.division",
    "poincare.LL",
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
