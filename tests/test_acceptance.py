"""Acceptance gate: the ten headline properties, at full dimension d = 4.

Every identity is checked to exact zero in Q(q); there are no numerical
tolerances anywhere.  Each test records a single pass/fail line that the
terminal summary prints after the run.
"""

import itertools
from fractions import Fraction

import pytest

from conftest import record_criterion
from ternalg.colour import check_axioms, col3_weights, paper_factor
from ternalg.cyclo import ONE, Q
from ternalg.order3 import (StructureConstants3, check_against_superspace,
                            check_lie_order3, cubic_poincare)
from ternalg.suites import check_engine, check_oracle
from ternalg.superspace import (MetricSignature, check_closure,
                                check_parafermion_relations,
                                check_poincare_realisation, check_psi_bracket,
                                check_roby, check_superspace_transformation,
                                poincare_brackets)


def _failures(reports):
    return [(r.check_id, r.residuals[:2]) for r in reports if not r.passed]


@pytest.fixture(scope="module")
def closure_reports(alg4):
    return check_closure(alg4, col3_weights())


def test_criterion_1_parafermion_relations(alg4):
    reports = check_parafermion_relations(alg4)
    assert len(reports) == 10   # six trilinear families, four symmetric
    record_criterion(
        1, "all 6 trilinear and 4 symmetric relation families reduce to "
           "exact zero at d=4 over theta/eps slot mixtures",
        not _failures(reports), f"failures: {_failures(reports)}"
        if _failures(reports) else "")


def test_criterion_2_roby(alg4):
    rep = check_roby(alg4)
    n_names = len(alg4.coordinate_keys)
    record_criterion(
        2, "the six-ordering cubic relation vanishes for every unordered "
           f"triple of the {n_names} coordinate-type names",
        rep.passed, "" if rep.passed else str(rep.residuals[:2]))


def test_criterion_3_poincare_realisation(alg4):
    comm = poincare_brackets(alg4)
    reports = check_poincare_realisation(alg4, comm)
    sc = cubic_poincare(MetricSignature.minkowski(4))
    reports.append(check_against_superspace(sc, alg4, comm))
    record_criterion(
        3, "[L,L], [L,P] and [J,theta] match the cubic extension's "
           "structure constants, cross-checked against the table",
        not _failures(reports), str(_failures(reports)) if _failures(reports)
        else "")


def test_criterion_4_order3_axioms():
    ok = True
    detail = ""
    for d in (2, 3, 4, 5):
        sc = cubic_poincare(MetricSignature.minkowski(d))
        bad = _failures(check_lie_order3(sc))
        if bad or sc.validate_symmetries():
            ok, detail = False, f"d={d}: {bad}"
            break
    if ok:
        base = cubic_poincare(MetricSignature.minkowski(4))

        def clone():
            return StructureConstants3(base.dim0, base.dim1, base.f.copy(),
                                       base.R.copy(), base.Q.copy(),
                                       base.labels0, base.labels1)

        # broken Q storage symmetry
        sc = clone()
        sc.Q[0, 1, 2, 0] += Fraction(1)
        if not sc.validate_symmetries():
            ok, detail = False, "asymmetric Q went undetected"
        # broken Jacobi
        sc = clone()
        for k in range(sc.dim0):
            sc.f[0, 1, k] = 0
        sc.f[0, 1, 3] = Fraction(1)
        sc.f[1, 0, 3] = Fraction(-1)
        jac = {r.check_id: r for r in check_lie_order3(sc)}["order3.jacobi"]
        if jac.passed or not all({0, 1} & set(res["indices"][:3])
                                 for res in jac.residuals):
            ok, detail = False, "Jacobi corruption not localized"
        # broken fundamental identity (Q-symmetric corruption)
        sc = clone()
        for p in set(itertools.permutations((0, 1, 1))):
            sc.Q[p + (0,)] += Fraction(1)
        fi = {r.check_id: r for r in check_lie_order3(sc)}["order3.fi"]
        if fi.passed or not all({0, 1} & set(res["indices"][:4])
                                for res in fi.residuals):
            ok, detail = False, "FI corruption not localized"
    record_criterion(
        4, "order-3 axioms hold for d in {2,3,4,5} and each documented "
           "corruption fails with a localized residual", ok, detail)


def test_criterion_5_superspace_transformation(alg4):
    reports = check_superspace_transformation(alg4)
    record_criterion(
        5, "[V,theta] = eps, [V,x] = coordinate shift; shifts are "
           "star-fixed and central in the theta/eps sector",
        not _failures(reports), str(_failures(reports)) if _failures(reports)
        else "")


def test_criterion_6_closure(closure_reports):
    record_criterion(
        6, "triple action reproduces the symmetric eps product; colour "
           "bracket annihilates theta monomials of every degree (swept "
           "at 1-3, settled above by the derivation lemma) and yields "
           "the quartic multiset {-1,-1,-q,-q,-q^2,-q^2} on x",
        not _failures(closure_reports),
        str(_failures(closure_reports)) if _failures(closure_reports) else "")


def test_criterion_7_commutation_factor():
    rep = check_axioms(paper_factor())
    weights_ok = tuple(col3_weights()) == (ONE, Q * Q, Q * Q, Q, Q, ONE)
    record_criterion(
        7, "commutation-factor axioms hold over all of Z_3^3 and the "
           "standard grades induce the weights (1,q^2,q^2,q,q,1)",
        rep.passed and weights_ok,
        "" if rep.passed and weights_ok else str(rep.residuals[:2]))


def test_criterion_8_psi_bracket(alg4):
    rep = check_psi_bracket(alg4)
    sign_consistent = rep.passed and "computed global sign +" in rep.notes
    record_criterion(
        8, "{psi_s, psi_s, psi_s} carries one uniform global sign times "
           "s * 4(eta psi + ...); comparison against the tabulated sign "
           "is reported, not asserted",
        sign_consistent, rep.notes[:90])


def test_criterion_9_oracle(alg4):
    reports = check_oracle(alg4, seed=0)
    record_criterion(
        9, "matrix oracle: 200 seeded elements per representative "
           "subsystem agree raw vs normal form; symbolic zeros map to "
           "zero matrices",
        not _failures(reports), str(_failures(reports)) if _failures(reports)
        else "")


def test_criterion_10_engine_properties():
    reports = check_engine(seed=0)
    record_criterion(
        10, "normal-form idempotence, 100-input randomized-strategy "
            "confluence, star anti-involution laws and symmetric-bracket "
            "invariance, all exact",
        not _failures(reports), str(_failures(reports)) if _failures(reports)
        else "")
