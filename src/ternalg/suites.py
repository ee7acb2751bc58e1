"""Named check suites: the batch-verification entry point.

``SUITES`` maps each suite id to a job that returns its reports;
``run_suite`` runs the selected jobs one after another, in the table's
order.  The superspace algebra at the requested dimension is built once
per run, and only when a selected job needs it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product

from . import colour, matrixrep, order3
from .algebra import (Element, _accumulate, random_element, random_raw_terms,
                      sym3)
from .cyclo import Cyclo, ONE, Q, ZERO
from .report import CheckReport
from .superspace import (CLS_DEL, CLS_EPS, CLS_THETA, CLS_THETA_SC,
                         MetricSignature, SuperspaceAlgebra, SuperspaceConfig,
                         build, check_closure, check_parafermion_relations,
                         check_poincare_realisation, check_psi_bracket,
                         check_roby, check_superspace_transformation,
                         poincare_brackets)


@dataclass(frozen=True)
class SuiteSpec:
    suite: str
    dimension: int = 4
    seed: int = 0
    kappa: Fraction = Fraction(1, 2)

    def __post_init__(self):
        if self.suite not in SUITE_IDS:
            raise ValueError(f"unknown suite {self.suite!r}; "
                             f"choose from {', '.join(SUITE_IDS)}")

    def config_dict(self) -> dict:
        metric = MetricSignature.minkowski(self.dimension)
        return {"dimension": self.dimension,
                "metric": list(metric.eta),
                "kappa": str(self.kappa),
                "cross_sign": 1,
                "seed": self.seed}


# -- exact-arithmetic suite ----------------------------------------------

def _random_cyclo(rng: random.Random) -> Cyclo:
    return Cyclo(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                 Fraction(rng.randint(-9, 9), rng.randint(1, 9)))


def check_arith(seed: int = 0) -> list[CheckReport]:
    rng = random.Random(seed)
    samples = [_random_cyclo(rng) for _ in range(40)]

    with CheckReport("arith.root",
                     "q is a primitive cube root of unity: q^3 = 1 and "
                     "1 + q + q^2 = 0") as rep:
        rep.expect_zero(("q^3",), Q ** 3 - ONE)
        rep.expect_zero(("1+q+q^2",), ONE + Q + Q * Q)
    reports = [rep]

    with CheckReport("arith.ring",
                     "commutative ring laws on random samples "
                     "(associativity, distributivity, units)") as rep:
        for k in range(0, len(samples) - 2, 3):
            a, b, c = samples[k:k + 3]
            rep.expect_zero((k, "assoc"), (a * b) * c - a * (b * c))
            rep.expect_zero((k, "dist"), a * (b + c) - a * b - a * c)
            rep.expect_zero((k, "unit"), a * ONE - a)
            rep.expect_zero((k, "unit"), a + ZERO - a)
    reports.append(rep)

    with CheckReport("arith.conj",
                     "conjugation (q -> q^2) is an involutive ring map and "
                     "a*conj(a) is the rational norm") as rep:
        for k in range(0, len(samples) - 1, 2):
            a, b = samples[k:k + 2]
            rep.expect_zero((k, "invol"), a.conj().conj() - a)
            rep.expect_zero((k, "mult"), (a * b).conj() - a.conj() * b.conj())
            n = a * a.conj()
            if not n.is_real() or n.re < 0:
                rep.add_residual((k, "norm"), str(n))
    reports.append(rep)

    with CheckReport("arith.division",
                     "every nonzero element is invertible: (a/b)*b = a") as rep:
        for k in range(0, len(samples) - 1, 2):
            a, b = samples[k:k + 2]
            if b:
                rep.expect_zero((k,), (a / b) * b - a)
    reports.append(rep)
    return reports


# -- rewriting-engine suite ----------------------------------------------

def _engine_algebra() -> SuperspaceAlgebra:
    return build(SuperspaceConfig(metric=MetricSignature.minkowski(2)))


def check_engine(seed: int = 0) -> list[CheckReport]:
    alg = _engine_algebra()
    system = alg.system
    rng = random.Random(seed)

    # No rule table can fail this check: a normal word re-normalised only
    # inserts each letter at the right end of a non-decreasing word, so no
    # rule fires.  It stays because it tests the kernel, not the table: a
    # times_word that rewrites a normal word is caught here.
    with CheckReport("engine.idempotent",
                     "normal forming a normal form changes nothing") as rep:
        for k in range(50):
            raw = random_raw_terms(system, rng)
            nf = system.normalize_terms(raw)
            if system.normalize_terms(nf) != nf:
                rep.add_residual((k,), "second pass differs")
    reports = [rep]

    with CheckReport("engine.confluence",
                     "leftmost, rightmost and randomised rewriting "
                     "strategies all reach the same normal form") as rep:
        for k in range(100):
            raw = random_raw_terms(system, rng)
            nf = system.normalize_terms(raw)
            for strategy in ("leftmost", "rightmost", "random"):
                got = system.reduce_terms(raw, strategy, rng=rng)
                if got != nf:
                    rep.add_residual((k, strategy), "strategies disagree")
    reports.append(rep)

    # on the parafermionic sector the rewrite rules are stable under word
    # reversal, so star is an anti-automorphism there; the bosonic rule
    # P x = x P + 1 is not reversal-stable with fixed generators (that
    # would need star(P) = -P), hence the fermionic generator restriction
    fermionic = range(alg.n_fermionic)
    with CheckReport("engine.star",
                     "on the parafermionic sector star is an antilinear "
                     "anti-involution: star(star(a)) = a, "
                     "star(ab) = star(b)star(a)") as rep:
        for k in range(30):
            a = random_element(system, rng, fermionic, max_degree=3)
            b = random_element(system, rng, fermionic, max_degree=3)
            rep.expect_zero((k, "invol"), a.star().star() - a)
            rep.expect_zero((k, "anti"), (a * b).star() - b.star() * a.star())
    reports.append(rep)

    with CheckReport("engine.sym3",
                     "the symmetric ternary bracket is invariant under "
                     "all six argument permutations") as rep:
        for k in range(10):
            args = [random_element(system, rng, max_degree=2, n_terms=2)
                    for _ in range(3)]
            base = sym3(*args)
            for p in permutations(args):
                rep.expect_zero((k,), sym3(*p) - base)
    reports.append(rep)
    return reports


# -- colour suite ---------------------------------------------------------

def check_colour() -> list[CheckReport]:
    reports = [colour.check_axioms(colour.paper_factor())]

    with CheckReport("colour.weights",
                     "the standard grades (1,0,0),(0,1,0),(0,0,1) induce "
                     "the bracket weights (1, q^2, q^2, q, q, 1)") as rep:
        got = colour.col3_weights()
        want = (ONE, Q * Q, Q * Q, Q, Q, ONE)
        if tuple(got) != want:
            rep.add_residual(("weights",), ", ".join(map(str, got)))
        rep.expect_zero(("sum",), sum(got, ZERO))
    reports.append(rep)
    return reports


# -- oracle suite ---------------------------------------------------------

def _oracle_subsystems(dim: int):
    """Representative <=3-name subsystems covering every pairing class:
    a lone name, a conjugate theta/d pair, two same-class names, a
    cross-family pair, the scalar with a conjugate pair, the mixed triple
    behind the surviving symmetric bracket, and three parameter families."""
    subs = [
        ("th0", [(CLS_THETA, 0)]),
        ("th0-d0", [(CLS_THETA, 0), (CLS_DEL, 0)]),
        ("sc-th0-d0", [(CLS_THETA_SC, 0), (CLS_THETA, 0), (CLS_DEL, 0)]),
        ("e1-e2-e3", [(CLS_EPS[0], 0), (CLS_EPS[1], 0), (CLS_EPS[2], 0)]),
    ]
    if dim >= 2:
        subs += [
            ("th0-th1", [(CLS_THETA, 0), (CLS_THETA, 1)]),
            ("th0-e1", [(CLS_THETA, 0), (CLS_EPS[0], 1)]),
            ("th0-th1-d1", [(CLS_THETA, 0), (CLS_THETA, 1), (CLS_DEL, 1)]),
        ]
    return subs


def _raw_products(*products) -> dict:
    """Raw word map of a sum of products, each given as (coeff, f1, f2, ...):
    every Green sum is expanded into its component words and the words are
    concatenated in the given order, never normal formed."""
    out = {}
    for coeff, *factors in products:
        for picks in product(*(f.terms.items() for f in factors)):
            word, c = (), Cyclo(coeff)
            for w, cw in picks:
                word, c = word + w, c * cw
            _accumulate(out, word, c)
    return out


def check_oracle(alg: SuperspaceAlgebra, seed: int = 0) -> list[CheckReport]:
    reports = []
    mats = {}  # subsystem tag -> its MatrixRep, reused by oracle.zero
    for tag, names in _oracle_subsystems(alg.dimension):
        mats[tag] = rep = matrixrep.build_rep(alg, names)
        r = matrixrep.check_representation(rep)
        r.check_id = f"oracle.rep.{tag}"
        reports.append(r)
        r = matrixrep.check_random_equivalence(rep, seed=seed)
        r.check_id = f"oracle.random.{tag}"
        reports.append(r)

    # each probe is a raw word map: its normal form must vanish, and so must
    # its matrix image, never normal formed: each raw word is folded from its
    # generators' (bit, need, string, k) records into one word record, words
    # of one shape are summed, and each surviving shape writes its live columns
    with CheckReport(
            "oracle.zero",
            "symbolically-zero relation instances map to the zero matrix, and "
            "the one surviving symmetric bracket maps to its matrix value"
    ) as rep:
        probes = []  # (tag, subsystem, raw word map expected to vanish)
        if alg.dimension >= 2:
            th0, th1, d1 = alg.theta(0), alg.theta(1), alg.d(1)
            sub = "th0-th1-d1"
            probes += [
                ("sym-surviving", sub, _raw_products(
                    *((1, *p) for p in permutations((th0, th1, d1))),
                    (-2, th0))),
                ("sym-theta", sub, _raw_products(
                    *((1, *p) for p in permutations((th0, th1, th1))))),
                ("double-comm", sub, _raw_products(
                    (1, th0, th1, th1), (-2, th1, th0, th1), (1, th1, th1, th0))),
            ]
        eps = (alg.eps(1, 0), alg.eps(2, 0), alg.eps(3, 0))
        probes.append(("eps-roby", "e1-e2-e3", _raw_products(
            *((1, *p) for p in permutations(eps)))))
        for tag, sub, raw in probes:
            e = Element(alg.system, raw)
            if e:
                rep.add_residual((tag,), "expected symbolic zero: " + str(e))
            elif not mats[sub].evaluate_raw(raw).is_zero():
                rep.add_residual((tag,), "nonzero matrix image")
    reports.append(rep)
    return reports


# -- suite registry -------------------------------------------------------

def _poincare(spec, metric, alg):
    comm = poincare_brackets(alg)  # one table for both checks, this job only
    out = check_poincare_realisation(alg, comm)
    sc = order3.cubic_poincare(metric)
    return out + [order3.check_against_superspace(sc, alg, comm)]


# suite id -> (needs the algebra, job(spec, metric, alg) -> reports), in
# execution order; the jobs look the check functions up by name at call
# time, so a check replaced on this module or on order3 is the one that runs
SUITES = {
    "arith": (False, lambda spec, metric, alg: check_arith(spec.seed)),
    "engine": (False, lambda spec, metric, alg: check_engine(spec.seed)),
    "para": (True, lambda spec, metric, alg: check_parafermion_relations(alg)),
    "roby": (True, lambda spec, metric, alg: [check_roby(alg)]),
    "poincare": (True, _poincare),
    "order3": (False, lambda spec, metric, alg: order3.check_lie_order3(
        order3.cubic_poincare(metric))),
    "colour": (False, lambda spec, metric, alg: check_colour()),
    "superspace": (True, lambda spec, metric, alg:
                   check_superspace_transformation(alg)
                   + [check_psi_bracket(alg)]),
    "closure": (True, lambda spec, metric, alg: check_closure(
        alg, colour.col3_weights(), seed=spec.seed)),
    "oracle": (True, lambda spec, metric, alg:
               check_oracle(alg, seed=spec.seed)),
}
SUITE_IDS = tuple(SUITES) + ("all",)


def run_suite(spec: SuiteSpec) -> list[CheckReport]:
    """Execute one suite; deterministic given (suite, seed, dimension)."""
    metric = MetricSignature.minkowski(spec.dimension)
    selected = [entry for sid, entry in SUITES.items()
                if spec.suite in (sid, "all")]
    alg = None
    if any(needs_alg for needs_alg, _ in selected):
        alg = build(SuperspaceConfig(metric=metric, pairing_kappa=spec.kappa))
    return [r for _, job in selected for r in job(spec, metric, alg)]
