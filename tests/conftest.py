import inspect
import itertools
import random
import textwrap
from fractions import Fraction

import pytest

from ternalg import algebra, colour, matrixrep, superspace
from ternalg.algebra import GeneratorSystem
from ternalg.cyclo import ONE
from ternalg.suites import SuiteSpec, run_suite
from ternalg.superspace import MetricSignature, SuperspaceConfig, build

# one line per acceptance criterion, shown after the test run
ACCEPTANCE_LINES = []


def record_criterion(number: int, title: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    ACCEPTANCE_LINES.append(f"criterion {number:2d} [{status}] {title}{suffix}")
    assert ok, f"criterion {number}: {title}{suffix}"


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)


class UncheckedSystem(GeneratorSystem):
    """A generator system whose rule table is not checked at construction."""

    def _verify_local_confluence(self):
        pass


def cross_sector_pairing(names, swap, contraction, square_zero):
    """The rule table with each d_mu(2) also contracted with theta^mu(1),
    by the scalar that pairs d_mu(1) with it: a pairing across Green
    sectors, which breaks local confluence."""
    ids = {name: g for g, name in enumerate(names)}
    contraction = dict(contraction)
    for name in names:
        if name.startswith("d_") and name.endswith("(2)"):
            mu = name[2:-3]
            theta = ids[f"theta^{mu}(1)"]
            same_sector = contraction[(ids[f"d_{mu}(1)"], theta)]
            contraction[(ids[name], theta)] = same_sector
    return names, swap, contraction, square_zero


def unit_pairing(match):
    """A rule-table rewrite: contraction 1 between every two Green
    components u and v of one sector, u after v in the layout, whose names
    without the sector suffix ``match(u_name, v_name)`` accepts."""
    def rewrite(names, swap, contraction, square_zero):
        contraction = dict(contraction)
        split = [name.partition("(")[::2] for name in names]  # (name, sector)
        for v, u in itertools.combinations(range(len(names)), 2):
            if split[u][1] == split[v][1] and match(split[u][0], split[v][0]):
                contraction[(u, v)] = 1
        return names, swap, contraction, square_zero
    return rewrite


# Each d_mu Green component also contracted with the eps1^mu component of
# its own sector.  Both components have the same swap row, so the table
# stays confluent; V_i, which carries [eps_i, d], then no longer commutes
# with eps1.
eps1_pairing = unit_pairing(
    lambda u, v: v.startswith("d_") and u == "eps1^" + v[2:])
# theta^mu with eps1^mu, and d_mu with d_nu (mu < nu), in each sector; both
# tables stay confluent.  The first breaks delta-x = [theta, theta^mu]
# [eps_i^alpha, theta_mu] and the NNN double brackets, the second the DDD
# ones and, from d = 3, [L, L].
theta_eps1_pairing = unit_pairing(
    lambda u, v: v.startswith("theta^") and u == "eps1^" + v[6:])
d_d_pairing = unit_pairing(
    lambda u, v: u.startswith("d_") and v.startswith("d_"))


def odd_swap(match):
    """A rule-table rewrite: swap sign -1 between every two generators
    whose names ``match`` accepts, in either order."""
    def rewrite(names, swap, contraction, square_zero):
        swap = dict(swap)
        for v, u in itertools.combinations(range(len(names)), 2):
            if match(names[u], names[v]) or match(names[v], names[u]):
                swap[(u, v)] = -1
        return names, swap, contraction, square_zero
    return rewrite


def _is_xp(name):
    return name.startswith(("x^", "P_"))


# x^mu and P_mu anticommuting with every x^nu and P_nu of another index
# nu, and every x^mu and P_mu with every theta^nu and d_nu Green
# component.  Each contraction still joins two generators with equal swap
# rows, so both tables stay confluent.  The first breaks [P, P], the
# second [P, theta].
xp_odd = odd_swap(lambda u, v: _is_xp(u) and _is_xp(v) and u[2:] != v[2:])
xp_theta_odd = odd_swap(lambda u, v: _is_xp(u)
                        and v.startswith(("theta^", "d_")))


# The paper's commutation-factor exponent form with B_00 = 1: still
# biadditive, as every form is, but no longer antisymmetric, so
# N(a, b) N(b, a) = q^(2 a_1 b_1) breaks axiom 1.
B00_FORM = colour.paper_factor().exponent_form
B00_FORM[0][0] = 1


def third_pairing_at(indices):
    """A rule-table rewrite: kappa = 1/3 on the pairing of d_mu with
    theta^mu, in every Green sector, for each mu of ``indices(d)`` (d the
    dimension), and the configured kappa elsewhere."""
    def rewrite(names, swap, contraction, square_zero):
        ids = {name: g for g, name in enumerate(names)}
        d = len({name[:name.index("(")] for name in names
                 if name.startswith("d_")})
        contraction = dict(contraction)
        for mu in indices(d):
            for name in names:
                if name.startswith(f"d_{mu}("):
                    theta = ids["theta^" + name[2:]]
                    contraction[(ids[name], theta)] = Fraction(1, 3)
        return names, swap, contraction, square_zero
    return rewrite


def kernel_mutant(old, new):
    """``GeneratorSystem.times_word`` with the one occurrence of ``old`` in
    its source replaced by ``new``: a test-only mutant of the kernel."""
    source = inspect.getsource(algebra.GeneratorSystem.times_word)
    source = textwrap.dedent(source)
    assert source.count(old) == 1, old
    namespace = {}
    exec(source.replace(old, new), vars(algebra), namespace)
    return namespace["times_word"]


# Two kernel mutants: "kernel-gap-2" drops the swap sign of every letter u
# that the inserted g passes with u - g = 2, and "kernel-front" negates
# each term whose inserted letter lands at the front of its word, the
# empty word included, so it rewrites normal words.
KERNEL_MUTANTS = {
    "kernel-gap-2": ("if sign[u] < 0:", "if sign[u] < 0 and u - g != 2:"),
    "kernel-front": ("_accumulate(nxt, t[:i] + (g,) + t[i:], ct, neg)",
                     "_accumulate(nxt, t[:i] + (g,) + t[i:], ct, "
                     "neg if i else not neg)"),
}


def rewritten_strings(rewrite):
    """``MatrixRep`` with the Jordan-Wigner string of every generator record
    (bit, need, string, k) replaced by ``rewrite(bit, string)``."""
    class Rep(matrixrep.MatrixRep):
        def __init__(self, alg, names):
            super().__init__(alg, names)
            self.actions = {gid: (bit, need, rewrite(bit, string), k)
                            for gid, (bit, need, string, k)
                            in self.actions.items()}
    return Rep


@pytest.fixture
def reference_kernel(monkeypatch):
    """Call it to normal-form every product for the rest of the test with
    the one-step rewriter ``reduce_terms``, by ``strategy`` ("leftmost",
    "rightmost" or "random", seeded), in place of the kernel
    ``times_word``, and to send every bracket pair down the two-pass path
    in place of the graded shortcut: every pair of words reads as sharing
    a contraction."""
    def use(strategy="leftmost"):
        rng = random.Random(0)

        def times_word(self, word, coeff, right, out):
            for w, c in self.reduce_terms({word + right: coeff}, strategy,
                                          rng=rng).items():
                algebra._accumulate(out, w, c)

        monkeypatch.setattr(GeneratorSystem, "times_word", times_word)
        monkeypatch.setattr(GeneratorSystem, "word_keys",
                            lambda self, word: (-1, 0, -1, 0))
    return use


@pytest.fixture(scope="session")
def alg2():
    return build(SuperspaceConfig(metric=MetricSignature.minkowski(2)))


@pytest.fixture(scope="session")
def alg4():
    return build(SuperspaceConfig(metric=MetricSignature.minkowski(4)))


@pytest.fixture(scope="session")
def corrupted_d2_runs():
    """``--suite all`` at d = 2 under each corruption, run once per session:
    {name: (spec, reports)}.  "kappa=1/3" corrupts the pairing, "p=3" gives
    every parafermion three Green components instead of two, "Px=-1"
    negates every contraction P_mu x^nu -> x^nu P_mu + c,
    "unit-weights" replaces the colour-bracket weights by six ones,
    "non-confluent" builds the cross-sector pairing with its construction
    check skipped, "d-eps1" contracts each d_mu component with eps1^mu
    (``eps1_pairing``), "theta-eps1" each theta^mu component with eps1^mu
    (``theta_eps1_pairing``), "d-d" each d_mu component with d_nu, mu < nu
    (``d_d_pairing``), "xP-odd" makes x^mu/P_mu anticommute with
    x^nu/P_nu, mu != nu (``xp_odd``), "xP-theta-odd" every x/P with every
    theta^mu/d_mu component (``xp_theta_odd``), "B00=1" builds the
    paper's commutation factor from ``B00_FORM``, and two corrupt the
    matrix oracle's Jordan-Wigner
    strings: "no-JW" empties every string, "cross-sector-JW" runs each over
    every later mode (the lower bits), not only those of its own sector.
    The ``KERNEL_MUTANTS`` of ``times_word`` run the engine suite alone:
    it is the suite whose checks no rule table can fail, and a broken
    kernel fails nearly every check of the others."""
    def p_x_negated(names, swap, contraction, square_zero):
        contraction = {(u, v): -c if names[u].startswith("P_") else c
                       for (u, v), c in contraction.items()}
        return GeneratorSystem(names, swap, contraction, square_zero)

    runs = {}
    spec = SuiteSpec("all", dimension=2, seed=0, kappa=Fraction(1, 3))
    runs["kappa=1/3"] = spec, run_suite(spec)
    for name, (module, attr, value) in {
            "p=3": (superspace, "GREEN_SECTORS", (0, 1, 2)),
            "Px=-1": (superspace, "GeneratorSystem", p_x_negated),
            "unit-weights": (colour, "col3_weights", lambda: (ONE,) * 6),
            "B00=1": (colour, "paper_factor",
                      lambda: colour.CommutationFactor(B00_FORM)),
            "non-confluent": (superspace, "GeneratorSystem", lambda *args:
                              UncheckedSystem(*cross_sector_pairing(*args))),
            **{name: (superspace, "GeneratorSystem",
                      lambda *args, rewrite=rewrite:
                      GeneratorSystem(*rewrite(*args)))
               for name, rewrite in (("d-eps1", eps1_pairing),
                                     ("theta-eps1", theta_eps1_pairing),
                                     ("d-d", d_d_pairing),
                                     ("xP-odd", xp_odd),
                                     ("xP-theta-odd", xp_theta_odd))},
            "no-JW": (matrixrep, "MatrixRep",
                      rewritten_strings(lambda bit, string: 0)),
            "cross-sector-JW": (matrixrep, "MatrixRep",
                                rewritten_strings(lambda bit, string: bit - 1)),
    }.items():
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(module, attr, value)
            spec = SuiteSpec("all", dimension=2)
            runs[name] = spec, run_suite(spec)
    for name, lines in KERNEL_MUTANTS.items():
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(GeneratorSystem, "times_word", kernel_mutant(*lines))
            spec = SuiteSpec("engine", dimension=2)
            runs[name] = spec, run_suite(spec)
    return runs
