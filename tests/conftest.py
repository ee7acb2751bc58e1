from fractions import Fraction

import pytest

from ternalg import colour, matrixrep, superspace
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


def eps1_pairing(names, swap, contraction, square_zero):
    """The rule table with each d_mu Green component also contracted, by 1,
    with the eps1^mu component of its own sector.  Both components have
    the same swap row, so the table stays confluent; V_i, which carries
    [eps_i, d], then no longer commutes with eps1."""
    ids = {name: g for g, name in enumerate(names)}
    contraction = dict(contraction)
    for name in names:
        if name.startswith("d_"):
            contraction[(ids["eps1^" + name[2:]], ids[name])] = 1
    return names, swap, contraction, square_zero


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
    (``eps1_pairing``), and two corrupt the matrix oracle's Jordan-Wigner
    strings: "no-JW" empties every string, "cross-sector-JW" runs each over
    every later mode (the lower bits), not only those of its own sector."""
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
            "non-confluent": (superspace, "GeneratorSystem", lambda *args:
                              UncheckedSystem(*cross_sector_pairing(*args))),
            "d-eps1": (superspace, "GeneratorSystem", lambda *args:
                       GeneratorSystem(*eps1_pairing(*args))),
            "no-JW": (matrixrep, "MatrixRep",
                      rewritten_strings(lambda bit, string: 0)),
            "cross-sector-JW": (matrixrep, "MatrixRep",
                                rewritten_strings(lambda bit, string: bit - 1)),
    }.items():
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(module, attr, value)
            spec = SuiteSpec("all", dimension=2)
            runs[name] = spec, run_suite(spec)
    return runs
