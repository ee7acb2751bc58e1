"""Ternary superspace built from order-two parafermions via the Green ansatz.

Every parafermionic name (the vector coordinates theta^mu, their conjugates
d_mu, the Lorentz-scalar theta, and the three transformation-parameter
families eps1..eps3) is realised as the sum of "Green components", one per
sector of ``GREEN_SECTORS`` (two sectors: order two).  Components in the
same Green sector anticommute pairwise (with a scalar contraction
kappa*delta between conjugate theta/d components and zero squares);
components in distinct sectors commute.  These quadratic rules have a
classical normal form, and the cubic parafermion and Roby relations become
theorems checked by reduction.

``SuperspaceAlgebra.components`` is the one generator layout, (cls, mu) ->
generator ids, and ``_label`` the one spelling of names; the matrix oracle,
the suites and the DSL read both instead of re-deriving them.

The sweeps ``para``, ``roby`` and ``psi.bracket`` take each slot as a
layout key ((cls, mu), or (s, mu) for psi_s mu), reduce once per orbit of
slot tuples (``_per_orbit``: sorted slots for {u, v, w}, slots 1-2 in
order and a sign for [[u, v], w]; ``roby`` sweeps the sorted triples
alone) and form each inner bracket once per call (``_pair_table``).
Every composite symbol (J, L, V, delta-x) is one ``sum_of_products``
call over its product pairs.  ``colour_action`` applies the leading V_i
once to the weighted sum of the two nested actions it leads (ad_V is
linear).

Spatial quotient.  The rule table, eta and V_1..V_3 are invariant under
S_{d-1}, which permutes the spatial indices 1..d-1, so a relation
instance vanishes iff its image under S_{d-1} does.  ``_sweep`` runs
``para``, ``roby``, ``closure.leib`` and ``closure.annihilate``
(degrees 1..3): it evaluates one tuple per orbit of (bracket symmetry x
S_{d-1}), enumerated directly with the spatial indices numbered in order
of first appearance, and passes the check if all are zero; if any is
nonzero it sweeps every tuple as before, so residual lists do not
change.  The symmetry is verified, not assumed: ``_spatial_symmetry``
checks once per algebra, on first use, that the transposition (1 2) and
the cycle (1 ... d-1), lifted to generator ids, preserve every swap sign,
contraction and square rule and fix each V_i.  If it refuses, or d <= 2
(a trivial group), every tuple is swept.  The right-hand sides read
indices only through Kronecker deltas; a test pins their covariance.
``psi.bracket``, ``poincare`` and ``trans`` sweep every tuple.  Each bracket
has one producer: ``trans`` and ``check_closure`` share the rows of
``ad_V``, and ``poincare.*`` and ``order3.superspace`` one
``poincare_brackets`` table.

Sign conventions
----------------
With kappa = 1/2 the trilinear relations come out with unit coefficient,
e.g. [[theta^mu, d_nu], theta^rho] = delta_nu^rho theta^mu.  The Lorentz
generator is oriented as

    J_{mu nu} = [theta_mu, d_nu] - [theta_nu, d_mu]

which is the orientation that makes the realised brackets [J, theta],
[L, P] and [L, L] match the cubic Poincare structure constants exactly
(the reversed orientation realises the same algebra on negated
generators).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import (TERNARY_ORDERINGS, Element, GeneratorSystem,
                      anticommutator, commutator, sum_of_products, sym3)
from .cyclo import Cyclo, ONE, Q
from .report import CheckReport

# generator classes, in canonical order (fermionic before bosonic)
CLS_THETA_SC = 0
CLS_THETA = 1
CLS_DEL = 2
CLS_EPS = (3, 4, 5)  # eps1, eps2, eps3
CLS_X = 6
CLS_P = 7


@dataclass(frozen=True)
class MetricSignature:
    """Diagonal flat metric; default is the mostly-minus (+,-,-,-)."""

    dimension: int = 4
    eta: tuple = (1, -1, -1, -1)

    def __post_init__(self):
        if len(self.eta) != self.dimension:
            raise ValueError("eta must have one entry per dimension")
        if any(e not in (1, -1) for e in self.eta):
            raise ValueError("eta entries must be +1 or -1")

    @classmethod
    def minkowski(cls, d: int = 4) -> "MetricSignature":
        return cls(d, (1,) + (-1,) * (d - 1))


@dataclass(frozen=True)
class SuperspaceConfig:
    metric: MetricSignature = field(default_factory=MetricSignature)
    pairing_kappa: Fraction = Fraction(1, 2)


# Green sectors: every parafermionic name is the sum of one component per
# sector; components commute across sectors and anticommute within one
GREEN_SECTORS = (0, 1)


def _label(cls, mu) -> str:
    """The one spelling of a name, as the DSL and the reports write it."""
    return ("theta", "theta^{}", "d_{}", "eps1^{}", "eps2^{}", "eps3^{}",
            "x^{}", "P_{}")[cls].format(mu)  # indexed by generator class


class SuperspaceAlgebra:
    """The generator system plus named accessors for every symbol.

    ``components`` maps (cls, mu) to generator ids: one per Green sector for
    a parafermionic name (fermionic names first, each followed by its
    sectors), then one each for x^mu and P_mu.  ``labels`` maps the same
    keys to their names, and ``symbols`` maps labels to elements.
    ``coordinate_keys`` lists the keys of the names "of the same nature as
    theta" (the scalar theta, theta^mu, eps_i^mu), in layout order.
    Immutable after construction; accessors return cached Elements.
    """

    def __init__(self, config: SuperspaceConfig):
        self.config = config
        self.dimension = config.metric.dimension
        self.eta = config.metric.eta
        d = self.dimension
        self.components = {}
        names, sectors = [], []  # per generator id

        fermionic = [(CLS_THETA_SC, 0)]
        fermionic += [(cls, mu) for cls in (CLS_THETA, CLS_DEL) + CLS_EPS
                      for mu in range(d)]
        for key in fermionic:
            self.components[key] = tuple(range(len(names),
                                               len(names) + len(GREEN_SECTORS)))
            names += [f"{_label(*key)}({g + 1})" for g in GREEN_SECTORS]
            sectors += GREEN_SECTORS
        self.n_fermionic = len(names)
        for key in [(cls, mu) for cls in (CLS_X, CLS_P) for mu in range(d)]:
            self.components[key] = (len(names),)
            names.append(_label(*key))

        swap = {(i, j): -1 for i, gi in enumerate(sectors)
                for j, gj in enumerate(sectors[:i]) if gi == gj}
        # conjugate pairing, component by component: [d_mu, theta^mu] in
        # each Green sector, then [P_mu, x^nu] = delta_mu^nu
        contraction = {}
        for (u_cls, v_cls), c in (((CLS_DEL, CLS_THETA),
                                   Cyclo(config.pairing_kappa)),
                                  ((CLS_P, CLS_X), ONE)):
            for mu in range(d):
                for u, v in zip(self.components[(u_cls, mu)],
                                self.components[(v_cls, mu)]):
                    contraction[(u, v)] = c
        square_zero = range(self.n_fermionic)
        self.system = GeneratorSystem(names, swap, contraction, square_zero)
        self._named = {key: Element(self.system,
                                    _normal={(g,): ONE for g in ids})
                       for key, ids in self.components.items()}
        self.labels = {key: _label(*key) for key in self.components}
        self.coordinate_keys = [key for key in self.components
                                if key[0] not in (CLS_DEL, CLS_X, CLS_P)]
        self.symbols = {self.labels[k]: el for k, el in self._named.items()}
        self._cache = {}

    # -- named symbols ---------------------------------------------------

    def theta(self, mu: int) -> Element:
        return self._named[(CLS_THETA, mu)]

    def theta_scalar(self) -> Element:
        return self._named[(CLS_THETA_SC, 0)]

    def d(self, mu: int) -> Element:
        """The conjugate d_mu of theta^mu."""
        return self._named[(CLS_DEL, mu)]

    def eps(self, i: int, mu: int) -> Element:
        if i not in (1, 2, 3):
            raise ValueError("parameter family index must be 1, 2 or 3")
        return self._named[(CLS_EPS[i - 1], mu)]

    def x(self, mu: int) -> Element:
        return self._named[(CLS_X, mu)]

    def P(self, mu: int) -> Element:
        return self._named[(CLS_P, mu)]

    def theta_lower(self, mu: int) -> Element:
        return self.theta(mu).scale(self.eta[mu])

    def eps_lower(self, i: int, mu: int) -> Element:
        return self.eps(i, mu).scale(self.eta[mu])

    def x_lower(self, mu: int) -> Element:
        return self.x(mu).scale(self.eta[mu])

    # -- composite symbols -----------------------------------------------

    def J(self, mu: int, nu: int) -> Element:
        key = ("J", mu, nu)
        if key not in self._cache:
            # - [theta_nu, d_mu] = [d_mu, theta_nu]
            self._cache[key] = sum_of_products(
                ((self.theta_lower(mu), self.d(nu)),
                 (self.d(mu), self.theta_lower(nu))), -1)
        return self._cache[key]

    def lorentz(self, mu: int, nu: int) -> Element:
        """L_{mu nu}: orbital piece plus the parafermionic J_{mu nu}."""
        key = ("L", mu, nu)
        if key not in self._cache:
            orbital = sum_of_products(((self.x_lower(mu), self.P(nu)),
                                       (-self.x_lower(nu), self.P(mu))))
            self._cache[key] = orbital + self.J(mu, nu)
        return self._cache[key]

    def psi(self, sign: int, mu: int) -> Element:
        if sign not in (1, -1):
            raise ValueError("psi sign must be +1 or -1")
        e = self.d(mu)
        return self.theta_lower(mu) + (e if sign == 1 else -e)

    def V(self, i: int) -> Element:
        """Ternary transformation generator for parameter family i: the sum
        over mu of [eps_i^mu, d_mu] + delta_x(i, mu) P_mu."""
        key = ("V", i)
        if key not in self._cache:
            # [eps, d] = eps d + (-d) eps, so every term is one product;
            # with no vector index (d = 0) the sum is empty
            pairs = [pair for mu in range(self.dimension)
                     for pair in ((self.eps(i, mu), self.d(mu)),
                                  (-self.d(mu), self.eps(i, mu)),
                                  (self.delta_x(i, mu), self.P(mu)))]
            self._cache[key] = (sum_of_products(pairs) if pairs
                                else Element.zero(self.system))
        return self._cache[key]

    def delta_x(self, i: int, alpha: int) -> Element:
        """The coordinate shift [theta, theta^mu][eps_i^alpha, theta_mu]."""
        key = ("dx", i, alpha)
        if key not in self._cache:
            th = self.theta_scalar()
            self._cache[key] = sum_of_products([
                (commutator(th, self.theta(mu)),
                 commutator(self.eps(i, alpha), self.theta_lower(mu)))
                for mu in range(self.dimension)])
        return self._cache[key]

    def ad_V(self, i: int, element: Element) -> Element:
        """[V_i, element] by the Leibniz rule.

        A commutator is a derivation, so on a word g_1...g_n it is the sum
        over k of g_1...g_{k-1} [V_i, g_k] g_{k+1}...g_n.  The table of
        [V_i, g] holds one row per generator g, each formed on first use
        and kept with the algebra; it is the only place [V_i, g] is
        formed, so ``trans`` and the closure sweeps share its rows.
        """
        table = self._cache.setdefault(("adV", i), {})
        times_word = self.system.times_word
        out: dict = {}
        for word, coeff in element.terms.items():
            for k, g in enumerate(word):
                row = table.get(g)
                if row is None:
                    row = table[g] = commutator(
                        self.V(i), Element.generator(self.system, g)).terms
                for w, c in row.items():
                    times_word(word[:k], coeff * c, w + word[k + 1:], out)
        return Element(self.system, _normal=out)


def build(config: SuperspaceConfig) -> SuperspaceAlgebra:
    """Construct the superspace algebra; fails if the rules are inconsistent."""
    return SuperspaceAlgebra(config)


# ----------------------------------------------------------------------
# Relation suites
# ----------------------------------------------------------------------

# Trilinear and fully symmetric families, one row each: (check id, slot
# pattern, relation).  A slot is a layout key (cls, mu); "N" ranges over
# ``coordinate_keys``, "D" over the keys of d_0..d_{d-1}.
DOUBLE_BRACKET_FAMILIES = (
    ("para1.1", "NNN", "[[a^mu, b^nu], c^rho] = 0"),
    ("para1.2", "NND",
     "[[a^mu, b^nu], d_rho] = -delta^mu_rho b^nu + delta^nu_rho a^mu"),
    ("para1.3", "NDN", "[[a^mu, d_nu], c^rho] = delta_nu^rho a^mu"),
    ("para1.4", "NDD", "[[a^mu, d_nu], d_rho] = -delta^mu_rho d_nu"),
    ("para1.5", "DDN",
     "[[d_mu, d_nu], c^rho] = -delta_mu^rho d_nu + delta_nu^rho d_mu"),
    ("para1.6", "DDD", "[[d_mu, d_nu], d_rho] = 0"),
)
SYM_BRACKET_FAMILIES = (
    ("para.1", "NNN", "{a^mu, b^nu, c^rho} = 0"),
    ("para.2", "NND",
     "{a^mu, b^nu, d_rho} = 2 delta^mu_rho b^nu + 2 delta^nu_rho a^mu"),
    ("para.3", "NDD",
     "{a^mu, d_nu, d_rho} = 2 delta^mu_nu d_rho + 2 delta^mu_rho d_nu"),
    ("para.4", "DDD", "{d_mu, d_nu, d_rho} = 0"),
)


def _pair_delta(u, v) -> int:
    """Unit contraction between two slot keys: 1 for theta^mu with d_mu.

    This encodes the reference coefficients of the trilinear relations
    (kappa = 1/2 makes the engine agree with them); it deliberately does
    NOT track the configured kappa, so a corrupted pairing shows up as a
    nonzero residual.
    """
    return int(u[1] == v[1] and {u[0], v[0]} == {CLS_THETA, CLS_DEL})


def _expected_double(alg, a, b, c) -> Element:
    # [[u, v], w] = 2 c(v,w) u - 2 c(u,w) v with reference pairing 1/2
    out = Element.zero(alg.system)
    if _pair_delta(b, c):
        out = out + alg._named[a]
    if _pair_delta(a, c):
        out = out - alg._named[b]
    return out


def _expected_sym(alg, a, b, c) -> Element:
    # {u, v, w} = 4 (c(v,w) u + c(u,w) v + c(u,v) w), reference pairing 1/2
    out = Element.zero(alg.system)
    for u, v, w in ((a, b, c), (b, a, c), (c, a, b)):
        if _pair_delta(v, w):
            out = out + alg._named[u].scale(2)
    return out


def _sorted_slots(t):
    """Symmetric bracket: both sides are invariant under slot permutations."""
    return tuple(sorted(t)), 1


def _ordered_12(t):
    """[[u, v], w]: both sides change sign when u and v swap."""
    return (t, 1) if t[0] <= t[1] else ((t[1], t[0], t[2]), -1)


def _per_orbit(tuples, canon, value):
    """(t, value(t)) for each slot tuple t, in sweep order, calling
    ``value`` once per orbit: ``canon(t)`` is the orbit representative r
    and the sign with value(t) = sign * value(r)."""
    values = {}  # one sweep's orbit representatives and their values
    for t in tuples:
        r, sign = canon(t)
        v = values.get(r)
        if v is None:
            v = values[r] = value(r)
        yield t, v if sign == 1 else -v


# the slot permutations of each bracket symmetry that ``_per_orbit`` reduces by
_SLOT_PERMUTATIONS = {_sorted_slots: tuple(itertools.permutations(range(3))),
                      _ordered_12: ((0, 1, 2), (1, 0, 2))}


def _is_automorphism(alg, sigma) -> bool:
    """Whether the index permutation ``sigma``, lifted to generator ids
    sector by sector through ``components``, maps the rule table onto
    itself (``GeneratorSystem.preserves_rules``) and each V_i to itself."""
    system = alg.system
    image = [0] * system.size()
    for (cls, mu), ids in alg.components.items():
        for g, h in zip(ids, alg.components[(cls, sigma[mu])]):
            image[g] = h
    return system.preserves_rules(image) and all(
        Element(system, {tuple(image[g] for g in w): c
                         for w, c in alg.V(i).terms.items()}) == alg.V(i)
        for i in (1, 2, 3))


def _spatial_symmetry(alg) -> bool:
    """Whether S_{d-1}, permuting the spatial indices 1..d-1, acts by
    automorphisms that fix V_1, V_2 and V_3 (d >= 3).  Checked on first
    use, once per algebra, on the two generators of S_{d-1}: the
    transposition (1 2) and the cycle (1 ... d-1)."""
    key = ("spatial",)
    if key not in alg._cache:
        d = alg.dimension
        alg._cache[key] = d > 2 and all(
            _is_automorphism(alg, sigma)
            for sigma in ((0, 2, 1, *range(3, d)), (0, *range(2, d), 1)))
    return alg._cache[key]


def _first_appearance(slots, ordered=(), prefix=(), top=0):
    """The tuples of ``product(*slots)`` whose spatial indices (mu >= 1 of
    each layout key (cls, mu)) are 1, 2, ... in order of first appearance,
    a restricted-growth string: one tuple per S_{d-1} orbit, since every
    slot list holds each of its classes at every index.  At each position
    in ``ordered``, (cls, mu > 0) does not decrease from the slot before."""
    n = len(prefix)
    if n == len(slots):
        yield prefix
        return
    low = (prefix[-1][0], prefix[-1][1] > 0) if n in ordered else None
    for key in slots[n]:
        if key[1] <= top + 1 and (low is None or (key[0], key[1] > 0) >= low):
            yield from _first_appearance(slots, ordered, prefix + (key,),
                                         max(top, key[1]))


def _relabel(t):
    """``t`` with its spatial indices renumbered 1, 2, ... in order of
    first appearance."""
    names = {0: 0}
    return tuple((cls, names.setdefault(mu, len(names))) for cls, mu in t)


def _representatives(slots, canon):
    """One tuple of ``product(*slots)`` per orbit of (bracket symmetry x
    S_{d-1}): of the first-appearance tuples, the first of each orbit of
    the slot permutations of ``canon`` (none for None), keyed by the least
    relabelling of its images.  Where the bracket swaps two neighbouring
    slots of one list, every orbit has a member with those two in
    (cls, mu > 0) order, so only such tuples are enumerated."""
    perms = _SLOT_PERMUTATIONS.get(canon)
    if perms is None:
        yield from _first_appearance(slots)
        return
    k = len(slots)
    ordered = {i for i in range(1, k) if slots[i] is slots[i - 1] and
               (*range(i - 1), i, i - 1, *range(i + 1, k)) in perms}
    seen = set()
    for t in _first_appearance(slots, ordered):
        key = min(_relabel([t[i] for i in p]) for p in perms)
        if key not in seen:
            seen.add(key)
            yield t


def _sweep(alg, slots, value, canon=None, tuples=None):
    """(t, value(t)) for the slot tuples t of one check, in sweep order;
    zero values may be left out.

    ``value`` must have the bracket symmetry ``canon`` and be covariant
    under S_{d-1}, so that zero-ness is constant on each orbit of both.
    When ``_spatial_symmetry`` verifies S_{d-1} (never at d <= 2, where it
    is trivial), ``value`` is first evaluated once per orbit
    representative; if every one is zero, so is every value, and nothing
    is yielded.  Otherwise the tuples of ``product(*slots)`` are swept as
    before, reduced once per ``canon`` orbit (``_per_orbit``), or else the
    given ``tuples``, one per bracket orbit, each reduced directly.
    """
    if _spatial_symmetry(alg) and not any(
            map(value, _representatives(slots, canon))):
        return
    if canon is None or tuples is not None:
        for t in itertools.product(*slots) if tuples is None else tuples:
            yield t, value(t)
    else:
        yield from _per_orbit(itertools.product(*slots), canon, value)


def _pair_table(element, bracket):
    """``inner(u, v)``: ``bracket`` of ``element(u)`` and ``element(v)``,
    formed once per ordered pair of keys.  The dict lives as long as the
    returned function: one check call, or one Poincare job."""
    table = {}

    def inner(u, v):
        value = table.get((u, v))
        if value is None:
            value = table[u, v] = bracket(element(u), element(v))
        return value
    return inner


def _sym_bracket(elements):
    """``value(t)``: {a, b, c} = a{b, c} + b{c, a} + c{a, b} at slot keys
    t = (a, b, c), as ``sym3`` sums it, each {u, v} from one pair table."""
    anti = _pair_table(elements.__getitem__, anticommutator)
    return lambda t: sum_of_products(((elements[t[0]], anti(t[1], t[2])),
                                      (elements[t[1]], anti(t[0], t[2])),
                                      (elements[t[2]], anti(t[0], t[1]))))


def check_parafermion_relations(alg: SuperspaceAlgebra) -> list[CheckReport]:
    """Reduce every trilinear and fully symmetric relation instance.

    Both the six double-commutator families and the four symmetric-bracket
    families are swept over every index tuple and over every mixture of
    theta-type and eps-type slot choices (``_sweep``): ``lhs - rhs`` is
    reduced once per orbit of (bracket symmetry x S_{d-1}), and, if any is
    nonzero, once per bracket orbit, every ordered tuple reported in sweep
    order with its residual rendered verbatim.
    The inner brackets [u, v] and {u, v} come from two pair tables shared
    by all ten families, so each is formed once per call.
    """
    elements, labels = alg._named, alg.labels
    slots = {"N": alg.coordinate_keys,
             "D": [(CLS_DEL, mu) for mu in range(alg.dimension)]}
    comm = _pair_table(elements.__getitem__, commutator)
    sym = _sym_bracket(elements)

    def double(t):
        return (commutator(comm(t[0], t[1]), elements[t[2]])
                - _expected_double(alg, *t))

    def symmetric(t):
        return sym(t) - _expected_sym(alg, *t)

    reports = []
    for families, canon, value in (
            (DOUBLE_BRACKET_FAMILIES, _ordered_12, double),
            (SYM_BRACKET_FAMILIES, _sorted_slots, symmetric)):
        for family_id, pattern, relation in families:
            with CheckReport(family_id, relation) as rep:
                for (a, b, c), v in _sweep(alg, [slots[kind] for kind in pattern],
                                           value, canon):
                    rep.expect_zero((labels[a], labels[b], labels[c]), v)
            reports.append(rep)
    return reports


def check_roby(alg: SuperspaceAlgebra) -> CheckReport:
    """The three-exterior relation once per orbit of S_{d-1} on sorted
    triples of names (``_sweep``), and, if any is nonzero, once for every
    sorted triple; each {u, v} is formed once from a pair table."""
    with CheckReport(
            "roby",
            "sum over the six orderings of eta^a eta^b eta^c vanishes, for "
            "every triple of coordinate-type names (theta^mu, theta, eps_i^mu; "
            "the conjugates d_mu are excluded since their symmetric brackets "
            "with theta are the nonzero pairing relations)") as rep:
        labels, keys = alg.labels, alg.coordinate_keys
        # coordinate_keys are in sorted order, so each triple is already
        # the sorted representative of its orbit
        for t, v in _sweep(alg, [keys] * 3, _sym_bracket(alg._named),
                           _sorted_slots,
                           itertools.combinations_with_replacement(keys, 3)):
            rep.expect_zero(tuple(labels[key] for key in t), v)
    return rep


def poincare_brackets(alg: SuperspaceAlgebra):
    """``comm(u, v)``: the commutator of the elements that the accessor
    keys u and v name, ("J", mu, nu) for ``alg.J(mu, nu)``, formed once per
    ordered pair for one Poincare job.  It calls the accessors, so a
    patched ``J`` is the one bracketed."""
    return _pair_table(lambda key: getattr(alg, key[0])(*key[1:]), commutator)


def _rotated(alg, vector, mu, nu, rho) -> Element:
    """eta_{nu rho} v_mu - eta_{mu rho} v_nu for v_a = ``vector(a)``: the
    right-hand side of [L_{mu nu}, v_rho], or of [J_{mu nu}, v_rho]."""
    eta = alg.eta
    return (vector(mu).scale(eta[nu] if nu == rho else 0)
            - vector(nu).scale(eta[mu] if mu == rho else 0))


def _expected_LL(alg, mu, nu, rho, sigma) -> Element:
    """[L_{mu nu}, L_{rho sigma}]: each index rotates as in ``_rotated``."""
    return (_rotated(alg, lambda a: alg.lorentz(a, sigma), mu, nu, rho)
            + _rotated(alg, lambda b: alg.lorentz(rho, b), mu, nu, sigma))


def check_poincare_realisation(alg: SuperspaceAlgebra,
                               comm) -> list[CheckReport]:
    """Brackets of the realised L, P, J against the cubic Poincare table,
    each read from ``comm`` (``poincare_brackets``)."""
    d = alg.dimension
    pairs = list(itertools.combinations(range(d), 2))

    with CheckReport("poincare.LL",
                     "[L_{mu nu}, L_{rho sigma}] = eta_{nu sigma} L_{rho mu}"
                     " - eta_{mu sigma} L_{rho nu} + eta_{nu rho} L_{mu sigma}"
                     " - eta_{mu rho} L_{nu sigma}") as rep:
        for (mu, nu), (rho, sigma) in itertools.product(pairs, repeat=2):
            rep.expect_zero((mu, nu, rho, sigma),
                            comm(("lorentz", mu, nu), ("lorentz", rho, sigma))
                            - _expected_LL(alg, mu, nu, rho, sigma))
    reports = [rep]

    for check_id, relation, op, vector in (
            ("poincare.LP", "[L_{mu nu}, P_rho] = eta_{nu rho} P_mu"
             " - eta_{mu rho} P_nu", "lorentz", "P"),
            ("poincare.Jtheta", "[J_{mu nu}, theta_rho] = eta_{nu rho} "
             "theta_mu - eta_{mu rho} theta_nu", "J", "theta_lower")):
        with CheckReport(check_id, relation) as rep:
            for (mu, nu), rho in itertools.product(pairs, range(d)):
                rhs = _rotated(alg, getattr(alg, vector), mu, nu, rho)
                rep.expect_zero((mu, nu, rho),
                                comm((op, mu, nu), (vector, rho)) - rhs)
        reports.append(rep)

    with CheckReport("poincare.PP", "[P_mu, P_nu] = 0") as rep:
        for mu, nu in pairs:
            rep.expect_zero((mu, nu), comm(("P", mu), ("P", nu)))
    reports.append(rep)

    with CheckReport("poincare.Ptheta",
                     "[P_mu, theta^nu] = 0 and [J_{mu nu}, theta] = 0") as rep:
        for mu, nu in itertools.product(range(d), repeat=2):
            rep.expect_zero(("P", mu, nu), comm(("P", mu), ("theta", nu)))
        for mu, nu in pairs:
            rep.expect_zero(("J-scalar", mu, nu),
                            comm(("J", mu, nu), ("theta_scalar",)))
    reports.append(rep)
    return reports


def _psi_base(alg: SuperspaceAlgebra, s: int, mu: int, nu: int,
              rho: int) -> Element:
    """4(eta_{mu nu} psi_s rho + eta_{nu rho} psi_s mu + eta_{rho mu} psi_s nu),
    symmetric in (mu, nu, rho)."""
    eta = alg.eta
    return (alg.psi(s, rho).scale(4 * eta[mu] if mu == nu else 0)
            + alg.psi(s, mu).scale(4 * eta[nu] if nu == rho else 0)
            + alg.psi(s, nu).scale(4 * eta[rho] if rho == mu else 0))


def check_psi_bracket(alg: SuperspaceAlgebra) -> CheckReport:
    """{psi_s, psi_s, psi_s} = (global sign) * s * 4 (eta psi + eta psi + eta psi).

    The overall sign is computed, asserted uniform over all index tuples and
    both values of s, and compared against the tabulated reference sign -1
    ("-/+ 4(...)"); the comparison is reported, not asserted.  The bracket
    is formed once per orbit of its slot keys (s, mu); every ordered tuple
    is still compared and reported.  The mixed bracket
    {psi_+, psi_+, psi_-} is computed and reported as well when d >= 2.
    """
    d = alg.dimension
    with CheckReport("psi.bracket",
                     "{psi_s mu, psi_s nu, psi_s rho} proportional to "
                     "4(eta_{mu nu} psi_s rho + eta_{nu rho} psi_s mu "
                     "+ eta_{rho mu} psi_s nu)") as rep:
        global_sign = None
        psis = {(s, mu): alg.psi(s, mu) for s in (1, -1) for mu in range(d)}
        tuples = [tuple((s, mu) for mu in idx) for s in (1, -1)
                  for idx in itertools.product(range(d), repeat=3)]
        for ((s, mu), (_, nu), (_, rho)), lhs in _per_orbit(
                tuples, _sorted_slots, _sym_bracket(psis)):
            base = _psi_base(alg, s, mu, nu, rho)
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
        rep.notes = (f"computed global sign {sign_txt} "
                     f"(i.e. bracket = sign * s * 4(...)); "
                     "tabulated reference prints the opposite overall sign -s; ")
        if d >= 2:
            mixed = min(2, d - 1)
            rep.notes += (f"mixed bracket {{psi+_0, psi+_1, psi-_{mixed}}} = "
                          + str(sym3(alg.psi(1, 0), alg.psi(1, 1),
                                     alg.psi(-1, mixed))))
        else:
            rep.notes += ("mixed bracket {psi+_0, psi+_1, psi-_2} "
                          "not formed: it needs psi^1, and d = 1")
    return rep


def check_superspace_transformation(alg: SuperspaceAlgebra) -> list[CheckReport]:
    """[V_i, theta^a] = eps_i^a, [V_i, x^a] = delta-x, and reality/centrality
    of the coordinate shifts.  Every [V_i, g] is read from the rows of
    ``ad_V``, which the closure suite reuses."""
    d = alg.dimension
    reports = []
    for check_id, relation, target, image in (
            ("trans.theta", "[V, theta^alpha] = eps^alpha", alg.theta, alg.eps),
            ("trans.x", "[V, x^alpha] = [theta, theta^mu][eps^alpha, theta_mu]",
             alg.x, alg.delta_x)):
        with CheckReport(check_id, relation) as rep:
            for i, a in itertools.product((1, 2, 3), range(d)):
                rep.expect_zero((i, a), alg.ad_V(i, target(a)) - image(i, a))
        reports.append(rep)

    with CheckReport("trans.eps", "[V_i, eps_j^alpha] = 0") as rep:
        for i, j, a in itertools.product((1, 2, 3), (1, 2, 3), range(d)):
            rep.expect_zero((i, j, a), alg.ad_V(i, alg.eps(j, a)))
    reports.append(rep)

    with CheckReport("trans.deltax",
                     "delta-x is star-fixed, commutes with itself and with "
                     "every theta/eps generator") as rep:
        dx = [alg.delta_x(1, a) for a in range(d)]
        for a in range(d):
            rep.expect_zero(("star", a), dx[a].star() - dx[a])
            for b in range(d):
                rep.expect_zero(("dxdx", a, b), commutator(dx[a], dx[b]))
            for key in alg.coordinate_keys:
                rep.expect_zero(("gen", a, alg.labels[key]),
                                commutator(dx[a], alg._named[key]))
    reports.append(rep)
    return reports


# reference coefficient pairing for the colour bracket on x^alpha, keyed by
# the quartic shape (j, k, l) ~ [theta, eps_j^mu][eps_k^alpha, eps_l_mu]
REFERENCE_QUARTIC_COEFFS = {
    (2, 3, 1): -(Q ** 2), (1, 3, 2): -(Q ** 2),
    (2, 1, 3): -ONE, (3, 1, 2): -ONE,
    (1, 2, 3): -Q, (3, 2, 1): -Q,
}
# the coefficients realised by the nesting convention of ``colour_action``
# ([V_p1, [V_p2, [V_p3, x]]] with the rightmost V acting first): the same
# multiset as the reference, paired differently with the shapes
REALISED_QUARTIC_COEFFS = {
    (2, 3, 1): -(Q ** 2), (1, 3, 2): -(Q ** 2),
    (3, 1, 2): -Q, (2, 1, 3): -Q,
    (1, 2, 3): -ONE, (3, 2, 1): -ONE,
}

DEGREE4_SAMPLES = 8  # theta monomials that ``closure.annihilate`` draws


def _quartic_shape(alg: SuperspaceAlgebra, j: int, k: int, l: int,
                   alpha: int) -> Element:
    """[theta, eps_j^mu][eps_k^alpha, eps_l_mu], summed over mu."""
    th = alg.theta_scalar()
    return sum_of_products([(commutator(th, alg.eps(j, mu)),
                             commutator(alg.eps(k, alpha), alg.eps_lower(l, mu)))
                            for mu in range(alg.dimension)])


def colour_action(alg: SuperspaceAlgebra, weights, target: Element) -> Element:
    """Weighted sum of the six nested-commutator actions of (V1, V2, V3).

    Weight order follows the ternary-bracket ordering convention
    (123, 231, 312, 132, 213, 321); nesting is [V_p1, [V_p2, [V_p3, target]]].
    Each ordering's innermost [V_p3, target] is one of three, formed once per
    call.  ad_V is linear, so the two orderings (i, j, k) and (i, k, j) that
    share the leading V_i are summed before it is applied: 12 ad_V calls
    instead of 15.
    """
    innermost = [alg.ad_V(k + 1, target) for k in range(3)]
    out = Element.zero(alg.system)
    for n, (i, j, k) in enumerate(TERNARY_ORDERINGS[:3]):
        # ordering n + 3 is (i, k, j)
        inner = (alg.ad_V(j + 1, innermost[k]).scale(weights[n])
                 + alg.ad_V(k + 1, innermost[j]).scale(weights[n + 3]))
        out = out + alg.ad_V(i + 1, inner)
    return out


def _expected_leib(alg, a1, a2, a3) -> Element:
    """The symmetric sum of eps_i^a1 eps_j^a2 eps_k^a3 over (i, j, k)."""
    return sum_of_products([(alg.eps(i, a1) * alg.eps(j, a2), alg.eps(k, a3))
                            for i, j, k in itertools.permutations((1, 2, 3))])


def check_closure(alg: SuperspaceAlgebra, col3_weights,
                  seed: int = 0) -> list[CheckReport]:
    """Closure of the coloured algebra on the superspace.

    (a) the triple nested action on theta^a theta^b theta^c equals the
    six-term symmetric eps product; (b) the colour bracket annihilates
    theta monomials of degree 1..4 (degree 4 on a seeded index sample);
    (c) the colour bracket on x^alpha decomposes over the six quartic
    shapes with coefficient multiset {-1, -1, -q, -q, -q^2, -q^2};
    (d) that element is not star-fixed.  (a) and degrees 1..3 of (b) are
    reduced once per S_{d-1} orbit of index tuples first (``_sweep``).
    """
    d = alg.dimension
    reports = []
    thetas = [(CLS_THETA, mu) for mu in range(d)]

    def monomial(t):  # theta^mu1 ... theta^muk at slot keys (CLS_THETA, mu)
        out = alg._named[t[0]]
        for key in t[1:]:
            out = out * alg._named[key]
        return out

    def leib(t):
        lhs = alg.ad_V(1, alg.ad_V(2, alg.ad_V(3, monomial(t))))
        return lhs - _expected_leib(alg, *(mu for _, mu in t))

    def annihilated(t):
        return colour_action(alg, col3_weights, monomial(t))

    with CheckReport("closure.leib",
                     "[V_1,[V_2,[V_3, theta^a1 theta^a2 theta^a3]]] equals the "
                     "symmetric sum of eps_i^a1 eps_j^a2 eps_k^a3") as rep:
        for t, v in _sweep(alg, [thetas] * 3, leib):
            rep.expect_zero(tuple(mu for _, mu in t), v)
    reports.append(rep)

    with CheckReport("closure.annihilate",
                     "the colour bracket of (V_1, V_2, V_3) annihilates "
                     "theta monomials of degree 1..4") as rep:
        # Degrees 1 and 2 are zero for any weights: three nested ad_V need
        # three theta letters.  They stay as part of the paper's claim and the
        # report; test_colour_action_matches_nested_sum pins that they vanish.
        for degree in (1, 2, 3):
            for t, v in _sweep(alg, [thetas] * degree, annihilated):
                rep.expect_zero((degree,) + tuple(mu for _, mu in t), v)
        rng = random.Random(seed)
        tuples4 = sorted({tuple(rng.randrange(d) for _ in range(4))
                          for _ in range(DEGREE4_SAMPLES)})
        for tup in tuples4:
            rep.expect_zero((4,) + tup,
                            annihilated([(CLS_THETA, mu) for mu in tup]))
        rep.notes = f"degree-4 index tuples sampled with seed {seed}: {tuples4}"
    reports.append(rep)

    with CheckReport("closure.deltax",
                     "colour bracket on x^alpha equals a sum of six quartic "
                     "[theta,eps][eps,eps] shapes with coefficient multiset "
                     "{-1,-1,-q,-q,-q^2,-q^2}") as rep:
        for alpha in range(d):
            a_alpha = colour_action(alg, col3_weights, alg.x(alpha))
            recomposed = Element.zero(alg.system)
            for (j, k, l), coeff in REALISED_QUARTIC_COEFFS.items():
                recomposed = recomposed + _quartic_shape(alg, j, k, l, alpha).scale(coeff)
            rep.expect_zero((alpha,), a_alpha - recomposed)
            if not (a_alpha.star() - a_alpha):
                rep.add_residual(("star", alpha),
                                 "colour bracket on x^alpha is star-fixed; "
                                 "expected a genuinely complex element")
        rep.notes = ("coefficient multiset matches the reference; "
                     "term-by-term pairing under rightmost-first nesting "
                     "does NOT match the reference tabulation")
    reports.append(rep)

    with CheckReport("closure.symmetric",
                     "the triple nested action on a theta monomial is "
                     "symmetric under permuting the V labels") as rep:
        probes = [(0, 0, 1)]
        if d == 1:
            probes = []
            rep.notes = "probe (0, 0, 1) skipped: it needs theta^1, and d = 1"
        if d >= 3:
            probes.append((0, 1, 2))
        if d >= 4:
            probes.append((1, 2, 3))
        for a1, a2, a3 in probes:
            target = alg.theta(a1) * alg.theta(a2) * alg.theta(a3)
            base = alg.ad_V(1, alg.ad_V(2, alg.ad_V(3, target)))
            for i, j, k in itertools.permutations((1, 2, 3)):
                res = alg.ad_V(i, alg.ad_V(j, alg.ad_V(k, target))) - base
                rep.expect_zero((a1, a2, a3), res)
    reports.append(rep)
    return reports
