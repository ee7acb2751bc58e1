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

The relation checks read their slot tuples through one ``_sweep``.  A slot
key is a tag followed by indices: a layout key (cls, mu) for ``para``,
``roby`` and the closure sweeps, (s, mu) for psi_s mu, a
``poincare_brackets`` accessor key with its index pair sorted
(("lorentz", mu, nu), ("P", rho), ...) for ``poincare``, and the
index-only (None, alpha) for ``trans``.  One memo, ``_orbit_table``, forms
a value once per orbit of a signed slot symmetry (``_sorted_slots`` for
{u, v} and {u, v, w}, ``_ordered_12`` with a sign for [u, v] and
[[u, v], w]); each ``_pair_table`` is one.  ``roby`` is ``para.1``'s sweep
reported on its sorted triples.  Every composite symbol (J, L, V,
delta-x) is one ``sum_of_products`` call over its product pairs.

Symmetry quotient.  Two groups act on the slot keys by automorphisms of
the rule table: Sym(F), which permutes the 1 + 3d free keys F (the scalar
theta and every eps_i^mu, which contract with nothing and share one
sector-sign structure), and S_{d-1}, which permutes the spatial indices
1..d-1 and fixes eta and V_1..V_3.  A relation instance vanishes iff its
image does, so ``_sweep`` reads one tuple per orbit first and every tuple,
through the same memo, only if one is nonzero.  Each group is verified
once per algebra on its two generators (``_name_symmetry``,
``_spatial_symmetry``).  Three loops stay outside ``_sweep``, each with
its reason: ``trans.deltax``, ``closure.deltax`` and
``closure.symmetric``.  Each bracket has one producer: ``trans`` and
``check_closure`` share the rows of ``ad_V``; the closure checks read each
[V_i, [V_j, [V_k, t]]] from one ``nested_actions`` table per target t;
``poincare.*`` and ``order3.superspace`` share one ``poincare_brackets``
table; and every ``_pair_table`` (the para, roby and psi sweeps, the
Poincare job, delta-x and the quartic shapes) forms each unordered pair of
keys once, answering the reversed pair from it.

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

import functools
import itertools
from fractions import Fraction

from .algebra import (TERNARY_ORDERINGS, Element, GeneratorSystem,
                      anticommutator, commutator, linear_combination,
                      sum_of_products, sym3)
from .cyclo import Cyclo, ONE, Q
from .record import FrozenRecord
from .report import CheckReport

# generator classes, in canonical order (fermionic before bosonic)
CLS_THETA_SC = 0
CLS_THETA = 1
CLS_DEL = 2
CLS_EPS = (3, 4, 5)  # eps1, eps2, eps3
CLS_X = 6
CLS_P = 7
CLS_FREE = (CLS_THETA_SC, *CLS_EPS)  # the free keys' classes (``_sweep``)


class MetricSignature(FrozenRecord):
    """Diagonal flat metric; default is the mostly-minus (+,-,-,-)."""

    _fields = ("dimension", "eta")

    def __init__(self, dimension: int = 4, eta: tuple = (1, -1, -1, -1)):
        if len(eta) != dimension:
            raise ValueError("eta must have one entry per dimension")
        if any(e not in (1, -1) for e in eta):
            raise ValueError("eta entries must be +1 or -1")
        self._set(dimension=dimension, eta=eta)

    @classmethod
    def minkowski(cls, d: int = 4) -> "MetricSignature":
        return cls(d, (1,) + (-1,) * (d - 1))


class SuperspaceConfig(FrozenRecord):
    _fields = ("metric", "pairing_kappa")

    def __init__(self, metric: MetricSignature = MetricSignature(),
                 pairing_kappa: Fraction = Fraction(1, 2)):
        self._set(metric=metric, pairing_kappa=pairing_kappa)


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
    return linear_combination(alg.system, (
        (_pair_delta(b, c), alg._named[a]),
        (-_pair_delta(a, c), alg._named[b])))


def _expected_sym(alg, a, b, c) -> Element:
    # {u, v, w} = 4 (c(v,w) u + c(u,w) v + c(u,v) w), reference pairing 1/2
    return linear_combination(alg.system, (
        (2 * _pair_delta(v, w), alg._named[u])
        for u, v, w in ((a, b, c), (b, a, c), (c, a, b))))


def _sorted_slots(t):
    """Symmetric bracket: both sides are invariant under slot permutations."""
    return tuple(sorted(t)), 1


def _identity(t):
    """No bracket symmetry: each tuple is its own orbit."""
    return t, 1


def _ordered_12(t):
    """[u, v] or [[u, v], w]: both sides change sign when u and v swap."""
    return (t, 1) if t[0] <= t[1] else ((t[1], t[0], *t[2:]), -1)


def _orbit_table(value, canon):
    """``lookup(t)`` = value(t) for slot tuples t, forming ``value`` once
    per orbit: ``canon(t)`` is the orbit representative r and the sign
    with value(t) = sign * value(r).  The memo lives as long as the
    returned function: one check call or Poincare job."""
    values = {}

    def lookup(t):
        r, sign = canon(t)
        v = values.get(r)
        if v is None:
            v = values[r] = value(r)
        return v if sign == 1 else -v
    return lookup


def _is_automorphism(alg, move, fixes_V) -> bool:
    """Whether the layout-key map ``move``, lifted to generator ids sector
    by sector through ``components``, maps the rule table onto itself
    (``GeneratorSystem.preserves_rules``) and, if ``fixes_V``, each V_i to
    itself.  Each mapped term map is compared with V_i's, which is normal,
    so equal maps are equal elements, and a mismatch can only refuse."""
    system = alg.system
    image = [0] * system.size()
    for key, ids in alg.components.items():
        for g, h in zip(ids, alg.components[move(key)]):
            image[g] = h
    return system.preserves_rules(image) and (not fixes_V or all(
        {tuple(image[g] for g in w): c for w, c in terms.items()} == terms
        for terms in (alg.V(i).terms for i in (1, 2, 3))))


def _spatial_symmetry(alg) -> bool:
    """Whether S_{d-1}, permuting the spatial indices 1..d-1, acts by
    automorphisms that fix V_1, V_2 and V_3 (d >= 3).  Checked on first
    use, once per algebra, on the two generators of S_{d-1}: the
    transposition (1 2) and the cycle (1 ... d-1)."""
    key = ("spatial",)
    if key not in alg._cache:
        d = alg.dimension
        alg._cache[key] = d > 2 and all(
            _is_automorphism(alg, lambda k: (k[0], sigma[k[1]]), True)
            for sigma in ((0, 2, 1, *range(3, d)), (0, *range(2, d), 1)))
    return alg._cache[key]


def _name_symmetry(alg) -> dict:
    """The free keys F, those of theta and of every eps_i^mu, each mapped
    to its place in layout order, if Sym(F), permuting them, acts by
    automorphisms of the rule table; otherwise {}.  Checked on first use,
    once per algebra, on the two generators of Sym(F): the transposition
    (f_0 f_1) and the cycle (f_0 ... f_{n-1}).  V_i is not fixed (it reads
    eps_i^mu), and need not be: the para and roby values never read it."""
    key = ("names",)
    if key not in alg._cache:
        free = [k for k in alg.components if k[0] in CLS_FREE]
        swap = dict(zip(free[:2], free[1::-1]))
        cycle = dict(zip(free, free[1:] + free[:1]))
        live = len(free) > 1 and all(
            _is_automorphism(alg, lambda k: move.get(k, k), False)
            for move in (swap, cycle))
        alg._cache[key] = {k: n for n, k in enumerate(free)} if live else {}
    return alg._cache[key]


def _indices(t):
    """The indices of a slot tuple: every entry after each key's tag."""
    return tuple(mu for key in t for mu in key[1:])


def _first_appearance(slots, free, spatial, prefix=(), seen=0, top=0):
    """The tuples of ``product(*slots)``, in product order, whose free keys
    (``free`` maps each to its place n in F) are F_0, F_1, ... in order of
    first appearance and, if ``spatial``, whose spatial indices (each
    mu >= 1 after a non-free key's tag, read in order) are 1, 2, ... in
    order of first appearance: restricted-growth strings, one tuple per
    orbit of the live group (Sym(F) x S_{d-1}, either one, or the trivial
    group), since every slot list holds each of its tags at every index and
    all of F or none of it.  A pair key (tag, mu, nu), mu < nu, is closed
    under S_{d-1} once each image pair is re-sorted: if its value changes
    only sign with the order of the pair, each orbit holds at least one
    yielded tuple (its least in product order)."""
    n = len(prefix)
    if n == len(slots):
        yield prefix
        return
    for key in slots[n]:
        rank = free.get(key)
        if rank is None:
            grown = top
            for mu in key[1:] if spatial else ():
                if mu > grown + 1:
                    break
                grown = max(grown, mu)
            else:
                yield from _first_appearance(slots, free, spatial,
                                             prefix + (key,), seen, grown)
        elif rank <= seen:
            yield from _first_appearance(slots, free, spatial, prefix + (key,),
                                         max(seen, rank + 1), top)


def _sweep(alg, slots, value, canon=_identity):
    """(t, value(t)) for the slot tuples t of ``product(*slots)``, in
    sweep order; zero values may be left out.

    ``value`` is read through one ``_orbit_table`` of ``canon``, so it is
    formed at most once per bracket orbit.  It is first read at one tuple
    per orbit of the live group (``_first_appearance``): Sym(F) if
    ``_name_symmetry`` verifies it and a slot holds a free key, times
    S_{d-1} if ``_spatial_symmetry`` does (never at d <= 2); with neither,
    at every tuple.  If all are zero nothing is yielded.  That verdict
    rests on ``value`` having both symmetries: the gates verify the rule
    table and V_i, and tests pin the covariance of the composites and the
    right-hand sides that values read.  Sym(F) does not fix V_i, which the
    closure and trans values read; no slot of theirs holds a free key.
    Otherwise every tuple is swept through the same memo; these residual
    lists rest on neither symmetry.
    """
    free = _name_symmetry(alg) if any(
        key[0] in CLS_FREE for keys in slots for key in keys) else {}
    lookup = _orbit_table(value, canon)
    if not any(map(lookup, _first_appearance(slots, free,
                                             _spatial_symmetry(alg)))):
        return
    for t in itertools.product(*slots):
        yield t, lookup(t)


def _expect_swept(rep, alg, slots, value, prefix=(), canon=_identity):
    """``rep.expect_zero`` on ``_sweep``, at ``prefix`` + ``_indices(t)``."""
    for t, v in _sweep(alg, slots, value, canon):
        rep.expect_zero(prefix + _indices(t), v)


def _pair_table(element, sign):
    """``inner(u, v)``: the commutator (``sign`` -1) or anticommutator (+1)
    of ``element(u)`` and ``element(v)``, an ``_orbit_table`` of the
    bracket's symmetry, so each unordered pair of keys is formed once.  A
    commutator [u, u] is zero without being formed (x x - x x cancels
    under any rule table)."""
    bracket, canon = ((commutator, _ordered_12) if sign < 0
                      else (anticommutator, _sorted_slots))
    lookup = _orbit_table(lambda t: bracket(element(t[0]), element(t[1])),
                          canon)

    def inner(u, v):
        if u == v and sign < 0:
            return Element.zero(element(u).system)
        return lookup((u, v))
    return inner


def _sym_bracket(elements):
    """``value(t)``: {a, b, c} = a{b, c} + b{c, a} + c{a, b} at slot keys
    t = (a, b, c), as ``sym3`` sums it, each {u, v} from one pair table."""
    anti = _pair_table(elements.__getitem__, 1)
    return lambda t: sum_of_products(((elements[t[0]], anti(t[1], t[2])),
                                      (elements[t[1]], anti(t[0], t[2])),
                                      (elements[t[2]], anti(t[0], t[1]))))


def check_parafermion_relations(alg: SuperspaceAlgebra) -> list[CheckReport]:
    """Reduce every trilinear and fully symmetric relation instance.

    Both the six double-commutator families and the four symmetric-bracket
    families are swept over every index tuple and over every mixture of
    theta-type and eps-type slot choices (``_sweep``): ``lhs - rhs`` is
    read once per orbit of Sym(F) x S_{d-1}, and, if any is nonzero, at
    every ordered tuple, reported in sweep order with its residual
    rendered verbatim; either way it is formed once per bracket orbit.
    The inner brackets [u, v] and {u, v} come from two pair tables shared
    by all ten families, so each is formed once per call.
    """
    elements, labels = alg._named, alg.labels
    slots = {"N": alg.coordinate_keys,
             "D": [(CLS_DEL, mu) for mu in range(alg.dimension)]}
    comm = _pair_table(elements.__getitem__, -1)
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
    """The three-exterior relation, the six-ordering sum {a, b, c} = 0 on
    coordinate-type names: ``para.1``'s sweep (``_sweep``), reported on its
    non-decreasing triples.  Its memo forms each {a, b, c} at the sorted
    member of its orbit, so every bracket formed is one of a sorted
    triple."""
    with CheckReport(
            "roby",
            "sum over the six orderings of eta^a eta^b eta^c vanishes, for "
            "every triple of coordinate-type names (theta^mu, theta, eps_i^mu; "
            "the conjugates d_mu are excluded since their symmetric brackets "
            "with theta are the nonzero pairing relations)") as rep:
        labels = alg.labels
        for t, v in _sweep(alg, [alg.coordinate_keys] * 3,
                           _sym_bracket(alg._named), _sorted_slots):
            if t[0] <= t[1] <= t[2]:
                rep.expect_zero(tuple(labels[key] for key in t), v)
    return rep


def poincare_brackets(alg: SuperspaceAlgebra):
    """``comm(u, v)``: the commutator of the elements that the accessor
    keys u and v name, ("J", mu, nu) for ``alg.J(mu, nu)``, formed once per
    unordered pair for one Poincare job.  It calls the accessors, so a
    patched ``J`` is the one bracketed."""
    return _pair_table(lambda key: getattr(alg, key[0])(*key[1:]), -1)


def _rotated(alg, vector, mu, nu, rho) -> Element:
    """eta_{nu rho} v_mu - eta_{mu rho} v_nu for v_a = ``vector(a)``: the
    right-hand side of [L_{mu nu}, v_rho], or of [J_{mu nu}, v_rho]."""
    return linear_combination(alg.system, _rotation(alg, vector, mu, nu, rho))


def _rotation(alg, vector, mu, nu, rho):
    """The nonzero (coefficient, element) pairs of ``_rotated``."""
    eta = alg.eta
    return [(c, vector(a)) for c, a in (
        (eta[nu] if nu == rho else 0, mu),
        (-eta[mu] if mu == rho else 0, nu)) if c]


def _expected_LL(alg, mu, nu, rho, sigma) -> Element:
    """[L_{mu nu}, L_{rho sigma}]: each index rotates as in ``_rotated``."""
    return linear_combination(alg.system, (
        _rotation(alg, lambda a: alg.lorentz(a, sigma), mu, nu, rho)
        + _rotation(alg, lambda b: alg.lorentz(rho, b), mu, nu, sigma)))


def check_poincare_realisation(alg: SuperspaceAlgebra,
                               comm) -> list[CheckReport]:
    """Brackets of the realised L, P, J against the cubic Poincare table,
    each read from ``comm`` (``poincare_brackets``) through ``_sweep``, at
    its accessor keys with each index pair sorted; ("P", mu, nu) is the
    pair [P_mu, P_nu]."""
    d = alg.dimension
    pairs = list(itertools.combinations(range(d), 2))
    L, J, PP = ([(tag, *p) for p in pairs] for tag in ("lorentz", "J", "P"))
    P, theta_lower, theta = ([(tag, rho) for rho in range(d)]
                             for tag in ("P", "theta_lower", "theta"))

    def against(rhs, *args):
        return lambda t: comm(*t) - rhs(alg, *args, *_indices(t))

    reports = []
    for check_id, relation, sweeps in (
            ("poincare.LL", "[L_{mu nu}, L_{rho sigma}] = eta_{nu sigma} "
             "L_{rho mu} - eta_{mu sigma} L_{rho nu} + eta_{nu rho} "
             "L_{mu sigma} - eta_{mu rho} L_{nu sigma}",
             [([L, L], against(_expected_LL))]),
            ("poincare.LP", "[L_{mu nu}, P_rho] = eta_{nu rho} P_mu"
             " - eta_{mu rho} P_nu", [([L, P], against(_rotated, alg.P))]),
            ("poincare.Jtheta", "[J_{mu nu}, theta_rho] = eta_{nu rho} "
             "theta_mu - eta_{mu rho} theta_nu",
             [([J, theta_lower], against(_rotated, alg.theta_lower))]),
            ("poincare.PP", "[P_mu, P_nu] = 0",
             [([PP], lambda t: comm(("P", t[0][1]), ("P", t[0][2])))]),
            ("poincare.Ptheta",
             "[P_mu, theta^nu] = 0 and [J_{mu nu}, theta] = 0",
             [([P, theta], lambda t: comm(*t), ("P",)),
              ([J, [("theta_scalar",)]], lambda t: comm(*t), ("J-scalar",))])):
        with CheckReport(check_id, relation) as rep:
            for sweep in sweeps:
                _expect_swept(rep, alg, *sweep)
        reports.append(rep)
    return reports


def _psi_base(alg: SuperspaceAlgebra, s: int, mu: int, nu: int,
              rho: int) -> Element:
    """4(eta_{mu nu} psi_s rho + eta_{nu rho} psi_s mu + eta_{rho mu} psi_s nu),
    symmetric in (mu, nu, rho)."""
    eta = alg.eta
    return linear_combination(alg.system, (
        (4 * eta[a], alg.psi(s, c)) for a, b, c in (
            (mu, nu, rho), (nu, rho, mu), (rho, mu, nu)) if a == b))


def check_psi_bracket(alg: SuperspaceAlgebra) -> CheckReport:
    """{psi_s, psi_s, psi_s} = (global sign) * s * 4 (eta psi + eta psi + eta psi).

    The overall sign is computed, asserted uniform over all index tuples and
    both values of s, and compared against the tabulated reference sign -1
    ("-/+ 4(...)"); the comparison is reported, not asserted.  The global
    sign is the first match in sweep order, and each residual text is
    formed once per sorted triple of slot keys (s, mu).  The mixed bracket
    {psi_+, psi_+, psi_-} is computed and reported as well when d >= 2.
    """
    d = alg.dimension
    with CheckReport("psi.bracket",
                     "{psi_s mu, psi_s nu, psi_s rho} proportional to "
                     "4(eta_{mu nu} psi_s rho + eta_{nu rho} psi_s mu "
                     "+ eta_{rho mu} psi_s nu)") as rep:
        psis = {(s, mu): alg.psi(s, mu) for s in (1, -1) for mu in range(d)}
        bracket = _orbit_table(_sym_bracket(psis), _sorted_slots)
        slots = {s: [[(s, mu) for mu in range(d)]] * 3 for s in (1, -1)}

        def base(t):
            return _psi_base(alg, t[0][0], *_indices(t))

        def match(t):
            """The c with bracket = c * s * base; 0 if none (or base is 0)."""
            b = base(t)
            return next((c for c in (1, -1)
                         if b and not bracket(t) - b.scale(c * t[0][0])), 0)
        match = _orbit_table(match, _sorted_slots)
        global_sign = next((c for s in (1, -1) for _, c in
                            _sweep(alg, slots[s], match, _sorted_slots) if c),
                           None)

        def residual(t):
            c = match(t)
            if c:
                return "" if c == global_sign else f"sign flips to {c:+d}"
            b = base(t)
            diff = bracket(t) - b
            return f"{diff} (no uniform sign)" if b else str(diff or "")
        for s in (1, -1):
            _expect_swept(rep, alg, slots[s], residual, (s,), _sorted_slots)
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
    alphas, V = [[(None, a) for a in range(d)]], [(1,), (2,), (3,)]
    reports = []
    for check_id, relation, families, value in (
            ("trans.theta", "[V, theta^alpha] = eps^alpha", V,
             lambda i, a: alg.ad_V(i, alg.theta(a)) - alg.eps(i, a)),
            ("trans.x", "[V, x^alpha] = [theta, theta^mu][eps^alpha, theta_mu]",
             V, lambda i, a: alg.ad_V(i, alg.x(a)) - alg.delta_x(i, a)),
            ("trans.eps", "[V_i, eps_j^alpha] = 0",
             itertools.product((1, 2, 3), repeat=2),
             lambda i, j, a: alg.ad_V(i, alg.eps(j, a)))):
        with CheckReport(check_id, relation) as rep:
            for labels in families:
                _expect_swept(rep, alg, alphas,
                              lambda t: value(*labels, *_indices(t)), labels)
        reports.append(rep)

    with CheckReport("trans.deltax",
                     "delta-x is star-fixed, commutes with itself and with "
                     "every theta/eps generator") as rep:
        # a loop of its own: the "gen" rows hold free keys, and delta-x
        # reads eps_1, which Sym(F) moves
        dx = [alg.delta_x(1, a) for a in range(d)]
        dxdx = _pair_table(dx.__getitem__, -1)
        for a in range(d):
            rep.expect_zero(("star", a), dx[a].star() - dx[a])
            for b in range(d):
                rep.expect_zero(("dxdx", a, b), dxdx(a, b))
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

def _nested(alg, memo, labels):
    if labels not in memo:
        memo[labels] = alg.ad_V(labels[0], _nested(alg, memo, labels[1:]))
    return memo[labels]


def nested_actions(alg: SuperspaceAlgebra, target: Element):
    """``act(labels)`` = [V_l1, [V_l2, [..., target]]], act(()) = target;
    each is one ``ad_V`` on its inner action, formed once per ``act``."""
    return functools.partial(_nested, alg, {(): target})


def colour_action(alg: SuperspaceAlgebra, weights, act) -> Element:
    """Sum of w_p act(p) (``nested_actions``) over the orderings p in the
    ternary-bracket convention (123, 231, 312, 132, 213, 321).  ad_V is
    linear, so (i, j, k) and (i, k, j) are summed before their leading V_i
    is applied: 12 ad_V calls on a fresh ``act`` instead of 15."""
    return linear_combination(alg.system, [
        (1, alg.ad_V(i + 1, linear_combination(alg.system, (
            (weights[n], act((j + 1, k + 1))),
            (weights[n + 3], act((k + 1, j + 1)))))))
        for n, (i, j, k) in enumerate(TERNARY_ORDERINGS[:3])])


def _expected_leib(alg, a1, a2, a3) -> Element:
    """The symmetric sum of eps_i^a1 eps_j^a2 eps_k^a3 over (i, j, k)."""
    return sum_of_products([(alg.eps(i, a1) * alg.eps(j, a2), alg.eps(k, a3))
                            for i, j, k in itertools.permutations((1, 2, 3))])


def check_closure(alg: SuperspaceAlgebra, col3_weights) -> list[CheckReport]:
    """Closure of the coloured algebra on the superspace.

    (a) the triple nested action on theta^a theta^b theta^c equals the
    six-term symmetric eps product; (b) the colour bracket annihilates
    theta monomials of every degree, swept at degrees 1..3; (c) the colour
    bracket on x^alpha decomposes over the six quartic shapes with
    coefficient multiset {-1, -1, -q, -q, -q^2, -q^2}; (d) that element is
    not star-fixed; (e) [V_j, [V_k, theta^mu]] = 0 (the lemma), and three
    probe monomials' nested actions are symmetric in the V labels.  (a) and
    (b) are reduced once per S_{d-1} orbit first (``_sweep``); every nested
    action on a theta monomial comes from one ``nested_actions`` per tuple.
    """
    d = alg.dimension
    reports = []
    thetas = [(CLS_THETA, mu) for mu in range(d)]
    acts = _orbit_table(lambda t: nested_actions(alg, functools.reduce(
        Element.__mul__, map(alg._named.__getitem__, t))), _identity)

    def leib(t):
        return acts(t)((1, 2, 3)) - _expected_leib(alg, *_indices(t))

    def annihilated(t):
        return colour_action(alg, col3_weights, acts(t))

    with CheckReport("closure.leib",
                     "[V_1,[V_2,[V_3, theta^a1 theta^a2 theta^a3]]] equals the "
                     "symmetric sum of eps_i^a1 eps_j^a2 eps_k^a3") as rep:
        _expect_swept(rep, alg, [thetas] * 3, leib)
    reports.append(rep)

    with CheckReport("closure.annihilate",
                     "the colour bracket of (V_1, V_2, V_3) annihilates "
                     "theta monomials of every degree") as rep:
        # Degrees 1 and 2 are zero for any weights: three nested ad_V need
        # three theta letters.  They stay as part of the paper's claim and the
        # report; test_colour_action_matches_nested_sum pins that they vanish.
        for degree in (1, 2, 3):
            _expect_swept(rep, alg, [thetas] * degree, annihilated, (degree,))
        rep.notes = ("degree >= 4 is (sum of the weights) times one nested "
                     "action, zero by closure.symmetric's lemma and degree 3")
    reports.append(rep)

    with CheckReport("closure.deltax",
                     "colour bracket on x^alpha equals a sum of six quartic "
                     "[theta,eps][eps,eps] shapes with coefficient multiset "
                     "{-1,-1,-q,-q,-q^2,-q^2}") as rep:
        comm = _pair_table(alg._named.__getitem__, -1)
        # a loop of its own: one alpha carries two residual kinds, in order
        for alpha in range(d):
            a_alpha = colour_action(alg, col3_weights,
                                    nested_actions(alg, alg.x(alpha)))
            # shape (j, k, l): [theta, eps_j^mu][eps_k^alpha, eps_l_mu] over mu
            recomposed = sum_of_products([
                (comm((CLS_THETA_SC, 0), (CLS_EPS[j - 1], mu)),
                 comm((CLS_EPS[k - 1], alpha), (CLS_EPS[l - 1], mu)).scale(
                     coeff * alg.eta[mu]))
                for (j, k, l), coeff in REALISED_QUARTIC_COEFFS.items()
                for mu in range(d)])
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
        # a loop of its own: fixed probes, then the lemma rows
        probes = [p for p in ((0, 0, 1), (0, 1, 2), (1, 2, 3)) if max(p) < d]
        if not probes:
            rep.notes = f"probe (0, 0, 1) skipped: it needs theta^1, and d = {d}"
        for probe in probes:
            act = acts(tuple((CLS_THETA, mu) for mu in probe))
            for labels in itertools.permutations((1, 2, 3)):
                rep.expect_zero(probe, act(labels) - act((1, 2, 3)))
        # ad_V is a derivation, so with these zero every act(p) on a theta
        # monomial is the same sum, and (b) is (sum of weights) act((1, 2, 3))
        for j, k in itertools.product((1, 2, 3), repeat=2):
            for mu in range(d):
                rep.expect_zero(("lemma", j, k, mu),
                                acts(((CLS_THETA, mu),))((j, k)))
    reports.append(rep)
    return reports
