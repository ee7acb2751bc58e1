"""Free associative algebra over a declared generator set, with a confluent
normal-ordering rewriter.

A ``GeneratorSystem`` fixes a total (canonical) order on the generators and a
quadratic rule table: for u strictly after v in canonical order, the word
``u v`` rewrites to ``swap_sign(u,v) * v u + contraction(u,v) * 1``, and a
generator with the zero square rule has ``u u -> 0``.  Every swap strictly
decreases the number of inversions of a word, so rewriting terminates; by
Bergman's diamond lemma (Adv. Math. 29, 1978) normal forms are then unique
iff every descending length-3 overlap word has one.  Construction checks
the closed form of those critical pairs, a sign condition per contraction
derived in ``_verify_local_confluence``, and fails loudly on a mismatch.

Products are normal-ordered by one kernel, ``GeneratorSystem.times_word``:
each generator of the right factor is inserted into the normal word by a
single right-to-left scan of the rule table, with no cache.  The last
insertion merges straight into the caller's term map, adding or
subtracting each term by its accumulated swap sign.  The one-step
rewriter ``reduce_terms`` is kept apart from it as the independent oracle.

Elements are finite maps from normal-ordered words to exact Q(q)
coefficients.  Equality of elements is identity of these maps.  All the
derived brackets (commutator, fully symmetric ternary, weighted colour
ternary, nested commutator action) and the star anti-involution live here.

Every product of two elements runs through one accumulation loop,
``sum_of_products``: the sum over its (x, y) pairs of x y + sign y x,
each pair of terms fed to ``times_word`` and merged into one term map,
with no intermediate element.  ``Element.__mul__`` is one pair at sign 0,
``commutator`` and ``anticommutator`` one pair at sign -1 and +1.

The brackets are graded.  If no letter of a word u contracts with a
letter of a word v, in either orientation, then v u = eps u v, eps the
product of the swap signs s(a, b) over the letters a of u and b != a of
v: the commutation factor of a colour Lie algebra (Scheunert, J. Math.
Phys. 20, 1979), -1 within a Green sector and +1 across sectors.  Such a
pair of terms adds (1 + sign eps) c u v, one kernel pass or none.  This
is exact: confluence is verified at construction, so normal forms are
unique, and on such a pair the kernel meets no contraction and only
permutes letters; a square-zero letter in both words kills both orders.
The masks of ``word_keys`` decide the path.

The ternary brackets are sums of products of quadratic brackets,

    {a, b, c} = a {b, c} + b {c, a} + c {a, b},

and the colour bracket is the same sum with the weights inside the inner
brackets, its orderings grouped by their leading argument,

    sum_s w_s a_s1 a_s2 a_s3 = sum_i a_i (w_ijk a_j a_k + w_ikj a_k a_j).

Normal-forming the inner sum first is exact because the normal-form
product is associative: the rules are confluent, and confluence is
verified at construction.  For Green-sum parafermions the inner sum
already contracts same-sector terms to scalars, so the outer product sees
fewer terms.

Only two other callers drive ``times_word``, because neither multiplies
two elements: ``normalize_terms`` inserts each raw word into the empty
word, and ``superspace.SuperspaceAlgebra.ad_V`` splices a row of its
Leibniz table between the prefix and the suffix of each word, a product
of three factors that a pair loop would form in two passes.
"""

from __future__ import annotations

import random
from fractions import Fraction
from collections.abc import Iterable, Mapping, Sequence

from .cyclo import Cyclo, ONE, ZERO

Word = tuple  # tuple of generator ids, () is the identity monomial

# the scalars an Element multiplies by, on either side
_SCALARS = (int, Fraction, Cyclo)


class IncompatibleSystems(ValueError):
    """Raised when elements of two different generator registries are mixed."""


class ConfluenceError(ValueError):
    """Raised at construction when the rule table is not locally confluent."""


class GeneratorSystem:
    """Immutable registry of generators with swap/contraction rules.

    Parameters
    ----------
    names:
        display names, one per generator; position in the sequence is the
        canonical order (earlier = smaller).
    swap_sign:
        mapping (u, v) -> +1/-1 for unordered pairs u != v; missing pairs
        default to +1.  Stored symmetrically.
    contraction:
        mapping (u, v) -> Cyclo for u > v, the scalar produced when the
        disordered word u v is swapped.  The reverse orientation is derived,
        never stored.
    square_zero:
        iterable of generator ids whose square rewrites to 0.
    """

    def __init__(self, names: Sequence[str], swap_sign=None, contraction=None,
                 square_zero: Iterable[int] = ()):
        self.names = tuple(names)
        n = len(self.names)
        if len(set(self.names)) != n:
            raise ValueError("generator names must be distinct")
        self._sign = [[1] * n for _ in range(n)]
        # bitmask rows read by ``word_keys``: _neg[u] holds the generators
        # v != u with swap_sign(u, v) = -1, _partners[u] those that u
        # contracts with in either orientation
        self._neg = neg = [0] * n
        self._partners = [0] * n
        for (u, v), s in (swap_sign or {}).items():
            if s not in (1, -1):
                raise ValueError(f"swap_sign must be +1/-1, got {s}")
            self._sign[u][v] = s
            self._sign[v][u] = s
            if u == v:
                continue
            if s < 0:
                neg[u] |= 1 << v
                neg[v] |= 1 << u
            else:  # a pair given twice keeps the last sign, as _sign does
                neg[u] &= ~(1 << v)
                neg[v] &= ~(1 << u)
        # c(u, v) is stored as self._contraction[v][u]: the scan inserting
        # v looks up every letter u it passes in one row
        self._contraction = [{} for _ in range(n)]
        for (u, v), c in (contraction or {}).items():
            if u <= v:
                raise ValueError(f"contraction pair {(u, v)} must be stored "
                                 "with u after v in canonical order")
            c = c if isinstance(c, Cyclo) else Cyclo(c)
            if c:
                self._contraction[v][u] = c
                self._partners[u] |= 1 << v
                self._partners[v] |= 1 << u
        self._square_zero = [False] * n
        for u in square_zero:
            self._square_zero[u] = True
        self._verify_local_confluence()

    # -- rule accessors --------------------------------------------------

    def size(self) -> int:
        return len(self.names)

    def swap_sign(self, u: int, v: int) -> int:
        return self._sign[u][v]

    def contraction(self, u: int, v: int) -> Cyclo:
        """Scalar part of the rewrite of u v, for u after v in canonical order."""
        return self._contraction[v].get(u, ZERO)

    def word_keys(self, word: Word) -> tuple:
        """Generator bitmasks (letters, odd, partners, neg) of ``word``: its
        letters, its letters of odd multiplicity, the generators that one
        of its letters contracts with, and the generators h for which the
        swap signs s(h, b) over its letters b != h multiply to -1."""
        letters = odd = partners = neg = 0
        for g in word:
            bit = 1 << g
            letters |= bit
            odd ^= bit
            partners |= self._partners[g]
            neg ^= self._neg[g]
        return letters, odd, partners, neg

    def preserves_rules(self, image: Sequence[int]) -> bool:
        """Whether the generator permutation u -> image[u] maps the rule
        table onto itself, so that it extends to an automorphism.

        It must keep every swap sign and square rule.  It must map each
        contraction c(u, v) to c(image[u], image[v]); where it reverses
        the canonical order of u and v, the image of u v = s v u + c reads
        image[v] image[u] = s image[u] image[v] - s c, so to -s(u, v) c(u, v).
        The map permutes the pairs, so once every nonzero contraction lands
        on its value, no new one can appear.
        """
        n = len(self.names)
        sign, zero = self._sign, self._square_zero
        if sorted(image) != list(range(n)):
            return False
        if any(zero[image[u]] != zero[u] for u in range(n)):
            return False
        for u in range(n):
            row = sign[image[u]]
            if any(row[image[v]] != s for v, s in enumerate(sign[u])):
                return False
        for v, cons in enumerate(self._contraction):
            for u, c in cons.items():
                a, b = image[u], image[v]
                want = c if a > b or sign[u][v] < 0 else -c
                if self._contraction[min(a, b)].get(max(a, b)) != want:
                    return False
        return True

    # -- normal forms ----------------------------------------------------
    #
    # The one product kernel.  Right-multiplying a normal word by a
    # generator g is a single right-to-left scan: g walks left past every
    # letter u > g, picking up swap_sign(u, g); at each such u with a
    # contraction c(u, g) a branch drops u and carries the sign accumulated
    # *before* passing u, times c.  The walk stops at the first u < g, where
    # g is inserted; at u == g, g is inserted, or the term dies if g is
    # square-zero.  Every branch word is normal, because removing a letter
    # from a normal word keeps it normal.

    def times_word(self, word: Word, coeff: Cyclo, right: Word, out: dict):
        """Accumulate ``coeff * word * right`` into ``out`` in normal form.

        ``word`` must be normal; ``right`` is any word.  Generators of
        ``right`` are inserted left to right, and equal words are merged
        after each insertion; the last insertion merges straight into
        ``out``.  Each term is added or subtracted by its accumulated swap
        sign, so no negated coefficient is allocated for a word already
        present.  A zero ``coeff`` adds nothing; coefficients live in the
        field Q(q), so every other branch coefficient is nonzero.
        """
        if not coeff:
            return
        if not right:
            _accumulate(out, word, coeff)
            return
        cur = {word: coeff}
        sign_rows = self._sign
        con_rows = self._contraction
        square_zero = self._square_zero
        last = len(right) - 1
        for n, g in enumerate(right):
            sign = sign_rows[g]
            con = con_rows[g]
            dies = square_zero[g]
            nxt = out if n == last else {}
            for t, ct in cur.items():
                i = len(t)
                neg = False
                while i:
                    u = t[i - 1]
                    if u <= g:
                        if u == g and dies:
                            ct = None  # g g -> 0; only the branches survive
                        break
                    c = con.get(u)
                    if c is not None:
                        _accumulate(nxt, t[:i - 1] + t[i:], ct * c, neg)
                    if sign[u] < 0:
                        neg = not neg
                    i -= 1
                if ct is not None:
                    _accumulate(nxt, t[:i] + (g,) + t[i:], ct, neg)
            cur = nxt

    def normalize_terms(self, terms: Mapping[Word, Cyclo]) -> dict:
        """Normal form of an arbitrary word->coefficient map."""
        out: dict = {}
        for word, coeff in terms.items():
            if coeff:
                self.times_word((), coeff, word, out)
        return out

    # -- single-step reducer (independent of the insertion path) --------

    def _apply_rule(self, word: Word, i: int) -> dict:
        u, v = word[i], word[i + 1]
        out: dict = {}
        if u == v:
            return out  # square rule: term dies
        swapped = word[:i] + (v, u) + word[i + 2:]
        out[swapped] = Cyclo(self._sign[u][v])
        c = self.contraction(u, v)
        if c:
            out[word[:i] + word[i + 2:]] = c
        return out

    def reduce_terms(self, terms: Mapping[Word, Cyclo], strategy: str = "leftmost",
                     rng: random.Random | None = None) -> dict:
        """Normal form by explicit one-step rewriting.

        ``strategy`` picks which reducible pair of each word fires first:
        "leftmost", "rightmost" or "random" (needs ``rng``).  All strategies
        must agree with :meth:`normalize_terms`; the randomised agreement is
        the package's confluence oracle.
        """
        square_zero = self._square_zero
        pending = [(w, c) for w, c in terms.items() if c]
        out: dict = {}
        while pending:
            word, coeff = pending.pop()
            pos = []
            for i in range(len(word) - 1):
                u, v = word[i], word[i + 1]
                if u > v or (u == v and square_zero[u]):
                    pos.append(i)
            if not pos:
                _accumulate(out, word, coeff)
                continue
            if strategy == "leftmost":
                i = pos[0]
            elif strategy == "rightmost":
                i = pos[-1]
            elif strategy == "random":
                i = rng.choice(pos)
            else:
                raise ValueError(f"unknown strategy {strategy!r}")
            for w2, c2 in self._apply_rule(word, i).items():
                pending.append((w2, coeff * c2))
        return {w: c for w, c in out.items() if c}

    def _verify_local_confluence(self):
        # Bergman's critical pairs in closed form (s: swap_sign, c:
        # contraction).  For u > v > w both reductions of u v w, leftmost
        # and rightmost, end in s_uv s_uw s_vw w v u plus one-letter terms:
        #   leftmost   c_uv w + s_uv c_uw v + s_uv s_uw c_vw u,
        #   rightmost  s_vw s_uw c_uv w + s_vw c_uw v + c_vw u,
        # so each c(a, b) != 0 needs s(t, a) == s(t, b) for every other t.
        # With u square-zero, u u w gives 0 one way and c_uw (1 + s_uw) u
        # the other (u w w likewise), so then s(a, b) == -1.  Overlaps
        # without a contraction only permute letters.
        sign, zero = self._sign, self._square_zero
        bad = []
        for b, row in enumerate(self._contraction):
            for a in row:
                bad += [tuple(sorted((a, b, t), reverse=True))
                        for t, (sa, sb) in enumerate(zip(sign[a], sign[b]))
                        if sa != sb and t != a and t != b]
                if sign[a][b] > 0:
                    bad += [(a, a, b)] * zero[a] + [(a, b, b)] * zero[b]
        if bad:
            raise ConfluenceError(
                f"rule table not confluent on overlap word "
                f"{self.render_word(min(bad))}: leftmost and rightmost "
                f"reductions disagree")

    # -- rendering -------------------------------------------------------

    def render_word(self, word: Word) -> str:
        if not word:
            return "1"
        return " ".join(self.names[g] for g in word)


def _accumulate(d: dict, key, val, neg: bool = False):
    """``d[key] -= val`` if ``neg`` else ``d[key] += val``, for a nonzero
    ``val``; a sum of zero drops the key, so no zero is ever stored."""
    cur = d.get(key)
    if cur is None:
        d[key] = -val if neg else val
    else:
        cur = cur - val if neg else cur + val
        if cur:
            d[key] = cur
        else:
            del d[key]


class Element:
    """A noncommutative polynomial in normal form.

    Construction normalises, so two elements are equal iff their term maps
    are identical.  Zero coefficients are never stored; the zero element has
    an empty map.
    """

    __slots__ = ("system", "terms")

    def __init__(self, system: GeneratorSystem, terms: Mapping[Word, Cyclo] | None = None,
                 *, _normal: dict | None = None):
        self.system = system
        if _normal is not None:
            self.terms = _normal
        else:
            self.terms = system.normalize_terms(terms or {})

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, system) -> "Element":
        return cls(system, _normal={})

    @classmethod
    def scalar(cls, system, c) -> "Element":
        c = c if isinstance(c, Cyclo) else Cyclo(c)
        return cls(system, _normal={(): c} if c else {})

    @classmethod
    def generator(cls, system, g: int) -> "Element":
        return cls(system, _normal={(g,): ONE})

    # -- linear structure ------------------------------------------------

    def _check(self, other: "Element"):
        if self.system is not other.system:
            raise IncompatibleSystems(
                "elements belong to different generator registries")

    def __add__(self, other: "Element") -> "Element":
        self._check(other)
        out = dict(self.terms)
        for w, c in other.terms.items():
            _accumulate(out, w, c)
        return Element(self.system, _normal=out)

    def __sub__(self, other: "Element") -> "Element":
        self._check(other)
        out = dict(self.terms)
        for w, c in other.terms.items():
            _accumulate(out, w, c, True)
        return Element(self.system, _normal=out)

    def __neg__(self) -> "Element":
        return Element(self.system, _normal={w: -c for w, c in self.terms.items()})

    def scale(self, c) -> "Element":
        c = c if isinstance(c, Cyclo) else Cyclo(c)
        if not c:
            return Element.zero(self.system)
        return Element(self.system, _normal={w: c * cw for w, cw in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, _SCALARS):
            return self.scale(other)
        if not isinstance(other, Element):
            return NotImplemented
        return sum_of_products(((self, other),))

    def __rmul__(self, other):
        if isinstance(other, _SCALARS):
            return self.scale(other)
        return NotImplemented

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Element):
            return NotImplemented
        return self.system is other.system and self.terms == other.terms

    # -- involution ------------------------------------------------------

    def star(self) -> "Element":
        """Antilinear anti-involution: conjugate coefficients, reverse words."""
        raw = {tuple(reversed(w)): c.conj() for w, c in self.terms.items()}
        return Element(self.system, raw)

    # -- rendering -------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for w in sorted(self.terms, key=lambda w: (len(w), w)):
            c = self.terms[w]
            cs = str(c)
            needs_parens = ("+" in cs[1:]) or ("-" in cs[1:].replace("*", ""))
            if not w:
                bits.append(f"({cs})" if needs_parens else cs)
                continue
            ws = self.system.render_word(w)
            if c == 1:
                bits.append(ws)
            elif c == -1:
                bits.append(f"-{ws}")
            elif needs_parens:
                bits.append(f"({cs})*{ws}")
            else:
                bits.append(f"{cs}*{ws}")
        return " + ".join(bits).replace("+ -", "- ")

    def __repr__(self):
        return f"<Element {self}>"


# -- derived brackets ----------------------------------------------------

def sum_of_products(pairs: Sequence, sign: int = 0) -> Element:
    """The sum of x * y + sign * y * x over the (x, y) pairs, accumulated
    into one term map: the one loop that multiplies two elements.  ``sign``
    must be -1, 0 or 1: only its sign is read.  For sign +-1 a pair of
    terms with no contraction across it takes one ``times_word`` pass or
    none (graded brackets, module docstring)."""
    first = pairs[0][0]
    system = first.system
    times_word, word_keys = system.times_word, system.word_keys
    odd_pass = sign < 0  # the parity of eps that keeps a graded pair
    out: dict = {}
    for x, y in pairs:
        first._check(x)
        first._check(y)
        if not sign:
            for wx, cx in x.terms.items():
                for wy, cy in y.terms.items():
                    times_word(wx, cx * cy, wy, out)
            continue
        ys = [(wy, cy, word_keys(wy)) for wy, cy in y.terms.items()]
        for wx, cx in x.terms.items():
            letters, odd, _, _ = word_keys(wx)
            for wy, cy, (_, _, partners, neg) in ys:
                if letters & partners:
                    c = cx * cy
                    times_word(wx, c, wy, out)
                    times_word(wy, c if sign > 0 else -c, wx, out)
                elif ((odd & neg).bit_count() & 1) == odd_pass:
                    c = cx * cy
                    times_word(wx, c + c, wy, out)
    return Element(first.system, _normal=out)


def linear_combination(system: GeneratorSystem, pairs) -> Element:
    """The sum of c * e over the (c, e) pairs, c a scalar, accumulated
    into one term map; a pair with c = 0 adds nothing."""
    out: dict = {}
    for c, e in pairs:
        if c:
            terms = e.terms if c == 1 else e.scale(c).terms
            if not out:
                out = dict(terms)
                continue
            for w, cw in terms.items():
                _accumulate(out, w, cw)
    return Element(system, _normal=out)


def commutator(a: Element, b: Element) -> Element:
    return sum_of_products(((a, b),), -1)


def anticommutator(a: Element, b: Element) -> Element:
    return sum_of_products(((a, b),), 1)


#: argument orderings of the six-term ternary brackets, in weight order;
#: orderings i and i + 3 share the leading argument i
TERNARY_ORDERINGS = ((0, 1, 2), (1, 2, 0), (2, 0, 1),
                     (0, 2, 1), (1, 0, 2), (2, 1, 0))


def sym3(a: Element, b: Element, c: Element) -> Element:
    """Fully symmetric ternary bracket, the sum over all six orderings:
    {a, b, c} = a {b, c} + b {c, a} + c {a, b}."""
    return sum_of_products(((a, anticommutator(b, c)),
                            (b, anticommutator(c, a)),
                            (c, anticommutator(a, b))))


def colour3(a: Element, b: Element, c: Element, weights: Sequence) -> Element:
    """Six-term ternary bracket weighted per ordering.

    ``weights`` are given in the order (abc, bca, cab, acb, bac, cba); all
    weights equal to one gives :func:`sym3`.  The orderings are grouped by
    their leading argument x_i, (j, k) = (i + 1, i + 2) mod 3, and the inner
    sum w_ijk x_j x_k + w_ikj x_k x_j is formed first (module docstring).
    """
    if len(weights) != 6:
        raise ValueError("colour3 needs exactly six weights")
    args = (a, b, c)
    return sum_of_products([
        (args[i], sum_of_products(((args[j], args[k].scale(weights[n])),
                                   (args[k], args[j].scale(weights[n + 3])))))
        for n, (i, j, k) in enumerate(TERNARY_ORDERINGS[:3])])


def nested_action(ops: Sequence[Element], target: Element) -> Element:
    """Nested commutator action [ops[0], [ops[1], [..., target]]]."""
    out = target
    for op in reversed(ops):
        out = commutator(op, out)
    return out


# -- randomised helpers (confluence oracle, property tests) --------------

def random_element(system: GeneratorSystem, rng: random.Random,
                   generators: Sequence[int] | None = None,
                   max_degree: int = 5, n_terms: int = 4) -> Element:
    """Seeded random element; used by the confluence and oracle sweeps."""
    return Element(system, random_raw_terms(system, rng, generators,
                                            max_degree, n_terms))


def random_raw_terms(system: GeneratorSystem, rng: random.Random,
                     generators: Sequence[int] | None = None,
                     max_degree: int = 5, n_terms: int = 4) -> dict:
    """Seeded random un-normalised term map; :func:`random_element` normalises it.

    Each term draws its degree ``rng.randint(0, max_degree)``, that many
    letters ``rng.choice(gens)`` and the coefficient
    ``Cyclo(rng.randint(-3, 3), rng.randint(-2, 2))``.  The draws are made
    here by the rejection sampler behind ``randint`` and ``choice`` (CPython
    3.10-3.13 ``Random._randbelow_with_getrandbits``): a number below n is
    ``getrandbits(n.bit_length())``, redrawn while it is n or more.  So the
    map, and the state ``rng`` is left in, are those of the ``randint`` and
    ``choice`` calls, for less per draw.
    """
    gens = list(generators) if generators is not None else list(range(system.size()))
    if max_degree < 0 or (max_degree and not gens):
        # with n = 0 the rejection loop would never end: getrandbits(0) is 0
        raise ValueError("random_raw_terms needs max_degree >= 0 and a "
                         "generator to draw words of degree > 0 from")
    bits = rng.getrandbits
    n_deg, n_gen = max_degree + 1, len(gens)
    k_deg, k_gen = n_deg.bit_length(), n_gen.bit_length()
    terms: dict = {}
    for _ in range(n_terms):
        deg = bits(k_deg)
        while deg >= n_deg:
            deg = bits(k_deg)
        word = []
        for _ in range(deg):
            r = bits(k_gen)
            while r >= n_gen:
                r = bits(k_gen)
            word.append(gens[r])
        a = bits(3)  # randint(-3, 3) is -3 + a number below 7
        while a >= 7:
            a = bits(3)
        b = bits(3)  # randint(-2, 2) is -2 + a number below 5
        while b >= 5:
            b = bits(3)
        if a != 3 or b != 2:
            _accumulate(terms, tuple(word), Cyclo(a - 3, b - 2))
    return terms
