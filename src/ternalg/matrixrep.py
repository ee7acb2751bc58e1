"""Brute-force cross-check: small fermionic subsystems acting on occupation
states.

Each Green component of each selected name gets one fermionic mode, except
that a d_mu whose partner theta^mu is selected acts on that theta's mode
and owns none.  The component ids come from the algebra's layout table
``alg.components``, one per Green sector, and the modes are laid out
sector by sector in the order of the mode-owning names, so a basis state is
an occupation bitmask over (sectors x owners) modes (mode 0 is the most
significant bit).

Every generator is a conditioned, signed bit flip, stored as one record
(bit, need, string, k): it takes column j with j & bit == need to row
j ^ bit with weight (-1)**popcount(j & string) * kappa**k, and any other
column to nothing.  A creation operator needs its mode empty (need 0,
k = 0).  A conjugate d-component is realised as kappa times the
annihilation at the partner theta mode of its sector (need = bit, k = 1),
which keeps every weight in Q(q) - no square roots, and self-adjointness is
irrelevant for identity checking.  The string is the Jordan-Wigner string: the later
modes of the same Green sector, so same-sector components anticommute
exactly; distinct sectors carry no string across each other and therefore
commute exactly.

A word is folded right to left into one word record: the bits a live
column must carry (j & mask == value), the flipped bits F, the XOR S of the
strings, a constant sign and a kappa power.  A letter sees j ^ F, so it
requires need ^ (F & bit) of j; a requirement against an earlier one makes
the word zero.  On live columns the bits of S inside mask are fixed, so
their sign joins the constant, and the word is the signed partial
permutation j -> j ^ F with sign (-1)**popcount(j & S & ~mask).  Words of
equal shape (mask, value, F, S & ~mask) are one such permutation, so their
scalars are summed first: a raw word and its swap-only rewrites cancel
before any column is touched.  Each shape with a nonzero sum then writes
every live column.  No matrix product is formed, and the empty word is the
identity.

Every check here asks one question: does a raw word map have the zero
image?  The rule-table check asks it of u v - s v u - c for each
rewrite rule u v -> s v u + c and of each square g g; the random sweep asks
it of w - nf(w) for each distinct sampled word w, merged with its normal
form (a word in both cancels before it is evaluated).  Normal forming is
linear too (each word is normal-formed alone and scaled by its
coefficient), so a sample's raw - nf(raw) is the sum over its words of
c_w (w - nf(w)): it has the zero image whenever each of its words does.

Only one direction of faithfulness is used: a symbolic zero must map to the
zero matrix.  The converse is not claimed (the parafermionic realisation is
itself non-faithful); the oracle is a bug-catcher for the rewriter, not a
completeness proof.
"""

from __future__ import annotations

import itertools
import random

from .algebra import Element, _accumulate, random_raw_terms
from .cyclo import Cyclo, ONE, ZERO
from .report import CheckReport
from .superspace import CLS_DEL, CLS_P, CLS_THETA, CLS_X, SuperspaceAlgebra

class SparseMatrix:
    """Minimal exact sparse matrix over Q(q): {(row, col): Cyclo}."""

    __slots__ = ("dim", "entries")

    def __init__(self, dim, entries=None):
        self.dim = dim
        self.entries = entries or {}

    def __mul__(self, other):
        by_row = {}
        for (i, j), v in other.entries.items():
            by_row.setdefault(i, []).append((j, v))
        out = {}
        for (i, k), u in self.entries.items():
            for j, v in by_row.get(k, ()):
                s = out.get((i, j), ZERO) + u * v
                if s:
                    out[(i, j)] = s
                else:
                    out.pop((i, j), None)
        return SparseMatrix(self.dim, out)

    def is_zero(self):
        return not self.entries

    def __eq__(self, other):
        return self.dim == other.dim and self.entries == other.entries


class MatrixRep:
    """Basis actions of every Green component of the selected names."""

    def __init__(self, alg: SuperspaceAlgebra, names):
        """``names`` are (cls, mu) keys of parafermionic names, e.g.
        (CLS_THETA, 0); bosonic generators are not representable."""
        self.alg = alg
        self.names = list(names)
        if any(cls in (CLS_X, CLS_P) for cls, _ in self.names):
            raise ValueError("bosonic generators are not representable")
        # a d_mu whose partner theta^mu is selected acts on that theta's
        # modes; every other name owns one mode per Green sector
        owner = {key: (CLS_THETA, key[1])
                 if key[0] == CLS_DEL and (CLS_THETA, key[1]) in self.names
                 else key for key in self.names}
        owners = [key for key in self.names if owner[key] == key]
        # sector s occupies modes [s * half, (s + 1) * half), in owner order
        half = len(owners)
        n_modes = sum(len(alg.components[key]) for key in owners)
        self.dim = 2 ** n_modes
        self.kappa = Cyclo(alg.config.pairing_kappa)
        # gid -> (bit, need, string, k), as in the module docstring
        self.actions = {}
        for key in self.names:
            k = int(owner[key] != key)
            for s, gid in enumerate(alg.components[key]):
                mode = s * half + owners.index(owner[key])
                bit = 1 << (n_modes - 1 - mode)
                # Jordan-Wigner string: the later modes of the same sector
                string = sum(1 << (n_modes - 1 - m)
                             for m in range(mode + 1, (s + 1) * half))
                # a d on its partner's mode empties it, scaled to the
                # pairing; every other generator fills its own mode
                self.actions[gid] = (bit, bit if k else 0, string, k)

    def evaluate_raw(self, terms) -> SparseMatrix:
        """Evaluate a word->coefficient map without normal forming."""
        shapes = {}  # (mask, value, F, S & ~mask) -> summed scalar
        for word, coeff in terms.items():
            try:
                letters = [self.actions[g] for g in reversed(word)]
            except KeyError as e:
                raise KeyError(f"generator {self.alg.system.names[e.args[0]]} "
                               "not present in this representation") from None
            mask = value = flip = strings = k = parity = 0
            for bit, need, string, dk in letters:
                want = need ^ (flip & bit)  # the letter sees j ^ flip
                if mask & bit:
                    if (value & bit) != want:
                        break
                else:
                    mask |= bit
                    value |= want
                parity ^= (flip & string).bit_count()
                strings ^= string
                flip ^= bit
                k += dk
            else:
                # the bits of strings inside mask are fixed on live columns
                parity ^= (value & strings).bit_count()
                _accumulate(shapes, (mask, value, flip, strings & ~mask),
                            self.kappa ** k * coeff, parity & 1)
        out = {}
        full = self.dim - 1
        for (mask, value, flip, strings), scalar in shapes.items():
            signed = (scalar, -scalar)
            free = full & ~mask
            sub = free
            while True:  # j = value | sub runs over every live column
                j = value | sub
                v = signed[(sub & strings).bit_count() & 1]
                key = (j ^ flip, j)
                prev = out.get(key)
                out[key] = v if prev is None else prev + v
                if not sub:
                    break
                sub = (sub - 1) & free
        return SparseMatrix(self.dim, {key: v for key, v in out.items() if v})

    def evaluate(self, element: Element) -> SparseMatrix:
        return self.evaluate_raw(element.terms)


def build_rep(alg: SuperspaceAlgebra, names) -> MatrixRep:
    return MatrixRep(alg, names)


def cross_check_element(rep: MatrixRep, raw_terms) -> bool:
    """Raw-word evaluation and normal-form evaluation must agree.

    Evaluation is linear and exact, so this is the zero image of raw - nf:
    the two word maps are merged first (a word in both cancels at once),
    each remaining word is folded into its record, words of one shape are
    summed (a raw word cancels against its swap-only rewrites there), and
    every shape with a nonzero sum writes every live column.
    """
    diff = dict(raw_terms)
    for word, coeff in Element(rep.alg.system, raw_terms).terms.items():
        _accumulate(diff, word, coeff, True)
    return rep.evaluate_raw(diff).is_zero()


def check_representation(rep: MatrixRep) -> CheckReport:
    """Construction targets: every rewrite rule v u -> s u v + c (v after
    u) and every zero square, each as a raw word map with the zero image."""
    system = rep.alg.system
    with CheckReport(
            "oracle.rep",
            "matrix model realises the swap/contraction table exactly: "
            "{theta_r, d_r} = kappa, cross-sector commutators vanish"
    ) as rep_report:
        for u, v in itertools.combinations_with_replacement(sorted(rep.actions), 2):
            if u == v:
                if not rep.evaluate_raw({(u, u): ONE}).is_zero():
                    rep_report.add_residual((system.names[u],) * 2,
                                            "square does not vanish")
                continue
            rule = {(v, u): ONE, (u, v): Cyclo(-system.swap_sign(v, u))}
            c = system.contraction(v, u)
            if c:
                rule[()] = -c  # the empty word stands in for the identity
            if not rep.evaluate_raw(rule).is_zero():
                rep_report.add_residual((system.names[u], system.names[v]),
                                        "pair rule not realised")
    return rep_report


MAX_DEGREE = 4  # word length bound of ``check_random_equivalence``'s samples
N_SAMPLES = 200  # random elements per ``check_random_equivalence`` sweep


def check_random_equivalence(rep: MatrixRep, seed: int = 0) -> CheckReport:
    """Seeded sweep: raw and normal-form matrix evaluations agree.

    Each distinct word of the samples is asked once, in order of first
    appearance, whether w - nf(w) has the zero image; a word that fails
    is one residual, indexed by the first sample k that holds it and the
    rendered word.
    """
    system = rep.alg.system
    gens = sorted(rep.actions)
    rng = random.Random(seed)
    asked = set()
    with CheckReport(
            "oracle.random",
            f"{N_SAMPLES} seeded random elements of degree <= {MAX_DEGREE}: "
            "raw-word and normal-form matrix evaluations agree") as report:
        for k in range(N_SAMPLES):
            for word in random_raw_terms(system, rng, gens,
                                         max_degree=MAX_DEGREE, n_terms=4):
                if word not in asked:
                    asked.add(word)
                    if not cross_check_element(rep, {word: ONE}):
                        report.add_residual(
                            (k, system.render_word(word)),
                            "raw and normal-form matrices differ")
    return report
