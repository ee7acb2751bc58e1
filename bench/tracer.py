"""Tracing wrappers for the traced benchmark run.

The wrappers live in the benchmark, not in the package: ``Tracer.install``
replaces public functions and methods of ``ternalg`` with timed versions,
patching each name where the callers look it up (a function imported with
``from .algebra import commutator`` is a separate binding in every module
that imports it, and ``Cyclo.__radd__``/``__rmul__`` are aliases that must
be replaced on their own).

Two kinds of record are kept:

* spans, at the coarse boundaries (suite call, check functions,
  ``build``, ``ad_V``, ``colour_action``, report emission): name, start,
  end, parent span, self time and request (one per suite call);
* aggregates, at the hot boundaries (``Cyclo`` operators, ``Element``
  product and linear operations, normal forming, brackets): one call count
  plus inclusive and self time per name, so memory stays bounded.

Self time is a call's duration minus the time its traced children cover.
Inclusive time counts only the outermost of nested calls to the same name.
"""

from __future__ import annotations

import time
import weakref

_CLOCK = time.perf_counter


class Tracer:
    def __init__(self):
        # one [child_time] cell per open traced call, innermost last
        self._stack = []
        # name -> [calls, inclusive_s, self_s, depth]
        self.aggregates = {}
        # (name, start, end, parent index or -1, self_s, request)
        self.spans = []
        self._open_spans = []
        self.request = -1
        self.counts = {"algebra.product.pairs": 0,
                       "algebra.product.terms_out": 0,
                       "algebra.product.peak_terms": 0,
                       "superspace.ad_V.words": 0,
                       "superspace.ad_V.distinct_words": 0}
        self._seen_words = weakref.WeakKeyDictionary()
        self._restore = []

    # -- timing core ------------------------------------------------------

    def wrap(self, fn, name, span=False, note=None):
        """Return ``fn`` timed under ``name``; ``note(args, result)`` runs
        after the clock stops, for counts that need the call's data."""
        agg = self.aggregates.setdefault(name, [0, 0.0, 0.0, 0])
        stack = self._stack
        spans = self.spans
        open_spans = self._open_spans
        tracer = self

        def traced(*args, **kwargs):
            cell = [0.0]
            stack.append(cell)
            agg[3] += 1
            if span:
                index = len(spans)
                parent = open_spans[-1] if open_spans else -1
                spans.append(None)
                open_spans.append(index)
            t0 = _CLOCK()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = _CLOCK()
                dt = t1 - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                agg[0] += 1
                agg[2] += dt - cell[0]
                agg[3] -= 1
                if not agg[3]:
                    agg[1] += dt
                if span:
                    open_spans.pop()
                    spans[index] = (name, t0, t1, parent, dt - cell[0],
                                    tracer.request)
            if note is not None:
                note(args, out)
            return out

        return traced

    def _patch(self, owner, attr, replacement):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def suite_call(self, suite: str, fn):
        """Run one verify call as the root span of a new request."""
        self.request += 1
        return self.wrap(fn, f"suite.{suite}", span=True)()

    # -- counts that need the call's data ---------------------------------

    def _note_product(self, args, out):
        a, b = args
        c = self.counts
        c["algebra.product.pairs"] += len(a.terms) * len(b.terms)
        n = len(out.terms)
        c["algebra.product.terms_out"] += n
        if n > c["algebra.product.peak_terms"]:
            c["algebra.product.peak_terms"] = n

    def _note_ad_v(self, args, out):
        alg, i, element = args
        seen = self._seen_words.setdefault(alg, set())
        before = len(seen)
        seen.update((i, w) for w in element.terms)
        self.counts["superspace.ad_V.words"] += len(element.terms)
        self.counts["superspace.ad_V.distinct_words"] += len(seen) - before

    # -- installation -----------------------------------------------------

    def install(self):
        from ternalg import (algebra, cli, colour, cyclo, dsl, matrixrep,
                             order3, suites, superspace)

        C = cyclo.Cyclo
        for attr, name in (("__add__", "cyclo.addsub"),
                           ("__radd__", "cyclo.addsub"),
                           ("__sub__", "cyclo.addsub"),
                           ("__rsub__", "cyclo.addsub"),
                           ("__neg__", "cyclo.addsub"),
                           ("__mul__", "cyclo.mul"),
                           ("__rmul__", "cyclo.mul"),
                           ("__truediv__", "cyclo.div"),
                           ("__rtruediv__", "cyclo.div")):
            self._patch(C, attr, self.wrap(C.__dict__[attr], name))

        E = algebra.Element
        element_mul = E.__dict__["__mul__"]
        product = self.wrap(element_mul, "algebra.product",
                            note=self._note_product)

        def mul(a, b):
            # Element * scalar delegates to scale(), traced as linear
            if isinstance(b, E):
                return product(a, b)
            return element_mul(a, b)

        self._patch(E, "__mul__", mul)
        for attr in ("__add__", "__sub__", "__neg__", "scale"):
            self._patch(E, attr, self.wrap(E.__dict__[attr], "algebra.linear"))

        G = algebra.GeneratorSystem
        self._patch(G, "normalize_terms",
                    self.wrap(G.normalize_terms, "algebra.normalize"))
        self._patch(G, "reduce_terms",
                    self.wrap(G.reduce_terms, "algebra.reduce"))
        self._patch(G, "__init__",
                    self.wrap(G.__init__, "algebra.system_init", span=True))

        commutator = self.wrap(algebra.commutator, "algebra.commutator")
        for module in (algebra, superspace, order3, dsl):
            self._patch(module, "commutator", commutator)
        sym3 = self.wrap(algebra.sym3, "algebra.sym3")
        for module in (algebra, superspace, suites):
            self._patch(module, "sym3", sym3)

        S = superspace.SuperspaceAlgebra
        self._patch(S, "ad_V", self.wrap(S.ad_V, "superspace.ad_V", span=True,
                                         note=self._note_ad_v))
        self._patch(S, "V", self.wrap(S.V, "superspace.V"))
        self._patch(superspace, "colour_action",
                    self.wrap(superspace.colour_action,
                              "superspace.colour_action", span=True))
        build = self.wrap(superspace.build, "superspace.build", span=True)
        for module in (superspace, suites, cli):
            self._patch(module, "build", build)

        for attr in ("check_arith", "check_engine", "check_colour",
                     "check_oracle", "check_parafermion_relations",
                     "check_roby", "check_poincare_realisation",
                     "check_superspace_transformation", "check_psi_bracket",
                     "check_closure"):
            self._patch(suites, attr, self.wrap(getattr(suites, attr),
                                                f"checkfn.{attr}", span=True))
        for module, attr, name in (
                (order3, "check_lie_order3", "order3.check_lie"),
                (order3, "check_against_superspace",
                 "order3.against_superspace"),
                (order3, "cubic_poincare", "order3.cubic_poincare"),
                (colour, "check_axioms", "colour.check_axioms"),
                (matrixrep, "build_rep", "matrixrep.build_rep"),
                (matrixrep, "check_representation",
                 "matrixrep.check_representation"),
                (matrixrep, "check_random_equivalence",
                 "matrixrep.check_random_equivalence")):
            self._patch(module, attr, self.wrap(getattr(module, attr), name,
                                                span=True))
        M = matrixrep.SparseMatrix
        self._patch(M, "__mul__", self.wrap(M.__mul__, "matrixrep.matmul"))
        R = matrixrep.MatrixRep
        for attr in ("evaluate", "evaluate_raw"):
            self._patch(R, attr, self.wrap(R.__dict__[attr],
                                           "matrixrep.evaluate"))
        self._patch(cli, "emit_json",
                    self.wrap(cli.emit_json, "report.emit", span=True))

    # -- results ----------------------------------------------------------

    def summary(self) -> dict:
        """Aggregates, counts and spans as plain JSON-ready data."""
        return {
            "aggregates": {name: {"calls": a[0], "s": a[1], "self_s": a[2]}
                           for name, a in self.aggregates.items()},
            "counts": dict(self.counts),
            "spans": [{"name": s[0], "start": s[1], "end": s[2],
                       "parent": s[3], "self_s": s[4], "request": s[5]}
                      for s in self.spans],
        }
