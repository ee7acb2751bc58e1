"""Check reports: the uniform result record of every verification routine.

A check either passes or carries a list of residuals, each a (index tuple,
rendered nonzero element) pair.  Every check is written in one idiom::

    with CheckReport("roby", "sum over the six orderings ... vanishes") as rep:
        for idx, value in instances:
            rep.expect_zero(idx, value)

Leaving the ``with`` block (normally, by ``return`` or by an exception)
stamps ``elapsed_ms``; ``expect_zero`` records ``str(value)`` unless the
value is zero.  ``add_residual`` is left for messages that render no value.
Reports render to text or to a stable JSON document; apart from the
elapsed_ms fields the JSON is byte-identical for identical (suite, seed,
config) runs.
"""

from __future__ import annotations

import json
import time

from .record import Record

SCHEMA_VERSION = "1"


class CheckReport(Record):
    _fields = ("check_id", "paper_ref", "status", "residuals", "elapsed_ms",
               "notes")

    def __init__(self, check_id: str, paper_ref: str, status: str = "pass",
                 residuals: list | None = None, elapsed_ms: float = 0.0,
                 notes: str = ""):
        self.check_id = check_id
        self.paper_ref = paper_ref
        self.status = status
        self.residuals = [] if residuals is None else residuals
        self.elapsed_ms = elapsed_ms
        self.notes = notes

    def __enter__(self) -> "CheckReport":
        # a plain attribute, not a field: it never reaches == or the JSON
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        self.elapsed_ms = (time.perf_counter() - self._t0) * 1000.0
        return False

    def add_residual(self, indices, rendered: str):
        self.residuals.append({"indices": list(indices), "element": rendered})
        self.status = "fail"

    def expect_zero(self, indices, value):
        """Record ``value`` as a residual unless it is zero."""
        if value:
            self.add_residual(indices, str(value))

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def reports_to_document(reports, config: dict) -> dict:
    checks = [dict(zip(r._fields, r._values()))
              for r in sorted(reports, key=lambda r: r.check_id)]
    for c in checks:
        if not c["notes"]:
            del c["notes"]
    return {"version": SCHEMA_VERSION, "config": config, "checks": checks}


def emit_json(reports, config: dict) -> str:
    return json.dumps(reports_to_document(reports, config), indent=2)


def emit_text(reports) -> str:
    lines = []
    for r in sorted(reports, key=lambda r: r.check_id):
        lines.append(f"[{r.status.upper():4s}] {r.check_id}  ({r.elapsed_ms:.1f} ms)")
        lines.append(f"       ref: {r.paper_ref}")
        if r.notes:
            lines.append(f"       note: {r.notes}")
        for res in r.residuals[:10]:
            lines.append(f"       residual {res['indices']}: {res['element']}")
        extra = len(r.residuals) - 10
        if extra > 0:
            lines.append(f"       ... {extra} more residuals")
    n_fail = sum(1 for r in reports if not r.passed)
    lines.append(f"{len(reports) - n_fail}/{len(reports)} checks passed")
    return "\n".join(lines)
