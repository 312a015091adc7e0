"""Output checks run on every cell, and the records' fingerprint.

The checks read only what a run hands back (the ``RunResult``), the
arrivals it was given and the event loop it ran on, so a corrupted
result can be fed to them directly (see ``selftest.py``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from collections import Counter
from dataclasses import dataclass, field

__all__ = ["CheckReport", "check_cell", "record_fingerprint"]

QUALITY_FIELDS = ("faithfulness", "answer_relevancy", "context_precision",
                  "context_recall")


@dataclass
class CheckReport:
    """Outcome of :func:`check_cell` for one cell."""

    attempted: int
    #: Arrivals lacking exactly one record.
    failed_arrivals: int = 0
    errors: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors

    @property
    def failed(self) -> int:
        """Failed arrivals; every arrival counts once any check fails."""
        return self.attempted if self.errors else 0


def _canonical(value):
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return repr(value)
    label = getattr(value, "label", None)
    return label() if callable(label) else str(value)


def record_fingerprint(records) -> str:
    """sha256 over every field of every record, in completion order.

    Floats enter by ``repr``, which round-trips exactly, so two runs
    share a fingerprint only if their records are bit-identical.
    """
    rows = [[_canonical(getattr(r, f.name)) for f in dataclasses.fields(r)]
            for r in records]
    text = json.dumps(rows, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _in_unit(value) -> bool:
    return value is not None and 0.0 <= value <= 1.0


def check_cell(result, arrivals, loop) -> CheckReport:
    """Conservation and range checks on one finished cell.

    * one record per arrival (matched on query id);
    * ``ledger.total_dollars == api + gpu + idle``;
    * the drained kernel has ``n_scheduled == n_dispatched + n_cancelled``;
    * per cache tier ``hits <= lookups``, and the cache-hit records
      equal the tiers' summed hits;
    * F1, and every quality metric the harness scored, lie in [0, 1]
      (with the harness on, every record is scored).
    """
    report = CheckReport(attempted=len(arrivals))
    errors = report.errors

    want = Counter(a.query.query_id for a in arrivals)
    got = Counter(r.query_id for r in result.records)
    report.failed_arrivals = sum(n for qid, n in want.items()
                                 if got.get(qid, 0) != n)
    if report.failed_arrivals:
        errors.append(f"{report.failed_arrivals} of {len(arrivals)} "
                      "arrivals lack exactly one record")
    extra = sum(n for qid, n in got.items() if qid not in want)
    if extra:
        errors.append(f"{extra} records match no arrival")

    ledger = result.ledger
    parts = ledger.api_dollars + ledger.gpu_dollars + ledger.idle_dollars
    if not math.isclose(ledger.total_dollars, parts, rel_tol=1e-12,
                        abs_tol=1e-15):
        errors.append(f"ledger total {ledger.total_dollars!r} != "
                      f"api + gpu + idle {parts!r}")

    if len(loop):
        errors.append(f"event loop not drained: {len(loop)} pending")
    if loop.n_scheduled != loop.n_dispatched + loop.n_cancelled:
        errors.append(
            f"kernel scheduled {loop.n_scheduled} != dispatched "
            f"{loop.n_dispatched} + cancelled {loop.n_cancelled}")

    hits = 0
    for tier, stats in result.cache_stats.items():
        if stats.hits > stats.lookups:
            errors.append(f"cache tier {tier}: {stats.hits} hits > "
                          f"{stats.lookups} lookups")
        hits += stats.hits
    hit_records = sum(1 for r in result.records if r.cache_hit)
    if hit_records != hits:
        errors.append(f"{hit_records} cache-hit records != {hits} "
                      "tier hits")

    bad_f1 = sum(1 for r in result.records if not _in_unit(r.f1))
    if bad_f1:
        errors.append(f"{bad_f1} records with F1 outside [0, 1]")
    for name in QUALITY_FIELDS:
        values = [getattr(r, name) for r in result.records]
        if result.quality_metrics and any(v is None for v in values):
            errors.append(f"quality harness on but {name} unscored")
        bad = sum(1 for v in values if v is not None and not _in_unit(v))
        if bad:
            errors.append(f"{bad} records with {name} outside [0, 1]")
    return report
