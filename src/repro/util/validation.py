"""Tiny argument-validation helpers used across the package.

These raise ``ValueError`` with a uniform message format so failures in
deeply nested simulator code point directly at the offending parameter.
"""

from __future__ import annotations

from numbers import Real

__all__ = [
    "check_positive",
    "check_non_negative",
    "check_probability",
    "check_in_range",
    "check_positive_int",
    "check_shard_concurrency",
    "resolve_shard_concurrency",
    "check_count",
    "check_non_empty",
]


def check_positive(name: str, value: float) -> float:
    """Require ``value > 0``; return it for chaining."""
    if not value > 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    return value


def check_non_negative(name: str, value: float) -> float:
    """Require ``value >= 0``; return it for chaining (NaN fails)."""
    if not value >= 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    return value


def check_probability(name: str, value: float) -> float:
    """Require ``0 <= value <= 1``; return it for chaining."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value!r}")
    return value


def check_in_range(name: str, value: float, lo: float, hi: float) -> float:
    """Require ``lo <= value <= hi``; return it for chaining."""
    if not lo <= value <= hi:
        raise ValueError(f"{name} must be in [{lo}, {hi}], got {value!r}")
    return value


def check_positive_int(name: str, value) -> int:
    """Require an integral ``value > 0``; return it as ``int``.

    For slot and replica counts, where truncating ``0.5`` to ``0``
    would silently build a dead resource.
    """
    check_positive(name, value)
    if not float(value).is_integer():
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def check_count(name: str, value, minimum: int = 0) -> int:
    """Require an integral count >= ``minimum``; return it as ``int``.

    Used for shard counts, arrival counts, period counts and
    fleet-size bounds.
    """
    try:
        as_int = int(value)
    except (TypeError, ValueError):
        raise ValueError(
            f"{name} must be an integer >= {minimum}, got {value!r}"
        ) from None
    if as_int != value or as_int < minimum:
        raise ValueError(
            f"{name} must be an integer >= {minimum}, got {value!r}"
        )
    return as_int


def check_non_empty(name: str, value):
    """Require a non-empty sequence; return it for chaining.

    A zero-length workload (no periods, no arrivals) would otherwise
    hang a closed loop or silently produce an empty run; failing fast
    with the parameter name keeps the error at the call site.
    """
    if len(value) == 0:
        raise ValueError(f"{name} must be non-empty, got 0 entries")
    return value


def check_shard_concurrency(name: str, value, n_shards: int):
    """Normalise a shard-concurrency spec to one entry per shard.

    Accepts ``None`` (unbounded everywhere, returned as ``None``), a
    single positive int (broadcast to every shard), or a sequence of
    per-shard entries (each a positive int, or ``None`` for an
    unbounded shard) whose length must equal ``n_shards`` — a mismatch
    fails fast with both counts, mirroring the ``replica_speeds``
    length check, rather than silently recycling or truncating.
    """
    if value is None:
        return None
    if isinstance(value, Real) and not isinstance(value, bool):
        return [check_positive_int(name, value)] * int(n_shards)
    entries = list(value)
    if len(entries) != int(n_shards):
        raise ValueError(
            f"{name} has {len(entries)} entries but retrieval_shards is "
            f"{int(n_shards)}; pass exactly one concurrency per shard "
            "(e.g. --shard-concurrency 2,2 with --retrieval-shards 2)"
        )
    out = []
    for i, entry in enumerate(entries):
        if entry is None:
            out.append(None)
            continue
        out.append(check_positive_int(f"{name}[{i}]", entry))
    return out


def resolve_shard_concurrency(retrieval_concurrency, shard_concurrency,
                              n_shards: int) -> list[int | None]:
    """Per-shard executor bounds of an ``n_shards`` store.

    ``retrieval_concurrency`` bounds the sole executor pool of an
    unsharded store; ``shard_concurrency`` is normalised by
    :func:`check_shard_concurrency`. Combining the two, or passing
    ``retrieval_concurrency`` to a sharded store, is rejected rather
    than silently reinterpreted. ``None`` entries are unbounded.
    """
    if retrieval_concurrency is not None:
        retrieval_concurrency = check_positive_int(
            "retrieval_concurrency", retrieval_concurrency)
    per_shard = check_shard_concurrency(
        "shard_concurrency", shard_concurrency, n_shards)
    if retrieval_concurrency is None:
        return per_shard or [None] * int(n_shards)
    if n_shards > 1:
        raise ValueError(
            "retrieval_concurrency bounds the single executor pool of "
            f"an unsharded store; with {n_shards} shards pass "
            "shard_concurrency (per-shard executor counts) instead — "
            f"got retrieval_concurrency={retrieval_concurrency}"
        )
    if per_shard is not None:
        raise ValueError(
            "pass either retrieval_concurrency (unsharded) or "
            "shard_concurrency (per shard), not both — got "
            f"retrieval_concurrency={retrieval_concurrency} and "
            f"shard_concurrency={shard_concurrency!r}"
        )
    return [retrieval_concurrency]
