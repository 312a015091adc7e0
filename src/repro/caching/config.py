"""Cache configuration: the validated knob bundle the runner threads.

:func:`make_cache_config` is the fail-fast front door used by
:class:`~repro.evaluation.runner.RunSpec` (and therefore
``ExperimentRunner``, ``run_policy`` and the CLI): dependent flags
passed without the tier that gives them meaning raise immediately,
naming both the flag and the enabling flag — mirroring the spec's
autoscaler/speculation validation style — instead of being silently
ignored.

``make_cache_config(...) is None`` exactly when every cache is off,
which is the disabled path the byte-identity guarantee rides on: a
``None`` config means the pipeline constructs no cache objects, no
``cache`` resource, and schedules no extra events.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.caching.eviction import EVICTION_NAMES
from repro.util.validation import check_count, check_positive

__all__ = ["CacheConfig", "RESULT_CACHE_MODES", "make_cache_config"]

#: ``--result-cache`` values.
RESULT_CACHE_MODES: tuple[str, ...] = ("off", "exact", "semantic")

_DEFAULT_CAPACITY = 256
_DEFAULT_EVICTION = "lru"
_DEFAULT_SEMANTIC_THRESHOLD = 0.9


@dataclass(frozen=True)
class CacheConfig:
    """Validated cache knobs for one run (both tiers)."""

    result_mode: str = "off"
    retrieval: bool = False
    capacity: int = _DEFAULT_CAPACITY
    eviction: str = _DEFAULT_EVICTION
    semantic_threshold: float = _DEFAULT_SEMANTIC_THRESHOLD
    ttl_s: float | None = None

    def __post_init__(self) -> None:
        if self.result_mode not in RESULT_CACHE_MODES:
            known = ", ".join(RESULT_CACHE_MODES)
            raise ValueError(
                f"unknown result-cache mode {self.result_mode!r}; "
                f"known: {known}"
            )
        if self.eviction not in EVICTION_NAMES:
            known = ", ".join(EVICTION_NAMES)
            raise ValueError(
                f"unknown cache eviction {self.eviction!r}; known: {known}"
            )
        check_count("cache_capacity", self.capacity, minimum=1)
        if not 0.0 < self.semantic_threshold <= 1.0:
            raise ValueError(
                "semantic_threshold must be in (0, 1], got "
                f"{self.semantic_threshold}"
            )
        if self.ttl_s is not None:
            check_positive("cache_ttl", self.ttl_s)

    @property
    def result_enabled(self) -> bool:
        return self.result_mode != "off"

    @property
    def enabled(self) -> bool:
        return self.result_enabled or self.retrieval


def make_cache_config(
    result_cache: str | None = None,
    retrieval_cache: bool = False,
    cache_capacity: int | None = None,
    cache_eviction: str | None = None,
    semantic_threshold: float | None = None,
    cache_ttl: float | None = None,
) -> CacheConfig | None:
    """Build a :class:`CacheConfig` from runner/CLI knobs.

    Returns ``None`` when no cache tier is enabled — after rejecting
    any dependent knob that would otherwise be silently ignored.
    """
    mode = "off" if result_cache is None else str(result_cache)
    if mode not in RESULT_CACHE_MODES:
        known = ", ".join(RESULT_CACHE_MODES)
        raise ValueError(
            f"unknown result-cache mode {mode!r}; known: {known}"
        )
    enabled = mode != "off" or bool(retrieval_cache)
    if not enabled:
        misused = {
            "cache_capacity": cache_capacity,
            "cache_eviction": cache_eviction,
            "semantic_threshold": semantic_threshold,
            "cache_ttl": cache_ttl,
        }
        bad = [k for k, v in misused.items() if v is not None]
        if bad:
            raise ValueError(
                f"{', '.join(bad)} only applies with a cache enabled; "
                "pass --result-cache exact (or semantic) or "
                "--retrieval-cache, or drop the flag"
            )
        return None
    if semantic_threshold is not None and mode != "semantic":
        raise ValueError(
            "semantic_threshold only applies to the semantic result "
            f"cache; got --result-cache {mode} — pass --result-cache "
            "semantic or drop the flag"
        )
    return CacheConfig(
        result_mode=mode,
        retrieval=bool(retrieval_cache),
        capacity=(_DEFAULT_CAPACITY if cache_capacity is None
                  else int(cache_capacity)),
        eviction=(_DEFAULT_EVICTION if cache_eviction is None
                  else str(cache_eviction)),
        semantic_threshold=(_DEFAULT_SEMANTIC_THRESHOLD
                            if semantic_threshold is None
                            else float(semantic_threshold)),
        ttl_s=cache_ttl,
    )
