"""The fault plan: what to inject, at which layer, how hard.

A :class:`FaultPlan` is a frozen, JSON-serializable description of the
faults to inject into the collection/analysis pipeline.  It carries its
own seed — every injector derives named random streams from it via
:class:`repro.core.rand.RandomStreams` — so a given (plan, campaign)
pair replays bit-for-bit, independent of the simulation's own streams.

Rates are per-opportunity probabilities: per entry for the storage
layer, per batch/attempt for the transfer layer, per attempt for the
worker layer, per cache entry for the cache layer.  ``scaled(x)``
multiplies every rate (clamped to 1.0) and the clock-skew bound, which
is how the degradation-curve experiment sweeps intensity with one knob.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Any, Dict

from repro.core.errors import ConfigError

#: Fields that scale linearly with intensity but are not probabilities.
_MAGNITUDE_FIELDS = ("clock_skew_max",)
#: Fields that never scale (identity/shape knobs).
_FIXED_FIELDS = ("seed", "worker_hang_seconds")


@dataclass(frozen=True)
class FaultPlan:
    """Seeded description of every fault the harness can inject.

    The four layers mirror the real collection path:

    * **storage** — what flash gives back at transfer time: the tail
      line truncated by a power loss mid-write, garbled bytes, and a
      full flash evicting the oldest not-yet-shipped entries;
    * **transfer** — the link to the collection server: failed syncs,
      duplicated and reordered batches, a constant per-phone clock
      skew applied to shipped timestamps;
    * **worker** — the parallel campaign runner: a worker process that
      crashes, or hangs past the watchdog timeout;
    * **cache** — on-disk summary snapshots corrupted or truncated
      under the cache's feet.
    """

    seed: int = 777

    # -- storage layer (per entry / per batch) --
    storage_truncate_rate: float = 0.0
    storage_garble_rate: float = 0.0
    flash_full_rate: float = 0.0

    # -- transfer layer (per attempt / per batch) --
    sync_failure_rate: float = 0.0
    duplicate_batch_rate: float = 0.0
    reorder_batch_rate: float = 0.0
    #: Per-phone constant clock offset drawn from ``[-max, +max)`` s.
    clock_skew_max: float = 0.0

    # -- worker layer (per attempt) --
    worker_crash_rate: float = 0.0
    worker_hang_rate: float = 0.0
    #: How long an injected hang stalls the worker (kept small so the
    #: watchdog test suite stays fast).
    worker_hang_seconds: float = 2.0

    # -- cache layer (per entry) --
    cache_corrupt_rate: float = 0.0
    cache_truncate_rate: float = 0.0

    def __post_init__(self) -> None:
        for name in self.rate_fields():
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {value}")
        if self.clock_skew_max < 0:
            raise ConfigError(
                f"clock_skew_max must be >= 0, got {self.clock_skew_max}"
            )
        if self.worker_hang_seconds < 0:
            raise ConfigError(
                f"worker_hang_seconds must be >= 0, got {self.worker_hang_seconds}"
            )

    @classmethod
    def rate_fields(cls) -> tuple:
        """Names of every probability field, in declaration order."""
        skip = set(_MAGNITUDE_FIELDS) | set(_FIXED_FIELDS)
        return tuple(f.name for f in fields(cls) if f.name not in skip)

    @property
    def enabled(self) -> bool:
        """Whether this plan injects anything at all."""
        return any(getattr(self, name) for name in self.rate_fields()) or bool(
            self.clock_skew_max
        )

    def scaled(self, intensity: float) -> "FaultPlan":
        """This plan with every rate and magnitude scaled by ``intensity``.

        Probabilities clamp at 1.0; an intensity of 0 disables the plan
        entirely (same seed, all rates zero).
        """
        if intensity < 0:
            raise ConfigError(f"intensity must be >= 0, got {intensity}")
        changes: Dict[str, float] = {
            name: min(getattr(self, name) * intensity, 1.0)
            for name in self.rate_fields()
        }
        for name in _MAGNITUDE_FIELDS:
            changes[name] = getattr(self, name) * intensity
        return replace(self, **changes)

    # -- presets ---------------------------------------------------------------

    @classmethod
    def none(cls, seed: int = 777) -> "FaultPlan":
        """A disabled plan: nothing is injected anywhere."""
        return cls(seed=seed)

    @classmethod
    def mild(cls, seed: int = 777) -> "FaultPlan":
        """The ≤1%-rates plan a healthy pipeline must shrug off."""
        return cls(
            seed=seed,
            storage_truncate_rate=0.01,
            storage_garble_rate=0.01,
            flash_full_rate=0.005,
            sync_failure_rate=0.01,
            duplicate_batch_rate=0.01,
            reorder_batch_rate=0.01,
            clock_skew_max=30.0,
            worker_crash_rate=0.01,
            cache_corrupt_rate=0.01,
        )

    @classmethod
    def harsh(cls, seed: int = 777) -> "FaultPlan":
        """A hostile environment: the pipeline must still terminate
        with a structured report, however degraded."""
        return cls(
            seed=seed,
            storage_truncate_rate=0.15,
            storage_garble_rate=0.15,
            flash_full_rate=0.10,
            sync_failure_rate=0.25,
            duplicate_batch_rate=0.20,
            reorder_batch_rate=0.20,
            clock_skew_max=600.0,
            worker_crash_rate=0.30,
            worker_hang_rate=0.10,
            cache_corrupt_rate=0.30,
            cache_truncate_rate=0.20,
        )

    # -- (de)serialization -----------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-native dump; round-trips exactly through from_dict."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultPlan":
        """Rebuild a plan from :meth:`to_dict` output.

        Raises:
            ConfigError: on unknown keys or out-of-range rates.
        """
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigError(f"unknown fault-plan keys: {unknown}")
        return cls(**data)
