"""Deterministic fault injection and overload brownout for the serving stack.

A BBU pool serving live uplink traffic has to survive worker crashes, decode
errors, stragglers and flash-crowd overload without corrupting its deadline
accounting.  Testing that requires *reproducible* failure: this module
provides a seeded :class:`FaultPlan` whose decisions are a pure function of
``(seed, entity)`` — pack faults are keyed by the pool's submission index
and gateway faults by the job id, so the same plan produces the same
outcomes whatever the worker mode (inline / thread / process), worker
count, or producer interleaving.

Three pack fault kinds are supported, mutually exclusive per pack (a single
uniform draw is partitioned into precedence ranges ``crash < decode_error <
slow``):

``worker_crash``
    The worker serving the pack dies (:class:`WorkerCrash`).  Thread
    workers are respawned by the pool's supervision (within its restart
    budget); process pools report the crash through the result callback and
    let :mod:`multiprocessing` maintain the worker set — both modes account
    the pack identically.
``decode_error``
    The decode raises :class:`InjectedFault`; the worker survives.
``slow``
    The pack decodes correctly but its virtual service time is inflated by
    :attr:`FaultPlan.slow_factor` (a straggler).

Gateway faults (``gateway_error_rate``) drop a job at ingress submission,
modelling a lossy fronthaul hand-off.

:class:`BrownoutController` is the overload half: a hysteresis circuit
breaker (open at :attr:`BrownoutConfig.open_queue_depth`, close at the
lower :attr:`BrownoutConfig.close_queue_depth`, optionally also opened by
the observed shed rate) that the session consults at every admission to
shed already-hopeless jobs before they pollute the EDF queue.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.exceptions import ReproError, SchedulingError

__all__ = [
    "FAULT_CRASH",
    "FAULT_DECODE_ERROR",
    "FAULT_SLOW",
    "InjectedFault",
    "WorkerCrash",
    "PackFault",
    "FaultPlan",
    "BrownoutConfig",
    "BrownoutController",
]

#: Pack fault kinds, in draw-precedence order.
FAULT_CRASH = "worker_crash"
FAULT_DECODE_ERROR = "decode_error"
FAULT_SLOW = "slow"

#: Seed-sequence domain separators: the pack and gateway decision streams
#: must be independent even though they share the plan seed.
_PACK_DOMAIN = 0x5061636B    # "Pack"
_GATEWAY_DOMAIN = 0x47617465  # "Gate"


class InjectedFault(ReproError):
    """An error injected by a :class:`FaultPlan`.

    Constructed with a single message argument so it pickles cleanly across
    the process-pool boundary (``error_callback`` receives the re-raised
    instance in the parent).
    """


class WorkerCrash(InjectedFault):
    """An injected fault that kills the worker serving the pack."""


@dataclass(frozen=True)
class PackFault:
    """The fault a plan assigns to one pack: a kind and (for ``slow``) the
    service-time inflation factor."""

    kind: str
    factor: float = 1.0


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, deterministic assignment of faults to serving entities.

    Each decision is one uniform draw from a generator seeded with
    ``(seed, domain, entity)`` — no shared stream, no draw-order
    dependence.  The plan is a frozen, picklable value object: process
    pools ship it to workers in the initializer payload so the worker-side
    decisions match the parent's accounting exactly.

    Parameters
    ----------
    seed:
        Root seed of the decision streams.
    crash_rate, decode_error_rate, slow_rate:
        Per-pack probabilities of the three fault kinds (mutually
        exclusive; their sum must stay ≤ 1).
    slow_factor:
        Virtual service-time multiplier of a ``slow`` pack (≥ 1).
    gateway_error_rate:
        Per-job probability of an injected ingress submission error.
    """

    seed: int = 0
    crash_rate: float = 0.0
    decode_error_rate: float = 0.0
    slow_rate: float = 0.0
    slow_factor: float = 4.0
    gateway_error_rate: float = 0.0

    def __post_init__(self) -> None:
        for name in ("crash_rate", "decode_error_rate", "slow_rate",
                     "gateway_error_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise SchedulingError(
                    f"{name} must be a probability in [0, 1], got {value}")
        total = self.crash_rate + self.decode_error_rate + self.slow_rate
        if total > 1.0:
            raise SchedulingError(
                f"pack fault rates must sum to at most 1, got {total}")
        if self.slow_factor < 1.0:
            raise SchedulingError(
                f"slow_factor must be >= 1, got {self.slow_factor}")

    # ------------------------------------------------------------------ #
    def _draw(self, domain: int, entity: int) -> float:
        sequence = np.random.SeedSequence((int(self.seed), domain, int(entity)))
        return float(np.random.default_rng(sequence).random())

    @property
    def pack_fault_rate(self) -> float:
        """Total per-pack fault probability (all three kinds)."""
        return self.crash_rate + self.decode_error_rate + self.slow_rate

    def pack_fault(self, index: int) -> Optional[PackFault]:
        """The fault assigned to pack *index* (submission order), if any."""
        if self.pack_fault_rate <= 0.0:
            return None
        draw = self._draw(_PACK_DOMAIN, index)
        if draw < self.crash_rate:
            return PackFault(FAULT_CRASH)
        if draw < self.crash_rate + self.decode_error_rate:
            return PackFault(FAULT_DECODE_ERROR)
        if draw < self.pack_fault_rate:
            return PackFault(FAULT_SLOW, factor=self.slow_factor)
        return None

    def gateway_fault(self, job_id: int) -> bool:
        """Whether the gateway drops *job_id* at submission."""
        if self.gateway_error_rate <= 0.0:
            return False
        return self._draw(_GATEWAY_DOMAIN, job_id) < self.gateway_error_rate


# --------------------------------------------------------------------------- #
# Overload brownout
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class BrownoutConfig:
    """Hysteresis thresholds of the overload circuit breaker.

    The breaker opens when the scheduler backlog reaches
    ``open_queue_depth`` (or, optionally, when the observed shed rate
    reaches ``open_shed_rate`` while any backlog is pending) and closes
    once the backlog drains to ``close_queue_depth``.  ``close_queue_depth
    < open_queue_depth`` is required — that gap is the hysteresis band that
    keeps the breaker from chattering at the threshold.
    """

    open_queue_depth: int = 32
    close_queue_depth: int = 8
    open_shed_rate: Optional[float] = None

    def __post_init__(self) -> None:
        if self.open_queue_depth < 1:
            raise SchedulingError(
                f"open_queue_depth must be >= 1, got {self.open_queue_depth}")
        if not 0 <= self.close_queue_depth < self.open_queue_depth:
            raise SchedulingError(
                f"close_queue_depth ({self.close_queue_depth}) must lie in "
                f"[0, open_queue_depth) = [0, {self.open_queue_depth})")
        if self.open_shed_rate is not None and not 0.0 < self.open_shed_rate <= 1.0:
            raise SchedulingError(
                f"open_shed_rate must be in (0, 1], got {self.open_shed_rate}")


class BrownoutController:
    """The breaker's state machine — deterministic, virtual-clock driven.

    :meth:`update` is called at every admission with the current backlog
    and shed rate; it returns ``"open"`` / ``"close"`` on a transition and
    ``None`` otherwise.  While :attr:`active`, the session sheds
    already-hopeless jobs at admission (stage ``brownout``).
    """

    def __init__(self, config: BrownoutConfig):
        self.config = config
        self.active = False
        self.openings = 0

    def update(self, now_us: float, queue_depth: int,
               shed_rate: float = 0.0) -> Optional[str]:
        """Advance the breaker; returns the transition taken, if any."""
        if not self.active:
            trip = queue_depth >= self.config.open_queue_depth
            if (not trip and self.config.open_shed_rate is not None
                    and queue_depth > self.config.close_queue_depth):
                trip = shed_rate >= self.config.open_shed_rate
            if trip:
                self.active = True
                self.openings += 1
                return "open"
        elif queue_depth <= self.config.close_queue_depth:
            self.active = False
            return "close"
        return None

    def __repr__(self) -> str:
        return (f"BrownoutController(active={self.active}, "
                f"openings={self.openings})")
