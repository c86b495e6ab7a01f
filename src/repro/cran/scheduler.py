"""Deadline-aware batching scheduler for the C-RAN decode pool.

The serving problem: QuAMax's batched decode path
(:meth:`~repro.decoder.quamax.QuAMaxDecoder.detect_batch`) amortises the QA
job overhead across problems of identical Ising structure, but uplink traffic
arrives as a mixed stream — different cells, modulations and deadlines.  The
:class:`EDFBatchScheduler` bridges the two: pending jobs are grouped by
:attr:`~repro.cran.jobs.DecodeJob.structure_key` (users × modulation ⇒
identical Ising shape), and a group is flushed into one packed batch when it

* reaches ``max_batch`` jobs (a full pack — flushed immediately on the
  arrival that filled it), or
* has held its oldest job for ``max_wait_us`` (bounded batching delay — the
  flush is stamped at the exact due time, keeping event-driven simulations
  reproducible regardless of how coarsely the clock is advanced), or
* is drained at shutdown.

Deadline awareness is earliest-deadline-first at both levels: simultaneous
flushes are emitted in order of their most urgent member, and jobs inside a
batch are EDF-ordered (ties broken by ``job_id``, so schedules are fully
deterministic).  Batching never changes decode results — every job consumes
its own private random stream — so the scheduler is purely a
latency/throughput policy layer.

The scheduler is a passive data structure driven by explicit timestamps
(``submit`` / ``advance`` / ``drain``); it never reads a wall clock.  That
makes serving simulations deterministic and lets the same scheduler run under
a virtual clock (tests, capacity models) or a real-time event loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.cran.jobs import DecodeJob
from repro.exceptions import SchedulingError
from repro.utils.validation import check_integer_in_range, check_positive

#: Flush reasons stamped on emitted batches.
FLUSH_FULL = "full"
FLUSH_TIMEOUT = "timeout"
FLUSH_DRAIN = "drain"

#: Modelled decode time of a pending group, ``(structure_key, size) -> µs``;
#: see the ``decode_time_model`` parameter of :class:`EDFBatchScheduler`.
DecodeTimeModel = Callable[[Tuple[int, int, str], int], float]


@dataclass(frozen=True)
class DecodeBatch:
    """A structure-homogeneous group of jobs flushed for one packed QA job."""

    jobs: Tuple[DecodeJob, ...]
    structure_key: Tuple[int, int, str]
    flush_time_us: float
    reason: str

    @property
    def size(self) -> int:
        """Number of jobs packed into the batch."""
        return len(self.jobs)

    @property
    def job_ids(self) -> Tuple[int, ...]:
        """Member job ids, in the batch's (EDF) packing order."""
        return tuple(job.job_id for job in self.jobs)

    @property
    def structure_label(self) -> str:
        """Human/JSON-friendly structure tag, e.g. ``"2x2/BPSK"``."""
        num_tx, num_rx, modulation = self.structure_key
        return f"{num_tx}x{num_rx}/{modulation}"


class EDFBatchScheduler:
    """Structure-keyed batching with EDF ordering and bounded wait.

    Parameters
    ----------
    max_batch:
        Maximum jobs per flushed batch (the block-diagonal pack size).
    max_wait_us:
        Longest a job may sit pending before its group is force-flushed,
        trading batch fill against queueing delay.  ``inf`` flushes only on
        full packs (and at drain).
    decode_time_model:
        Optional deadline-driven *adaptive* wait: a callable mapping a
        pending group's ``(structure_key, size)`` to its modelled decode
        time in µs.  A group then also flushes as soon as its most urgent
        member's slack (deadline minus current time) drops to the modelled
        decode time of the pack — waiting any longer would convert that
        job's remaining slack into scheduler queueing and miss the deadline
        even though capacity was free.  At high load full packs still flush
        first (the model only ever *shortens* the wait), so batch fill is
        unaffected where batching pays; at low load the tail no longer sits
        out the whole ``max_wait_us`` timeout.
    """

    def __init__(self, max_batch: int = 16,
                 max_wait_us: float = 2_000.0,
                 decode_time_model: Optional[DecodeTimeModel] = None):
        self.max_batch = check_integer_in_range("max_batch", max_batch,
                                                minimum=1)
        if not math.isinf(max_wait_us):
            check_positive("max_wait_us", max_wait_us)
        self.max_wait_us = float(max_wait_us)
        self.decode_time_model = decode_time_model
        self._groups: Dict[Tuple[int, int, str], List[DecodeJob]] = {}
        self._clock_us = 0.0
        self._submitted = 0
        self._flushed = 0

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def clock_us(self) -> float:
        """Latest timestamp the scheduler has observed."""
        return self._clock_us

    @property
    def queue_depth(self) -> int:
        """Number of jobs currently pending across all groups."""
        return sum(len(jobs) for jobs in self._groups.values())

    @property
    def num_groups(self) -> int:
        """Number of distinct problem structures currently pending."""
        return len(self._groups)

    @property
    def jobs_submitted(self) -> int:
        """Total jobs accepted so far."""
        return self._submitted

    @property
    def jobs_flushed(self) -> int:
        """Total jobs emitted in batches so far."""
        return self._flushed

    def _group_due_us(self, key: Tuple[int, int, str],
                      jobs: List[DecodeJob]) -> float:
        """Absolute time at which this pending group must flush.

        The earlier of the bounded-wait timeout (oldest arrival plus
        ``max_wait_us``) and, when a decode-time model is configured, the
        latest start that still meets the most urgent member's deadline
        (that deadline minus the pack's modelled decode time).  Never
        earlier than the newest member's arrival, so flush stamps cannot
        precede the arrival of a job they contain.
        """
        due = jobs[0].arrival_time_us + self.max_wait_us
        if self.decode_time_model is not None:
            urgent = min(job.deadline_us for job in jobs)
            if not math.isinf(urgent):
                estimate = self.decode_time_model(key, len(jobs))
                # A model emitting NaN/inf/negative estimates (a cold online
                # EWMA fed a pathological overhead, a buggy analytic fit)
                # would silently corrupt due times and EDF ordering; fail
                # loudly instead.
                try:
                    estimate = float(estimate)
                except (TypeError, ValueError):
                    estimate = math.nan
                if not math.isfinite(estimate) or estimate < 0.0:
                    raise SchedulingError(
                        f"decode-time model returned an invalid estimate "
                        f"{estimate!r} for structure {key} at size "
                        f"{len(jobs)}; expected a finite non-negative number")
                due = min(due, urgent - estimate)
        return max(due, jobs[-1].arrival_time_us)

    def next_due_us(self) -> float:
        """Earliest flush due time among pending groups (``inf`` if none is
        pending, or ``max_wait_us`` is unbounded and no decode-time model
        shortens the wait)."""
        if not self._groups:
            return math.inf
        if math.isinf(self.max_wait_us) and self.decode_time_model is None:
            return math.inf
        return min(self._group_due_us(key, jobs)
                   for key, jobs in self._groups.items())

    # ------------------------------------------------------------------ #
    # Scheduling
    # ------------------------------------------------------------------ #
    def _pop_group(self, key: Tuple[int, int, str], flush_time_us: float,
                   reason: str) -> DecodeBatch:
        jobs = self._groups.pop(key)
        ordered = tuple(sorted(jobs,
                               key=lambda j: (j.deadline_us, j.job_id)))
        self._flushed += len(ordered)
        return DecodeBatch(jobs=ordered, structure_key=key,
                           flush_time_us=flush_time_us, reason=reason)

    def _due_batches(self, now_us: float,
                     strict: bool = False) -> List[DecodeBatch]:
        """Flush every group whose wait budget (bounded or adaptive) is spent.

        With ``strict=True`` only groups due *strictly before* *now_us*
        flush — the boundary :meth:`submit` needs so an arrival at exactly
        its group's due time can ride along in that flush instead of
        stranding in a fresh group.
        """
        if math.isinf(self.max_wait_us) and self.decode_time_model is None:
            return []
        due: List[Tuple[float, float, Tuple[int, int, str]]] = []
        for key, jobs in self._groups.items():
            due_time = self._group_due_us(key, jobs)
            if due_time < now_us or (not strict and due_time == now_us):
                deadline = min(job.deadline_us for job in jobs)
                due.append((due_time, deadline, key))
        # Emit in event order; simultaneous flushes go most-urgent first.
        due.sort(key=lambda item: (item[0], item[1], item[2]))
        return [self._pop_group(key, due_time, FLUSH_TIMEOUT)
                for due_time, _, key in due]

    def advance(self, now_us: float) -> List[DecodeBatch]:
        """Advance the virtual clock and return any timeout-due batches.

        The clock never moves backwards; flush timestamps are the exact due
        times (``oldest arrival + max_wait_us``), not *now_us*, so a coarse
        caller observes the same schedule as a fine-grained one.
        """
        if now_us < self._clock_us:
            raise SchedulingError(
                f"time must be monotonic: advance({now_us}) after "
                f"{self._clock_us}")
        self._clock_us = now_us
        return self._due_batches(now_us)

    def submit(self, job: DecodeJob) -> List[DecodeBatch]:
        """Accept *job* and return every batch its arrival triggers.

        The arrival implicitly advances the clock.  Groups whose wait budget
        expired strictly before this arrival flush first (in due-time order,
        stamped at their due times — the new job cannot ride in a batch
        stamped before it arrived); then the job is enqueued; then any group
        due at exactly this instant flushes, the new arrival riding along if
        it joined one; and finally the job's group flushes as ``full`` if
        the arrival filled it to ``max_batch``.
        """
        if job.arrival_time_us < self._clock_us:
            raise SchedulingError(
                f"job {job.job_id} arrives at {job.arrival_time_us} but the "
                f"scheduler clock is already at {self._clock_us}")
        pending = self._groups.get(job.structure_key)
        if pending and pending[0].rng_mode != job.rng_mode:
            # A packed batch is decoded as one annealer call, which runs
            # under a single draw discipline — mixing modes in one pack
            # would silently decode some members under the wrong streams.
            # Checked before any flush/clock mutation so a rejected submit
            # leaves the scheduler exactly as it was.
            raise SchedulingError(
                f"job {job.job_id} has rng_mode={job.rng_mode!r} but its "
                f"structure group already holds pending jobs with "
                f"rng_mode={pending[0].rng_mode!r}; packs must be "
                f"rng-homogeneous — drain or flush before switching modes")
        now_us = job.arrival_time_us
        flushed = self._due_batches(now_us, strict=True)
        self._clock_us = now_us
        group = self._groups.setdefault(job.structure_key, [])
        group.append(job)
        self._submitted += 1
        flushed.extend(self._due_batches(now_us))
        if (self._groups.get(job.structure_key) is group
                and len(group) >= self.max_batch):
            flushed.append(self._pop_group(job.structure_key, now_us,
                                           FLUSH_FULL))
        return flushed

    def drain(self, now_us: Optional[float] = None) -> List[DecodeBatch]:
        """Flush everything still pending (end of stream / shutdown).

        Batches are emitted most-urgent-deadline first and stamped with
        *now_us* (default: the current clock).
        """
        now_us = self._clock_us if now_us is None else now_us
        flushed = self.advance(now_us)
        remaining = sorted(
            self._groups,
            key=lambda key: (min(job.deadline_us
                                 for job in self._groups[key]),
                             min(job.job_id for job in self._groups[key])))
        flushed.extend(self._pop_group(key, now_us, FLUSH_DRAIN)
                       for key in remaining)
        return flushed

    def __repr__(self) -> str:
        return (f"EDFBatchScheduler(max_batch={self.max_batch}, "
                f"max_wait_us={self.max_wait_us}, "
                f"pending={self.queue_depth} in {self.num_groups} groups)")
