"""Worker pool draining scheduler flushes through QuAMax decoders.

The pool models the paper's centralized processing pool (Section 7): batches
flushed by the :class:`~repro.cran.scheduler.EDFBatchScheduler` are decoded
through :meth:`~repro.decoder.quamax.QuAMaxDecoder.detect_batch`, which packs
each batch into block-diagonal QA jobs.  Three execution modes share one
accounting model:

* ``num_workers=0`` (inline) decodes synchronously in the submitting thread —
  fully deterministic, the mode simulations and tests use;
* ``num_workers>=1, mode="thread"`` drains per-worker shard queues from real
  threads, so wall-clock throughput benefits from NumPy releasing the GIL
  inside the anneals — but the Python parts of the decode stack still
  serialise on the GIL.  Batches are routed to a *sticky* shard by structure
  key (first-seen keys round-robin across workers), which keeps one worker's
  decoder sampler cache hot for each structure; an idle worker whose own
  shard is empty steals the oldest batch from the longest other shard, so
  skewed structure mixes never strand capacity;
* ``num_workers>=1, mode="process"`` ships each flushed pack to a persistent
  :mod:`multiprocessing` pool: the batch's job specs travel pickled, each
  worker process decodes with its own decoder replica, and the bulky result
  arrays come back through a shared-memory segment (pickle protocol 5
  out-of-band buffers) instead of the result pipe — so NumPy *and* pure
  Python decode work runs truly parallel across cores.

Backpressure is explicit: the total number of queued batches (summed across
all shards) is bounded, and on overload the pool either **blocks** the
producer (default — the scheduler naturally holds jobs back) or **sheds** the
batch (its jobs are counted and returned as dropped, the right policy when
deadlines make late decodes worthless).

Completion times are tracked on a virtual clock: each batch occupies the
earliest-free virtual QA machine from its flush time, for a service time of
one shared per-job overhead (:class:`~repro.annealer.machine.OverheadModel`)
plus the pack's amortised compute time.  Batches are credited to virtual
machines strictly in *submission (flush) order* — out-of-order thread
completions are buffered until their turn — so the latency and deadline
telemetry of a given offered load is deterministic regardless of worker
count or OS scheduling.  Batching therefore shows up in the latency
telemetry exactly where the paper puts it — the programming / preprocessing
overhead is paid once per *batch* instead of once per *job*.

Decode correctness is independent of all of this: every job consumes its own
private random stream, so results are bit-for-bit those of serial decoding
no matter how jobs were batched, queued or interleaved.

Failure is a first-class outcome.  With ``collect_failures=True`` a failed
pack is not shed: its slot credits as empty and the pack is parked on a
failure list (``pack.failed`` trace event) that the serving session drains
through :meth:`WorkerPool.take_failed` to requeue the jobs.  Dead workers
are supervised: a crashed thread worker is respawned on its shard (bounded
by ``restart_budget``, traced as ``worker.restart``) instead of silently
draining the shard into sheds, and a crashed process worker is respawned by
:mod:`multiprocessing` itself while the pool mirrors the same budget
accounting.  A seeded :class:`~repro.cran.faults.FaultPlan` can inject
crashes, decode errors and stragglers deterministically by submission index,
so the same plan produces the same accounting in all three modes.
"""

from __future__ import annotations

import copy
import multiprocessing
import os
import pickle
import threading
import time
from collections import deque
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.cran.faults import (
    FAULT_CRASH,
    FAULT_DECODE_ERROR,
    FAULT_SLOW,
    FaultPlan,
    InjectedFault,
    PackFault,
    WorkerCrash,
)
from repro.cran.jobs import DecodeJob, JobResult
from repro.cran.scheduler import DecodeBatch
from repro.cran.telemetry import TelemetryRecorder
from repro.cran.tracing import (
    EVENT_JOB_COMPLETE,
    EVENT_JOB_SHED,
    EVENT_PACK_COMPLETE,
    EVENT_PACK_DISPATCH,
    EVENT_PACK_FAILED,
    EVENT_PACK_FLUSH,
    EVENT_PACK_START,
    EVENT_WORKER_RESTART,
    TraceEvent,
    TraceRecorder,
)
from repro.annealer.backends import openmp_teams_run
from repro.obs.profiling import PROFILER
from repro.decoder.quamax import QuAMaxDecoder
from repro.exceptions import SchedulingError, WorkerPoolError
from repro.utils.validation import check_integer_in_range

#: Overload policies of the bounded submission queue.
POLICY_BLOCK = "block"
POLICY_SHED = "shed"
OVERLOAD_POLICIES = (POLICY_BLOCK, POLICY_SHED)

#: Execution modes of a pool with ``num_workers >= 1``.
MODE_THREAD = "thread"
MODE_PROCESS = "process"
MODES = (MODE_THREAD, MODE_PROCESS)


# --------------------------------------------------------------------------- #
# Process-mode worker side (module level so the pool can address it)
# --------------------------------------------------------------------------- #

#: The per-process decoder replica, built once by the pool initializer.
_WORKER_DECODER: Optional[QuAMaxDecoder] = None

#: The per-process fault plan (``None`` in fault-free pools); decisions are
#: keyed by submission index, so the worker reaches the same verdicts as
#: the parent's accounting.
_WORKER_FAULTS: Optional[FaultPlan] = None

#: This worker process's kernel-thread budget (set by the initializer).
_WORKER_THREADS: int = 1


def _process_worker_init(
        payload: Tuple[str, object, Optional[FaultPlan], int]) -> None:
    """Build this worker process's decoder (and fault plan) from the spec.

    The pool's per-worker kernel-thread budget rides along: it is exported
    as ``OMP_NUM_THREADS`` / ``NUMBA_NUM_THREADS`` caps *before* the decoder
    is built (so any lazily imported runtime honours it) — the
    oversubscription guard that stops ``num_workers`` processes × per-pack
    OpenMP teams from thrashing the machine.
    """
    global _WORKER_DECODER, _WORKER_FAULTS, _WORKER_THREADS
    kind, value, faults, threads = payload
    _WORKER_THREADS = max(1, int(threads))
    os.environ["OMP_NUM_THREADS"] = str(_WORKER_THREADS)
    os.environ["NUMBA_NUM_THREADS"] = str(_WORKER_THREADS)
    _WORKER_DECODER = value() if kind == "factory" else value
    _WORKER_FAULTS = faults


def _batch_decode_hints(batch: DecodeBatch,
                        default_threads: int) -> Tuple[str, int]:
    """Resolve one pack's ``(rng, threads)`` decode overrides.

    The scheduler guarantees packs are rng-homogeneous, so the first job
    speaks for all.  The thread count is the largest per-job hint, falling
    back to the worker's budget when no job carries one — and clamped to 1
    under the sequential discipline, whose draw order no parallel schedule
    can reproduce.
    """
    rng_mode = batch.jobs[0].rng_mode
    hints = [int(job.threads) for job in batch.jobs
             if job.threads is not None]
    threads = max(hints) if hints else max(1, int(default_threads))
    if rng_mode != "counter":
        threads = 1
    return rng_mode, threads


def _decode_overrides(rng_mode: str, threads: int) -> Dict[str, Any]:
    """Per-call ``detect_batch`` overrides; empty on the default path.

    Default sequential single-threaded packs keep the historical
    ``detect_batch(channel_uses, random_states=...)`` call shape, so
    duck-typed decoder stand-ins that predate the rng/threads knobs keep
    working; only non-default packs pass the overrides — and a decoder
    that cannot honour those must fail loudly rather than silently decode
    under the wrong discipline.
    """
    if rng_mode == "sequential" and threads == 1:
        return {}
    return {"rng": rng_mode, "threads": threads}


def _raise_pack_fault(faults: Optional[FaultPlan],
                      index: int) -> Optional[PackFault]:
    """Raise the fault a plan injects into pack *index*, if fatal.

    ``worker_crash`` raises :class:`WorkerCrash` and ``decode_error`` raises
    :class:`InjectedFault`; a ``slow`` fault is returned instead so the
    caller can inflate the pack's virtual service time after decoding.
    """
    if faults is None:
        return None
    fault = faults.pack_fault(index)
    if fault is None:
        return None
    if fault.kind == FAULT_CRASH:
        raise WorkerCrash(f"injected worker crash decoding pack {index}")
    if fault.kind == FAULT_DECODE_ERROR:
        raise InjectedFault(f"injected decode error on pack {index}")
    return fault


def _pack_service_us(decoder: QuAMaxDecoder, outcomes) -> float:
    """Virtual service time of one decoded pack.

    One shared per-job overhead for the whole pack plus every block's
    amortised compute — the accounting model all three execution modes
    share, which is what keeps latency/deadline telemetry identical across
    inline, thread and process serving.
    """
    num_anneals = outcomes[0].run.num_anneals
    return (decoder.annealer.overheads.total_us(num_anneals)
            + sum(outcome.compute_time_us for outcome in outcomes))


def _process_decode_batch(index: int, batch: DecodeBatch):
    """Decode one pack in a worker process; results go back via shared memory.

    Returns ``((pickled, shm_name, buffer_sizes), service_us, info)`` —
    see :func:`_export_outcomes` / :func:`_import_outcomes`.  ``info``
    carries the pack's wall decode seconds and, when this process's
    :data:`~repro.obs.profiling.PROFILER` is enabled (inherited via fork),
    the per-phase wall-time delta the decode accumulated, which the parent
    merges into its own profiler.

    An injected crash or decode error raises out of here and reaches the
    parent through the pool's ``error_callback`` (rather than killing the
    OS process, whose ``apply_async`` result would never fire) — the
    :mod:`multiprocessing` pool already maintains its worker set through
    literal deaths, while the exception path keeps the pack's accounting
    deterministic and identical to the threaded mode.
    """
    decoder = _WORKER_DECODER
    fault = _raise_pack_fault(_WORKER_FAULTS, index)
    rng_mode, threads = _batch_decode_hints(batch, _WORKER_THREADS)
    baseline = PROFILER.raw() if PROFILER.enabled else None
    wall_start = time.perf_counter()
    outcomes = decoder.detect_batch(
        [job.channel_use for job in batch.jobs],
        random_states=[job.rng() for job in batch.jobs],
        **_decode_overrides(rng_mode, threads))
    info: Dict[str, Any] = {"wall_s": time.perf_counter() - wall_start}
    if baseline is not None:
        delta = PROFILER.delta_since(baseline)
        if delta:
            info["phases"] = delta
    service_us = _pack_service_us(decoder, outcomes)
    if fault is not None:
        # A "slow" fault: the decode is correct, the straggler only shows
        # up in the virtual service time.
        service_us *= fault.factor
    return _export_outcomes(outcomes), service_us, info


def _export_outcomes(outcomes) -> Tuple[bytes, Optional[str], list]:
    """Serialise decode outcomes, large arrays out-of-band in shared memory.

    Pickle protocol 5 hands every contiguous ndarray payload (sample
    matrices, energies, embedded couplings, ...) to a buffer callback
    instead of inlining it; those buffers are packed into one
    :class:`multiprocessing.shared_memory.SharedMemory` segment per batch,
    so only the (small) object graph travels through the pool's result
    pipe.  Falls back to inline buffer copies when no shared memory is
    available.
    """
    buffers: list = []
    pickled = pickle.dumps(outcomes, protocol=5,
                           buffer_callback=buffers.append)
    views = [buffer.raw() for buffer in buffers]
    total = sum(view.nbytes for view in views)
    if total == 0:
        return pickled, None, []
    try:
        from multiprocessing import shared_memory
        segment = shared_memory.SharedMemory(create=True, size=total)
    except (ImportError, OSError):
        return pickled, None, [bytes(view) for view in views]
    sizes = []
    offset = 0
    for view in views:
        size = view.nbytes
        segment.buf[offset:offset + size] = view
        sizes.append(size)
        offset += size
    segment.close()
    return pickled, segment.name, sizes


def _import_outcomes(pickled: bytes, shm_name: Optional[str],
                     sizes: Sequence) -> list:
    """Reassemble outcomes exported by :func:`_export_outcomes`."""
    if shm_name is None:
        return pickle.loads(pickled, buffers=sizes)
    from multiprocessing import shared_memory
    segment = shared_memory.SharedMemory(name=shm_name)
    views: list = []
    attached = None
    try:
        offset = 0
        for size in sizes:
            views.append(segment.buf[offset:offset + size])
            offset += size
        attached = pickle.loads(pickled, buffers=views)
        # Deep-copy detaches every array from the segment so it can be
        # unlinked immediately instead of living as long as the results.
        outcomes = copy.deepcopy(attached)
    finally:
        # Drop every exported view before closing, or close() would fail;
        # unlink unconditionally so a parent-side failure (unpickling,
        # deep copy) cannot leak the segment.  Each cleanup step is guarded
        # separately: a failed unpickle can leave live views pinning the
        # mapping (close() raises BufferError), and unlink must still run —
        # exactly once — without masking the original error.
        attached = None
        views.clear()
        try:
            segment.close()
        except BufferError:
            pass
        try:
            segment.unlink()
        except FileNotFoundError:
            pass
    return outcomes


class WorkerPool:
    """Bounded-queue pool of QuAMax decode workers with virtual-time accounting.

    Parameters
    ----------
    decoder:
        Decoder used by the inline path and shared by threaded workers when
        no *decoder_factory* is given; a default :class:`QuAMaxDecoder` is
        created when omitted.
    num_workers:
        ``0`` decodes inline at submission (deterministic); ``>= 1`` starts
        that many draining threads or worker processes (see *mode*).
    mode:
        ``"thread"`` (default) drains bounded per-worker shard queues
        (structure-sticky routing with work stealing) from threads;
        ``"process"`` ships packs to a persistent multiprocessing pool —
        pickled job specs out, shared-memory sample buffers back — so the
        decode stack scales past the GIL.  Ignored when ``num_workers=0``.
        Virtual-time accounting is identical across modes (batches credit
        in flush order either way), so latency/deadline telemetry for a
        given offered load and worker count does not depend on the mode.
    mp_context:
        Multiprocessing start method for process mode (``"fork"``,
        ``"spawn"`` or ``"forkserver"``); default is the platform's own
        (``fork`` on Linux — fast start, decoder inherited without
        pickling — ``spawn`` on macOS/Windows, where forking a
        BLAS-active parent is unsafe).
    queue_capacity:
        Bound on queued batches summed over all worker shards (threaded
        mode), or on the number of in-flight packs (process mode).
    overload_policy:
        ``"block"`` stalls :meth:`submit` until space frees up; ``"shed"``
        drops the offered batch and records its jobs as shed.
    trace:
        The :class:`~repro.cran.tracing.TraceRecorder` event stream the
        pool writes everything into — pack/job lifecycle events (flush,
        dispatch, worker pickup, completion, sheds, failures, restarts) on
        the same virtual clock as the accounting.  The stream folds each
        event into its telemetry, which :attr:`telemetry` exposes.  The
        recorder is passive; the pool's own lock serialises every append,
        and producers record their events through :meth:`record_event` for
        the same reason.  ``None`` (default) uses a private stream that
        keeps no events.
    decoder_factory:
        Optional zero-argument callable building one decoder per worker
        thread (e.g. to give each worker its own annealer instance).
    autostart:
        Start worker threads immediately (threaded mode).  Tests can pass
        ``False`` to fill the queue deterministically before draining; with
        no worker running, a submission past capacity sheds (shed policy) or
        raises (block policy — it would otherwise deadlock the producer).
    faults:
        Optional :class:`~repro.cran.faults.FaultPlan` injecting worker
        crashes, decode errors and stragglers deterministically by
        submission index (process pools ship the plan to their workers, so
        worker-side decisions match the parent's accounting).
    restart_budget:
        How many dead workers supervision may respawn over the pool's
        lifetime.  Within budget a crashed thread worker is replaced on its
        shard (``worker.restart`` trace event) instead of entering the
        legacy drain mode; process crashes draw on the same budget for
        identical cross-mode accounting (the :mod:`multiprocessing` pool
        maintains its worker set regardless).
    collect_failures:
        When true, a failed pack is *not* shed: its submission slot credits
        as empty and the pack is parked for :meth:`take_failed`
        (``pack.failed`` trace event), letting the serving session requeue
        the jobs.  Off by default — without a retry layer on top, failures
        keep their legacy shed-and-raise semantics.
    threads:
        Per-worker kernel-thread budget applied to packs that carry no
        per-job ``threads`` hint (only effective under
        ``rng_mode="counter"`` jobs — the sequential discipline is
        clamped to 1).  Default ``None`` derives it: process pools get
        ``max(1, cpu_count // num_workers)`` so ``num_workers`` OpenMP
        teams never oversubscribe the machine, every other mode gets 1.
        Process workers additionally export the budget as
        ``OMP_NUM_THREADS`` / ``NUMBA_NUM_THREADS`` caps at initializer
        time.
    """

    def __init__(self, decoder: Optional[QuAMaxDecoder] = None, *,
                 num_workers: int = 0,
                 mode: str = MODE_THREAD,
                 mp_context: Optional[str] = None,
                 queue_capacity: int = 16,
                 overload_policy: str = POLICY_BLOCK,
                 trace: Optional[TraceRecorder] = None,
                 decoder_factory: Optional[Callable[[], QuAMaxDecoder]] = None,
                 autostart: bool = True,
                 faults: Optional[FaultPlan] = None,
                 restart_budget: int = 0,
                 collect_failures: bool = False,
                 threads: Optional[int] = None):
        if overload_policy not in OVERLOAD_POLICIES:
            raise SchedulingError(
                f"overload_policy must be one of {OVERLOAD_POLICIES}, got "
                f"{overload_policy!r}")
        if mode not in MODES:
            raise SchedulingError(
                f"mode must be one of {MODES}, got {mode!r}")
        self.num_workers = check_integer_in_range("num_workers", num_workers,
                                                  minimum=0)
        self.mode = mode
        self.mp_context = mp_context
        self.queue_capacity = check_integer_in_range(
            "queue_capacity", queue_capacity, minimum=1)
        self.overload_policy = overload_policy
        self.decoder = decoder or QuAMaxDecoder()
        self._decoder_factory = decoder_factory
        if trace is None:
            trace = TraceRecorder(keep=False)
        self.trace = trace
        self.faults = faults
        self.restart_budget = check_integer_in_range(
            "restart_budget", restart_budget, minimum=0)
        self.collect_failures = bool(collect_failures)
        if threads is None:
            # Oversubscription guard: a process pool's workers each run
            # their own OpenMP team, so the default budget divides the
            # machine between them; threaded/inline pools share one
            # process (and its GIL) and default to serial kernels.
            if self.num_workers and mode == MODE_PROCESS:
                threads = max(1, (os.cpu_count() or 1) // self.num_workers)
            else:
                threads = 1
        self.threads = check_integer_in_range("threads", threads, minimum=1)

        self._lock = threading.Lock()
        # Thread mode: one shard deque per worker, a sticky structure-key
        # routing table, and a total-pending bound shared by all shards.
        self._shards: List["deque[Tuple[int, DecodeBatch]]"] = [
            deque() for _ in range(max(1, self.num_workers))]
        self._route: Dict[Tuple, int] = {}
        self._next_shard = 0
        self._shard_routed = [0] * max(1, self.num_workers)
        self._pending = 0
        self._steals = 0
        self._stop = False
        self._not_empty = threading.Condition(self._lock)
        self._not_full = threading.Condition(self._lock)
        # Process mode: in-flight pack accounting behind the same lock.
        self._space = threading.Condition(self._lock)
        self._inflight = 0
        self._pool = None
        self._results: List[JobResult] = []
        self._shed_jobs: List = []
        self._errors: List[BaseException] = []
        # Failed packs parked for the retry layer: (submission index,
        # batch, failure stage).  Only populated when collect_failures.
        self._failed: List[Tuple[int, DecodeBatch, str]] = []
        self._restarts_left = self.restart_budget
        # Signalled whenever crediting catches up with submission — the
        # retry layer's wait_idle() barrier.
        self._idle = threading.Condition(self._lock)
        # One virtual QA machine per worker (at least one for inline mode);
        # entry k is the time machine k becomes free.  Batches are credited
        # in submission order: decoded-but-out-of-turn batches wait in
        # ``_decoded`` (``None`` marks a shed submission slot to skip).
        self._virtual_free = [0.0] * max(1, self.num_workers)
        self._next_submit = 0
        self._next_credit = 0
        self._decoded: Dict[
            int, Optional[Tuple[DecodeBatch, list, float, dict]]] = {}
        self._threads: List[threading.Thread] = []
        self._started = False
        self._closed = False
        if self.num_workers and autostart:
            self.start()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> None:
        """Start the workers (no-op when inline or already started)."""
        if self._started or not self.num_workers:
            self._started = True
            return
        self._started = True
        if self.mode == MODE_PROCESS:
            # The platform-default start method is the safe choice: fork on
            # Linux (fast start, decoder inherited without pickling), spawn
            # on macOS/Windows where forking a threaded/BLAS-active parent
            # is unsafe.  mp_context overrides it explicitly.
            context_name = self.mp_context
            if context_name is None and openmp_teams_run():
                # libgomp's worker threads do not survive fork(): once this
                # process has run a multi-thread OpenMP team (a threaded
                # counter kernel), a fork-context child deadlocks in its
                # first parallel region.  Fall back to spawn, where workers
                # rebuild the decoder from the pickled spec like on
                # macOS/Windows.
                try:
                    if (multiprocessing.get_start_method(allow_none=True)
                            in (None, "fork")):
                        context_name = "spawn"
                except ValueError:
                    pass
            context = multiprocessing.get_context(context_name)
            try:
                # Start the resource tracker *before* forking the pool, so
                # the workers inherit it: shared-memory segments registered
                # by a worker are then unregistered by the parent's unlink
                # against the same tracker (no leak warnings, and crash
                # cleanup still covers in-flight segments).
                from multiprocessing import resource_tracker
                resource_tracker.ensure_running()
            except (ImportError, OSError):
                pass
            # Workers rebuild the decoder from a pickled spec: the factory
            # when one was given (one decoder per process, like the threaded
            # decoder_factory), else the configured decoder itself.  The
            # fault plan rides along so worker-side injection decisions
            # match the parent's accounting.
            payload = (
                ("factory", self._decoder_factory, self.faults, self.threads)
                if self._decoder_factory is not None
                else ("decoder", self.decoder, self.faults, self.threads))
            self._pool = context.Pool(processes=self.num_workers,
                                      initializer=_process_worker_init,
                                      initargs=(payload,))
            return
        for index in range(self.num_workers):
            self._spawn_worker(index)

    def _spawn_worker(self, shard: int) -> None:
        """Start one draining thread on *shard* (initial start or respawn)."""
        decoder = (self._decoder_factory()
                   if self._decoder_factory is not None else self.decoder)
        thread = threading.Thread(target=self._worker_loop,
                                  args=(decoder, shard),
                                  name=f"cran-worker-{shard}",
                                  daemon=True)
        with self._lock:
            self._threads.append(thread)
        thread.start()

    def close(self) -> None:
        """Stop accepting batches, drain the backlog and join the workers.

        A single recorded worker error is re-raised as-is; two or more are
        aggregated into a :class:`~repro.exceptions.WorkerPoolError` whose
        message lists every one of them, so no failure is masked by
        whichever thread happened to record first.
        """
        if self._closed:
            return
        self._closed = True
        if self.num_workers:
            self.start()
            if self.mode == MODE_PROCESS:
                with self._space:
                    while self._inflight:
                        self._space.wait()
                self._pool.close()
                self._pool.join()
            else:
                with self._lock:
                    self._stop = True
                    self._not_empty.notify_all()
                while True:
                    # A worker crashing while the backlog drains can spawn
                    # a replacement after a join pass; loop until no new
                    # thread appeared (replacements observe _stop and exit
                    # once their shard is empty).
                    with self._lock:
                        threads = list(self._threads)
                    for thread in threads:
                        thread.join()
                    with self._lock:
                        if len(self._threads) == len(threads):
                            break
        with self._lock:
            # Failures nobody collected degrade to sheds so every submitted
            # job stays accounted (complete + shed == submitted).
            for index, batch, stage in sorted(self._failed,
                                              key=lambda item: item[0]):
                self._record_shed_locked(batch, index, stage)
            self._failed.clear()
        if self._errors:
            if len(self._errors) == 1:
                raise self._errors[0]
            raise WorkerPoolError(self._errors)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #
    def submit(self, batch: DecodeBatch) -> bool:
        """Offer one flushed batch to the pool.

        Returns ``True`` when the batch was accepted, ``False`` when the
        overload policy shed it.  Inline pools decode before returning.
        """
        if self._closed:
            raise SchedulingError("cannot submit to a closed WorkerPool")
        with self._lock:
            index = self._next_submit
            self._next_submit += 1
            self.trace.record(
                EVENT_PACK_FLUSH, batch.flush_time_us, pack_id=index,
                reason=batch.reason, size=batch.size,
                structure=batch.structure_label,
                job_ids=list(batch.job_ids))
            # Parent-side record of the fault the plan *assigns* to this
            # submission index — recomputed here (one draw, keyed by index)
            # so the injected-fault telemetry is identical whichever mode
            # actually hits the fault.
            assigned = (self.faults.pack_fault(index)
                        if self.faults is not None else None)
            fault = {} if assigned is None else {"fault": assigned.kind}
            self.trace.record(EVENT_PACK_DISPATCH, batch.flush_time_us,
                              pack_id=index, **fault)
        if self.num_workers and self.mode == MODE_PROCESS:
            return self._submit_process(index, batch)
        if not self.num_workers:
            try:
                self._decode(self.decoder, batch, index)
            except InjectedFault as error:
                if not self.collect_failures:
                    with self._lock:
                        self._shed_slot_locked(batch, index, "decode_error")
                    raise
                stage = (FAULT_CRASH if isinstance(error, WorkerCrash)
                         else FAULT_DECODE_ERROR)
                with self._lock:
                    self._record_failed_locked(batch, index, stage)
                return True
            except BaseException:
                # Free the submission slot so later batches still credit if
                # the caller treats the failure as transient and keeps going.
                with self._lock:
                    self._shed_slot_locked(batch, index, "decode_error")
                raise
            return True
        with self._not_full:
            if self._pending >= self.queue_capacity:
                if self.overload_policy == POLICY_SHED:
                    self._shed_slot_locked(batch, index, "pool")
                    return False
                if not self._started:
                    # A blocking wait with no running consumer would
                    # deadlock the producer; surface the misuse instead.
                    self._decoded[index] = None
                    self._credit_ready_locked()
                    raise SchedulingError(
                        "submission queue is full but no worker is running; "
                        "call start() before blocking submissions")
                while self._pending >= self.queue_capacity:
                    self._not_full.wait()
            shard = self._shard_for_locked(batch.structure_key)
            self._shards[shard].append((index, batch))
            self._shard_routed[shard] += 1
            self._pending += 1
            self._not_empty.notify()
        return True

    def _submit_process(self, index: int, batch: DecodeBatch) -> bool:
        """Ship one batch to the process pool, honouring the backpressure
        policy on the number of in-flight packs."""
        self.start()
        with self._space:
            if self.overload_policy == POLICY_BLOCK:
                while self._inflight >= self.queue_capacity:
                    self._space.wait()
            elif self._inflight >= self.queue_capacity:
                self._shed_slot_locked(batch, index, "pool")
                return False
            self._inflight += 1
        self._pool.apply_async(
            _process_decode_batch, (index, batch),
            callback=partial(self._on_process_result, index, batch),
            error_callback=partial(self._on_process_error, index, batch))
        return True

    def _on_process_result(self, index: int, batch: DecodeBatch,
                           payload) -> None:
        """Pool callback: reattach shared buffers, credit in flush order."""
        try:
            (pickled, shm_name, sizes), service_us, info = payload
            outcomes = _import_outcomes(pickled, shm_name, sizes)
        except BaseException as error:  # surfaced by close()
            self._on_process_error(index, batch, error)
            return
        PROFILER.merge(info.pop("phases", None))
        with self._space:
            self._decoded[index] = (batch, outcomes, service_us, info)
            self._credit_ready_locked()
            self._inflight -= 1
            self._space.notify_all()

    def _on_process_error(self, index: int, batch: DecodeBatch,
                          error: BaseException) -> None:
        """Pool error callback: park the pack for the retry layer (when
        collecting failures) or account it as shed, keep the slot order
        intact, and surface non-injected errors at close()."""
        if not isinstance(error, BaseException):
            error = SchedulingError(f"process worker failed: {error!r}")
        crash = isinstance(error, WorkerCrash)
        injected = isinstance(error, InjectedFault)
        with self._space:
            if injected and self.collect_failures:
                self._record_failed_locked(
                    batch, index, FAULT_CRASH if crash else FAULT_DECODE_ERROR)
            else:
                self._errors.append(error)
                self._shed_slot_locked(batch, index, "process_error")
            if crash:
                # The multiprocessing pool maintains its own worker set
                # through deaths; the budget/trace accounting here mirrors
                # the threaded supervision so both modes report identically.
                self._note_restart_locked(batch, index, worker=None)
            self._inflight -= 1
            self._space.notify_all()

    def record_event(self, name: str, ts_us: float, *,
                     job_id: Optional[int] = None,
                     pack_id: Optional[int] = None,
                     worker: Optional[int] = None,
                     **attrs: Any) -> None:
        """Record one event into the stream under the pool lock.

        Producers (session, ingress gateway) stamp their own events —
        ``job.admit``, ``queue.depth``, ``job.retry``, ``brownout.*``,
        ``ingress.admit``, ``job.restamp``, gateway-level ``job.shed`` —
        through here so the append, and the telemetry fold it drives, is
        serialised against the workers' recording.
        """
        with self._lock:
            self.trace.record(name, ts_us, job_id=job_id, pack_id=pack_id,
                              worker=worker, **attrs)

    def _record_shed_locked(self, batch: DecodeBatch, index: int,
                            stage: str) -> None:
        """Account one dropped batch (lock held): shed list and a
        ``job.shed`` event per member."""
        self._shed_jobs.extend(batch.jobs)
        for job in batch.jobs:
            self.trace.record(EVENT_JOB_SHED, batch.flush_time_us,
                              job_id=job.job_id, pack_id=index, stage=stage)

    def _shed_slot_locked(self, batch: DecodeBatch, index: int,
                          stage: str) -> None:
        """Credit submission slot *index* as empty and shed its batch."""
        self._decoded[index] = None
        self._credit_ready_locked()
        self._record_shed_locked(batch, index, stage)

    def _record_failed_locked(self, batch: DecodeBatch, index: int,
                              stage: str) -> None:
        """Park one failed pack for the retry layer (lock held).

        The submission slot credits as empty so later packs keep flowing;
        the pack's jobs stay *unaccounted* (neither completed nor shed)
        until :meth:`take_failed` hands them to the caller — or
        :meth:`close` sheds whatever nobody collected.
        """
        self._decoded[index] = None
        self._credit_ready_locked()
        self._failed.append((index, batch, stage))
        self.trace.record(EVENT_PACK_FAILED, batch.flush_time_us,
                          pack_id=index, stage=stage,
                          job_ids=list(batch.job_ids))

    def _note_restart_locked(self, batch: DecodeBatch, index: int,
                             worker: Optional[int]) -> bool:
        """Spend one restart-budget slot on a dead worker (lock held).

        Returns whether supervision may respawn (budget not exhausted);
        records the restart as a ``worker.restart`` event stamped at the
        failing pack's flush time.
        """
        if self._restarts_left <= 0:
            return False
        self._restarts_left -= 1
        self.trace.record(EVENT_WORKER_RESTART, batch.flush_time_us,
                          pack_id=index, worker=worker,
                          remaining=self._restarts_left)
        return True

    def take_failed(self) -> List[Tuple[int, DecodeBatch, str]]:
        """Drain the parked failures, in submission order.

        Returns ``(submission index, batch, failure stage)`` triples and
        clears the list; the caller owns the jobs from here (requeue, shed,
        ...).  Submission-order sorting keeps the retry layer's
        resubmission stream — and with it every retry stamp — identical
        whatever order concurrent workers recorded the failures in.
        """
        with self._lock:
            failed = sorted(self._failed, key=lambda item: item[0])
            self._failed.clear()
        return failed

    def wait_idle(self) -> None:
        """Block until every submitted pack has been credited or failed.

        The retry layer's barrier: after this, :meth:`take_failed` has
        seen every failure of the packs submitted so far.  Inline pools
        are idle by construction, and a pool whose workers were never
        started would wait forever — both return immediately.
        """
        if not self.num_workers or not self._started:
            return
        with self._idle:
            while self._next_credit < self._next_submit:
                self._idle.wait()

    def shed_job(self, job: DecodeJob, stage: str, ts_us: float) -> None:
        """Account one producer-side dropped job (brownout admission shed,
        retry give-up) in the same stream as the pool's own sheds."""
        with self._lock:
            self._shed_jobs.append(job)
            self.trace.record(EVENT_JOB_SHED, ts_us, job_id=job.job_id,
                              stage=stage)

    @property
    def telemetry(self) -> TelemetryRecorder:
        """Read-only view of the telemetry folded from :attr:`trace`."""
        return self.trace.fold

    # ------------------------------------------------------------------ #
    # Results
    # ------------------------------------------------------------------ #
    def results(self) -> List[JobResult]:
        """Completed job results so far, ordered by job id."""
        with self._lock:
            return sorted(self._results, key=lambda r: r.job.job_id)

    @property
    def shed_jobs(self) -> List:
        """Jobs dropped by the shed policy, in submission order."""
        with self._lock:
            return list(self._shed_jobs)

    # ------------------------------------------------------------------ #
    # Decoding
    # ------------------------------------------------------------------ #
    def _shard_for_locked(self, key: Tuple) -> int:
        """Sticky shard of one structure key (first-seen keys round-robin).

        Called with the lock held.  Routing by structure rather than by load
        keeps each worker decoding the same problem shapes back to back —
        which is what lets a per-worker decoder's warm sampler cache hit —
        while work stealing (:meth:`_take_locked`) still balances skewed
        mixes.  The round-robin assignment depends only on first-seen order,
        never on ``hash()``, so routing is reproducible across runs.
        """
        shard = self._route.get(key)
        if shard is None:
            shard = self._next_shard % len(self._shards)
            self._route[key] = shard
            self._next_shard += 1
        return shard

    def _take_locked(self, shard: int) -> Optional[Tuple[int, DecodeBatch]]:
        """Pop this worker's next batch, stealing when its shard is empty.

        Called with the lock held.  Own shard first (FIFO), else the oldest
        batch of the *longest* other shard (ties to the lowest index);
        ``None`` when every shard is empty.
        """
        own = self._shards[shard]
        if not own:
            victim, depth = None, 0
            for other, candidate in enumerate(self._shards):
                if other != shard and len(candidate) > depth:
                    victim, depth = other, len(candidate)
            if victim is None:
                return None
            own = self._shards[victim]
            self._steals += 1
        self._pending -= 1
        return own.popleft()

    @property
    def steal_count(self) -> int:
        """Number of batches taken from another worker's shard so far."""
        with self._lock:
            return self._steals

    def worker_info(self) -> Dict[str, Any]:
        """One-shot snapshot of the pool's worker-level counters.

        ``steal_count``, per-shard routed totals (``shard_batches``) and
        current occupancy (``shard_depths``) — the numbers the service
        surfaces under ``telemetry["workers"]``.  Shard counters stay zero
        for inline and process pools, which have no shard queues.
        """
        with self._lock:
            return {
                "mode": "inline" if not self.num_workers else self.mode,
                "num_workers": self.num_workers,
                "threads": self.threads,
                "steal_count": self._steals,
                "shard_batches": list(self._shard_routed),
                "shard_depths": [len(shard) for shard in self._shards],
            }

    def _worker_loop(self, decoder: QuAMaxDecoder, shard: int) -> None:
        failed = False
        while True:
            with self._not_empty:
                while True:
                    item = self._take_locked(shard)
                    if item is not None:
                        break
                    if self._stop:
                        return
                    self._not_empty.wait()
                self._not_full.notify_all()
            index, batch = item
            if failed:
                # Keep draining so blocked producers never deadlock on a
                # dead worker; the undecoded packs stay accounted — parked
                # for the retry layer when collecting failures, shed
                # otherwise — and the original error is raised by close().
                with self._lock:
                    if self.collect_failures:
                        self._record_failed_locked(batch, index,
                                                   "worker_error")
                    else:
                        self._shed_slot_locked(batch, index, "worker_error")
                continue
            try:
                self._decode(decoder, batch, index)
            except Exception as error:
                # Exception, not BaseException: a KeyboardInterrupt must
                # propagate and kill the worker loudly rather than being
                # folded into the fault accounting.
                crash = isinstance(error, WorkerCrash)
                injected = isinstance(error, InjectedFault)
                respawn = False
                with self._lock:
                    if injected and self.collect_failures:
                        self._record_failed_locked(
                            batch, index,
                            FAULT_CRASH if crash else FAULT_DECODE_ERROR)
                    else:
                        self._errors.append(error)  # surfaced by close()
                        self._shed_slot_locked(batch, index, "worker_error")
                    if crash or not injected:
                        # The worker is dead.  Within budget, supervision
                        # respawns it on the same shard; past it, this loop
                        # degrades to the legacy drain mode above.
                        respawn = self._note_restart_locked(batch, index,
                                                            worker=shard)
                        if not respawn:
                            failed = True
                if respawn:
                    self._spawn_worker(shard)
                    return

    def _decode(self, decoder: QuAMaxDecoder, batch: DecodeBatch,
                index: int) -> None:
        """Decode one batch, then credit it in submission order."""
        fault = _raise_pack_fault(self.faults, index)
        rng_mode, threads = _batch_decode_hints(batch, self.threads)
        wall_start = time.perf_counter()
        outcomes = decoder.detect_batch(
            [job.channel_use for job in batch.jobs],
            random_states=[job.rng() for job in batch.jobs],
            **_decode_overrides(rng_mode, threads))
        # One shared job overhead per pack, plus the amortised compute of
        # every block: this is precisely where batching buys latency.
        service_us = _pack_service_us(decoder, outcomes)
        if fault is not None:
            # Injected straggler: correct decode, inflated virtual service.
            service_us *= fault.factor
        info = {"wall_s": time.perf_counter() - wall_start}
        with self._lock:
            self._decoded[index] = (batch, outcomes, service_us, info)
            self._credit_ready_locked()

    def _credit_ready_locked(self) -> None:
        """Credit every decoded batch whose submission turn has come.

        Called with the lock held.  Crediting strictly in submission order
        keeps the virtual-machine assignment — and with it every latency and
        deadline statistic — deterministic under threaded execution.
        """
        try:
            self._drain_credits_locked()
        finally:
            if self._next_credit >= self._next_submit:
                self._idle.notify_all()

    def _drain_credits_locked(self) -> None:
        while self._next_credit in self._decoded:
            index = self._next_credit
            entry = self._decoded.pop(index)
            self._next_credit += 1
            if entry is None:  # shed or failed slot: nothing to credit
                continue
            batch, outcomes, service_us, info = entry
            machine = min(range(len(self._virtual_free)),
                          key=self._virtual_free.__getitem__)
            start_us = max(batch.flush_time_us, self._virtual_free[machine])
            finish_us = start_us + service_us
            self._virtual_free[machine] = finish_us
            results = [
                JobResult(job=job, result=outcome, batch_size=batch.size,
                          flush_reason=batch.reason,
                          flush_time_us=batch.flush_time_us,
                          start_time_us=start_us, finish_time_us=finish_us)
                for job, outcome in zip(batch.jobs, outcomes)
            ]
            self._results.extend(results)
            job_ids = [job.job_id for job in batch.jobs]
            # The service split every member shares: the pack's one
            # programming/readout overhead vs its amortised compute.
            overhead_us = service_us - sum(
                outcome.compute_time_us for outcome in outcomes)
            attrs: Dict[str, Any] = {
                "job_ids": job_ids, "service_us": service_us,
                "overhead_us": overhead_us,
                "anneal_us": service_us - overhead_us,
            }
            if self.trace.wall_time and info:
                attrs["wall_s"] = info.get("wall_s")
            # One credited pack, appended (and folded) as one group.
            events = [
                TraceEvent(EVENT_PACK_START, float(start_us), pack_id=index,
                           worker=machine, attrs={"job_ids": job_ids}),
                TraceEvent(EVENT_PACK_COMPLETE, float(finish_us),
                           pack_id=index, worker=machine, attrs=attrs)]
            events.extend(
                TraceEvent(EVENT_JOB_COMPLETE, float(finish_us),
                           job_id=result.job.job_id, pack_id=index,
                           worker=machine,
                           attrs={"deadline_met": result.deadline_met,
                                  "arrival_us": result.job.arrival_time_us})
                for result in results)
            self.trace.extend(events)

    def __repr__(self) -> str:
        mode = ("inline" if not self.num_workers
                else f"{self.num_workers} "
                     f"{'processes' if self.mode == MODE_PROCESS else 'threads'}")
        return (f"WorkerPool({mode}, capacity={self.queue_capacity}, "
                f"policy={self.overload_policy!r})")
