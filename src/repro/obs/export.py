"""Trace and metrics exporters: Chrome trace JSON, JSONL, Prometheus text.

Three wire formats over the same observability data:

* :func:`to_chrome_trace` — the Chrome trace-event format (load in
  Perfetto / ``chrome://tracing``): one track per virtual QA worker with
  pack spans split into overhead/anneal slices, one track per cell with
  the member jobs' queue spans, instant markers for sheds and re-stamps.
  Virtual µs map directly onto the format's µs timestamps.
* :func:`to_jsonl` / :func:`read_jsonl` — the lossless structured dump
  (one event object per line), the canonical on-disk form the
  ``python -m repro.obs.report`` CLI consumes.
* :func:`prometheus_metrics` — a Prometheus text-exposition snapshot of
  the serving counters: jobs/sheds/misses, flush reasons, latency
  quantiles, sampler-cache hits/misses, worker steals and shard
  occupancy, per-structure decode-time EWMAs, ingress counters.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Union

from repro.cran.tracing import (
    EVENT_BROWNOUT_CLOSE,
    EVENT_BROWNOUT_OPEN,
    EVENT_INGRESS_ADMIT,
    EVENT_JOB_RESTAMP,
    EVENT_JOB_RETRY,
    EVENT_JOB_SHED,
    EVENT_PACK_FAILED,
    EVENT_WORKER_RESTART,
    TraceEvent,
    job_timelines,
    pack_spans,
)

__all__ = [
    "to_chrome_trace",
    "write_chrome_trace",
    "to_jsonl",
    "write_jsonl",
    "read_jsonl",
    "prometheus_metrics",
]

#: pid of the single synthetic process every track lives in.
_PID = 1
#: tid bases: worker tracks then cell tracks (Perfetto sorts by tid).
_WORKER_TID_BASE = 1
_CELL_TID_BASE = 1001
_MARKER_TID = 2001


def _thread_meta(tid: int, name: str) -> Dict[str, Any]:
    return {"ph": "M", "name": "thread_name", "pid": _PID, "tid": tid,
            "args": {"name": name}}


def _complete(name: str, ts_us: float, dur_us: float, tid: int,
              args: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    event: Dict[str, Any] = {"ph": "X", "name": name, "cat": "cran",
                             "pid": _PID, "tid": tid,
                             "ts": ts_us, "dur": max(dur_us, 0.0)}
    if args:
        event["args"] = args
    return event


def to_chrome_trace(events: Sequence[TraceEvent]) -> Dict[str, Any]:
    """Render a trace-event dict loadable by Perfetto / chrome://tracing.

    Tracks: one per virtual QA worker (pack spans, with overhead/anneal
    sub-slices nested inside), one per cell/user (member jobs' queue
    spans), and a marker track with shed / re-stamp instants.
    """
    trace_events: List[Dict[str, Any]] = []
    workers_seen: Dict[int, int] = {}
    cells_seen: Dict[Any, int] = {}

    def worker_tid(worker: Optional[int]) -> int:
        key = -1 if worker is None else int(worker)
        if key not in workers_seen:
            tid = _WORKER_TID_BASE + len(workers_seen)
            workers_seen[key] = tid
            label = "worker ?" if worker is None else f"worker {key}"
            trace_events.append(_thread_meta(tid, label))
        return workers_seen[key]

    def cell_tid(cell: Any) -> int:
        if cell not in cells_seen:
            tid = _CELL_TID_BASE + len(cells_seen)
            cells_seen[cell] = tid
            trace_events.append(_thread_meta(tid, f"cell {cell}"))
        return cells_seen[cell]

    timelines = job_timelines(events)
    packs = pack_spans(events)

    # Pack spans on worker tracks, overhead/anneal nested inside.
    for pack in sorted(packs.values(), key=lambda p: p["pack_id"]):
        if pack["start_us"] is None or pack["finish_us"] is None:
            continue
        tid = worker_tid(pack["worker"])
        start, finish = pack["start_us"], pack["finish_us"]
        args = {"pack_id": pack["pack_id"], "reason": pack["reason"],
                "structure": pack["structure"],
                "jobs": list(pack["job_ids"])}
        trace_events.append(_complete(
            f"pack {pack['pack_id']} ({pack['reason']})",
            start, finish - start, tid, args))
        overhead = pack.get("overhead_us")
        if overhead is not None:
            overhead = min(float(overhead), finish - start)
            trace_events.append(_complete("overhead", start, overhead, tid))
            trace_events.append(_complete("anneal", start + overhead,
                                          finish - start - overhead, tid))

    # Queue spans (admit -> flush) on per-cell tracks.
    cell_of: Dict[int, Any] = {}
    for event in events:
        if event.name == EVENT_INGRESS_ADMIT and event.job_id is not None:
            cell_of[event.job_id] = event.attrs.get("cell")
    for timeline in sorted(timelines.values(), key=lambda t: t.job_id):
        if timeline.admit_us is None or timeline.flush_us is None:
            continue
        cell = cell_of.get(timeline.job_id, "-")
        trace_events.append(_complete(
            f"job {timeline.job_id} queued",
            timeline.admit_us, timeline.flush_us - timeline.admit_us,
            cell_tid(cell),
            {"pack_id": timeline.pack_id, "reason": timeline.flush_reason}))

    # Instant markers: sheds, re-stamps, and the fault-tolerance events
    # (retries, pack failures, worker restarts, brownout transitions).
    marker_events = (EVENT_JOB_SHED, EVENT_JOB_RESTAMP, EVENT_JOB_RETRY,
                     EVENT_PACK_FAILED, EVENT_WORKER_RESTART,
                     EVENT_BROWNOUT_OPEN, EVENT_BROWNOUT_CLOSE)
    marker_meta_added = False
    for event in events:
        if event.name not in marker_events:
            continue
        if not marker_meta_added:
            trace_events.append(_thread_meta(_MARKER_TID, "markers"))
            marker_meta_added = True
        if event.job_id is not None:
            name = f"{event.name} job {event.job_id}"
        elif event.pack_id is not None:
            name = f"{event.name} pack {event.pack_id}"
        else:
            name = event.name
        trace_events.append({
            "ph": "i", "s": "g", "cat": "cran",
            "name": name,
            "pid": _PID, "tid": _MARKER_TID, "ts": event.ts_us,
            "args": dict(event.attrs),
        })

    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {"clock": "virtual µs (C-RAN serving clock)"},
    }


def write_chrome_trace(path: Union[str, Path],
                       events: Sequence[TraceEvent]) -> Path:
    """Write :func:`to_chrome_trace` output as JSON; returns the path."""
    path = Path(path)
    path.write_text(json.dumps(to_chrome_trace(events), allow_nan=False)
                    + "\n", encoding="utf-8")
    return path


# --------------------------------------------------------------------------- #
# JSONL
# --------------------------------------------------------------------------- #

def to_jsonl(events: Sequence[TraceEvent]) -> str:
    """One JSON object per line, in append order (lossless round-trip)."""
    return "".join(json.dumps(event.to_dict(), allow_nan=False) + "\n"
                   for event in events)


def write_jsonl(path: Union[str, Path],
                events: Sequence[TraceEvent]) -> Path:
    """Write :func:`to_jsonl` output; returns the path."""
    path = Path(path)
    path.write_text(to_jsonl(events), encoding="utf-8")
    return path


def read_jsonl(path: Union[str, Path]) -> List[TraceEvent]:
    """Load a JSONL event dump back into :class:`TraceEvent` objects."""
    events: List[TraceEvent] = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line:
            events.append(TraceEvent.from_dict(json.loads(line)))
    return events


# --------------------------------------------------------------------------- #
# Prometheus text exposition
# --------------------------------------------------------------------------- #

def _metric_line(name: str, value: Any,
                 labels: Optional[Dict[str, Any]] = None) -> Optional[str]:
    if value is None:
        return None
    value = float(value)
    if not math.isfinite(value):
        return None
    if labels:
        rendered = ",".join(f'{key}="{item}"'
                            for key, item in labels.items())
        return f"{name}{{{rendered}}} {value:g}"
    return f"{name} {value:g}"


def prometheus_metrics(telemetry: Union[Dict[str, Any], Any]) -> str:
    """Prometheus text-format snapshot of a service's telemetry.

    Accepts either a :class:`~repro.cran.service.ServiceReport` or its
    ``telemetry`` dict (:meth:`TelemetryRecorder.snapshot`, possibly
    enriched with the ``workers`` / ``sampler_cache`` / ``ingress``
    sections the session and gateway add).  Sections that are absent are
    simply skipped, so a bare recorder snapshot renders too.
    """
    snapshot = getattr(telemetry, "telemetry", telemetry)
    lines: List[str] = []

    def emit(name: str, kind: str, help_text: str,
             samples: Iterable[Optional[str]]) -> None:
        rendered = [sample for sample in samples if sample is not None]
        if not rendered:
            return
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {kind}")
        lines.extend(rendered)

    def scalar(name: str, kind: str, help_text: str, value: Any) -> None:
        emit(name, kind, help_text, [_metric_line(name, value)])

    def labelled(name: str, kind: str, help_text: str, label: str,
                 series: Iterable) -> None:
        emit(name, kind, help_text,
             [_metric_line(name, value, {label: key})
              for key, value in series])

    scalar("cran_jobs_completed_total", "counter", "Jobs decoded.",
           snapshot.get("jobs_completed"))
    scalar("cran_jobs_shed_total", "counter",
           "Jobs dropped by overload policies.", snapshot.get("jobs_shed"))
    scalar("cran_batches_decoded_total", "counter", "Packs decoded.",
           snapshot.get("batches_decoded"))
    scalar("cran_deadline_misses_total", "counter",
           "Completed jobs that missed their deadline.",
           snapshot.get("deadline_misses"))
    labelled("cran_flush_reason_total", "counter",
             "Packs flushed, by scheduler flush reason.", "reason",
             (snapshot.get("flush_reasons") or {}).items())
    labelled("cran_batch_fill_total", "counter",
             "Packs decoded, by batch fill.", "size",
             (snapshot.get("batch_fill_histogram") or {}).items())
    scalar("cran_throughput_jobs_per_s", "gauge",
           "Completed jobs per virtual second.",
           snapshot.get("throughput_jobs_per_s"))

    latency = snapshot.get("latency_us") or {}
    labelled("cran_latency_us", "gauge",
             "Rolling latency percentiles (virtual µs).", "quantile",
             [(key[1:], latency.get(key))
              for key in sorted(latency) if key.startswith("p")])
    scalar("cran_latency_mean_us", "gauge", "Rolling mean latency (µs).",
           latency.get("mean"))
    scalar("cran_queue_delay_mean_us", "gauge",
           "Mean scheduler queueing delay (µs).",
           snapshot.get("queue_delay_us_mean"))
    labelled("cran_queue_depth", "gauge", "Sampled scheduler backlog.",
             "stat", [("max", snapshot.get("queue_depth_max")),
                      ("mean", snapshot.get("queue_depth_mean"))])
    labelled("cran_decode_time_per_job_us", "gauge",
             "Per-structure amortised decode-time EWMA (µs/job).",
             "structure",
             (snapshot.get("decode_time_per_job_us") or {}).items())

    cache = snapshot.get("sampler_cache") or {}
    scalar("cran_sampler_cache_hits_total", "counter",
           "Warm sampler cache hits.", cache.get("hits"))
    scalar("cran_sampler_cache_misses_total", "counter",
           "Warm sampler cache misses.", cache.get("misses"))
    scalar("cran_sampler_cache_entries", "gauge",
           "Samplers currently cached.", cache.get("entries"))

    workers = snapshot.get("workers") or {}
    scalar("cran_worker_threads", "gauge",
           "Per-worker kernel-thread budget (counter-mode packs).",
           workers.get("threads"))
    scalar("cran_worker_steals_total", "counter",
           "Batches stolen from another worker's shard.",
           workers.get("steal_count"))
    labelled("cran_worker_shard_batches_total", "counter",
             "Batches routed to each worker shard.", "worker",
             enumerate(workers.get("shard_batches") or []))
    labelled("cran_worker_shard_depth", "gauge",
             "Batches pending in each worker shard.", "worker",
             enumerate(workers.get("shard_depths") or []))

    faults = snapshot.get("faults") or {}
    scalar("cran_packs_failed_total", "counter",
           "Packs that failed decoding and were handed to the retry layer.",
           faults.get("packs_failed"))
    scalar("cran_jobs_retried_total", "counter",
           "Jobs requeued after a pack failure.", faults.get("jobs_retried"))
    scalar("cran_worker_restarts_total", "counter",
           "Dead workers respawned by supervision.",
           faults.get("worker_restarts"))
    scalar("cran_brownout_openings_total", "counter",
           "Overload brownout circuit-breaker openings.",
           faults.get("brownout_openings"))
    labelled("cran_faults_injected_total", "counter",
             "Faults assigned by the configured fault plan, by kind.",
             "kind", (faults.get("injected") or {}).items())
    labelled("cran_shed_stage_total", "counter",
             "Shed jobs, by lifecycle stage.", "stage",
             (faults.get("shed_stages") or {}).items())

    ingress = snapshot.get("ingress") or {}
    scalar("cran_ingress_offered_total", "counter",
           "Jobs offered at the ingress gateway.", ingress.get("offered"))
    scalar("cran_ingress_dispatched_total", "counter",
           "Jobs dispatched into the serving session.",
           ingress.get("dispatched"))
    scalar("cran_ingress_shed_total", "counter",
           "Jobs shed at the admission bound.", ingress.get("gateway_shed"))
    scalar("cran_ingress_gateway_faults_total", "counter",
           "Jobs dropped at ingress by injected submission errors.",
           ingress.get("gateway_faults"))
    scalar("cran_ingress_late_restamped_total", "counter",
           "Jobs re-stamped after arriving behind the merged stream.",
           ingress.get("late_restamped"))
    scalar("cran_ingress_backlog_max", "gauge",
           "Largest gateway backlog observed.", ingress.get("backlog_max"))

    return "\n".join(lines) + "\n"
