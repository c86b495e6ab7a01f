"""Names, units and directions of every metric the benchmark reports.

``BENCHMARK.json`` at the repository root lists the same metrics; the
benchmark's tests keep the two in step.  This module imports nothing from
the program, so the command can validate its arguments before ``repro`` is
importable.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    #: Share of the parent's median by which the metric may worsen
    #: (end-to-end metrics only).
    bound: Optional[float] = None


#: Printed in the result line of an untraced run (``--trace 0``).  Every one
#: applies to every workload, is never zero and moves with the seed.  The
#: wall-clock figures are in seconds of a *reference host* (see
#: ``hostinfo.REFERENCE_STEPS_PER_S``): each run times a short CPU burn next
#: to its work and scales its wall times by how fast the burn ran, so that
#: runs taken while a shared host runs slow or fast stay comparable.
END_TO_END: Tuple[Metric, ...] = (
    Metric("jobs_per_ref_s", "1/s", "higher", 0.25),
    Metric("setup_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.1),
    Metric("latency_us_p99", "us", "lower", 0.25),
    Metric("ground_state_prob_mean", "ratio", "higher", 0.2),
)

#: End-to-end figures printed in the run's table and kept in its result
#: record, but not in the result line.  ``jobs_per_s`` and ``setup_wall_s``
#: are the unscaled wall-clock figures, and ``burn_steps_per_s`` the host
#: speed that scales them.  ``latency_us_p50`` reads exactly the same for
#: every seed on three of the four workloads.  ``ttb_us_p50`` sits on a few
#: quantised anneal counts: on the serving workloads the median jumps
#: between levels from seed to seed (a spread of 0.72 over ten seeds on
#: ``serve_packed``), so it cannot be bounded there; the gate holds it to
#: a ceiling on ``decode_paper_48u``.  ``ber`` and ``failed_fraction`` are
#: zero on some workloads, and ``deadline_miss_rate`` applies to
#: ``serve_mixed`` only.  ``ber`` is held to each workload's ceiling by the
#: gate, and failures are counted in the result line's ``failed`` field.
REPORT_ONLY: Tuple[Metric, ...] = (
    Metric("jobs_per_s", "1/s", "higher"),
    Metric("setup_wall_s", "s", "lower"),
    Metric("burn_steps_per_s", "1/s", "higher"),
    Metric("latency_us_p50", "us", "lower"),
    Metric("ttb_us_p50", "us", "lower"),
    Metric("ber", "ratio", "lower"),
    Metric("deadline_miss_rate", "ratio", "lower"),
    Metric("failed_fraction", "ratio", "lower"),
)

#: Layers in call order, outermost first (module names under ``repro``).
LAYERS: Tuple[str, ...] = (
    "cran.service", "cran.scheduler", "cran.workers", "cran.telemetry",
    "decoder.quamax", "transform.reduction", "annealer.machine",
    "annealer.embedded", "annealer.ice", "annealer.engine",
    "annealer.unembed", "ising.solver",
)

#: Printed in the result line of a traced run (``--trace 1``).  Seconds and
#: call counts are totals over the run's traced units.
PER_LAYER: Tuple[Metric, ...] = tuple(
    metric for layer in LAYERS for metric in (
        Metric(f"{layer}.self_s", "s", "lower"),
        Metric(f"{layer}.calls", "count", "lower"))) + (
    Metric("annealer.engine.build_s", "s", "lower"),
    Metric("annealer.engine.rebind_s", "s", "lower"),
    Metric("annealer.engine.anneal_s", "s", "lower"),
    Metric("annealer.engine.spin_updates_per_s", "1/s", "higher"),
    Metric("annealer.machine.cache_hit_ratio", "ratio", "higher"),
    Metric("annealer.unembed.broken_chain_fraction", "ratio", "lower"),
    Metric("cran.scheduler.queue_wait_us_p50", "us", "lower"),
    Metric("cran.scheduler.queue_wait_us_p99", "us", "lower"),
    Metric("cran.scheduler.batch_fill_mean", "jobs", "higher"),
    Metric("cran.workers.pack_ms_p50", "ms", "lower"),
    Metric("cran.workers.pack_ms_p90", "ms", "lower"),
    Metric("cran.workers.drain_s", "s", "lower"),
    Metric("cran.workers.packs_failed", "count", "lower"),
    Metric("cran.workers.jobs_retried", "count", "lower"),
    Metric("cran.workers.steal_count", "count", "higher"),
    Metric("unattributed_s", "s", "lower"),
    Metric("unattributed_share", "ratio", "lower"),
    Metric("trace.overhead_fraction", "ratio", "lower"),
    Metric("trace.wall_s", "s", "lower"),
    Metric("trace.jobs", "count", "higher"),
)
