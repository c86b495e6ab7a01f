#!/usr/bin/env python3
"""Run one benchmark workload, check its outputs and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload serve_packed --seed 1 --seconds 15 \\
        --trace 0

The load is generated from ``--seed``; the timed loop repeats its units
(whole replays, or packs for ``decode_paper_48u``) for ``--seconds`` and
reports medians.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
interleaves traced and untraced units and prints the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the process exits
non-zero when the correctness gate fails.  Result records and span dumps go
to ``.bench_build/perfbench/``.
"""

import time

_T0 = time.perf_counter()  # setup_s counts from here, before `import repro`

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, Optional, Tuple  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUTPUT_DIR = ROOT / ".bench_build" / "perfbench"
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.metrics import (  # noqa: E402
    END_TO_END, LAYERS, PER_LAYER, REPORT_ONLY)

WORKLOAD_NAMES = ("serve_packed", "serve_mixed", "decode_paper_48u",
                  "serve_packed_pool1")

#: Fresh processes timed for ``setup_s``.
SETUP_PROBES = 5

#: Short burns timed after a unit per second of the unit's wall time (and
#: before the first unit).
BURNS_PER_UNIT_S = 10

#: Steps of the CPU burn each setup probe times after its set-up.
PROBE_BURN_STEPS = 10_000

#: Seconds a setup probe may take before the run gives up.
PROBE_TIMEOUT_S = 60


def _prepare_environment() -> None:
    """Make ``src`` importable; keep caches and temporary files in the
    checkout; run OpenBLAS on one thread.

    Must run before numpy is imported.  With OpenBLAS's default of one
    thread per vCPU, the 48x48 reductions of ``decode_paper_48u`` ran 25-40%
    slower than on one thread, and slower still whenever the host's other
    tenants held the second vCPU: two sets of runs disagreed by more than
    the bounds.
    """
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["XDG_CACHE_HOME"] = str(OUTPUT_DIR / "cache")
    tmp = OUTPUT_DIR / "tmp"
    tmp.mkdir(exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    paths = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(
        os.pathsep) if p]
    os.environ["PYTHONPATH"] = os.pathsep.join(paths)


# --------------------------------------------------------------------------- #
# Set-up time
# --------------------------------------------------------------------------- #

def _setup_probe(name: str, seed: int, scale: str) -> None:
    """In a fresh process: time imports, construction and the first job,
    then the host's speed."""
    from perfbench import hostinfo, workloads

    imported = time.perf_counter()
    workload = workloads.WORKLOADS[name]
    load = workloads.make_load(workload, scale, seed)
    generated = time.perf_counter()
    workloads.make_runner(workload, scale).first_job(load)
    done = time.perf_counter()
    print(json.dumps({"setup_s": (imported - _T0) + (done - generated),
                      "burn_steps_per_s": hostinfo.burn_speed(
                          PROBE_BURN_STEPS)}))


def measure_setup(name: str, seed: int, scale: str,
                  probes: int) -> List[Tuple[float, float]]:
    """Wall set-up time and burn speed of *probes* fresh processes, one
    after another.

    The calling process has already imported the program and resolved its
    backend, so the byte-code and on-disk compile caches are warm.
    """
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", name, "--seed", str(seed), "--scale", scale]
    samples = []
    for _ in range(probes):
        completed = subprocess.run(command, capture_output=True, text=True,
                                   timeout=PROBE_TIMEOUT_S, check=False)
        if completed.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{completed.stderr}")
        probe = json.loads(completed.stdout.strip().splitlines()[-1])
        samples.append((float(probe["setup_s"]),
                        float(probe["burn_steps_per_s"])))
    return samples


# --------------------------------------------------------------------------- #
# The timed loop
# --------------------------------------------------------------------------- #

@dataclass
class Result:
    """Everything one run measured and checked."""

    workload: str
    seed: int
    trace: bool
    metrics: Dict[str, float]
    report_only: Dict[str, float]
    attempted: int
    failed: int
    failures: List[str]
    units: int
    unit_jobs: int
    host: Dict[str, object] = field(default_factory=dict)
    setup_samples: List[Tuple[float, float]] = field(default_factory=list)
    rates: List[float] = field(default_factory=list)
    speeds: List[float] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.failures

    def line(self) -> dict:
        """The result line: every metric of the run's kind, with units."""
        chosen = PER_LAYER if self.trace else END_TO_END
        return {"correct": self.correct, "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {m.name: {"value": _finite_or_none(
                    self.metrics[m.name]), "unit": m.unit} for m in chosen}}


def _finite_or_none(value: float) -> Optional[float]:
    """JSON has no infinities; a non-finite value already fails the gate."""
    return value if math.isfinite(value) else None


@dataclass
class TimedLoop:
    """What the timed loop recorded.

    Only the first pass's outcomes are kept whole; every later unit is
    checked as soon as it finishes and leaves behind its rate and, when
    traced, its virtual queue waits and telemetry.
    """

    first_pass: list = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    units: int = 0
    attempted: int = 0
    completed: int = 0
    rates: Dict[bool, List[float]] = field(
        default_factory=lambda: {False: [], True: []})
    #: Host speed around each untraced unit, in burn steps per second.
    speeds: List[float] = field(default_factory=list)
    #: Untraced unit rates scaled to the reference host.
    ref_rates: List[float] = field(default_factory=list)
    traced_waits: List[float] = field(default_factory=list)
    traced_telemetry: List[dict] = field(default_factory=list)
    traced_jobs: int = 0
    traced_wall_s: float = 0.0
    cache_hits: int = 0
    cache_lookups: int = 0
    peak_rss_mb: float = 0.0


def _timed_loop(runner, load: list, seconds: float, tracer,
                uses_processes: bool) -> TimedLoop:
    """Repeat units for *seconds*, at least one pass and one more unit;
    traced units alternate with untraced ones when a *tracer* is given.

    Short CPU burns, outside the timed region, come before the first unit
    and after every unit.  The host's speed changes within a second, so the
    burns take about a tenth of the unit's time, and a unit's speed is that
    of the burns on both sides of it.  With *uses_processes* (decoding in a
    worker process) the burns run on both processors.
    """
    from perfbench import hostinfo, layers, workloads

    loop = TimedLoop()
    per_pass = runner.units_per_pass(load)
    # The parent's resident memory creeps up over the first few replays of a
    # process pool, so the peak is read after a fixed number of units, not
    # after as many as the host's speed allowed.
    rss_units = per_pass + 1
    first_bits: Dict[int, object] = {}
    index = 0
    with contextlib.ExitStack() as stack:
        host = stack.enter_context(hostinfo.HostSpeed(
            2 if uses_processes else 1))
        rss = stack.enter_context(hostinfo.PeakRss(
            uses_processes, exclude=host.helper_pid))
        burns_before = [host.sample() for _ in range(BURNS_PER_UNIT_S)]
        stop_at = time.perf_counter() + seconds
        while True:
            traced = tracer is not None and index % 2 == 1
            if traced:
                before = runner.decoder.sampler_cache_info()
                with tracer.installed():
                    start = time.perf_counter()
                    outcome = runner.unit(load, index)
                    elapsed = time.perf_counter() - start
                after = runner.decoder.sampler_cache_info()
                loop.cache_hits += after["hits"] - before["hits"]
                loop.cache_lookups += (after["hits"] + after["misses"]
                                       - before["hits"] - before["misses"])
                loop.traced_wall_s += elapsed
                loop.traced_jobs += outcome.completed
                loop.traced_waits.extend(outcome.queue_wait_us)
                if outcome.telemetry:
                    loop.traced_telemetry.append(outcome.telemetry)
            else:
                layers.check_originals()
                start = time.perf_counter()
                outcome = runner.unit(load, index)
                elapsed = time.perf_counter() - start
            burns_after = [
                host.sample()
                for _ in range(max(1, round(elapsed * BURNS_PER_UNIT_S)))]
            rate = outcome.completed / elapsed
            loop.rates[traced].append(rate)
            if not traced:
                # Equal-step burns: the harmonic mean of their speeds is
                # their total steps over their total time.
                speed = statistics.harmonic_mean(burns_before + burns_after)
                loop.speeds.append(speed)
                loop.ref_rates.append(
                    rate * hostinfo.REFERENCE_STEPS_PER_S / speed)
            burns_before = burns_after
            loop.failures += workloads.check_unit(outcome, index, first_bits)
            loop.attempted += len(outcome.submitted)
            loop.completed += outcome.completed
            if index < per_pass:
                loop.first_pass.append(outcome)
                first_bits.update(outcome.bits)
            index += 1
            if index == rss_units:
                loop.peak_rss_mb = rss.peak_mb
            if (index >= rss_units and time.perf_counter() >= stop_at
                    and (tracer is None or loop.rates[True])):
                break
    layers.check_originals()
    loop.units = index
    return loop


def _traced_metrics(tracer, loop: TimedLoop) -> Dict[str, float]:
    """The per-layer metrics of the traced units."""
    from perfbench import layers

    metrics = layers.layer_metrics(tracer)
    attributed = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
    unattributed = loop.traced_wall_s - attributed
    waits = loop.traced_waits
    telemetry = loop.traced_telemetry
    metrics.update({
        "annealer.machine.cache_hit_ratio": (
            loop.cache_hits / loop.cache_lookups if loop.cache_lookups
            else 0.0),
        "cran.scheduler.queue_wait_us_p50": _percentile(waits, 50),
        "cran.scheduler.queue_wait_us_p99": _percentile(waits, 99),
        "cran.scheduler.batch_fill_mean": (statistics.fmean(
            t["mean_batch_fill"] for t in telemetry) if telemetry else 0.0),
        "cran.workers.packs_failed": sum(
            t["faults"]["packs_failed"] for t in telemetry),
        "cran.workers.jobs_retried": sum(
            t["faults"]["jobs_retried"] for t in telemetry),
        "cran.workers.steal_count": sum(
            t["workers"]["steal_count"] for t in telemetry),
        "unattributed_s": unattributed,
        "unattributed_share": unattributed / loop.traced_wall_s,
        "trace.overhead_fraction": 1.0 - (
            statistics.median(loop.rates[True])
            / statistics.median(loop.rates[False])),
        "trace.wall_s": loop.traced_wall_s,
        "trace.jobs": loop.traced_jobs,
    })
    return metrics


def run_benchmark(name: str, seed: int, seconds: float, trace: bool,
                  scale: str = "full", setup_probes: Optional[int] = None,
                  spans_path: Optional[Path] = None) -> Result:
    """Generate the load, time it, check it and collect the metrics.

    At least one full pass of the load and one more unit are decoded
    whatever *seconds* is, which is all that ``seconds=0`` runs.  Without
    set-up probes ``setup_s`` reads 0.
    """
    from perfbench import hostinfo, layers, workloads
    from repro.annealer.backends import resolve_backend

    workload = workloads.WORKLOADS[name]
    resolve_backend("auto")  # compiles the kernels once, before any probe
    if setup_probes is None:
        setup_probes = SETUP_PROBES
    setup_samples = ([] if trace or not setup_probes else
                     measure_setup(name, seed, scale, setup_probes))
    load = workloads.make_load(workload, scale, seed)
    runner = workloads.make_runner(workload, scale)
    runner.first_job(load)
    tracer = None
    if trace:
        tracer = layers.LayerTracer(layers.PARENT_LAYERS
                                    if workload.uses_processes else LAYERS)
    loop = _timed_loop(runner, load, seconds, tracer,
                       uses_processes=workload.uses_processes)

    quality = workloads.pass_metrics(load, loop.first_pass)
    failures = loop.failures + workloads.check_pass(
        load, runner, loop.first_pass, quality, seed)
    report_only = {
        "jobs_per_s": statistics.median(loop.rates[False]),
        "burn_steps_per_s": statistics.median(loop.speeds),
        **{m.name: quality[m.name] for m in REPORT_ONLY if m.name in quality},
    }
    if trace:
        metrics = _traced_metrics(tracer, loop)
        if spans_path is not None:
            tracer.write_jsonl(spans_path)
    else:
        setup_ref = [wall * speed / hostinfo.REFERENCE_STEPS_PER_S
                     for wall, speed in setup_samples]
        if setup_samples:
            report_only["setup_wall_s"] = statistics.median(
                wall for wall, _ in setup_samples)
        metrics = {
            "jobs_per_ref_s": statistics.median(loop.ref_rates),
            "setup_s": statistics.median(setup_ref) if setup_ref else 0.0,
            "peak_rss_mb": loop.peak_rss_mb,
            "latency_us_p99": quality["latency_us_p99"],
            "ground_state_prob_mean": quality["ground_state_prob_mean"],
        }
    failures += [f"{key} is not finite ({value})"
                 for key, value in metrics.items() if not math.isfinite(value)]
    return Result(
        workload=name, seed=seed, trace=trace, metrics=metrics,
        report_only=report_only, attempted=loop.attempted,
        failed=loop.attempted - loop.completed, failures=failures,
        units=loop.units, unit_jobs=len(loop.first_pass[0].submitted),
        setup_samples=setup_samples, rates=loop.rates[False],
        speeds=loop.speeds)


def _percentile(values: List[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) if values else 0.0


# --------------------------------------------------------------------------- #
# Output
# --------------------------------------------------------------------------- #

def print_report(result: Result) -> None:
    """Human-readable table; the JSON result line follows it."""
    print(f"# workload {result.workload}  seed {result.seed}  "
          f"trace {int(result.trace)}  units {result.units} "
          f"({result.unit_jobs} jobs each)")
    print(f"# host {json.dumps(result.host)}")
    if result.trace:
        wall = result.metrics["trace.wall_s"]
        print(f"# {'layer':<22}{'self_s':>10}{'share':>9}{'calls':>9}")
        for layer in LAYERS:
            value = result.metrics[f"{layer}.self_s"]
            print(f"# {layer:<22}{value:>10.4f}{value / wall:>9.1%}"
                  f"{int(result.metrics[layer + '.calls']):>9}")
        metrics = result.metrics
        print(f"# {'unattributed':<22}{metrics['unattributed_s']:>10.4f}"
              f"{metrics['unattributed_share']:>9.1%}")
        print(f"# trace overhead {metrics['trace.overhead_fraction']:.1%}"
              f" of untraced jobs_per_s")
    else:
        rates = result.rates
        quartiles = (statistics.quantiles(rates, n=4) if len(rates) > 1
                     else [rates[0]] * 3)
        for metric in END_TO_END:
            print(f"# {metric.name:<24}{result.metrics[metric.name]:>16.6g} "
                  f"{metric.unit}")
        for metric in REPORT_ONLY:
            if metric.name in result.report_only:
                print(f"# {metric.name:<24}"
                      f"{result.report_only[metric.name]:>16.6g} "
                      f"{metric.unit}  (report only)")
        print(f"# jobs_per_s over {len(rates)} untraced units: quartiles "
              + " ".join(f"{q:.1f}" for q in quartiles)
              + "; setup wall s / burn steps per s: "
              + " ".join(f"{wall:.3f}/{speed:.0f}"
                         for wall, speed in result.setup_samples))
    if result.failures:
        for failure in result.failures:
            print(f"# GATE FAILED: {failure}")
    else:
        print("# gate ok: accounting, replay identity, serial reference "
              "bits, ber and ttb ceilings, finite metrics")


def _stop_resource_tracker() -> None:
    """Stop and reap the helper process the process pool starts.

    ``WorkerPool`` starts multiprocessing's resource tracker, which would
    otherwise outlive the run by a moment; ``_stop`` waits for it to exit.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help=argparse.SUPPRESS)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must be non-negative")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources under {ROOT / 'src'}; run from a "
              f"full checkout", file=sys.stderr)
        return 2
    OUTPUT_DIR.mkdir(parents=True, exist_ok=True)
    _prepare_environment()
    if args.setup_probe:
        _setup_probe(args.workload, args.seed, args.scale)
        return 0

    from perfbench import hostinfo

    host = hostinfo.collect(hostinfo.cpu_burn())
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        result = run_benchmark(args.workload, args.seed, args.seconds,
                               bool(args.trace), scale=args.scale,
                               spans_path=OUTPUT_DIR / f"{stem}-spans.jsonl")
    finally:
        _stop_resource_tracker()
    result.host = host
    record = {"workload": result.workload, "seed": result.seed,
              "seconds": args.seconds, "trace": args.trace,
              "host": result.host, "metrics": result.metrics,
              "report_only": result.report_only,
              "unit_rates": result.rates,
              "unit_speeds": result.speeds,
              "setup_samples": result.setup_samples,
              "failures": result.failures}
    (OUTPUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=2))
    print_report(result)
    print(json.dumps(result.line()))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
