"""The benchmark's seeded workloads, their runners and their correctness gate.

Every workload is a closed loop with one client: the benchmark hands the
program a generated load (``CranService.run(jobs)``: the whole load for the
serving workloads, one pack-sized slice at a time for the decode workload)
and waits for it to finish before sending the next.  The program
only ever sees the generated inputs; the seed stays here.

A *unit* is what one timing sample covers: a full replay of the load for a
serving workload, one pack for the decode workload.  A *pass* is the units
that together decode every job of the load once.  The quality metrics and
the serial reference check are taken over the first pass, outside the timed
region; every later unit is checked against the first pass as soon as it
finishes, so the benchmark holds nothing that grows with the run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.annealer.chimera import ChimeraGraph
from repro.annealer.machine import AnnealerParameters, QuantumAnnealerSimulator
from repro.channel.trace import ArgosLikeTraceGenerator
from repro.cran.jobs import DecodeJob
from repro.cran.service import CranService
from repro.cran.traffic import PoissonTrafficGenerator
from repro.decoder.quamax import QuAMaxDecoder
from repro.mimo.system import MimoUplink


#: Target BER of the time-to-BER metric (the paper's Eq. 9 headline).
TARGET_BER = 1e-6

#: Jobs per pass re-decoded serially as the bit-identity reference.
REFERENCE_SAMPLE = 6


@dataclass(frozen=True)
class ServingSpec:
    """Size and policy of one serving workload."""

    num_users: int
    modulations: Sequence[str]
    mean_interarrival_us: float
    deadline_us: float
    num_bursts: int
    num_anneals: int
    burst_subcarriers: int = 4
    max_batch: int = 16
    max_wait_us: float = 200_000.0
    adaptive_wait: bool = False
    num_workers: int = 0
    mode: str = "thread"
    #: Highest bit error rate the correctness gate accepts.
    ber_ceiling: float = 0.01
    #: Highest ``ttb_us_p50`` the correctness gate accepts.
    ttb_ceiling_us: float = math.inf


@dataclass(frozen=True)
class DecodeSpec:
    """Size of the decode-only workload."""

    num_users: int
    num_instances: int
    pack_size: int
    num_anneals: int
    modulation: str = "BPSK"
    snr_db: float = 20.0
    #: Mean virtual interarrival of the instances: saturating, so that each
    #: pack is flushed full, when its last job arrives.
    mean_interarrival_us: float = 10.0
    ber_ceiling: float = 0.001
    ttb_ceiling_us: float = math.inf


@dataclass(frozen=True)
class Workload:
    """One named workload: why it exists and its sizes per scale."""

    name: str
    why: str
    scales: Dict[str, Union[ServingSpec, DecodeSpec]]

    @property
    def uses_processes(self) -> bool:
        """Whether decoding happens in worker processes (parent-side trace)."""
        spec = self.scales["full"]
        return (isinstance(spec, ServingSpec) and spec.num_workers > 0
                and spec.mode == "process")


_PACKED = ServingSpec(num_users=3, modulations=("QPSK",),
                      mean_interarrival_us=10.0, deadline_us=math.inf,
                      num_bursts=256, num_anneals=50)
_PACKED_TINY = ServingSpec(num_users=3, modulations=("QPSK",),
                           mean_interarrival_us=10.0, deadline_us=math.inf,
                           num_bursts=4, num_anneals=10, max_batch=8)
_MIXED_KNOBS = dict(num_users=4, modulations=("BPSK", "QPSK", "16-QAM"),
                    mean_interarrival_us=100_000.0, deadline_us=150_000.0,
                    adaptive_wait=True, ber_ceiling=0.25)
_POOL = dict(num_workers=1, mode="process")

WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="serve_packed",
        why=("saturating 3-user QPSK load with one structure key: every pack "
             "is full, so per-job glue and the sweep kernel set the pace"),
        scales={"full": _PACKED, "tiny": _PACKED_TINY}),
    Workload(
        name="serve_mixed",
        why=("4-user BPSK/QPSK/16-QAM mix below the service rate with "
             "deadlines: partial packs, rotating keys, sampler build/rebind "
             "and scheduler policy"),
        scales={"full": ServingSpec(num_bursts=255, num_anneals=50,
                                    **_MIXED_KNOBS),
                "tiny": ServingSpec(num_bursts=6, num_anneals=10,
                                    **_MIXED_KNOBS)}),
    Workload(
        name="decode_paper_48u",
        why=("the paper's 48x48 BPSK at 20 dB sent one pack of 8 at a time: "
             "the sweep kernel dominates, serving glue is next to nothing and "
             "the quality metrics live here"),
        # The ceiling is four times the time-to-BER measured on this load
        # (22-26 us over seeds 41-50): a guard against broken sampling.
        scales={"full": DecodeSpec(num_users=48, num_instances=256,
                                   pack_size=8, num_anneals=100,
                                   ttb_ceiling_us=100.0),
                "tiny": DecodeSpec(num_users=48, num_instances=2,
                                   pack_size=2, num_anneals=20,
                                   ber_ceiling=0.1)}),
    Workload(
        name="serve_packed_pool1",
        why=("serve_packed traffic through a 1-worker process pool: the only "
             "workload that pickles packs, moves samples through shared "
             "memory and dispatches to another process"),
        scales={"full": replace(_PACKED, **_POOL),
                "tiny": replace(_PACKED_TINY, **_POOL)}),
)}


# --------------------------------------------------------------------------- #
# Loads
# --------------------------------------------------------------------------- #

def make_load(workload: Workload, scale: str, seed: int) -> List[DecodeJob]:
    """Generate the workload's jobs from *seed* (same seed, same jobs)."""
    spec = workload.scales[scale]
    if isinstance(spec, DecodeSpec):
        rng = np.random.default_rng(seed)
        link = MimoUplink(num_users=spec.num_users,
                          constellation=spec.modulation)
        uses = [link.transmit(random_state=rng, snr_db=spec.snr_db)
                for _ in range(spec.num_instances)]
        seeds = rng.integers(2 ** 63, size=spec.num_instances)
        arrivals = np.cumsum(rng.exponential(spec.mean_interarrival_us,
                                             size=spec.num_instances))
        return [DecodeJob(job_id=index, user_id=0, frame=0,
                          subcarrier=index, channel_use=use,
                          arrival_time_us=float(arrival), seed=int(s))
                for index, (use, s, arrival) in enumerate(
                    zip(uses, seeds, arrivals))]
    trace = ArgosLikeTraceGenerator(
        num_bs_antennas=12, num_users=spec.num_users,
        num_subcarriers=16).generate(num_frames=2, random_state=seed)
    # One Poisson stream per modulation, merged: the superposition is still
    # Poisson at the spec's rate, and every seed gets the same mix (a
    # per-burst modulation draw moves the 16-QAM share, and with it the
    # cost of the load, by about 10% from seed to seed).
    streams = len(spec.modulations)
    jobs: List[DecodeJob] = []
    for index, modulation in enumerate(spec.modulations):
        generator = PoissonTrafficGenerator(
            trace, modulations=modulation,
            mean_interarrival_us=spec.mean_interarrival_us * streams,
            burst_subcarriers=spec.burst_subcarriers, user_snrs_db=20.0,
            deadline_us=spec.deadline_us)
        jobs += generator.generate(spec.num_bursts // streams,
                                   random_state=np.random.default_rng(
                                       [seed, index]))
    jobs.sort(key=lambda job: (job.arrival_time_us, job.job_id))
    return [replace(job, job_id=index) for index, job in enumerate(jobs)]


# --------------------------------------------------------------------------- #
# Runners
# --------------------------------------------------------------------------- #

@dataclass
class UnitOutcome:
    """What one unit submitted and what came back."""

    submitted: List[int]
    shed: List[int]
    #: Detected bits per completed job id.
    bits: Dict[int, np.ndarray]
    #: Full decode results per completed job id.
    results: Dict[int, object] = field(default_factory=dict)
    #: Virtual-clock arrival-to-completion latency of each completed job.
    latency_us: List[float] = field(default_factory=list)
    #: Virtual-clock scheduler wait per completed job.
    queue_wait_us: List[float] = field(default_factory=list)
    #: Completed jobs that finished after their deadline.
    deadline_misses: int = 0
    telemetry: Optional[dict] = None

    @property
    def completed(self) -> int:
        return len(self.bits)


def _decoder(num_anneals: int, topology: Optional[ChimeraGraph] = None
             ) -> QuAMaxDecoder:
    return QuAMaxDecoder(QuantumAnnealerSimulator(topology),
                         AnnealerParameters(num_anneals=num_anneals))


class ServingRunner:
    """Replays the whole load through one :class:`CranService` per unit."""

    def __init__(self, spec: ServingSpec):
        self.spec = spec
        self.decoder = self.reference_decoder()
        self.service = CranService(
            self.decoder, max_batch=spec.max_batch,
            max_wait_us=spec.max_wait_us, adaptive_wait=spec.adaptive_wait,
            num_workers=spec.num_workers, mode=spec.mode)

    def units_per_pass(self, load: list) -> int:
        return 1

    def first_job(self, load: List[DecodeJob]) -> None:
        self.service.run(load[:1])

    def unit_jobs(self, load: List[DecodeJob],
                  index: int) -> List[DecodeJob]:
        return load

    def unit(self, load: List[DecodeJob], index: int) -> UnitOutcome:
        jobs = self.unit_jobs(load, index)
        report = self.service.run(jobs)
        outcome = UnitOutcome(
            submitted=[job.job_id for job in jobs],
            shed=[job.job_id for job in report.shed_jobs],
            bits={}, telemetry=report.telemetry)
        for done in report.results:
            job_id = done.job.job_id
            outcome.bits[job_id] = done.result.detection.bits
            outcome.results[job_id] = done.result
            outcome.latency_us.append(done.latency_us)
            outcome.queue_wait_us.append(done.queue_delay_us)
            outcome.deadline_misses += not done.deadline_met
        return outcome

    def reference_decoder(self) -> QuAMaxDecoder:
        return _decoder(self.spec.num_anneals)


class DecodeRunner(ServingRunner):
    """Sends the instances one pack at a time: each unit is one
    ``CranService.run`` of a pack-sized slice, which the service decodes as
    a single ``detect_batch`` pack."""

    def __init__(self, spec: DecodeSpec):
        self.spec = spec
        self.decoder = self.reference_decoder()
        self.service = CranService(self.decoder, max_batch=spec.pack_size)

    def units_per_pass(self, load: list) -> int:
        return math.ceil(len(load) / self.spec.pack_size)

    def unit_jobs(self, load: List[DecodeJob],
                  index: int) -> List[DecodeJob]:
        size = self.spec.pack_size
        start = (index % self.units_per_pass(load)) * size
        return load[start:start + size]

    def reference_decoder(self) -> QuAMaxDecoder:
        # The default 17-defect dw2q chip finds no clique placement for 40
        # or more logical variables; 48 users need the defect-free chip.
        return _decoder(self.spec.num_anneals, ChimeraGraph())


def make_runner(workload: Workload, scale: str) -> ServingRunner:
    spec = workload.scales[scale]
    if isinstance(spec, DecodeSpec):
        return DecodeRunner(spec)
    return ServingRunner(spec)


# --------------------------------------------------------------------------- #
# Pass metrics and the correctness gate
# --------------------------------------------------------------------------- #

def pass_metrics(load: List[DecodeJob],
                 first_pass: Sequence[UnitOutcome]) -> dict:
    """Quality and virtual-clock metrics over one pass of the load."""
    truth = {job.job_id: job.channel_use.transmitted_bits for job in load}
    results: Dict[int, object] = {}
    latencies: List[float] = []
    submitted = shed = misses = 0
    for outcome in first_pass:
        results.update(outcome.results)
        latencies.extend(outcome.latency_us)
        submitted += len(outcome.submitted)
        shed += len(outcome.shed)
        misses += outcome.deadline_misses
    errors = sum(int(np.count_nonzero(result.detection.bits != truth[job_id]))
                 for job_id, result in results.items())
    bits = sum(truth[job_id].size for job_id in results)
    ttbs = [result.solution_profile().time_to_ber(TARGET_BER)
            for result in results.values()]
    metrics = {
        "latency_us_p50": float(np.percentile(latencies, 50)),
        "latency_us_p99": float(np.percentile(latencies, 99)),
        "ground_state_prob_mean": float(np.mean(
            [result.ground_state_probability for result in results.values()])),
        "ttb_us_p50": float(np.median(ttbs)),
        "ber": errors / bits,
        "failed_fraction": (submitted - len(results)) / submitted,
    }
    if any(math.isfinite(job.deadline_us) for job in load):
        metrics["deadline_miss_rate"] = (misses + shed) / submitted
    return metrics


def reference_ids(load: list, seed: int) -> List[int]:
    """The seeded sample of job ids re-decoded serially by the gate."""
    ids = [job.job_id for job in load]
    rng = np.random.default_rng([seed, 0x5EED])
    count = min(REFERENCE_SAMPLE, len(ids))
    return sorted(int(i) for i in rng.choice(ids, size=count, replace=False))


def check_unit(outcome: UnitOutcome, index: int,
               first_bits: Dict[int, np.ndarray]) -> List[str]:
    """Check one unit as soon as it finishes.

    Every job id it was given is completed or shed exactly once, and every
    job already decoded in the first pass (*first_bits*) decodes to the same
    bits again.
    """
    failures: List[str] = []
    accounted = sorted(list(outcome.bits) + outcome.shed)
    if accounted != sorted(outcome.submitted):
        failures.append(
            f"unit {index}: completed + shed != submitted, or a job id is "
            f"missing or repeated")
    for job_id, bits in outcome.bits.items():
        if job_id in first_bits and not np.array_equal(bits,
                                                       first_bits[job_id]):
            failures.append(f"unit {index}: job {job_id} decoded to other "
                            f"bits than in the first pass")
            break
    return failures


def check_pass(load: List[DecodeJob], runner: ServingRunner,
               first_pass: Sequence[UnitOutcome], metrics: dict,
               seed: int) -> List[str]:
    """Check the first pass against a serial reference and the workload's
    quality ceilings; return one message per failed check."""
    failures: List[str] = []
    first_bits: Dict[int, np.ndarray] = {}
    for outcome in first_pass:
        first_bits.update(outcome.bits)
    by_id = {job.job_id: job for job in load}
    reference = runner.reference_decoder()
    for job_id in reference_ids(load, seed):
        if job_id not in first_bits:
            continue  # shed in the first pass: accounted for by check_unit
        job = by_id[job_id]
        serial = reference.detect_with_run(job.channel_use,
                                           random_state=job.rng())
        if not np.array_equal(serial.detection.bits, first_bits[job_id]):
            failures.append(f"job {job_id}: bits differ from the serial "
                            f"detect_with_run reference")
    spec = runner.spec
    if metrics["ber"] > spec.ber_ceiling:
        failures.append(f"ber {metrics['ber']:.3g} above the workload's "
                        f"ceiling {spec.ber_ceiling:g}")
    if metrics["ttb_us_p50"] > spec.ttb_ceiling_us:
        failures.append(f"ttb_us_p50 {metrics['ttb_us_p50']:.3g} us above "
                        f"the workload's ceiling {spec.ttb_ceiling_us:g} us")
    return failures
