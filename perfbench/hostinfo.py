"""Hardware context of a benchmark run and the resident-memory probe.

``os.cpu_count()`` reports the vCPUs a box exposes, not the parallelism it
delivers: on a shared host two vCPUs can give little more than one core's
worth of work.  :func:`cpu_burn` measures that directly with a short CPU
burn in one process and then in two at once.

The same burn, timed next to every unit of work, gives the host's speed at
that moment.  :func:`burn_speed` measures it and :data:`REFERENCE_STEPS_PER_S`
fixes the speed of a *reference host*: the benchmark reports its bounded
times and rates in seconds of that host, so that runs taken while this host
runs fast or slow (a shared VM moves between speeds up to about 2.5x apart
for minutes at a time) compare the program and not the host.
"""

from __future__ import annotations

import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, Optional

#: Steps of each calibration burn, alone and side by side (about 0.25 s).
CALIBRATION_STEPS = 25_000

#: Burn speed of the reference host, in steps per second (one step is 1000
#: iterations of an empty pure-Python loop; about this box's fast regime).
REFERENCE_STEPS_PER_S = 100_000.0

#: Steps of one short burn timed next to the units (about 10 ms).
UNIT_BURN_STEPS = 1_000

#: Seconds between samples of the process tree's resident memory.
RSS_PERIOD_S = 0.05


def burn_speed(steps: int = UNIT_BURN_STEPS) -> float:
    """Steps per second of a burn of *steps* steps in this process."""
    start = time.perf_counter()
    for _ in range(steps):
        for _ in range(1000):
            pass
    return steps / (time.perf_counter() - start)


class HostSpeed:
    """The host's speed, from short burns on as many processors as the
    workload uses.

    A workload that decodes in a worker process runs on both vCPUs, and
    either can be the slow one; for it a helper process burns on the other
    processor at the same time as this one.  Use as a context manager: the
    helper is stopped and reaped on exit.
    """

    def __init__(self, processes: int = 1):
        self.processes = processes
        self._helper: Optional[subprocess.Popen] = None

    def __enter__(self) -> "HostSpeed":
        if self.processes > 1:
            self._helper = subprocess.Popen(
                [sys.executable, __file__], stdin=subprocess.PIPE,
                stdout=subprocess.PIPE, text=True)
        return self

    def __exit__(self, *exc_info) -> None:
        if self._helper is not None:
            self._helper.stdin.close()
            self._helper.wait(timeout=30)

    @property
    def helper_pid(self) -> Optional[int]:
        return self._helper.pid if self._helper is not None else None

    def sample(self, steps: int = UNIT_BURN_STEPS) -> float:
        """Steps per second of one short burn (the harmonic mean over the
        processes, which burn at the same time)."""
        if self._helper is None:
            return burn_speed(steps)
        self._helper.stdin.write(f"{steps}\n")
        self._helper.stdin.flush()
        own = burn_speed(steps)
        return statistics.harmonic_mean(
            [own, float(self._helper.stdout.readline())])


def _serve_burns() -> None:
    """Helper process of :class:`HostSpeed`: one burn per line of input."""
    for line in sys.stdin:
        print(burn_speed(int(line)), flush=True)


def cpu_burn() -> Dict[str, float]:
    """Single-process burn speed and the calibrated effective parallelism.

    ``effective_parallelism_2proc`` is the combined speed of two
    concurrent burns over the speed of one: 2.0 means they ran fully in
    parallel, 1.0 that they shared one core.  ``burn_steps_per_s`` is the single burn's speed,
    which tracks how fast the host runs single-threaded Python at the time
    of the run.
    """
    solo = burn_speed(CALIBRATION_STEPS)
    with HostSpeed(2) as both:
        together = both.sample(CALIBRATION_STEPS)
    return {"burn_steps_per_s": solo,
            "effective_parallelism_2proc": 2 * together / solo}


def collect(burn: Dict[str, float]) -> Dict[str, object]:
    """Host facts for the result record; needs ``repro`` importable."""
    import numpy

    from repro.annealer import backends

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        **burn,
        "backend": backends.resolve_backend("auto"),
        "openmp": backends.openmp_enabled(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


# --------------------------------------------------------------------------- #
# Resident memory
# --------------------------------------------------------------------------- #

def _rss_kb(pid: str) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except (FileNotFoundError, ProcessLookupError):
        pass
    return 0


def _children(pid: str):
    for task in Path(f"/proc/{pid}/task").glob("*"):
        try:
            yield from (task / "children").read_text().split()
        except (FileNotFoundError, ProcessLookupError):
            continue


def tree_rss_kb(pid: Optional[str] = None, exclude: Optional[str] = None
                ) -> int:
    """Resident set of *pid* (default: this process) and all descendants
    but *exclude*."""
    pid = pid or str(os.getpid())
    return _rss_kb(pid) + sum(tree_rss_kb(child, exclude)
                              for child in _children(pid)
                              if child != exclude)


class PeakRss:
    """Peak resident memory of this process, with or without its children.

    Without children it is the kernel's own high-water mark.  With
    children (the process-pool workload) a thread samples the RSS of the
    whole process tree every ``RSS_PERIOD_S``; the peak is the larger of
    that sampled maximum and this process's own high-water mark.  The
    process *exclude* (the benchmark's own burn helper) is not counted.
    """

    def __init__(self, include_children: bool,
                 exclude: Optional[int] = None):
        self.include_children = include_children
        self.exclude = str(exclude) if exclude is not None else None
        self._peak_kb = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def __enter__(self) -> "PeakRss":
        if self.include_children:
            self._thread = threading.Thread(target=self._sample, daemon=True)
            self._thread.start()
        return self

    def _sample(self) -> None:
        while not self._stop.wait(RSS_PERIOD_S):
            self._peak_kb = max(self._peak_kb,
                                tree_rss_kb(exclude=self.exclude))

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join()

    @property
    def peak_mb(self) -> float:
        own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return max(own_kb, self._peak_kb) / 1024.0


if __name__ == "__main__":
    _serve_burns()
