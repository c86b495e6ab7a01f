"""Outside-in layer tracing: spans around the calls into each layer.

The traced run wraps the public callables of every layer *from the
benchmark's side* — nothing under ``src/`` records anything — and restores
the originals when the run ends.  Each wrapper records a span (layer,
callable, start, end, parent span, thread, pack id, job id) in memory;
:func:`self_times` turns the span tree into per-layer self time, a span's
duration minus the part of it covered by its child spans.

``repro.annealer.machine`` binds ``embed_ising``, ``unembed_samples`` and
``aggregate_samples`` at import time, so those are patched where the machine
looks them up; methods are patched on their classes.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional

import numpy as np

from perfbench.metrics import LAYERS

#: Layers that run in the parent process whatever the pool mode.
PARENT_LAYERS = ("cran.service", "cran.scheduler", "cran.workers",
                 "cran.telemetry")


class Target(NamedTuple):
    """One wrapped callable: ``owner`` is a class name or None (module)."""

    layer: str
    module: str
    owner: Optional[str]
    name: str

    @property
    def call(self) -> str:
        return f"{self.owner}.{self.name}" if self.owner else self.name


TARGETS = (
    Target("cran.service", "repro.cran.service", "ServiceSession", "submit"),
    Target("cran.service", "repro.cran.service", "ServiceSession", "close"),
    Target("cran.scheduler", "repro.cran.scheduler", "EDFBatchScheduler",
           "submit"),
    Target("cran.scheduler", "repro.cran.scheduler", "EDFBatchScheduler",
           "advance"),
    Target("cran.scheduler", "repro.cran.scheduler", "EDFBatchScheduler",
           "drain"),
    Target("cran.workers", "repro.cran.workers", "WorkerPool", "start"),
    Target("cran.workers", "repro.cran.workers", "WorkerPool", "submit"),
    Target("cran.workers", "repro.cran.workers", "WorkerPool", "close"),
    Target("cran.telemetry", "repro.cran.telemetry", "TelemetryRecorder",
           "record_batch"),
    Target("decoder.quamax", "repro.decoder.quamax", "QuAMaxDecoder",
           "detect_batch"),
    Target("transform.reduction", "repro.transform.reduction",
           "MLToIsingReducer", "reduce"),
    Target("annealer.machine", "repro.annealer.machine",
           "QuantumAnnealerSimulator", "run_batch"),
    Target("annealer.embedded", "repro.annealer.machine", None, "embed_ising"),
    Target("annealer.ice", "repro.annealer.ice", "ICEModel", "perturb"),
    Target("annealer.engine", "repro.annealer.engine", "BlockDiagonalSampler",
           "__init__"),
    Target("annealer.engine", "repro.annealer.engine", "BlockDiagonalSampler",
           "refresh_values"),
    Target("annealer.engine", "repro.annealer.engine", "BlockDiagonalSampler",
           "anneal"),
    Target("annealer.unembed", "repro.annealer.machine", None,
           "unembed_samples"),
    Target("ising.solver", "repro.annealer.machine", None,
           "aggregate_samples"),
)

#: Engine callables whose summed durations are reported on their own.
ENGINE_PHASES = {"BlockDiagonalSampler.__init__": "build_s",
                 "BlockDiagonalSampler.refresh_values": "rebind_s",
                 "BlockDiagonalSampler.anneal": "anneal_s"}


def _owner(target: Target):
    module = importlib.import_module(target.module)
    return getattr(module, target.owner) if target.owner else module


def _current(target: Target):
    return vars(_owner(target))[target.name]


#: The untouched callables, captured when this module is first imported.
ORIGINALS = {target: _current(target) for target in TARGETS}


def check_originals() -> None:
    """Raise if any layer callable is not the program's own original."""
    patched = [target.call for target in TARGETS
               if _current(target) is not ORIGINALS[target]]
    if patched:
        raise RuntimeError(f"layer callables still wrapped: {patched}")


class Span:
    """One call into a layer, on the ``time.perf_counter`` clock."""

    __slots__ = ("id", "layer", "call", "start", "end", "parent", "thread",
                 "pack", "job")

    def __init__(self, id: int, layer: str, call: str, start: float,
                 end: float, parent: Optional[int], thread: int = 0,
                 pack: Optional[int] = None, job: Optional[int] = None):
        self.id = id
        self.layer = layer
        self.call = call
        self.start = start
        self.end = end
        self.parent = parent
        self.thread = thread
        self.pack = pack
        self.job = job

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


class LayerTracer:
    """Records spans around the wrapped callables of the chosen layers.

    Spans stay in memory (:attr:`spans`) until :meth:`write_jsonl`.  A
    span's parent is the innermost open span of the same thread; spans
    opened on other threads (the process pool's result callbacks) are
    roots.  Every span under a ``WorkerPool.submit`` or a top-level
    ``QuAMaxDecoder.detect_batch`` carries that pack's id, and spans under
    ``ServiceSession.submit`` carry the job id.
    """

    def __init__(self, layers: Iterable[str] = LAYERS):
        self.layers = tuple(layers)
        self.spans: List[Span] = []
        #: Work counts taken from the wrapped calls' arguments and results.
        #: Only decode-layer wrappers update them, and those run on the
        #: thread that decodes, so plain increments suffice.
        self.counters: Dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._ids = itertools.count()
        self._packs = itertools.count()

    # ------------------------------------------------------------------ #
    def _wrap(self, target: Target, original):
        spans = self.spans
        local = self._local
        layer, call = target.layer, target.call
        new_pack = call in ("WorkerPool.submit", "QuAMaxDecoder.detect_batch")
        observe = _OBSERVERS.get(call)
        counters = self.counters
        ids = self._ids
        packs = self._packs

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else None
            pack = job = parent_id = None
            if parent is not None:
                pack, job, parent_id = parent.pack, parent.job, parent.id
            if new_pack and pack is None:
                pack = next(packs)
            if call == "ServiceSession.submit":
                job = args[1].job_id
            span = Span(next(ids), layer, call, 0.0, 0.0, parent_id,
                        threading.get_ident(), pack, job)
            stack.append(span)
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if observe is not None:
                observe(counters, args, kwargs, result)
            return result

        return wrapper

    @contextmanager
    def installed(self) -> Iterator["LayerTracer"]:
        """Wrap the chosen layers for the duration of the block."""
        check_originals()
        chosen = [target for target in TARGETS if target.layer in self.layers]
        try:
            for target in chosen:
                setattr(_owner(target), target.name,
                        self._wrap(target, ORIGINALS[target]))
            yield self
        finally:
            for target in chosen:
                setattr(_owner(target), target.name, ORIGINALS[target])
            check_originals()

    # ------------------------------------------------------------------ #
    def write_jsonl(self, path) -> None:
        """Write every recorded span, one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.as_dict()) + "\n")


def _observe_anneal(counters, args, kwargs, result) -> None:
    sampler = args[0]
    temperatures = args[1] if len(args) > 1 else kwargs["temperatures"]
    replicas = args[2] if len(args) > 2 else kwargs["num_replicas"]
    counters["spin_updates"] += (sampler.num_variables * len(temperatures)
                                 * int(replicas))


def _observe_unembed(counters, args, kwargs, result) -> None:
    report = result[1]
    counters["broken_chains"] += report.broken_chains
    counters["chains"] += report.total_chains


_OBSERVERS = {"BlockDiagonalSampler.anneal": _observe_anneal,
              "unembed_samples": _observe_unembed}


# --------------------------------------------------------------------------- #
# Span arithmetic
# --------------------------------------------------------------------------- #

def self_times(spans: List[Span]) -> Dict[str, float]:
    """Per-layer self time: each span's duration minus its children's."""
    covered: Dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.duration
    totals: Dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span.layer] += span.duration - covered.get(span.id, 0.0)
    return dict(totals)


def layer_metrics(tracer: LayerTracer) -> Dict[str, float]:
    """Self time, call counts and per-callable figures from the spans.

    Layers the tracer did not wrap report zero.  ``spin_updates_per_s`` is
    computed, not measured: replicas x sweeps x physical spins of every
    anneal call, divided by the anneal seconds.
    """
    spans = tracer.spans
    own = self_times(spans)
    calls: Dict[str, int] = defaultdict(int)
    by_call: Dict[str, List[float]] = defaultdict(list)
    for span in spans:
        calls[span.layer] += 1
        by_call[span.call].append(span.duration)
    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = own.get(layer, 0.0)
        metrics[f"{layer}.calls"] = calls.get(layer, 0)
    for call, name in ENGINE_PHASES.items():
        metrics[f"annealer.engine.{name}"] = float(sum(by_call.get(call, ())))
    anneal_s = metrics["annealer.engine.anneal_s"]
    counters = tracer.counters
    metrics["annealer.engine.spin_updates_per_s"] = (
        counters["spin_updates"] / anneal_s if anneal_s > 0 else 0.0)
    metrics["annealer.unembed.broken_chain_fraction"] = (
        counters["broken_chains"] / counters["chains"]
        if counters["chains"] else 0.0)
    packs_ms = np.asarray(by_call.get("WorkerPool.submit", ()), float) * 1e3
    metrics["cran.workers.pack_ms_p50"] = (
        float(np.percentile(packs_ms, 50)) if packs_ms.size else 0.0)
    metrics["cran.workers.pack_ms_p90"] = (
        float(np.percentile(packs_ms, 90)) if packs_ms.size else 0.0)
    metrics["cran.workers.drain_s"] = float(
        sum(by_call.get("WorkerPool.close", ())))
    return metrics
