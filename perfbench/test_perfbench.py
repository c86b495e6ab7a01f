"""Tests of the repository benchmark, run at tiny sizes.

Nothing here compares a wall-clock time against a bar: the tests check that
every workload runs and passes its correctness gate, that the metrics match
``BENCHMARK.json``, that the gate catches wrong outputs, and the span
arithmetic.
"""

import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from perfbench import layers, metrics, run, workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_every_workload_runs_tiny_and_passes_the_gate(name, trace, tmp_path):
    spans = tmp_path / "spans.jsonl"
    result = run.run_benchmark(name, seed=3, seconds=0, trace=trace,
                               scale="tiny", setup_probes=0,
                               spans_path=spans)
    assert result.correct, result.failures
    assert result.attempted >= 1 and result.failed == 0
    line = result.line()
    json.dumps(line, allow_nan=False)
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert [(key, value["unit"]) for key, value in line["metrics"].items()] \
        == [(m["name"], m["unit"]) for m in expected]
    layers.check_originals()
    values = result.metrics
    if trace:
        attributed = sum(values[f"{layer}.self_s"]
                         for layer in metrics.LAYERS)
        assert attributed + values["unattributed_s"] == pytest.approx(
            values["trace.wall_s"])
        recorded = [json.loads(row) for row in spans.read_text().splitlines()]
        assert len(recorded) == sum(values[f"{layer}.calls"]
                                    for layer in metrics.LAYERS)
        assert set(recorded[0]) == {"id", "layer", "call", "start", "end",
                                    "parent", "thread", "pack", "job"}
        decode_layers_traced = values["decoder.quamax.calls"] > 0
        assert decode_layers_traced != workloads.WORKLOADS[name].uses_processes
    else:
        for metric in metrics.END_TO_END:
            if metric.name != "setup_s":  # no probes at this size
                assert math.isfinite(values[metric.name])
                assert values[metric.name] > 0, metric.name


def test_metric_names_units_and_bounds_match_benchmark_json():
    def listed(entries):
        return [(m["name"], m["unit"], m["better"], m.get("bound"))
                for m in entries]

    assert listed(SPEC["end_to_end"]) == [
        (m.name, m.unit, m.better, m.bound) for m in metrics.END_TO_END]
    assert listed(SPEC["per_layer"]) == [
        (m.name, m.unit, m.better, None) for m in metrics.PER_LAYER]
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (name, workloads.WORKLOADS[name].why) for name in run.WORKLOAD_NAMES]
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


def test_self_time_is_duration_minus_child_time():
    Span = layers.Span
    tree = [
        Span(0, "outer", "f", 0.0, 10.0, None),
        Span(1, "middle", "g", 1.0, 4.0, 0),
        Span(2, "inner", "h", 2.0, 3.0, 1),
        Span(3, "middle", "g", 5.0, 6.0, 0),
        Span(4, "outer", "f", 20.0, 21.0, None),
    ]
    own = layers.self_times(tree)
    assert own == pytest.approx({"outer": 10 - 3 - 1 + 1, "middle": 2 + 1,
                                 "inner": 1})
    assert sum(own.values()) == pytest.approx(10 + 1)


def test_wrappers_are_restored_when_the_traced_block_raises():
    tracer = layers.LayerTracer()
    with pytest.raises(ZeroDivisionError):
        with tracer.installed():
            with pytest.raises(RuntimeError, match="still wrapped"):
                layers.check_originals()
            1 / 0
    layers.check_originals()


def test_gate_catches_lost_jobs_wrong_bits_and_high_ber():
    workload = workloads.WORKLOADS["serve_packed"]
    load = workloads.make_load(workload, "tiny", 0)
    runner = workloads.make_runner(workload, "tiny")
    first = runner.unit(load, 0)
    quality = workloads.pass_metrics(load, [first])
    assert workloads.check_unit(first, 0, {}) == []
    assert workloads.check_pass(load, runner, [first], quality, 0) == []

    replay = runner.unit(load, 1)
    job_id = next(iter(replay.bits))
    replay.bits[job_id] = 1 - replay.bits[job_id]
    failures = workloads.check_unit(replay, 1, first.bits)
    assert any("other bits than in the first pass" in f for f in failures)

    flipped = runner.unit(load, 0)
    flipped.bits = {key: 1 - bits for key, bits in flipped.bits.items()}
    failures = workloads.check_pass(load, runner, [flipped], quality, 0)
    assert any("serial detect_with_run reference" in f for f in failures)

    del first.bits[job_id]
    assert any("completed + shed != submitted" in f
               for f in workloads.check_unit(first, 0, {}))
    failures = workloads.check_pass(load, runner, [first],
                                    dict(quality, ber=0.5), 0)
    assert any("above the workload's ceiling" in f for f in failures)


def test_gate_holds_decode_time_to_ber_to_its_ceiling():
    workload = workloads.WORKLOADS["decode_paper_48u"]
    load = workloads.make_load(workload, "tiny", 0)
    runner = workloads.make_runner(workload, "tiny")
    first = runner.unit(load, 0)
    quality = workloads.pass_metrics(load, [first])
    runner.spec = replace(runner.spec, ttb_ceiling_us=100.0)
    assert workloads.check_pass(load, runner, [first],
                                dict(quality, ttb_us_p50=99.0), 0) == []
    failures = workloads.check_pass(load, runner, [first],
                                    dict(quality, ttb_us_p50=101.0), 0)
    assert any("ttb_us_p50" in f for f in failures)


def test_non_finite_metrics_fail_the_gate(monkeypatch):
    real = workloads.pass_metrics

    def broken(load, first_pass):
        return dict(real(load, first_pass), latency_us_p99=math.inf)

    monkeypatch.setattr(workloads, "pass_metrics", broken)
    result = run.run_benchmark("serve_packed", seed=3, seconds=0,
                               trace=False, scale="tiny", setup_probes=0)
    assert not result.correct
    assert any("latency_us_p99 is not finite" in f for f in result.failures)
    assert result.line()["metrics"]["latency_us_p99"]["value"] is None


def test_loads_are_a_function_of_the_seed():
    workload = workloads.WORKLOADS["serve_mixed"]
    first, again, other = (workloads.make_load(workload, "tiny", seed)
                           for seed in (5, 5, 6))
    assert [j.arrival_time_us for j in first] == [
        j.arrival_time_us for j in again]
    assert all(np.array_equal(a.channel_use.received, b.channel_use.received)
               for a, b in zip(first, again))
    assert [j.arrival_time_us for j in first] != [
        j.arrival_time_us for j in other]


def test_command_prints_the_result_line_last(monkeypatch, capsys):
    # main() points caches and temporary files into the checkout and runs
    # OpenBLAS on one thread; keep that (and the probe count) local to this
    # test.
    for name in ("XDG_CACHE_HOME", "TMPDIR", "PYTHONPATH",
                 "OPENBLAS_NUM_THREADS"):
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    status = run.main(["--workload", "serve_packed", "--seed", "1",
                       "--seconds", "0", "--trace", "0", "--scale", "tiny"])
    assert status == 0
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert line["metrics"]["setup_s"]["value"] > 0
