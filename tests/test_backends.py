"""Backend dispatch, fallback and draw-stream identity tests.

The ``backend=`` seam promises three things:

* **dispatch** — ``"auto"`` resolves to numba when importable, then to the
  C extension when a compiler is available, then to the NumPy reference
  loops; explicitly requesting an unavailable compiled backend fails loudly;
* **fallback** — with every compiled backend unavailable (numba import
  failure simulated by poisoning the import machinery, cext by clearing its
  probe cache on a disabled compiler list), ``"auto"`` lands on numpy and
  everything still runs;
* **identity** — seeded samples are bit-for-bit identical across all
  *available* backends, for both kernels, with and without clusters, across
  multi-block packs, ``refresh_values`` rebinds and the full machine model.

Identity tests iterate over :func:`available_backends`, so on a machine
without numba they cover numpy↔cext and CI's numba matrix entry extends the
same assertions to numba.
"""

import builtins
import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.annealer import backends
from repro.annealer.backends import BACKENDS, available_backends
from repro.annealer.engine import BlockDiagonalSampler, IsingSampler
from repro.annealer.machine import AnnealerParameters, QuantumAnnealerSimulator
from repro.annealer.chimera import ChimeraGraph
from repro.decoder.quamax import QuAMaxDecoder
from repro.exceptions import AnnealerError, DetectionError
from repro.ising.model import IsingModel
from repro.ising.solver import (
    SimulatedAnnealingSolver,
    geometric_temperature_schedule,
)

COMPILED = [name for name in available_backends() if name != "numpy"]


def random_ising(num_variables, seed, density=1.0):
    rng = np.random.default_rng(seed)
    couplings = {}
    for i in range(num_variables):
        for j in range(i + 1, num_variables):
            if rng.random() <= density:
                couplings[(i, j)] = float(rng.normal())
    return IsingModel(num_variables=num_variables,
                      linear=rng.normal(size=num_variables),
                      couplings=couplings)


# The embedded-shaped cluster workload, shared with the equivalence and
# golden suites so they all exercise one problem family.
from cluster_workloads import build_path_chain_problem as path_chain_ising  # noqa: E402


def schedule(num_sweeps, hot=5.0, cold=0.05):
    return geometric_temperature_schedule(num_sweeps, hot, cold)


@pytest.fixture
def no_numba(monkeypatch):
    """Simulate an environment where ``import numba`` fails."""
    original_import = builtins.__import__

    def poisoned(name, *args, **kwargs):
        if name == "numba" or name.startswith("numba."):
            raise ImportError("numba disabled for this test")
        return original_import(name, *args, **kwargs)

    monkeypatch.setattr(builtins, "__import__", poisoned)
    monkeypatch.setitem(backends._NUMBA_STATE, "checked", False)
    monkeypatch.setitem(backends._NUMBA_STATE, "available", False)
    yield


@pytest.fixture
def no_cext(monkeypatch):
    """Simulate an environment with no working C compiler."""
    monkeypatch.setitem(backends._CEXT_STATE, "checked", False)
    monkeypatch.setitem(backends._CEXT_STATE, "lib", None)
    monkeypatch.setattr(backends, "_COMPILERS", ())
    monkeypatch.setattr(backends, "_cache_dir",
                        lambda: backends.Path("/nonexistent/no-cache"))
    yield


class TestDispatch:
    def test_known_backends(self):
        assert BACKENDS == ("auto", "numpy", "numba", "cext")
        assert available_backends()[0] == "numpy"

    def test_invalid_backend_rejected_everywhere(self):
        ising = random_ising(6, 0)
        with pytest.raises(AnnealerError):
            backends.resolve_backend("fortran")
        with pytest.raises(AnnealerError):
            IsingSampler(ising, backend="fortran")
        with pytest.raises(DetectionError):
            QuAMaxDecoder(backend="fortran")
        machine = QuantumAnnealerSimulator(ChimeraGraph.ideal(2, 2))
        with pytest.raises(AnnealerError):
            machine.run(ising, AnnealerParameters(num_anneals=1),
                        random_state=0, backend="fortran")

    def test_numpy_always_resolves(self):
        assert backends.resolve_backend("numpy") == "numpy"
        sampler = IsingSampler(random_ising(5, 1), backend="numpy")
        assert sampler.selected_backend == "numpy"

    def test_auto_prefers_numba_when_importable(self, monkeypatch):
        monkeypatch.setitem(backends._NUMBA_STATE, "checked", True)
        monkeypatch.setitem(backends._NUMBA_STATE, "available", True)
        assert backends.resolve_backend("auto") == "numba"

    def test_auto_falls_back_to_numpy_without_compiled_backends(
            self, no_numba, no_cext):
        assert not backends.numba_available()
        assert not backends.cext_available()
        assert backends.available_backends() == ("numpy",)
        assert backends.resolve_backend("auto") == "numpy"
        # The fallback is not merely nominal: a sampler built under these
        # conditions anneals on the reference loops.
        sampler = IsingSampler(random_ising(6, 2), backend="auto")
        assert sampler.selected_backend == "numpy"
        samples = sampler.anneal(schedule(10), 4, random_state=3)
        assert samples.shape == (4, 6)

    def test_explicit_numba_raises_when_absent(self, no_numba):
        with pytest.raises(AnnealerError):
            backends.resolve_backend("numba")
        with pytest.raises(AnnealerError):
            IsingSampler(random_ising(5, 3), backend="numba")

    def test_explicit_cext_raises_when_absent(self, no_cext):
        with pytest.raises(AnnealerError):
            backends.resolve_backend("cext")

    def test_auto_uses_cext_between_numba_and_numpy(self, no_numba):
        if not backends.cext_available():
            pytest.skip("no C compiler in this environment")
        assert backends.resolve_backend("auto") == "cext"

    def test_warmup_is_idempotent(self):
        for backend in available_backends():
            backends.warmup(backend)
            backends.warmup(backend)


@pytest.mark.parametrize("backend", COMPILED)
class TestCompiledIdentity:
    """Seeded streams must be bit-identical to the numpy reference loops."""

    def test_dense_kernel_stream(self, backend, array_digest):
        ising = random_ising(17, 10)
        temperatures = schedule(60)
        reference = IsingSampler(ising, kernel="dense", backend="numpy")
        compiled = IsingSampler(ising, kernel="dense", backend=backend)
        assert compiled.selected_backend == backend
        for prefix in (1, 30, 60):
            expected = reference.anneal(temperatures[:prefix], 12,
                                        random_state=11)
            actual = compiled.anneal(temperatures[:prefix], 12,
                                     random_state=11)
            np.testing.assert_array_equal(expected, actual)
            assert array_digest(expected) == array_digest(actual)

    def test_colour_kernel_stream(self, backend, array_digest):
        ising = random_ising(20, 12, density=0.25)
        temperatures = schedule(60)
        expected = IsingSampler(ising, kernel="colour",
                                backend="numpy").anneal(
            temperatures, 12, random_state=13)
        actual = IsingSampler(ising, kernel="colour", backend=backend).anneal(
            temperatures, 12, random_state=13)
        np.testing.assert_array_equal(expected, actual)
        assert array_digest(expected) == array_digest(actual)

    @pytest.mark.parametrize("kernel", ["dense", "colour"])
    def test_cluster_moves_shared(self, backend, kernel):
        ising = random_ising(12, 14)
        clusters = [np.array([0, 1, 2], dtype=np.intp),
                    np.array([7, 8], dtype=np.intp)]
        temperatures = schedule(40)
        expected = IsingSampler(ising, clusters=clusters, kernel=kernel,
                                backend="numpy").anneal(
            temperatures, 8, random_state=15)
        actual = IsingSampler(ising, clusters=clusters, kernel=kernel,
                              backend=backend).anneal(
            temperatures, 8, random_state=15)
        np.testing.assert_array_equal(expected, actual)

    @pytest.mark.parametrize("kernel,density", [("dense", 1.0),
                                                ("colour", 0.3)])
    def test_multi_block_streams(self, backend, kernel, density):
        rng = np.random.default_rng(16)
        base = random_ising(9, 17, density=density)
        problems = [
            IsingModel(num_variables=9, linear=rng.normal(size=9),
                       couplings={key: float(rng.normal())
                                  for key in base.couplings})
            for _ in range(3)
        ]
        temperatures = schedule(35)
        expected = BlockDiagonalSampler(problems, kernel=kernel,
                                        backend="numpy").anneal(
            temperatures, 7, [np.random.default_rng(90 + b) for b in range(3)])
        actual = BlockDiagonalSampler(problems, kernel=kernel,
                                      backend=backend).anneal(
            temperatures, 7, [np.random.default_rng(90 + b) for b in range(3)])
        np.testing.assert_array_equal(expected, actual)
        # ...and the multi-block compiled anneal equals per-block serial
        # compiled anneals (block draw streams are independent).
        packed = BlockDiagonalSampler(problems, kernel=kernel,
                                      backend=backend)
        for b, block in enumerate(packed.split_samples(actual)):
            serial = IsingSampler(problems[b], kernel=kernel,
                                  backend=backend).anneal(
                temperatures, 7,
                random_state=np.random.default_rng(90 + b))
            np.testing.assert_array_equal(block, serial)

    def test_refresh_values_rebinds_compiled_kernels(self, backend):
        base = random_ising(10, 18)
        rng = np.random.default_rng(5)
        replacement = IsingModel(
            num_variables=10, linear=rng.normal(size=10),
            couplings={key: float(rng.normal()) for key in base.couplings})
        temperatures = schedule(30)
        for kernel in ("dense", "colour"):
            refreshed = IsingSampler(base, kernel=kernel, backend=backend)
            refreshed.refresh_values(replacement)
            fresh = IsingSampler(replacement, classes=refreshed.classes,
                                 kernel=kernel, backend="numpy")
            np.testing.assert_array_equal(
                refreshed.anneal(temperatures, 6, random_state=19),
                fresh.anneal(temperatures, 6, random_state=19))

    def test_initial_spins_honoured(self, backend):
        ising = random_ising(8, 20)
        rng = np.random.default_rng(6)
        start = rng.choice(np.array([-1.0, 1.0]), size=(5, 8))
        temperatures = schedule(25)
        np.testing.assert_array_equal(
            IsingSampler(ising, kernel="dense", backend="numpy").anneal(
                temperatures, 5, random_state=21, initial_spins=start),
            IsingSampler(ising, kernel="dense", backend=backend).anneal(
                temperatures, 5, random_state=21, initial_spins=start))

    def test_machine_run_identical(self, backend):
        """Full QA job (embed, ICE, clusters, unembed) across backends."""
        ising = random_ising(5, 22)
        machine = QuantumAnnealerSimulator(ChimeraGraph.ideal(3, 3))
        parameters = AnnealerParameters(num_anneals=12)
        runs = {
            name: machine.run(ising, parameters, random_state=23,
                              backend=name)
            for name in ("numpy", backend)
        }
        reference, compiled = runs["numpy"], runs[backend]
        np.testing.assert_array_equal(reference.solutions.samples,
                                      compiled.solutions.samples)
        np.testing.assert_array_equal(reference.solutions.num_occurrences,
                                      compiled.solutions.num_occurrences)
        np.testing.assert_array_equal(reference.solutions.energies,
                                      compiled.solutions.energies)

    def test_sa_solver_identical(self, backend, array_digest):
        ising = random_ising(14, 24)
        reference = SimulatedAnnealingSolver(num_sweeps=60, num_reads=30,
                                             backend="numpy")
        compiled = SimulatedAnnealingSolver(num_sweeps=60, num_reads=30,
                                            backend=backend)
        expected = reference.sample(ising, random_state=25)
        actual = compiled.sample(ising, random_state=25)
        assert array_digest(expected.samples) == array_digest(actual.samples)
        np.testing.assert_array_equal(expected.energies, actual.energies)


@pytest.mark.parametrize("backend", COMPILED)
class TestCompiledClusterKernels:
    """The fused cluster kernels: embedded problems compiled end to end."""

    @pytest.mark.parametrize("chain_length", [4, 16])
    @pytest.mark.parametrize("kernel", ["colour", "dense"])
    def test_embedded_problem_stream(self, backend, kernel, chain_length,
                                     array_digest):
        ising, clusters = path_chain_ising(48, chain_length, 40)
        temperatures = schedule(45)
        expected = IsingSampler(ising, clusters=clusters, kernel=kernel,
                                backend="numpy").anneal(
            temperatures, 9, random_state=41)
        actual = IsingSampler(ising, clusters=clusters, kernel=kernel,
                              backend=backend).anneal(
            temperatures, 9, random_state=41)
        np.testing.assert_array_equal(expected, actual)
        assert array_digest(expected) == array_digest(actual)

    @pytest.mark.parametrize("rng_mode", ["sequential", "counter"])
    @pytest.mark.parametrize("chains", ["path", "none"])
    @pytest.mark.parametrize("blocks", [1, 3])
    @pytest.mark.parametrize("kernel", ["colour", "dense"])
    def test_multi_block_cluster_pack_dispatches_compiled(
            self, backend, kernel, blocks, chains, rng_mode, monkeypatch):
        """Every pack shape runs one pack-level fused compiled call per
        anneal: a single problem is a pack of one and a problem without
        chains a pack with zero clusters."""
        base, clusters = path_chain_ising(20, 4, 42, density=0.15)
        if chains == "none":
            clusters = None
        rng = np.random.default_rng(43)
        problems = [
            IsingModel(num_variables=20, linear=rng.normal(size=20),
                       couplings={key: float(rng.normal())
                                  for key in base.couplings})
            for _ in range(blocks)
        ]
        entry = ("pack_fused_dense_cluster_sweep" if kernel == "dense"
                 else "pack_fused_colour_cluster_sweep")
        if rng_mode == "counter":
            entry = "counter_" + entry
        # Built before counting: construction warms the backend, which
        # runs the pack kernels on toy inputs once per process.
        packed = BlockDiagonalSampler(problems, clusters=clusters,
                                      kernel=kernel, backend=backend,
                                      rng=rng_mode)
        calls = []
        for name in ("pack_fused_dense_cluster_sweep",
                     "pack_fused_colour_cluster_sweep",
                     "counter_pack_fused_dense_cluster_sweep",
                     "counter_pack_fused_colour_cluster_sweep"):
            def counting(used_backend, *args, _name=name,
                         _original=getattr(backends, name), **kwargs):
                calls.append((_name, used_backend))
                return _original(used_backend, *args, **kwargs)

            monkeypatch.setattr(backends, name, counting)
        temperatures = schedule(30)
        actual = packed.anneal(temperatures, 6,
                               [np.random.default_rng(50 + b)
                                for b in range(blocks)])
        assert calls == [(entry, backend)], \
            "every anneal must be exactly one compiled pack dispatch"
        monkeypatch.undo()
        expected = BlockDiagonalSampler(problems, clusters=clusters,
                                        kernel=kernel, backend="numpy",
                                        rng=rng_mode).anneal(
            temperatures, 6,
            [np.random.default_rng(50 + b) for b in range(blocks)])
        np.testing.assert_array_equal(expected, actual)

    def test_machine_run_batch_pack_identical(self, backend):
        """Serving-shaped multi-problem QA packs (embedded chains → cluster
        moves, multi-block) are bit-identical to numpy through the full
        machine model now that the pack dispatch exception is gone."""
        base = random_ising(5, 46)
        rng = np.random.default_rng(47)
        problems = [
            IsingModel(num_variables=5, linear=rng.normal(size=5),
                       couplings={key: float(rng.normal())
                                  for key in base.couplings})
            for _ in range(3)
        ]
        machine = QuantumAnnealerSimulator(ChimeraGraph.ideal(3, 3))
        parameters = AnnealerParameters(num_anneals=10)
        reference = machine.run_batch(problems, parameters, random_state=48,
                                      backend="numpy")
        compiled = machine.run_batch(problems, parameters, random_state=48,
                                     backend=backend)
        for expected, actual in zip(reference, compiled):
            np.testing.assert_array_equal(expected.solutions.samples,
                                          actual.solutions.samples)
            np.testing.assert_array_equal(expected.solutions.num_occurrences,
                                          actual.solutions.num_occurrences)
            np.testing.assert_array_equal(expected.solutions.energies,
                                          actual.solutions.energies)


class TestCextCompileCache:
    """Satellite: the on-disk compile cache survives concurrent compiles."""

    def test_two_processes_cold_cache(self, tmp_path):
        """Two fresh processes warming cext on one cold cache — the race the
        process-pool serving workers hit — must both succeed and leave one
        (complete) artifact."""
        if not backends.cext_available():
            pytest.skip("no C compiler in this environment")
        repo_src = os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(backends.__file__))))
        env = dict(os.environ,
                   XDG_CACHE_HOME=str(tmp_path),
                   PYTHONPATH=repo_src + os.pathsep
                   + os.environ.get("PYTHONPATH", ""))
        script = (
            "from repro.annealer import backends\n"
            "assert backends.cext_available()\n"
            "backends.warmup('cext')\n"
        )
        processes = [
            subprocess.Popen([sys.executable, "-c", script], env=env)
            for _ in range(2)
        ]
        exit_codes = [process.wait(timeout=300) for process in processes]
        assert exit_codes == [0, 0]
        artifacts = list((tmp_path / "repro_backends").glob("metropolis_*.so"))
        assert len(artifacts) == 1

    def test_compile_failure_tolerates_concurrent_winner(self, monkeypatch,
                                                         tmp_path):
        """When this process's compile fails but another process published
        the artifact mid-flight, the published artifact is used."""
        digest = hashlib.sha256(
            backends._C_SOURCE.encode()).hexdigest()[:16]
        cache = tmp_path / "cache"
        target = cache / f"metropolis_{digest}.so"
        monkeypatch.setattr(backends, "_cache_dir", lambda: cache)

        def racing_compiler(*args, **kwargs):
            # Simulate the concurrent winner: the target appears while this
            # process's own compiler invocation fails.
            cache.mkdir(parents=True, exist_ok=True)
            target.write_bytes(b"concurrent winner")
            raise subprocess.SubprocessError("simulated compiler failure")

        monkeypatch.setattr(backends.subprocess, "run", racing_compiler)
        assert backends._compile_cext() == target
        assert target.read_bytes() == b"concurrent winner"

    def test_compile_failure_without_winner_returns_none(self, monkeypatch,
                                                         tmp_path):
        cache = tmp_path / "cache"
        monkeypatch.setattr(backends, "_cache_dir", lambda: cache)
        monkeypatch.setattr(backends, "_COMPILERS", ())
        assert backends._compile_cext() is None


class TestIncrementalClusterFields:
    """Satellite: cluster flips update dense fields in place, same stream."""

    @pytest.mark.parametrize("blocks", [1, 3])
    def test_incremental_matches_recompute(self, blocks):
        rng = np.random.default_rng(30)
        base = random_ising(11, 31)
        problems = [
            IsingModel(num_variables=11, linear=rng.normal(size=11),
                       couplings={key: float(rng.normal())
                                  for key in base.couplings})
            for _ in range(blocks)
        ]
        clusters = [np.array([0, 1, 2], dtype=np.intp),
                    np.array([5, 6], dtype=np.intp),
                    np.array([8, 9, 10], dtype=np.intp)]
        temperatures = schedule(50)
        rngs_a = [np.random.default_rng(70 + b) for b in range(blocks)]
        rngs_b = [np.random.default_rng(70 + b) for b in range(blocks)]
        incremental = BlockDiagonalSampler(problems, clusters=clusters,
                                           kernel="dense", backend="numpy")
        assert incremental.incremental_cluster_fields
        recompute = BlockDiagonalSampler(problems, clusters=clusters,
                                         kernel="dense", backend="numpy")
        recompute.incremental_cluster_fields = False
        np.testing.assert_array_equal(
            incremental.anneal(temperatures, 9, rngs_a),
            recompute.anneal(temperatures, 9, rngs_b))
