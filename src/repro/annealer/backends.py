"""Compiled sweep-kernel backends for the Metropolis engine.

The engine's two sweep kernels (dense sequential and colour-class, see
:mod:`repro.annealer.engine`) are exact single-spin-flip Metropolis dynamics
whose *hot loop* is a Python ``for`` over variables (dense) or classes
(colour); embedded (chain-coupled) problems additionally interleave a
cluster-flip sweep — a collective chain-reorientation move — after every
single-spin sweep.  This module provides drop-in compiled implementations of
those inner loops behind a ``backend=`` seam:

* ``"numpy"`` — the pure NumPy/Python reference loops in ``engine.py``
  (always available; the behavioural definition of the dynamics);
* ``"numba"`` — ``@njit`` translations of the same loops.  Numba implements
  :class:`numpy.random.Generator` on top of the *same* BitGenerator state,
  so the jitted kernels consume the exact per-variable draw stream of the
  reference loops;
* ``"cext"`` — a small C kernel compiled on first use with the system C
  compiler and driven through :mod:`ctypes`.  It draws from the caller's
  generator through the BitGenerator's ``next_double`` function pointer (the
  same extension point Numba and Cython use), so it too consumes the exact
  reference draw stream;
* ``"auto"`` — ``numba`` when importable, else ``cext`` when a working C
  compiler is found, else ``numpy``.

Every compiled sweep is a *pack* kernel: one call evolves every block of a
pack (structurally identical problems laid out block-diagonally, e.g. the
jobs of a C-RAN serving pack) through the whole schedule, running a
single-spin sweep and then a cluster-flip sweep at every temperature.
There is one kernel per sweep shape and draw discipline:
:func:`pack_fused_dense_cluster_sweep`,
:func:`pack_fused_colour_cluster_sweep` and their ``counter_`` siblings.
Cluster moves travel across the compiled boundary as a flattened
:class:`ClusterDescriptor` — member/column/internal-edge CSR-style arrays
built once per anneal by the engine.  A single problem is a pack of one
block and a problem without chains is a pack with zero clusters (the empty
descriptor), so neither shape needs a kernel of its own.

Draw-stream discipline
----------------------

All backends make identical Metropolis *decisions* from identical draws: for
every visited variable the uphill replicas draw one uniform each, in
ascending replica order — exactly the order in which the NumPy loops consume
``rng.random(count)``; cluster sweeps draw one uniform per uphill
(replica, cluster) pair in the same cluster-major, replica-ascending order
as the reference.  The only way a compiled backend can diverge from the
NumPy loops is a one-ulp difference between the vectorised ``np.exp`` and the
scalar libm ``exp`` flipping an acceptance whose uniform draw lands inside
that last-ulp window; the probability is ~1e-16 per uphill draw (~1e-10 over
a full QA run), which is why the equivalence and golden suites — which compare
seeded streams bit-for-bit across backends — hold in practice.  The fused
dense+cluster kernels' incremental field update shares that window: the
reference updates fields through a small BLAS matmul whose reduction order
is unspecified, so a ~1-ulp field difference can shift a *later* acceptance
threshold — tolerable because fields never gate the draw-free
``delta <= 0`` branch at a structural zero.  The cluster flip-energy
boundary, which does (an isolated chain's boundary is exactly zero), is
instead accumulated in an explicitly defined member order on both sides.
Floating contraction is disabled in both compiled backends (no FMA), so the
remaining arithmetic matches the NumPy loops operation for operation.

Counter mode and threads
------------------------

Orthogonally to the backend, the ``rng=`` knob selects the *draw discipline*
(:data:`RNG_MODES`).  ``"sequential"`` (the default, described above) is
inherently serial: a replica's next draw depends on how many draws earlier
replicas consumed.  ``"counter"`` replaces consumption order with position —
every potential draw is addressed by a ``(site, sweep, replica, move_tag)``
counter and valued by Philox4x32-10 under a per-block key (see
:mod:`repro.annealer.counter`) — which makes replica evaluation order
irrelevant and intra-pack parallelism legal.  The ``counter_*`` dispatch
functions below carry a ``threads=`` knob: the cext kernels run an OpenMP
``parallel for`` over replicas (per-thread Philox state; compiled with
``-fopenmp`` when available, silently serial otherwise) and the numba
kernels a ``prange`` equivalent; the numpy reference ignores ``threads``.
Counter-mode trajectories are bit-identical across backends *and* across
thread counts, which the counter equivalence/golden suites pin.

Compile-cost discipline
-----------------------

Both compiled backends pay a one-time cost (JIT compilation for numba, a
``cc -O2 -shared`` invocation for cext).  :func:`warmup` forces that cost
eagerly and caches the result per process; the samplers call it at
construction time, so the first *timed* anneal never includes compilation.
The cext shared object is additionally cached on disk keyed by a hash of the
C source, so later processes (e.g. the process-pool serving workers) only pay
a ``dlopen``.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
from pathlib import Path
from typing import Dict, NamedTuple, Optional, Tuple

import numpy as np

from repro.exceptions import AnnealerError
from repro.obs.profiling import PROFILER

#: Valid values of the ``backend=`` knob of the samplers.
BACKENDS = ("auto", "numpy", "numba", "cext")

#: Backends that run compiled code (everything except the reference loops).
COMPILED_BACKENDS = ("numba", "cext")

#: Valid values of the ``rng=`` knob of the samplers: the stream-faithful
#: sequential Generator discipline (default, the reference) or the
#: order-independent Philox counter contract that legalises ``threads > 1``.
RNG_MODES = ("sequential", "counter")

# --------------------------------------------------------------------------- #
# Availability probes (each cached; monkeypatchable for fallback tests)
# --------------------------------------------------------------------------- #

_NUMBA_STATE: Dict[str, object] = {"checked": False, "available": False}
_CEXT_STATE: Dict[str, object] = {"checked": False, "lib": None}
_WARMED: set = set()


def numba_available() -> bool:
    """Whether the numba JIT backend can be used (numba importable)."""
    if not _NUMBA_STATE["checked"]:
        try:
            import numba  # noqa: F401
            _NUMBA_STATE["available"] = True
        except ImportError:
            _NUMBA_STATE["available"] = False
        _NUMBA_STATE["checked"] = True
    return bool(_NUMBA_STATE["available"])


def cext_available() -> bool:
    """Whether the C-extension backend can be used (compiler + dlopen work)."""
    return _load_cext() is not None


def openmp_enabled() -> bool:
    """Whether the cext counter kernels were compiled with OpenMP.

    ``False`` either when the cext backend is unavailable or when no
    compiler accepted ``-fopenmp`` (the kernels then run their parallel
    regions serially — bit-identical results, just no speedup).
    """
    lib = _load_cext()
    if lib is None:
        return False
    return bool(lib.counter_openmp_enabled())


#: Whether this process has ever run a multi-thread OpenMP team (a counter
#: cext dispatch with ``threads > 1``).  libgomp's worker threads do not
#: survive ``fork()``: a child forked afterwards deadlocks in its *first*
#: parallel region.  The worker pool consults this to fall back to a spawn
#: start method for process-mode pools.
_OPENMP_TEAMS_RUN = False


def openmp_teams_run() -> bool:
    """Whether a multi-thread OpenMP team has run in this process.

    Once true, fork-context child processes must not enter OpenMP parallel
    regions (libgomp is not fork-safe); spawned children are unaffected.
    """
    return _OPENMP_TEAMS_RUN


def _note_openmp_team(threads: int) -> None:
    """Record that a cext counter kernel is about to run *threads* wide."""
    global _OPENMP_TEAMS_RUN
    if threads > 1 and openmp_enabled():
        _OPENMP_TEAMS_RUN = True


def available_backends() -> Tuple[str, ...]:
    """Concrete backends usable in this process, ``"numpy"`` always first."""
    names = ["numpy"]
    if numba_available():
        names.append("numba")
    if cext_available():
        names.append("cext")
    return tuple(names)


def resolve_backend(backend: str) -> str:
    """Map a ``backend=`` knob value to the concrete backend that will run.

    ``"auto"`` prefers numba, falls back to the C extension, and lands on the
    NumPy reference loops when no compiled backend is available — so code
    written against ``backend="auto"`` degrades gracefully on machines
    without numba or a C compiler.  Explicitly requesting an unavailable
    compiled backend raises :class:`AnnealerError` (a typo or a missing
    dependency should be loud, not silently slow).
    """
    if backend not in BACKENDS:
        raise AnnealerError(
            f"backend must be one of {BACKENDS}, got {backend!r}")
    if backend == "auto":
        if numba_available():
            return "numba"
        if cext_available():
            return "cext"
        return "numpy"
    if backend == "numba" and not numba_available():
        raise AnnealerError(
            "backend='numba' requested but numba is not importable; install "
            "numba or use backend='auto' for graceful fallback")
    if backend == "cext" and not cext_available():
        raise AnnealerError(
            "backend='cext' requested but no working C compiler/loader was "
            "found; use backend='auto' for graceful fallback")
    return backend


def warmup(backend: str, rng: str = "sequential") -> None:
    """Force the backend's one-time compile cost now, once per process.

    For ``numba`` this JIT-compiles both pack kernels of the draw
    discipline on toy inputs; for ``cext`` it compiles (or dlopens the
    cached) shared object.  Samplers call this at construction, so
    first-anneal timings never include compilation.  No-op for
    ``numpy``/already-warm backends.

    The two draw disciplines compile separate kernel sets, so they warm
    separately: ``rng="counter"`` warms the counter/threaded kernels and
    leaves the sequential set cold (and vice versa), keeping
    sequential-only processes free of the counter kernels' JIT cost.
    """
    backend = resolve_backend(backend)
    token = f"{backend}:{rng}"
    if token in _WARMED or backend == "numpy":
        return
    labels = (backend, rng) if rng == "counter" else (backend,)
    with PROFILER.phase("backend.warmup", *labels):
        # A one-block pack hands numba contiguous block views; a two-block
        # pack hands it the non-contiguous column slices it specialises
        # separately, which would otherwise JIT inside the first timed
        # multi-block anneal.
        for blocks in (1, 2):
            _warm_pack(backend, rng, blocks)
    _WARMED.add(token)


def _warm_pack(backend: str, rng: str, blocks: int) -> None:
    """Run both pack kernels of one draw discipline on a toy pack."""
    spins = np.ones((2, 2 * blocks))
    fields = spins.copy()
    matrices = np.zeros((blocks, 2, 2))
    linear = np.zeros(2 * blocks)
    members = np.arange(2, dtype=np.int64)
    class_starts = np.array([0, 1, 2], dtype=np.int64)
    class_data = np.zeros((blocks, 0))
    indices = np.zeros(0, dtype=np.int64)
    indptr = np.zeros(3, dtype=np.int64)
    clusters = ClusterDescriptor(
        members=members, cluster_starts=np.array([0, 2], dtype=np.int64),
        data=np.zeros((blocks, 0)), indices=indices, indptr=indptr,
        edge_i=np.zeros(0, dtype=np.int64),
        edge_j=np.zeros(0, dtype=np.int64),
        edge_starts=np.zeros(2, dtype=np.int64),
        edge_values=np.zeros((blocks, 0)))
    temperatures = np.array([1.0])
    if rng == "counter":
        keys = np.arange(1, blocks + 1, dtype=np.uint64)
        counter_pack_fused_dense_cluster_sweep(
            backend, spins, fields, matrices, members, linear, clusters,
            temperatures, keys)
        counter_pack_fused_colour_cluster_sweep(
            backend, spins, linear, members, class_starts, class_data,
            indices, indptr, clusters, temperatures, keys)
        return
    rngs = [np.random.default_rng(b) for b in range(blocks)]
    pack_fused_dense_cluster_sweep(backend, spins, fields, matrices, members,
                                   linear, clusters, temperatures, rngs)
    pack_fused_colour_cluster_sweep(backend, spins, linear, members,
                                    class_starts, class_data, indices, indptr,
                                    np.empty((2, 1)), clusters, temperatures,
                                    rngs)


# --------------------------------------------------------------------------- #
# Kernel entry points (dispatch by backend)
# --------------------------------------------------------------------------- #

class ClusterDescriptor(NamedTuple):
    """Flattened pack cluster metadata handed across the compiled boundary.

    Built once per anneal by the engine
    (:meth:`~repro.annealer.engine.BlockDiagonalSampler._cluster_pack_descriptor`)
    from the live coupling matrix, so samplers rebound through
    ``refresh_values`` always sweep the current values.  The structure
    arrays are *block-level* and shared by every block of the pack: member
    and edge indices address one block's ``(R, P)`` spin view.  ``data``
    and ``edge_values`` stack every block's coupling values as
    ``(blocks, nnz)`` / ``(blocks, E)`` rows.  A problem without chains is
    the empty descriptor: no members, ``cluster_starts == [0]`` and
    ``(blocks, 0)`` value matrices.
    """

    #: Cluster members, cluster-major: ``members[cluster_starts[c]:
    #: cluster_starts[c+1]]`` are cluster ``c``'s variable indices.
    members: np.ndarray
    #: Ragged cluster delimiters, ``int64[C+1]``.
    cluster_starts: np.ndarray
    #: CSR triple of the stacked member local-field rows: row ``k`` maps a
    #: block's spins to the coupling field of ``members[k]`` (same values, in
    #: the same ascending-column order, as the reference cluster operators);
    #: ``data`` row ``b`` holds block ``b``'s values.
    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    #: Cluster-internal coupling edges (both endpoints in one cluster),
    #: cluster-major with ``edge_starts`` delimiting; their field
    #: contributions are double-counted through both endpoints and must be
    #: subtracted from the flip energy.
    edge_i: np.ndarray
    edge_j: np.ndarray
    edge_starts: np.ndarray
    #: Every block's coupling value of every internal edge, ``(blocks, E)``.
    edge_values: np.ndarray


def _cluster_ctypes_args(clusters: ClusterDescriptor) -> list:
    """The descriptor's ctypes argument tail shared by the cext kernels."""
    return [
        clusters.members.ctypes.data_as(ctypes.c_void_p),
        clusters.cluster_starts.ctypes.data_as(ctypes.c_void_p),
        ctypes.c_int64(clusters.cluster_starts.size - 1),
        clusters.data.ctypes.data_as(ctypes.c_void_p),
        clusters.indices.ctypes.data_as(ctypes.c_void_p),
        clusters.indptr.ctypes.data_as(ctypes.c_void_p),
        ctypes.c_int64(clusters.data.shape[1]),
        clusters.edge_i.ctypes.data_as(ctypes.c_void_p),
        clusters.edge_j.ctypes.data_as(ctypes.c_void_p),
        clusters.edge_starts.ctypes.data_as(ctypes.c_void_p),
        clusters.edge_values.ctypes.data_as(ctypes.c_void_p),
        ctypes.c_int64(clusters.edge_values.shape[1]),
    ]


def _rng_pointer_arrays(rngs) -> Tuple[object, object]:
    """Per-block (next_double function, state) pointer arrays for pack calls."""
    fns = (ctypes.c_void_p * len(rngs))()
    states = (ctypes.c_void_p * len(rngs))()
    for index, rng in enumerate(rngs):
        fn, state = _rng_pointers(rng)
        fns[index] = fn
        states[index] = state
    return fns, states


def pack_fused_colour_cluster_sweep(backend: str, spins: np.ndarray,
                                    linear: np.ndarray, members: np.ndarray,
                                    class_starts: np.ndarray,
                                    class_data: np.ndarray,
                                    indices: np.ndarray, indptr: np.ndarray,
                                    scratch: np.ndarray,
                                    clusters: ClusterDescriptor,
                                    temperatures: np.ndarray, rngs) -> None:
    """Whole-schedule fused colour+cluster sweeps over a pack.

    One dispatch per pack per anneal: ``spins`` is the combined
    ``(R, blocks*P)`` matrix, ``linear`` the combined block-major field
    vector, and the per-block coupling values travel stacked — *class_data*
    is ``(blocks, class_nnz)`` over the shared class CSR structure, and the
    descriptor's ``data`` / ``edge_values`` are the ``(blocks, nnz)`` /
    ``(blocks, E)`` block-major value matrices (all blocks of a pack share
    one sparsity structure).  Each block consumes its own generator from
    *rngs* exactly as the reference loops do, so the pack is bit-for-bit
    the per-block serial anneals with the call marshalling paid once per
    pack instead of once per block.
    """
    num_blocks = len(rngs)
    size = spins.shape[1] // num_blocks
    if backend == "numba":
        kernels = _ensure_numba_kernels()
        temperatures = np.ascontiguousarray(temperatures, dtype=np.float64)
        for b, rng in enumerate(rngs):
            segment = slice(b * size, (b + 1) * size)
            kernels["fused_colour"](
                spins[:, segment], linear[segment], members, class_starts,
                class_data[b], indices, indptr, scratch, clusters.members,
                clusters.cluster_starts, clusters.data[b], clusters.indices,
                clusters.indptr, clusters.edge_i, clusters.edge_j,
                clusters.edge_starts, clusters.edge_values[b], temperatures,
                rng)
        return
    if backend == "cext":
        lib = _load_cext()
        sp, sld = _row_strided(spins)
        temperatures = np.ascontiguousarray(temperatures, dtype=np.float64)
        fns, states = _rng_pointer_arrays(rngs)
        lib.pack_fused_colour_cluster_sweep(
            sp, sld, ctypes.c_int64(spins.shape[0]),
            ctypes.c_int64(num_blocks), ctypes.c_int64(size),
            linear.ctypes.data_as(ctypes.c_void_p),
            members.ctypes.data_as(ctypes.c_void_p),
            class_starts.ctypes.data_as(ctypes.c_void_p),
            ctypes.c_int64(class_starts.size - 1),
            class_data.ctypes.data_as(ctypes.c_void_p),
            indices.ctypes.data_as(ctypes.c_void_p),
            indptr.ctypes.data_as(ctypes.c_void_p),
            ctypes.c_int64(class_data.shape[1]),
            scratch.ctypes.data_as(ctypes.c_void_p),
            *_cluster_ctypes_args(clusters),
            temperatures.ctypes.data_as(ctypes.c_void_p),
            ctypes.c_int64(temperatures.size),
            fns, states)
        return
    raise AnnealerError(
        f"no pack colour+cluster kernel for backend {backend!r}")


def pack_fused_dense_cluster_sweep(backend: str, spins: np.ndarray,
                                   fields: np.ndarray, matrices: np.ndarray,
                                   order: np.ndarray, linear: np.ndarray,
                                   clusters: ClusterDescriptor,
                                   temperatures: np.ndarray, rngs) -> None:
    """Whole-schedule fused dense+cluster sweeps over a pack.

    The dense-kernel sibling of :func:`pack_fused_colour_cluster_sweep`:
    ``matrices`` is the ``(blocks, P, P)`` C-contiguous stack of per-block
    dense couplings, ``fields`` the combined ``(R, blocks*P)`` local-field
    matrix maintained incrementally across both move types, and the
    descriptor carries stacked block-major values as in the colour pack.
    """
    num_blocks = len(rngs)
    size = spins.shape[1] // num_blocks
    if backend == "numba":
        kernels = _ensure_numba_kernels()
        temperatures = np.ascontiguousarray(temperatures, dtype=np.float64)
        for b, rng in enumerate(rngs):
            segment = slice(b * size, (b + 1) * size)
            kernels["fused_dense"](
                spins[:, segment], fields[:, segment], matrices[b], order,
                linear[segment], clusters.members, clusters.cluster_starts,
                clusters.data[b], clusters.indices, clusters.indptr,
                clusters.edge_i, clusters.edge_j, clusters.edge_starts,
                clusters.edge_values[b], temperatures, rng)
        return
    if backend == "cext":
        lib = _load_cext()
        matrices = np.ascontiguousarray(matrices, dtype=np.float64)
        order = np.ascontiguousarray(order, dtype=np.int64)
        temperatures = np.ascontiguousarray(temperatures, dtype=np.float64)
        sp, sld = _row_strided(spins)
        fp, fld = _row_strided(fields)
        fns, states = _rng_pointer_arrays(rngs)
        lib.pack_fused_dense_cluster_sweep(
            sp, sld, fp, fld,
            matrices.ctypes.data_as(ctypes.c_void_p),
            order.ctypes.data_as(ctypes.c_void_p),
            ctypes.c_int64(order.size),
            ctypes.c_int64(spins.shape[0]), ctypes.c_int64(num_blocks),
            ctypes.c_int64(size),
            linear.ctypes.data_as(ctypes.c_void_p),
            *_cluster_ctypes_args(clusters),
            temperatures.ctypes.data_as(ctypes.c_void_p),
            ctypes.c_int64(temperatures.size),
            fns, states)
        return
    raise AnnealerError(
        f"no pack dense+cluster kernel for backend {backend!r}")


# --------------------------------------------------------------------------- #
# Counter-mode (rng="counter") kernel entry points
#
# Same kernels, different draw discipline: uniforms come from the Philox
# counter contract of repro.annealer.counter instead of a shared Generator,
# so replicas are independent and the compiled variants may run them in
# parallel (threads=).  The numpy branches below are the reference
# implementation of counter mode; all backends are bit-identical to them.
# --------------------------------------------------------------------------- #

def _counter_dense_pass_numpy(spins, fields, matrix, order, temperature,
                              sweep, replicas, key) -> None:
    """One counter-mode dense sweep (reference loop, one block)."""
    from repro.annealer.counter import TAG_SWEEP, philox_uniform

    for k in range(order.shape[0]):
        v = order[k]
        current = spins[:, v]
        delta = -2.0 * current * fields[:, v]
        accept = delta <= 0.0
        uphill = ~accept
        if uphill.any():
            # delta > 0: acceptance probability exp(-delta / T); the draw
            # is addressed by (visit position, sweep, replica), not by
            # consumption order.
            u = philox_uniform(k, sweep, replicas[uphill], TAG_SWEEP, key)
            accept[uphill] = u < np.exp(-delta[uphill] / temperature)
        if accept.any():
            step = np.where(accept, -2.0 * current, 0.0)
            spins[:, v] += step
            fields += step[:, None] * matrix[v, :][None, :]


def _counter_class_operators(class_starts, data, indices, indptr, size):
    """Per-class ``(lo, hi, CSR operator)`` triples of stacked class rows.

    scipy's CSR matvec accumulates each row's entries in ascending-column
    scalar order — the same summation the compiled kernels perform — so
    these operators keep the numpy reference on the compiled backends'
    exact field arithmetic.
    """
    from scipy import sparse

    operators = []
    for c in range(class_starts.size - 1):
        lo, hi = int(class_starts[c]), int(class_starts[c + 1])
        dlo, dhi = int(indptr[lo]), int(indptr[hi])
        operators.append((lo, hi, sparse.csr_matrix(
            (data[dlo:dhi], indices[dlo:dhi],
             np.asarray(indptr[lo:hi + 1]) - dlo),
            shape=(hi - lo, size))))
    return operators


def _counter_colour_pass_numpy(spins, linear, members, operators,
                               temperature, sweep, replicas, key) -> None:
    """One counter-mode colour-class sweep (reference loop, one block)."""
    from repro.annealer.counter import TAG_SWEEP, philox_uniform

    for lo, hi, operator in operators:
        group = members[lo:hi]
        fields = (operator @ spins.T).T + linear[group]
        delta = -2.0 * spins[:, group] * fields
        accept = delta <= 0.0
        uphill = ~accept
        if uphill.any():
            rr, mm = np.nonzero(uphill)
            # The draw site is the member's position in the concatenated
            # class order — the same numbering the dense kernel uses for
            # its visit order on degenerate colourings.
            u = philox_uniform((lo + mm).astype(np.uint32), sweep,
                               replicas[rr], TAG_SWEEP, key)
            accept[uphill] = u < np.exp(-delta[uphill] / temperature)
        flips = np.where(accept, -1.0, 1.0)
        spins[:, group] *= flips


def _counter_cluster_pass_numpy(spins, linear, clusters, cdata, edge_values,
                                operators, temperature, sweep, replicas, key,
                                fields=None, matrix=None) -> None:
    """One counter-mode cluster-flip sweep (reference loop, one block).

    *operators* are the per-cluster ``(begin, end, CSR)`` member-field
    operators over this block's values; when *fields* is given, accepted
    flips update the dense local-field matrix incrementally in the
    compiled kernels' explicit ascending-member order.
    """
    from repro.annealer.counter import TAG_CLUSTER, philox_uniform

    num_replicas = spins.shape[0]
    for c, (begin, end, operator) in enumerate(operators):
        group = clusters.members[begin:end]
        member_fields = (operator @ spins.T).T + linear[group]
        terms = spins[:, group] * member_fields
        # Explicit ascending-member accumulation — the defined boundary
        # order shared with the sequential reference and both compiled
        # backends (see the engine's _cluster_sweep).
        boundary = np.zeros(num_replicas)
        for m in range(end - begin):
            boundary += terms[:, m]
        for e in range(int(clusters.edge_starts[c]),
                       int(clusters.edge_starts[c + 1])):
            boundary -= (2.0 * edge_values[e]
                         * spins[:, clusters.edge_i[e]]
                         * spins[:, clusters.edge_j[e]])
        delta = -2.0 * boundary
        accept = delta <= 0.0
        uphill = ~accept
        if uphill.any():
            u = philox_uniform(c, sweep, replicas[uphill], TAG_CLUSTER, key)
            accept[uphill] = u < np.exp(-delta[uphill] / temperature)
        accepted = np.nonzero(accept)[0]
        if accepted.size == 0:
            continue
        if fields is not None:
            update = np.zeros((accepted.size, spins.shape[1]))
            for m in group:
                update += ((-2.0 * spins[accepted, m])[:, None]
                           * matrix[m, :][None, :])
            fields[accepted] += update
        spins[np.ix_(accepted, group)] *= -1.0


def _counter_cluster_operators(clusters: ClusterDescriptor, cdata, size):
    """Per-cluster ``(begin, end, CSR operator)`` triples over one block."""
    from scipy import sparse

    operators = []
    for c in range(clusters.cluster_starts.size - 1):
        begin = int(clusters.cluster_starts[c])
        end = int(clusters.cluster_starts[c + 1])
        dlo, dhi = int(clusters.indptr[begin]), int(clusters.indptr[end])
        operators.append((begin, end, sparse.csr_matrix(
            (cdata[dlo:dhi], clusters.indices[dlo:dhi],
             np.asarray(clusters.indptr[begin:end + 1]) - dlo),
            shape=(end - begin, size))))
    return operators


def _run_numba_threaded(threads: int, kernel, *args) -> None:
    """Run a prange counter kernel under a bounded numba thread count."""
    import numba

    previous = numba.get_num_threads()
    numba.set_num_threads(
        max(1, min(int(threads), numba.config.NUMBA_NUM_THREADS)))
    try:
        kernel(*args)
    finally:
        numba.set_num_threads(previous)


def counter_pack_fused_dense_cluster_sweep(
        backend: str, spins: np.ndarray, fields: np.ndarray,
        matrices: np.ndarray, order: np.ndarray, linear: np.ndarray,
        clusters: ClusterDescriptor, temperatures: np.ndarray, keys,
        threads: int = 1) -> None:
    """Counter-mode fused dense+cluster sweeps over a pack.

    The counter sibling of :func:`pack_fused_dense_cluster_sweep`: one
    Philox key per block instead of one generator per block, and the cext
    variant parallelises over every ``(block, replica)`` pair.
    """
    threads = max(1, int(threads))
    num_blocks = len(keys)
    size = spins.shape[1] // num_blocks
    if backend == "numpy":
        replicas = np.arange(spins.shape[0], dtype=np.uint32)
        for b, key in enumerate(keys):
            segment = slice(b * size, (b + 1) * size)
            bspins = spins[:, segment]
            bfields = fields[:, segment]
            blinear = linear[segment]
            operators = _counter_cluster_operators(clusters,
                                                   clusters.data[b], size)
            for t in range(len(temperatures)):
                _counter_dense_pass_numpy(bspins, bfields, matrices[b],
                                          order, temperatures[t], t,
                                          replicas, key)
                _counter_cluster_pass_numpy(
                    bspins, blinear, clusters, clusters.data[b],
                    clusters.edge_values[b], operators, temperatures[t], t,
                    replicas, key, fields=bfields, matrix=matrices[b])
        return
    if backend == "numba":
        kernels = _ensure_numba_counter_kernels()
        temperatures = np.ascontiguousarray(temperatures, dtype=np.float64)
        matrices = np.ascontiguousarray(matrices, dtype=np.float64)
        order = np.ascontiguousarray(order, dtype=np.int64)
        for b, key in enumerate(keys):
            segment = slice(b * size, (b + 1) * size)
            _run_numba_threaded(
                threads, kernels["fused_dense"], spins[:, segment],
                fields[:, segment], matrices[b], order, linear[segment],
                clusters.members, clusters.cluster_starts, clusters.data[b],
                clusters.indices, clusters.indptr, clusters.edge_i,
                clusters.edge_j, clusters.edge_starts,
                clusters.edge_values[b], temperatures, np.uint64(key))
        return
    if backend == "cext":
        lib = _load_cext()
        _note_openmp_team(threads)
        matrices = np.ascontiguousarray(matrices, dtype=np.float64)
        order = np.ascontiguousarray(order, dtype=np.int64)
        temperatures = np.ascontiguousarray(temperatures, dtype=np.float64)
        keys_array = np.ascontiguousarray(keys, dtype=np.uint64)
        sp, sld = _row_strided(spins)
        fp, fld = _row_strided(fields)
        lib.counter_pack_fused_dense_cluster_sweep(
            sp, sld, fp, fld,
            matrices.ctypes.data_as(ctypes.c_void_p),
            order.ctypes.data_as(ctypes.c_void_p),
            ctypes.c_int64(order.size),
            ctypes.c_int64(spins.shape[0]), ctypes.c_int64(num_blocks),
            ctypes.c_int64(size),
            linear.ctypes.data_as(ctypes.c_void_p),
            *_cluster_ctypes_args(clusters),
            temperatures.ctypes.data_as(ctypes.c_void_p),
            ctypes.c_int64(temperatures.size),
            keys_array.ctypes.data_as(ctypes.c_void_p),
            ctypes.c_int64(threads))
        return
    raise AnnealerError(
        f"no counter pack dense+cluster kernel for backend {backend!r}")


def counter_pack_fused_colour_cluster_sweep(
        backend: str, spins: np.ndarray, linear: np.ndarray,
        members: np.ndarray, class_starts: np.ndarray, class_data: np.ndarray,
        indices: np.ndarray, indptr: np.ndarray,
        clusters: ClusterDescriptor, temperatures: np.ndarray, keys,
        threads: int = 1) -> None:
    """Counter-mode fused colour+cluster sweeps over a pack.

    The counter sibling of :func:`pack_fused_colour_cluster_sweep` — the
    embedded serving shape under the counter contract, one Philox key per
    block and (block, replica)-parallel in the cext variant.
    """
    threads = max(1, int(threads))
    num_blocks = len(keys)
    size = spins.shape[1] // num_blocks
    if backend == "numpy":
        replicas = np.arange(spins.shape[0], dtype=np.uint32)
        for b, key in enumerate(keys):
            segment = slice(b * size, (b + 1) * size)
            bspins = spins[:, segment]
            blinear = linear[segment]
            class_operators = _counter_class_operators(
                class_starts, class_data[b], indices, indptr, size)
            cluster_operators = _counter_cluster_operators(
                clusters, clusters.data[b], size)
            for t in range(len(temperatures)):
                _counter_colour_pass_numpy(bspins, blinear, members,
                                           class_operators, temperatures[t],
                                           t, replicas, key)
                _counter_cluster_pass_numpy(
                    bspins, blinear, clusters, clusters.data[b],
                    clusters.edge_values[b], cluster_operators,
                    temperatures[t], t, replicas, key)
        return
    if backend == "numba":
        kernels = _ensure_numba_counter_kernels()
        temperatures = np.ascontiguousarray(temperatures, dtype=np.float64)
        for b, key in enumerate(keys):
            segment = slice(b * size, (b + 1) * size)
            _run_numba_threaded(
                threads, kernels["fused_colour"], spins[:, segment],
                linear[segment], members, class_starts, class_data[b],
                indices, indptr, clusters.members, clusters.cluster_starts,
                clusters.data[b], clusters.indices, clusters.indptr,
                clusters.edge_i, clusters.edge_j, clusters.edge_starts,
                clusters.edge_values[b], temperatures, np.uint64(key))
        return
    if backend == "cext":
        lib = _load_cext()
        _note_openmp_team(threads)
        sp, sld = _row_strided(spins)
        temperatures = np.ascontiguousarray(temperatures, dtype=np.float64)
        keys_array = np.ascontiguousarray(keys, dtype=np.uint64)
        lib.counter_pack_fused_colour_cluster_sweep(
            sp, sld, ctypes.c_int64(spins.shape[0]),
            ctypes.c_int64(num_blocks), ctypes.c_int64(size),
            linear.ctypes.data_as(ctypes.c_void_p),
            members.ctypes.data_as(ctypes.c_void_p),
            class_starts.ctypes.data_as(ctypes.c_void_p),
            ctypes.c_int64(class_starts.size - 1),
            class_data.ctypes.data_as(ctypes.c_void_p),
            indices.ctypes.data_as(ctypes.c_void_p),
            indptr.ctypes.data_as(ctypes.c_void_p),
            ctypes.c_int64(class_data.shape[1]),
            *_cluster_ctypes_args(clusters),
            temperatures.ctypes.data_as(ctypes.c_void_p),
            ctypes.c_int64(temperatures.size),
            keys_array.ctypes.data_as(ctypes.c_void_p),
            ctypes.c_int64(threads))
        return
    raise AnnealerError(
        f"no counter pack colour+cluster kernel for backend {backend!r}")


# --------------------------------------------------------------------------- #
# numba backend
# --------------------------------------------------------------------------- #

_NUMBA_KERNELS: Optional[Dict[str, object]] = None


def _ensure_numba_kernels() -> Dict[str, object]:
    """Define (and JIT-register) the numba kernels once per process."""
    global _NUMBA_KERNELS
    if _NUMBA_KERNELS is not None:
        return _NUMBA_KERNELS
    import numba

    # fastmath stays OFF: the kernels must perform the reference loops'
    # arithmetic operation-for-operation (no reassociation, no FMA
    # contraction), or seeded streams would drift from the numpy backend.
    @numba.njit(cache=True)
    def dense_pass(spins, fields, matrix, order, temperature, rng):
        num_replicas = spins.shape[0]
        size = matrix.shape[0]
        for k in range(order.shape[0]):
            v = order[k]
            for r in range(num_replicas):
                current = spins[r, v]
                delta = -2.0 * current * fields[r, v]
                accept = delta <= 0.0
                if not accept:
                    # delta > 0: acceptance probability exp(-delta / T),
                    # one uniform per uphill replica in replica order —
                    # the exact rng.random(count) stream of the
                    # reference loop.
                    accept = rng.random() < np.exp(-delta / temperature)
                if accept:
                    step = -2.0 * current
                    spins[r, v] += step
                    for w in range(size):
                        fields[r, w] += step * matrix[v, w]

    @numba.njit(cache=True)
    def colour_pass(spins, linear, members, class_starts, data, indices,
                    indptr, scratch, temperature, rng):
        num_replicas = spins.shape[0]
        num_classes = class_starts.shape[0] - 1
        for c in range(num_classes):
            begin = class_starts[c]
            width = class_starts[c + 1] - begin
            # Local fields of every (replica, member) of the class are
            # computed before any flip: members of one class never
            # interact, so this matches the reference loop's simultaneous
            # per-class update.
            for r in range(num_replicas):
                for m in range(width):
                    row = begin + m
                    acc = 0.0
                    for jj in range(indptr[row], indptr[row + 1]):
                        acc += data[jj] * spins[r, indices[jj]]
                    scratch[r, m] = acc + linear[members[row]]
            for r in range(num_replicas):
                for m in range(width):
                    v = members[begin + m]
                    delta = -2.0 * spins[r, v] * scratch[r, m]
                    accept = delta <= 0.0
                    if not accept:
                        # Uphill draws in replica-major order — the exact
                        # rng.random(count) stream of the reference loop.
                        accept = (rng.random()
                                  < np.exp(-delta / temperature))
                    if accept:
                        spins[r, v] = -spins[r, v]

    @numba.njit(cache=True)
    def cluster_pass(spins, linear, cmembers, cluster_starts, cdata,
                     cindices, cindptr, edge_i, edge_j, edge_starts,
                     edge_values, temperature, update_fields, fields,
                     matrix, rng):
        num_replicas = spins.shape[0]
        num_clusters = cluster_starts.shape[0] - 1
        for c in range(num_clusters):
            begin = cluster_starts[c]
            end = cluster_starts[c + 1]
            ebegin = edge_starts[c]
            eend = edge_starts[c + 1]
            for r in range(num_replicas):
                # Flip energy: the cluster's coupling to the rest of the
                # system plus its linear fields, accumulated member by
                # member in the reference loop's defined order; internal
                # couplings were double counted through both endpoints'
                # fields and are subtracted edge by edge.
                boundary = 0.0
                for k in range(begin, end):
                    m = cmembers[k]
                    acc = 0.0
                    for jj in range(cindptr[k], cindptr[k + 1]):
                        acc += cdata[jj] * spins[r, cindices[jj]]
                    boundary += spins[r, m] * (acc + linear[m])
                for e in range(ebegin, eend):
                    boundary -= (2.0 * edge_values[e] * spins[r, edge_i[e]]
                                 * spins[r, edge_j[e]])
                delta = -2.0 * boundary
                accept = delta <= 0.0
                if not accept:
                    # One uniform per uphill replica in ascending replica
                    # order — the reference cluster sweep's stream.
                    accept = rng.random() < np.exp(-delta / temperature)
                if accept:
                    if update_fields:
                        # Incremental field maintenance: the accepted flip
                        # adds sum_m (-2 s_m) J[m, :] to this replica's
                        # field row (computed from the pre-flip spins).
                        size = matrix.shape[0]
                        for w in range(size):
                            acc = 0.0
                            for k in range(begin, end):
                                m = cmembers[k]
                                acc += (-2.0 * spins[r, m]) * matrix[m, w]
                            fields[r, w] += acc
                    for k in range(begin, end):
                        spins[r, cmembers[k]] = -spins[r, cmembers[k]]

    @numba.njit(cache=True)
    def fused_dense_kernel(spins, fields, matrix, order, linear, cmembers,
                           cluster_starts, cdata, cindices, cindptr, edge_i,
                           edge_j, edge_starts, edge_values, temperatures,
                           rng):
        for t in range(temperatures.shape[0]):
            dense_pass(spins, fields, matrix, order, temperatures[t], rng)
            cluster_pass(spins, linear, cmembers, cluster_starts, cdata,
                         cindices, cindptr, edge_i, edge_j, edge_starts,
                         edge_values, temperatures[t], True, fields, matrix,
                         rng)

    @numba.njit(cache=True)
    def fused_colour_kernel(spins, linear, members, class_starts, data,
                            indices, indptr, scratch, cmembers,
                            cluster_starts, cdata, cindices, cindptr, edge_i,
                            edge_j, edge_starts, edge_values, temperatures,
                            rng):
        dummy = np.empty((0, 0))
        for t in range(temperatures.shape[0]):
            colour_pass(spins, linear, members, class_starts, data, indices,
                        indptr, scratch, temperatures[t], rng)
            cluster_pass(spins, linear, cmembers, cluster_starts, cdata,
                         cindices, cindptr, edge_i, edge_j, edge_starts,
                         edge_values, temperatures[t], False, dummy, dummy,
                         rng)

    _NUMBA_KERNELS = {
        "fused_dense": fused_dense_kernel,
        "fused_colour": fused_colour_kernel,
    }
    return _NUMBA_KERNELS


_NUMBA_COUNTER_KERNELS: Optional[Dict[str, object]] = None


def _ensure_numba_counter_kernels() -> Dict[str, object]:
    """Define (and JIT-register) the counter-mode numba kernels once.

    Separate from :func:`_ensure_numba_kernels` so sequential-only
    processes never pay this compile cost.  The outer replica loops are
    ``prange``: legal because counter draws are addressed, not consumed,
    so replicas share no state.  fastmath stays OFF for the same
    bit-identity reasons as the sequential kernels.
    """
    global _NUMBA_COUNTER_KERNELS
    if _NUMBA_COUNTER_KERNELS is not None:
        return _NUMBA_COUNTER_KERNELS
    import numba
    from numba import prange

    u64 = np.uint64
    MASK = u64(0xFFFFFFFF)

    @numba.njit(cache=True)
    def philox_uniform(site, sweep, replica, tag, key):
        # Philox4x32-10 at counter (site, sweep, replica, tag) under the
        # 64-bit block key; must match repro.annealer.counter.philox_uniform
        # and the C philox_uniform bit for bit.  All words are kept in
        # uint64 and masked back to 32 bits after every operation.
        c0 = u64(site) & MASK
        c1 = u64(sweep) & MASK
        c2 = u64(replica) & MASK
        c3 = u64(tag) & MASK
        k0 = u64(key) & MASK
        k1 = (u64(key) >> u64(32)) & MASK
        for _ in range(10):
            p0 = (c0 * u64(0xD2511F53)) & u64(0xFFFFFFFFFFFFFFFF)
            p1 = (c2 * u64(0xCD9E8D57)) & u64(0xFFFFFFFFFFFFFFFF)
            hi0 = p0 >> u64(32)
            lo0 = p0 & MASK
            hi1 = p1 >> u64(32)
            lo1 = p1 & MASK
            c0 = (hi1 ^ c1 ^ k0) & MASK
            c1 = lo1
            c2 = (hi0 ^ c3 ^ k1) & MASK
            c3 = lo0
            k0 = (k0 + u64(0x9E3779B9)) & MASK
            k1 = (k1 + u64(0xBB67AE85)) & MASK
        bits = (c0 << u64(32)) | c1
        return np.float64(bits >> u64(11)) * (1.0 / 9007199254740992.0)

    @numba.njit(cache=True)
    def counter_dense_replica(spins, fields, matrix, order, temperature,
                              sweep, r, key):
        size = matrix.shape[0]
        for k in range(order.shape[0]):
            v = order[k]
            current = spins[r, v]
            delta = -2.0 * current * fields[r, v]
            accept = delta <= 0.0
            if not accept:
                u = philox_uniform(k, sweep, r, 0, key)
                accept = u < np.exp(-delta / temperature)
            if accept:
                step = -2.0 * current
                spins[r, v] += step
                for w in range(size):
                    fields[r, w] += step * matrix[v, w]

    @numba.njit(cache=True)
    def counter_colour_replica(spins, linear, members, class_starts, data,
                               indices, indptr, temperature, sweep, r, key):
        num_classes = class_starts.shape[0] - 1
        for c in range(num_classes):
            # Flip-immediately per member: members of one class never
            # interact, so this is bitwise identical to the reference's
            # precompute-then-flip per-class update.
            for row in range(class_starts[c], class_starts[c + 1]):
                v = members[row]
                acc = 0.0
                for jj in range(indptr[row], indptr[row + 1]):
                    acc += data[jj] * spins[r, indices[jj]]
                field = acc + linear[v]
                delta = -2.0 * spins[r, v] * field
                accept = delta <= 0.0
                if not accept:
                    u = philox_uniform(row, sweep, r, 0, key)
                    accept = u < np.exp(-delta / temperature)
                if accept:
                    spins[r, v] = -spins[r, v]

    @numba.njit(cache=True)
    def counter_cluster_replica(spins, linear, cmembers, cluster_starts,
                                cdata, cindices, cindptr, edge_i, edge_j,
                                edge_starts, edge_values, temperature,
                                sweep, r, key, update_fields, fields,
                                matrix):
        num_clusters = cluster_starts.shape[0] - 1
        for c in range(num_clusters):
            begin = cluster_starts[c]
            end = cluster_starts[c + 1]
            boundary = 0.0
            for k in range(begin, end):
                m = cmembers[k]
                acc = 0.0
                for jj in range(cindptr[k], cindptr[k + 1]):
                    acc += cdata[jj] * spins[r, cindices[jj]]
                boundary += spins[r, m] * (acc + linear[m])
            for e in range(edge_starts[c], edge_starts[c + 1]):
                boundary -= (2.0 * edge_values[e] * spins[r, edge_i[e]]
                             * spins[r, edge_j[e]])
            delta = -2.0 * boundary
            accept = delta <= 0.0
            if not accept:
                u = philox_uniform(c, sweep, r, 1, key)
                accept = u < np.exp(-delta / temperature)
            if accept:
                if update_fields:
                    size = matrix.shape[0]
                    for w in range(size):
                        acc = 0.0
                        for k in range(begin, end):
                            m = cmembers[k]
                            acc += (-2.0 * spins[r, m]) * matrix[m, w]
                        fields[r, w] += acc
                for k in range(begin, end):
                    spins[r, cmembers[k]] = -spins[r, cmembers[k]]

    @numba.njit(cache=True, parallel=True)
    def counter_fused_dense_kernel(spins, fields, matrix, order, linear,
                                   cmembers, cluster_starts, cdata, cindices,
                                   cindptr, edge_i, edge_j, edge_starts,
                                   edge_values, temperatures, key):
        for r in prange(spins.shape[0]):
            for t in range(temperatures.shape[0]):
                counter_dense_replica(spins, fields, matrix, order,
                                      temperatures[t], t, r, key)
                counter_cluster_replica(spins, linear, cmembers,
                                        cluster_starts, cdata, cindices,
                                        cindptr, edge_i, edge_j, edge_starts,
                                        edge_values, temperatures[t], t, r,
                                        key, True, fields, matrix)

    @numba.njit(cache=True, parallel=True)
    def counter_fused_colour_kernel(spins, linear, members, class_starts,
                                    data, indices, indptr, cmembers,
                                    cluster_starts, cdata, cindices, cindptr,
                                    edge_i, edge_j, edge_starts, edge_values,
                                    temperatures, key):
        dummy = np.empty((0, 0))
        for r in prange(spins.shape[0]):
            for t in range(temperatures.shape[0]):
                counter_colour_replica(spins, linear, members, class_starts,
                                       data, indices, indptr,
                                       temperatures[t], t, r, key)
                counter_cluster_replica(spins, linear, cmembers,
                                        cluster_starts, cdata, cindices,
                                        cindptr, edge_i, edge_j, edge_starts,
                                        edge_values, temperatures[t], t, r,
                                        key, False, dummy, dummy)

    _NUMBA_COUNTER_KERNELS = {
        "fused_dense": counter_fused_dense_kernel,
        "fused_colour": counter_fused_colour_kernel,
    }
    return _NUMBA_COUNTER_KERNELS


# --------------------------------------------------------------------------- #
# cext backend: C source, on-disk compile cache, ctypes bindings
# --------------------------------------------------------------------------- #

_C_SOURCE = r"""
#include <math.h>
#include <stdint.h>
#include <stddef.h>

/* All kernels draw uniforms through the NumPy BitGenerator's next_double
   function pointer, advancing the caller's Generator state in place — the
   same extension point numba and Cython use, so the draw stream is exactly
   the Generator's rng.random() stream. */
typedef double (*next_double_fn)(void *state);

/* One temperature of the sequential dense sweep.  spins/fields are
   (num_replicas x size) row-strided views (ld = row stride in doubles);
   matrix is the dense size x size block coupling, row-major contiguous. */
static void dense_pass(double *spins, int64_t sld,
                       double *fields, int64_t fld,
                       const double *matrix,
                       const int64_t *order, int64_t order_len,
                       double temperature,
                       int64_t num_replicas, int64_t size,
                       next_double_fn next_double, void *state)
{
    for (int64_t k = 0; k < order_len; ++k) {
        const int64_t v = order[k];
        const double *row = matrix + v * size;
        for (int64_t r = 0; r < num_replicas; ++r) {
            double *srow = spins + r * sld;
            double *frow = fields + r * fld;
            const double current = srow[v];
            const double delta = -2.0 * current * frow[v];
            int accept = (delta <= 0.0);
            if (!accept) {
                /* delta > 0: acceptance probability exp(-delta / T);
                   one uniform per uphill replica in replica order. */
                const double u = next_double(state);
                accept = (u < exp(-delta / temperature));
            }
            if (accept) {
                const double step = -2.0 * current;
                srow[v] += step;
                for (int64_t w = 0; w < size; ++w)
                    frow[w] += step * row[w];
            }
        }
    }
}

/* One temperature of the colour-class sweep.  members/class_starts hold
   the ragged classes; data/indices/indptr are the CSR arrays of the stacked
   per-class local-field operators (row k -> field of members[k]); scratch
   has room for num_replicas * max_class_width doubles. */
static void colour_pass(double *spins, int64_t sld, int64_t num_replicas,
                        const double *linear,
                        const int64_t *members, const int64_t *class_starts,
                        int64_t num_classes,
                        const double *data, const int64_t *indices,
                        const int64_t *indptr,
                        double *scratch,
                        double temperature,
                        next_double_fn next_double, void *state)
{
    for (int64_t c = 0; c < num_classes; ++c) {
        const int64_t begin = class_starts[c];
        const int64_t width = class_starts[c + 1] - begin;
        /* Fields of all (replica, member) pairs are computed before any
           flip: class members never interact, so this matches the
           reference loop's simultaneous per-class update. */
        for (int64_t r = 0; r < num_replicas; ++r) {
            const double *srow = spins + r * sld;
            double *frow = scratch + r * width;
            for (int64_t m = 0; m < width; ++m) {
                const int64_t rowidx = begin + m;
                double acc = 0.0;
                for (int64_t jj = indptr[rowidx]; jj < indptr[rowidx + 1];
                     ++jj)
                    acc += data[jj] * srow[indices[jj]];
                frow[m] = acc + linear[members[rowidx]];
            }
        }
        for (int64_t r = 0; r < num_replicas; ++r) {
            double *srow = spins + r * sld;
            const double *frow = scratch + r * width;
            for (int64_t m = 0; m < width; ++m) {
                const int64_t v = members[begin + m];
                const double delta = -2.0 * srow[v] * frow[m];
                int accept = (delta <= 0.0);
                if (!accept) {
                    /* Uphill draws in replica-major order. */
                    const double u = next_double(state);
                    accept = (u < exp(-delta / temperature));
                }
                if (accept)
                    srow[v] = -srow[v];
            }
        }
    }
}

/* One temperature of the cluster-flip sweep over one block's flattened
   cluster descriptor.  cmembers/cluster_starts hold the ragged clusters;
   cdata/cindices/cindptr are the CSR arrays of the stacked member
   local-field rows (row k -> coupling field of cmembers[k]); the edge
   arrays list each cluster's internal couplings, whose field contributions
   are double counted through both endpoints and subtracted edge by edge.
   When fields != NULL, accepted flips add sum_m (-2 s_m) J[m, :] to the
   replica's (row-strided) local-field row — the incremental maintenance of
   the fused dense kernel. */
static void cluster_pass(double *spins, int64_t sld, int64_t num_replicas,
                         const double *linear,
                         const int64_t *cmembers,
                         const int64_t *cluster_starts, int64_t num_clusters,
                         const double *cdata, const int64_t *cindices,
                         const int64_t *cindptr,
                         const int64_t *edge_i, const int64_t *edge_j,
                         const int64_t *edge_starts,
                         const double *edge_values,
                         double temperature,
                         double *fields, int64_t fld,
                         const double *matrix, int64_t size,
                         next_double_fn next_double, void *state)
{
    for (int64_t c = 0; c < num_clusters; ++c) {
        const int64_t begin = cluster_starts[c];
        const int64_t end = cluster_starts[c + 1];
        const int64_t ebegin = edge_starts[c];
        const int64_t eend = edge_starts[c + 1];
        for (int64_t r = 0; r < num_replicas; ++r) {
            double *srow = spins + r * sld;
            /* Member sum in the reference loop's defined ascending order. */
            double boundary = 0.0;
            for (int64_t k = begin; k < end; ++k) {
                const int64_t m = cmembers[k];
                double acc = 0.0;
                for (int64_t jj = cindptr[k]; jj < cindptr[k + 1]; ++jj)
                    acc += cdata[jj] * srow[cindices[jj]];
                boundary += srow[m] * (acc + linear[m]);
            }
            for (int64_t e = ebegin; e < eend; ++e)
                boundary -= 2.0 * edge_values[e] * srow[edge_i[e]]
                            * srow[edge_j[e]];
            const double delta = -2.0 * boundary;
            int accept = (delta <= 0.0);
            if (!accept) {
                /* One uniform per uphill replica in ascending replica
                   order — the reference cluster sweep's stream. */
                const double u = next_double(state);
                accept = (u < exp(-delta / temperature));
            }
            if (!accept)
                continue;
            if (fields != NULL) {
                double *frow = fields + r * fld;
                for (int64_t w = 0; w < size; ++w) {
                    double acc = 0.0;
                    for (int64_t k = begin; k < end; ++k) {
                        const int64_t m = cmembers[k];
                        acc += (-2.0 * srow[m]) * matrix[m * size + w];
                    }
                    frow[w] += acc;
                }
            }
            for (int64_t k = begin; k < end; ++k)
                srow[cmembers[k]] = -srow[cmembers[k]];
        }
    }
}

/* Pack kernels: one call per pack per anneal, for every problem shape — a
   single problem is a pack of one block and a problem without chains a
   pack with zero clusters.  Per temperature the single-spin sweep runs
   first, then the cluster sweep: the exact per-block draw order of the
   reference loops.  All blocks share one CSR structure (the
   BlockDiagonalSampler invariant), so per-block values travel as stacked
   block-major matrices (row b = block b's data) and per-block randomness
   as arrays of BitGenerator (next_double, state) pairs.  Blocks never
   interact and each draws from its own generator, so evolving them one
   after the other through the whole schedule reproduces every block's
   serial stream while amortising the call marshalling over the pack. */
void pack_fused_colour_cluster_sweep(
    double *spins, int64_t sld, int64_t num_replicas,
    int64_t num_blocks, int64_t size,
    const double *linear,
    const int64_t *members, const int64_t *class_starts,
    int64_t num_classes,
    const double *data, const int64_t *indices, const int64_t *indptr,
    int64_t class_nnz,
    double *scratch,
    const int64_t *cmembers, const int64_t *cluster_starts,
    int64_t num_clusters,
    const double *cdata, const int64_t *cindices, const int64_t *cindptr,
    int64_t cluster_nnz,
    const int64_t *edge_i, const int64_t *edge_j,
    const int64_t *edge_starts, const double *edge_values,
    int64_t num_edges,
    const double *temperatures, int64_t num_sweeps,
    next_double_fn *next_doubles, void **states)
{
    for (int64_t b = 0; b < num_blocks; ++b) {
        double *bspins = spins + b * size;
        const double *blinear = linear + b * size;
        const double *bdata = data + b * class_nnz;
        const double *bcdata = cdata + b * cluster_nnz;
        const double *bedges = edge_values + b * num_edges;
        for (int64_t t = 0; t < num_sweeps; ++t) {
            colour_pass(bspins, sld, num_replicas, blinear, members,
                        class_starts, num_classes, bdata, indices, indptr,
                        scratch, temperatures[t], next_doubles[b],
                        states[b]);
            cluster_pass(bspins, sld, num_replicas, blinear, cmembers,
                         cluster_starts, num_clusters, bcdata, cindices,
                         cindptr, edge_i, edge_j, edge_starts, bedges,
                         temperatures[t], NULL, 0, NULL, 0,
                         next_doubles[b], states[b]);
        }
    }
}

void pack_fused_dense_cluster_sweep(
    double *spins, int64_t sld,
    double *fields, int64_t fld,
    const double *matrices,
    const int64_t *order, int64_t order_len,
    int64_t num_replicas, int64_t num_blocks, int64_t size,
    const double *linear,
    const int64_t *cmembers, const int64_t *cluster_starts,
    int64_t num_clusters,
    const double *cdata, const int64_t *cindices, const int64_t *cindptr,
    int64_t cluster_nnz,
    const int64_t *edge_i, const int64_t *edge_j,
    const int64_t *edge_starts, const double *edge_values,
    int64_t num_edges,
    const double *temperatures, int64_t num_sweeps,
    next_double_fn *next_doubles, void **states)
{
    for (int64_t b = 0; b < num_blocks; ++b) {
        double *bspins = spins + b * size;
        double *bfields = fields + b * size;
        const double *bmatrix = matrices + b * size * size;
        const double *blinear = linear + b * size;
        const double *bcdata = cdata + b * cluster_nnz;
        const double *bedges = edge_values + b * num_edges;
        for (int64_t t = 0; t < num_sweeps; ++t) {
            dense_pass(bspins, sld, bfields, fld, bmatrix, order, order_len,
                       temperatures[t], num_replicas, size, next_doubles[b],
                       states[b]);
            cluster_pass(bspins, sld, num_replicas, blinear, cmembers,
                         cluster_starts, num_clusters, bcdata, cindices,
                         cindptr, edge_i, edge_j, edge_starts, bedges,
                         temperatures[t], bfields, fld, bmatrix, size,
                         next_doubles[b], states[b]);
        }
    }
}

/* ------------------------------------------------------------------------ *
 * Counter-mode (rng="counter") kernels.
 *
 * Uniforms come from Philox4x32-10 addressed by (site, sweep, replica,
 * move_tag) under a per-block 64-bit key — see repro/annealer/counter.py
 * for the contract — instead of the shared next_double stream.  Replicas
 * therefore share no RNG state and the outer replica loops are OpenMP
 * `parallel for`.  The pragmas are no-ops without -fopenmp (the compile
 * step tries it and falls back), so one source serves both builds and the
 * serial build stays bit-identical to the threaded one by construction.
 * ------------------------------------------------------------------------ */

static inline double philox_uniform(uint32_t site, uint32_t sweep,
                                    uint32_t replica, uint32_t tag,
                                    uint32_t k0, uint32_t k1)
{
    uint32_t c0 = site, c1 = sweep, c2 = replica, c3 = tag;
    for (int round = 0; round < 10; ++round) {
        const uint64_t p0 = (uint64_t)0xD2511F53u * c0;
        const uint64_t p1 = (uint64_t)0xCD9E8D57u * c2;
        const uint32_t hi0 = (uint32_t)(p0 >> 32);
        const uint32_t lo0 = (uint32_t)p0;
        const uint32_t hi1 = (uint32_t)(p1 >> 32);
        const uint32_t lo1 = (uint32_t)p1;
        c0 = hi1 ^ c1 ^ k0;
        c1 = lo1;
        c2 = hi0 ^ c3 ^ k1;
        c3 = lo0;
        k0 += 0x9E3779B9u;
        k1 += 0xBB67AE85u;
    }
    const uint64_t bits = ((uint64_t)c0 << 32) | c1;
    return (double)(bits >> 11) * (1.0 / 9007199254740992.0);
}

/* Whole-schedule single-replica passes: each thread owns replica rows
   outright, so the per-replica loops run the full (sweep, site) schedule
   with no synchronisation. */
static void counter_dense_replica(double *srow, double *frow,
                                  const double *matrix,
                                  const int64_t *order, int64_t order_len,
                                  int64_t size, double temperature,
                                  uint32_t sweep, uint32_t replica,
                                  uint32_t k0, uint32_t k1)
{
    for (int64_t k = 0; k < order_len; ++k) {
        const int64_t v = order[k];
        const double current = srow[v];
        const double delta = -2.0 * current * frow[v];
        int accept = (delta <= 0.0);
        if (!accept) {
            const double u = philox_uniform((uint32_t)k, sweep, replica,
                                            0u, k0, k1);
            accept = (u < exp(-delta / temperature));
        }
        if (accept) {
            const double step = -2.0 * current;
            const double *row = matrix + v * size;
            srow[v] += step;
            for (int64_t w = 0; w < size; ++w)
                frow[w] += step * row[w];
        }
    }
}

static void counter_colour_replica(double *srow, const double *linear,
                                   const int64_t *members,
                                   const int64_t *class_starts,
                                   int64_t num_classes,
                                   const double *data,
                                   const int64_t *indices,
                                   const int64_t *indptr,
                                   double temperature,
                                   uint32_t sweep, uint32_t replica,
                                   uint32_t k0, uint32_t k1)
{
    for (int64_t c = 0; c < num_classes; ++c) {
        /* Flip-immediately per member: class members never interact, so
           this equals the precompute-then-flip reference bit for bit. */
        for (int64_t rowidx = class_starts[c]; rowidx < class_starts[c + 1];
             ++rowidx) {
            const int64_t v = members[rowidx];
            double acc = 0.0;
            for (int64_t jj = indptr[rowidx]; jj < indptr[rowidx + 1]; ++jj)
                acc += data[jj] * srow[indices[jj]];
            const double field = acc + linear[v];
            const double delta = -2.0 * srow[v] * field;
            int accept = (delta <= 0.0);
            if (!accept) {
                const double u = philox_uniform((uint32_t)rowidx, sweep,
                                                replica, 0u, k0, k1);
                accept = (u < exp(-delta / temperature));
            }
            if (accept)
                srow[v] = -srow[v];
        }
    }
}

static void counter_cluster_replica(double *srow, const double *linear,
                                    const int64_t *cmembers,
                                    const int64_t *cluster_starts,
                                    int64_t num_clusters,
                                    const double *cdata,
                                    const int64_t *cindices,
                                    const int64_t *cindptr,
                                    const int64_t *edge_i,
                                    const int64_t *edge_j,
                                    const int64_t *edge_starts,
                                    const double *edge_values,
                                    double temperature,
                                    double *frow, const double *matrix,
                                    int64_t size,
                                    uint32_t sweep, uint32_t replica,
                                    uint32_t k0, uint32_t k1)
{
    for (int64_t c = 0; c < num_clusters; ++c) {
        const int64_t begin = cluster_starts[c];
        const int64_t end = cluster_starts[c + 1];
        double boundary = 0.0;
        for (int64_t k = begin; k < end; ++k) {
            const int64_t m = cmembers[k];
            double acc = 0.0;
            for (int64_t jj = cindptr[k]; jj < cindptr[k + 1]; ++jj)
                acc += cdata[jj] * srow[cindices[jj]];
            boundary += srow[m] * (acc + linear[m]);
        }
        for (int64_t e = edge_starts[c]; e < edge_starts[c + 1]; ++e)
            boundary -= 2.0 * edge_values[e] * srow[edge_i[e]]
                        * srow[edge_j[e]];
        const double delta = -2.0 * boundary;
        int accept = (delta <= 0.0);
        if (!accept) {
            const double u = philox_uniform((uint32_t)c, sweep, replica,
                                            1u, k0, k1);
            accept = (u < exp(-delta / temperature));
        }
        if (!accept)
            continue;
        if (frow != NULL) {
            for (int64_t w = 0; w < size; ++w) {
                double acc = 0.0;
                for (int64_t k = begin; k < end; ++k) {
                    const int64_t m = cmembers[k];
                    acc += (-2.0 * srow[m]) * matrix[m * size + w];
                }
                frow[w] += acc;
            }
        }
        for (int64_t k = begin; k < end; ++k)
            srow[cmembers[k]] = -srow[cmembers[k]];
    }
}

/* Counter-mode pack kernels: blocks and replicas are all independent, so
   the parallel loop collapses over (block, replica) pairs — the pack's
   full parallelism budget in one region. */
void counter_pack_fused_dense_cluster_sweep(
    double *spins, int64_t sld,
    double *fields, int64_t fld,
    const double *matrices,
    const int64_t *order, int64_t order_len,
    int64_t num_replicas, int64_t num_blocks, int64_t size,
    const double *linear,
    const int64_t *cmembers, const int64_t *cluster_starts,
    int64_t num_clusters,
    const double *cdata, const int64_t *cindices, const int64_t *cindptr,
    int64_t cluster_nnz,
    const int64_t *edge_i, const int64_t *edge_j,
    const int64_t *edge_starts, const double *edge_values,
    int64_t num_edges,
    const double *temperatures, int64_t num_sweeps,
    const uint64_t *keys, int64_t threads)
{
#ifdef _OPENMP
#pragma omp parallel for collapse(2) schedule(static) \
    num_threads((int)threads)
#endif
    for (int64_t b = 0; b < num_blocks; ++b) {
        for (int64_t r = 0; r < num_replicas; ++r) {
            double *srow = spins + b * size + r * sld;
            double *frow = fields + b * size + r * fld;
            const double *bmatrix = matrices + b * size * size;
            const double *blinear = linear + b * size;
            const double *bcdata = cdata + b * cluster_nnz;
            const double *bedges = edge_values + b * num_edges;
            const uint32_t k0 = (uint32_t)keys[b];
            const uint32_t k1 = (uint32_t)(keys[b] >> 32);
            for (int64_t t = 0; t < num_sweeps; ++t) {
                counter_dense_replica(srow, frow, bmatrix, order, order_len,
                                      size, temperatures[t], (uint32_t)t,
                                      (uint32_t)r, k0, k1);
                counter_cluster_replica(srow, blinear, cmembers,
                                        cluster_starts, num_clusters,
                                        bcdata, cindices, cindptr, edge_i,
                                        edge_j, edge_starts, bedges,
                                        temperatures[t], frow, bmatrix,
                                        size, (uint32_t)t, (uint32_t)r,
                                        k0, k1);
            }
        }
    }
}

void counter_pack_fused_colour_cluster_sweep(
    double *spins, int64_t sld, int64_t num_replicas,
    int64_t num_blocks, int64_t size,
    const double *linear,
    const int64_t *members, const int64_t *class_starts,
    int64_t num_classes,
    const double *data, const int64_t *indices, const int64_t *indptr,
    int64_t class_nnz,
    const int64_t *cmembers, const int64_t *cluster_starts,
    int64_t num_clusters,
    const double *cdata, const int64_t *cindices, const int64_t *cindptr,
    int64_t cluster_nnz,
    const int64_t *edge_i, const int64_t *edge_j,
    const int64_t *edge_starts, const double *edge_values,
    int64_t num_edges,
    const double *temperatures, int64_t num_sweeps,
    const uint64_t *keys, int64_t threads)
{
#ifdef _OPENMP
#pragma omp parallel for collapse(2) schedule(static) \
    num_threads((int)threads)
#endif
    for (int64_t b = 0; b < num_blocks; ++b) {
        for (int64_t r = 0; r < num_replicas; ++r) {
            double *srow = spins + b * size + r * sld;
            const double *blinear = linear + b * size;
            const double *bdata = data + b * class_nnz;
            const double *bcdata = cdata + b * cluster_nnz;
            const double *bedges = edge_values + b * num_edges;
            const uint32_t k0 = (uint32_t)keys[b];
            const uint32_t k1 = (uint32_t)(keys[b] >> 32);
            for (int64_t t = 0; t < num_sweeps; ++t) {
                counter_colour_replica(srow, blinear, members, class_starts,
                                       num_classes, bdata, indices, indptr,
                                       temperatures[t], (uint32_t)t,
                                       (uint32_t)r, k0, k1);
                counter_cluster_replica(srow, blinear, cmembers,
                                        cluster_starts, num_clusters,
                                        bcdata, cindices, cindptr, edge_i,
                                        edge_j, edge_starts, bedges,
                                        temperatures[t], NULL, NULL, 0,
                                        (uint32_t)t, (uint32_t)r, k0, k1);
            }
        }
    }
}

int64_t counter_openmp_enabled(void)
{
#ifdef _OPENMP
    return 1;
#else
    return 0;
#endif
}
"""

#: Compiler candidates tried in order for the cext backend.
_COMPILERS = ("cc", "gcc", "clang")


def _cache_dir() -> Path:
    base = os.environ.get("XDG_CACHE_HOME")
    root = Path(base) if base else Path.home() / ".cache"
    return root / "repro_backends"


def _compile_cext() -> Optional[Path]:
    """Compile the C kernels into a cached shared object; None on failure.

    Concurrent-compile discipline (process-pool workers all warming a cold
    cache at once): every process compiles into its *own* temporary
    directory inside the cache and publishes with one atomic
    :func:`os.replace`, so racing processes each install a byte-equivalent
    artifact — last writer wins and every ``dlopen`` sees a complete file,
    never a half-written one.  When this process's own attempt fails (cache
    directory not writable, compiler racing on resource limits, no compiler
    at all) but a concurrent process has published the target in the
    meantime, that artifact is used instead of reporting failure.
    """
    digest = hashlib.sha256(_C_SOURCE.encode()).hexdigest()[:16]
    cache = _cache_dir()
    target = cache / f"metropolis_{digest}.so"
    if target.exists():
        return target
    try:
        cache.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=cache) as workdir:
            source = Path(workdir) / "metropolis.c"
            source.write_text(_C_SOURCE, encoding="utf-8")
            built = Path(workdir) / "metropolis.so"
            compiled = False
            for compiler in _COMPILERS:
                # -fopenmp first (the counter kernels' replica parallelism),
                # plain second: the OpenMP pragmas are no-ops without it, so
                # the fallback build is serial but bit-identical.
                for extra in (["-fopenmp"], []):
                    try:
                        # -ffp-contract=off: no FMA contraction, so the
                        # kernel arithmetic matches the numpy loops op for
                        # op.
                        subprocess.run(
                            [compiler, "-O2", "-fPIC", "-shared",
                             "-ffp-contract=off", *extra,
                             "-o", str(built), str(source), "-lm"],
                            check=True, capture_output=True, timeout=120)
                        compiled = True
                        break
                    except (OSError, subprocess.SubprocessError):
                        continue
                if compiled:
                    break
            if not compiled:
                # No compiler worked here — but tolerate a concurrent
                # process having published the artifact while we tried.
                return target if target.exists() else None
            # Atomic publish so concurrent processes race benignly.
            os.replace(built, target)
    except OSError:
        return target if target.exists() else None
    return target


def _load_cext() -> Optional[ctypes.CDLL]:
    """Compile/load the C backend once per process; None when unavailable."""
    if _CEXT_STATE["checked"]:
        return _CEXT_STATE["lib"]
    _CEXT_STATE["checked"] = True
    path = _compile_cext()
    if path is None:
        return None
    try:
        lib = ctypes.CDLL(str(path))
        # Flattened cluster-descriptor tail shared by every kernel (the
        # order of _cluster_ctypes_args); the sequential kernels take
        # per-block rng pointer arrays.
        cluster_args = [
            ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64,   # clusters
            ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,  # CSR
            ctypes.c_int64,                    # cluster_nnz
            ctypes.c_void_p, ctypes.c_void_p,  # edge_i, edge_j
            ctypes.c_void_p, ctypes.c_void_p,  # edge_starts, edge_values
            ctypes.c_int64,                    # num_edges
        ]
        rng_arrays = [ctypes.POINTER(ctypes.c_void_p),
                      ctypes.POINTER(ctypes.c_void_p)]
        lib.pack_fused_colour_cluster_sweep.restype = None
        lib.pack_fused_colour_cluster_sweep.argtypes = [
            ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64,  # spins, ld, R
            ctypes.c_int64, ctypes.c_int64,    # num_blocks, size
            ctypes.c_void_p,                   # linear
            ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64,  # classes
            ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,  # CSR
            ctypes.c_int64,                    # class_nnz
            ctypes.c_void_p,                   # scratch
            *cluster_args,
            ctypes.c_void_p, ctypes.c_int64,   # temperatures, num_sweeps
            *rng_arrays,                       # next_doubles, states
        ]
        lib.pack_fused_dense_cluster_sweep.restype = None
        lib.pack_fused_dense_cluster_sweep.argtypes = [
            ctypes.c_void_p, ctypes.c_int64,   # spins, row stride
            ctypes.c_void_p, ctypes.c_int64,   # fields, row stride
            ctypes.c_void_p,                   # matrices
            ctypes.c_void_p, ctypes.c_int64,   # order, order_len
            ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,  # R, blocks, P
            ctypes.c_void_p,                   # linear
            *cluster_args,
            ctypes.c_void_p, ctypes.c_int64,   # temperatures, num_sweeps
            *rng_arrays,                       # next_doubles, states
        ]
        # Counter-mode variants: per-block Philox keys and a thread count
        # instead of the Generator pointers.
        lib.counter_pack_fused_dense_cluster_sweep.restype = None
        lib.counter_pack_fused_dense_cluster_sweep.argtypes = [
            ctypes.c_void_p, ctypes.c_int64,   # spins, row stride
            ctypes.c_void_p, ctypes.c_int64,   # fields, row stride
            ctypes.c_void_p,                   # matrices
            ctypes.c_void_p, ctypes.c_int64,   # order, order_len
            ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,  # R, blocks, P
            ctypes.c_void_p,                   # linear
            *cluster_args,
            ctypes.c_void_p, ctypes.c_int64,   # temperatures, num_sweeps
            ctypes.c_void_p, ctypes.c_int64,   # keys, threads
        ]
        lib.counter_pack_fused_colour_cluster_sweep.restype = None
        lib.counter_pack_fused_colour_cluster_sweep.argtypes = [
            ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64,  # spins, ld, R
            ctypes.c_int64, ctypes.c_int64,    # num_blocks, size
            ctypes.c_void_p,                   # linear
            ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64,  # classes
            ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,  # CSR
            ctypes.c_int64,                    # class_nnz
            *cluster_args,
            ctypes.c_void_p, ctypes.c_int64,   # temperatures, num_sweeps
            ctypes.c_void_p, ctypes.c_int64,   # keys, threads
        ]
        lib.counter_openmp_enabled.restype = ctypes.c_int64
        lib.counter_openmp_enabled.argtypes = []
    except OSError:
        return None
    _CEXT_STATE["lib"] = lib
    return lib


def _row_strided(array: np.ndarray) -> Tuple[ctypes.c_void_p, ctypes.c_int64]:
    """(base pointer, row stride in doubles) of a row-strided float64 view."""
    if array.dtype != np.float64 or array.ndim != 2:
        raise AnnealerError("compiled kernels need 2-D float64 arrays")
    if array.strides[1] != array.itemsize:
        raise AnnealerError(
            "compiled kernels need unit column stride (row-strided views of "
            "a C-contiguous matrix)")
    return (ctypes.c_void_p(array.ctypes.data),
            ctypes.c_int64(array.strides[0] // array.itemsize))


def _rng_pointers(rng: np.random.Generator
                  ) -> Tuple[ctypes.c_void_p, ctypes.c_void_p]:
    """(next_double function pointer, state pointer) of a Generator."""
    interface = rng.bit_generator.ctypes
    fn = ctypes.cast(interface.next_double, ctypes.c_void_p)
    return fn, ctypes.c_void_p(interface.state_address)
