"""Vectorised stochastic sampling engine for the annealer simulator.

This module is the *single* Metropolis core of the repository: the annealer
simulator, the classical :class:`~repro.ising.solver.SimulatedAnnealingSolver`
baseline and the batched OFDM decode path all sample through it.

One "anneal" of the simulated machine is one Metropolis trajectory over the
embedded Ising problem, following the temperature profile produced by the
:class:`~repro.annealer.schedule.AnnealSchedule`.  To make a whole QA run
(hundreds to thousands of anneals) affordable in pure NumPy, all anneals of a
batch are evolved simultaneously as replica rows of a spin matrix, and
variables are updated one graph-colour class at a time: within a colour class
no two variables interact, so the simultaneous vectorised flips are exact
single-spin-flip Metropolis dynamics.  Per-class coupling operators are kept
sparse because hardware-embedded problems have qubit degree at most six.

:class:`BlockDiagonalSampler` evolves ``num_blocks`` structurally identical
problems laid out as one block-diagonal problem, and :class:`IsingSampler` is
its one-block special case.  The sampler carries *two* sweep kernels sharing
one Metropolis draw discipline:

* the **colour-class kernel** updates one independent set at a time through
  sparse per-class operators — the right shape for hardware-embedded
  problems, whose bounded qubit degree keeps the class count small;
* the **dense sequential-sweep kernel** updates spins one at a time in a
  fixed order, maintaining the replica-by-variable local-field matrix
  incrementally from a dense per-block coupling matrix — the right shape for
  dense *logical* problems (the QuAMax ML reduction couples every variable
  pair), where greedy colouring degenerates to one variable per class and
  the colour kernel decays into a Python loop of singleton sparse matvecs.

Kernel choice is automatic: ``kernel="auto"`` picks the dense kernel when
the problem is dense (over :data:`DENSE_DISPATCH_MIN_DENSITY` of all pairs
coupled) *and* the colouring degenerates toward singletons (the class count
reaches :data:`DENSE_DISPATCH_RATIO` of the variable count), and can be
forced with ``kernel="dense"`` / ``kernel="colour"``.  On a *fully* degenerate
(complete-graph) problem the two kernels perform the same sequential
dynamics and consume identical per-variable Metropolis draws, so they are
bit-for-bit interchangeable; on partially degenerate problems the dense
kernel is a different — but equally exact — single-spin-flip update order,
which is why the golden-digest suite freezes seeded outputs per kernel.
Two levels of reuse amortise setup cost across repeated runs:

* :meth:`BlockDiagonalSampler.refresh_values` rebinds a sampler to new
  problems with the *same* coupling structure (e.g. successive ICE
  perturbations of one embedded problem) by rewriting the CSR ``.data``
  arrays in place instead of re-deriving colour classes and re-slicing
  operators;
* a multi-block sampler packs several structurally identical problems (e.g.
  the subcarriers of an OFDM symbol, Section 5.5 of the paper) into one
  anneal that shares every sparse operation, while drawing each block's
  randomness from its own generator so the trajectories are bit-for-bit
  those of independent per-problem anneals.

Orthogonally to the *kernel* choice, the ``backend=`` knob selects the
*implementation* of the chosen kernel's inner loop: ``"numpy"`` runs the
reference loops in this module, while ``"numba"`` / ``"cext"`` run compiled
translations from :mod:`repro.annealer.backends` that consume the exact same
per-variable Metropolis draw stream (``"auto"``, the default, picks the best
available and falls back to numpy).  Because each block draws from its own
generator and blocks never interact, a compiled pack kernel evolves the
blocks one after the other through the whole schedule without changing any
block's stream.  A single problem is a pack of one block and a problem
without chains is a pack with zero clusters, so every compiled anneal is
exactly one pack-kernel dispatch; cluster (chain-flip) moves run fused with
the single-spin sweep, driven by a flattened cluster descriptor
(:meth:`BlockDiagonalSampler._cluster_pack_descriptor`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import networkx as nx
import numpy as np
from scipy import sparse

from repro.annealer import backends, counter
from repro.exceptions import AnnealerError
from repro.ising.model import IsingModel
from repro.obs.profiling import PROFILER
from repro.utils.random import RandomState, ensure_rng
from repro.utils.validation import check_integer_in_range


#: Valid values of the ``kernel=`` knob of the samplers.
KERNELS = ("auto", "dense", "colour")

#: ``kernel="auto"`` dispatches the dense sequential kernel once the
#: colour-class count reaches this fraction of the variable count.  Dense
#: logical problems (the QuAMax ML reduction couples almost every variable
#: pair) land at 0.5-1.0 and go dense; hardware-embedded problems stay at a
#: handful of classes regardless of size and keep the sparse colour kernel.
DENSE_DISPATCH_RATIO = 0.5

#: ...and only when the coupling graph actually is dense: more than this
#: fraction of all variable pairs coupled.  Small sparse problems can hit
#: the class-count ratio by accident (a 4-chain colours into 2 classes); the
#: density guard keeps them on the colour kernel, whose seeded streams they
#: have always consumed.
DENSE_DISPATCH_MIN_DENSITY = 0.5


def colour_classes(ising: IsingModel) -> List[np.ndarray]:
    """Partition variables into independent sets of the coupling graph.

    Uses a greedy graph colouring; Chimera-embedded problems need only a
    handful of colours, while a fully-connected logical problem degenerates to
    one variable per class (still correct, just less parallel).
    """
    graph = nx.Graph()
    graph.add_nodes_from(range(ising.num_variables))
    graph.add_edges_from(ising.couplings.keys())
    colouring = nx.coloring.greedy_color(graph, strategy="largest_first")
    classes: Dict[int, List[int]] = {}
    for node, colour in colouring.items():
        classes.setdefault(colour, []).append(node)
    return [np.array(sorted(nodes), dtype=np.intp)
            for _, nodes in sorted(classes.items())]


def _edge_arrays(keys: Sequence[Tuple[int, int]]) -> Tuple[np.ndarray, np.ndarray]:
    """Symmetrised (rows, cols) index arrays for a list of coupling keys.

    The first half of each array holds the ``(i, j)`` direction of every edge
    and the second half the ``(j, i)`` direction, so a length-``E`` value
    vector tiled twice aligns with the entries.
    """
    if not keys:
        empty = np.empty(0, dtype=np.intp)
        return empty, empty
    indices = np.array(keys, dtype=np.intp)
    rows = np.concatenate([indices[:, 0], indices[:, 1]])
    cols = np.concatenate([indices[:, 1], indices[:, 0]])
    return rows, cols


def sparse_coupling_matrix(ising: IsingModel) -> sparse.csr_matrix:
    """Symmetric sparse coupling matrix (zero diagonal) of an Ising problem.

    Alias of :meth:`repro.ising.model.IsingModel.coupling_operator`, kept as
    the engine-level name the sampler machinery historically exposed.
    """
    return ising.coupling_operator()


def _entry_permutation(rows: np.ndarray, cols: np.ndarray,
                       shape: Tuple[int, int]) -> sparse.csr_matrix:
    """CSR whose ``.data`` maps every data slot to its originating entry index.

    Slicing this matrix the same way as the value matrix yields, for each data
    slot of the slice, the index into the flat entry-value vector.  Kept as
    the reference implementation of the entry maps: `_ensure_entry_maps` now
    derives the same maps with a direct lexsort (no scipy materialisation or
    per-group slicing), and the equivalence test pins the two together.
    """
    order = np.arange(1, rows.size + 1, dtype=np.int64)
    return sparse.coo_matrix((order, (rows, cols)), shape=shape).tocsr()


def _slot_entries(order_slice: sparse.spmatrix) -> np.ndarray:
    """Entry indices of a slice taken from an :func:`_entry_permutation` CSR."""
    return np.asarray(order_slice.tocsr().data, dtype=np.int64) - 1


class BlockDiagonalSampler:
    """Replica-batched Metropolis sampler over one or more identical-structure
    Ising problems.

    The blocks are laid out as a block-diagonal problem: block ``b`` occupies
    variables ``[b*P, (b+1)*P)`` and there are no cross-block couplings, so
    the combined trajectory factorises exactly into the blocks' independent
    trajectories.  Every sparse matvec, energy difference and acceptance mask
    is computed on the combined arrays (amortising the NumPy dispatch
    overhead over all blocks — the Section 5.5 multi-subcarrier
    parallelization), while each block's Metropolis randomness is drawn from
    its *own* generator in exactly the order a one-block sampler with that
    generator would draw it.  Because the per-block draw order (initial
    spins, then per-class uphill draws, then per-cluster draws, per sweep)
    never depends on the other blocks, a multi-block anneal is bit-for-bit
    the per-block serial anneals.

    Parameters
    ----------
    isings:
        The problems, all with the same variable count and coupling key set
        (values are free to differ — that is the point).
    classes:
        Optional precomputed *block-level* colour classes.
    clusters:
        Optional *block-level* groups of variables (e.g. the physical chains
        of an embedded problem), replicated across every block and offered
        collective flip moves in addition to single-spin flips.  Quantum
        annealers reorient logical chains through tunnelling; a purely
        single-spin-flip classical sampler cannot, so cluster moves are what
        keep the simulator's chain dynamics representative.
    kernel:
        Sweep kernel: ``"colour"`` (per-class sparse updates), ``"dense"``
        (sequential single-variable updates over an incrementally maintained
        dense local-field matrix) or ``"auto"`` (default), which selects the
        dense kernel when the coupling graph is dense (>
        :data:`DENSE_DISPATCH_MIN_DENSITY` of all pairs) and the colour
        classes degenerate toward singletons (class count >=
        :data:`DENSE_DISPATCH_RATIO` of the variables).  In
        the fully degenerate case the kernels share one dynamics and one
        Metropolis draw stream; in between they are distinct exact samplers
        and the choice is a (deterministic) performance decision.
    backend:
        Implementation of the selected kernel's inner loop: ``"numpy"`` (the
        reference loops in this module), ``"numba"`` / ``"cext"`` (compiled
        translations consuming the same draw stream, see
        :mod:`repro.annealer.backends`) or ``"auto"`` (default: best
        available compiled backend, falling back to numpy).  Explicitly
        requesting an unavailable compiled backend raises
        :class:`AnnealerError` at construction; compiled backends are warmed
        (JIT/compile cache) here so first-anneal timings stay clean.
    rng:
        Draw discipline: ``"sequential"`` (default) consumes each block's
        generator in the reference loops' order — bit-reproducible, but
        inherently serial per block; ``"counter"`` derives every uniform
        from a Philox counter addressed by ``(site, sweep, replica,
        move_tag)`` under a per-block key drawn once per anneal from the
        block's generator (see :mod:`repro.annealer.counter`) —
        reproducible under its own discipline, identical across backends
        *and* thread counts, and the contract that legalises ``threads``.
    threads:
        Worker threads for the compiled counter kernels (OpenMP in the
        cext, ``prange`` in numba); requires ``rng="counter"`` when > 1.
        The numpy backend ignores it (reference loops are vectorised over
        replicas already).  The thread count never changes results.
    """

    def __init__(self, isings: Sequence[IsingModel],
                 classes: Optional[List[np.ndarray]] = None,
                 clusters: Optional[List[np.ndarray]] = None,
                 kernel: str = "auto", backend: str = "auto",
                 rng: str = "sequential", threads: int = 1):
        if kernel not in KERNELS:
            raise AnnealerError(
                f"kernel must be one of {KERNELS}, got {kernel!r}")
        if rng not in backends.RNG_MODES:
            raise AnnealerError(
                f"rng must be one of {backends.RNG_MODES}, got {rng!r}")
        self.kernel = kernel
        self.backend = backend
        #: Draw discipline (named ``rng_mode`` internally: ``rng`` stays the
        #: conventional local name for generator instances).
        self.rng_mode = rng
        self.threads = check_integer_in_range("threads", threads, minimum=1)
        if self.threads > 1 and self.rng_mode != "counter":
            raise AnnealerError(
                "threads > 1 requires rng='counter': the sequential "
                "discipline consumes one generator per block in a defined "
                "order, which no parallel schedule can reproduce")
        # Resolve eagerly: unknown names and unavailable explicit backends
        # fail loudly here, and the one-time JIT/compile cost is paid at
        # construction instead of inside the first timed anneal.
        resolved = backends.resolve_backend(backend)
        if resolved != "numpy":
            backends.warmup(resolved, rng=self.rng_mode)
        #: Whether the numpy reference's cluster flips update the dense
        #: kernel's local-field matrix incrementally (the default) instead of
        #: recomputing it after every sweep; a diagnostic of the numpy
        #: reference only, kept so benchmarks can time the recompute path
        #: (the compiled pack kernels always update incrementally).
        self.incremental_cluster_fields = True
        isings = list(isings)
        if not isings:
            raise AnnealerError("the sampler needs at least one problem")
        first = isings[0]
        self._edge_keys: List[Tuple[int, int]] = list(first.couplings.keys())
        self.num_blocks = len(isings)
        self.block_size = first.num_variables
        if not self.matches_structure(isings):
            raise AnnealerError(
                "all blocks of a BlockDiagonalSampler must share one coupling "
                "structure"
            )
        self.isings = isings
        self.block_classes = (classes if classes is not None
                              else colour_classes(first))

        blocks = self.num_blocks
        size = self.block_size
        n = blocks * size
        offsets = np.arange(blocks, dtype=np.intp) * size
        rows1, cols1 = _edge_arrays(self._edge_keys)
        self._entry_rows = (rows1[None, :] + offsets[:, None]).ravel()
        self._entry_cols = (cols1[None, :] + offsets[:, None]).ravel()
        self._matrix = sparse.coo_matrix(
            (self._entry_values(isings), (self._entry_rows, self._entry_cols)),
            shape=(n, n)).tocsr()
        # Entry maps (data-slot -> entry-value index) are only needed by
        # refresh_values; one-shot samplers never pay for them.
        self._matrix_entries: Optional[np.ndarray] = None
        self._class_entries: List[np.ndarray] = []
        self._cluster_entries: List[np.ndarray] = []
        # Compiled-call CSR structure caches (values are assembled from the
        # live operators per call, so these survive refresh_values rebinds).
        self._colour_csr_cache = None
        self._cluster_compiled_cache = None

        #: Combined colour classes: block-major concatenation, so block ``b``'s
        #: members form the contiguous column segment ``[b*m, (b+1)*m)`` of
        #: every per-class array.
        self.classes = [(group[None, :] + offsets[:, None]).ravel()
                        for group in self.block_classes]
        #: Per-class operators mapping the combined spin vector to the local
        #: fields of the class members: shape (blocks*|class|, N).
        self.class_operators = [self._matrix[group, :].tocsr()
                                for group in self.classes]
        self._class_widths = [group.size for group in self.block_classes]
        self.linear = np.concatenate(
            [np.asarray(ising.linear, dtype=float) for ising in isings])

        self.block_clusters: List[np.ndarray] = []
        self._cluster_columns: List[np.ndarray] = []
        self._cluster_operators: List[sparse.csr_matrix] = []
        self._cluster_lengths: List[int] = []
        self._cluster_internal_keys: List[List[Tuple[int, int]]] = []
        self._cluster_int_i: List[np.ndarray] = []
        self._cluster_int_j: List[np.ndarray] = []
        self._cluster_int_v: List[np.ndarray] = []
        if clusters:
            for cluster in clusters:
                members = np.asarray(cluster, dtype=np.intp)
                if members.size == 0:
                    continue
                member_set = set(int(m) for m in members)
                internal_keys = [
                    (i, j) for (i, j) in self._edge_keys
                    if i in member_set and j in member_set
                ]
                columns = (members[None, :] + offsets[:, None]).ravel()
                self.block_clusters.append(members)
                self._cluster_columns.append(columns)
                self._cluster_operators.append(self._matrix[columns, :].tocsr())
                self._cluster_lengths.append(members.size)
                self._cluster_internal_keys.append(internal_keys)
                if internal_keys:
                    pairs = np.array(internal_keys, dtype=np.intp)
                    self._cluster_int_i.append(
                        pairs[:, 0][:, None] + offsets[None, :])
                    self._cluster_int_j.append(
                        pairs[:, 1][:, None] + offsets[None, :])
                else:
                    empty = np.empty((0, blocks), dtype=np.intp)
                    self._cluster_int_i.append(empty)
                    self._cluster_int_j.append(empty)
            self._refresh_cluster_internal(isings)

    # ------------------------------------------------------------------ #
    # Structure bookkeeping
    # ------------------------------------------------------------------ #
    @property
    def num_variables(self) -> int:
        """Total variable count of the combined block-diagonal problem."""
        return self.num_blocks * self.block_size

    @property
    def coupling_matrix(self) -> sparse.csr_matrix:
        """Symmetric CSR coupling matrix of the combined problem.

        For a one-block sampler this is exactly
        :meth:`repro.ising.model.IsingModel.coupling_operator` of the bound
        problem, so callers aggregating the sampler's own output can pass it
        to :func:`repro.ising.solver.aggregate_samples` instead of
        re-densifying the couplings.  ``refresh_values`` rewrites it in
        place, so the reference stays valid across rebinds.
        """
        return self._matrix

    @property
    def selected_kernel(self) -> str:
        """The sweep kernel an :meth:`anneal` call will actually run."""
        if self.kernel != "auto":
            return self.kernel
        pairs = self.block_size * (self.block_size - 1) // 2
        if (self.block_size > 1
                and len(self.block_classes)
                >= DENSE_DISPATCH_RATIO * self.block_size
                and len(self._edge_keys)
                > DENSE_DISPATCH_MIN_DENSITY * pairs):
            # The problem is dense and its colouring singleton-degenerate:
            # the colour kernel decays into a Python loop of tiny sparse
            # matvecs, while the dense kernel sweeps the same variables with
            # incrementally maintained fields.  (When every class IS a
            # singleton the two kernels are bit-for-bit the same algorithm.)
            return "dense"
        return "colour"

    @property
    def selected_backend(self) -> str:
        """The concrete backend the ``backend=`` knob resolves to.

        Resolved per call rather than frozen at construction so that
        availability probes (monkeypatched in fallback tests, or a numba
        install appearing between runs) take effect without rebuilding the
        sampler; resolution itself is a cached dictionary lookup.  The
        resolved backend runs every pack shape, with or without cluster
        moves, as one whole-schedule pack call per anneal.
        """
        return backends.resolve_backend(self.backend)

    def _entry_values(self, isings: Sequence[IsingModel]) -> np.ndarray:
        """Block-major flat value vector aligned with the combined entries."""
        count = len(self._edge_keys)
        out = np.empty((len(isings), 2 * count))
        for row, ising in zip(out, isings):
            values = np.fromiter(
                (ising.couplings[key] for key in self._edge_keys),
                dtype=np.float64, count=count)
            row[:count] = values
            row[count:] = values
        return out.ravel()

    def _refresh_cluster_internal(self, isings: Sequence[IsingModel]) -> None:
        self._cluster_int_v = [
            np.array([[ising.couplings[key] for ising in isings]
                      for key in keys], dtype=float).reshape(len(keys),
                                                             len(isings))
            for keys in self._cluster_internal_keys
        ]

    def _ensure_entry_maps(self) -> None:
        if self._matrix_entries is not None:
            return
        n = self.num_variables
        # The (row, col) entry list is duplicate-free, so scipy's CSR
        # canonicalisation (row-major, columns sorted within each row) orders
        # data slots exactly by (row, col): a lexsort of the entry arrays IS
        # the slot->entry map, with no permutation matrix to materialise and
        # no per-group scipy slicing.
        perm = np.asarray(
            np.lexsort((self._entry_cols, self._entry_rows)), dtype=np.int64)
        counts = np.bincount(self._entry_rows, minlength=n)
        indptr = np.concatenate(([0], np.cumsum(counts)))

        def row_gather(group: np.ndarray) -> np.ndarray:
            # Entry indices of M[group, :].tocsr().data: for each row of the
            # slice in order, that row's contiguous slot segment of *perm*.
            group = np.asarray(group, dtype=np.intp)
            lengths = counts[group]
            total = int(lengths.sum())
            if total == 0:
                return np.empty(0, dtype=np.int64)
            ends = np.cumsum(lengths)
            shifts = np.repeat(indptr[group] - (ends - lengths), lengths)
            return perm[np.arange(total, dtype=np.intp) + shifts]

        self._matrix_entries = perm
        self._class_entries = [row_gather(group) for group in self.classes]
        self._cluster_entries = [row_gather(columns)
                                 for columns in self._cluster_columns]

    def matches_structure(self, isings: Sequence[IsingModel]) -> bool:
        """Whether *isings* matches this sampler's block count and sparsity."""
        if len(isings) != self.num_blocks:
            return False
        for ising in isings:
            if ising.num_variables != self.block_size:
                return False
            if len(ising.couplings) != len(self._edge_keys):
                return False
            if not all(key in ising.couplings for key in self._edge_keys):
                return False
        return True

    def refresh_values(self, isings: Sequence[IsingModel]) -> None:
        """Rebind all blocks to new same-structure problems in place.

        Rewrites the CSR ``.data`` arrays of the full matrix and every sliced
        operator in place; colour classes, cluster membership and all sparsity
        bookkeeping are reused unchanged.  Raises :class:`AnnealerError` when
        the coupling structure differs (build a new sampler instead).
        """
        isings = list(isings)
        if not self.matches_structure(isings):
            raise AnnealerError(
                "refresh_values requires the same block count and coupling "
                "structure; construct a new sampler instead"
            )
        self._ensure_entry_maps()
        entry_values = self._entry_values(isings)
        self._matrix.data[:] = entry_values[self._matrix_entries]
        for operator, entries in zip(self.class_operators, self._class_entries):
            operator.data[:] = entry_values[entries]
        for operator, entries in zip(self._cluster_operators,
                                     self._cluster_entries):
            operator.data[:] = entry_values[entries]
        self.linear = np.concatenate(
            [np.asarray(ising.linear, dtype=float) for ising in isings])
        if self._cluster_internal_keys:
            self._refresh_cluster_internal(isings)
        self.isings = isings

    def split_samples(self, samples: np.ndarray) -> List[np.ndarray]:
        """Split combined ``(R, blocks*P)`` samples into per-block matrices."""
        size = self.block_size
        return [samples[:, b * size:(b + 1) * size]
                for b in range(self.num_blocks)]

    # ------------------------------------------------------------------ #
    # The Metropolis sweep kernel
    # ------------------------------------------------------------------ #
    def _cluster_coupling_rows(self, coupling: np.ndarray
                               ) -> List[List[np.ndarray]]:
        """Per-cluster, per-block dense coupling row slices ``J_b[C, :]``.

        Materialised once per anneal (the fancy-indexed copies are what the
        incremental cluster updates multiply through every sweep).
        """
        return [[coupling[b][members, :] for b in range(self.num_blocks)]
                for members in self.block_clusters]

    def _block_csr_structure(self, operators: List[sparse.csr_matrix],
                             widths: Sequence[int]) -> Tuple:
        """Shared block-local CSR structure of block-major stacked operators.

        Each combined operator holds, block-major, ``widths[k]`` rows per
        block whose entries all fall inside that block's column range; block
        ``b``'s rows of operator ``k`` are therefore the contiguous row
        segment ``[b*widths[k], (b+1)*widths[k])`` and its data slots the
        contiguous ``.data`` slice between those rows' ``indptr`` bounds.
        Returns ``(slices, indices, indptr)``: ``slices[b]`` lists block
        ``b``'s ``(operator, lo, hi)`` views into the live operators
        (rewritten in place by :meth:`refresh_values`, so values assembled
        from them are always current), and *indices*/*indptr* are the
        block-local CSR structure every block shares (the sampler
        invariant), read off block 0.  No operators (a sampler without
        clusters) give the empty structure.
        """
        slices = [[(operator, int(operator.indptr[b * width]),
                    int(operator.indptr[(b + 1) * width]))
                   for operator, width in zip(operators, widths)]
                  for b in range(self.num_blocks)]
        empty = np.empty(0, dtype=np.int64)
        indices = np.concatenate(
            [empty] + [operator.indices[lo:hi]
                       for operator, lo, hi in slices[0]])
        counts = np.concatenate(
            [empty] + [np.diff(operator.indptr[:width + 1])
                       for operator, width in zip(operators, widths)])
        indptr = np.concatenate([[0], np.cumsum(counts)])
        return (slices, np.ascontiguousarray(indices, dtype=np.int64),
                np.ascontiguousarray(indptr, dtype=np.int64))

    def _stack_block_data(self, slices) -> np.ndarray:
        """Every block's live operator values as one ``(blocks, nnz)``
        matrix: row ``b`` concatenates the ``slices[b]`` views."""
        nnz = sum(hi - lo for _, lo, hi in slices[0])
        stacked = np.empty((self.num_blocks, nnz))
        for b, block_slices in enumerate(slices):
            position = 0
            for operator, lo, hi in block_slices:
                stacked[b, position:position + hi - lo] = operator.data[lo:hi]
                position += hi - lo
        return stacked

    def _ensure_cluster_cache(self) -> Tuple:
        """Build (once per sampler) the flattened cluster structure arrays.

        A sampler without clusters gets the empty structure: no members,
        ``cluster_starts == [0]`` and no internal edges.
        """
        if self._cluster_compiled_cache is None:
            def int64(values) -> np.ndarray:
                return np.ascontiguousarray(values, dtype=np.int64)

            members = np.concatenate(
                [np.empty(0, dtype=np.int64)] + self.block_clusters)
            edge_counts = [len(keys) for keys in self._cluster_internal_keys]
            pairs = int64([key for keys in self._cluster_internal_keys
                           for key in keys]).reshape(-1, 2)
            self._cluster_compiled_cache = (
                int64(members),
                int64(np.concatenate([[0], np.cumsum(self._cluster_lengths)])),
                int64(pairs[:, 0]), int64(pairs[:, 1]),
                int64(np.concatenate([[0], np.cumsum(edge_counts)])),
                *self._block_csr_structure(self._cluster_operators,
                                           self._cluster_lengths))
        return self._cluster_compiled_cache

    def _cluster_edge_values(self) -> np.ndarray:
        """Internal-edge coupling values, shape ``(E_total, blocks)``.

        ``_refresh_cluster_internal`` replaces the per-cluster arrays on
        rebind, so these are re-read on every call.
        """
        nonempty = [block for block in self._cluster_int_v if block.size]
        if not nonempty:
            return np.empty((0, self.num_blocks))
        return np.concatenate(nonempty, axis=0)

    def _cluster_pack_descriptor(self) -> backends.ClusterDescriptor:
        """Pack cluster descriptor: the compiled kernels' view of the chains.

        The ragged member/internal-edge structure arrays (shared between
        blocks, derived once per sampler) plus every block's coupling values
        as ``(blocks, nnz)`` / ``(blocks, E)`` block-major matrices: the
        member local-field rows hold the same values, in the same
        ascending-column summation order, as the reference cluster
        operators.  The values are assembled per call from the live
        operators, so samplers rebound through :meth:`refresh_values` always
        sweep the current values.  Without clusters this is the empty
        descriptor, so chain-free problems run the same pack kernels.
        """
        (members, cluster_starts, edge_i, edge_j, edge_starts, slices,
         indices, indptr) = self._ensure_cluster_cache()
        return backends.ClusterDescriptor(
            members=members,
            cluster_starts=cluster_starts,
            data=self._stack_block_data(slices),
            indices=indices,
            indptr=indptr,
            edge_i=edge_i,
            edge_j=edge_j,
            edge_starts=edge_starts,
            edge_values=np.ascontiguousarray(self._cluster_edge_values().T),
        )

    def _cluster_sweep(self, spins: np.ndarray, temperature: float,
                       rngs: Sequence[np.random.Generator],
                       fields: Optional[np.ndarray] = None,
                       cluster_rows: Optional[List[List[np.ndarray]]] = None
                       ) -> None:
        """Offer every cluster of every block a collective flip.

        Flipping all spins of a cluster leaves its internal couplings
        unchanged, so the energy difference only involves the cluster's
        coupling to the rest of the system and its linear fields.

        When the dense kernel's local-field matrix is passed as *fields*
        (``(R, blocks*P)`` layout, with *cluster_rows* the per-cluster,
        per-block dense coupling row slices from
        :meth:`_cluster_coupling_rows`), accepted cluster flips update it
        incrementally: flipping the members ``C`` of block ``b`` in replica
        ``r`` adds ``sum_{m in C} (s'_m - s_m) J_b[m, :]`` to that replica's
        field row — one small ``|C|``-term accumulation per cluster instead
        of a full ``(R x P) @ (P x P)`` recompute per sweep.
        """
        num_replicas = spins.shape[0]
        blocks = self.num_blocks
        size = self.block_size
        for index, (members, columns, operator, length, int_i, int_j,
                    int_v) in enumerate(zip(
                self.block_clusters, self._cluster_columns,
                self._cluster_operators, self._cluster_lengths,
                self._cluster_int_i, self._cluster_int_j,
                self._cluster_int_v)):
            cluster_fields = (operator @ spins.T).T + self.linear[columns]
            terms = (spins[:, columns] * cluster_fields).reshape(
                num_replicas, blocks, length)
            # Accumulate the member sum in explicit ascending-member order:
            # for clusters of fewer than 8 members this is bit-for-bit what
            # ``terms.sum(axis=2)`` computes (NumPy reduces short contiguous
            # runs sequentially), and it *defines* the summation order for
            # longer chains, so the compiled cluster kernels can reproduce
            # every boundary exactly regardless of NumPy's pairwise/SIMD
            # reduction strategy.
            boundary = np.zeros((num_replicas, blocks))
            for m in range(length):
                boundary += terms[:, :, m]
            for t in range(int_i.shape[0]):
                # Subtract the internal couplings, which were double counted
                # through the fields of both endpoints.
                boundary -= (2.0 * int_v[t] * spins[:, int_i[t]]
                             * spins[:, int_j[t]])
            delta = -2.0 * boundary
            accept = delta <= 0.0
            uphill = ~accept
            for b, rng in enumerate(rngs):
                uphill_b = uphill[:, b]
                count = int(np.count_nonzero(uphill_b))
                if count:
                    # delta > 0 here, acceptance probability exp(-delta / T).
                    accept[:, b][uphill_b] = (
                        rng.random(count)
                        < np.exp(-delta[:, b][uphill_b] / temperature))
            if np.any(accept):
                if fields is not None:
                    for b in range(blocks):
                        accepted = np.nonzero(accept[:, b])[0]
                        if accepted.size == 0:
                            continue
                        cols = members + b * size
                        # (s'_m - s_m) = -2 s_m on the accepted replicas;
                        # one small matmul updates their field segments.
                        # Unlike the flip-energy boundary above — whose
                        # member sum needs a defined order because
                        # structurally-zero boundaries make its sign an
                        # O(1) hazard — this BLAS reduction may differ from
                        # the compiled kernels' ascending-member
                        # accumulation by ~1 ulp, which only moves later
                        # acceptance thresholds inside the same ~1e-16
                        # per-draw window already documented for
                        # vectorised-vs-libm exp (see
                        # repro.annealer.backends).
                        segment = fields[:, b * size:(b + 1) * size]
                        segment[accepted] += (
                            (-2.0 * spins[np.ix_(accepted, cols)])
                            @ cluster_rows[index][b])
                flips = np.where(np.repeat(accept, length, axis=1), -1.0, 1.0)
                spins[:, columns] *= flips

    def _dense_coupling_blocks(self) -> np.ndarray:
        """Dense per-block coupling matrices, shape ``(blocks, P, P)``.

        Materialised from the current CSR matrix at anneal time, so a sampler
        rebound through :meth:`refresh_values` always densifies the *current*
        values; the cost is one ``blocks * P^2`` copy per anneal call, far
        below a single sweep of the problems the dense kernel targets.
        """
        size = self.block_size
        dense = np.empty((self.num_blocks, size, size))
        for b in range(self.num_blocks):
            start = b * size
            dense[b] = self._matrix[start:start + size,
                                    start:start + size].toarray()
        return dense

    def _dense_sweep_loop(self, spins: np.ndarray, temperatures: np.ndarray,
                          rngs: Sequence[np.random.Generator]) -> None:
        """Sequential-sweep Metropolis over incrementally maintained fields.

        Variables are visited in colour-class order (for the degenerate
        all-singleton colourings this kernel targets, that is exactly the
        order the colour kernel visits them), one variable of every block at
        a time, vectorised over replicas and blocks.  The local-field matrix
        ``fields[r, b, v]`` is maintained incrementally: a flip of variable
        ``v`` in block ``b`` adds ``(s'_v - s_v) * J_b[v, :]`` to that
        block's field row, so a sweep costs one length-``P`` fused
        multiply-add per accepted flip instead of a sparse matvec per class.
        Uphill moves draw from each block's generator exactly as the colour
        kernel draws for a singleton class, keeping the two kernels on one
        random stream.
        """
        num_replicas = spins.shape[0]
        blocks = self.num_blocks
        size = self.block_size
        coupling = self._dense_coupling_blocks()
        order = np.concatenate(self.block_classes)

        if blocks == 1:
            # Single-block fast path: same dynamics and draw stream, minus
            # the block axis and the per-block bookkeeping of the generic
            # loop (this is the SA-baseline / logical-problem hot path).
            rng = rngs[0]
            matrix = coupling[0]
            fields = spins @ matrix + self.linear[None, :]
            cluster_rows = (self._cluster_coupling_rows(coupling)
                            if self._cluster_operators
                            and self.incremental_cluster_fields else None)
            for temperature in temperatures:
                for v in order:
                    current = spins[:, v]
                    delta = -2.0 * current * fields[:, v]
                    accept = delta <= 0.0
                    uphill = ~accept
                    count = int(np.count_nonzero(uphill))
                    if count:
                        # delta > 0 on the uphill subset, acceptance
                        # probability exp(-delta / T).
                        accept[uphill] = (
                            rng.random(count)
                            < np.exp(-delta[uphill] / temperature))
                    if accept.any():
                        step = np.where(accept, -2.0 * current, 0.0)
                        spins[:, v] += step
                        fields += step[:, None] * matrix[v, :][None, :]
                if self._cluster_operators:
                    if cluster_rows is not None:
                        self._cluster_sweep(spins, temperature, rngs,
                                            fields=fields,
                                            cluster_rows=cluster_rows)
                    else:
                        self._cluster_sweep(spins, temperature, rngs)
                        fields = spins @ matrix + self.linear[None, :]
            return

        spins3 = spins.reshape(num_replicas, blocks, size)
        linear3 = self.linear.reshape(blocks, size)

        def recompute_fields() -> np.ndarray:
            return (np.einsum("rbs,bvs->rbv", spins3, coupling)
                    + linear3[None, :, :])

        fields = recompute_fields()
        # 2-D alias of the field matrix in the combined (R, blocks*P) layout
        # the cluster sweep's incremental updates write through.
        fields2 = fields.reshape(num_replicas, blocks * size)
        cluster_rows = (self._cluster_coupling_rows(coupling)
                        if self._cluster_operators
                        and self.incremental_cluster_fields else None)
        for temperature in temperatures:
            for v in order:
                delta = -2.0 * spins3[:, :, v] * fields[:, :, v]
                accept = delta <= 0.0
                uphill = ~accept
                for b, rng in enumerate(rngs):
                    uphill_b = uphill[:, b]
                    count = int(np.count_nonzero(uphill_b))
                    if count:
                        # delta > 0 on the uphill subset, acceptance
                        # probability exp(-delta / T).
                        accept[:, b][uphill_b] = (
                            rng.random(count)
                            < np.exp(-delta[:, b][uphill_b] / temperature))
                if np.any(accept):
                    step = np.where(accept, -2.0 * spins3[:, :, v], 0.0)
                    spins3[:, :, v] += step
                    fields += step[:, :, None] * coupling[None, :, v, :]
            if self._cluster_operators:
                if cluster_rows is not None:
                    self._cluster_sweep(spins, temperature, rngs,
                                        fields=fields2,
                                        cluster_rows=cluster_rows)
                else:
                    self._cluster_sweep(spins, temperature, rngs)
                    fields[...] = recompute_fields()

    def _dense_pack_inputs(self, spins: np.ndarray
                           ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(couplings, order, fields)`` for the dense pack kernels.

        The dense ``(blocks, P, P)`` couplings, the colour-class visit order
        and the initial combined local-field matrix, which the kernels then
        maintain incrementally across both move types.
        """
        size = self.block_size
        coupling = self._dense_coupling_blocks()
        order = np.ascontiguousarray(np.concatenate(self.block_classes),
                                     dtype=np.int64)
        fields = np.empty_like(spins)
        for b in range(self.num_blocks):
            segment = slice(b * size, (b + 1) * size)
            fields[:, segment] = (spins[:, segment] @ coupling[b]
                                  + self.linear[segment][None, :])
        return coupling, order, fields

    def _dense_sweep_compiled(self, spins: np.ndarray,
                              temperatures: np.ndarray,
                              rngs: Sequence[np.random.Generator],
                              backend: str) -> None:
        """Dense sequential sweeps through the compiled pack kernel.

        Blocks never interact and each draws from its own generator, so one
        pack call evolves block after block through the whole schedule — the
        fused kernel interleaves the cluster-flip sweep (if any) after every
        dense sweep and maintains the block's local-field matrix
        incrementally across both move types — without changing any block's
        draw stream relative to the reference loop.
        """
        coupling, order, fields = self._dense_pack_inputs(spins)
        backends.pack_fused_dense_cluster_sweep(
            backend, spins, fields, coupling, order, self.linear,
            self._cluster_pack_descriptor(), temperatures, rngs)

    def _colour_pack_csr(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray,
                                        np.ndarray, np.ndarray]:
        """Ragged colour classes and their stacked per-class CSR operators.

        Returns ``(members, class_starts, class_data, indices, indptr)``:
        *members* holds the block-level variable indices of all classes
        concatenated in class order and *class_starts* delimits the classes.
        Row ``k`` of the shared CSR structure maps a block's spins to the
        local field of ``members[k]``, and ``class_data[b]`` holds block
        ``b``'s values — the same values, in the same (ascending-column)
        summation order, as the combined per-class operators the reference
        loop multiplies through.  The structure is derived once per
        sampler; the values are assembled per call from the live class
        operators, so :meth:`refresh_values` rebinds are always honoured.
        """
        if self._colour_csr_cache is None:
            self._colour_csr_cache = (
                np.ascontiguousarray(np.concatenate(self.block_classes),
                                     dtype=np.int64),
                np.ascontiguousarray(
                    np.concatenate([[0], np.cumsum(self._class_widths)]),
                    dtype=np.int64),
                *self._block_csr_structure(self.class_operators,
                                           self._class_widths))
        members, class_starts, slices, indices, indptr = \
            self._colour_csr_cache
        return (members, class_starts, self._stack_block_data(slices),
                indices, indptr)

    def _colour_sweep_compiled(self, spins: np.ndarray,
                               temperatures: np.ndarray,
                               rngs: Sequence[np.random.Generator],
                               backend: str) -> None:
        """Colour-class sweeps through the compiled pack kernel.

        Same pack strategy as the dense compiled path: the fused
        colour+cluster kernel runs the whole schedule for the whole pack —
        the embedded serving shape, one compiled dispatch per anneal instead
        of one per (block, sweep).
        """
        max_width = max((g.size for g in self.block_classes), default=1)
        scratch = np.empty((spins.shape[0], max(max_width, 1)))
        backends.pack_fused_colour_cluster_sweep(
            backend, spins, self.linear, *self._colour_pack_csr(), scratch,
            self._cluster_pack_descriptor(), temperatures, rngs)

    def _counter_sweeps(self, spins: np.ndarray, temperatures: np.ndarray,
                        keys: List[int], backend: str) -> None:
        """Run the whole schedule under the counter (Philox) discipline.

        One ``counter_pack_*`` call of :mod:`repro.annealer.backends` per
        anneal on every backend (its numpy branch is the counter
        reference).  Every backend implements the identical keyed draw
        function, so this path is bit-identical across ``backend`` and
        ``self.threads``.  Cluster flips always maintain the dense kernel's
        fields incrementally here: the recompute diagnostic of
        ``incremental_cluster_fields`` belongs to the sequential numpy
        reference only.
        """
        clusters = self._cluster_pack_descriptor()
        if self.selected_kernel == "dense":
            coupling, order, fields = self._dense_pack_inputs(spins)
            backends.counter_pack_fused_dense_cluster_sweep(
                backend, spins, fields, coupling, order, self.linear,
                clusters, temperatures, keys, threads=self.threads)
            return
        backends.counter_pack_fused_colour_cluster_sweep(
            backend, spins, self.linear, *self._colour_pack_csr(), clusters,
            temperatures, keys, threads=self.threads)

    def _anneal(self, temperatures: Sequence[float], num_replicas: int,
                rngs: Sequence[np.random.Generator],
                initial_spins: Optional[np.ndarray]) -> np.ndarray:
        """Run the replica-batched Metropolis trajectories of all blocks."""
        num_replicas = check_integer_in_range("num_replicas", num_replicas,
                                              minimum=1)
        temperatures = np.asarray(temperatures, dtype=float)
        if temperatures.ndim != 1 or temperatures.size == 0:
            raise AnnealerError("temperatures must be a non-empty 1-D sequence")
        if np.any(temperatures <= 0):
            raise AnnealerError("temperatures must be strictly positive")

        n = self.num_variables
        size = self.block_size
        counter_keys: Optional[List[int]] = None
        if self.rng_mode == "counter":
            # One Philox key per block, drawn from the block's generator
            # BEFORE any other use: seeding still flows from random_state,
            # and successive anneal calls (ICE batches) key fresh streams.
            counter_keys = [counter.block_key(rng) for rng in rngs]
        if initial_spins is None:
            spins = np.empty((num_replicas, n))
            if counter_keys is not None:
                # Counter discipline: the initial configuration is a pure
                # function of the block key, identical for every backend
                # and thread count.
                for b, key in enumerate(counter_keys):
                    spins[:, b * size:(b + 1) * size] = \
                        counter.counter_initial_spins(key, num_replicas, size)
            else:
                # The annealer's initial superposition collapses to an
                # unbiased configuration under thermal sampling; each block
                # draws its own.  Generator.choice over a 2-array IS
                # integers(0, 2) plus a take, so the direct form consumes
                # the identical stream without choice's per-call validation
                # overhead.
                values = np.array([-1.0, 1.0])
                for b, rng in enumerate(rngs):
                    spins[:, b * size:(b + 1) * size] = values[
                        rng.integers(0, 2, size=(num_replicas, size))]
        else:
            spins = np.asarray(initial_spins, dtype=np.float64).copy()
            if spins.shape != (num_replicas, n):
                raise AnnealerError(
                    f"initial_spins must have shape ({num_replicas}, {n}), "
                    f"got {spins.shape}"
                )

        backend = self.selected_backend
        # Wall-time attribution of the sweep loop per kernel/backend/rng/
        # thread count; the phase is a no-op unless the global profiler is
        # enabled and never touches RNG state, so trajectories are identical
        # either way.
        sweep_phase = PROFILER.phase("engine.sweep", self.selected_kernel,
                                     backend, self.rng_mode,
                                     f"t{self.threads}")
        if counter_keys is not None:
            with sweep_phase:
                self._counter_sweeps(spins, temperatures, counter_keys,
                                     backend)
            return spins.astype(np.int8)
        if self.selected_kernel == "dense":
            with sweep_phase:
                if backend == "numpy":
                    self._dense_sweep_loop(spins, temperatures, rngs)
                else:
                    self._dense_sweep_compiled(spins, temperatures, rngs,
                                               backend)
            return spins.astype(np.int8)
        if backend != "numpy":
            with sweep_phase:
                self._colour_sweep_compiled(spins, temperatures, rngs,
                                            backend)
            return spins.astype(np.int8)

        with sweep_phase:
            for temperature in temperatures:
                for group, operator, width in zip(self.classes,
                                                  self.class_operators,
                                                  self._class_widths):
                    # Local field of every variable in the group, per replica:
                    # (N x R) -> (blocks*|class| x R), then transpose.
                    fields = (operator @ spins.T).T + self.linear[group]
                    delta = -2.0 * spins[:, group] * fields
                    accept = delta <= 0.0
                    uphill = ~accept
                    for b, rng in enumerate(rngs):
                        segment = slice(b * width, (b + 1) * width)
                        uphill_b = uphill[:, segment]
                        count = int(np.count_nonzero(uphill_b))
                        if count:
                            # delta > 0 on the uphill subset, acceptance
                            # probability exp(-delta / T).
                            accept[:, segment][uphill_b] = (
                                rng.random(count)
                                < np.exp(-delta[:, segment][uphill_b]
                                         / temperature))
                    flips = np.where(accept, -1.0, 1.0)
                    spins[:, group] *= flips
                if self._cluster_operators:
                    self._cluster_sweep(spins, temperature, rngs)

        return spins.astype(np.int8)

    def anneal(self, temperatures: Sequence[float], num_replicas: int,
               random_states: Sequence[RandomState],
               initial_spins: Optional[np.ndarray] = None) -> np.ndarray:
        """Anneal all blocks simultaneously, one generator per block.

        Parameters
        ----------
        temperatures:
            One temperature per Monte Carlo sweep (shared by all blocks).
        num_replicas:
            Independent trajectories per block (rows of the result).
        random_states:
            One randomness source per block; each block consumes draws from
            its own generator exactly as a one-block sampler with that
            generator would.
        initial_spins:
            Optional ``(num_replicas, blocks*P)`` starting configuration.

        Returns
        -------
        numpy.ndarray
            Combined final configurations, shape ``(num_replicas, blocks*P)``,
            entries ±1; use :meth:`split_samples` to separate the blocks.
        """
        rngs = [ensure_rng(state) for state in random_states]
        if len(rngs) != self.num_blocks:
            raise AnnealerError(
                f"need one random state per block: expected {self.num_blocks}, "
                f"got {len(rngs)}"
            )
        return self._anneal(temperatures, num_replicas, rngs, initial_spins)


class IsingSampler(BlockDiagonalSampler):
    """Reusable Metropolis sampler bound to one Ising problem.

    The one-block case of :class:`BlockDiagonalSampler` with a single-problem
    interface: ``anneal`` takes one randomness source, and
    ``matches_structure`` / ``refresh_values`` take one problem.  Precomputes
    the colour classes and per-class sparse coupling operators so that
    repeated runs (e.g. the batches of a QA job, or parameter sweeps on the
    same embedded problem) avoid re-deriving the graph structure; when only
    the coefficient *values* change between runs (ICE perturbations redraw
    every coefficient but never the sparsity pattern), ``refresh_values``
    rebinds the sampler in place.
    """

    def __init__(self, ising: IsingModel,
                 classes: Optional[List[np.ndarray]] = None,
                 clusters: Optional[List[np.ndarray]] = None,
                 kernel: str = "auto", backend: str = "auto",
                 rng: str = "sequential", threads: int = 1):
        super().__init__([ising], classes=classes, clusters=clusters,
                         kernel=kernel, backend=backend, rng=rng,
                         threads=threads)
        self.ising = ising
        #: Cluster member arrays (same as the block-level clusters).
        self.clusters = self.block_clusters

    def matches_structure(self, ising) -> bool:
        """Whether *ising* has this sampler's variable count and sparsity."""
        if isinstance(ising, IsingModel):
            ising = [ising]
        return super().matches_structure(ising)

    def refresh_values(self, ising: IsingModel) -> None:
        """Rebind the sampler to a same-structure problem with new values."""
        super().refresh_values([ising])
        self.ising = ising

    def anneal(self, temperatures: Sequence[float], num_replicas: int,
               random_state: RandomState = None,
               initial_spins: Optional[np.ndarray] = None) -> np.ndarray:
        """Run *num_replicas* simultaneous Metropolis trajectories.

        Parameters
        ----------
        temperatures:
            One temperature per Monte Carlo sweep.
        num_replicas:
            Number of independent trajectories (rows of the returned matrix).
        initial_spins:
            Optional ``(num_replicas, N)`` starting configuration; uniform
            random when omitted.

        Returns
        -------
        numpy.ndarray
            Final spin configurations, shape ``(num_replicas, N)``, entries ±1.
        """
        return self._anneal(temperatures, num_replicas,
                            [ensure_rng(random_state)], initial_spins)


def batched_metropolis(ising: IsingModel, temperatures: Sequence[float],
                       num_replicas: int,
                       random_state: RandomState = None,
                       initial_spins: Optional[np.ndarray] = None,
                       kernel: str = "auto",
                       backend: str = "auto",
                       rng: str = "sequential",
                       threads: int = 1) -> np.ndarray:
    """One-shot convenience wrapper around :class:`IsingSampler`."""
    sampler = IsingSampler(ising, kernel=kernel, backend=backend, rng=rng,
                           threads=threads)
    return sampler.anneal(temperatures, num_replicas,
                          random_state=random_state,
                          initial_spins=initial_spins)
