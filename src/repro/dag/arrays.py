"""Array compilation of a PTG (the ``DagArrays`` structure).

The dict-based :class:`~repro.dag.graph.PTG` is convenient to build and
query, but the scheduling hot loops (the CPA-family allocation procedures
and the mapping prioritisation) traverse the same graph thousands of
times.  This module compiles a PTG **once** into flat NumPy arrays:

* the tasks in **insertion order** (the order ``PTG.tasks()`` iterates,
  which is also the order the reference formulations fold their floating
  point sums in),
* CSR predecessor / successor adjacency, with each adjacency list sorted
  by task id so vectorized arg-max tie-breaks match the reference
  ``sorted()``-based ones,
* the cached **topological order** and **precedence levels** of the
  graph, plus the per-level member lists in exactly the order
  ``PTG.tasks_by_level()`` produces them,
* per-task ``flops`` / ``alpha`` / synthetic flags, so Amdahl timings can
  be evaluated as vectorized table lookups,
* a level-batched **DP plan** that lets the bottom-level recursion run as
  one :func:`numpy.maximum.reduceat` pass per precedence level instead of
  a Python loop over tasks and dict lookups.

The compiled object is immutable and cached on the graph
(:meth:`~repro.dag.graph.PTG.arrays`); any structural mutation of the PTG
invalidates the cache.  Both the allocation step
(:class:`repro.allocation.state.AllocationState`) and the mapping step
(:meth:`repro.mapping.base.AllocatedPTG.bottom_levels`) share the same
compilation.

Exactness
---------
Every numeric routine here reproduces the IEEE-754 operation order of the
scalar formulation it accelerates, so consumers can assert bit-identical
results against the dict-based code paths: the bottom-level DP performs
the same ``duration + max(successor levels)`` additions (``max`` itself
is exact), and consumers that need fold-left float sums over these
arrays (e.g. :class:`repro.allocation.state.AllocationState`) use
Python's built-in left-to-right ``sum`` -- the reference's own
semantics -- never the pairwise-summing :func:`numpy.sum`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

import numpy as np

from repro.exceptions import InvalidGraphError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.dag.graph import PTG

#: Below this task count the scalar (Python-list) DP specializations beat
#: the vectorized ones: a 50-task graph needs ~150 trivial float
#: operations per pass, which is cheaper than ~4 NumPy dispatches per
#: precedence level.  Both formulations are bit-identical, so the cutoff
#: is purely a performance knob.
SMALL_GRAPH_CUTOFF = 512


@dataclass(frozen=True, eq=False)
class DagArrays:
    """Flat-array view of one PTG, shared by allocation and mapping.

    All per-task arrays are indexed by the task's **insertion position**
    (the order of :meth:`repro.dag.graph.PTG.tasks`), not by task id;
    :attr:`task_ids` and :attr:`index_of` translate between the two.
    """

    #: Task ids in insertion order; ``task_ids[i]`` is the id of index ``i``.
    task_ids: np.ndarray
    #: Inverse of :attr:`task_ids`: task id -> insertion index.
    index_of: Dict[int, int]
    #: Sequential cost ``w`` of each task (flop).
    flops: np.ndarray
    #: Amdahl non-parallelizable fraction of each task.
    alpha: np.ndarray
    #: True for zero-cost synthetic entry/exit tasks.
    synthetic: np.ndarray
    #: Indices in the graph's cached topological order.
    topo: np.ndarray
    #: Precedence level of each index.
    levels: np.ndarray
    #: Indices grouped by level, in ``PTG.tasks_by_level()`` order.
    level_members: np.ndarray
    #: CSR offsets into :attr:`level_members`; level ``l`` owns
    #: ``level_members[level_offsets[l]:level_offsets[l + 1]]``.
    level_offsets: np.ndarray
    #: CSR predecessor offsets (``pred_ptr[i]:pred_ptr[i+1]`` slices
    #: :attr:`pred_idx`); adjacency sorted by predecessor task id.
    pred_ptr: np.ndarray
    #: CSR predecessor indices.
    pred_idx: np.ndarray
    #: CSR successor offsets, mirroring :attr:`pred_ptr`.
    succ_ptr: np.ndarray
    #: CSR successor indices, each list sorted by successor task id.
    succ_idx: np.ndarray
    #: Indices of the tasks without predecessors, in insertion order.
    entries: np.ndarray
    #: Indices of the tasks without successors, in insertion order.
    exits: np.ndarray

    # ------------------------------------------------------------------ #
    # basic queries
    # ------------------------------------------------------------------ #
    @property
    def n_tasks(self) -> int:
        """Number of tasks (synthetic entry/exit included)."""
        return int(self.task_ids.size)

    @property
    def n_edges(self) -> int:
        """Number of dependency edges."""
        return int(self.succ_idx.size)

    @property
    def depth(self) -> int:
        """Number of precedence levels."""
        return int(self.level_offsets.size - 1)

    def successors_of(self, index: int) -> np.ndarray:
        """Successor indices of *index*, sorted by successor task id."""
        return self.succ_idx[self.succ_ptr[index] : self.succ_ptr[index + 1]]

    def predecessors_of(self, index: int) -> np.ndarray:
        """Predecessor indices of *index*, sorted by predecessor task id."""
        return self.pred_idx[self.pred_ptr[index] : self.pred_ptr[index + 1]]

    def level_slice(self, level: int) -> np.ndarray:
        """Member indices of precedence *level* in ``tasks_by_level`` order."""
        if level < 0 or level >= self.depth:
            raise InvalidGraphError(f"no precedence level {level} (depth {self.depth})")
        return self.level_members[
            self.level_offsets[level] : self.level_offsets[level + 1]
        ]

    # ------------------------------------------------------------------ #
    # plain-Python mirrors (cached; cheap scalar access for small graphs)
    # ------------------------------------------------------------------ #
    @cached_property
    def task_ids_tuple(self) -> Tuple[int, ...]:
        """:attr:`task_ids` as a tuple of Python ints (no NumPy boxing)."""
        return tuple(self.task_ids.tolist())

    @cached_property
    def synthetic_tuple(self) -> Tuple[bool, ...]:
        """:attr:`synthetic` as a tuple of Python bools."""
        return tuple(self.synthetic.tolist())

    @cached_property
    def flops_tuple(self) -> Tuple[float, ...]:
        """:attr:`flops` as a tuple of Python floats."""
        return tuple(self.flops.tolist())

    @cached_property
    def alpha_tuple(self) -> Tuple[float, ...]:
        """:attr:`alpha` as a tuple of Python floats."""
        return tuple(self.alpha.tolist())

    @cached_property
    def levels_tuple(self) -> Tuple[int, ...]:
        """:attr:`levels` as a tuple of Python ints."""
        return tuple(self.levels.tolist())

    @cached_property
    def entries_tuple(self) -> Tuple[int, ...]:
        """:attr:`entries` as a tuple of Python ints."""
        return tuple(self.entries.tolist())

    @cached_property
    def topo_reversed(self) -> Tuple[int, ...]:
        """Reverse topological order as a tuple of Python ints."""
        return tuple(self.topo.tolist()[::-1])

    @cached_property
    def succ_tuples(self) -> Tuple[Tuple[int, ...], ...]:
        """Per-task successor tuples (tid-sorted), indexed like :attr:`task_ids`."""
        ptr, idx = self.succ_ptr.tolist(), self.succ_idx.tolist()
        return tuple(
            tuple(idx[ptr[i] : ptr[i + 1]]) for i in range(self.n_tasks)
        )

    @cached_property
    def pred_tuples(self) -> Tuple[Tuple[int, ...], ...]:
        """Per-task predecessor tuples (tid-sorted), indexed like :attr:`task_ids`."""
        ptr, idx = self.pred_ptr.tolist(), self.pred_idx.tolist()
        return tuple(
            tuple(idx[ptr[i] : ptr[i + 1]]) for i in range(self.n_tasks)
        )

    @cached_property
    def dp_plan(
        self,
    ) -> Tuple[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray], ...]:
        """Level-batched plan for the reverse (bottom-level) DP.

        One ``(with_succ, reduce_offsets, succ_flat, without_succ)`` tuple
        per precedence level, deepest level first.  Built lazily: small
        graphs that only ever run the scalar
        :meth:`bottom_levels_py` specialization never pay for it.
        """
        succ_ptr, succ_idx = self.succ_ptr, self.succ_idx
        level_members, level_offsets = self.level_members, self.level_offsets
        plan: List[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []
        for level in range(self.depth - 1, -1, -1):
            nodes = level_members[level_offsets[level] : level_offsets[level + 1]]
            counts = succ_ptr[nodes + 1] - succ_ptr[nodes]
            with_succ = nodes[counts > 0]
            without_succ = nodes[counts == 0]
            if with_succ.size:
                succ_flat = np.concatenate(
                    [succ_idx[succ_ptr[i] : succ_ptr[i + 1]] for i in with_succ]
                )
                offsets = np.zeros(with_succ.size, dtype=np.int64)
                np.cumsum(
                    (succ_ptr[with_succ + 1] - succ_ptr[with_succ])[:-1],
                    out=offsets[1:],
                )
            else:
                succ_flat = np.empty(0, dtype=np.int64)
                offsets = np.empty(0, dtype=np.int64)
            plan.append((with_succ, offsets, succ_flat, without_succ))
        return tuple(plan)

    @cached_property
    def level_tuples(self) -> Tuple[Tuple[int, ...], ...]:
        """Per-level member tuples in ``tasks_by_level`` order."""
        ptr, members = self.level_offsets.tolist(), self.level_members.tolist()
        return tuple(
            tuple(members[ptr[l] : ptr[l + 1]]) for l in range(self.depth)
        )

    # ------------------------------------------------------------------ #
    # vectorized graph algorithms
    # ------------------------------------------------------------------ #
    def bottom_levels(self, durations: np.ndarray) -> np.ndarray:
        """Bottom level of every task under the given *durations*.

        Implements ``bl(v) = T(v) + max_{w in succ(v)} bl(w)`` as one
        vectorized :func:`numpy.maximum.reduceat` pass per precedence
        level (deepest first), which is valid because every successor
        lives at a strictly deeper level.  The additions follow the exact
        scalar operation order of :meth:`repro.dag.graph.PTG.bottom_levels`
        with no communication function, so the resulting floats are
        bit-identical to the dict-based recursion.
        """
        bl = np.zeros(self.n_tasks, dtype=np.float64)
        for with_succ, offsets, succ_flat, without_succ in self.dp_plan:
            if without_succ.size:
                bl[without_succ] = durations[without_succ]
            if with_succ.size:
                best = np.maximum.reduceat(bl[succ_flat], offsets)
                bl[with_succ] = durations[with_succ] + np.maximum(best, 0.0)
        return bl

    def critical_path_length(self, durations: np.ndarray) -> float:
        """Critical path length (seconds) under *durations*."""
        if self.n_tasks == 0:
            return 0.0
        return float(self.bottom_levels(durations).max())

    def critical_path(self, bl: np.ndarray) -> List[int]:
        """Indices along one critical path, from entry to exit.

        *bl* is a bottom-level array previously returned by
        :meth:`bottom_levels`.  Tie-breaks reproduce
        :meth:`repro.dag.graph.PTG.critical_path`: the entry (and each
        successor step) with the maximal bottom level wins, ties going to
        the smallest task id -- which is why the CSR adjacency is stored
        sorted by task id, making ``argmax`` pick the right duplicate.
        """
        if self.n_tasks == 0:
            return []
        entry_bl = bl[self.entries]
        best = entry_bl.max()
        tied = self.entries[entry_bl == best]
        current = int(tied[np.argmin(self.task_ids[tied])])
        path = [current]
        succ_ptr, succ_idx = self.succ_ptr, self.succ_idx
        while succ_ptr[current] != succ_ptr[current + 1]:
            succs = succ_idx[succ_ptr[current] : succ_ptr[current + 1]]
            current = int(succs[np.argmax(bl[succs])])
            path.append(current)
        return path

    def bottom_levels_py(self, durations: List[float]) -> List[float]:
        """Scalar bottom-level DP over Python lists (small-graph fast path).

        Bit-identical to :meth:`bottom_levels` -- it performs the very
        same additions and (exact) maxima in reverse topological order --
        but avoids all NumPy dispatch overhead, which dominates on graphs
        below :data:`SMALL_GRAPH_CUTOFF` tasks.  *durations* and the
        result are plain Python lists indexed like :attr:`task_ids`.
        """
        bl = [0.0] * self.n_tasks
        succ_of = self.succ_tuples
        for v in self.topo_reversed:
            best = 0.0
            for s in succ_of[v]:
                w = bl[s]
                if w > best:
                    best = w
            bl[v] = durations[v] + best
        return bl


#: Per-graph list fields gathered by :func:`_gather`, with the dtype the
#: concatenated arena (or the single-graph array) is built with.
_FIELD_DTYPES: Tuple[Tuple[str, type], ...] = (
    ("task_ids", np.int64),
    ("flops", np.float64),
    ("alpha", np.float64),
    ("synthetic", bool),
    ("topo", np.int64),
    ("levels", np.int64),
    ("level_members", np.int64),
    ("level_offsets", np.int64),
    ("pred_ptr", np.int64),
    ("pred_idx", np.int64),
    ("succ_ptr", np.int64),
    ("succ_idx", np.int64),
    ("entries", np.int64),
    ("exits", np.int64),
)


def _gather(ptg: "PTG") -> Dict[str, object]:
    """Collect one graph's compilation data as plain Python lists.

    Shared by :func:`compile_arrays` (which wraps each list in its own
    array) and :func:`compile_arrays_batch` (which concatenates the lists
    of a whole batch into one arena per field).  All indices are local to
    the graph, so a slice of the concatenated arena is exactly the array
    the single-graph compilation would have produced.
    """
    tasks = ptg.tasks()
    n = len(tasks)
    task_ids = [t.task_id for t in tasks]
    index_of = {tid: i for i, tid in enumerate(task_ids)}

    # the graph's cached topological order and precedence levels; their
    # iteration order defines the per-level member order reproduced below
    topo = [index_of[tid] for tid in ptg.topological_order()]
    level_of = ptg.precedence_levels()
    levels = [level_of[t.task_id] for t in tasks]
    depth = max(levels) + 1 if n else 0
    members_per_level: List[List[int]] = [[] for _ in range(depth)]
    for tid, level in level_of.items():  # dict order == tasks_by_level order
        members_per_level[level].append(index_of[tid])
    level_members: List[int] = []
    level_offsets: List[int] = [0]
    for members in members_per_level:
        level_members.extend(members)
        level_offsets.append(len(level_members))

    # CSR adjacency, each list sorted by neighbour task id so vectorized
    # argmax tie-breaks match the reference sorted() iteration
    pred_ptr: List[int] = [0]
    succ_ptr: List[int] = [0]
    pred_idx: List[int] = []
    succ_idx: List[int] = []
    for task in tasks:
        pred_idx.extend(index_of[p] for p in sorted(ptg.predecessors(task.task_id)))
        succ_idx.extend(index_of[s] for s in sorted(ptg.successors(task.task_id)))
        pred_ptr.append(len(pred_idx))
        succ_ptr.append(len(succ_idx))

    return {
        "task_ids": task_ids,
        "index_of": index_of,
        "flops": [t.flops for t in tasks],
        "alpha": [t.alpha for t in tasks],
        "synthetic": [t.is_synthetic for t in tasks],
        "topo": topo,
        "levels": levels,
        "level_members": level_members,
        "level_offsets": level_offsets,
        "pred_ptr": pred_ptr,
        "pred_idx": pred_idx,
        "succ_ptr": succ_ptr,
        "succ_idx": succ_idx,
        "entries": [i for i in range(n) if pred_ptr[i] == pred_ptr[i + 1]],
        "exits": [i for i in range(n) if succ_ptr[i] == succ_ptr[i + 1]],
    }


def compile_arrays(ptg: "PTG") -> DagArrays:
    """Compile *ptg* into a :class:`DagArrays`.

    Prefer :meth:`repro.dag.graph.PTG.arrays`, which caches the result on
    the graph and invalidates it on mutation.  Raises
    :class:`~repro.exceptions.InvalidGraphError` for an empty or cyclic
    graph (via the graph's own topological sort).
    """
    if ptg.n_tasks == 0:
        raise InvalidGraphError(f"PTG {ptg.name!r} is empty")
    gathered = _gather(ptg)
    return DagArrays(
        index_of=gathered["index_of"],
        **{
            name: np.array(gathered[name], dtype=dtype)
            for name, dtype in _FIELD_DTYPES
        },
    )


def compile_arrays_batch(ptgs: Sequence["PTG"]) -> List[DagArrays]:
    """Compile a batch of PTGs at once, sharing one backing arena.

    For every graph without a cached compilation, the per-field data of
    the whole batch is concatenated and converted with **one**
    list-to-array pass per field; each graph's :class:`DagArrays` then
    views its slice of the shared buffers.  Amortizing the array
    construction this way makes admitting a :meth:`StreamSession.feed
    <repro.streaming.engine.StreamSession.feed>` chunk or a campaign
    shard noticeably cheaper than compiling arrival-by-arrival, while the
    per-graph values stay identical to :func:`compile_arrays` (the same
    Python lists feed the same dtype conversion).

    Results are seeded into each graph's cache, so a later
    :meth:`~repro.dag.graph.PTG.arrays` call reuses them; graphs already
    compiled are left untouched.  Raises
    :class:`~repro.exceptions.InvalidGraphError` on an empty or cyclic
    graph, like the single-graph compilation.
    """
    pending: List["PTG"] = []
    seen_ids = set()
    for ptg in ptgs:
        if id(ptg) in seen_ids or "arrays" in ptg._cache:
            continue
        seen_ids.add(id(ptg))
        if ptg.n_tasks == 0:
            raise InvalidGraphError(f"PTG {ptg.name!r} is empty")
        pending.append(ptg)

    if pending:
        gathered = [_gather(ptg) for ptg in pending]
        views: List[Dict[str, np.ndarray]] = [{} for _ in pending]
        for name, dtype in _FIELD_DTYPES:
            flat: List[object] = []
            offsets = [0]
            for g in gathered:
                flat.extend(g[name])
                offsets.append(len(flat))
            arena = np.array(flat, dtype=dtype)
            for i in range(len(pending)):
                views[i][name] = arena[offsets[i] : offsets[i + 1]]
        for ptg, g, kwargs in zip(pending, gathered, views):
            ptg._cache["arrays"] = DagArrays(index_of=g["index_of"], **kwargs)

    return [ptg.arrays() for ptg in ptgs]
