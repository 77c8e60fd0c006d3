"""The fused CPA-family iterative allocation loop.

:func:`repro.allocation.iterative.run_iterative_allocation` runs this
loop for the three built-in constraint checks.  A single increment only
shortens one task, and :func:`run_fused_loop` exploits exactly that
locality in one flat pass:

* **incremental bottom levels** -- the bottom levels are computed once,
  before the first increment; after an increment only the task and its
  ancestors can change, so the DP is re-run over the dirty cone (a
  flag-guided sweep in decreasing topological position, with an undo
  log for rejected increments) instead of the whole graph;
* **single-entry T_CP** -- the critical path length is read off the
  entry's bottom level instead of a ``max`` over every task, and the
  critical path is walked inline from that entry;
* **O(1) level test** -- SCRAP-MAX keeps an exact integer processor
  count per precedence level and decides ``level power > limit`` from
  ``count * speed`` unless that value lies inside a rounding band around
  the limit; the test reads no bottom level, so it runs before the cone
  sweep and a rejected increment skips propagation and undo;
* **freeze-skip** -- a rejected increment under SCRAP-MAX restores the
  state bit-for-bit, so the next iteration's bottom levels, critical
  path and balance test are *the same floats* as the last one's and are
  reused instead of recomputed (the iteration is still counted against
  ``max_iterations``);
* **flat hot path** -- the constraint dispatch is hoisted out of the
  loop; candidate filtering, the ``(gain, -task_id)`` selection and the
  per-increment table refresh run inline on lazily-materialised Python
  rows of the precomputed tables, with no per-iteration function calls
  besides the cone sweep.

Exactness
---------
Every float the loop produces is bit-identical to the dict-based loop
in :mod:`repro.allocation._reference`:

* recomputing a node's bottom level from unchanged inputs yields the
  identical IEEE-754 value, so propagating only nodes whose recomputed
  value differs (and their predecessors), in decreasing topological
  position, reproduces the full DP exactly;
* ``ptg.validate()`` guarantees a single entry, an ancestor of every
  task, and durations are non-negative, so ``fl(d + m) >= m`` makes the
  entry's bottom level the very float ``max(bl)`` returns; the inline
  walk keeps the first maximal successor of the tid-sorted adjacency,
  the smallest-tid tie-break of the reference walk;
* the level test is decided without summing only where the rounding
  band (derived at the test) proves the reference's fold-left sum lands
  on the same side of ``beta * P + 1e-12``; inside the band it runs
  that very sum, over the level members in ``tasks_by_level`` order, as
  :meth:`~repro.allocation.base.Allocation.level_power` does;
* the balance and area comparisons use the same fold-left ``sum`` over
  the incrementally maintained areas and the same limits, in the same
  operation order as
  :meth:`~repro.allocation.base.Allocation.average_power`;
* the candidate scan keeps the first maximal ``(gain, -task_id)`` key
  exactly like the reference's ``max(candidates, key=...)``: a
  candidate only replaces the incumbent on a strictly greater key;
* the inline increment / revert reads the duration and area of the new
  processor count off the state's precomputed tables (bounds always
  hold: growth is filtered by ``procs < cap``).

``tests/test_allocation_golden.py`` and ``tests/test_delta_golden.py``
assert the resulting allocations and :class:`IterationStats` match the
reference across procedures, workload families and betas, and with the
SCRAP-MAX limit placed a few ULPs from a reachable level sum, inside the
band.  Custom :class:`~repro.allocation.iterative.ConstraintCheck`
subclasses never reach this module: the dispatcher runs them on the
reference loop.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.allocation.iterative import ConstraintCheck, IterationStats
    from repro.allocation.state import AllocationState


def _propagate(
    start: int,
    bl: List[float],
    durations: List[float],
    succ_of: Tuple[Tuple[int, ...], ...],
    pred_of: Tuple[Tuple[int, ...], ...],
    topo_order: List[int],
    topo_pos: List[int],
    dirty: List[bool],
) -> List[Tuple[int, float]]:
    """Re-run the bottom-level DP over the dirty cone above *start*.

    The sweep walks the topological order downwards from *start*'s
    position, recomputing exactly the flagged nodes; a node's
    predecessors are flagged only when its value actually changed.
    Every successor of a node is final before the node itself is
    recomputed -- the exact evaluation order (and hence the exact
    floats) of the full reverse-topological pass.  *dirty* is a
    caller-owned scratch list of ``False`` flags; the sweep leaves it
    all-``False`` again (every flagged node sits at a lower position
    and is therefore visited).  Returns an undo log of ``(index, old
    value)`` pairs so a rejected tentative increment can be rolled
    back.
    """
    undo: List[Tuple[int, float]] = []
    dirty[start] = True
    for pos in range(topo_pos[start], -1, -1):
        v = topo_order[pos]
        if not dirty[v]:
            continue
        dirty[v] = False
        best = 0.0
        for s in succ_of[v]:
            w = bl[s]
            if w > best:
                best = w
        new = durations[v] + best
        old = bl[v]
        if new == old:
            continue
        undo.append((v, old))
        bl[v] = new
        for p in pred_of[v]:
            dirty[p] = True
    return undo


def run_fused_loop(
    state: "AllocationState",
    constraint: "ConstraintCheck",
    stats: "IterationStats",
    use_balance_stop: bool,
    max_iterations: int,
    efficiency_threshold: float,
    effective_ref_size: float,
) -> None:
    """Run the fused allocation iteration, mutating *state* and *stats*.

    The loop body of
    :func:`repro.allocation.iterative.run_iterative_allocation` for the
    built-in constraint checks; produces allocations and iteration
    diagnostics bit-identical to the reference loop (see the module
    docstring for the argument).
    """
    from repro.allocation.iterative import AreaConstraint, LevelConstraint

    arrays = state.arrays
    task_ids = arrays.task_ids_tuple
    synthetic = arrays.synthetic_tuple
    succ_of = arrays.succ_tuples
    pred_of = arrays.pred_tuples
    n = arrays.n_tasks
    # ptg.validate() guarantees a single entry, an ancestor of every task
    (entry,) = arrays.entries_tuple
    topo_order = arrays.topo.tolist()
    topo_pos = [0] * n
    for pos, v in enumerate(topo_order):
        topo_pos[v] = pos
    dirty = [False] * n

    durations = state.durations  # live views: kept in sync by the
    areas = state.areas  # inline increment / revert below
    procs = state.procs
    cap = state.cap
    frozen: set = set()
    efficiency_guard = efficiency_threshold - 1e-12
    use_efficiency_guard = efficiency_threshold > 0.0
    bl = state.bottom_levels()

    # constraint dispatch hoisted out of the loop: 0 = none, 1 = area
    # (SCRAP average power), 2 = level (SCRAP-MAX per-level power)
    speed_gflops = state.reference.speed_gflops
    check_kind = 0
    area_limit = level_limit = 0.0
    if type(constraint) is AreaConstraint:
        check_kind = 1
        area_limit = constraint.beta * constraint.platform_power_gflops + 1e-12
    elif type(constraint) is LevelConstraint:
        check_kind = 2
        level_limit = constraint.beta * constraint.platform_power_gflops + 1e-12
        level_of = arrays.levels_tuple
        level_members = arrays.level_tuples
        # exact integer processor count of each level's real tasks, and
        # the relative half-width of the rounding band around count * speed
        level_procs = [
            sum(procs[i] for i in members if not synthetic[i])
            for members in level_members
        ]
        level_band = [(len(members) + 2) * 2.0**-52 for members in level_members]
    stop_on_violation = constraint.stop_on_violation

    # lazily materialised Python rows of the precomputed tables: only
    # the rows of touched tasks pay the conversion
    gain_rows: List[Optional[List[float]]] = [None] * n
    dur_rows: List[Optional[List[float]]] = [None] * n
    area_rows: List[Optional[List[float]]] = [None] * n
    eff_rows: List[Optional[List[float]]] = [None] * n

    # After a freeze the state is restored bit-for-bit, so the bottom
    # levels, balance test and critical path of the next iteration are
    # the floats already in hand -- only the candidate filter changes.
    path_valid = False
    path: List[int] = []
    while stats.iterations < max_iterations:
        stats.iterations += 1
        if not path_valid:
            # durations are non-negative, so fl(d + m) >= m: the entry's
            # bottom level is the very float max(bl) would return
            t_cp = bl[entry]
            if t_cp <= 0.0:
                # graph of only synthetic tasks: nothing to allocate
                break
            if use_balance_stop:
                if t_cp <= sum(areas) / effective_ref_size:
                    stats.stopped_by_balance = True
                    break
            # critical path walk from the entry; the adjacency is
            # tid-sorted, so keeping the first maximal bottom level is
            # the smallest-tid tie-break of the reference walk
            path = [entry]
            succs = succ_of[entry]
            while succs:
                step = succs[0]
                top = bl[step]
                for s in succs:
                    w = bl[s]
                    if w > top:
                        top, step = w, s
                path.append(step)
                succs = succ_of[step]
            path_valid = True

        # fused candidate filter + (gain, -task_id) argmax over the
        # critical path; only a strictly greater key replaces the
        # incumbent, like the reference's first-maximal ``max``
        best = -1
        best_gain = 0.0
        best_tid = 0
        for i in path:
            if synthetic[i] or i in frozen:
                continue
            p = procs[i]
            if p >= cap:
                continue
            if use_efficiency_guard:
                eff = eff_rows[i]
                if eff is None:
                    eff = eff_rows[i] = state.efficiency_row(i)
                if eff[p] < efficiency_guard:
                    continue
            row = gain_rows[i]
            if row is None:
                row = gain_rows[i] = state.gain_row(i)
            g = row[p - 1]
            tid = task_ids[i]
            if best < 0 or g > best_gain or (g == best_gain and tid < best_tid):
                best, best_gain, best_tid = i, g, tid
        if best < 0:
            stats.stopped_by_saturation = True
            break

        # inline increment; bounds always hold (p < cap)
        p1 = procs[best] + 1
        procs[best] = p1
        violated = False
        if check_kind == 2:
            # The level power reads no bottom level, so it is tested
            # before the cone sweep: a rejected increment skips both the
            # propagation and its undo.
            #
            # Rounding band, with u = 2**-53 and k = len(members): the
            # reference folds the k terms fl(p_i * s) left to right
            # (synthetic members add an exact 0.0).  Each product is
            # within u of p_i * s, and a fold-left of k non-negative
            # terms is within gamma_(k-1) = (k-1)u / (1 - (k-1)u) of
            # their exact sum, so the reference sum lies within gamma_k
            # of T = count * s.  power = fl(count * s) is one more
            # rounding (count < 2**53 converts exactly), so the sum lies
            # within (k + 1)u * power, up to O(k**2 u**2).  The band
            # 2(k + 2)u * power leaves a further (k + 3)u * power for the
            # roundings of the band and of power -/+ band.  CPython >=
            # 3.12 sums floats with compensation, within 4u * power of
            # power, which the band covers as well.  Outside the band the
            # comparison is decided; inside it the reference's own sum,
            # in the same member order, decides.
            level = level_of[best]
            count = level_procs[level] + 1
            power = count * speed_gflops
            band = power * level_band[level]
            if power - band > level_limit:
                violated = True
            elif power + band >= level_limit:
                violated = (
                    sum(
                        0.0 if synthetic[i] else procs[i] * speed_gflops
                        for i in level_members[level]
                    )
                    > level_limit
                )
        if not violated:
            drow = dur_rows[best]
            if drow is None:
                drow = dur_rows[best] = state.duration_row(best)
            arow = area_rows[best]
            if arow is None:
                arow = area_rows[best] = state.area_row(best)
            durations[best] = drow[p1 - 1]
            areas[best] = arow[p1 - 1]
            undo = _propagate(
                best, bl, durations, succ_of, pred_of, topo_order, topo_pos, dirty
            )
            if check_kind == 1:
                # operation order of Allocation.average_power, with the
                # critical path length read off the entry's bottom level
                cp = bl[entry]
                if cp > 0.0 and sum(areas) * speed_gflops / cp > area_limit:
                    violated = True
                    durations[best] = drow[p1 - 2]
                    areas[best] = arow[p1 - 2]
                    for index, old in undo:
                        bl[index] = old

        if violated:
            procs[best] = p1 - 1
            if stop_on_violation:
                stats.stopped_by_constraint = True
                break
            frozen.add(best)
            stats.frozen_tasks += 1
            continue
        if check_kind == 2:
            level_procs[level] = count
        stats.increments += 1
        path_valid = False
