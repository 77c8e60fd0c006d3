"""Earliest-finish-time placement of one allocated task, with packing.

For one ready task the placement engine considers every cluster of the
platform:

1. translate the reference allocation into an actual processor count on
   that cluster,
2. compute the data-ready time on that cluster (predecessor finish times
   plus inter-cluster redistribution estimates),
3. compute the earliest start given processor availability,
4. apply the paper's **allocation packing** mechanism: "if a task has to
   be delayed because all the processors it needs are not available, we
   reduce its allocation if and only if the task can start earlier and
   finish no later than on its original allocation",
5. keep the cluster and processor count with the earliest finish time.

Performance
-----------
The engine is the innermost loop of every mapper, so it runs the
**delta-EFT** selection: instead of fully evaluating every cluster, it
derives an exact per-cluster *lower bound* on the achievable finish time
from the timeline's sorted free-time list
(:meth:`~repro.mapping.timeline.ClusterTimeline.kth_free_list`, spliced
incrementally on reserve): ``max(ready lower bound, first free time) +
duration at the translated allocation``.  Clusters are evaluated in
ascending bound order and the scan stops as soon as the next bound
exceeds the best finish found -- dominated clusters are skipped without
computing their data-ready times or candidates.  Allocation translations
are memoized per cluster, and the packing sweep short-circuits once the
remaining (monotonically non-decreasing) candidate finishes can no
longer be accepted.  Every cutoff is justified by an exact inequality on
the same IEEE-754 quantities the declaration-order scan of the oracle
(:class:`repro.mapping._reference.ReferencePlacementEngine`) computes, so
both produce bit-identical schedules (asserted by
``tests/test_mapping_golden.py`` and ``tests/test_delta_golden.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.allocation.base import Allocation
from repro.dag.task import Task
from repro.exceptions import MappingError
from repro.mapping.comm import CommunicationEstimator
from repro.mapping.schedule import Schedule, ScheduledTask
from repro.mapping.timeline import PlatformTimeline
from repro.obs import meters
from repro.platform.multicluster import MultiClusterPlatform


@dataclass(frozen=True)
class PlacementDecision:
    """Outcome of placing one task on the platform."""

    cluster_name: str
    processors: int
    start: float
    finish: float
    packed: bool
    original_processors: int

    @property
    def was_reduced(self) -> bool:
        """True when the packing mechanism shrank the allocation."""
        return self.processors < self.original_processors


class PlacementEngine:
    """Places allocated tasks one by one, maintaining processor timelines.

    Implements the paper's earliest-finish-time mapping of moldable tasks
    over all clusters, including the allocation packing rule (shrink a
    delayed allocation only when it starts earlier and finishes no later).
    """

    def __init__(
        self,
        platform: MultiClusterPlatform,
        enable_packing: bool = True,
        comm: Optional[CommunicationEstimator] = None,
    ) -> None:
        self.platform = platform
        self.enable_packing = enable_packing
        self.comm = comm or CommunicationEstimator(platform)
        self.timelines = PlatformTimeline(platform)
        self.packed_tasks = 0
        # Per-cluster evaluation context, in declaration order: (cluster,
        # timeline, speed_flops, translation memo), cached once because
        # ``place`` is called for every task of every application.  The
        # memo caches ``ReferenceCluster.translate`` results keyed by
        # (reference speed, reference processors) -- translation is pure
        # integer arithmetic repeated for every task of every admission.
        self._cluster_info = [
            (
                cluster,
                self.timelines.timeline(cluster.name),
                cluster.speed_flops,
                {},
            )
            for cluster in platform
        ]

    # ------------------------------------------------------------------ #
    # cluster selection
    # ------------------------------------------------------------------ #
    def _select(
        self,
        ptg_name: str,
        task: Task,
        allocation: Allocation,
        predecessors: List[Tuple[int, float]],
        schedule: Schedule,
        not_before: float,
    ) -> PlacementDecision:
        """Delta-EFT cluster selection: bound-ordered with early cutoff.

        Bit-identical to the oracle's declaration-order scan of every
        cluster (:class:`repro.mapping._reference.ReferencePlacementEngine`).
        For every cluster, ``max(ready lower bound, first free time) + T(translated procs)``
        is an exact lower bound on any achievable finish there -- packed
        candidates included, since shrinking the allocation only raises
        the duration and the ``k``-th free time is minimal at ``k = 1``.
        Clusters are evaluated in ascending bound order, so once a bound
        exceeds the best finish found the rest are dominated and skipped
        without computing their data-ready times or candidates.  The
        winner is picked by the (unique) lexicographic minimum of
        ``(finish, start, declaration index)``, which equals the
        oracle's first-wins declaration-order scan.
        """
        if not_before < 0:
            raise MappingError(f"ready_time must be non-negative, got {not_before}")
        # Resolve predecessor placements once (the oracle re-reads the
        # schedule per cluster); their maximal finish joins ``not_before``
        # as a transfer-free lower bound on every cluster's ready time.
        preds: List[Tuple[float, str, float]] = []
        ready_floor = not_before
        for pred_id, data_bytes in predecessors:
            entry = schedule.entry(ptg_name, pred_id)
            preds.append((entry.finish, entry.cluster_name, data_bytes))
            if entry.finish > ready_floor:
                ready_floor = entry.finish

        synthetic = task.is_synthetic
        if synthetic:
            alpha = one_minus = flops = 0.0
            ref_procs = 1
        else:
            alpha = task.alpha
            one_minus = 1.0 - alpha
            flops = task.flops
            ref_procs = allocation.processors(task.task_id)
        ref_speed = allocation.reference.speed_gflops
        memo_key = (ref_speed, ref_procs)

        candidates = []
        for decl_index, (cluster, timeline, speed, memo) in enumerate(
            self._cluster_info
        ):
            if synthetic:
                requested = 1
                dur_req = 0.0
            else:
                requested = memo.get(memo_key)
                if requested is None:
                    # translate() clips to [1, cluster size], matching the
                    # oracle's cluster_processors + min()
                    requested = memo[memo_key] = allocation.reference.translate(
                        ref_procs, cluster
                    )
                dur_req = (alpha + one_minus / requested) * flops / speed
            frontier = timeline.kth_free_list()
            kth0 = frontier[0]
            lower_start = ready_floor if ready_floor >= kth0 else kth0
            candidates.append(
                (
                    lower_start + dur_req,
                    decl_index,
                    cluster,
                    requested,
                    dur_req,
                    frontier,
                    speed,
                )
            )
        candidates.sort(key=lambda c: (c[0], c[1]))

        comm = self.comm
        enable_packing = self.enable_packing
        best_finish = best_start = float("inf")
        best_decl = len(candidates)
        best: Optional[Tuple[int, float, float, bool, int, str]] = None
        for bound, decl_index, cluster, requested, dur_req, frontier, speed in (
            candidates
        ):
            if bound > best_finish:
                # every remaining candidate finishes at or above its bound
                break
            cname = cluster.name
            ready = not_before
            for pred_finish, pred_cluster, data_bytes in preds:
                if pred_cluster == cname:
                    t = pred_finish  # intra-cluster transfer is exactly 0.0
                else:
                    t = pred_finish + comm.transfer_time(
                        data_bytes, pred_cluster, cname
                    )
                if t > ready:
                    ready = t
            kth = frontier[requested - 1]
            start = ready if ready >= kth else kth
            finish = start + dur_req

            procs, pstart, pfinish, packed = requested, start, finish, False
            if enable_packing and requested > 1 and start > ready + 1e-12:
                p = requested - 1
                while p >= 1:
                    kthp = frontier[p - 1]
                    if kthp > ready:
                        alt_finish = kthp + (alpha + one_minus / p) * flops / speed
                        if kthp < start - 1e-12 and alt_finish <= finish + 1e-12:
                            if alt_finish < pfinish - 1e-12 or (
                                abs(alt_finish - pfinish) <= 1e-12 and kthp < pstart
                            ):
                                procs, pstart, pfinish, packed = (
                                    p, kthp, alt_finish, True,
                                )
                        p -= 1
                        continue
                    # the frontier is ascending in p, so from here down
                    # every candidate starts exactly at ``ready`` ...
                    if not ready < start - 1e-12:
                        break  # ... which never satisfies "starts earlier"
                    while p >= 1:
                        alt_finish = ready + (alpha + one_minus / p) * flops / speed
                        if alt_finish > finish + 1e-12 or alt_finish > pfinish + 1e-12:
                            # durations only grow as p shrinks, so neither
                            # acceptance bound can be met again: done
                            break
                        if alt_finish < pfinish - 1e-12 or (
                            abs(alt_finish - pfinish) <= 1e-12 and ready < pstart
                        ):
                            procs, pstart, pfinish, packed = (
                                p, ready, alt_finish, True,
                            )
                        p -= 1
                    break

            if (pfinish, pstart, decl_index) < (best_finish, best_start, best_decl):
                best_finish, best_start, best_decl = pfinish, pstart, decl_index
                best = (procs, pstart, pfinish, packed, requested, cname)
        if best is None:  # pragma: no cover - platform is never empty
            raise MappingError("platform has no cluster to place the task on")
        return PlacementDecision(
            cluster_name=best[5],
            processors=best[0],
            start=best[1],
            finish=best[2],
            packed=best[3],
            original_processors=best[4],
        )

    # ------------------------------------------------------------------ #
    # placement
    # ------------------------------------------------------------------ #
    def place(
        self,
        ptg_name: str,
        task: Task,
        allocation: Allocation,
        predecessors: List[Tuple[int, float]],
        schedule: Schedule,
        not_before: float = 0.0,
    ) -> ScheduledTask:
        """Place *task* on the best cluster and commit the reservation.

        Parameters
        ----------
        ptg_name:
            Name of the application the task belongs to.
        task:
            The task to place.
        allocation:
            The application's allocation (reference processors per task).
        predecessors:
            ``(pred_task_id, edge_data_bytes)`` pairs; all predecessors
            must already appear in *schedule*.
        schedule:
            The schedule under construction; the new entry is added to it.
        not_before:
            Lower bound on the start time (the instant the task became
            ready in the event-driven mapper).
        """
        best_decision = self._select(
            ptg_name, task, allocation, predecessors, schedule, not_before
        )

        timeline = self.timelines.timeline(best_decision.cluster_name)
        cluster = self.platform.cluster(best_decision.cluster_name)
        duration = task.execution_time(best_decision.processors, cluster.speed_flops)
        indices, start, finish = timeline.reserve(
            best_decision.processors,
            ready_time=best_decision.start,
            duration=duration,
        )
        if abs(start - best_decision.start) > 1e-6 or abs(finish - best_decision.finish) > 1e-6:
            # The reservation must match the evaluation: both use the same
            # timeline state, so a mismatch means an internal bug.
            raise MappingError(
                f"inconsistent reservation for task {task.task_id} of {ptg_name!r}: "
                f"evaluated [{best_decision.start:.6f}, {best_decision.finish:.6f}] "
                f"but reserved [{start:.6f}, {finish:.6f}]"
            )
        if best_decision.packed:
            self.packed_tasks += 1
        registry = meters.active()
        if registry is not None:
            registry.counter("mapping.placements").inc()
            if best_decision.packed:
                registry.counter("mapping.packed").inc()
            if best_decision.was_reduced:
                registry.histogram(
                    "mapping.packing_reduction", edges=meters.DEFAULT_COUNT_EDGES
                ).observe(
                    best_decision.original_processors - best_decision.processors
                )
        entry = ScheduledTask(
            ptg_name=ptg_name,
            task_id=task.task_id,
            cluster_name=best_decision.cluster_name,
            processors=tuple(indices),
            start=start,
            finish=finish,
            reference_processors=allocation.processors(task.task_id),
        )
        schedule.add(entry)
        return entry
