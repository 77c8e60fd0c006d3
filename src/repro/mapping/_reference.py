"""Pre-refactor reference implementations of the placement hot path.

The optimized mapping core (incrementally sorted timelines, batched EFT
candidate evaluation, heap-based ready queue) must produce **bit-identical
schedules** to the straightforward formulation it replaced.  This module
keeps that original formulation alive:

* :class:`ReferenceClusterTimeline` -- per-query ``np.partition`` /
  ``np.lexsort`` over the processor free times,
* :class:`ReferenceCommunicationEstimator` -- uncached topology queries
  per transfer estimate,
* :class:`ReferencePlacementEngine` -- every cluster evaluated in
  declaration order, data-ready times re-read from the schedule per
  cluster, one timeline query per candidate processor count of the
  packing sweep, scalar Amdahl durations,
* :class:`ReferenceReadyListMapper` -- list re-sorted per event, readiness
  discovered by rescanning the completed set,
* :func:`reference_implementation` -- a context manager that swaps the
  reference classes into every consumer (mappers, baselines, schedulers),
  so a whole pipeline can be replayed on the pre-refactor code path.

It exists only for the golden-schedule tests
(``tests/test_mapping_golden.py``, ``tests/test_delta_golden.py``), the
old-vs-new benchmarks (``benchmarks/bench_mapping_core.py``,
``benchmarks/bench_delta_eft.py``) and the bit-identity oracles of the
repo benchmark (``perfbench/oracle.py``); production code must import
the optimized classes from :mod:`repro.mapping`.
"""

from __future__ import annotations

import contextlib
import heapq
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.exceptions import MappingError
from repro.mapping.base import AllocatedPTG, Mapper
from repro.mapping.eft import PlacementDecision, PlacementEngine
from repro.mapping.schedule import Schedule
from repro.platform.cluster import Cluster
from repro.platform.multicluster import MultiClusterPlatform


class ReferenceClusterTimeline:
    """Original :class:`~repro.mapping.timeline.ClusterTimeline`.

    Every ``earliest_start`` pays an O(P) :func:`numpy.partition` and
    every ``select_processors`` an O(P log P) :func:`numpy.lexsort`.
    """

    def __init__(self, cluster: Cluster) -> None:
        self.cluster = cluster
        self._free_at = np.zeros(cluster.num_processors, dtype=float)
        self._txn_active = False
        self._txn_saved = None

    @property
    def num_processors(self) -> int:
        """Number of processors of the underlying cluster."""
        return self.cluster.num_processors

    def begin_transaction(self) -> None:
        """Start recording reservations so they can be rolled back."""
        self._txn_active = True
        self._txn_saved = None

    def commit_transaction(self) -> None:
        """Keep the reservations made since :meth:`begin_transaction`."""
        self._txn_active = False
        self._txn_saved = None

    def rollback_transaction(self) -> None:
        """Restore the timeline to its :meth:`begin_transaction` state."""
        if self._txn_saved is not None:
            self._free_at = self._txn_saved
        self._txn_active = False
        self._txn_saved = None

    def free_times(self) -> np.ndarray:
        """A copy of the per-processor free times."""
        return self._free_at.copy()

    def earliest_start(self, processors: int, ready_time: float) -> float:
        """Earliest start via a fresh partition of the free times."""
        if processors < 1 or processors > self.num_processors:
            raise MappingError(
                f"cannot reserve {processors} processors on cluster "
                f"{self.cluster.name!r} ({self.num_processors} available)"
            )
        if ready_time < 0:
            raise MappingError(f"ready_time must be non-negative, got {ready_time}")
        kth_free = float(np.partition(self._free_at, processors - 1)[processors - 1])
        return max(ready_time, kth_free)

    def select_processors(self, processors: int) -> List[int]:
        """Earliest-free processor indices via a full lexsort."""
        if processors < 1 or processors > self.num_processors:
            raise MappingError(
                f"cannot reserve {processors} processors on cluster "
                f"{self.cluster.name!r} ({self.num_processors} available)"
            )
        order = np.lexsort((np.arange(self.num_processors), self._free_at))
        return [int(i) for i in order[:processors]]

    def reserve(
        self, processors: int, ready_time: float, duration: float
    ) -> Tuple[List[int], float, float]:
        """Reserve *processors* processors for *duration* seconds."""
        if duration < 0:
            raise MappingError(f"duration must be non-negative, got {duration}")
        start = self.earliest_start(processors, ready_time)
        indices = self.select_processors(processors)
        finish = start + duration
        if self._txn_active and self._txn_saved is None:
            self._txn_saved = self._free_at.copy()
        self._free_at[indices] = finish
        return indices, start, finish

    def utilisation(self, horizon: float) -> float:
        """Fraction of processor time booked up to *horizon* (diagnostics)."""
        if horizon <= 0:
            return 0.0
        booked = float(np.clip(self._free_at, 0.0, horizon).sum())
        return booked / (horizon * self.num_processors)


class ReferenceCommunicationEstimator:
    """Original estimator: one topology query per transfer estimate.

    No memoization of path parameters or transfer times, so the golden
    comparison also covers the caching added to
    :class:`repro.mapping.comm.CommunicationEstimator`.
    """

    def __init__(self, platform: MultiClusterPlatform) -> None:
        self.platform = platform
        self.topology = platform.topology

    def transfer_time(
        self, data_bytes: float, src_cluster: str, dst_cluster: str
    ) -> float:
        """Estimated redistribution time, recomputed from the topology."""
        if data_bytes < 0:
            raise MappingError(f"data_bytes must be non-negative, got {data_bytes}")
        if src_cluster not in self.platform or dst_cluster not in self.platform:
            raise MappingError(
                f"unknown cluster in transfer {src_cluster!r} -> {dst_cluster!r}"
            )
        if data_bytes == 0:
            return 0.0
        if src_cluster == dst_cluster:
            return 0.0
        latency = self.topology.path_latency(src_cluster, dst_cluster)
        bandwidth = self.topology.route_bandwidth(
            src_cluster,
            dst_cluster,
            self.platform.cluster(src_cluster).num_processors,
            self.platform.cluster(dst_cluster).num_processors,
        )
        return latency + data_bytes / bandwidth

    def worst_case_transfer_time(self, data_bytes: float) -> float:
        """Largest transfer estimate over all cluster pairs."""
        names = self.platform.cluster_names()
        return max(
            self.transfer_time(data_bytes, a, b) for a in names for b in names
        )


class ReferencePlacementEngine(PlacementEngine):
    """Original EFT engine: a full declaration-order scan of every cluster.

    Inherits :meth:`place` but overrides the cluster selection
    with the pre-refactor formulation -- per-cluster data-ready times and
    one timeline query per packing candidate -- and defaults to the
    uncached :class:`ReferenceCommunicationEstimator`.
    """

    def __init__(self, platform, enable_packing=True, comm=None):
        super().__init__(
            platform,
            enable_packing=enable_packing,
            comm=comm or ReferenceCommunicationEstimator(platform),
        )

    def data_ready_time(
        self, ptg_name, task_id, predecessors, schedule, dst_cluster, not_before=0.0
    ):
        """Earliest time the inputs of a task are available on *dst_cluster*.

        *predecessors* is a list of ``(pred_task_id, edge_data_bytes)``;
        each predecessor must already be in *schedule*.
        """
        ready = not_before
        for pred_id, data_bytes in predecessors:
            pred_entry = schedule.entry(ptg_name, pred_id)
            transfer = self.comm.transfer_time(
                data_bytes, pred_entry.cluster_name, dst_cluster
            )
            ready = max(ready, pred_entry.finish + transfer)
        return ready

    def _evaluate_cluster(self, task, allocation, cluster_name, ready_time):
        """Best ``(procs, start, finish, packed, original)`` on one cluster."""
        cluster = self.platform.cluster(cluster_name)
        timeline = self.timelines.timeline(cluster_name)
        requested = allocation.cluster_processors(task, cluster)
        requested = min(requested, cluster.num_processors)

        def start_finish(procs: int) -> Tuple[float, float]:
            start = timeline.earliest_start(procs, ready_time)
            duration = task.execution_time(procs, cluster.speed_flops)
            return start, start + duration

        start, finish = start_finish(requested)
        best = (requested, start, finish, False, requested)
        if not self.enable_packing or requested == 1:
            return best
        if start <= ready_time + 1e-12:
            return best
        for procs in range(requested - 1, 0, -1):
            alt_start, alt_finish = start_finish(procs)
            if alt_start < start - 1e-12 and alt_finish <= finish + 1e-12:
                if alt_finish < best[2] - 1e-12 or (
                    abs(alt_finish - best[2]) <= 1e-12 and alt_start < best[1]
                ):
                    best = (procs, alt_start, alt_finish, True, requested)
        return best

    def _select(
        self, ptg_name, task, allocation, predecessors, schedule, not_before
    ):
        """Evaluate every cluster; earliest ``(finish, start)`` wins.

        Ties are broken by the platform's cluster declaration order.
        """
        best_decision: Optional[PlacementDecision] = None
        for cluster in self.platform:
            ready = self.data_ready_time(
                ptg_name, task.task_id, predecessors, schedule, cluster.name, not_before
            )
            procs, start, finish, packed, original = self._evaluate_cluster(
                task, allocation, cluster.name, ready
            )
            decision = PlacementDecision(
                cluster_name=cluster.name,
                processors=procs,
                start=start,
                finish=finish,
                packed=packed,
                original_processors=original,
            )
            if best_decision is None or (decision.finish, decision.start) < (
                best_decision.finish,
                best_decision.start,
            ):
                best_decision = decision
        if best_decision is None:  # pragma: no cover - platform is never empty
            raise MappingError("platform has no cluster to place the task on")
        return best_decision


class ReferenceReadyListMapper(Mapper):
    """Original ready-list mapper: per-event sort + completed-set rescan."""

    name = "ready-list"

    def __init__(self, enable_packing: bool = True) -> None:
        self.enable_packing = enable_packing

    def map(
        self, allocated: Sequence[AllocatedPTG], platform: MultiClusterPlatform
    ) -> Schedule:
        """Map all applications onto *platform* (pre-refactor event loop)."""
        self._check_inputs(allocated)
        schedule = Schedule(platform.name)
        engine = ReferencePlacementEngine(platform, enable_packing=self.enable_packing)

        apps: Dict[str, AllocatedPTG] = {a.name: a for a in allocated}
        bottom_levels: Dict[str, Dict[int, float]] = {
            name: app.bottom_levels() for name, app in apps.items()
        }
        remaining_preds: Dict[Tuple[str, int], int] = {}
        for name, app in apps.items():
            for task in app.ptg.tasks():
                remaining_preds[(name, task.task_id)] = app.ptg.in_degree(task.task_id)

        ready: List[Tuple[str, int, float]] = []
        for name, app in apps.items():
            for task in app.ptg.entry_tasks():
                ready.append((name, task.task_id, 0.0))

        events: List[Tuple[float, str, int]] = []
        placed: Set[Tuple[str, int]] = set()
        completed: Set[Tuple[str, int]] = set()
        current_time = 0.0

        total_tasks = sum(app.ptg.n_tasks for app in apps.values())

        while ready or events:
            ready.sort(
                key=lambda item: (-bottom_levels[item[0]][item[1]], item[0], item[1])
            )
            for name, task_id, ready_since in ready:
                app = apps[name]
                task = app.ptg.task(task_id)
                predecessors = [
                    (pred, app.ptg.edge_data(pred, task_id))
                    for pred in app.ptg.predecessors(task_id)
                ]
                entry = engine.place(
                    ptg_name=name,
                    task=task,
                    allocation=app.allocation,
                    predecessors=predecessors,
                    schedule=schedule,
                    not_before=max(ready_since, current_time),
                )
                placed.add((name, task_id))
                heapq.heappush(events, (entry.finish, name, task_id))
            ready = []

            if not events:
                break
            finish, name, task_id = heapq.heappop(events)
            current_time = finish
            completed.add((name, task_id))
            while events and abs(events[0][0] - current_time) <= 1e-12:
                _, other_name, other_id = heapq.heappop(events)
                completed.add((other_name, other_id))

            for done_name, done_id in list(completed):
                app = apps[done_name]
                for succ in app.ptg.successors(done_id):
                    key = (done_name, succ)
                    if key in placed or remaining_preds[key] <= 0:
                        continue
                    if all(
                        (done_name, pred) in completed
                        for pred in app.ptg.predecessors(succ)
                    ):
                        remaining_preds[key] = 0
                        ready.append((done_name, succ, current_time))

        if len(schedule) != total_tasks:
            raise MappingError(
                f"ready-list mapping placed {len(schedule)} tasks out of {total_tasks}"
            )
        return schedule


@contextlib.contextmanager
def reference_implementation():
    """Run a ``with`` block on the pre-refactor placement code path.

    Swaps the reference classes into every module that instantiates the
    hot-path components: the timelines used by
    :class:`~repro.mapping.timeline.PlatformTimeline` (and therefore by
    the HEFT / M-HEFT baselines), the placement engine used by the
    mappers and the streaming session, and the ready-list mapper used by
    the concurrent scheduler.  Restores the optimized classes on exit.
    (:class:`~repro.scheduler._reference.ReferenceOnlineScheduler` needs
    no patch: it builds a :class:`ReferencePlacementEngine` itself.)
    """
    import repro.baselines.heft as heft_mod
    import repro.baselines.mheft as mheft_mod
    import repro.mapping.global_order as global_order_mod
    import repro.mapping.ready_list as ready_list_mod
    import repro.mapping.timeline as timeline_mod
    import repro.scheduler.concurrent as concurrent_mod
    import repro.scheduler.single as single_mod
    import repro.streaming.engine as streaming_engine_mod

    patches = [
        (timeline_mod, "ClusterTimeline", ReferenceClusterTimeline),
        (ready_list_mod, "PlacementEngine", ReferencePlacementEngine),
        (global_order_mod, "PlacementEngine", ReferencePlacementEngine),
        (streaming_engine_mod, "PlacementEngine", ReferencePlacementEngine),
        (concurrent_mod, "ReadyListMapper", ReferenceReadyListMapper),
        (single_mod, "ReadyListMapper", ReferenceReadyListMapper),
        (heft_mod, "CommunicationEstimator", ReferenceCommunicationEstimator),
        (mheft_mod, "CommunicationEstimator", ReferenceCommunicationEstimator),
    ]
    saved = [(module, attr, getattr(module, attr)) for module, attr, _ in patches]
    try:
        for module, attr, replacement in patches:
            setattr(module, attr, replacement)
        yield
    finally:
        for module, attr, original in saved:
            setattr(module, attr, original)
