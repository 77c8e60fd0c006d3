"""Reactive schedule repair around a deterministic fault timeline.

:func:`repair_schedule` takes a planned
:class:`~repro.mapping.schedule.Schedule`, the graphs that produced it
and a compiled :class:`~repro.faults.timeline.FaultTimeline`, and walks
the timeline's failure events chronologically.  At each event (a
down-window start) it

1. **keeps** every entry that completed before the event and every
   running entry whose processors are untouched by the windows opening
   at that instant;
2. **kills** the running entries caught on a failing processor (their
   partial work is lost and they must re-execute in full);
3. **re-plans** the killed tasks together with the whole not-yet-started
   tail of the schedule onto the surviving capacity, using the existing
   mapping core: a fresh
   :class:`~repro.mapping.eft.PlacementEngine` seeded with the kept
   reservations and with every still-relevant down window blocked
   (:meth:`~repro.mapping.timeline.ClusterTimeline.block`), driven by
   the same ready-list discipline as
   :class:`~repro.mapping.ready_list.ReadyListMapper`.

Re-planning the full tail (not just the overlapping entries) keeps the
precedence invariant trivially: a moved task can only push its
descendants later, and they are all re-placed behind it.  Because every
window with an end beyond the event instant is blocked up front,
repaired placements can never overlap a later window -- only originally
kept running entries can be killed by subsequent events, so the walk
terminates after at most one re-plan per event.

The allocations are **reconstructed** from the schedule itself: each
task's reference processor count is read back from its original entry
and replayed onto a fresh :class:`~repro.allocation.base.Allocation`
against :meth:`ReferenceCluster.of(platform)
<repro.allocation.reference.ReferenceCluster.of>`, so repair needs no
access to the allocator that produced the plan.

Everything is deterministic: the same schedule, graphs and timeline
always produce a bit-identical repaired schedule and identical
degradation metrics.  Degradation windows (bandwidth / slowdown) do not
constrain the repaired plan -- they perturb *execution*, which the
perturbed executor measures; the repair reacts to capacity loss only.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.allocation.base import Allocation
from repro.allocation.reference import ReferenceCluster
from repro.dag.graph import PTG
from repro.exceptions import SimulationError
from repro.faults.timeline import FAULT_EPS, FaultTimeline
from repro.mapping.base import AllocatedPTG
from repro.mapping.eft import PlacementEngine
from repro.mapping.schedule import Schedule, ScheduledTask
from repro.obs import meters, trace
from repro.platform.multicluster import MultiClusterPlatform

TaskKey = Tuple[str, int]


@dataclass(frozen=True)
class KilledTask:
    """One task killed by a fault window.

    ``work_lost`` is the partial work thrown away (processor-seconds
    executed between the task's start and the kill instant);
    ``work_reexecuted`` the full processor-seconds the re-placed run
    costs again.
    """

    ptg_name: str
    task_id: int
    cluster_name: str
    time: float
    work_lost: float
    work_reexecuted: float


@dataclass(frozen=True)
class FaultEvent:
    """One failure event the repair reacted to.

    ``recovery_latency`` is the delay between the event instant and the
    earliest re-placed start of a killed task (0 when the event killed
    nothing and only the tail was re-planned).
    """

    time: float
    killed: Tuple[KilledTask, ...]
    replanned: int
    recovery_latency: float


@dataclass
class RepairOutcome:
    """A repaired schedule plus its degradation metrics."""

    schedule: Schedule
    baseline_makespan: float
    repaired_makespan: float
    events: List[FaultEvent] = field(default_factory=list)

    @property
    def makespan_inflation(self) -> float:
        """Repaired over baseline global makespan (1.0 = no degradation)."""
        if self.baseline_makespan <= 0:
            return 1.0
        return self.repaired_makespan / self.baseline_makespan

    @property
    def killed_tasks(self) -> List[KilledTask]:
        """Every killed task, in event order."""
        return [task for event in self.events for task in event.killed]

    @property
    def work_lost(self) -> float:
        """Processor-seconds of partial executions thrown away."""
        return sum(task.work_lost for task in self.killed_tasks)

    @property
    def work_reexecuted(self) -> float:
        """Processor-seconds re-executed by the re-placed killed tasks."""
        return sum(task.work_reexecuted for task in self.killed_tasks)

    @property
    def recovery_latency(self) -> float:
        """Worst per-event recovery latency (0 without kills)."""
        latencies = [e.recovery_latency for e in self.events if e.killed]
        return max(latencies) if latencies else 0.0

    def metrics(self) -> Dict:
        """The degradation metrics as one plain-JSON dict."""
        return {
            "events": len(self.events),
            "killed_tasks": len(self.killed_tasks),
            "baseline_makespan": self.baseline_makespan,
            "repaired_makespan": self.repaired_makespan,
            "makespan_inflation": self.makespan_inflation,
            "recovery_latency": self.recovery_latency,
            "work_lost": self.work_lost,
            "work_reexecuted": self.work_reexecuted,
        }


def _rebuild_allocation(
    ptg: PTG, reference: ReferenceCluster, base: Schedule
) -> Allocation:
    """Reconstruct a task's-eye allocation from the schedule entries.

    The reference processor counts the mapper translated are recorded on
    every :class:`~repro.mapping.schedule.ScheduledTask`, so the
    allocation step never needs to re-run.
    """
    allocation = Allocation(ptg, reference)
    for task in ptg.tasks():
        allocation.set_processors(
            task.task_id, base.entry(ptg.name, task.task_id).reference_processors
        )
    return allocation


def _replan(
    graphs: Mapping[str, PTG],
    original: Schedule,
    current: Schedule,
    platform: MultiClusterPlatform,
    timeline: FaultTimeline,
    now: float,
    killed_keys: Set[TaskKey],
    releases: Mapping[str, float],
    enable_packing: bool,
) -> Tuple[Schedule, int, float]:
    """One repair pass at instant *now*.

    Returns ``(repaired schedule, number of re-planned tasks, earliest
    re-placed start of a killed task)`` (``inf`` without kills).
    """
    repaired = Schedule(platform.name)
    replanned: Dict[str, Set[int]] = {}
    kept: List[ScheduledTask] = []
    for key in sorted(
        (entry.ptg_name, entry.task_id) for entry in current
    ):
        entry = current.entry(*key)
        if key in killed_keys or entry.start >= now - FAULT_EPS:
            replanned.setdefault(key[0], set()).add(key[1])
        else:
            kept.append(entry)
            repaired.add(entry)

    engine = PlacementEngine(platform, enable_packing=enable_packing)
    # seed the fresh timelines: kept reservations first, then every down
    # window still relevant at this instant (conservatively blocked to
    # its end -- see ClusterTimeline.block)
    for entry in kept:
        engine.timelines.timeline(entry.cluster_name).block(
            entry.processors, entry.finish
        )
    for window in timeline.windows:
        if window.end > now + FAULT_EPS:
            engine.timelines.timeline(window.cluster_name).block(
                window.processors, window.end
            )

    reference = ReferenceCluster.of(platform)
    allocations: Dict[str, Allocation] = {}
    levels: Dict[str, Dict[int, float]] = {}
    for name in sorted(replanned):
        ptg = graphs[name]
        allocation = _rebuild_allocation(ptg, reference, original)
        allocations[name] = allocation
        levels[name] = AllocatedPTG(ptg, allocation).bottom_levels()

    # ready-list discipline over the re-planned set only: a task waits
    # for its re-planned predecessors; kept predecessors are already in
    # the repaired schedule, so the placement engine reads their finish
    # times from it.
    remaining: Dict[TaskKey, int] = {}
    ready: List[Tuple[float, str, int, float]] = []
    for name in sorted(replanned):
        ptg = graphs[name]
        tids = replanned[name]
        release = max(now, releases.get(name, 0.0))
        for tid in sorted(tids):
            preds = sum(1 for p in ptg.predecessors(tid) if p in tids)
            remaining[(name, tid)] = preds
            if preds == 0:
                heapq.heappush(ready, (-levels[name][tid], name, tid, release))

    events: List[Tuple[float, str, int]] = []
    placed: Set[TaskKey] = set()
    current_time = now
    earliest_killed_start = float("inf")
    while ready or events:
        while ready:
            _, name, tid, ready_since = heapq.heappop(ready)
            if (name, tid) in placed:
                continue  # pragma: no cover - entries are pushed once
            ptg = graphs[name]
            predecessors = [
                (pred, ptg.edge_data(pred, tid)) for pred in ptg.predecessors(tid)
            ]
            entry = engine.place(
                ptg_name=name,
                task=ptg.task(tid),
                allocation=allocations[name],
                predecessors=predecessors,
                schedule=repaired,
                not_before=max(ready_since, current_time),
            )
            placed.add((name, tid))
            if (name, tid) in killed_keys and entry.start < earliest_killed_start:
                earliest_killed_start = entry.start
            heapq.heappush(events, (entry.finish, name, tid))
        if not events:
            break
        finish, name, tid = heapq.heappop(events)
        current_time = finish
        completions = [(name, tid)]
        while events and abs(events[0][0] - current_time) <= 1e-12:
            _, other_name, other_id = heapq.heappop(events)
            completions.append((other_name, other_id))
        for done_name, done_id in completions:
            ptg = graphs[done_name]
            for succ in ptg.successors(done_id):
                key = (done_name, succ)
                if key not in remaining:
                    continue  # pragma: no cover - successors are re-planned
                remaining[key] -= 1
                if remaining[key] == 0:
                    heapq.heappush(
                        ready,
                        (-levels[done_name][succ], done_name, succ, current_time),
                    )

    total = sum(len(tids) for tids in replanned.values())
    if len(placed) != total:
        raise SimulationError(
            f"repair re-planned {len(placed)} tasks out of {total} at t={now}"
        )
    return repaired, total, earliest_killed_start


def repair_schedule(
    ptgs: Sequence[PTG],
    schedule: Schedule,
    platform: MultiClusterPlatform,
    timeline: FaultTimeline,
    releases: Optional[Mapping[str, float]] = None,
    enable_packing: bool = True,
) -> RepairOutcome:
    """Repair *schedule* around the down windows of *timeline*.

    Walks the timeline's failure events chronologically; at each event
    the running entries caught on a failing processor are killed and the
    affected tail is re-planned onto the surviving capacity (see the
    module docstring for the full policy).  With an empty timeline --
    or windows the schedule never touches -- the original schedule is
    returned unchanged with empty metrics.

    Parameters
    ----------
    ptgs:
        The applications of the schedule (precedence + cost models).
    schedule:
        The planned schedule to repair.
    platform:
        The target platform.
    timeline:
        The compiled fault plan.
    releases:
        Optional per-application submission instants; a re-planned task
        never starts before its application's release.
    enable_packing:
        Whether the repair placements may pack allocations (keep it
        equal to the original pipeline's setting).

    Returns
    -------
    RepairOutcome
        The repaired schedule plus the degradation metrics; with the
        metrics surfaced through :mod:`repro.obs` meters when a
        metrics registry is active.
    """
    graphs: Dict[str, PTG] = {p.name: p for p in ptgs}
    if len(graphs) != len(ptgs):
        raise SimulationError("concurrent PTGs must have unique names")
    releases = dict(releases) if releases else {}
    baseline = schedule.global_makespan()
    outcome = RepairOutcome(
        schedule=schedule, baseline_makespan=baseline, repaired_makespan=baseline
    )
    if timeline.is_empty:
        return outcome

    registry = meters.active()
    current = schedule
    repaired_once = False
    with trace.span("faults.repair", events=str(len(timeline.event_times()))):
        for now in timeline.event_times():
            striking = timeline.windows_starting_at(now)
            killed_entries: List[ScheduledTask] = []
            for entry in current:
                if not (
                    entry.start < now - FAULT_EPS and entry.finish > now + FAULT_EPS
                ):
                    continue
                if any(
                    w.cluster_name == entry.cluster_name and w.hits(entry.processors)
                    for w in striking
                ):
                    killed_entries.append(entry)
            killed_entries.sort(key=lambda e: (e.ptg_name, e.task_id))
            tail_conflicts = not repaired_once and any(
                entry.start >= now - FAULT_EPS
                and timeline.entry_conflicts(entry) is not None
                for entry in current
            )
            if not killed_entries and not tail_conflicts:
                continue

            killed_keys = {(e.ptg_name, e.task_id) for e in killed_entries}
            current, replanned, first_killed_start = _replan(
                graphs,
                schedule,
                current,
                platform,
                timeline,
                now,
                killed_keys,
                releases,
                enable_packing,
            )
            repaired_once = True
            killed = tuple(
                KilledTask(
                    ptg_name=e.ptg_name,
                    task_id=e.task_id,
                    cluster_name=e.cluster_name,
                    time=now,
                    work_lost=(now - e.start) * e.num_processors,
                    work_reexecuted=e.duration * e.num_processors,
                )
                for e in killed_entries
            )
            latency = (
                first_killed_start - now if killed_entries else 0.0
            )
            outcome.events.append(
                FaultEvent(
                    time=now,
                    killed=killed,
                    replanned=replanned,
                    recovery_latency=latency,
                )
            )

    outcome.schedule = current
    outcome.repaired_makespan = current.global_makespan()
    if registry is not None:
        registry.counter("faults.events").inc(len(outcome.events))
        registry.counter("faults.killed_tasks").inc(len(outcome.killed_tasks))
        registry.gauge("faults.makespan_inflation").set(outcome.makespan_inflation)
        registry.gauge("faults.work_lost").set(outcome.work_lost)
        registry.gauge("faults.work_reexecuted").set(outcome.work_reexecuted)
        for event in outcome.events:
            if event.killed:
                registry.histogram("faults.recovery_latency").observe(
                    event.recovery_latency
                )
    return outcome
