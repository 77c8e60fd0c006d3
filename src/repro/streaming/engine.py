"""Event-driven online scheduling engine for multi-tenant arrival streams.

The paper's future-work section sketches the online problem where the
concurrent applications do *not* arrive together: "this implies that the
resource constraints have to be modified on the arrival of a new
application in the system".  :class:`StreamSession` implements that
first-come-first-served design point on top of the incremental placement
core of :mod:`repro.mapping`:

* applications are admitted in arrival order;
* at each arrival the engine first retires every application whose
  planned completion lies at or before the arrival instant (a
  lazily-invalidated completion heap interleaves the two event kinds),
  then computes the resource constraint of the *new* application with
  the chosen strategy over the set of applications still present plus
  the new one;
* the new application is allocated under that constraint and mapped --
  without disturbing the reservations of the applications already
  scheduled -- using earliest-finish-time placement with allocation
  packing, its tasks ordered by bottom level and released no earlier
  than the submission time.

Unlike the batch replay it replaces (preserved verbatim in
:mod:`repro.scheduler._reference`), the session is **incremental**:

* per-application completion times are tracked while the tasks are
  placed, so admitting application ``n`` costs ``O(tasks(n))`` instead
  of a full re-scan of the ``O(sum tasks(1..n))`` entries placed so far
  (the re-scan makes the replay quadratic on long streams);
* :meth:`StreamSession.feed` accepts arrival batches at any time, so a
  growing stream (a live submission queue, a resumed sweep) is continued
  from the in-memory state instead of being re-replayed from scratch.

``tests/test_scheduler_online_golden.py`` asserts that a session fed a
fixed arrival list is bit-identical to the preserved replay, chunking
included.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.allocation.base import Allocation, AllocationProcedure
from repro.allocation.reference import ReferenceCluster
from repro.allocation.scrap import ScrapMaxAllocator
from repro.allocation.state import discard_allocation_tables, prepare_allocation_tables
from repro.constraints.base import ConstraintStrategy
from repro.constraints.strategies import EqualShareStrategy
from repro.dag.arrays import compile_arrays_batch
from repro.dag.graph import PTG
from repro.exceptions import ConfigurationError, MappingError, ReproError
from repro.mapping.base import AllocatedPTG
from repro.mapping.eft import PlacementEngine
from repro.mapping.schedule import Schedule
from repro.obs import meters, trace
from repro.platform.multicluster import MultiClusterPlatform

#: Arrival batches are compiled in chunks of this many graphs: large
#: enough to amortize the batched-kernel dispatch, small enough to keep
#: the transient stacked buffers off the high-water mark.
BATCH_COMPILE_CHUNK = 128


@dataclass(frozen=True)
class Arrival:
    """One application submission: the graph, its instant, its tenant.

    The optional *tenant* label groups submissions of one user /
    workload class; the windowed metrics aggregate stall times per
    tenant.  An empty label means "no tenant information".
    """

    ptg: PTG
    time: float = 0.0
    tenant: str = ""

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ConfigurationError(
                f"submission time must be non-negative, got {self.time}"
            )


@dataclass(frozen=True)
class StreamEvent:
    """One event of the online run: an arrival or a planned completion."""

    time: float
    kind: str
    name: str


@dataclass
class OnlineScheduleResult:
    """Outcome of an online scheduling run."""

    platform: MultiClusterPlatform
    arrivals: Sequence[Arrival]
    betas: Dict[str, float]
    active_at_admission: Dict[str, List[str]]
    allocations: Dict[str, Allocation]
    schedule: Schedule
    strategy_name: str = ""

    @property
    def application_names(self) -> List[str]:
        """Names of the applications, in arrival order."""
        return [a.ptg.name for a in self.arrivals]

    def completion_time(self, name: str) -> float:
        """Absolute completion time of one application."""
        try:
            return self.schedule.makespan(name)
        except MappingError:
            raise ConfigurationError(
                f"no application named {name!r} in this result"
            ) from None

    def makespan(self, name: str) -> float:
        """Makespan measured from the application's own submission time."""
        for arrival in self.arrivals:
            if arrival.ptg.name == name:
                return self.completion_time(name) - arrival.time
        raise ConfigurationError(f"no application named {name!r} in this result")

    def makespans(self) -> Dict[str, float]:
        """Per-application makespans measured from their submission times."""
        return {name: self.makespan(name) for name in self.application_names}


@dataclass
class StreamResult(OnlineScheduleResult):
    """Outcome of a streaming run, with O(1) per-application accessors.

    Extends :class:`OnlineScheduleResult` with the quantities the
    session tracked incrementally -- completion times, first task
    starts, submission times and tenant labels -- so that reading the
    per-application metrics of a long stream never re-scans the
    schedule.
    """

    completion_times: Dict[str, float] = field(default_factory=dict)
    first_starts: Dict[str, float] = field(default_factory=dict)
    arrival_times: Dict[str, float] = field(default_factory=dict)
    tenants: Dict[str, str] = field(default_factory=dict)

    def _lookup(self, table: Dict[str, float], name: str) -> float:
        """One tracked quantity of one application, with the error contract.

        Every accessor funnels through this helper so an unknown
        application name always surfaces as a
        :class:`~repro.exceptions.ConfigurationError` naming the
        application -- never a raw ``KeyError``.
        """
        try:
            return table[name]
        except KeyError:
            raise ConfigurationError(
                f"no application named {name!r} in this result"
            ) from None

    def completion_time(self, name: str) -> float:
        """Absolute completion time of one application (O(1))."""
        return self._lookup(self.completion_times, name)

    def makespan(self, name: str) -> float:
        """Makespan measured from the application's own submission (O(1))."""
        return self._lookup(self.completion_times, name) - self._lookup(
            self.arrival_times, name
        )

    def makespans(self) -> Dict[str, float]:
        """Per-application makespans measured from their submission times."""
        return {
            name: self.completion_times[name] - self.arrival_times[name]
            for name in self.completion_times
        }

    def waiting_time(self, name: str) -> float:
        """Stall of one application: first task start minus submission."""
        return self._lookup(self.first_starts, name) - self._lookup(
            self.arrival_times, name
        )

    def waiting_times(self) -> Dict[str, float]:
        """Per-application stall times (first task start minus submission)."""
        return {name: self.waiting_time(name) for name in self.first_starts}

    def horizon(self) -> float:
        """Completion time of the last application of the stream."""
        return max(self.completion_times.values()) if self.completion_times else 0.0

    def events(self) -> List[StreamEvent]:
        """The arrival/completion event timeline, in time order.

        Completions are the *planned* ones (the instants the session's
        event loop retires applications at).  Ties are ordered
        completion-before-arrival -- exactly the order the admission
        loop processes them in (a completion at the arrival instant
        leaves the active set before the constraint is computed).
        """
        rows = [
            StreamEvent(time, "completion", name)
            for name, time in self.completion_times.items()
        ]
        rows += [
            StreamEvent(arrival.time, "arrival", arrival.ptg.name)
            for arrival in self.arrivals
        ]
        kind_rank = {"completion": 0, "arrival": 1}
        return sorted(rows, key=lambda e: (e.time, kind_rank[e.kind], e.name))


class StreamSession:
    """Incremental first-come-first-served scheduler for arrival streams.

    A session holds the live state of an online run -- the platform
    timelines, the schedule under construction, the completion heap and
    the per-application bookkeeping -- and admits arrivals one batch at
    a time.  Batches must not travel back in time: every arrival of a
    :meth:`feed` call must be at or after the latest arrival already
    admitted (equal instants are ordered by application name, matching
    the batch replay's global sort).

    Parameters
    ----------
    platform:
        The target multi-cluster platform.
    strategy:
        Constraint strategy re-evaluated at each admission over the
        applications still in the system (default: equal share).
    allocator:
        Constrained allocation procedure (default: SCRAP-MAX, the
        paper's choice).
    enable_packing:
        Whether the mapper may shrink delayed allocations (paper: on).
    """

    def __init__(
        self,
        platform: MultiClusterPlatform,
        strategy: Optional[ConstraintStrategy] = None,
        allocator: Optional[AllocationProcedure] = None,
        enable_packing: bool = True,
    ) -> None:
        self.platform = platform
        self.strategy = strategy or EqualShareStrategy()
        self.allocator = allocator or ScrapMaxAllocator()
        self.enable_packing = enable_packing
        self.engine = PlacementEngine(platform, enable_packing=enable_packing)
        self.schedule = Schedule(platform.name)
        # reference view + allocation cap of this platform, precomputed
        # once for the batched allocation-table preparation of ``feed``
        self._reference = ReferenceCluster.of(platform)
        self._allocation_cap = self._reference.max_allocation(platform)
        self._arrivals: List[Arrival] = []
        self._betas: Dict[str, float] = {}
        self._allocations: Dict[str, Allocation] = {}
        self._active_log: Dict[str, List[str]] = {}
        self._completions: Dict[str, float] = {}
        self._first_starts: Dict[str, float] = {}
        self._arrival_times: Dict[str, float] = {}
        self._tenants: Dict[str, str] = {}
        # Min-heap of (completion time, name) of admitted applications,
        # lazily invalidated; the insertion-ordered ``_active`` dict
        # keeps the arrival order the constraint strategies see.
        self._running: List[Tuple[float, str]] = []
        self._active: Dict[str, PTG] = {}
        self._last_key: Optional[Tuple[float, str]] = None

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    @property
    def admitted(self) -> int:
        """Number of applications admitted so far."""
        return len(self._arrivals)

    @property
    def active_applications(self) -> List[str]:
        """Applications still in the system at the last admission instant."""
        return list(self._active)

    @property
    def arrivals(self) -> Tuple[Arrival, ...]:
        """The admitted arrivals, in admission order.

        This is the session's checkpoint hook: re-feeding these
        arrivals through a fresh session reproduces the live state
        bit-identically (the engine is deterministic), which is how the
        admission daemon (:mod:`repro.service`) restores tenants.
        """
        return tuple(self._arrivals)

    @property
    def completions(self) -> Dict[str, float]:
        """Planned completion time of every admitted application (a copy)."""
        return dict(self._completions)

    @property
    def last_admission(self) -> Optional[Tuple[float, str]]:
        """``(time, name)`` of the latest admission, or ``None``.

        Feeding an arrival that sorts before this key raises -- the
        service layer mirrors the check at submit time so clients get
        an HTTP 409 instead of a failed admission.
        """
        return self._last_key

    # ------------------------------------------------------------------ #
    # admission
    # ------------------------------------------------------------------ #
    def feed(self, arrivals: Iterable[Arrival]) -> None:
        """Admit a batch of arrivals, in ``(time, name)`` order.

        The batch is sorted internally; it may be empty.  A batch of more
        than one arrival is first compiled through the stacked multi-PTG
        kernels (:meth:`_prepare_batch`, bit-identical to per-graph
        compilation).  Feeding an arrival earlier than one already
        admitted raises a :class:`~repro.exceptions.ConfigurationError`
        -- an online scheduler cannot revisit the past.
        """
        batch = sorted(arrivals, key=lambda a: (a.time, a.ptg.name))
        if len(batch) > 1:
            self._prepare_batch([arrival.ptg for arrival in batch])
        for arrival in batch:
            self.admit(arrival)

    def _prepare_batch(self, ptgs: List[PTG]) -> None:
        """Batch-compile the graphs of one feed chunk (pure warm-up).

        Stacks the chunk's graphs into shared-arena
        :class:`~repro.dag.arrays.DagArrays` and prebuilds their
        allocation tables in one vectorized pass each, so the admission
        loop below finds everything cached.  Invalid graphs are skipped
        here -- :meth:`admit` raises for them at the right arrival, with
        the session state it would have had without batching.
        """
        fresh = []
        for ptg in ptgs:
            try:
                ptg.validate()
            except ReproError:
                continue
            fresh.append(ptg)
        for begin in range(0, len(fresh), BATCH_COMPILE_CHUNK):
            chunk = fresh[begin : begin + BATCH_COMPILE_CHUNK]
            compile_arrays_batch(chunk)
            prepare_allocation_tables(chunk, self._reference, self._allocation_cap)

    def admit(self, arrival: Arrival) -> float:
        """Admit one application and return its planned completion time.

        Runs one iteration of the event loop: retire every application
        whose planned completion is at or before the arrival instant,
        compute the newcomer's constraint over the remaining active set,
        allocate, and place its tasks (released no earlier than the
        submission time) without touching existing reservations.

        Admission is **transactional**: every per-application bookkeeping
        write (and the retirement of completed applications) is staged on
        copies, the timeline reservations run inside a rollback-capable
        transaction, and everything is committed only after the mapping
        succeeded.  A raising constraint strategy, allocator or placement
        therefore leaves the session bit-identical to one that never saw
        the arrival -- which is what lets the degraded-mode service drain
        worker retry a failed admission against a clean session.
        """
        name = arrival.ptg.name
        key = (arrival.time, name)
        if self._last_key is not None and key < self._last_key:
            raise ConfigurationError(
                f"arrival {name!r} at t={arrival.time} is in the past: the "
                f"session already admitted {self._last_key[1]!r} at "
                f"t={self._last_key[0]}"
            )
        if name in self._arrival_times:
            raise ConfigurationError(
                f"submitted applications must have unique names, got a "
                f"second {name!r}"
            )
        arrival.ptg.validate()

        # admission latency (wall time of this call) only ticks while a
        # metrics registry is active; disabled cost is one None check
        registry = meters.active()
        started = time.perf_counter() if registry is not None else 0.0

        with trace.span("stream.admit", app=name, tenant=arrival.tenant):
            now = arrival.time
            # stage the retirement of completed applications on copies:
            # committing it only with the admission keeps a failed admit
            # from changing what a later retry (at the same instant)
            # observes
            staged_running: Optional[List[Tuple[float, str]]] = None
            active_apps = self._active
            if self._running and self._running[0][0] <= now:
                staged_running = self._running[:]
                retired = set()
                while staged_running and staged_running[0][0] <= now:
                    _, expired = heapq.heappop(staged_running)
                    retired.add(expired)
                active_apps = {
                    app_name: ptg
                    for app_name, ptg in self._active.items()
                    if app_name not in retired
                }
            # applications still in the system at this instant, in arrival
            # order (the order the constraint strategies see)
            active = list(active_apps.values())
            concurrent = active + [arrival.ptg]
            strategy_betas = self.strategy.compute_betas(concurrent, self.platform)
            beta = strategy_betas[name]

            allocation = self.allocator.allocate(arrival.ptg, self.platform, beta=beta)
            first_start, done = self._map_transactional(
                AllocatedPTG(arrival.ptg, allocation), now
            )

            # ---- commit: the mapping succeeded, publish everything ----
            if staged_running is not None:
                self._running = staged_running
                self._active = active_apps
            self._betas[name] = beta
            self._active_log[name] = [p.name for p in active]
            self._allocations[name] = allocation
            self._completions[name] = done
            self._first_starts[name] = first_start
            self._arrival_times[name] = now
            self._tenants[name] = arrival.tenant
            self._arrivals.append(arrival)
            heapq.heappush(self._running, (done, name))
            self._active[name] = arrival.ptg
            self._last_key = key
            # the batched allocation tables served their one admission;
            # drop them so a long stream's high-water mark stays flat
            discard_allocation_tables(arrival.ptg)

        if registry is not None:
            registry.histogram("stream.admission_latency").observe(
                time.perf_counter() - started
            )
            registry.counter("stream.admissions").inc()
            registry.gauge("stream.active_applications").set(len(self._active))
            registry.gauge("stream.running_depth").set(len(self._running))
        return done

    def _map_transactional(
        self, allocated: AllocatedPTG, release_time: float
    ) -> Tuple[float, float]:
        """Run :meth:`_map_application` inside a timeline transaction.

        On any failure the timeline reservations, the engine's packing
        counter and the partially placed schedule entries are all rolled
        back before the exception propagates.
        """
        engine = self.engine
        packed_before = engine.packed_tasks
        engine.timelines.begin_transaction()
        try:
            result = self._map_application(allocated, release_time)
        except BaseException:
            engine.timelines.rollback_transaction()
            engine.packed_tasks = packed_before
            self.schedule.remove_application(allocated.name)
            raise
        engine.timelines.commit_transaction()
        return result

    def _map_application(
        self, allocated: AllocatedPTG, release_time: float
    ) -> Tuple[float, float]:
        """Place one application (bottom-level order, FCFS).

        Returns ``(first task start, last task finish)``, tracked while
        placing -- the incremental alternative to re-scanning the whole
        schedule for the application's makespan.
        """
        ptg = allocated.ptg
        levels = allocated.bottom_levels()
        topo_index = {tid: i for i, tid in enumerate(ptg.topological_order())}
        order = sorted(
            ptg.task_ids(), key=lambda tid: (-levels[tid], topo_index[tid])
        )
        first_start = float("inf")
        last_finish = 0.0
        engine = self.engine
        schedule = self.schedule
        allocation = allocated.allocation
        with trace.span("stream.map", app=ptg.name, tasks=str(ptg.n_tasks)):
            for tid in order:
                predecessors = [
                    (pred, ptg.edge_data(pred, tid)) for pred in ptg.predecessors(tid)
                ]
                entry = engine.place(
                    ptg_name=ptg.name,
                    task=ptg.task(tid),
                    allocation=allocation,
                    predecessors=predecessors,
                    schedule=schedule,
                    not_before=release_time,
                )
                if entry.start < first_start:
                    first_start = entry.start
                if entry.finish > last_finish:
                    last_finish = entry.finish
        return first_start, last_finish

    # ------------------------------------------------------------------ #
    # results
    # ------------------------------------------------------------------ #
    def result(self) -> StreamResult:
        """Snapshot of the run so far as a :class:`StreamResult`.

        The session stays usable afterwards: more arrivals can be fed
        and a later snapshot taken.  The snapshot shares the session's
        live schedule object (it is not copied), so treat it as
        read-only while the session is still being fed.
        """
        if not self._arrivals:
            raise ConfigurationError("at least one arrival is required")
        return StreamResult(
            platform=self.platform,
            arrivals=list(self._arrivals),
            betas=dict(self._betas),
            active_at_admission=dict(self._active_log),
            allocations=dict(self._allocations),
            schedule=self.schedule,
            strategy_name=self.strategy.name,
            completion_times=dict(self._completions),
            first_starts=dict(self._first_starts),
            arrival_times=dict(self._arrival_times),
            tenants=dict(self._tenants),
        )
