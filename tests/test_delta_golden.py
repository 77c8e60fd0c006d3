"""Golden tests for the sub-millisecond admission fast paths.

Three optimizations ride the admission hot path, and each is compared
against the oracle of its stage:

* **delta-EFT** placement (:class:`~repro.mapping.eft.PlacementEngine`,
  used by :class:`~repro.streaming.engine.StreamSession` and both
  mappers): cached per-cluster free-time frontiers with dominance
  cutoffs must pick the exact placements the declaration-order scan of
  :class:`~repro.mapping._reference.ReferencePlacementEngine` picks --
  streams and mappings are replayed inside ``reference_implementation()``
  with SCRAP-MAX on ``run_reference_allocation``;
* the **fused allocation loop** (:mod:`repro.allocation.fastloop`, run by
  every CPA-family allocator): incremental bottom levels, freeze-skip and
  the O(1) level test with its rounding-band fallback must produce the
  same allocations and iteration diagnostics as the dict-based loop of
  :func:`~repro.allocation._reference.run_reference_allocation`;
* the **batched multi-PTG kernels** (``compile_arrays_batch``,
  ``prepare_allocation_tables``, run by a multi-arrival
  ``StreamSession.feed``): stacked-arena compilation must hand every
  consumer the same arrays and tables as the per-graph construction.

Every comparison is **exact** (``==`` on floats, no tolerance), the same
discipline as ``test_mapping_golden.py`` / ``test_allocation_golden.py``.
The suite also pins the transactional-admission contract (a failed
admission leaves the session bit-identical to one that never saw the
arrival) and the accessor error contract (``ConfigurationError``, never a
raw ``KeyError`` / ``StopIteration``).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.allocation._reference import run_reference_allocation
from repro.allocation.base import AllocationProcedure
from repro.allocation.cpa import CPAAllocator
from repro.allocation.hcpa import HCPAAllocator
from repro.allocation.iterative import AreaConstraint, LevelConstraint, NoConstraint
from repro.allocation.scrap import ScrapAllocator, ScrapMaxAllocator
from repro.allocation.state import (
    AllocationState,
    discard_allocation_tables,
    prepare_allocation_tables,
)
from repro.allocation.reference import ReferenceCluster
from repro.constraints.registry import paper_strategies
from repro.dag import PTG, Task
from repro.dag.arrays import compile_arrays, compile_arrays_batch
from repro.exceptions import AllocationError, ConfigurationError, MappingError
from repro.experiments.workload import WorkloadSpec, make_workload
from repro.mapping._reference import reference_implementation
from repro.mapping.base import AllocatedPTG
from repro.mapping.global_order import GlobalOrderMapper
from repro.mapping.ready_list import ReadyListMapper
from repro.platform import grid5000
from repro.platform.builder import heterogeneous_platform, single_cluster_platform
from repro.streaming.engine import Arrival, OnlineScheduleResult, StreamSession
from repro.streaming.spec import ArrivalSpec, generate_arrivals
from repro.validate import validate_schedule

from tests.conftest import make_chain_ptg

STREAM_SPEC = ArrivalSpec(
    process="poisson", rate=0.05, n_arrivals=12, seed=11,
    family="random", max_tasks=12,
)


def assert_identical_schedules(fast, reference):
    """Every placement field must match bit-for-bit."""
    assert len(fast) == len(reference)
    for entry in fast:
        ref = reference.entry(entry.ptg_name, entry.task_id)
        assert entry.cluster_name == ref.cluster_name, (entry, ref)
        assert entry.processors == ref.processors, (entry, ref)
        assert entry.start == ref.start, (entry, ref)
        assert entry.finish == ref.finish, (entry, ref)
        assert entry.reference_processors == ref.reference_processors, (entry, ref)


def assert_identical_stream_results(fast, ref):
    """Schedules and every tracked per-application quantity must match."""
    assert fast.betas == ref.betas
    assert fast.active_at_admission == ref.active_at_admission
    assert fast.completion_times == ref.completion_times
    assert fast.first_starts == ref.first_starts
    assert fast.arrival_times == ref.arrival_times
    assert_identical_schedules(fast.schedule, ref.schedule)


class ReferenceScrapMax(AllocationProcedure):
    """SCRAP-MAX on the dict-based reference allocation loop."""

    name = "SCRAP-MAX"

    def allocate(self, ptg, platform, beta=1.0):
        """Allocate *ptg* under the per-level constraint *beta*."""
        allocation, _ = run_reference_allocation(
            ptg,
            platform,
            ReferenceCluster.of(platform),
            beta,
            LevelConstraint(beta, platform.total_power_gflops),
        )
        return allocation


def stream_result(platform, arrivals, strategy=None, **kwargs):
    """Feed *arrivals* to a production session (every fast path on)."""
    session = StreamSession(platform, strategy, **kwargs)
    session.feed(arrivals)
    return session.result()


def reference_stream_result(platform, arrivals, strategy=None, **kwargs):
    """Feed *arrivals* to a session built and fed on the oracles."""
    with reference_implementation():
        session = StreamSession(
            platform, strategy, allocator=ReferenceScrapMax(), **kwargs
        )
        session.feed(arrivals)
    return session.result()


@pytest.fixture(scope="module")
def stream():
    return generate_arrivals(STREAM_SPEC)


@pytest.fixture(scope="module")
def workload():
    return make_workload(WorkloadSpec(family="random", n_ptgs=4, seed=9, max_tasks=18))


class TestDeltaEFTGolden:
    """Delta-EFT admissions equal the oracle's full per-cluster evaluation."""

    @pytest.mark.parametrize("strategy", paper_strategies(), ids=lambda s: s.name)
    def test_stream_bit_identical_per_strategy(self, stream, strategy):
        platform = grid5000.composed()
        assert_identical_stream_results(
            stream_result(platform, stream, strategy),
            reference_stream_result(platform, stream, strategy),
        )

    @pytest.mark.parametrize("packing", [True, False], ids=["packing", "no-packing"])
    @pytest.mark.parametrize(
        "mapper_cls", [ReadyListMapper, GlobalOrderMapper],
        ids=["ready-list", "global-order"],
    )
    def test_mappers_bit_identical(self, workload, mapper_cls, packing):
        platform = grid5000.site("nancy")
        allocator = ScrapMaxAllocator()
        allocated = [
            AllocatedPTG(ptg, allocator.allocate(ptg, platform)) for ptg in workload
        ]
        fast = mapper_cls(enable_packing=packing).map(allocated, platform)
        with reference_implementation():
            ref = mapper_cls(enable_packing=packing).map(allocated, platform)
        assert_identical_schedules(fast, ref)

    @pytest.mark.parametrize("packing", [True, False], ids=["packing", "no-packing"])
    def test_stream_packing_modes_bit_identical(self, stream, packing):
        platform = grid5000.site("sophia")
        assert_identical_stream_results(
            stream_result(platform, stream, enable_packing=packing),
            reference_stream_result(platform, stream, enable_packing=packing),
        )


class TestFastLoopGolden:
    """The fused allocation loop equals the dict-based reference loop."""

    #: (allocator, kwargs, platform, matching reference constraint)
    ALLOCATORS = [
        (CPAAllocator, {"efficiency_threshold": 0.3}, single_cluster_platform(
            num_processors=24, speed_gflops=3.0), lambda beta, power: NoConstraint()),
        (HCPAAllocator, {}, grid5000.site("lille"), lambda beta, power: NoConstraint()),
        (ScrapAllocator, {}, grid5000.site("nancy"), AreaConstraint),
        (ScrapMaxAllocator, {}, grid5000.site("nancy"), LevelConstraint),
    ]

    @staticmethod
    def reference_run(ptg, platform, beta, constraint, **kwargs):
        return run_reference_allocation(
            ptg,
            platform,
            ReferenceCluster.of(platform),
            beta,
            constraint(beta, platform.total_power_gflops),
            **kwargs,
        )

    @pytest.mark.parametrize(
        "allocator_cls,kwargs,platform,constraint", ALLOCATORS,
        ids=["cpa", "hcpa", "scrap", "scrap-max"],
    )
    @pytest.mark.parametrize("beta", [0.25, 0.6, 1.0])
    def test_allocations_and_stats_bit_identical(
        self, workload, allocator_cls, kwargs, platform, constraint, beta
    ):
        for ptg in workload:
            allocator = allocator_cls(**kwargs)
            fast = allocator.allocate(ptg, platform, beta=beta)
            ref, ref_stats = self.reference_run(
                ptg, platform, beta, constraint, **kwargs
            )
            assert fast.as_dict() == ref.as_dict()
            if hasattr(allocator, "last_stats"):
                assert allocator.last_stats == ref_stats

    def test_freeze_heavy_case_bit_identical(self):
        """A tiny beta forces many per-level freezes (the freeze-skip path)."""
        platform = grid5000.site("lille")
        ptg = make_workload(
            WorkloadSpec(family="random", n_ptgs=1, seed=3, max_tasks=25)
        )[0]
        allocator = ScrapMaxAllocator()
        fast = allocator.allocate(ptg, platform, beta=0.1)
        ref, ref_stats = self.reference_run(ptg, platform, 0.1, LevelConstraint)
        assert fast.as_dict() == ref.as_dict()
        assert allocator.last_stats == ref_stats
        assert allocator.last_stats.frozen_tasks > 0  # the case exercises freezes

    @staticmethod
    def wide_level_ptg(width, synthetic_every):
        """Entry -> *width* parallel tasks -> exit, every few of them synthetic."""
        ptg = PTG(f"wide-{width}")
        ptg.add_task(Task.synthetic(0))
        for tid in range(1, width + 1):
            if tid % synthetic_every == 0:
                ptg.add_task(Task.synthetic(tid))
            else:
                ptg.add_task(Task(tid, 1e9 * (1 + (tid * 7) % 5), 0.0))
        ptg.add_task(Task.synthetic(width + 1))
        for tid in range(1, width + 1):
            ptg.add_edge(0, tid, 0.0)
            ptg.add_edge(tid, width + 1, 0.0)
        return ptg

    @staticmethod
    def beta_for_limit(limit, power):
        """The beta whose ``beta * power + 1e-12`` is exactly *limit*."""
        beta = (limit - 1e-12) / power
        for _ in range(64):
            got = beta * power + 1e-12
            if got == limit:
                return beta
            beta = math.nextafter(beta, math.inf if got < limit else -math.inf)
        raise AssertionError(f"no beta puts the level limit on {limit!r}")

    @pytest.mark.parametrize(
        "speed,width,synthetic_every", [(0.1, 12, 4), (0.3, 40, 5), (0.7, 25, 3)]
    )
    def test_level_limit_inside_rounding_band(self, speed, width, synthetic_every):
        """The SCRAP-MAX limit sits a few ULPs from a reachable level sum.

        The fused loop decides the level test from ``count * speed``
        outside a rounding band and falls back to the reference's
        fold-left ``sum`` inside it.  Here the limit lands on, and a few
        ULPs either side of, a level sum the reference loop reaches and
        whose fold-left value differs from ``fl(count * speed)``, so
        only the exact fallback can match the reference.
        """

        class RecordingLevelConstraint(LevelConstraint):
            def __init__(self, beta, power):
                super().__init__(beta, power)
                self.seen = []

            def violated(self, allocation, task):
                ptg = allocation.ptg
                members = ptg.tasks_by_level()[ptg.precedence_level(task.task_id)]
                real = [t for t in members if not ptg.task(t).is_synthetic]
                count = sum(allocation.processors(t) for t in real)
                level_sum = sum(allocation.task_power(ptg.task(t)) for t in members)
                self.seen.append((level_sum, count, len(real), len(members)))
                return super().violated(allocation, task)

        platform = single_cluster_platform(num_processors=64, speed_gflops=speed)
        power = platform.total_power_gflops
        reference = ReferenceCluster.of(platform)
        ptg = self.wide_level_ptg(width, synthetic_every)

        # the level sums the unconstrained run tests, increment by increment;
        # with the balance stop off, a smaller beta follows the same path
        # until its limit first bites
        recorder = RecordingLevelConstraint(1.0, power)
        run_reference_allocation(
            ptg, platform, reference, 1.0, recorder, use_balance_stop=False
        )
        level_sum, count, _, k = next(
            entry
            for entry in recorder.seen
            if entry[1] > entry[2] + 3 and entry[0] != entry[1] * speed
        )
        # the fused loop's band: (k + 2) * 2**-52 * fl(count * speed)
        band = (k + 2) * 2.0**-52 * (count * speed)

        # consecutive betas around the one whose limit is the level sum
        on_sum = self.beta_for_limit(level_sum, power)
        betas = [on_sum]
        for direction in (-math.inf, math.inf):
            beta = on_sum
            for _ in range(3):
                beta = math.nextafter(beta, direction)
                betas.append(beta)
        limits = [beta * power + 1e-12 for beta in betas]
        assert min(limits) < level_sum < max(limits)
        assert all(abs(count * speed - limit) <= band for limit in limits)

        for beta in betas:
            allocator = ScrapMaxAllocator(use_balance_stop=False)
            fast = allocator.allocate(ptg, platform, beta=beta)
            ref, ref_stats = run_reference_allocation(
                ptg,
                platform,
                reference,
                beta,
                LevelConstraint(beta, power),
                use_balance_stop=False,
            )
            assert fast.as_dict() == ref.as_dict()
            assert allocator.last_stats == ref_stats
            assert ref_stats.frozen_tasks > 0  # the boundary test was decisive


class TestBatchedKernels:
    """Stacked-arena compilation equals the per-graph construction."""

    def test_compile_arrays_batch_matches_single(self, workload):
        singles = [compile_arrays(ptg) for ptg in workload]
        fresh = [ptg.copy(name=f"{ptg.name}-copy") for ptg in workload]
        batched = compile_arrays_batch(fresh)
        for single, batch in zip(singles, batched):
            for name in (
                "task_ids", "flops", "alpha", "synthetic", "topo", "levels",
                "level_members", "level_offsets", "pred_ptr", "pred_idx",
                "succ_ptr", "succ_idx", "entries", "exits",
            ):
                assert np.array_equal(getattr(single, name), getattr(batch, name))
            assert single.index_of == batch.index_of

    def test_batch_compilation_seeds_the_graph_cache(self, workload):
        fresh = [ptg.copy(name=f"{ptg.name}-cache") for ptg in workload]
        batched = compile_arrays_batch(fresh)
        for ptg, arrays in zip(fresh, batched):
            assert ptg.arrays() is arrays

    def test_prepared_tables_bit_identical(self, workload):
        platform = grid5000.site("nancy")
        reference = ReferenceCluster.of(platform)
        cap = reference.max_allocation(platform)
        plain = [AllocationState(ptg, reference, cap) for ptg in workload]
        fresh = [ptg.copy(name=f"{ptg.name}-tables") for ptg in workload]
        prepare_allocation_tables(fresh, reference, cap)
        for single, ptg in zip(plain, fresh):
            prepared = AllocationState(ptg, reference, cap)
            assert np.array_equal(single.durations_table, prepared.durations_table)
            assert np.array_equal(single.areas_table, prepared.areas_table)
            assert np.array_equal(single.gain_table, prepared.gain_table)
            discard_allocation_tables(ptg)

    def test_discard_drops_the_cached_tables(self):
        platform = grid5000.site("lille")
        reference = ReferenceCluster.of(platform)
        cap = reference.max_allocation(platform)
        ptg = make_chain_ptg("tables", n=4)
        prepare_allocation_tables([ptg], reference, cap)
        assert "alloc_tables" in ptg._cache
        discard_allocation_tables(ptg)
        assert "alloc_tables" not in ptg._cache
        discard_allocation_tables(ptg)  # idempotent

    def test_batched_feed_bit_identical(self):
        # fresh graphs on both sides, so the arrival-by-arrival session
        # compiles per graph instead of reusing the batch's arena
        platform = grid5000.composed()
        batched = stream_result(platform, generate_arrivals(STREAM_SPEC))
        single = StreamSession(platform)
        for arrival in generate_arrivals(STREAM_SPEC):
            single.feed([arrival])
        assert_identical_stream_results(batched, single.result())


class ExplodingAllocator(ScrapMaxAllocator):
    """Allocator that raises for one specific application name."""

    def __init__(self, poison: str) -> None:
        super().__init__()
        self.poison = poison

    def allocate(self, ptg, platform, beta=1.0):
        if ptg.name == self.poison:
            raise AllocationError(f"poisoned application {ptg.name!r}")
        return super().allocate(ptg, platform, beta=beta)


class TestTransactionalAdmit:
    """A failed admission leaves the session bit-identical to a clean one."""

    def _assert_sessions_identical(self, session, control):
        assert session.admitted == control.admitted
        assert session.active_applications == control.active_applications
        assert session.completions == control.completions
        assert session.last_admission == control.last_admission
        assert len(session.schedule) == len(control.schedule)
        assert session.engine.packed_tasks == control.engine.packed_tasks
        for cluster in session.platform.cluster_names():
            ours = session.engine.timelines.timeline(cluster)
            theirs = control.engine.timelines.timeline(cluster)
            assert np.array_equal(ours._free_at, theirs._free_at)

    def test_failed_allocation_rolls_back_everything(self, medium_platform):
        prefix = [
            Arrival(make_chain_ptg("a", n=3, flops=20e9), 0.0),
            Arrival(make_chain_ptg("b", n=3, flops=20e9), 5.0),
        ]
        session = StreamSession(medium_platform, allocator=ExplodingAllocator("boom"))
        control = StreamSession(medium_platform, allocator=ExplodingAllocator("boom"))
        session.feed(prefix)
        control.feed(prefix)
        with pytest.raises(AllocationError):
            session.admit(Arrival(make_chain_ptg("boom", n=2), 10.0))
        self._assert_sessions_identical(session, control)
        # both sessions keep admitting identically after the failure
        tail = Arrival(make_chain_ptg("c", n=3, flops=20e9), 20.0)
        session.admit(tail)
        control.admit(tail)
        assert_identical_stream_results(session.result(), control.result())

    def test_failed_mapping_rolls_back_reservations(self, medium_platform):
        prefix = [Arrival(make_chain_ptg("a", n=4, flops=20e9), 0.0)]
        session = StreamSession(medium_platform)
        control = StreamSession(medium_platform)
        session.feed(prefix)
        control.feed(prefix)

        # fail after two tasks of the newcomer were already reserved
        original_place = session.engine.place
        calls = {"n": 0}

        def exploding_place(**kwargs):
            if calls["n"] >= 2:
                raise MappingError("injected placement failure")
            calls["n"] += 1
            return original_place(**kwargs)

        session.engine.place = exploding_place
        with pytest.raises(MappingError):
            session.admit(Arrival(make_chain_ptg("partial", n=5, flops=20e9), 1.0))
        session.engine.place = original_place

        self._assert_sessions_identical(session, control)
        tail = Arrival(make_chain_ptg("after", n=3, flops=20e9), 2.0)
        session.admit(tail)
        control.admit(tail)
        assert_identical_stream_results(session.result(), control.result())

    def test_failed_admission_does_not_commit_retirements(self, medium_platform):
        session = StreamSession(medium_platform, allocator=ExplodingAllocator("boom"))
        done = session.admit(Arrival(make_chain_ptg("early", n=2, flops=10e9), 0.0))
        # the poisoned arrival lands after "early" completed: the staged
        # retirement must be discarded together with the failed admission
        with pytest.raises(AllocationError):
            session.admit(Arrival(make_chain_ptg("boom", n=2), done + 1.0))
        assert session.active_applications == ["early"]
        assert session.admitted == 1


class TestErrorContracts:
    """Public result accessors raise ConfigurationError, never raw lookups."""

    def _stream_result(self, medium_platform):
        session = StreamSession(medium_platform)
        session.feed([Arrival(make_chain_ptg("only", n=2, flops=10e9), 0.0)])
        return session.result()

    def _base_result(self, medium_platform):
        streamed = self._stream_result(medium_platform)
        return OnlineScheduleResult(
            platform=streamed.platform,
            arrivals=streamed.arrivals,
            betas=streamed.betas,
            active_at_admission=streamed.active_at_admission,
            allocations=streamed.allocations,
            schedule=streamed.schedule,
            strategy_name=streamed.strategy_name,
        )

    @pytest.mark.parametrize(
        "accessor", ["completion_time", "makespan", "waiting_time"]
    )
    def test_stream_result_accessors(self, medium_platform, accessor):
        result = self._stream_result(medium_platform)
        with pytest.raises(ConfigurationError, match="ghost"):
            getattr(result, accessor)("ghost")

    @pytest.mark.parametrize("accessor", ["completion_time", "makespan"])
    def test_online_result_accessors(self, medium_platform, accessor):
        result = self._base_result(medium_platform)
        with pytest.raises(ConfigurationError, match="ghost"):
            getattr(result, accessor)("ghost")

    def test_known_names_still_resolve(self, medium_platform):
        streamed = self._stream_result(medium_platform)
        base = self._base_result(medium_platform)
        assert streamed.completion_time("only") == base.completion_time("only")
        assert streamed.makespan("only") == base.makespan("only")
        assert streamed.waiting_time("only") >= 0.0


class TestDeltaEFTProperties:
    """Random online streams: delta admissions stay exact and valid."""

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n_arrivals=st.integers(min_value=1, max_value=6),
        rate=st.floats(min_value=0.005, max_value=0.5),
        process=st.sampled_from(["poisson", "mmpp"]),
    )
    def test_delta_streams_bit_identical_and_validator_clean(
        self, seed, n_arrivals, rate, process
    ):
        platform = heterogeneous_platform((6, 10), (2.0, 4.0), name="delta-prop")
        spec = ArrivalSpec(
            process=process, rate=rate, n_arrivals=n_arrivals, seed=seed,
            family="random", max_tasks=8,
        )
        stream = generate_arrivals(spec)
        fast_result = stream_result(platform, stream)
        ref_result = reference_stream_result(platform, stream)
        assert_identical_stream_results(fast_result, ref_result)
        report = validate_schedule(
            fast_result.schedule, [a.ptg for a in stream], platform
        )
        assert report.ok, [str(v) for v in report.violations]
