"""Golden-allocation suite: the array-compiled core is bit-identical.

The fast allocation core (:class:`repro.allocation.state.AllocationState`
driving :func:`repro.allocation.iterative.run_iterative_allocation`) is a
pure performance refactor: for every procedure of the CPA family -- CPA,
HCPA (with and without the over-allocation guard), SCRAP and SCRAP-MAX --
it must produce exactly the same :class:`~repro.allocation.base.Allocation`
contents **and** :class:`~repro.allocation.iterative.IterationStats` as
the pre-refactor loop kept in :mod:`repro.allocation._reference`.

Every comparison below is **exact** (``==`` on the processor dicts and on
the stats dataclass, no tolerance): the optimized arithmetic reproduces
the scalar IEEE-754 operation order (fold-left sums included), so any
drift is a regression.  Coverage follows the paper's workload shapes: a
seeded batch of ~50 random PTGs (the fig2/fig3 family) plus the FFT
(fig4) and Strassen (fig5) families, across several betas and platforms.
"""

import pytest

from repro.allocation._reference import run_reference_allocation
from repro.allocation.cpa import CPAAllocator
from repro.allocation.hcpa import HCPAAllocator
from repro.allocation.iterative import (
    AreaConstraint,
    ConstraintCheck,
    LevelConstraint,
    NoConstraint,
    run_iterative_allocation,
)
from repro.allocation.reference import ReferenceCluster
from repro.allocation.scrap import ScrapAllocator, ScrapMaxAllocator
from repro.allocation.state import AllocationState
from repro.dag.arrays import SMALL_GRAPH_CUTOFF
from repro.dag.generator import RandomPTGConfig, generate_random_ptg
from repro.experiments.workload import WorkloadSpec, make_workload
from repro import obs
from repro.platform import grid5000
from repro.platform.builder import single_cluster_platform

BETAS = (0.25, 0.6, 1.0)

#: (label, constraint factory, extra run kwargs) -- the four procedures.
PROCEDURES = (
    ("CPA", lambda beta, power: NoConstraint(), {}),
    ("HCPA-guarded", lambda beta, power: NoConstraint(), {"efficiency_threshold": 0.5}),
    ("SCRAP", AreaConstraint, {}),
    ("SCRAP-MAX", LevelConstraint, {}),
)


def assert_identical_runs(ptg, platform, beta, constraint_factory, **kwargs):
    """Fast and reference loop agree exactly on allocation and stats."""
    reference = ReferenceCluster.of(platform)
    power = platform.total_power_gflops
    fast_alloc, fast_stats = run_iterative_allocation(
        ptg, platform, reference, beta, constraint_factory(beta, power), **kwargs
    )
    ref_alloc, ref_stats = run_reference_allocation(
        ptg, platform, reference, beta, constraint_factory(beta, power), **kwargs
    )
    assert fast_alloc.as_dict() == ref_alloc.as_dict(), (ptg.name, beta)
    assert fast_stats == ref_stats, (ptg.name, beta)
    assert fast_alloc.beta == ref_alloc.beta


@pytest.fixture(scope="module", params=["lille", "sophia"])
def platform(request):
    return grid5000.site(request.param)


class TestGoldenRandomBatch:
    """~50 seeded random PTGs x 4 procedures x several betas."""

    @pytest.mark.parametrize("seed", range(16))
    @pytest.mark.parametrize("name,constraint,kwargs", PROCEDURES, ids=lambda p: None)
    def test_small_random_bit_identical(self, seed, name, constraint, kwargs):
        # 3 PTGs of 10/20 tasks per seed (48 graphs overall), alternating
        # between two platforms to keep the suite fast
        batch_platform = grid5000.site("lille" if seed % 2 else "sophia")
        ptgs = make_workload(
            WorkloadSpec(family="random", n_ptgs=3, seed=seed, max_tasks=20)
        )
        for ptg in ptgs:
            for beta in (0.25, 1.0):
                assert_identical_runs(ptg, batch_platform, beta, constraint, **kwargs)

    @pytest.mark.parametrize("seed", [100, 101])
    def test_full_size_random_bit_identical(self, platform, seed):
        # full paper sizes (10/20/50 tasks) on every procedure
        ptgs = make_workload(WorkloadSpec(family="random", n_ptgs=3, seed=seed))
        for ptg in ptgs:
            for _, constraint, kwargs in PROCEDURES:
                assert_identical_runs(ptg, platform, 0.6, constraint, **kwargs)

    def test_large_graph_vectorized_dp_bit_identical(self):
        # a graph past SMALL_GRAPH_CUTOFF exercises the vectorized
        # level-batched DP branch of AllocationState (the initial bottom
        # levels, computed once before the first increment), which the
        # paper-sized workloads above never reach
        platform = grid5000.lille()
        reference = ReferenceCluster.of(platform)
        ptg = generate_random_ptg(42, RandomPTGConfig(n_tasks=550))
        ptg.ensure_single_entry_exit()
        assert ptg.n_tasks >= SMALL_GRAPH_CUTOFF
        state = AllocationState(
            ptg, reference, cap=reference.max_allocation(platform)
        )
        assert state._vector_dp, "large graph must take the vectorized DP path"
        for constraint in (
            lambda beta, power: NoConstraint(),
            AreaConstraint,
            LevelConstraint,
        ):
            assert_identical_runs(ptg, platform, 0.5, constraint)


class TestGoldenFamilies:
    """The structured fig4/fig5 application families."""

    @pytest.mark.parametrize("family", ["fft", "strassen"])
    @pytest.mark.parametrize("name,constraint,kwargs", PROCEDURES, ids=lambda p: None)
    def test_family_bit_identical(self, family, name, constraint, kwargs):
        family_platform = grid5000.site("lille" if family == "fft" else "sophia")
        ptgs = make_workload(WorkloadSpec(family=family, n_ptgs=2, seed=3))
        for ptg in ptgs:
            for beta in (0.3, 1.0):
                assert_identical_runs(ptg, family_platform, beta, constraint, **kwargs)


class TestGoldenAllocators:
    """The public allocator classes ride the fast loop and stay golden."""

    def test_cpa_single_cluster(self):
        platform = single_cluster_platform(32, 4.0)
        reference = ReferenceCluster.of(platform)
        ptgs = make_workload(WorkloadSpec(family="random", n_ptgs=2, seed=5))
        for ptg in ptgs:
            fast = CPAAllocator().allocate(ptg, platform)
            ref_alloc, _ = run_reference_allocation(
                ptg, platform, reference, 1.0, NoConstraint()
            )
            assert fast.as_dict() == ref_alloc.as_dict()

    @pytest.mark.parametrize("threshold", [0.0, 0.5])
    def test_hcpa(self, platform, threshold):
        reference = ReferenceCluster.of(platform)
        ptgs = make_workload(WorkloadSpec(family="random", n_ptgs=2, seed=6))
        for ptg in ptgs:
            fast = HCPAAllocator(efficiency_threshold=threshold).allocate(ptg, platform)
            ref_alloc, _ = run_reference_allocation(
                ptg, platform, reference, 1.0, NoConstraint(),
                efficiency_threshold=threshold,
            )
            assert fast.as_dict() == ref_alloc.as_dict()

    @pytest.mark.parametrize("allocator_cls,constraint", [
        (ScrapAllocator, AreaConstraint),
        (ScrapMaxAllocator, LevelConstraint),
    ], ids=["scrap", "scrap-max"])
    def test_scrap_variants(self, platform, allocator_cls, constraint):
        reference = ReferenceCluster.of(platform)
        ptgs = make_workload(WorkloadSpec(family="random", n_ptgs=2, seed=7))
        for ptg in ptgs:
            for beta in (0.3, 1.0):
                allocator = allocator_cls()
                fast = allocator.allocate(ptg, platform, beta=beta)
                ref_alloc, ref_stats = run_reference_allocation(
                    ptg, platform, reference, beta,
                    constraint(beta, platform.total_power_gflops),
                )
                assert fast.as_dict() == ref_alloc.as_dict()
                assert allocator.last_stats == ref_stats


class TestGoldenCustomConstraint:
    """Custom ConstraintCheck subclasses run on the dict-based reference loop."""

    class _CapAtFour(ConstraintCheck):
        stop_on_violation = False

        def violated(self, allocation, task):
            """Freeze any task that tries to grow past four processors."""
            return allocation.processors(task.task_id) > 4

    class _StopAtFour(ConstraintCheck):
        stop_on_violation = True

        def violated(self, allocation, task):
            """Stop the whole loop once a task tries to grow past four."""
            return allocation.processors(task.task_id) > 4

    @pytest.mark.parametrize("check", [_CapAtFour, _StopAtFour], ids=["freeze", "stop"])
    def test_custom_constraint_bit_identical(self, platform, check):
        ptg = make_workload(WorkloadSpec(family="random", n_ptgs=1, seed=11))[0]
        reference = ReferenceCluster.of(platform)
        fast_alloc, fast_stats = run_iterative_allocation(
            ptg, platform, reference, 1.0, check()
        )
        ref_alloc, ref_stats = run_reference_allocation(
            ptg, platform, reference, 1.0, check()
        )
        assert fast_alloc.as_dict() == ref_alloc.as_dict()
        assert fast_stats == ref_stats
        assert max(fast_alloc.as_dict().values()) <= 4
        if check.stop_on_violation:
            assert fast_stats.stopped_by_constraint

    def test_custom_constraint_route_emits_counters(self, platform):
        ptg = make_workload(WorkloadSpec(family="random", n_ptgs=1, seed=11))[0]
        reference = ReferenceCluster.of(platform)
        with obs.capture() as session:
            _, stats = run_iterative_allocation(
                ptg, platform, reference, 1.0, self._CapAtFour()
            )
        counters = session.registry.counters
        assert counters["allocation.calls"].value == 1
        assert counters["allocation.iterations"].value == stats.iterations
        assert stats.iterations > 0
