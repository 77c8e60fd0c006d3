"""Bit-identity oracles: replay a short prefix on the preserved references.

The production pipeline keeps a readable reference for each hot stage:
``repro.allocation._reference`` (the allocation loop),
``repro.mapping._reference`` (placement, swapped in by
``reference_implementation()``) and ``repro.scheduler._reference`` (the
online replay).  A change that makes a stage faster but alters one
decision makes these replays disagree with the run, and the benchmark
counts the disagreement as a failed operation.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.allocation._reference import run_reference_allocation
from repro.allocation.base import Allocation, AllocationProcedure
from repro.allocation.iterative import LevelConstraint
from repro.allocation.reference import ReferenceCluster
from repro.dag.graph import PTG
from repro.mapping._reference import reference_implementation
from repro.platform.multicluster import MultiClusterPlatform
from repro.scheduler._reference import ReferenceOnlineScheduler


class ReferenceScrapMax(AllocationProcedure):
    """SCRAP-MAX on the preserved dict-based allocation loop."""

    name = "SCRAP-MAX"

    def allocate(
        self, ptg: PTG, platform: MultiClusterPlatform, beta: float = 1.0
    ) -> Allocation:
        """Allocate *ptg* under the per-level constraint *beta*."""
        allocation, _ = run_reference_allocation(
            ptg,
            platform,
            ReferenceCluster.of(platform),
            beta,
            LevelConstraint(beta, platform.total_power_gflops),
        )
        return allocation


def reference_stream_schedule(arrivals: Sequence, platform: MultiClusterPlatform):
    """The schedule of the all-reference online replay of *arrivals*."""
    with reference_implementation():
        return ReferenceOnlineScheduler(allocator=ReferenceScrapMax()).schedule(
            list(arrivals), platform
        ).schedule


def reference_experiment(
    ptgs: List[PTG],
    platform: MultiClusterPlatform,
    strategy_names: Sequence[str],
    family: str,
    workload_label: str,
):
    """One campaign experiment on the reference allocator and mapper."""
    from repro.constraints.registry import strategy
    from repro.experiments.runner import compute_own_makespans, run_experiment
    from repro.scheduler.single import SinglePTGScheduler

    strategies = [strategy(name, family=family) for name in strategy_names]
    with reference_implementation():
        own = compute_own_makespans(
            ptgs, platform, SinglePTGScheduler(allocator=ReferenceScrapMax())
        )
        return run_experiment(
            ptgs,
            platform,
            strategies,
            workload_label=workload_label,
            own_makespans=own,
            allocator=ReferenceScrapMax(),
        )
