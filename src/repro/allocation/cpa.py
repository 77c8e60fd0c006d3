"""CPA: Critical Path and Area-based allocation (Radulescu & van Gemund).

CPA is the classical allocation procedure for mixed-parallel applications
on a *homogeneous* cluster: starting from one processor per task, it gives
one more processor to the critical-path task with the largest benefit
until the critical path length no longer exceeds the average area
``T_A = (1/P) * sum_v T(v, n_v) * n_v``.

It is provided here as the homogeneous baseline the HCPA / SCRAP
procedures build upon and is restricted to single-cluster platforms (use
:class:`~repro.allocation.hcpa.HCPAAllocator` for multi-cluster
platforms).
"""

from __future__ import annotations

from repro.allocation.base import Allocation, AllocationProcedure
from repro.allocation.iterative import NoConstraint, run_iterative_allocation
from repro.allocation.reference import ReferenceCluster
from repro.dag.graph import PTG
from repro.exceptions import AllocationError
from repro.platform.multicluster import MultiClusterPlatform


class CPAAllocator(AllocationProcedure):
    """The CPA allocation procedure for homogeneous single-cluster platforms."""

    name = "CPA"

    def __init__(self, efficiency_threshold: float = 0.0) -> None:
        """The canonical CPA has no over-allocation guard (threshold 0)."""
        self.efficiency_threshold = efficiency_threshold

    def allocate(
        self, ptg: PTG, platform: MultiClusterPlatform, beta: float = 1.0
    ) -> Allocation:
        """Allocate *ptg* on the single cluster of *platform*.

        ``beta`` scales the processor count the balance criterion refers
        to, which allows CPA to be used as a (homogeneous) constrained
        allocator in ablation studies; the canonical CPA is ``beta = 1``.
        """
        if len(platform) != 1:
            raise AllocationError(
                f"CPA only supports single-cluster platforms; platform "
                f"{platform.name!r} has {len(platform)} clusters "
                "(use HCPAAllocator instead)"
            )
        reference = ReferenceCluster.of(platform)
        allocation, _ = run_iterative_allocation(
            ptg,
            platform,
            reference,
            beta=beta,
            constraint=NoConstraint(),
            use_balance_stop=True,
            efficiency_threshold=self.efficiency_threshold,
        )
        return allocation
