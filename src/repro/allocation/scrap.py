"""SCRAP and SCRAP-MAX constrained allocation procedures.

Both procedures (introduced in the authors' earlier PDCS'07 paper and
recalled in Section 4 of the reproduced paper) start from one reference
processor per task and repeatedly add a processor to the critical-path
task that benefits the most, exactly like HCPA.  They differ in how a
violation of the resource constraint ``beta`` is detected:

* **SCRAP** checks a *global area* condition: the sum of the task areas
  divided by the critical path length (i.e. the average processing power
  the schedule will occupy) must not exceed ``beta`` times the platform's
  aggregate power.  The first violation stops the procedure.

* **SCRAP-MAX** applies the constraint *per precedence level*: the
  aggregate power allocated to the tasks of any level must not exceed
  ``beta`` times the platform power.  A violating increment only freezes
  the offending task; other critical-path tasks may keep growing.  This
  guarantees that the concurrent ready tasks of a level (which is what the
  mapping step ends up scheduling together) fit within the application's
  share, and avoids the task post-poning SCRAP can suffer from.

The paper's concurrent scheduler uses SCRAP-MAX; SCRAP is kept for the
ablation benchmark comparing the two.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.allocation.base import Allocation, AllocationProcedure
from repro.allocation.iterative import (
    AreaConstraint,
    IterationStats,
    LevelConstraint,
    run_iterative_allocation,
)
from repro.allocation.reference import ReferenceCluster
from repro.dag.graph import PTG
from repro.platform.multicluster import MultiClusterPlatform


class ScrapAllocator(AllocationProcedure):
    """SCRAP: constrained allocation with a global area constraint."""

    name = "SCRAP"

    def __init__(
        self,
        use_balance_stop: bool = True,
        efficiency_threshold: float = 0.0,
    ) -> None:
        self.use_balance_stop = use_balance_stop
        self.efficiency_threshold = efficiency_threshold
        self.last_stats: Optional[IterationStats] = None

    def allocate(
        self, ptg: PTG, platform: MultiClusterPlatform, beta: float = 1.0
    ) -> Allocation:
        """Allocate *ptg* under the global area constraint ``beta``."""
        reference = ReferenceCluster.of(platform)
        constraint = AreaConstraint(beta, platform.total_power_gflops)
        allocation, stats = run_iterative_allocation(
            ptg,
            platform,
            reference,
            beta=beta,
            constraint=constraint,
            use_balance_stop=self.use_balance_stop,
            efficiency_threshold=self.efficiency_threshold,
        )
        self.last_stats = stats
        return allocation

    @staticmethod
    def respects_constraint(allocation: Allocation, platform: MultiClusterPlatform) -> bool:
        """Check the SCRAP (area) constraint on a finished allocation."""
        return (
            allocation.average_power()
            <= allocation.beta * platform.total_power_gflops + 1e-9
        )


class ScrapMaxAllocator(AllocationProcedure):
    """SCRAP-MAX: constrained allocation with a per-precedence-level constraint."""

    name = "SCRAP-MAX"

    def __init__(
        self,
        use_balance_stop: bool = True,
        efficiency_threshold: float = 0.0,
    ) -> None:
        self.use_balance_stop = use_balance_stop
        self.efficiency_threshold = efficiency_threshold
        self.last_stats: Optional[IterationStats] = None

    def allocate(
        self, ptg: PTG, platform: MultiClusterPlatform, beta: float = 1.0
    ) -> Allocation:
        """Allocate *ptg* under the per-level constraint ``beta``."""
        reference = ReferenceCluster.of(platform)
        constraint = LevelConstraint(beta, platform.total_power_gflops)
        allocation, stats = run_iterative_allocation(
            ptg,
            platform,
            reference,
            beta=beta,
            constraint=constraint,
            use_balance_stop=self.use_balance_stop,
            efficiency_threshold=self.efficiency_threshold,
        )
        self.last_stats = stats
        return allocation

    @staticmethod
    def respects_constraint(allocation: Allocation, platform: MultiClusterPlatform) -> bool:
        """Check the SCRAP-MAX (per-level) constraint on a finished allocation.

        The initial one-processor-per-task allocation may itself exceed the
        constraint on very wide levels with a very small ``beta`` (there is
        no way to allocate less than one processor per task); in that case
        the procedure never makes things worse, and this check reports
        whether the *final* allocation fits.
        """
        limit = allocation.beta * platform.total_power_gflops + 1e-9
        return all(power <= limit for power in allocation.level_powers().values())
