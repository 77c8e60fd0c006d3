"""Shared machinery of the CPA-family iterative allocation procedures.

CPA, HCPA, SCRAP and SCRAP-MAX all follow the same scheme:

1. start from an allocation of **one (reference) processor per task**;
2. repeatedly pick the task on the **critical path** that benefits the
   most from one extra processor (largest reduction of ``T(v,p)/p``) and
   give it that processor;
3. stop when the allocation is *balanced* -- the critical path length
   ``T_CP`` no longer exceeds the average area ``T_A`` -- or when the next
   increment would **violate the resource constraint**.

The procedures only differ in the resource-constraint check, encapsulated
by :class:`ConstraintCheck` implementations:

* no check at all (CPA / HCPA, which rely only on the balance criterion),
* a global area check (SCRAP),
* a per-precedence-level power check (SCRAP-MAX).

Performance
-----------
:func:`run_iterative_allocation` is the allocation hot path: it runs up
to ``n_tasks * cap`` iterations, each of which needs the critical path
under the current allocation, the balance test, the per-candidate
marginal gains and (for SCRAP / SCRAP-MAX) a constraint re-evaluation
after the tentative increment.  For the three built-in checks it runs
the fused loop of :mod:`repro.allocation.fastloop` over an
:class:`~repro.allocation.state.AllocationState` (precomputed duration,
area, gain and efficiency tables, incremental bottom levels, inline
constraint tests).  A custom :class:`ConstraintCheck` subclass runs on
the dict-based loop of :mod:`repro.allocation._reference`, the oracle
the fused loop is asserted **bit-identical** against
(``tests/test_allocation_golden.py``), which evaluates
:meth:`ConstraintCheck.violated` on a real
:class:`~repro.allocation.base.Allocation`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Optional

from repro.allocation.base import Allocation
from repro.allocation.fastloop import run_fused_loop
from repro.allocation.reference import ReferenceCluster
from repro.allocation.state import AllocationState
from repro.dag.graph import PTG
from repro.dag.task import Task
from repro.exceptions import AllocationError
from repro.obs import meters, trace
from repro.platform.multicluster import MultiClusterPlatform


class ConstraintCheck(abc.ABC):
    """Resource-constraint violation test used during iterative allocation."""

    #: When True, the first violation aborts the whole procedure (SCRAP);
    #: when False, only the offending task is frozen and other critical
    #: path tasks may still grow (SCRAP-MAX).
    stop_on_violation: bool = True

    @abc.abstractmethod
    def violated(self, allocation: Allocation, task: Task) -> bool:
        """True if *allocation* (after a tentative increment of *task*) violates the constraint."""


class NoConstraint(ConstraintCheck):
    """No resource constraint (CPA / HCPA): the balance criterion alone stops the loop."""

    stop_on_violation = True

    def violated(self, allocation: Allocation, task: Task) -> bool:
        """Never violated: CPA/HCPA only stop on the time/area balance criterion."""
        return False


class AreaConstraint(ConstraintCheck):
    """SCRAP's global constraint.

    A violation is detected "if the sum of the areas of the tasks [...]
    using the current allocation divided by the time spent executing the
    critical path of the PTG exceeds beta" times the globally available
    processing power.
    """

    stop_on_violation = True

    def __init__(self, beta: float, platform_power_gflops: float) -> None:
        if not (0.0 < beta <= 1.0):
            raise AllocationError(f"beta must be in (0, 1], got {beta}")
        if platform_power_gflops <= 0:
            raise AllocationError("platform power must be positive")
        self.beta = beta
        self.platform_power_gflops = platform_power_gflops

    def violated(self, allocation: Allocation, task: Task) -> bool:
        """Paper rule: average power over the critical path exceeds ``beta * P``."""
        return allocation.average_power() > self.beta * self.platform_power_gflops + 1e-12


class LevelConstraint(ConstraintCheck):
    """SCRAP-MAX's per-precedence-level constraint.

    "The idea is to restrain the amount of resources allocated at any
    precedence level to beta": the aggregate power of the tasks of any
    level must not exceed ``beta`` times the platform power, which
    guarantees that all the ready tasks of a level can in principle run
    concurrently within the application's share.
    """

    stop_on_violation = False

    def __init__(self, beta: float, platform_power_gflops: float) -> None:
        if not (0.0 < beta <= 1.0):
            raise AllocationError(f"beta must be in (0, 1], got {beta}")
        if platform_power_gflops <= 0:
            raise AllocationError("platform power must be positive")
        self.beta = beta
        self.platform_power_gflops = platform_power_gflops

    def violated(self, allocation: Allocation, task: Task) -> bool:
        """Paper rule: the task's precedence level would exceed ``beta * P``."""
        level = allocation.ptg.precedence_level(task.task_id)
        return (
            allocation.level_power(level)
            > self.beta * self.platform_power_gflops + 1e-12
        )


@dataclass
class IterationStats:
    """Diagnostics returned next to an allocation (used by tests and ablations)."""

    iterations: int = 0
    increments: int = 0
    frozen_tasks: int = 0
    stopped_by_balance: bool = False
    stopped_by_constraint: bool = False
    stopped_by_saturation: bool = False


DEFAULT_EFFICIENCY_THRESHOLD = 0.0


#: The constraint checks the fused loop of :mod:`repro.allocation.fastloop`
#: evaluates inline; any other :class:`ConstraintCheck` (subclasses of
#: these included) runs on the dict-based reference loop.
_BUILT_IN_CHECKS = (NoConstraint, AreaConstraint, LevelConstraint)


def run_iterative_allocation(
    ptg: PTG,
    platform: MultiClusterPlatform,
    reference: ReferenceCluster,
    beta: float,
    constraint: ConstraintCheck,
    use_balance_stop: bool = True,
    max_iterations: Optional[int] = None,
    efficiency_threshold: float = DEFAULT_EFFICIENCY_THRESHOLD,
) -> tuple[Allocation, IterationStats]:
    """Run the CPA-style iterative allocation loop.

    Parameters
    ----------
    ptg:
        The graph to allocate; must be validated (single entry/exit).
    platform:
        The target platform (used for the per-task allocation cap and for
        the total power the constraints refer to).
    reference:
        The reference cluster abstraction of *platform*.
    beta:
        The resource constraint in ``(0, 1]``.
    constraint:
        Violation test applied after each tentative increment.
    use_balance_stop:
        Stop when ``T_CP <= T_A`` where ``T_A`` is the average area over
        ``beta * N_ref`` reference processors (the CPA balance criterion
        scaled by the constraint).
    max_iterations:
        Safety bound; defaults to ``n_tasks * max_task_allocation + 1``.
    efficiency_threshold:
        A task may only receive one more processor while its parallel
        efficiency stays at or above this value.  This is the
        over-allocation remedy applied to HCPA in the authors' earlier
        comparison paper (ref. [11] of the reproduced paper): without it
        the CPA benefit criterion keeps feeding critical-path tasks far
        past the point of diminishing returns, which starves task
        parallelism and hurts dedicated-platform (``beta = 1``) schedules.
        Set to 0 to disable the guard.

    Returns
    -------
    (Allocation, IterationStats)
    """
    # The span is coarse (one per allocate call) and the counters are
    # derived from IterationStats after the loop, so telemetry adds no
    # per-iteration work -- disabled or enabled.  Each route validates
    # its arguments once: the oracle loop does its own checks.
    with trace.span("allocation.iterate", ptg=ptg.name) as obs_span:
        if type(constraint) in _BUILT_IN_CHECKS:
            if not (0.0 < beta <= 1.0):
                raise AllocationError(f"beta must be in (0, 1], got {beta}")
            if not (0.0 <= efficiency_threshold <= 1.0):
                raise AllocationError(
                    "efficiency_threshold must be in [0, 1], "
                    f"got {efficiency_threshold}"
                )
            ptg.validate()
            stats = IterationStats()
            cap = reference.max_allocation(platform)
            if max_iterations is None:
                max_iterations = ptg.n_tasks * cap + 1
            state = AllocationState(ptg, reference, cap=cap, beta=beta)
            run_fused_loop(
                state,
                constraint,
                stats,
                use_balance_stop=use_balance_stop,
                max_iterations=max_iterations,
                efficiency_threshold=efficiency_threshold,
                effective_ref_size=max(1.0, beta * reference.size),
            )
            allocation = state.as_allocation()
        else:
            # the oracle module imports this one: resolve it at call time
            from repro.allocation._reference import run_reference_allocation

            allocation, stats = run_reference_allocation(
                ptg,
                platform,
                reference,
                beta,
                constraint,
                use_balance_stop=use_balance_stop,
                max_iterations=max_iterations,
                efficiency_threshold=efficiency_threshold,
            )

        registry = meters.active()
        if registry is not None:
            obs_span.annotate(
                iterations=stats.iterations, increments=stats.increments
            )
            registry.counter("allocation.calls").inc()
            registry.counter("allocation.iterations").inc(stats.iterations)
            registry.counter("allocation.increments").inc(stats.increments)
            registry.counter("allocation.frozen_tasks").inc(stats.frozen_tasks)
            if stats.stopped_by_constraint:
                registry.counter("allocation.stopped_by_constraint").inc()

    return allocation, stats
