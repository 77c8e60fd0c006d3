"""Benchmark E14 -- sub-millisecond admission: delta-EFT + batched kernels.

The admission hot path of the streaming engine compounds three fast
paths, each checked against the preserved reference of its stage:

1. **delta-EFT** placement: the placement engine caches each cluster's
   sorted free-time frontier across admissions and prunes clusters whose
   lower bound already exceeds the best finish found so far, instead of
   fully evaluating every cluster in declaration order per task;
2. the **fused allocation loop**: incremental bottom-level propagation
   and freeze-skip replace the two full critical-path DPs per SCRAP
   iteration;
3. **batched multi-PTG kernels**: arrival batches are compiled into one
   shared ``DagArrays`` arena and their Amdahl allocation tables are
   swept in one stacked pass before admission starts.

This benchmark drives the streaming acceptance workload -- a seeded
Poisson stream of 1000 PTG submissions on the composed 11-cluster
Grid'5000 platform -- through a fully-optimized session (the production
defaults) and through the **full-pass path**: the preserved pre-refactor
reference implementations (`repro.mapping._reference`,
`repro.allocation._reference`), which re-run the scalar per-cluster EFT
scan and the dict-based per-iteration allocation DP for every
admission.  The gate requires the optimized amortized
per-admission time to be at least **3x** better.  The schedules and
per-application makespans of both runs must be bit-identical (the fast
paths are exact); ``BENCH_delta.json`` records the summary.

Run standalone with
``PYTHONPATH=src python benchmarks/bench_delta_eft.py`` or through
pytest-benchmark with
``PYTHONPATH=src python -m pytest benchmarks/ --benchmark-only -s``.
"""

from __future__ import annotations

import gc
import json
import sys
import time
from pathlib import Path

try:
    from benchmarks.conftest import full_scale, write_result
except ModuleNotFoundError:  # standalone: python benchmarks/bench_delta_eft.py
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    from benchmarks.conftest import full_scale, write_result
from repro.allocation._reference import run_reference_allocation
from repro.allocation.iterative import LevelConstraint
from repro.allocation.reference import ReferenceCluster
from repro.allocation.scrap import ScrapMaxAllocator
from repro.mapping._reference import reference_implementation
from repro.platform import grid5000
from repro.streaming.engine import StreamSession
from repro.streaming.spec import ArrivalSpec, generate_arrivals

#: The acceptance workload: >= 1000 Poisson submissions on the composed
#: multi-site platform (the reduced scale keeps CI wall time in check
#: while preserving the >= 3x verdict).
N_ARRIVALS_FULL = 1000
N_ARRIVALS_REDUCED = 600

#: Mean inter-arrival time (seconds); ~12s keeps the system stably
#: loaded (a handful of concurrent applications) on the composed site.
MEAN_GAP = 12.0


class _FullPassAllocator(ScrapMaxAllocator):
    """SCRAP-MAX routed through the pre-refactor allocation loop."""

    def allocate(self, ptg, platform, beta=1.0):
        reference = ReferenceCluster.of(platform)
        constraint = LevelConstraint(beta, platform.total_power_gflops)
        allocation, stats = run_reference_allocation(
            ptg,
            platform,
            reference,
            beta,
            constraint,
            use_balance_stop=self.use_balance_stop,
            efficiency_threshold=self.efficiency_threshold,
        )
        self.last_stats = stats
        return allocation


def _assert_identical(fast_result, ref_result):
    fast_schedule, ref_schedule = fast_result.schedule, ref_result.schedule
    assert len(fast_schedule) == len(ref_schedule), "schedules differ in size"
    for entry in fast_schedule:
        other = ref_schedule.entry(entry.ptg_name, entry.task_id)
        assert entry.cluster_name == other.cluster_name, (entry, other)
        assert entry.processors == other.processors, (entry, other)
        assert entry.start == other.start, (entry, other)
        assert entry.finish == other.finish, (entry, other)
    assert fast_result.makespans() == ref_result.makespans()


def run_delta_core():
    """Time the optimized admission path against the full-pass reference."""
    n_arrivals = N_ARRIVALS_FULL if full_scale() else N_ARRIVALS_REDUCED
    platform = grid5000.composed()
    spec = ArrivalSpec(
        process="poisson",
        rate=1.0 / MEAN_GAP,
        n_arrivals=n_arrivals,
        seed=2009,
        family="random",
        max_tasks=10,
    )
    stream = generate_arrivals(spec)

    # -- optimized: delta-EFT + fused loop + batched kernels ------------ #
    gc.collect()
    tic = time.perf_counter()
    fast_session = StreamSession(platform)
    fast_session.feed(stream)
    fast_result = fast_session.result()
    fast_seconds = time.perf_counter() - tic
    del fast_session
    gc.collect()

    # -- full pass: the preserved pre-refactor reference (scalar EFT ----- #
    # -- scan, dict-based allocation DP) --------------------------------- #
    tic = time.perf_counter()
    with reference_implementation():
        ref_session = StreamSession(platform, allocator=_FullPassAllocator())
        ref_session.feed(stream)
    ref_result = ref_session.result()
    ref_seconds = time.perf_counter() - tic

    _assert_identical(fast_result, ref_result)

    tasks = len(fast_result.schedule)
    return {
        "platform": platform.name,
        "arrivals": n_arrivals,
        "tasks_scheduled": tasks,
        "horizon_seconds": fast_result.horizon(),
        "optimized_seconds": fast_seconds,
        "full_pass_seconds": ref_seconds,
        "speedup_vs_full_pass": ref_seconds / fast_seconds,
        "optimized_admission_ms": 1000.0 * fast_seconds / n_arrivals,
        "full_pass_admission_ms": 1000.0 * ref_seconds / n_arrivals,
    }


def bench_delta_eft(benchmark):
    """Delta-EFT + batched kernels vs the full-pass path (>= 3x gate)."""
    summary = benchmark.pedantic(run_delta_core, rounds=1, iterations=1)
    write_result("BENCH_delta.json", json.dumps(summary, indent=2))
    assert summary["speedup_vs_full_pass"] >= 3.0, (
        f"optimized admission is only {summary['speedup_vs_full_pass']:.2f}x "
        f"faster than the full-pass path ({summary['optimized_seconds']:.2f}s "
        f"vs {summary['full_pass_seconds']:.2f}s)"
    )


if __name__ == "__main__":
    result = run_delta_core()
    print(json.dumps(result, indent=2))
    assert result["speedup_vs_full_pass"] >= 3.0, (
        f"speedup {result['speedup_vs_full_pass']:.2f}x < 3x"
    )
