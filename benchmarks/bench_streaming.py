"""Benchmark E13 -- the event-driven streaming engine vs naive replay.

The online scheduler used to be a *batch replay*: the only way to follow
a growing arrival stream (a live submission queue, a resumed sweep, a
monitoring loop asking "where are we now?" after every batch) was to
re-replay the whole prefix through
:class:`repro.scheduler._reference.ReferenceOnlineScheduler` -- whose
per-admission completion lookup additionally re-scans every entry placed
so far, making each replay quadratic in the number of submissions.

This benchmark drives the acceptance workload -- a seeded Poisson stream
of 1000 PTG submissions on the composed 11-cluster Grid'5000 platform --
through both paths:

1. **event-driven** (optimized): one long-lived
   :class:`repro.streaming.engine.StreamSession` fed the stream in
   batches, scheduling each submission exactly once;
2. **naive replay** (baseline): after every batch, the preserved
   pre-refactor scheduler re-replays the full prefix from scratch.

Both paths run inside
:func:`repro.mapping._reference.reference_implementation`, so both place
tasks with the same engine (the oracle ``ReferencePlacementEngine``,
which the preserved scheduler always builds): the timings compare the
session's bookkeeping with the replay's, not two placement engines.
The final schedules must be **bit-identical** (the rework is a pure
performance refactor) and the event-driven loop must be at least **3x**
faster; a ``BENCH_streaming.json`` summary also records the single-pass
comparison (same stream, one batch), where the only saving is the
removed quadratic re-scan.

Run standalone with
``PYTHONPATH=src python benchmarks/bench_streaming.py`` or through
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
except ModuleNotFoundError:  # standalone: python benchmarks/bench_streaming.py
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    from benchmarks.conftest import full_scale, write_result
from repro.mapping._reference import reference_implementation
from repro.platform import grid5000
from repro.scheduler._reference import ReferenceOnlineScheduler
from repro.streaming.engine import StreamSession
from repro.streaming.spec import ArrivalSpec, generate_arrivals

#: The acceptance workload: >= 1000 Poisson submissions on the composed
#: multi-site platform (the reduced scale keeps CI wall time in check
#: while preserving the >= 3x verdict).
N_ARRIVALS_FULL = 1000
N_ARRIVALS_REDUCED = 600

#: Number of batches of the "follow the stream" scenario: after every
#: batch the naive path re-replays the whole prefix, the session just
#: continues.  Ten batches keep the prefix-replay overhead (~5.5x the
#: single pass) independent of the stream length.
N_BATCHES = 10

#: Mean inter-arrival time (seconds); ~12s keeps the system stably
#: loaded (a handful of concurrent applications) on the composed site.
MEAN_GAP = 12.0


def _assert_identical(fast_schedule, ref_schedule):
    assert len(fast_schedule) == len(ref_schedule), "schedules differ in size"
    for entry in fast_schedule:
        other = ref_schedule.entry(entry.ptg_name, entry.task_id)
        assert entry.cluster_name == other.cluster_name, (entry, other)
        assert entry.processors == other.processors, (entry, other)
        assert entry.start == other.start, (entry, other)
        assert entry.finish == other.finish, (entry, other)


def run_streaming_core():
    """Time the event-driven session against the naive prefix replay."""
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
    batch_size = max(1, n_arrivals // N_BATCHES)
    batches = [
        stream[i:i + batch_size] for i in range(0, len(stream), batch_size)
    ]

    # Each phase is measured after dropping the previous phase's objects
    # and collecting: a 12k-entry schedule keeps ~10^6 objects alive, and
    # letting them pile up distorts later measurements through GC
    # pressure (observed: up to 40% on the last phase measured).

    with reference_implementation():
        # -- single pass: the whole stream in one batch each ------------ #
        gc.collect()
        tic = time.perf_counter()
        single_session = StreamSession(platform)
        single_session.feed(stream)
        single_fast = time.perf_counter() - tic
        del single_session
        gc.collect()
        tic = time.perf_counter()
        single_ref_result = ReferenceOnlineScheduler().schedule(stream, platform)
        single_ref = time.perf_counter() - tic
        del single_ref_result
        gc.collect()

        # -- event-driven: one session, fed batch by batch -------------- #
        tic = time.perf_counter()
        session = StreamSession(platform)
        for batch in batches:
            session.feed(batch)
        fast_result = session.result()
        fast_seconds = time.perf_counter() - tic
        gc.collect()

        # -- naive replay: re-run the whole prefix after every batch ---- #
        tic = time.perf_counter()
        ref_result = None
        for end in range(batch_size, len(stream) + batch_size, batch_size):
            prefix = stream[:end]
            ref_result = ReferenceOnlineScheduler().schedule(prefix, platform)
        replay_seconds = time.perf_counter() - tic

    _assert_identical(fast_result.schedule, ref_result.schedule)
    assert fast_result.makespans() == ref_result.makespans()

    tasks = len(fast_result.schedule)
    return {
        "platform": platform.name,
        "arrivals": n_arrivals,
        "batch_size": batch_size,
        "tasks_scheduled": tasks,
        "horizon_seconds": fast_result.horizon(),
        "event_driven_seconds": fast_seconds,
        "naive_replay_seconds": replay_seconds,
        "speedup": replay_seconds / fast_seconds,
        "single_pass_optimized_seconds": single_fast,
        "single_pass_reference_seconds": single_ref,
        "single_pass_speedup": single_ref / single_fast,
        "submissions_per_second_event_driven": n_arrivals / fast_seconds,
    }


def bench_streaming(benchmark):
    """Event-driven stream following vs naive prefix replay (>= 3x gate)."""
    summary = benchmark.pedantic(run_streaming_core, rounds=1, iterations=1)
    write_result("BENCH_streaming.json", json.dumps(summary, indent=2))
    assert summary["speedup"] >= 3.0, (
        f"event-driven loop is only {summary['speedup']:.2f}x faster than the "
        f"naive replay ({summary['event_driven_seconds']:.2f}s vs "
        f"{summary['naive_replay_seconds']:.2f}s)"
    )
    # the single pass only saves the quadratic re-scan, which is small at
    # reduced scale: gate against a material regression, not noise
    assert summary["single_pass_speedup"] >= 0.85, (
        f"single-pass regression: {summary['single_pass_speedup']:.2f}x"
    )


if __name__ == "__main__":
    result = run_streaming_core()
    print(json.dumps(result, indent=2))
    assert result["speedup"] >= 3.0, f"speedup {result['speedup']:.2f}x < 3x"
