"""Span tracing of the program's layers, done from outside the program.

:func:`install` wraps the public entry points of each layer (one module
of ``repro`` per layer) so that every call records a span ``(id, name,
start, end, parent id, op id)`` in a :class:`Recorder`.  Nothing in the
program is edited: the wrappers replace class attributes and module
functions and :func:`install` returns the function that puts the
originals back.  Spans stay in memory until :meth:`Recorder.dump`.

A span's *layer* is the part of its name before the first dot.  A
layer's self time is the time its spans cover minus the part their
direct child spans cover, so nested layers are never counted twice.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: Span names that start a new operation id (an admission or an
#: experiment) when no operation is open yet.
OP_SPANS = ("streaming.admit", "experiments.shard")


class Recorder:
    """In-memory span store plus the counters measured at the same calls."""

    def __init__(self) -> None:
        self.spans: List[Tuple[int, str, float, float, Optional[int], int]] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[Tuple[int, str, object]] = []
        self._next_id = 0
        self._next_op = 0
        self._op = 0

    def wrap(
        self,
        name: str,
        fn: Callable,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> Callable:
        """*fn* wrapped so each call records a span called *name*.

        *before(args)* runs ahead of the call and its value is handed to
        *after(args, result, value)*, which updates :attr:`counts`.  A
        call made by a method of the same span name on the same object
        (an override calling ``super()``) is not recorded again.
        """
        recorder = self
        op_span = name in OP_SPANS
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = recorder._stack
            owner = args[0] if args else None
            if stack and stack[-1][1] == name and stack[-1][2] is owner:
                return fn(*args, **kwargs)
            parent = stack[-1][0] if stack else None
            span_id = recorder._next_id
            recorder._next_id += 1
            outer_op = recorder._op
            if op_span and outer_op == 0:
                recorder._next_op += 1
                recorder._op = recorder._next_op
            state = before(args) if before is not None else None
            stack.append((span_id, name, owner))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                recorder.spans.append(
                    (span_id, name, start, end, parent, recorder._op)
                )
                recorder._op = outer_op
            if after is not None:
                after(args, result, state)
            return result

        return wrapper

    # ------------------------------------------------------------------ #
    # analysis
    # ------------------------------------------------------------------ #
    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        covered: Dict[int, float] = defaultdict(float)
        for span_id, _, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        table: Dict[str, Dict[str, float]] = {}
        for span_id, name, start, end, parent, _ in self.spans:
            row = table.setdefault(
                name, {"calls": 0.0, "total": 0.0, "self": 0.0, "root": 0.0}
            )
            duration = end - start
            row["calls"] += 1
            row["total"] += duration
            row["self"] += duration - covered.get(span_id, 0.0)
            if parent is None:
                row["root"] += duration
        return table

    def dump(self, path: str, header: Dict) -> None:
        """Write the header and every span as JSON lines to *path*."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"header": header, "counts": self.counts}) + "\n")
            for span_id, name, start, end, parent, op in self.spans:
                handle.write(
                    json.dumps([span_id, name, round(start, 7), round(end, 7), parent, op])
                    + "\n"
                )


def layer_table(summary: Dict[str, Dict[str, float]]) -> Tuple[Dict[str, Dict[str, float]], float]:
    """Per layer: calls, self seconds; plus the total traced wall time."""
    layers: Dict[str, Dict[str, float]] = {}
    total = 0.0
    for name, row in summary.items():
        layer = name.split(".", 1)[0]
        entry = layers.setdefault(layer, {"calls": 0.0, "self": 0.0})
        entry["calls"] += row["calls"]
        entry["self"] += row["self"]
        total += row["root"]
    return layers, total


# ---------------------------------------------------------------------- #
# the entry points of each layer
# ---------------------------------------------------------------------- #
def _all_subclasses(cls) -> List[type]:
    seen: List[type] = [cls]
    index = 0
    while index < len(seen):
        for sub in seen[index].__subclasses__():
            if sub not in seen:
                seen.append(sub)
        index += 1
    return seen


def _allocation_after(recorder: Recorder):
    def after(args, result, _state) -> None:
        stats = getattr(args[0], "last_stats", None)
        if stats is not None:
            recorder.counts["allocation.iterations"] += stats.iterations
            recorder.counts["allocation.increments"] += stats.increments
            recorder.counts["allocation.jobs_with_stats"] += 1

    return after


def _placement_before(args):
    return getattr(args[0], "packed_tasks", 0)


def _placement_after(recorder: Recorder):
    def after(args, result, packed_before) -> None:
        recorder.counts["mapping.placements"] += 1
        if getattr(args[0], "packed_tasks", 0) != packed_before:
            recorder.counts["mapping.packed"] += 1

    return after


def _tasks_after(recorder: Recorder, key: str, which: Callable):
    def after(args, result, _state) -> None:
        recorder.counts[key] += which(args, result)

    return after


def install(recorder: Recorder) -> Callable[[], None]:
    """Wrap every layer entry point; returns the function undoing it."""
    import repro.allocation.cpa  # noqa: F401 -- register the subclasses
    import repro.allocation.hcpa  # noqa: F401
    import repro.allocation.scrap  # noqa: F401
    import repro.campaigns.aggregate as aggregate_mod
    import repro.campaigns.orchestrator as orchestrator_mod
    import repro.campaigns.pool as pool_mod
    import repro.constraints.registry  # noqa: F401
    import repro.dag.arrays as arrays_mod
    import repro.mapping.global_order  # noqa: F401
    import repro.mapping.ready_list  # noqa: F401
    from repro.allocation.base import AllocationProcedure
    from repro.campaigns.store import CampaignStore
    from repro.constraints.base import ConstraintStrategy
    from repro.dag.graph import PTG
    from repro.mapping.base import Mapper
    from repro.mapping.eft import PlacementEngine
    from repro.scheduler.single import SinglePTGScheduler
    from repro.simulate.executor import ScheduleExecutor
    from repro.streaming.engine import StreamSession

    def simulated_tasks(args, _result) -> int:
        ptgs = args[1] if len(args) > 1 else []
        return sum(p.n_tasks for p in ptgs)

    methods = [
        (ConstraintStrategy, "compute_betas", "constraints.compute_betas", None, None),
        (
            AllocationProcedure, "allocate", "allocation.allocate",
            None, _allocation_after(recorder),
        ),
        (
            PlacementEngine, "place", "mapping.place",
            _placement_before, _placement_after(recorder),
        ),
        (Mapper, "map", "mapping.map", None, None),
        (StreamSession, "admit", "streaming.admit", None, None),
        (SinglePTGScheduler, "schedule", "scheduler.single", None, None),
        (
            ScheduleExecutor, "execute", "simulate.execute",
            None, _tasks_after(recorder, "simulate.tasks", simulated_tasks),
        ),
        (CampaignStore, "append", "campaigns.store", None, None),
        (CampaignStore, "append_payload", "campaigns.store", None, None),
        (CampaignStore, "save_cache", "campaigns.store", None, None),
        (PTG, "validate", "dag.validate", None, None),
    ]
    functions = [
        (
            arrays_mod, "compile_arrays", "dag.compile",
            None, _tasks_after(recorder, "dag.tasks_compiled", lambda a, r: a[0].n_tasks),
        ),
        (pool_mod, "execute_shard", "experiments.shard", None, None),
        (orchestrator_mod, "orchestrate", "campaigns.orchestrate", None, None),
        (aggregate_mod, "summarize_store", "campaigns.summarize", None, None),
    ]

    saved: List[Tuple[object, str, object]] = []
    for base, attr, name, before, after in methods:
        for cls in _all_subclasses(base):
            original = cls.__dict__.get(attr)
            if original is None or not callable(original):
                continue
            if getattr(original, "__isabstractmethod__", False):
                continue
            saved.append((cls, attr, original))
            setattr(cls, attr, recorder.wrap(name, original, before, after))
    for module, attr, name, before, after in functions:
        original = getattr(module, attr)
        saved.append((module, attr, original))
        setattr(module, attr, recorder.wrap(name, original, before, after))

    def uninstall() -> None:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return uninstall


# ---------------------------------------------------------------------- #
# per-layer metrics
# ---------------------------------------------------------------------- #
#: Every per-layer metric with its unit, in report order.  Layers a
#: workload does not exercise report 0.
PER_LAYER_UNITS = {
    "allocation.us_per_iteration": "us",
    "allocation.share": "ratio",
    "allocation.iterations_per_job": "count",
    "allocation.accept_ratio": "ratio",
    "mapping.us_per_placement": "us",
    "mapping.placements_per_job": "count",
    "mapping.packed_ratio": "ratio",
    "mapping.share": "ratio",
    "streaming.self_us_per_admission": "us",
    "dag.compile_us_per_task": "us",
    "constraints.us_per_call": "us",
    "constraints.share": "ratio",
    "simulate.us_per_task": "us",
    "simulate.share": "ratio",
    "scheduler.own_makespan_share": "ratio",
    "campaigns.store_ms_per_shard": "ms",
    "campaigns.summarize_ms": "ms",
    "service.admission_p50_ms": "ms",
    "service.admission_p99_ms": "ms",
    "service.queue_depth_max": "count",
    "service.rejections": "count",
    "service.generator_late_ms": "ms",
    "service.checkpoint_s": "s",
    "service.checkpoint_kb": "KB",
    "trace.overhead_ratio": "ratio",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(recorder: Recorder) -> Tuple[Dict[str, float], List[List]]:
    """The per-layer metrics a recorder supports, plus a printable table.

    Returns the metric values (``service.*`` and ``trace.overhead_ratio``
    are left to the workload) and rows ``[layer, calls, self ms, share]``.
    """
    summary = recorder.summary()
    layers, total = layer_table(summary)
    counts = recorder.counts

    def self_s(layer: str) -> float:
        return layers.get(layer, {}).get("self", 0.0)

    def calls(name: str) -> float:
        return summary.get(name, {}).get("calls", 0.0)

    jobs = calls("allocation.allocate")
    placements = counts.get("mapping.placements", 0.0)
    shards = calls("experiments.shard")
    store_calls = calls("campaigns.store")
    values = {
        "allocation.us_per_iteration": _ratio(
            self_s("allocation") * 1e6, counts.get("allocation.iterations", 0.0)
        ),
        "allocation.share": _ratio(self_s("allocation"), total),
        "allocation.iterations_per_job": _ratio(
            counts.get("allocation.iterations", 0.0),
            counts.get("allocation.jobs_with_stats", 0.0),
        ),
        "allocation.accept_ratio": _ratio(
            counts.get("allocation.increments", 0.0),
            counts.get("allocation.iterations", 0.0),
        ),
        "mapping.us_per_placement": _ratio(self_s("mapping") * 1e6, placements),
        "mapping.placements_per_job": _ratio(placements, jobs),
        "mapping.packed_ratio": _ratio(counts.get("mapping.packed", 0.0), placements),
        "mapping.share": _ratio(self_s("mapping"), total),
        "streaming.self_us_per_admission": _ratio(
            self_s("streaming") * 1e6, calls("streaming.admit")
        ),
        "dag.compile_us_per_task": _ratio(
            self_s("dag") * 1e6, counts.get("dag.tasks_compiled", 0.0)
        ),
        "constraints.us_per_call": _ratio(
            self_s("constraints") * 1e6, calls("constraints.compute_betas")
        ),
        "constraints.share": _ratio(self_s("constraints"), total),
        "simulate.us_per_task": _ratio(
            self_s("simulate") * 1e6, counts.get("simulate.tasks", 0.0)
        ),
        "simulate.share": _ratio(self_s("simulate"), total),
        "scheduler.own_makespan_share": _ratio(
            summary.get("scheduler.single", {}).get("total", 0.0), total
        ),
        "campaigns.store_ms_per_shard": _ratio(
            summary.get("campaigns.store", {}).get("total", 0.0) * 1e3,
            shards if shards else store_calls,
        ),
        "campaigns.summarize_ms": _ratio(
            summary.get("campaigns.summarize", {}).get("total", 0.0) * 1e3,
            calls("campaigns.summarize"),
        ),
    }
    rows = [
        [layer, int(entry["calls"]), entry["self"] * 1e3, _ratio(entry["self"], total)]
        for layer, entry in sorted(layers.items(), key=lambda kv: -kv[1]["self"])
    ]
    return values, rows
