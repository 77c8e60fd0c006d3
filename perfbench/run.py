"""Run one benchmark workload (or all of them) and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload stream-random --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --trace 1

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Progress goes to standard error.  The program under test is imported
from the checkout's ``src`` directory; without it the run exits with
code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import common, spans  # noqa: E402  (needs ROOT on sys.path)

#: The workloads of ``BENCHMARK.json``, in the order ``all`` runs them.
WORKLOADS = ("stream-random", "campaign-fig3", "daemon-poisson")

#: Runnable by name but not part of the benchmark: its figures were not
#: steady enough between seeds (see README.md).
EXTRA_WORKLOADS = ("stream-fft",)

#: Default of ``--seed``; ``pinned_digests.json`` holds this seed's digests.
DEFAULT_SEED = 1

#: Scratch space of a run (stores, daemon spec); removed at the end.
WORK_DIR = ROOT / ".perfbench-work"

#: Where traced runs write their spans.
TRACE_DIR = ROOT / ".perfbench-traces"

PINNED = Path(__file__).resolve().parent / "pinned_digests.json"

#: Value reported for a timing whose operations failed (infinite).
MISSED_LIMIT = 1e12


def _import_program() -> bool:
    """Put the checkout's ``src`` first on the path and import ``repro``."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(src))
    try:
        import repro  # noqa: F401
    except Exception as exc:  # noqa: BLE001 -- reported, exit code 2
        common.log(f"cannot import the program: {exc!r}")
        return False
    return Path(repro.__file__).resolve().is_relative_to(src)


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> common.Outcome:
    """Dispatch one workload."""
    if name.startswith("stream-"):
        from perfbench import stream

        return stream.run(name, seed, seconds, traced)
    if name == "campaign-fig3":
        from perfbench import campaign

        return campaign.run(name, seed, seconds, traced, WORK_DIR)
    from perfbench import daemon

    return daemon.run(name, seed, seconds, traced, WORK_DIR)


def report(outcome: common.Outcome, traced: bool, context: dict) -> dict:
    """Print the human-readable report; return the result object."""
    print(f"workload {outcome.workload}  seed {outcome.seed}  trace {int(traced)}")
    print("context " + json.dumps(context, sort_keys=True))
    print("end-to-end metrics:")
    for key, metric in list(outcome.end_to_end.items()) + list(outcome.aliases.items()):
        print(f"  {key:<28} {metric.value:>14.4f} {metric.unit:<6} {metric.note}")
    if traced:
        print("per-layer self time:")
        print(f"  {'layer':<14} {'calls':>9} {'self ms':>12} {'share':>7}")
        for layer, calls, self_ms, share in outcome.layer_table:
            print(f"  {layer:<14} {calls:>9d} {self_ms:>12.1f} {share:>7.1%}")
        print("per-layer metrics:")
        for key, metric in outcome.per_layer.items():
            print(f"  {key:<34} {metric.value:>12.4f} {metric.unit}")
    for name, ok, detail in outcome.checks:
        print(f"check {'ok  ' if ok else 'FAIL'} {name}" + (f": {detail}" if detail else ""))
    for key, value in sorted(outcome.digests.items()):
        print(f"digest {key} {value}")
    for note in outcome.notes[:20]:
        print(f"note {note}")
    print(f"operations attempted {outcome.attempted} failed {outcome.failed}")
    metrics = outcome.per_layer if traced else outcome.end_to_end
    return {
        "correct": outcome.correct,
        "attempted": max(1, int(outcome.attempted)),
        "failed": int(outcome.failed),
        "metrics": {
            # a latency is infinite when its operation failed; JSON has
            # no infinity, so it is reported as MISSED_LIMIT
            key: {
                "value": metric.value if math.isfinite(metric.value) else MISSED_LIMIT,
                "unit": metric.unit,
            }
            for key, metric in metrics.items()
        },
    }


def main(argv=None) -> int:
    """Entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=WORKLOADS + EXTRA_WORKLOADS + ("all",)
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not _import_program():
        common.log("the program's sources (src/repro) are not in this checkout")
        return 2
    traced = bool(args.trace)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    pinned = common.load_pinned(str(PINNED))
    results = []
    for name in names:
        shutil.rmtree(WORK_DIR, ignore_errors=True)
        WORK_DIR.mkdir(parents=True)
        try:
            context = common.machine_context()
            common.log(f"running {name} (seed {args.seed}, {args.seconds:g}s, trace {args.trace})")
            outcome = run_workload(name, args.seed, args.seconds, traced)
            if traced:
                # every per-layer metric, in one order; 0 = layer not used
                outcome.per_layer = {
                    key: outcome.per_layer.get(key, common.Metric(0.0, unit))
                    for key, unit in spans.PER_LAYER_UNITS.items()
                }
            common.pinned_check(outcome, pinned, args.seconds)
            if outcome.spans is not None:
                TRACE_DIR.mkdir(exist_ok=True)
                path = TRACE_DIR / f"{name}-seed{args.seed}.jsonl"
                outcome.spans.dump(
                    str(path), {"workload": name, "seed": args.seed, "context": context}
                )
                print(f"spans written to {path.relative_to(ROOT)}")
            results.append(report(outcome, traced, context))
        finally:
            shutil.rmtree(WORK_DIR, ignore_errors=True)
    for result in results:
        print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
