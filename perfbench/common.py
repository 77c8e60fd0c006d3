"""Shared helpers of the benchmark: statistics, memory, context, digests.

Everything here is independent of the program under test except
:func:`schedule_rows`, which reads a schedule through its public
iteration protocol.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform as _platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Candidate tail percentiles, coarse on purpose: the tail reported is
#: the highest of these with at least :data:`TAIL_BEYOND` samples beyond
#: it, so a run that times a few more or fewer operations keeps the same
#: percentile and stays comparable with its neighbours.
TAIL_PERCENTILES = (50.0, 75.0, 90.0, 95.0, 97.5, 99.0, 99.5, 99.75, 99.9)

#: Samples required beyond the tail percentile.
TAIL_BEYOND = 10


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of *values* (not interpolated)."""
    if not values:
        return float("nan")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def tail_percentile(n: int) -> float:
    """The highest percentile of :data:`TAIL_PERCENTILES` with 10 samples beyond."""
    best = TAIL_PERCENTILES[0]
    for pct in TAIL_PERCENTILES:
        if round(n * (100.0 - pct), 6) >= TAIL_BEYOND * 100.0:
            best = pct
    return best


@dataclass
class Timing:
    """A latency sample set summarised as p50 and the tail percentile."""

    samples: List[float]

    @property
    def n(self) -> int:
        """Sample count."""
        return len(self.samples)

    @property
    def tail_pct(self) -> float:
        """Which percentile the tail value is."""
        return tail_percentile(self.n)

    def p50(self) -> float:
        """Median sample."""
        return percentile(self.samples, 50.0)

    def tail(self) -> float:
        """Sample at :attr:`tail_pct`."""
        return percentile(self.samples, self.tail_pct)


def chunked(samples: Sequence[float], size: int) -> Tuple[float, float, float]:
    """Rate and tail per run of *size* consecutive samples, as medians.

    Returns ``(median rate in ops/s, median tail, tail percentile)``
    where a chunk's rate is its sample count over its summed samples
    (seconds) and its tail is taken at :func:`tail_percentile` of the
    chunk size.  Medians over chunks keep a burst of machine noise in a
    few chunks from moving the figure.  A sample shorter than one chunk
    is treated as a single chunk.
    """
    chunks = [samples[i : i + size] for i in range(0, len(samples) - size + 1, size)]
    if not chunks:
        chunks = [list(samples)]
    pct = tail_percentile(len(chunks[0]))
    rates = [len(chunk) / sum(chunk) for chunk in chunks]
    tails = [percentile(chunk, pct) for chunk in chunks]
    return statistics.median(rates), statistics.median(tails), pct


@dataclass
class Metric:
    """One reported value with its unit and a human-readable note."""

    value: float
    unit: str
    note: str = ""


@dataclass
class Outcome:
    """What one workload run produced: metrics, checks, op counts."""

    workload: str
    seed: int
    attempted: int = 0
    failed: int = 0
    end_to_end: Dict[str, Metric] = field(default_factory=dict)
    per_layer: Dict[str, Metric] = field(default_factory=dict)
    #: Extra end-to-end figures under the workload's own names (printed,
    #: not part of the result line).
    aliases: Dict[str, Metric] = field(default_factory=dict)
    checks: List[Tuple[str, bool, str]] = field(default_factory=list)
    digests: Dict[str, str] = field(default_factory=dict)
    layer_table: List[List] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    #: The span recorder of a traced run (written out at the end).
    spans: object = None

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        """Record one output check; a failing check counts as a failed op."""
        self.checks.append((name, bool(ok), detail))
        if not ok:
            self.failed += 1
        return bool(ok)

    @property
    def correct(self) -> bool:
        """True when every check passed and no operation failed."""
        return self.failed == 0 and all(ok for _, ok, _ in self.checks)


def median_of(values: Iterable[float]) -> float:
    """Median of a non-empty iterable."""
    return statistics.median(list(values))


def self_peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of another live process, in MiB."""
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line for pid {pid}")


def calibration_ms() -> float:
    """Best-of-five time of a fixed pure-Python loop (machine speed)."""
    best = float("inf")
    for _ in range(5):
        tic = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc = (acc + i * i) % 1_000_003
        best = min(best, time.perf_counter() - tic)
    return best * 1e3


def machine_context() -> Dict:
    """Versions, CPU count, load and calibration time of this machine."""
    import numpy

    return {
        "python": _platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": nproc(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "calibration_ms": round(calibration_ms(), 3),
    }


def nproc() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def digest_rows(rows: Iterable) -> str:
    """Short SHA-256 of a JSON-serialisable row sequence."""
    hasher = hashlib.sha256()
    for row in rows:
        hasher.update(json.dumps(row, sort_keys=True).encode("utf-8"))
        hasher.update(b"\n")
    return hasher.hexdigest()[:16]


def schedule_rows(schedule) -> List[List]:
    """Canonical, order-independent rows of a schedule."""
    rows = [
        [
            entry.ptg_name,
            entry.task_id,
            entry.cluster_name,
            list(entry.processors),
            float(entry.start).hex(),
            float(entry.finish).hex(),
        ]
        for entry in schedule
    ]
    rows.sort(key=lambda row: (row[0], row[1]))
    return rows


def log(*parts) -> None:
    """Progress line on stderr (stdout is reserved for the report)."""
    print(*parts, file=sys.stderr, flush=True)


def load_pinned(path: str) -> Dict:
    """The pinned digests file, or an empty mapping."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        return {}


def pinned_check(outcome: Outcome, pinned: Dict, seconds: float) -> None:
    """Compare the run's digests with the pinned ones of its settings.

    Digests are pinned for one seed and one ``--seconds`` (the daemon's
    stream length follows ``--seconds``); other settings are not checked.
    """
    if outcome.seed != pinned.get("seed") or seconds != pinned.get("seconds"):
        return
    expected: Optional[Dict] = pinned.get("workloads", {}).get(outcome.workload)
    if not expected:
        outcome.notes.append("no pinned digest for this workload")
        return
    for name, value in expected.items():
        got = outcome.digests.get(name)
        outcome.check(f"pinned digest {name}", got == value, f"expected {value}, got {got}")
