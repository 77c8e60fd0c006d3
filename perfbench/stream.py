"""The ``stream-*`` workloads: one caller admitting a Poisson stream in-process.

A single caller feeds :meth:`repro.streaming.engine.StreamSession.admit`
one arrival at a time and waits for each (a closed loop), on the composed
11-cluster Grid'5000 site with the default equal-share strategy and
SCRAP-MAX.  The stream is a fixed pool of seeded arrivals; each measured
session replays the pool on fresh copies of its graphs, so every session
has the same length and pays the graph compilation a real submission
pays.
"""

from __future__ import annotations

import gc
import time
import tracemalloc
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from perfbench import common, oracle, spans
from perfbench.common import Metric, Outcome, Timing


@dataclass(frozen=True)
class StreamConfig:
    """Shape of one stream workload."""

    family: str
    max_tasks: Optional[int]
    #: Arrivals per session (the pool generated at set-up).
    pool: int
    #: Arrivals admitted in a throw-away session before timing.
    warmup: int
    #: Admissions traced by tracemalloc for the retained-memory figure.
    memory: int
    #: Arrivals of the checkpoint restored with ``feed``.
    restore: int
    #: Prefix replayed on the reference oracles.
    oracle: int
    #: Consecutive admissions per chunk of the throughput/tail medians.
    chunk: int


CONFIGS = {
    "stream-random": StreamConfig(
        "random", 10, pool=1000, warmup=30, memory=120, restore=100, oracle=20, chunk=200
    ),
    "stream-fft": StreamConfig(
        "fft", None, pool=300, warmup=6, memory=24, restore=24, oracle=1, chunk=100
    ),
}

#: Virtual mean gap between submissions (seconds of simulated time).
MEAN_GAP = 12.0

#: Set-up repetitions, restore samples (at least) and restores taken
#: between two sessions; the medians of the repetitions and samples are
#: reported.
SETUP_REPEATS = 3
RESTORE_SAMPLES = 5
RESTORES_BETWEEN_SESSIONS = 2


def _setup(cfg: StreamConfig, seed: int):
    from repro.platform import grid5000
    from repro.streaming.spec import ArrivalSpec, generate_arrivals

    platform = grid5000.composed()
    arrivals = generate_arrivals(
        ArrivalSpec(
            process="poisson",
            rate=1.0 / MEAN_GAP,
            n_arrivals=cfg.pool,
            seed=seed,
            family=cfg.family,
            max_tasks=cfg.max_tasks,
        )
    )
    return platform, arrivals


def _fresh(arrivals) -> List:
    """The arrivals on new graph objects (no compiled arrays cached)."""
    from repro.streaming.engine import Arrival

    return [Arrival(a.ptg.copy(), a.time, tenant=a.tenant) for a in arrivals]


def _validate(session, out: Outcome) -> None:
    from repro.validate import validate_schedule

    arrivals = session.arrivals
    if not arrivals:
        return
    report = validate_schedule(
        session.schedule,
        ptgs=[a.ptg for a in arrivals],
        platform=session.platform,
        releases={a.ptg.name: a.time for a in arrivals},
    )
    if not report.ok:
        out.failed += len(report.violations)
    out.checks.append(
        ("session schedule valid", report.ok, report.summary() if not report.ok else "")
    )


def _run_sessions(
    platform,
    arrivals,
    out: Outcome,
    deadline: Optional[float] = None,
    sizes: Optional[List[int]] = None,
    between: Optional[Callable[[], None]] = None,
    keep: Iterable[str] = (),
) -> Tuple[List[float], List[int], Dict[str, float], List[List]]:
    """Admit pool replays until *deadline* (or exactly *sizes* sessions).

    *between* is called before every session but the first, when the
    previous session is garbage, so a side measurement always meets the
    same heap and samples the whole run; the deadline moves by the time
    it takes.  Returns the per-admission latencies, the admissions of
    each session, and the first session's completion times and schedule
    rows of the applications named in *keep*.
    """
    from repro.streaming.engine import StreamSession

    clock = time.perf_counter
    keep = set(keep)
    latencies: List[float] = []
    done: List[int] = []
    first_completions: Dict[str, float] = {}
    first_rows: List[List] = []
    while True:
        if sizes is not None:
            if len(done) >= len(sizes):
                break
            quota = sizes[len(done)]
        else:
            if clock() >= deadline:
                break
            quota = len(arrivals)
            if done and between is not None:
                paused = clock()
                between()
                deadline += clock() - paused
        batch = _fresh(arrivals[:quota])
        session = StreamSession(platform)
        count = 0
        for arrival in batch:
            if deadline is not None and clock() >= deadline:
                break
            tic = clock()
            try:
                session.admit(arrival)
            except Exception as exc:  # noqa: BLE001 -- counted, run goes on
                out.failed += 1
                out.notes.append(f"admission of {arrival.ptg.name} raised {exc!r}")
            latencies.append(clock() - tic)
            count += 1
        out.attempted += count
        _validate(session, out)
        if not done:
            first_completions = session.completions
            first_rows = [row for row in common.schedule_rows(session.schedule) if row[0] in keep]
        done.append(count)
        del session, batch
    return latencies, done, first_completions, first_rows


def _retained_kb(platform, arrivals, count: int) -> float:
    """Heap bytes a session keeps per admission, in KiB (tracemalloc)."""
    from repro.streaming.engine import StreamSession

    batch = _fresh(arrivals[:count])
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        session = StreamSession(platform)
        for arrival in batch:
            session.admit(arrival)
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    del session
    return (after - before) / count / 1024.0


def _restore_sample(platform, arrivals, restored: List) -> float:
    """Feed a checkpoint's arrivals to a new session; returns the seconds."""
    from repro.streaming.engine import StreamSession

    checkpoint = _fresh(arrivals)
    tic = time.perf_counter()
    session = StreamSession(platform)
    session.feed(checkpoint)
    elapsed = time.perf_counter() - tic
    restored.append(session.completions)
    return elapsed


def run(name: str, seed: int, seconds: float, traced: bool) -> Outcome:
    """Run one stream workload; see the module docstring."""
    cfg = CONFIGS[name]
    out = Outcome(workload=name, seed=seed)

    # -- set-up: platform build + stream generation, median of repeats -- #
    setups = []
    for _ in range(SETUP_REPEATS):
        tic = time.perf_counter()
        platform, arrivals = _setup(cfg, seed)
        setups.append(time.perf_counter() - tic)

    # -- warm-up: lazy imports and caches, not timed ------------------- #
    from repro.streaming.engine import StreamSession

    warm = StreamSession(platform)
    for arrival in _fresh(arrivals[: cfg.warmup]):
        warm.admit(arrival)
    del warm

    # -- measured closed loop, restore samples spread over it ----------- #
    # a restore feeds the first arrivals, as checkpointed, to a new session
    restore_arrivals = arrivals[: cfg.restore]
    restores: List[float] = []
    restored: List[Dict[str, float]] = []

    def sample_restore() -> None:
        for _ in range(RESTORES_BETWEEN_SESSIONS):
            restores.append(_restore_sample(platform, restore_arrivals, restored))

    window = seconds / 2.0 if traced else seconds
    latencies, sizes, original, rows = _run_sessions(
        platform,
        arrivals,
        out,
        deadline=time.perf_counter() + window,
        between=sample_restore,
        keep=[a.ptg.name for a in restore_arrivals],
    )
    while len(restores) < RESTORE_SAMPLES:
        sample_restore()
    busy = sum(latencies)
    timing = Timing([x * 1e3 for x in latencies])

    layer_values: Dict[str, float] = {}
    if traced:
        recorder = spans.Recorder()
        uninstall = spans.install(recorder)
        try:
            traced_latencies = _run_sessions(platform, arrivals, out, sizes=sizes)[0]
        finally:
            uninstall()
        layer_values, out.layer_table = spans.layer_metrics(recorder)
        layer_values["trace.overhead_ratio"] = sum(traced_latencies) / busy
        out.spans = recorder

    # -- retained memory per admission --------------------------------- #
    retained = _retained_kb(platform, arrivals, cfg.memory)

    out.attempted += len(restored) * len(restore_arrivals)
    out.check(
        f"{len(restored)} restores: completions equal the live session's",
        all(
            completions[a.ptg.name] == original.get(a.ptg.name)
            for completions in restored
            for a in restore_arrivals
        ),
    )

    # -- bit identity: reference oracles on a prefix, pinned digest ----- #
    prefix = restore_arrivals[: cfg.oracle]
    expected = oracle.reference_stream_schedule(_fresh(prefix), platform)
    names = {a.ptg.name for a in prefix}
    mine = [row for row in rows if row[0] in names]
    out.check(
        f"first {len(prefix)} admissions equal the reference oracles",
        mine == common.schedule_rows(expected),
    )
    out.digests["schedule"] = common.digest_rows(rows)

    # -- metrics --------------------------------------------------------- #
    admitted = len(latencies)
    rate, tail, tail_pct = common.chunked(latencies, cfg.chunk)
    e2e = out.end_to_end
    e2e["setup_s"] = Metric(common.median_of(setups), "s", f"median of {SETUP_REPEATS}")
    e2e["peak_rss_mb"] = Metric(common.self_peak_rss_mb(), "MB")
    e2e["throughput_per_s"] = Metric(
        rate, "1/s", f"admissions, median over chunks of {cfg.chunk}, n={admitted}"
    )
    e2e["latency_p50_ms"] = Metric(timing.p50(), "ms", f"admit p50, n={timing.n}")
    e2e["latency_tail_ms"] = Metric(
        tail * 1e3, "ms", f"admit p{tail_pct:g} per chunk of {cfg.chunk}, median, n={admitted}"
    )
    e2e["retained_kb_per_op"] = Metric(retained, "KB", f"per admission, n={cfg.memory}")
    e2e["restore_s"] = Metric(
        common.median_of(restores),
        "s",
        f"feed of {len(restore_arrivals)} arrivals, median of {len(restores)}",
    )
    out.aliases = {
        "admissions_per_s": e2e["throughput_per_s"],
        "admit_p50_ms": e2e["latency_p50_ms"],
        "admit_tail_ms": e2e["latency_tail_ms"],
        "retained_kb_per_admission": e2e["retained_kb_per_op"],
    }
    for key, value in layer_values.items():
        out.per_layer[key] = Metric(value, spans.PER_LAYER_UNITS[key])
    return out
