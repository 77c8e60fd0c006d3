"""The ``campaign-fig3`` workload: Figure-3 slices through the orchestrator.

The researcher's path: :func:`repro.campaigns.orchestrator.orchestrate`
with the in-process ``serial`` executor writes each experiment into a
fresh store, then :func:`repro.campaigns.aggregate.summarize_store`
reads the figure's aggregates back.  One *round* covers three Grid'5000
sites; on each site it runs random PTGs (``max_tasks=20``) at 2, 4 and 8
concurrent PTGs, two workloads per count, every paper strategy -- 18
experiments, each on its own workload.  Rounds repeat with new workloads
until the time is up.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from perfbench import common, oracle, spans
from perfbench.common import Metric, Outcome, Timing

SITES = ("lille", "nancy", "rennes")
PTG_COUNTS = (2, 4, 8)
WORKLOADS_PER_POINT = 2
MAX_TASKS = 20

EXPERIMENTS_PER_ROUND = len(SITES) * len(PTG_COUNTS) * WORKLOADS_PER_POINT

#: Rounds that set the tail percentile, fewer than any 25-s run fits (a
#: run fits five to eight on a 2-CPU box).
TAIL_BASE_ROUNDS = 3

#: Set-ups timed before the first round; one more is timed after each
#: single-site campaign, and so is each first-round store's resume, this
#: many times.  Both figures are medians over the whole run: the machine's
#: own speed moves by a third within a second, so a figure of a few tens
#: of milliseconds taken at one moment repeats badly.
SETUP_REPEATS = 3
RESUMES_PER_SAMPLE = 2


def _configs(seed: int, round_index: int) -> List:
    """The three single-site campaign configs of one round."""
    from repro.experiments.runner import CampaignConfig
    from repro.platform import grid5000

    configs = []
    for site_index, site in enumerate(SITES):
        unit = round_index * len(SITES) + site_index
        configs.append(
            CampaignConfig(
                family="random",
                ptg_counts=PTG_COUNTS,
                workloads_per_point=WORKLOADS_PER_POINT,
                platforms=(grid5000.site(site),),
                # workload seeds are base + 1000 * count + index, so bases
                # two apart never collide within a run
                base_seed=seed * 100_000 + 2 * unit,
                max_tasks=MAX_TASKS,
            )
        )
    return configs


def _setup(seed: int) -> float:
    """Make the first round's inputs (platforms, shards, workloads); seconds."""
    from repro.campaigns.shards import make_shards
    from repro.experiments.workload import make_workload

    tic = time.perf_counter()
    for config in _configs(seed, 0):
        for shard in make_shards(config):
            make_workload(shard.spec)
    return time.perf_counter() - tic


def _store_bytes(root: Path) -> int:
    total = 0
    for dirpath, _, files in os.walk(root):
        for name in files:
            total += os.path.getsize(os.path.join(dirpath, name))
    return total


def _one_campaign(config, store_dir: Path, out: Outcome) -> Tuple[List[float], float, object]:
    """Orchestrate + summarise one config; returns latencies, wall, run."""
    from repro.campaigns import aggregate, orchestrator

    clock = time.perf_counter
    stamps: List[float] = []
    start = clock()
    run = orchestrator.orchestrate(
        config,
        store=str(store_dir),
        executor="serial",
        progress=lambda _msg: stamps.append(clock()),
    )
    summary = aggregate.summarize_store(str(store_dir))
    wall = clock() - start
    previous = [start] + stamps[:-1]
    latencies = [now - before for now, before in zip(stamps, previous)]

    stats = run.stats
    out.attempted += stats.total_shards
    out.failed += stats.failed_shards
    result = run.result
    out.check(
        f"{store_dir.name}: failed_shards == 0, store summary == in-memory aggregates",
        stats.failed_shards == 0
        and summary["experiments"] == len(result.experiments) == stats.total_shards
        and summary["average_unfairness"] == result.average_unfairness()
        and summary["average_relative_makespan"] == result.average_relative_makespan(),
    )
    return latencies, wall, run


def _rounds(
    seed: int,
    work: Path,
    out: Outcome,
    deadline: Optional[float] = None,
    count: Optional[int] = None,
    tag: str = "",
    between: Optional[Callable[[List], None]] = None,
):
    """Run whole rounds until *deadline* passes (or exactly *count* rounds).

    Only whole rounds are run, so every run weighs each site and PTG
    count equally.  *between* is called (untimed) after each single-site
    campaign with the ``(store, config, run)`` triples so far.
    """
    latencies: List[float] = []
    wall = 0.0
    runs = []
    round_index = 0
    while (count is None and time.perf_counter() < deadline) or (
        count is not None and round_index < count
    ):
        for site_index, config in enumerate(_configs(seed, round_index)):
            store = work / f"{tag}round{round_index}-{SITES[site_index]}"
            lat, seconds, run = _one_campaign(config, store, out)
            latencies += lat
            wall += seconds
            runs.append((store, config, run))
            if between is not None:
                between(runs)
        round_index += 1
    return latencies, wall, runs, round_index


def _oracle_check(store: Path, config, run, out: Outcome) -> None:
    """Replay the first experiment on the reference allocator and mapper."""
    from repro.campaigns.shards import make_shards
    from repro.campaigns.store import CampaignStore

    shard = make_shards(config)[0]
    ptgs = CampaignStore(str(store)).load_workload(shard.key())
    expected = oracle.reference_experiment(
        ptgs,
        shard.platform,
        shard.strategy_names,
        shard.spec.family,
        shard.spec.label(),
    )
    got = run.result.experiments[0]
    out.check(
        "first experiment equals the reference oracles",
        got.own_makespans == expected.own_makespans and got.outcomes == expected.outcomes,
    )


def run(name: str, seed: int, seconds: float, traced: bool, work: Path) -> Outcome:
    """Run the campaign workload; see the module docstring."""
    from repro.campaigns import aggregate, orchestrator
    from repro.campaigns.store import experiment_result_to_dict

    out = Outcome(workload=name, seed=seed)
    setups = [_setup(seed) for _ in range(SETUP_REPEATS)]

    # -- measured rounds; set-up and resume samples between campaigns ---- #
    resumes: List[float] = []
    resume_ok: List[bool] = []

    def between_campaigns(runs_so_far: List) -> None:
        """Time a set-up, and resumes of the first round's stores.

        A resume skips every shard.  Resumes start once the first round
        is complete, so that every sample covers the same three stores.
        """
        setups.append(_setup(seed))
        if len(runs_so_far) < len(SITES):
            return
        for _ in range(RESUMES_PER_SAMPLE):
            for store_, config_, run_ in runs_so_far[: len(SITES)]:
                tic = time.perf_counter()
                again = orchestrator.orchestrate(
                    config_, store=str(store_), executor="serial", resume=True
                )
                summary = aggregate.summarize_store(str(store_))
                resumes.append(time.perf_counter() - tic)
                resume_ok.append(
                    again.stats.skipped_shards == again.stats.total_shards
                    and summary["average_unfairness"] == run_.result.average_unfairness()
                    and again.result.average_relative_makespan()
                    == run_.result.average_relative_makespan()
                )

    window = seconds / 2.0 if traced else seconds
    latencies, wall, runs, rounds = _rounds(
        seed, work, out, deadline=time.perf_counter() + window, between=between_campaigns
    )
    experiments = len(latencies)

    layer_values: Dict[str, float] = {}
    if traced:
        recorder = spans.Recorder()
        uninstall = spans.install(recorder)
        try:
            _, traced_wall, _, _ = _rounds(seed, work, out, count=rounds, tag="traced-")
        finally:
            uninstall()
        layer_values, out.layer_table = spans.layer_metrics(recorder)
        layer_values["trace.overhead_ratio"] = traced_wall / wall
        out.spans = recorder

    out.attempted += len(resume_ok)
    out.check(
        f"{len(resume_ok)} resumed runs skip every shard and reproduce the aggregates",
        all(resume_ok),
    )
    store, config, first_run = runs[0]
    _oracle_check(store, config, first_run, out)
    out.digests["experiments"] = common.digest_rows(
        experiment_result_to_dict(experiment) for experiment in first_run.result.experiments
    )

    stored = sum(_store_bytes(store_) for store_, _, _ in runs)
    timing = Timing([x * 1e3 for x in latencies])
    # the tail percentile is fixed by the smallest run (three rounds), so
    # that a run that fits one more round reports the same percentile
    tail_pct = common.tail_percentile(min(timing.n, TAIL_BASE_ROUNDS * EXPERIMENTS_PER_ROUND))
    e2e = out.end_to_end
    e2e["setup_s"] = Metric(
        common.median_of(setups), "s", f"first round's inputs, median of {len(setups)}"
    )
    e2e["peak_rss_mb"] = Metric(common.self_peak_rss_mb(), "MB")
    e2e["throughput_per_s"] = Metric(
        experiments / wall,
        "1/s",
        f"experiments incl. store + summary, {rounds} rounds, n={experiments}",
    )
    e2e["latency_p50_ms"] = Metric(timing.p50(), "ms", f"experiment p50, n={timing.n}")
    e2e["latency_tail_ms"] = Metric(
        common.percentile(timing.samples, tail_pct), "ms", f"experiment p{tail_pct:g}, n={timing.n}"
    )
    e2e["retained_kb_per_op"] = Metric(
        stored / experiments / 1024.0, "KB", "store bytes per experiment"
    )
    e2e["restore_s"] = Metric(
        common.median_of(resumes),
        "s",
        f"resume + summary of one first-round store, median of {len(resumes)}",
    )
    out.aliases = {"experiments_per_s": e2e["throughput_per_s"]}
    for key, value in layer_values.items():
        out.per_layer[key] = Metric(value, spans.PER_LAYER_UNITS[key])
    return out
