"""The ``daemon-poisson`` workload: ``repro serve`` over a loopback socket.

The daemon runs as a subprocess with 4 tenants and the ``stream-random``
pipeline (composed Grid'5000 site, equal share, SCRAP-MAX) and stream
(random PTGs, ``max_tasks=10``, virtual gap 12 s).  One client thread
sends pre-serialised submissions with at most ``nproc`` connections at a
time, each tenant's submissions in order.  Phases:

1. after an untimed warm-up and one saturation burst (phase 3), open
   loop at a third of the capacity measured so far (Poisson wall-clock
   schedule), in segments;
   each submission is timed from the instant it was *due* to its
   HTTP 202, which counts the wait a blocked event loop imposes; the
   client's own lateness in waking up for a due submission is not
   charged to the daemon (it is reported apart, as
   ``service.generator_late_ms``), while waiting for the tenant's
   previous answer or for a free connection is;
2. ``POST /checkpoint``, shutdown, ``serve --restore`` (timed from
   spawn to listening); the restored completion times must equal the
   ones served before shutdown;
3. saturation on the restored daemon, in bursts: every submission of a
   burst due at once, capacity = admissions / time until the backlog is
   drained.

After the checkpoint the bursts alternate with further fixed-rate
segments (on the restored daemon) and with spare daemons restoring the
same checkpoint, so that each figure is a median of samples spread over
the whole run rather than one stretch of it.  In a traced run every
spare also drains the first burst after the checkpoint again, traced or
not in turn, which gives the tracing overhead of the admission path.

Every tenant's ``GET /schedule`` (validated by the daemon) must answer
200, and each tenant's first admissions must equal the reference
oracles, placement for placement.
"""

from __future__ import annotations

import json
import os
import select
import shutil
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from perfbench import common, oracle, spans
from perfbench.common import Metric, Outcome, Timing

ROOT = Path(__file__).resolve().parent.parent
LAUNCHER = Path(__file__).resolve().parent / "daemon_main.py"

TENANTS = 4
MAX_TASKS = 10
MEAN_GAP = 12.0

#: Phase 1: offered rate as a share of the capacity measured so far (the
#: median of the bursts before the segment), and the submissions sent at
#: that rate per second of ``--seconds`` (about 0.8 of the run on a 2-CPU
#: box).  A rate fixed in submissions per second is a different load
#: whenever the shared machine speeds up or slows down (capacity 166 to
#: 227/s within ten runs): at 80/s and at 65/s the queue grew in slow
#: stretches and the accept latencies of whole runs doubled or tripled.
#: At a fifth of capacity a segment's p90 sat where waiting for a running
#: admission begins and jumped between 3 and 17 ms.
FIXED_LOAD = 1.0 / 3.0
FIXED_PER_SECOND = 48

#: Submissions sent at once, untimed, before anything is measured: the
#: daemon's first admissions pay its lazy imports and caches.
WARMUP_SUBMISSIONS = 20

#: Phase 3: submissions sent at once, per second of ``--seconds``.
SATURATION_PER_SECOND = 40

#: Per-tenant prefix replayed on the reference oracles.
ORACLE_PREFIX = 5

#: Set-up repetitions (generation + daemon start) before the first
#: segment, one more after every other burst, and restores; their
#: medians are reported.
SETUP_REPEATS = 2
RESTORE_REPEATS = 6

#: Phase 3 is split in bursts, one more burst precedes the first
#: fixed-rate segment; capacity is the median of all of them.
SATURATION_BURSTS = 6

#: Phase-1 submissions are sent in this many segments, spread over the
#: run (two before the checkpoint, the rest evenly after the bursts); the
#: accept tail is the median of the segments' tails, which keeps a pause
#: of the machine or of the daemon's garbage collector within one or two
#: segments from moving it.
FIXED_SEGMENTS = 8
CHECKPOINT_SEGMENTS = 2

#: Polling interval while waiting for the saturation backlog to drain.
POLL_SECONDS = 0.03

#: Longest wait for a daemon to start or stop, and for a backlog to drain.
PROCESS_TIMEOUT = 60.0
DRAIN_TIMEOUT = 30.0

SPEC = {
    "platform": "grid5000",
    "pipeline": {"allocator": "scrap-max", "mapper": "ready-list", "packing": True},
    "strategies": ["ES"],
    "service": {"queue_depth": 4096, "slo": 0.5},
}


# ---------------------------------------------------------------------- #
# the daemon process
# ---------------------------------------------------------------------- #
class Daemon:
    """One ``serve`` subprocess and its bound port."""

    def __init__(self, args: List[str], work: Path, trace_out: Optional[Path] = None) -> None:
        cmd = [sys.executable, str(LAUNCHER)]
        if trace_out is not None:
            cmd += ["--trace-out", str(trace_out)]
        cmd += ["serve"] + args
        self.log_path = work / f"daemon-{time.monotonic_ns()}.log"
        self._log = open(self.log_path, "w", encoding="utf-8")
        tic = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, cwd=str(ROOT), stdout=subprocess.PIPE, stderr=self._log
        )
        self.port = self._wait_ready()
        self.ready_seconds = time.perf_counter() - tic

    def _wait_ready(self) -> int:
        """Read the daemon's stdout until its ``listening on`` line."""
        deadline = time.perf_counter() + PROCESS_TIMEOUT
        fd = self.proc.stdout.fileno()
        pending = b""
        while time.perf_counter() < deadline:
            ready, _, _ = select.select([fd], [], [], 0.5)
            if not ready:
                if self.proc.poll() is not None:
                    break
                continue
            chunk = os.read(fd, 4096)
            if not chunk:
                break
            pending += chunk
            while b"\n" in pending:
                line, pending = pending.split(b"\n", 1)
                text = line.decode("utf-8", "replace")
                if text.startswith("listening on "):
                    return int(text.rsplit(":", 1)[1])
        self.kill()
        raise RuntimeError(
            f"daemon did not start; log:\n{self.log_path.read_text()[-2000:]}"
        )

    def peak_rss_mb(self) -> float:
        """The daemon's peak resident set size so far."""
        return common.proc_peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        """``POST /shutdown`` and wait for the process to exit."""
        try:
            call(self.port, "POST", "/shutdown")
        except OSError:
            pass
        try:
            self.proc.wait(timeout=PROCESS_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.kill()
        self._close()

    def kill(self) -> None:
        """Kill the process and reap it."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._close()

    def _close(self) -> None:
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._log.close()


# ---------------------------------------------------------------------- #
# the client
# ---------------------------------------------------------------------- #
def raw_request(method: str, path: str, body: Optional[bytes] = None) -> bytes:
    """One HTTP/1.1 request as bytes (``Connection: close``)."""
    head = f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n"
    if body is not None:
        head += f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
    return (head + "\r\n").encode("ascii") + (body or b"")


def _parse_response(buffer: bytes) -> Optional[Tuple[int, bytes]]:
    """``(status, body)`` once *buffer* holds a whole response, else None.

    A response is whole when its ``Content-Length`` bytes have arrived,
    which can be well before the daemon closes the connection: the close
    waits for the event loop, which may first run the admission the
    request just queued.
    """
    end = buffer.find(b"\r\n\r\n")
    if end < 0:
        return None
    length = 0
    for line in buffer[:end].split(b"\r\n")[1:]:
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value)
    if len(buffer) < end + 4 + length:
        return None
    return int(buffer[:end].split(b" ", 2)[1]), bytes(buffer[end + 4 : end + 4 + length])


def call(port: int, method: str, path: str, body: Optional[Dict] = None):
    """One blocking JSON request; returns (status, decoded body)."""
    payload = json.dumps(body).encode("utf-8") if body is not None else None
    with socket.create_connection(("127.0.0.1", port), timeout=PROCESS_TIMEOUT) as sock:
        sock.sendall(raw_request(method, path, payload))
        buffer = bytearray()
        while (reply := _parse_response(buffer)) is None:
            chunk = sock.recv(65536)
            if not chunk:
                raise ConnectionError(f"{method} {path}: connection closed mid-response")
            buffer += chunk
    status, raw = reply
    return status, (json.loads(raw) if raw else None)


class _Exchange:
    """One submission in flight: its index and the bytes still to send."""

    __slots__ = ("index", "pending", "received")

    def __init__(self, index: int, raw: bytes) -> None:
        self.index = index
        self.pending = memoryview(raw)
        self.received = bytearray()


def _open_loop(
    port: int, raws: List[bytes], tenants: List[str], offsets: List[float], limit: int
) -> List[Tuple[int, float, float, Dict]]:
    """Send ``raws[i]`` when due (``offsets[i]`` after start), in tenant order.

    One thread, non-blocking sockets and ``select`` (whose timeout has
    microsecond resolution, where an event loop's timer rounds up to the
    millisecond): at most *limit* connections at a time, and a
    submission waits for its tenant's previous one to be answered.
    Returns per submission ``(status, due->response s, generator late s,
    body)``, where the response time does not count the generator's
    lateness: the clock starts when the client picks the submission up,
    and only then waits for the tenant's previous answer and for a
    connection.
    """
    clock = time.perf_counter
    count = len(raws)
    results: List = [None] * count
    before: List[Optional[int]] = []
    last: Dict[str, int] = {}
    for index, tenant in enumerate(tenants):
        before.append(last.get(tenant))
        last[tenant] = index
    start = clock()
    dues = [start + offset for offset in offsets]
    late = [0.0] * count
    waiting: List[int] = []
    flight: Dict[socket.socket, _Exchange] = {}
    upcoming = 0

    def finish(sock: socket.socket, status: int, body: bytes) -> None:
        index = flight.pop(sock).index
        sock.close()
        results[index] = (
            status,
            clock() - dues[index] - late[index],
            late[index],
            json.loads(body or b"{}"),
        )

    while upcoming < count or waiting or flight:
        now = clock()
        while upcoming < count and dues[upcoming] <= now:
            late[upcoming] = now - dues[upcoming]
            waiting.append(upcoming)
            upcoming += 1
        blocked = []
        for index in waiting:
            previous = before[index]
            if len(flight) < limit and (previous is None or results[previous] is not None):
                sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
                sock.setblocking(False)
                sock.connect_ex(("127.0.0.1", port))
                flight[sock] = _Exchange(index, raws[index])
            else:
                blocked.append(index)
        waiting = blocked
        timeout = max(0.0, dues[upcoming] - clock()) if upcoming < count else None
        readable, writable, _ = select.select(
            list(flight), [sock for sock, ex in flight.items() if ex.pending], [], timeout
        )
        for sock in writable:
            exchange = flight[sock]
            try:
                exchange.pending = exchange.pending[sock.send(exchange.pending) :]
            except BlockingIOError:
                pass
            except OSError as exc:
                finish(sock, 0, json.dumps({"error": repr(exc)}).encode())
        for sock in readable:
            if sock not in flight:
                continue
            exchange = flight[sock]
            try:
                chunk = sock.recv(65536)
            except BlockingIOError:
                continue
            except OSError as exc:
                finish(sock, 0, json.dumps({"error": repr(exc)}).encode())
                continue
            if not chunk:
                finish(sock, 0, b'{"error": "connection closed mid-response"}')
                continue
            exchange.received += chunk
            reply = _parse_response(exchange.received)
            if reply is not None:
                finish(sock, *reply)
    return results


def _submissions(seed: int, count: int):
    """The seeded stream and its pre-serialised submit requests."""
    from repro.dag.io import ptg_to_dict
    from repro.streaming.spec import ArrivalSpec, generate_arrivals

    arrivals = generate_arrivals(
        ArrivalSpec(
            process="poisson",
            rate=1.0 / MEAN_GAP,
            n_arrivals=count,
            seed=seed,
            family="random",
            max_tasks=MAX_TASKS,
            tenants=TENANTS,
        )
    )
    raws = [
        raw_request(
            "POST",
            "/submit",
            json.dumps(
                {"tenant": a.tenant, "time": a.time, "ptg": ptg_to_dict(a.ptg)}
            ).encode("utf-8"),
        )
        for a in arrivals
    ]
    return arrivals, raws


def _count_replies(results, out: Outcome) -> int:
    """Count the submissions as operations; returns how many were accepted."""
    out.attempted += len(results)
    accepted = 0
    for status, _, _, body in results:
        if status == 202:
            accepted += 1
            continue
        out.failed += 1
        if len(out.notes) < 20:
            out.notes.append(f"submit answered {status}: {body}")
    return accepted


def _completions(port: int) -> Dict[str, Dict[str, float]]:
    status, body = call(port, "GET", "/status")
    return {name: row["completion_times"] for name, row in body["tenants"].items()}


def _drain(port: int, expected: int, out: Outcome) -> float:
    """Wait until the daemon has admitted *expected* applications."""
    deadline = time.perf_counter() + DRAIN_TIMEOUT
    while time.perf_counter() < deadline:
        status, body = call(port, "GET", "/metrics")
        if status == 200 and body["admissions"] >= expected:
            return time.perf_counter()
        time.sleep(POLL_SECONDS)
    out.check(f"daemon admits every accepted submission ({expected})", False)
    return time.perf_counter()


def _histogram_between(before: Dict, after: Dict):
    """The daemon's admission-latency histogram between two ``GET /metrics``.

    Bucket counts are differenced; the extremes (used only below the
    first edge and in the overflow bucket) are those of *after*.
    """
    from repro.obs.meters import Histogram

    name = "service.admission_latency"
    old = before["metrics"]["histograms"][name]
    histogram = Histogram.from_dict(after["metrics"]["histograms"][name])
    histogram.bucket_counts = [
        count - earlier for count, earlier in zip(histogram.bucket_counts, old["bucket_counts"])
    ]
    histogram.overflow -= old["overflow"]
    histogram.count -= old["count"]
    histogram.sum -= old["sum"]
    return histogram


def _load_spans(path: Path, recorder: spans.Recorder) -> None:
    """Append a daemon's spans and counts, minus its restore, to *recorder*."""
    lines = path.read_text(encoding="utf-8").splitlines()
    head = json.loads(lines[0])
    skip = head["header"]["restore_spans"]
    restore_counts = head["header"]["restore_counts"]
    for key, value in head["counts"].items():
        recorder.counts[key] += value - restore_counts.get(key, 0.0)
    offset = recorder._next_id
    top = offset
    for line in lines[1 + skip:]:
        span_id, name, start, end, parent, op = json.loads(line)
        recorder.spans.append(
            (span_id + offset, name, start, end, None if parent is None else parent + offset, op)
        )
        top = max(top, span_id + offset + 1)
    recorder._next_id = top


def run(name: str, seed: int, seconds: float, traced: bool, work: Path) -> Outcome:
    """Run the daemon workload; see the module docstring."""
    out = Outcome(workload=name, seed=seed)
    limit = common.nproc()
    per_segment = int(round(FIXED_PER_SECOND * seconds / FIXED_SEGMENTS))
    per_burst = int(round(SATURATION_PER_SECOND * seconds / SATURATION_BURSTS))
    bursts = SATURATION_BURSTS + 1
    total = WARMUP_SUBMISSIONS + FIXED_SEGMENTS * per_segment + bursts * per_burst
    store = work / "store"
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(SPEC), encoding="utf-8")
    serve_args = [str(spec_path), "--store", str(store)]
    trace_files = (
        [work / "spans-fixed.jsonl", work / "spans-restored.jsonl"] if traced else [None, None]
    )

    # -- set-up: generation + daemon start, median of repeats ----------- #
    setups = []

    def set_up(args: List[str], trace_out: Optional[Path] = None):
        """Generate the submissions and start a daemon: one set-up sample."""
        tic = time.perf_counter()
        generated = _submissions(seed, total)
        seconds = time.perf_counter() - tic
        started = Daemon(args, work, trace_out)
        setups.append(seconds + started.ready_seconds)
        return generated, started

    for _ in range(SETUP_REPEATS - 1):
        set_up(serve_args[:1])[1].stop()
    (arrivals, raws), daemon = set_up(serve_args, trace_files[0])
    tenants = [a.tenant for a in arrivals]
    daemons = [daemon]
    rng = np.random.default_rng([seed, 1])
    cursor = [0]
    accepted = [0]
    segments: List[List] = []
    rates: List[float] = []
    capacities: List[float] = []
    restores: List[float] = []
    # drain time of the first burst, per daemon, by whether it was traced,
    # and the submissions it sends
    first_burst = {True: [], False: []}
    first_burst_range: List[int] = []

    def fixed_segment(port: int, count: int) -> None:
        """The next *count* submissions, open loop at the fixed load.

        The seeded gaps are unit exponentials scaled by the rate, so a
        seed sends the same submissions in the same order at any speed.
        """
        lo, hi = cursor[0], cursor[0] + count
        rates.append(FIXED_LOAD * common.median_of(capacities))
        offsets = np.cumsum(rng.exponential(1.0, size=count) / rates[-1]).tolist()
        results = _open_loop(port, raws[lo:hi], tenants[lo:hi], offsets, limit)
        accepted[0] += _count_replies(results, out)
        cursor[0] = hi
        _drain(port, accepted[0], out)
        segments.append(results)

    def drain_seconds(port: int, lo: int, hi: int, admitted: int) -> Tuple[float, int]:
        """Send ``raws[lo:hi]`` at once; seconds until *port* has admitted them.

        *admitted* is what the daemon had admitted before; returns the
        drain time and how many submissions were accepted.
        """
        start = time.perf_counter()
        results = _open_loop(port, raws[lo:hi], tenants[lo:hi], [0.0] * (hi - lo), limit)
        count = _count_replies(results, out)
        return _drain(port, admitted + count, out) - start, count

    def burst(port: int, count: int) -> float:
        """The next *count* submissions, all due at once; capacity to drain.

        Returns the drain time.
        """
        lo, hi = cursor[0], cursor[0] + count
        seconds, count_accepted = drain_seconds(port, lo, hi, accepted[0])
        accepted[0] += count_accepted
        capacities.append(count / seconds)
        cursor[0] = hi
        return seconds

    def restore(trace_out: Optional[Path]) -> Daemon:
        """A daemon restored from the checkpoint; its completions checked."""
        copy = work / f"store-restore{len(restores)}"
        shutil.copytree(work / "store-checkpoint", copy)
        restored = Daemon(["--store", str(copy), "--restore"], work, trace_out)
        daemons.append(restored)
        restores.append(restored.ready_seconds)
        out.attempted += checkpointed
        out.check(
            "restored completion times equal the ones before shutdown",
            _completions(restored.port) == before,
        )
        return restored

    try:
        # -- phase 1: warm-up, a burst, the first fixed-rate segments, then
        # a checkpoint
        cursor[0] = WARMUP_SUBMISSIONS
        drain_seconds(daemon.port, 0, WARMUP_SUBMISSIONS, 0)
        accepted[0] = WARMUP_SUBMISSIONS
        burst(daemon.port, per_burst)
        metrics_burst = call(daemon.port, "GET", "/metrics")[1]
        for _ in range(CHECKPOINT_SEGMENTS):
            fixed_segment(daemon.port, per_segment)
        metrics_fixed = call(daemon.port, "GET", "/metrics")[1]
        admission_latency = _histogram_between(metrics_burst, metrics_fixed)
        tic = time.perf_counter()
        status, _ = call(daemon.port, "POST", "/checkpoint")
        checkpoint_s = time.perf_counter() - tic
        out.check("POST /checkpoint answers 200", status == 200, f"got {status}")
        from repro.campaigns.store import CampaignStore

        checkpoint_kb = CampaignStore(str(store)).channel_path("service").stat().st_size / 1024.0
        checkpointed = cursor[0]
        before = _completions(daemon.port)
        peak_rss = daemon.peak_rss_mb()
        rejections = metrics_fixed["metrics"]["counters"].get("service.rejections", 0.0)
        daemon.stop()
        shutil.copytree(store, work / "store-checkpoint")

        # -- phases 2 and 3: restore, then bursts, fixed-rate segments and
        # spare restores of the same checkpoint, interleaved so that each
        # figure samples the whole run.  The first restored daemon (traced
        # in a traced run) serves everything after the checkpoint.
        daemon = restore(trace_files[1])
        for index in range(SATURATION_BURSTS):
            lo = cursor[0]
            seconds = burst(daemon.port, per_burst)
            if not index:
                first_burst[traced].append(seconds)
                first_burst_range[:] = [lo, cursor[0]]
            after = (FIXED_SEGMENTS - CHECKPOINT_SEGMENTS) * (index + 1) // SATURATION_BURSTS
            while len(segments) < CHECKPOINT_SEGMENTS + after:
                fixed_segment(daemon.port, per_segment)
            # spare restores, spread over the bursts; in a traced run every
            # other one is traced, and each drains the first burst again
            spares = round((index + 1) * (RESTORE_REPEATS - 1) / SATURATION_BURSTS)
            while len(restores) < 1 + spares:
                spare_traced = traced and len(restores) % 2 == 1
                spare = restore(
                    work / f"spans-spare{len(restores)}.jsonl" if spare_traced else None
                )
                if traced:
                    seconds, _ = drain_seconds(spare.port, *first_burst_range, checkpointed)
                    first_burst[spare_traced].append(seconds)
                spare.stop()
            if index % 2:
                set_up(serve_args[:1])[1].stop()

        # -- output checks ------------------------------------------------ #
        rows = []
        from repro.scenarios.registry import PLATFORMS

        platform = PLATFORMS.create(SPEC["platform"])
        for tenant in sorted(set(tenants)):
            status, body = call(daemon.port, "GET", f"/schedule?tenant={tenant}")
            out.attempted += 1
            if not out.check(
                f"GET /schedule {tenant} answers 200", status == 200, f"got {status}"
            ):
                continue
            # the same canonical rows as common.schedule_rows
            served = sorted(
                (
                    row[:4] + [float(row[4]).hex(), float(row[5]).hex()]
                    for row in body["rows"]
                ),
                key=lambda row: (row[0], row[1]),
            )
            rows += [[tenant] + row for row in served]
            prefix = [a for a in arrivals if a.tenant == tenant][:ORACLE_PREFIX]
            names = {a.ptg.name for a in prefix}
            expected = oracle.reference_stream_schedule(prefix, platform)
            out.check(
                f"{tenant}: first {len(prefix)} admissions equal the reference oracles",
                [row for row in served if row[0] in names] == common.schedule_rows(expected),
            )
        out.digests["schedules"] = common.digest_rows(rows)
        status, metrics_end = call(daemon.port, "GET", "/metrics")
        rejections += metrics_end["metrics"]["counters"].get("service.rejections", 0.0)
        peak_rss = max(peak_rss, daemon.peak_rss_mb())
        daemon.stop()
    finally:
        for proc in daemons:
            if proc is not None and proc.proc.poll() is None:
                proc.kill()

    # -- metrics --------------------------------------------------------- #
    timed = [
        [lat * 1e3 if status == 202 else float("inf") for status, lat, _, _ in segment]
        for segment in segments
    ]
    accept = Timing([lat for segment in timed for lat in segment])
    accept_pct = common.tail_percentile(per_segment)
    segment_p50s = [common.percentile(segment, 50.0) for segment in timed]
    segment_tails = [common.percentile(segment, accept_pct) for segment in timed]
    fixed = [item for segment in segments for item in segment]
    late = Timing([max(0.0, item[2]) * 1e3 for item in fixed])
    load = f"at {FIXED_LOAD:.0%} of capacity (median {common.median_of(rates):.0f}/s)"
    e2e = out.end_to_end
    e2e["setup_s"] = Metric(common.median_of(setups), "s", f"median of {len(setups)}")
    e2e["peak_rss_mb"] = Metric(peak_rss, "MB", "daemon process")
    e2e["throughput_per_s"] = Metric(
        common.median_of(capacities),
        "1/s",
        f"capacity, median of {len(capacities)} bursts of {per_burst}",
    )
    e2e["latency_p50_ms"] = Metric(
        common.median_of(segment_p50s),
        "ms",
        f"due->202 p50 per segment of {per_segment}, median of {FIXED_SEGMENTS}, "
        f"{load}, n={accept.n}",
    )
    e2e["latency_tail_ms"] = Metric(
        common.median_of(segment_tails),
        "ms",
        f"due->202 p{accept_pct:g} per segment of {per_segment}, median of "
        f"{FIXED_SEGMENTS}, {load}, n={accept.n}",
    )
    e2e["retained_kb_per_op"] = Metric(
        checkpoint_kb / checkpointed, "KB", f"checkpoint bytes per admission, n={checkpointed}"
    )
    e2e["restore_s"] = Metric(
        common.median_of(restores),
        "s",
        f"spawn->listening, {checkpointed} admissions, median of {RESTORE_REPEATS}",
    )
    out.aliases = {
        "capacity_per_s": e2e["throughput_per_s"],
        "accept_p50_ms": e2e["latency_p50_ms"],
        "accept_tail_ms": e2e["latency_tail_ms"],
    }

    histogram_p50 = admission_latency.quantile(0.5)
    histogram_p99 = admission_latency.quantile(0.99)
    layer: Dict[str, float] = {}
    if traced:
        recorder = spans.Recorder()
        for path in trace_files:
            _load_spans(path, recorder)
        layer, out.layer_table = spans.layer_metrics(recorder)
        layer["trace.overhead_ratio"] = common.median_of(first_burst[True]) / common.median_of(
            first_burst[False]
        )
        out.spans = recorder
    layer.update(
        {
            "service.admission_p50_ms": histogram_p50 * 1e3,
            "service.admission_p99_ms": histogram_p99 * 1e3,
            "service.queue_depth_max": float(max(body.get("queued", 0) for _, _, _, body in fixed)),
            "service.rejections": float(rejections),
            "service.generator_late_ms": late.tail(),
            "service.checkpoint_s": checkpoint_s,
            "service.checkpoint_kb": checkpoint_kb,
        }
    )
    out.notes.append(
        f"daemon histogram p50/p99 {histogram_p50 * 1e3:.2f}/{histogram_p99 * 1e3:.2f} ms "
        f"(enqueue->admitted) vs client due->202 p50/p{accept.tail_pct:g} "
        f"{accept.p50():.2f}/{accept.tail():.2f} ms over all {accept.n}"
    )
    out.notes.append(
        "segments' due->202 p50 / "
        f"p{accept_pct:g} ms: "
        + " ".join(f"{a:.2f}/{b:.2f}" for a, b in zip(segment_p50s, segment_tails))
    )
    if traced:
        for key, value in layer.items():
            out.per_layer[key] = Metric(value, spans.PER_LAYER_UNITS[key])
    return out

