"""The six benchmark workloads, each driven only through public entry points.

Every workload has a set-up (everything before the first timed
operation), a measurement and an oracle.  Timings are recorded as raw
``perf_counter`` intervals and turned into nominal-speed seconds
afterwards by the context's host-speed :class:`~benchmarks.e2e.speed.Meter`,
which takes references at operation boundaries: between repetitions,
between the shards of a DAG run, between the chunks of a stream and
between the messages or blocks of the serve phases.  Rep-based
workloads time one repetition at a time — a campaign run, a stream
segment — and, when
traced, alternate untraced and traced repetitions, so tracing overhead
is measured under the same host conditions.  ``serve`` has an open-loop
phase for latency, then a closed-loop phase for throughput.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time
import traceback
import uuid
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from benchmarks.e2e.speed import EVERY_S, Meter
from benchmarks.e2e.tracing import SPAN_FIELDS, Tracer


@dataclass
class Context:
    """What every workload gets: seed, run length, working space, oracles."""

    seed: int
    seconds: float
    #: Cap on timed repetitions (serve: blocks per phase); None: time-based.
    reps: int | None
    work: Path
    pinned: dict
    meter: Meter
    tracer: Tracer | None = None


@dataclass
class Measurement:
    """Raw intervals and counts from one workload's measurement.

    ``latency`` holds every untraced operation as a ``(start, end)``
    interval and ``work`` every untraced repetition (for serve, the
    closed-loop phase) as (intervals, items).  The end-to-end metrics are
    their durations at nominal host speed; references taken inside an
    interval do not count.
    ``traced_latency`` holds the traced operations the same way; it,
    ``traced_walls_s``, ``counters`` and ``child_spans`` feed the
    per-layer view.  ``counters["reps"]``, when set, is the number of
    traced repetitions the other counters were summed over.
    """

    meter: Meter
    latency: list = field(default_factory=list)
    work: list = field(default_factory=list)
    traced_latency: list = field(default_factory=list)
    traced_walls_s: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    peak_rss_mb: float = 0.0
    notes: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    child_spans: list = field(default_factory=list)

    def fail(self, problem: str, count: int = 1) -> None:
        self.failed += count
        self.problems.append(problem)

    def count(self, **values) -> None:
        for name, value in values.items():
            self.counters[name] = self.counters.get(name, 0) + value

    def durations(self, operations, raw: bool = False) -> list[float]:
        """Seconds of each ``(start, end)`` operation: nominal-speed or raw."""
        if raw:
            return [b - a for a, b in operations]
        return [self.meter.normalise(a, b) for a, b in operations]

    def throughput(self, raw: bool = False) -> list[float]:
        """Items per second of each ``work`` entry, over its intervals' total time."""
        return [items / sum(self.durations(intervals, raw)) for intervals, items in self.work]


class _Metered:
    """A backend that lets the meter take references at shard boundaries.

    Delegates everything to *inner*, an in-process backend.
    """

    def __init__(self, inner, meter: Meter) -> None:
        self._inner = inner
        self._meter = meter

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def run_shards(self, shard_fn, shards):
        for result in self._inner.run_shards(shard_fn, shards):
            self._meter.tick()
            yield result
        self._meter.tick()


#: ``FS_IOC_GETFLAGS``, ``FS_IOC_SETFLAGS`` and ``FS_TOPDIR_FL`` from <linux/fs.h>.
_GETFLAGS, _SETFLAGS, _TOPDIR = 0x80086601, 0x40086602, 0x00020000


def spread_subdirectories(path: Path) -> None:
    """Ask ext4 to place each new subdirectory of *path* in a block group of its own.

    On ext4 without a journal, as here, creating a file skips every inode
    of its block group deleted in the last one to six minutes, reading
    each one's deletion time.  A benchmark that deletes a store after
    every repetition thus slows every later create in that group, by
    more the more it has deleted: creates took 0.3 ms instead of 0.02 ms,
    a fifth of a ``campaign-cold`` repetition, by an amount that drifted
    with what ran in the minutes before.  With the top-directory flag,
    ext4 spreads the subdirectories of *path* across groups as it does
    top-level directories, away from the inodes freed before.  Where the
    flag is unsupported this does nothing.
    """
    import fcntl
    import struct

    fd = os.open(path, os.O_RDONLY)
    try:
        flags = struct.unpack("l", fcntl.ioctl(fd, _GETFLAGS, struct.pack("l", 0)))[0]
        fcntl.ioctl(fd, _SETFLAGS, struct.pack("l", flags | _TOPDIR))
    except OSError:
        pass
    finally:
        os.close(fd)


def fresh_path(parent: Path, prefix: str) -> Path:
    """A new, unique path under *parent* for a directory the library fills.

    The name matters on ext4: a spread subdirectory's block group is
    searched for starting from a hash of its name (see
    :func:`spread_subdirectories`), so a name reused from a directory
    deleted minutes before lands among the inodes it freed.
    """
    return parent / f"{prefix}-{uuid.uuid4().hex[:16]}"


def peak_rss_mb() -> float:
    """This process's peak resident set size in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def digest(payload) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")
    ).hexdigest()


def output_digest(chunks) -> str:
    """SHA-256 of a stream's output frames, concatenated."""
    return hashlib.sha256(np.concatenate(chunks, axis=0).tobytes()).hexdigest()


class Workload:
    """Base of every workload; subclasses set :attr:`name` and :attr:`why`."""

    name = ""
    why = ""

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx

    @staticmethod
    def meter_cpus() -> frozenset[int] | None:
        """CPUs the timed work runs on, for the meter; None: the caller's."""
        return None

    def setup(self) -> None:
        """Everything before the first timed operation."""

    def teardown(self) -> None:
        """Release what :meth:`setup` acquired; safe to call twice."""

    def measure(self) -> Measurement:
        raise NotImplementedError


class RepWorkload(Workload):
    """A workload timed one repetition at a time."""

    def rep(self, index: int, m: Measurement, traced: bool) -> None:
        """Run and time one repetition, recording into *m*."""
        raise NotImplementedError

    def check(self, m: Measurement) -> None:
        """Oracle checks, run after the timed loop."""

    def measure(self) -> Measurement:
        m = Measurement(meter=self.ctx.meter)
        max_reps = self.ctx.reps
        tracer = self.ctx.tracer
        # A traced run alternates untraced and traced repetitions, so a
        # slow spell on a shared host hits both sides alike.
        per_round = 2 if tracer is not None else 1
        deadline = time.perf_counter() + self.ctx.seconds
        index = 0
        while True:
            traced = index % per_round == 1
            m.meter.reference()
            if traced:
                tracer.rep = index
                tracer.install()
            m.attempted += 1
            try:
                self.rep(index, m, traced)
            except Exception as exc:  # a failed repetition is counted, not fatal
                traceback.print_exc(file=sys.stderr)
                m.fail(f"repetition {index}: {type(exc).__name__}: {exc}")
            finally:
                if traced:
                    tracer.uninstall()
            index += 1
            if index % per_round:
                continue
            if max_reps is not None and index >= max_reps * per_round:
                break
            if time.perf_counter() >= deadline:
                break
        m.meter.reference()
        m.peak_rss_mb = peak_rss_mb()
        self.check(m)
        return m


# ---------------------------------------------------------------------------
# Campaign DAG workloads
# ---------------------------------------------------------------------------


def campaign_graph(seed: int):
    """Fig. 2 merged with Fig. 4 at default sizes (293 nodes)."""
    from repro.experiments import figure2, figure4

    graph = figure2.graph(seed=seed)
    graph.merge(figure4.graph(seed=seed))
    return graph


class DagWorkload(RepWorkload):
    """Workloads that build, run and decode one task graph per repetition."""

    targets = ("fig2/table", "fig4/table")
    #: Panels left out of the digest.
    skip: tuple = ()

    def __init__(self, ctx: Context) -> None:
        super().__init__(ctx)
        self.digests: list[str] = []
        self.stores: dict[int, Path] = {}

    def setup(self) -> None:
        from repro.cache.store import ArtifactCache  # noqa: F401
        from repro.dag.scheduler import DagScheduler  # noqa: F401
        from repro.experiments import registry  # noqa: F401

    def graph(self):
        return campaign_graph(self.ctx.seed)

    def cache(self, index: int):
        """The artifact store repetition *index* runs against: a new directory."""
        from repro.cache.store import ArtifactCache

        self.stores[index] = fresh_path(self.ctx.work, "store")
        return ArtifactCache(directory=self.stores[index])

    def release(self, index: int) -> None:
        """Drop what repetition *index* left on disk (untimed)."""
        shutil.rmtree(self.stores.pop(index), ignore_errors=True)

    def backend(self):
        from repro.runtime import SerialBackend

        return SerialBackend()

    def run_graph(self, cache, backend, telemetry=None) -> tuple[str, int]:
        """Build, run and decode the graph; returns (panels digest, nodes)."""
        from repro.dag.build import json_payload
        from repro.dag.scheduler import DagScheduler

        graph = self.graph()
        outputs = DagScheduler(cache=cache, backend=backend, telemetry=telemetry).run(
            graph, targets=self.targets
        )
        panels = [
            panel
            for target in self.targets
            for panel in json_payload(outputs[target])
            if panel["experiment_id"] not in self.skip
        ]
        return digest(panels), len(graph.topo_order())

    def rep(self, index: int, m: Measurement, traced: bool) -> None:
        from repro.runtime import Telemetry
        from repro.runtime.telemetry import DagCompleted

        telemetry, completed = None, []
        backend = self.backend()
        if traced:
            telemetry = Telemetry()
            telemetry.subscribe(
                lambda e: completed.append(e) if isinstance(e, DagCompleted) else None
            )
        else:
            backend = _Metered(backend, m.meter)
        cache = self.cache(index)
        disk_before = cache.stats().disk_bytes if traced else 0
        start = time.perf_counter()
        result, n_nodes = self.run_graph(cache, backend, telemetry)
        end = time.perf_counter()
        self.digests.append(result)
        if traced:
            m.traced_latency.append((start, end))
            m.traced_walls_s.append(end - start)
            counts = cache.counters()
            m.count(
                reps=1,
                **{
                    "dag.nodes_run": completed[-1].n_run,
                    "dag.nodes_restored": completed[-1].n_restored,
                    "cache.write.bytes": cache.stats().disk_bytes - disk_before,
                    "cache.disk_evictions": counts["disk_evictions"],
                    "cache.hits": counts["hits"],
                    "cache.lookups": counts["hits"] + counts["misses"],
                },
            )
        else:
            m.latency.append((start, end))
            m.work.append(([(start, end)], n_nodes))
        self.release(index)

    def oracles(self) -> list[str]:
        """Digests every repetition must equal."""
        from repro.cache.store import ArtifactCache
        from repro.runtime import SerialBackend

        found = [self.run_graph(ArtifactCache(), SerialBackend())[0]]
        pinned = self.ctx.pinned
        if self.ctx.seed == pinned["seed"]:
            found.append(pinned["campaign"])
        return found

    def check(self, m: Measurement) -> None:
        oracles = self.oracles()
        mismatched = sum(1 for d in self.digests if any(d != o for o in oracles))
        if mismatched:
            m.fail(f"{mismatched} repetition(s) produced panels that differ from the oracle", mismatched)


class CampaignCold(DagWorkload):
    name = "campaign-cold"
    why = (
        "fig2+fig4 DAG into a fresh on-disk store each repetition: scheduling, "
        "injection, voting and store writes."
    )


class CampaignWarm(DagWorkload):
    name = "campaign-warm"
    why = (
        "The same DAG replayed from the store set-up filled, as a resume does: "
        "survey, payload verification and reads."
    )

    def setup(self) -> None:
        super().setup()
        self.store = fresh_path(self.ctx.work, "warm-store")
        self.run_graph(self.cache(0), _Metered(self.backend(), self.ctx.meter))

    def cache(self, index: int):
        from repro.cache.store import ArtifactCache

        return ArtifactCache(directory=self.store)

    def release(self, index: int) -> None:
        pass


class ReportQuick(DagWorkload):
    name = "report-quick"
    why = (
        "All 15 experiments at quick sizes: compute-bound, the bypass for DAG "
        "and store changes, and the only cover of otis, rice and sim."
    )
    targets = ("report/panels",)
    # fig3's panel values are wall-clock timings, never byte-comparable.
    skip = ("fig3",)

    def setup(self) -> None:
        super().setup()
        import repro.cli  # noqa: F401  (the quick overrides live there)

    def graph(self):
        from repro.dag.report import build_report_graph

        return build_report_graph(None, quick=True)

    def oracles(self) -> list[str]:
        # No seed knob: the registry's seeds fix the panels, so the
        # pinned digest is the oracle on every run.
        return [self.ctx.pinned["report-quick"]]


# ---------------------------------------------------------------------------
# Stream workloads
# ---------------------------------------------------------------------------


class StreamWorkload(RepWorkload):
    """One repetition is one segment, driven chunk by chunk through ``step``."""

    frames = 1024
    chunk_frames = 64

    def __init__(self, ctx: Context) -> None:
        super().__init__(ctx)
        self.outputs: list[tuple[str, float]] = []

    def setup(self) -> None:
        from repro import stream  # noqa: F401

    def source(self):
        from repro.stream import SyntheticWalkSource

        return SyntheticWalkSource((64,), seed=self.ctx.seed, n_frames=self.frames)

    def stages(self, telemetry=None) -> list:
        raise NotImplementedError

    def rep(self, index: int, m: Measurement, traced: bool) -> None:
        from repro.runtime import Telemetry
        from repro.stream import StreamPipeline
        from repro.stream.telemetry import LambdaAdjusted

        telemetry, adjustments = None, []
        if traced:
            telemetry = Telemetry()
            telemetry.subscribe(
                lambda e: adjustments.append(e) if isinstance(e, LambdaAdjusted) else None
            )
        chunks: list = []
        steps: list = []
        start = time.perf_counter()
        pipeline = StreamPipeline(
            self.source(), self.stages(telemetry), chunk_frames=self.chunk_frames,
            sink=chunks.append,
        )
        while True:
            began = time.perf_counter()
            if not pipeline.step():
                break
            steps.append((began, time.perf_counter()))
            if not traced:
                m.meter.tick()
        result = pipeline.finalize()
        end = time.perf_counter()
        self.outputs.append((output_digest(chunks), result.psi_algorithm))
        m.notes["psi"] = result.psi_algorithm
        if traced:
            m.traced_latency.extend(steps)
            m.traced_walls_s.append(end - start)
            m.count(reps=1, **{"core.lambda_adjustments": len(adjustments)})
        else:
            m.latency.extend(steps)
            m.work.append(([(start, end)], self.frames))

    def oracles(self) -> list[tuple[str, float]]:
        """(output digest, Ψ) pairs every segment must equal."""
        from repro.stream import run_batch

        batch = run_batch(self.source(), self.stages())
        found = [(output_digest([batch.output]), batch.psi_algorithm)]
        pinned = self.ctx.pinned
        if self.ctx.seed == pinned["seed"]:
            found.append(tuple(pinned[self.name]))
        return found

    def check(self, m: Measurement) -> None:
        oracles = self.oracles()
        mismatched = sum(1 for out in self.outputs if any(out != o for o in oracles))
        if mismatched:
            m.fail(f"{mismatched} segment(s) differ from run_batch or the pinned output", mismatched)


class Stream(StreamWorkload):
    name = "stream"
    why = (
        "64-coordinate stream with inline injection and Algo_NGST stacks of 32: "
        "the streaming hot path, no store and no DAG."
    )

    def stages(self, telemetry=None) -> list:
        from repro.config import NGSTConfig
        from repro.faults import UncorrelatedFaultModel
        from repro.stream import InjectStage, VoterStage

        return [
            InjectStage(UncorrelatedFaultModel(0.01), seed=self.ctx.seed + 1),
            VoterStage(NGSTConfig(sensitivity=50.0), stack_frames=32),
        ]


class StreamAutotune(StreamWorkload):
    name = "stream-autotune"
    why = (
        "Step-profile Gamma with the online Lambda autotuner retuning every "
        "stack: the retune path; stream is its bypass."
    )

    def stages(self, telemetry=None) -> list:
        from repro.config import NGSTConfig
        from repro.faults import UncorrelatedFaultModel
        from repro.faults.profile import GammaStepProfile
        from repro.stream import AutotuneVoterStage, InjectStage

        profile = GammaStepProfile(base=0.001, elevated=0.08, period=256, duty=0.5)
        return [
            InjectStage(UncorrelatedFaultModel(0.001), seed=self.ctx.seed + 1, profile=profile),
            AutotuneVoterStage(
                NGSTConfig(sensitivity=50.0),
                stack_frames=32,
                window_stacks=2,
                interval_stacks=1,
                min_delta=10.0,
                confirm=2,
                telemetry=telemetry,
            ),
        ]


# ---------------------------------------------------------------------------
# Serve
# ---------------------------------------------------------------------------

#: The served tenant: durable, Γ 0.01, stacks of 8, chunks of 32.
TENANT = {"name": "default", "gamma": 0.01, "stack_frames": 8, "chunk_frames": 32, "durable": True}
FRAME_SHAPE = (8, 8)
BATCH_FRAMES = 8
CONNECTIONS = 2
#: Open loop, messages/s per connection: 1200 frames/s in total, well
#: below the rate at which the closed loop saturates the server.
OPEN_LOOP_RATE = 75.0
#: Closed loop: messages each connection keeps in flight.
IN_FLIGHT = 8
#: Frames per second the closed loop can send before running out of
#: pre-encoded input; far above the saturation rate.
CLOSED_LOOP_HEADROOM = 18000
#: Open loop: the phase is sized in blocks of this length (``--reps``
#: counts them).
OPEN_BLOCK_S = 0.24
#: Closed loop: each block is followed by a host-speed reference.
CLOSED_BLOCK_S = 0.2
#: Longest one blocking socket operation may wait; an ack that is not
#: back this long after the previous reply counts as missing.
OP_TIMEOUT_S = 2.0
LATENCY_LIMIT_MS = 50.0


def tenant_config(seed: int):
    from repro.serve import TenantConfig

    return TenantConfig(inject_seed=seed, **TENANT)


class _Connection:
    """One NDJSON ingest connection carrying one stream, on a blocking socket.

    The client uses plain sockets and threads rather than asyncio: the
    event loop's millisecond timer granularity would make the open-loop
    generator late by about as long as the server takes per message.
    """

    def __init__(self, stream: str, frames: np.ndarray) -> None:
        from repro.serve import encode_frames

        self.stream = stream
        self.frames = frames
        self.lines = [
            json.dumps(
                {"type": "frames", "count": BATCH_FRAMES,
                 "data": encode_frames(frames[k : k + BATCH_FRAMES])}
            ).encode() + b"\n"
            for k in range(0, frames.shape[0], BATCH_FRAMES)
        ]
        self.due_at: list[float] = []
        self.sent_at: list[float] = []
        self.replies: list[tuple[float, dict]] = []
        #: Receipt time of each ack, in message order.
        self.acks: list[float] = []
        self.on_time = 0
        self.result: dict | None = None
        self.sock = None

    @property
    def sent(self) -> int:
        return len(self.sent_at)

    def open(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=OP_TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.rfile = self.sock.makefile("rb")
        hello = {"type": "hello", "tenant": TENANT["name"], "stream": self.stream,
                 "shape": list(FRAME_SHAPE), "dtype": self.frames.dtype.str}
        self.sock.sendall(json.dumps(hello).encode() + b"\n")
        welcome = json.loads(self.rfile.readline())
        if welcome.get("type") != "welcome":
            raise ConnectionError(f"expected welcome, got {welcome}")

    def send(self) -> None:
        line = self.lines[self.sent]
        stamp = time.perf_counter()
        self.sock.sendall(line)
        self.sent_at.append(stamp)

    def receive(self) -> dict:
        line = self.rfile.readline()
        stamp = time.perf_counter()
        if not line:
            raise ConnectionError("server closed the connection")
        reply = json.loads(line)
        self.replies.append((stamp, reply))
        if reply.get("type") == "ack":
            self.acks.append(stamp)
        return reply

    def await_acks(self, count: int, after_ack=None) -> None:
        """Read replies until *count* acks have arrived (or a non-ack)."""
        while len(self.acks) < count:
            if self.receive().get("type") != "ack":
                return
            if after_ack is not None:
                after_ack()

    def finish(self) -> None:
        """Send ``end`` and read up to the stream's result, then close."""
        try:
            self.sock.sendall(b'{"type": "end"}\n')
            while self.result is None:
                reply = self.receive()
                if reply.get("type") == "result":
                    self.result = reply
                elif reply.get("type") != "ack":
                    break
        finally:
            self.close()

    def close(self) -> None:
        if self.sock is not None:
            self.rfile.close()
            self.sock.close()
            self.sock = None

    def check(self, seed: int) -> str | None:
        """Outputs and Ψ against run_batch on the frames this stream sent."""
        from repro.serve import decode_frames
        from repro.stream import ArraySource, run_batch

        if self.result is None:
            return "no end-of-stream result"
        pieces, expected_start = [], 0
        for _, message in self.replies:
            count = int(message.get("output_count", 0))
            if count == 0:
                continue
            if int(message["output_start"]) != expected_start:
                return f"output gap at frame {expected_start}"
            pieces.append(decode_frames(message["outputs"], count, FRAME_SHAPE, self.frames.dtype))
            expected_start += count
        sent = self.frames[: self.sent * BATCH_FRAMES]
        oracle = run_batch(ArraySource(sent), tenant_config(seed).build_stages())
        got = np.concatenate(pieces, axis=0) if pieces else sent[:0]
        if got.tobytes() != oracle.output.tobytes():
            return "outputs differ from run_batch"
        if self.result["result"]["psi_algorithm"] != oracle.psi_algorithm:
            return "psi differs from run_batch"
        return None


def _in_threads(*jobs) -> None:
    """Run each ``(fn, args)`` job in its own thread and wait for all.

    A job that hits a socket error or timeout just ends; its stream then
    shows up as missing acks.
    """

    def guarded(fn, args):
        try:
            fn(*args)
        except (OSError, ValueError):  # json.JSONDecodeError is a ValueError
            pass

    threads = [threading.Thread(target=guarded, args=job) for job in jobs]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


class _OpenLoopReferences:
    """Takes the open loop's host-speed references between messages.

    Receiving threads call :meth:`after_ack`.  Once a reference is due —
    one per :data:`~benchmarks.e2e.speed.EVERY_S`, a few times per spell
    of host speed — it is taken at the first ack after which no message
    is outstanding on any connection, so it never
    competes with the server.  The schedule does not wait for it: a send
    it holds up is late, and its message counts from its due time.  (A
    reference waiting for a longer quiet gap was never taken in slow
    spells, when the server leaves no such gap.)
    """

    def __init__(self, meter: Meter, conns: list[_Connection], start: float) -> None:
        self.meter = meter
        self.conns = conns
        self.due = start + EVERY_S
        self.lock = threading.Lock()

    def after_ack(self) -> None:
        now = time.perf_counter()
        if now < self.due or not self.lock.acquire(blocking=False):
            return
        try:
            if all(len(c.acks) >= c.sent for c in self.conns):
                self.meter.reference()
                self.due += EVERY_S * math.ceil((now - self.due) / EVERY_S + 1e-9)
        finally:
            self.lock.release()


class Serve(Workload):
    name = "serve"
    why = (
        "ReproServer over real TCP from 2 connections: 1200 frames/s open loop "
        "for latency, then 8 in flight per connection for throughput."
    )

    @staticmethod
    def meter_cpus() -> frozenset[int] | None:
        return frozenset({max(os.sched_getaffinity(0))})

    def __init__(self, ctx: Context) -> None:
        super().__init__(ctx)
        self.phase_a: list[_Connection] = []
        self.phase_b: list[_Connection] = []
        self.child_report: dict = {}

    def setup(self) -> None:
        self._start(traced=False)

    def _start(self, traced: bool) -> None:
        """Generate and encode the inputs, start the server, open phase A.

        Phase A takes 60% of the run and phase B the rest; a traced run
        has only phase A, for half the run.  ``--reps`` sets the number
        of blocks of each phase instead.
        """
        tracing = self.ctx.tracer is not None
        seconds_a = self.ctx.seconds * (0.5 if tracing else 0.6)
        seconds_b = 0.0 if tracing else self.ctx.seconds - seconds_a
        reps = self.ctx.reps
        self.blocks_a = reps or max(1, round(seconds_a / OPEN_BLOCK_S))
        self.blocks_b = 0 if tracing else reps or round(seconds_b / CLOSED_BLOCK_S)
        n_a = self.blocks_a * round(OPEN_LOOP_RATE * OPEN_BLOCK_S)
        n_b = math.ceil(
            CLOSED_LOOP_HEADROOM * self.blocks_b * CLOSED_BLOCK_S / CONNECTIONS / BATCH_FRAMES
        )
        self.phase_a = [_Connection(f"a{i}", self._frames(i, n_a)) for i in range(CONNECTIONS)]
        self.phase_b = [
            _Connection(f"b{i}", self._frames(CONNECTIONS + i, max(n_b, IN_FLIGHT)))
            for i in range(CONNECTIONS)
        ] if self.blocks_b else []
        self.spans_path = self.ctx.work / f"serve-spans-{int(traced)}.jsonl"
        # Client and server share the one CPU the meter watches: every hop
        # of a message is then a wake-up on that CPU rather than an
        # interrupt to another vCPU, whose latency the host-speed
        # reference cannot see; across CPUs the latency spread doubled.
        self.affinity = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {max(self.affinity)})
        self.child = subprocess.Popen(
            [sys.executable, "-m", "benchmarks.e2e.serve_child",
             str(fresh_path(self.ctx.work, "serve")), str(self.ctx.seed),
             str(self.spans_path) if traced else "-", str(max(self.affinity))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.port = int(json.loads(self.child.stdout.readline())["port"])
        for conn in self.phase_a:
            conn.open(self.port)

    def _frames(self, stream: int, n_messages: int) -> np.ndarray:
        from repro.config import NGSTDatasetConfig
        from repro.data.ngst import generate_walk

        rng = np.random.default_rng([self.ctx.seed, stream])
        config = NGSTDatasetConfig(n_variants=n_messages * BATCH_FRAMES, sigma=25.0)
        return np.ascontiguousarray(generate_walk(config, rng, FRAME_SHAPE))

    def teardown(self) -> None:
        for conn in self.phase_a + self.phase_b:
            conn.close()
        affinity = self.__dict__.pop("affinity", None)
        if affinity is not None:
            os.sched_setaffinity(0, affinity)
        child = self.__dict__.pop("child", None)
        if child is None:
            return
        try:
            child.stdin.write("stop\n")
            child.stdin.close()
            line = child.stdout.readline()
            if line.strip():
                self.child_report = json.loads(line)
            child.wait(timeout=60)
        except (OSError, ValueError, subprocess.TimeoutExpired):
            child.kill()
            child.wait()

    # -- phases --------------------------------------------------------------

    def _closed_block(self) -> tuple[float, float]:
        """Keep IN_FLIGHT messages outstanding per connection for one block."""
        start = time.perf_counter()
        end = start + CLOSED_BLOCK_S

        def drive(conn):
            target = conn.sent + IN_FLIGHT
            while conn.sent < min(target, len(conn.lines)):
                conn.send()
            while len(conn.acks) < conn.sent:
                if conn.receive().get("type") != "ack":
                    return
                if time.perf_counter() < end and conn.sent < len(conn.lines):
                    conn.send()

        _in_threads(*[(drive, (c,)) for c in self.phase_b])
        return start, end

    def _settle(self, conns, m: Measurement) -> None:
        """Count acks on time, end every stream, then run the oracle."""
        for conn in conns:
            conn.on_time = len(conn.acks)
        for conn in conns:
            try:
                conn.finish()
            except (OSError, ValueError):
                pass
        for conn in conns:
            m.attempted += conn.sent
            missing = conn.sent - conn.on_time
            if missing:
                m.fail(f"{conn.stream}: {missing} message(s) errored or had no ack", missing)
                continue
            problem = conn.check(self.ctx.seed)
            if problem:
                m.fail(f"{conn.stream}: {problem}", conn.sent)

    def _phase_a(self, m: Measurement, traced: bool) -> tuple[float, float]:
        """The open loop; returns the phase's (first due, last ack) window.

        Every message is due on one fixed schedule for the whole phase —
        a connection's k-th at ``start + k / OPEN_LOOP_RATE``, the second
        connection half a period later — and is sent then whatever the
        acks, so a backlog carries over and a late send still counts from
        its due time.
        """
        conns = self.phase_a
        period = 1.0 / OPEN_LOOP_RATE
        m.meter.reference()
        start = time.perf_counter() + 0.01
        for i, conn in enumerate(conns):
            conn.due_at = [start + (k + i / CONNECTIONS) * period for k in range(len(conn.lines))]
        references = _OpenLoopReferences(m.meter, conns, start)

        def sender(conn):
            for due in conn.due_at:
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                conn.send()

        _in_threads(
            *[(sender, (c,)) for c in conns],
            *[(c.await_acks, (len(c.lines), references.after_ack)) for c in conns],
        )
        m.meter.reference()
        # Each message is one operation, timed from when it was due.
        latency = [(due, ack) for c in conns for due, ack in zip(c.due_at, c.acks)]
        if traced:
            m.traced_latency.extend(latency)
            m.traced_walls_s.extend(b - a for a, b in latency)
        else:
            m.latency.extend(latency)
        lateness = [s - d for c in conns for s, d in zip(c.sent_at, c.due_at)]
        if lateness:  # none when every connection failed before its first send
            m.notes["generator_lateness_p50_ms"] = statistics.median(lateness) * 1e3
            m.notes["generator_lateness_max_ms"] = max(lateness) * 1e3
        window = (start, max(b for _, b in latency)) if latency else (start, start)
        self._settle(conns, m)
        return window

    def _phase_b(self, m: Measurement) -> None:
        """Closed-loop blocks: frames acked within them over their total time.

        One throughput sample per run.  The server's speed varies from
        block to block by more than the host's (by up to ±15% at full
        speed, from checkpoint writes and thread hand-offs), so a median
        of per-block rates moved with which blocks it picked.
        """
        for conn in self.phase_b:
            conn.open(self.port)
        m.meter.reference()
        blocks, frames = [], 0
        for _ in range(self.blocks_b):
            first = [len(c.acks) for c in self.phase_b]
            start, end = self._closed_block()
            m.meter.reference()
            blocks.append((start, end))
            frames += BATCH_FRAMES * sum(
                1 for conn, k in zip(self.phase_b, first)
                for stamp in conn.acks[k:] if stamp < end
            )
        if blocks:
            m.work.append((blocks, frames))
        self._settle(self.phase_b, m)

    def measure(self) -> Measurement:
        m = Measurement(meter=self.ctx.meter)
        self._phase_a(m, traced=False)
        if self.ctx.tracer is None:
            self._phase_b(m)
            self.teardown()
            m.peak_rss_mb = self.child_report.get("peak_rss_mb", 0.0)
            return m
        # Traced: the same open-loop phase against a second, traced server.
        self.teardown()
        self._start(traced=True)
        lo, hi = self._phase_a(m, traced=True)
        self.teardown()
        m.peak_rss_mb = self.child_report.get("peak_rss_mb", 0.0)
        spans = [json.loads(line) for line in self.spans_path.read_text().splitlines()]
        m.child_spans = [
            tuple(span[f] for f in SPAN_FIELDS) for span in spans if lo <= span["start"] <= hi
        ]
        return m


WORKLOADS = {
    w.name: w
    for w in (CampaignCold, CampaignWarm, ReportQuick, Stream, StreamAutotune, Serve)
}
