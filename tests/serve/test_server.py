"""End-to-end serve tests over real sockets: oracle identity, concurrent
tenants, chaos-kill resume, and drain -> restart -> byte-identical resume."""

import asyncio
import json

import numpy as np
import pytest

from repro.serve import (
    ReproServer,
    ServerConfig,
    StreamClient,
    TenantConfig,
)
from repro.stream import ArraySource, SyntheticWalkSource, read_all, run_batch

TENANT = TenantConfig(
    name="tt",
    gamma=0.02,
    inject_seed=3,
    upsilon=4,
    stack_frames=8,
    chunk_frames=16,
    durable=True,
)


def _walk(n_frames, seed, shape=(5, 5)):
    return read_all(SyntheticWalkSource(shape, seed=seed, n_frames=n_frames))


def _oracle(frames, tenant=TENANT):
    return run_batch(ArraySource(frames), tenant.build_stages())


async def _start_server(tmp_path, **overrides):
    server = ReproServer(
        ServerConfig(checkpoint_dir=tmp_path, jobs=2, **overrides)
    )
    server.registry.put(TENANT)
    await server.start()
    return server


def _client(server, stream, frames, **kwargs):
    kwargs.setdefault("batch_frames", 13)
    kwargs.setdefault("retry_delay_s", 0.02)
    return StreamClient(
        "127.0.0.1", server.ingest_port, TENANT.name, stream, frames, **kwargs
    )


#: Hello fields the ingest listener must refuse with one error line.
MALFORMED_HELLO_FIELDS = (
    {"shape": [0]},
    {"shape": [True, 2]},
    {"have_outputs": "x"},
    {"have_outputs": None},
    {"have_outputs": -5},
    {"have_outputs": True},
    {"dtype": "object"},
    {"dtype": "<U4"},
    {"dtype": ">u2"},
)


async def _raw_request(port, *messages):
    """Open one ingest connection, send JSON lines, return the replies."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    replies = []
    try:
        for message in messages:
            writer.write(json.dumps(message).encode() + b"\n")
            await writer.drain()
            replies.append(json.loads(await reader.readline()))
    finally:
        writer.close()
    return replies


class TestSingleStream:
    def test_matches_batch_oracle(self, tmp_path):
        async def scenario():
            server = await _start_server(tmp_path)
            frames = _walk(80, seed=11)
            result = await _client(server, "s1", frames).run()
            await server.drain()
            await server.stop()
            return frames, result

        frames, result = asyncio.run(scenario())
        oracle = _oracle(frames)
        assert result.outputs.tobytes() == oracle.output.tobytes()
        assert result.result["psi_algorithm"] == oracle.psi_algorithm
        assert result.reconnects == 0

    def test_metrics_observe_the_stream(self, tmp_path):
        async def scenario():
            server = await _start_server(tmp_path)
            await _client(server, "s1", _walk(64, seed=12)).run()
            counters = server.metrics.snapshot()["counters"]
            await server.drain()
            await server.stop()
            return counters

        counters = asyncio.run(scenario())
        assert counters["sessions_opened"] == 1
        assert counters["sessions_completed"] == 1
        assert counters["frames_in"] == 64
        assert counters["messages"] > 0
        assert counters["connections_opened"] >= 1


class TestConcurrentStreams:
    def test_eight_streams_all_match(self, tmp_path):
        async def scenario():
            server = await _start_server(tmp_path)
            stacks = [_walk(64, seed=100 + i) for i in range(8)]
            results = await asyncio.gather(
                *(
                    _client(server, f"s{i}", stacks[i]).run()
                    for i in range(8)
                )
            )
            await server.drain()
            await server.stop()
            return stacks, results

        stacks, results = asyncio.run(scenario())
        for frames, result in zip(stacks, results):
            oracle = _oracle(frames)
            assert result.outputs.tobytes() == oracle.output.tobytes()
            assert result.result["psi_algorithm"] == oracle.psi_algorithm


class TestChaosDeterminism:
    """The strike schedule is a pure function of (kill_rate, seed).

    The chaos-resume test below pins ``chaos_seed=7`` and asserts
    ``kills > 0``; that assertion is only deflaked if the monkey's RNG
    consumes entropy from nowhere else — no wall clock, no global
    random state, no per-run reseeding.
    """

    def test_strike_schedule_derives_only_from_the_seed(self):
        from repro.serve.server import ChaosMonkey

        first = ChaosMonkey(0.25, seed=7)
        second = ChaosMonkey(0.25, seed=7)
        schedule = [first.strike() for _ in range(500)]
        assert schedule == [second.strike() for _ in range(500)]
        assert first.kills == second.kills > 0

    def test_different_seeds_differ(self):
        from repro.serve.server import ChaosMonkey

        seven, eight = ChaosMonkey(0.25, seed=7), ChaosMonkey(0.25, seed=8)
        a = [seven.strike() for _ in range(200)]
        b = [eight.strike() for _ in range(200)]
        assert a != b

    def test_global_random_state_does_not_leak_in(self):
        import random

        from repro.serve.server import ChaosMonkey

        pristine = ChaosMonkey(0.25, seed=7)
        reference = [pristine.strike() for _ in range(100)]
        random.seed(999)  # perturb the global RNG between draws
        monkey = ChaosMonkey(0.25, seed=7)
        interleaved = []
        for _ in range(100):
            random.random()
            interleaved.append(monkey.strike())
        assert interleaved == reference

    def test_zero_rate_never_strikes_and_draws_nothing(self):
        from repro.serve.server import ChaosMonkey

        silent = ChaosMonkey(0.0, seed=7)
        assert not any(silent.strike() for _ in range(100))
        assert silent.kills == 0
        # The rate-0 path must not consume RNG state: raising the rate
        # afterwards replays the seed's schedule from the beginning.
        assert silent._rng.random() == ChaosMonkey(0.25, seed=7)._rng.random()

    def test_pinned_seed_strikes_within_the_test_horizon(self):
        # The exact pin used by test_kills_do_not_change_a_single_byte:
        # seed 7 at rate 0.25 must strike well inside the ~33 strike
        # points a 120-frame/11-per-batch run offers, else that test's
        # `kills > 0` gate would be luck, not determinism.
        from repro.serve.server import ChaosMonkey

        monkey = ChaosMonkey(0.25, seed=7)
        strikes = [i for i in range(30) if monkey.strike()]
        assert strikes and strikes[0] < 20


class TestChaosResume:
    def test_kills_do_not_change_a_single_byte(self, tmp_path):
        async def scenario():
            server = await _start_server(
                tmp_path, chaos_kill_rate=0.25, chaos_seed=7
            )
            frames = _walk(120, seed=21)
            result = await _client(
                server, "s1", frames, batch_frames=11, max_attempts=200
            ).run()
            kills = server.chaos.kills
            await server.drain()
            await server.stop()
            return frames, result, kills

        frames, result, kills = asyncio.run(scenario())
        assert kills > 0, "chaos never struck; the test proved nothing"
        assert result.reconnects >= kills
        oracle = _oracle(frames)
        assert result.outputs.tobytes() == oracle.output.tobytes()
        assert result.result["psi_algorithm"] == oracle.psi_algorithm


class TestDrainRestart:
    def test_mid_stream_drain_then_restart_resumes(self, tmp_path):
        async def scenario():
            server = await _start_server(tmp_path)
            port = server.ingest_port
            stacks = [_walk(96, seed=30 + i) for i in range(4)]
            tasks = [
                asyncio.ensure_future(
                    _client(
                        server, f"s{i}", stacks[i],
                        batch_frames=8, max_attempts=200,
                    ).run()
                )
                for i in range(4)
            ]
            while server.metrics.counter("messages") < 6:
                await asyncio.sleep(0.005)
            assert await server.drain()
            await server.stop()

            restarted = ReproServer(
                ServerConfig(checkpoint_dir=tmp_path, ingest_port=port, jobs=2)
            )
            await restarted.start()
            results = await asyncio.gather(*tasks)
            resumed = restarted.metrics.counter("sessions_resumed")
            await restarted.drain()
            await restarted.stop()
            return stacks, results, resumed

        stacks, results, resumed = asyncio.run(scenario())
        assert resumed > 0, "nothing resumed; the drain landed too late"
        assert sum(r.drained for r in results) > 0
        for frames, result in zip(stacks, results):
            oracle = _oracle(frames)
            assert result.outputs.tobytes() == oracle.output.tobytes()
            assert result.result["psi_algorithm"] == oracle.psi_algorithm


class _HoldUntilDrain(StreamClient):
    """A client that, once the server holds *hold_at* of its frames,
    sends nothing more until the server tells it to drain.

    The hold starts after a welcome or ack, when the server idles on the
    connection waiting for the next message, so a drain begun while
    every client holds reaches every stream with frames still unsent
    (chaos strikes only while a frames message is processed).
    """

    def __init__(self, *args, hold_at, **kwargs):
        super().__init__(*args, **kwargs)
        self.hold_at = hold_at
        self.holding = asyncio.Event()

    async def _recv(self, reader):
        message = await super()._recv(reader)
        received = message.get("received", message.get("resume_frame", -1))
        if not self.holding.is_set() and received >= self.hold_at:
            self.holding.set()
            # Only the drain can answer: this raises the client's
            # drained signal, and the stream resumes after the restart.
            unexpected = await super()._recv(reader)
            raise AssertionError(f"expected a drain, got {unexpected}")
        return message


class TestChaosAcrossDrainRestart:
    """Chaos kills on both sides of a mid-load drain and restart, in one
    run, through a tenant with a windowed smoother: every stream still
    ends byte-identical to the batch oracle."""

    def test_kills_drain_and_restart_do_not_change_a_single_byte(self, tmp_path):
        tenant = TenantConfig(
            name="churn",
            gamma=0.02,
            inject_seed=3,
            upsilon=4,
            stack_frames=8,
            smoother="median",
            window=5,
            chunk_frames=16,
            durable=True,
        )

        async def scenario():
            server = ReproServer(
                ServerConfig(
                    checkpoint_dir=tmp_path, jobs=2,
                    chaos_kill_rate=0.25, chaos_seed=7,
                )
            )
            server.registry.put(tenant)
            await server.start()
            port = server.ingest_port
            stacks = [_walk(96, seed=40 + i, shape=(6, 6)) for i in range(3)]
            clients = [
                _HoldUntilDrain(
                    "127.0.0.1", port, tenant.name, f"c{i}", stacks[i],
                    batch_frames=8, max_attempts=400, retry_delay_s=0.02,
                    hold_at=48,
                )
                for i in range(3)
            ]
            tasks = [asyncio.ensure_future(c.run()) for c in clients]
            # The drain lands while all three streams hold unsent frames.
            await asyncio.wait_for(
                asyncio.gather(*(c.holding.wait() for c in clients)), timeout=60
            )
            assert await server.drain()
            await server.stop()
            kills = server.chaos.kills

            restarted = ReproServer(
                ServerConfig(
                    checkpoint_dir=tmp_path, ingest_port=port, jobs=2,
                    chaos_kill_rate=0.25, chaos_seed=7,
                )
            )
            await restarted.start()
            results = await asyncio.gather(*tasks)
            kills += restarted.chaos.kills
            resumed = restarted.metrics.counter("sessions_resumed")
            await restarted.drain()
            await restarted.stop()
            return stacks, results, kills, resumed

        stacks, results, kills, resumed = asyncio.run(scenario())
        assert kills > 0, "chaos never struck; the test proved nothing"
        assert resumed > 0, "nothing resumed; the drain landed too late"
        assert sum(r.drained for r in results) > 0
        assert sum(r.reconnects for r in results) >= kills
        for frames, result in zip(stacks, results):
            oracle = _oracle(frames, tenant)
            assert result.outputs.shape == oracle.output.shape
            assert result.outputs.tobytes() == oracle.output.tobytes()
            assert result.result["psi_algorithm"] == oracle.psi_algorithm


class TestProtocolRefusals:
    def test_second_connection_to_active_stream_is_busy(self, tmp_path):
        async def scenario():
            server = await _start_server(tmp_path)
            hello = {
                "type": "hello", "tenant": TENANT.name, "stream": "s1",
                "shape": [5, 5], "dtype": "<u2", "have_outputs": 0,
            }
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.ingest_port
            )
            writer.write(json.dumps(hello).encode() + b"\n")
            await writer.drain()
            welcome = json.loads(await reader.readline())
            [rival] = await _raw_request(server.ingest_port, hello)
            writer.close()
            await server.drain()
            await server.stop()
            return welcome, rival

        welcome, rival = asyncio.run(scenario())
        assert welcome["type"] == "welcome"
        assert rival == {
            "type": "error",
            "code": "busy",
            "error": rival["error"],
        }

    def test_unknown_tenant_and_malformed_hello(self, tmp_path):
        async def scenario():
            server = await _start_server(tmp_path)
            port = server.ingest_port
            [unknown] = await _raw_request(
                port,
                {
                    "type": "hello", "tenant": "ghost", "stream": "s",
                    "shape": [2], "dtype": "<u2",
                },
            )
            malformed = []
            for fields in MALFORMED_HELLO_FIELDS:
                hello = {
                    "type": "hello", "tenant": TENANT.name, "stream": "s",
                    "shape": [2], "dtype": "<u2", **fields,
                }
                malformed += await _raw_request(port, hello)
            [orphan] = await _raw_request(port, {"type": "frames", "count": 0})
            await server.drain()
            await server.stop()
            return unknown, malformed, orphan

        unknown, malformed, orphan = asyncio.run(scenario())
        assert unknown["code"] == "refused"
        # One refused line per malformed hello, none a dropped connection.
        assert [reply["code"] for reply in malformed] == ["refused"] * len(
            MALFORMED_HELLO_FIELDS
        )
        assert orphan["code"] == "refused"

    def test_detach_parks_and_reattach_continues(self, tmp_path):
        async def scenario():
            server = await _start_server(tmp_path)
            frames = _walk(64, seed=41)
            hello = {
                "type": "hello", "tenant": TENANT.name, "stream": "s1",
                "shape": [5, 5], "dtype": "<u2", "have_outputs": 0,
            }
            from repro.serve import encode_frames

            first = await _raw_request(
                server.ingest_port,
                hello,
                {
                    "type": "frames",
                    "count": 32,
                    "data": encode_frames(frames[:32]),
                },
                {"type": "detach"},
            )
            parked = server.sessions.parked_count
            second = await _raw_request(server.ingest_port, hello)
            await server.drain()
            await server.stop()
            return first, parked, second

        first, parked, second = asyncio.run(scenario())
        assert first[1]["type"] == "ack" and first[1]["received"] == 32
        assert first[2] == {"type": "detached", "resume_frame": 32}
        assert parked == 1
        assert second[0]["type"] == "welcome"
        assert second[0]["resume_frame"] == 32
