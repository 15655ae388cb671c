"""End-to-end smoke of the ``repro serve`` CLI — the CI serve job.

Drives the *real* CLI entry point as a subprocess (not an in-process
server), so the printed-port contract, the signal-free drain path, and
the restart-resume story are all exercised the way an operator sees
them:

1. start ``repro serve`` and parse its ``repro-serve listening`` line;
2. register a tenant over ``PUT /tenants/<name>`` and check
   ``GET /healthz`` and the Prometheus ``GET /metrics`` exposition;
3. stream frames with a :class:`repro.serve.StreamClient` that holds
   its stream open once the server has :data:`HOLD_AT` frames, and
   ``POST /drain`` while it holds, so the server checkpoints and exits
   with frames still unsent;
4. restart the server on the same port and checkpoint directory; the
   still-retrying client resumes and finishes;
5. assert the collected output and Ψ are byte-identical to the batch
   oracle, i.e. the kill changed nothing.

Exits non-zero on any failed check.  Runs in a few seconds::

    PYTHONPATH=src python tools/serve_smoke.py

``--repeat-chaos N`` additionally runs the two chaos kill/resume tests
(``TestChaosResume`` and ``TestDrainRestart`` in
``tests/serve/test_server.py``) N times in a row — the deflake loop CI
uses to prove the pinned chaos seeds make those tests deterministic,
not merely lucky.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import re
import socket
import subprocess
import sys
import tempfile
import urllib.request
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.serve import StreamClient, TenantConfig  # noqa: E402
from repro.stream import ArraySource, SyntheticWalkSource, read_all, run_batch  # noqa: E402

_LISTENING = re.compile(
    r"repro-serve listening ingest=(\S+):(\d+) control=(\S+):(\d+)"
)

#: Frames the server holds when the client stops sending until the
#: drain: 4 of the stream's 16 messages.
HOLD_AT = 32


class _HoldUntilDrain(StreamClient):
    """A client that, once the server holds *hold_at* of its frames,
    sends nothing more until the server tells it to drain.

    The hold starts after an ack, when the server idles on the
    connection waiting for the next message, so the drain always finds
    the stream with frames still unsent.
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


def _free_port() -> int:
    """A port the OS just handed out (small race, fine for a smoke)."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _start_server(ingest_port: int, control_port: int, checkpoint_dir: str):
    """Launch ``repro serve`` and wait for its listening line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "serve",
            "--port",
            str(ingest_port),
            "--control-port",
            str(control_port),
            "--checkpoint-dir",
            checkpoint_dir,
            "--jobs",
            "2",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        env=env,
        text=True,
    )
    line = proc.stdout.readline()
    match = _LISTENING.match(line.strip())
    if not match:
        proc.kill()
        raise SystemExit(f"bad listening line: {line!r}")
    return proc


def _http(method: str, url: str, body: "dict | None" = None):
    """One control-plane request; returns (status, parsed-or-text body)."""
    data = json.dumps(body).encode() if body is not None else None
    request = urllib.request.Request(url, data=data, method=method)
    with urllib.request.urlopen(request, timeout=10) as response:
        raw = response.read().decode()
        status = response.status
    try:
        return status, json.loads(raw)
    except json.JSONDecodeError:
        return status, raw


async def _drain_while_holding(client: _HoldUntilDrain, control_url: str) -> None:
    """POST /drain once *client* holds its stream open."""
    await asyncio.wait_for(client.holding.wait(), timeout=30)
    status, payload = await asyncio.to_thread(
        _http, "POST", control_url + "/drain"
    )
    assert status == 202 and payload["draining"] is True, payload


async def _smoke() -> int:
    tenant = TenantConfig(
        name="smoke",
        gamma=0.02,
        inject_seed=5,
        upsilon=4,
        stack_frames=8,
        smoother="median",
        window=5,
        chunk_frames=16,
        durable=True,
    )
    frames = read_all(SyntheticWalkSource((6, 6), seed=42, n_frames=128))
    ingest_port, control_port = _free_port(), _free_port()
    control_url = f"http://127.0.0.1:{control_port}"
    with tempfile.TemporaryDirectory(prefix="repro-serve-smoke-") as tmp:
        proc = _start_server(ingest_port, control_port, tmp)
        try:
            status, health = _http("GET", control_url + "/healthz")
            assert status == 200 and health["status"] == "ok", health
            status, echoed = _http(
                "PUT", control_url + "/tenants/smoke", tenant.to_dict()
            )
            assert status == 200 and echoed["name"] == "smoke", echoed
            status, exposition = _http("GET", control_url + "/metrics")
            assert status == 200, status
            assert "repro_serve_messages_total" in exposition, exposition[:200]

            client = _HoldUntilDrain(
                "127.0.0.1",
                ingest_port,
                "smoke",
                "s1",
                frames,
                batch_frames=8,
                max_attempts=200,
                retry_delay_s=0.05,
                hold_at=HOLD_AT,
            )
            run = asyncio.ensure_future(client.run())
            await _drain_while_holding(client, control_url)
            assert proc.wait(timeout=30) == 0, "server exit code after drain"

            # Same port, same checkpoint dir: the retrying client resumes.
            proc = _start_server(ingest_port, control_port, tmp)
            result = await run
        finally:
            proc.kill()
            proc.wait(timeout=10)

    oracle = run_batch(ArraySource(frames), tenant.build_stages())
    assert result.outputs.tobytes() == oracle.output.tobytes(), "output diverged"
    assert result.result["psi_algorithm"] == oracle.psi_algorithm, "psi diverged"
    assert result.drained + result.reconnects >= 1, "drain never interrupted"
    print(
        f"serve smoke OK: {frames.shape[0]} frames, "
        f"{result.drained} drain notice(s), {result.reconnects} reconnect(s), "
        f"psi={result.result['psi_algorithm']:.6g} — byte-identical resume"
    )
    return 0


#: The two kill/resume tests the --repeat-chaos deflake loop re-runs.
CHAOS_TESTS = (
    "tests/serve/test_server.py::TestChaosResume::"
    "test_kills_do_not_change_a_single_byte",
    "tests/serve/test_server.py::TestDrainRestart::"
    "test_mid_stream_drain_then_restart_resumes",
)


def _repeat_chaos(repeats: int) -> int:
    """Run the chaos kill/resume tests *repeats* times; 0 on all-green.

    Each iteration is a fresh pytest process (fresh event loop, fresh
    tmp dirs, fresh sockets), so a pass N times in a row means the
    pinned chaos/drain schedules are deterministic under process-level
    variation — the property the seed pins exist to guarantee.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    for iteration in range(1, repeats + 1):
        code = subprocess.call(
            [sys.executable, "-m", "pytest", "-q", *CHAOS_TESTS],
            cwd=REPO_ROOT,
            env=env,
        )
        if code != 0:
            print(
                f"chaos deflake loop FAILED on iteration "
                f"{iteration}/{repeats}",
                file=sys.stderr,
            )
            return 1
        print(f"chaos deflake iteration {iteration}/{repeats} OK")
    return 0


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--repeat-chaos",
        type=int,
        default=0,
        metavar="N",
        help="after the smoke, re-run the two chaos kill/resume tests "
        "N times (deflake loop; default 0 = skip)",
    )
    args = parser.parse_args(argv)
    code = asyncio.run(_smoke())
    if code == 0 and args.repeat_chaos > 0:
        code = _repeat_chaos(args.repeat_chaos)
    return code


if __name__ == "__main__":
    sys.exit(main())
