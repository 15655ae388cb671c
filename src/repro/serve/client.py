"""An asyncio client for the ingest protocol, with automatic resume.

:class:`StreamClient` drives one stream end to end: it sends frames in
batches, collects the outputs from acks, and — when the connection dies
mid-stream (server kill, chaos monkey, drain) — reconnects, tells the
server how many output frames it already holds, and continues sending
from the ``resume_frame`` the server reports.  Output dedupe is by
global frame index, so however many times the link breaks, the
collected output is byte-identical to an uninterrupted run — the
client-side half of the serve layer's resume contract, and what the
end-to-end tests assert with.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import ServeError
from repro.serve.listener import decode_frames, encode_frames


@dataclass
class ClientResult:
    """What one completed stream looked like from the client.

    Attributes:
        outputs: every output frame, in order, deduped across resumes.
        result: the server's final ``result`` payload (Ψ accounting).
        reconnects: times the client had to reconnect mid-stream.
        drained: times the server answered with a drain notice.
        latencies_s: per frames-message round-trip times.
    """

    outputs: np.ndarray
    result: dict
    reconnects: int = 0
    drained: int = 0
    latencies_s: list = field(default_factory=list)


class _Drained(Exception):
    """Internal: the server drained this connection mid-stream."""

    def __init__(self, resume_frame: int) -> None:
        super().__init__(f"drained at frame {resume_frame}")
        self.resume_frame = resume_frame


class StreamClient:
    """Send one in-memory frame stack through a serve stream, resiliently.

    Args:
        host: ingest host.
        port: ingest port.
        tenant: tenant name the stream runs under.
        stream: stream name (unique within the tenant).
        frames: the whole ``(T,) + coord_shape`` stack to send.  Held in
            memory so a resume can re-send any suffix deterministically.
        batch_frames: frames per protocol message.
        max_attempts: connection attempts before giving up.
        retry_delay_s: pause between reconnection attempts (the server
            may be restarting).
    """

    def __init__(
        self,
        host: str,
        port: int,
        tenant: str,
        stream: str,
        frames: np.ndarray,
        batch_frames: int = 64,
        max_attempts: int = 60,
        retry_delay_s: float = 0.1,
    ) -> None:
        if batch_frames < 1:
            raise ServeError(f"batch_frames must be >= 1, got {batch_frames}")
        self.host = host
        self.port = port
        self.tenant = tenant
        self.stream = stream
        self.frames = np.ascontiguousarray(frames)
        self.batch_frames = int(batch_frames)
        self.max_attempts = int(max_attempts)
        self.retry_delay_s = float(retry_delay_s)
        self._outputs: list[np.ndarray] = []
        self._out_count = 0
        self._result: dict | None = None
        self._latencies: list[float] = []
        self._reconnects = 0
        self._drains = 0

    # -- output dedupe ----------------------------------------------------

    def _absorb(self, start: int, count: int, data: str) -> None:
        """Fold replayed/acked outputs in, discarding what we hold."""
        if count == 0:
            return
        frames = decode_frames(
            data, count, self.frames.shape[1:], self.frames.dtype
        )
        end = start + count
        if end <= self._out_count:
            return  # wholly re-delivered; already held
        if start > self._out_count:
            raise ServeError(
                f"output gap: have {self._out_count}, server sent from {start}"
            )
        fresh = frames[self._out_count - start :]
        self._outputs.append(fresh)
        self._out_count += fresh.shape[0]

    # -- protocol ---------------------------------------------------------

    async def _recv(self, reader: asyncio.StreamReader) -> dict:
        line = await reader.readline()
        if not line:
            raise ConnectionResetError("server closed the connection")
        message = json.loads(line)
        if message.get("type") == "error":
            if message.get("code") in ("draining", "busy"):
                # Transient: the server is restarting, or our dead
                # connection's server side has not unwound yet.
                raise _Drained(0)
            raise ServeError(
                f"server error [{message.get('code')}]: {message.get('error')}"
            )
        if message.get("type") == "drained":
            raise _Drained(int(message.get("resume_frame", 0)))
        return message

    async def _run_once(self) -> bool:
        """One connection's worth of progress; True when the stream is done."""
        reader, writer = await asyncio.open_connection(self.host, self.port)
        try:
            hello = {
                "type": "hello",
                "tenant": self.tenant,
                "stream": self.stream,
                "shape": list(self.frames.shape[1:]),
                "dtype": self.frames.dtype.str,
                "have_outputs": self._out_count,
            }
            writer.write(json.dumps(hello).encode() + b"\n")
            await writer.drain()
            welcome = await self._recv(reader)
            if welcome.get("type") != "welcome":
                raise ServeError(f"expected welcome, got {welcome.get('type')!r}")
            sent = int(welcome["resume_frame"])
            self._absorb(
                int(welcome["output_start"]),
                int(welcome["output_count"]),
                welcome.get("outputs", ""),
            )
            total = self.frames.shape[0]
            loop = asyncio.get_running_loop()
            while sent < total:
                batch = self.frames[sent : sent + self.batch_frames]
                message = {
                    "type": "frames",
                    "count": int(batch.shape[0]),
                    "data": encode_frames(batch),
                }
                t0 = loop.time()
                writer.write(json.dumps(message).encode() + b"\n")
                await writer.drain()
                ack = await self._recv(reader)
                self._latencies.append(loop.time() - t0)
                if ack.get("type") != "ack":
                    raise ServeError(f"expected ack, got {ack.get('type')!r}")
                self._absorb(
                    int(ack["output_start"]),
                    int(ack["output_count"]),
                    ack.get("outputs", ""),
                )
                sent = int(ack["received"])
            writer.write(json.dumps({"type": "end"}).encode() + b"\n")
            await writer.drain()
            result = await self._recv(reader)
            if result.get("type") != "result":
                raise ServeError(f"expected result, got {result.get('type')!r}")
            self._absorb(
                int(result["output_start"]),
                int(result["output_count"]),
                result.get("outputs", ""),
            )
            self._result = result["result"]
            return True
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except Exception:
                pass

    async def run(self) -> ClientResult:
        """Drive the stream to completion, reconnecting as needed."""
        attempts = 0
        while True:
            try:
                done = await self._run_once()
                if done:
                    break
            except _Drained:
                self._drains += 1
            except (
                ConnectionError,
                asyncio.IncompleteReadError,
                json.JSONDecodeError,
                OSError,
            ):
                self._reconnects += 1
            attempts += 1
            if attempts >= self.max_attempts:
                raise ServeError(
                    f"stream {self.tenant}/{self.stream} gave up after "
                    f"{attempts} attempt(s)"
                )
            await asyncio.sleep(self.retry_delay_s)
        outputs = (
            np.concatenate(self._outputs, axis=0)
            if self._outputs
            else self.frames[:0]
        )
        assert self._result is not None
        return ClientResult(
            outputs=outputs,
            result=self._result,
            reconnects=self._reconnects,
            drained=self._drains,
            latencies_s=self._latencies,
        )
