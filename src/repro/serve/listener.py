"""The TCP ingest listener: newline-delimited JSON frame streaming.

One connection drives at most one stream at a time, request–response:

* ``{"type": "hello", "tenant": T, "stream": S, "shape": [...],
  "dtype": "<u2", "have_outputs": H}`` binds the connection to a
  session.  The reply ``welcome`` carries ``resume_frame`` (how many
  frames the stream history already holds — the producer continues
  from there) and replays any outputs the client is missing.
* ``{"type": "frames", "count": n, "data": <base64>}`` delivers ``n``
  frames as raw little-endian bytes.  The reply ``ack`` confirms the
  new ``received`` total and carries whatever the pipeline emitted.
* ``{"type": "end"}`` flushes the stages; the reply ``result`` carries
  the tail outputs and the stream's final Ψ accounting.
* ``{"type": "detach"}`` parks the session (kept in memory) and closes.

Every server reply is one JSON line.  Outputs travel as base64 of the
frames' raw bytes plus the global index of the first frame, so a client
reconnecting after a kill can discard the prefix it already holds —
the dedupe that makes resumed output byte-identical.

A drain signal is raced against every read: a draining connection gets
``{"type": "drained", "resume_frame": N}`` and a clean close, never a
mid-message cut.  The optional :class:`~repro.serve.server.ChaosMonkey`
aborts connections abruptly before or after a message is processed —
the fault-injection hook the resume tests rely on.
"""

from __future__ import annotations

import asyncio
import base64
import binascii
import contextlib
import json
from typing import Awaitable, Callable

import numpy as np

from repro.exceptions import ReproError, ServeError
from repro.serve.drain import DrainController
from repro.serve.metrics import ServeMetrics
from repro.serve.session import StreamSession

#: Sentinel returned by the read-or-drain race when the drain wins.
_DRAIN = object()


class DrainingRefusal(ServeError):
    """A hello arrived while the server was draining (retry later)."""


class BusyStreamError(ServeError):
    """The stream is attached to another connection (usually a dying
    one whose abort has not unwound yet — retryable)."""

#: Maximum accepted line length (frames messages are base64-heavy).
MAX_LINE_BYTES = 16 * 1024 * 1024


def encode_frames(frames: np.ndarray) -> str:
    """Frames as base64 of their raw contiguous bytes ('' when empty)."""
    if frames.shape[0] == 0:
        return ""
    return base64.b64encode(np.ascontiguousarray(frames).tobytes()).decode(
        "ascii"
    )


def decode_frames(
    data: str, count: int, coord_shape: tuple[int, ...], dtype: np.dtype
) -> np.ndarray:
    """Invert :func:`encode_frames`; raises :class:`ServeError` on junk."""
    if count == 0:
        return np.empty((0,) + coord_shape, dtype=dtype)
    try:
        raw = base64.b64decode(data, validate=True)
    except (binascii.Error, ValueError) as exc:
        raise ServeError(f"frames payload is not valid base64: {exc}") from None
    expected = count * int(np.prod(coord_shape, dtype=np.int64)) * dtype.itemsize
    if len(raw) != expected:
        raise ServeError(
            f"frames payload holds {len(raw)} byte(s), expected {expected} "
            f"for {count} frame(s) of shape {coord_shape} dtype {dtype.str}"
        )
    return (
        np.frombuffer(raw, dtype=dtype).reshape((count,) + coord_shape).copy()
    )


class IngestHandler:
    """The per-connection protocol driver behind the ingest socket.

    Args:
        sessions: the server's session manager (see
            :class:`~repro.serve.server.SessionManager`).
        metrics: the server's metrics sink.
        drain: the drain controller every read races against.
        run_in_pool: awaitable bridge onto the worker pool; all pipeline
            work goes through it so the event loop never blocks on NumPy.
        chaos: optional connection killer (``None`` disables chaos).
    """

    def __init__(
        self,
        sessions,
        metrics: ServeMetrics,
        drain: DrainController,
        run_in_pool: Callable[..., Awaitable],
        chaos=None,
    ) -> None:
        self.sessions = sessions
        self.metrics = metrics
        self.drain = drain
        self.run_in_pool = run_in_pool
        self.chaos = chaos

    async def handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve one ingest connection to completion."""
        self.metrics.incr("connections_opened")
        self.drain.register()
        session: StreamSession | None = None
        attached = False
        try:
            while True:
                line = await self._read_line_or_drain(reader)
                if line is _DRAIN:
                    await self._send(
                        writer,
                        {
                            "type": "drained",
                            "resume_frame": session.received if session else 0,
                        },
                    )
                    break
                if not line:
                    break  # client closed
                try:
                    message = json.loads(line)
                    if not isinstance(message, dict):
                        raise ServeError("message must be a JSON object")
                except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                    await self._error(writer, "protocol", f"bad JSON line: {exc}")
                    break
                kind = message.get("type")
                try:
                    if kind == "hello":
                        if session is not None:
                            raise ServeError("connection already has a stream")
                        session, attached = await self._hello(writer, message)
                    elif kind == "frames":
                        if session is None:
                            raise ServeError("frames before hello")
                        killed = await self._frames(writer, session, message)
                        if killed:
                            break  # abrupt end: the finally block drops
                    elif kind == "end":
                        await self._end(writer, session)
                        session, attached = None, False
                    elif kind == "detach":
                        if session is None:
                            raise ServeError("detach before hello")
                        await self._send(
                            writer,
                            {"type": "detached", "resume_frame": session.received},
                        )
                        self.sessions.park(session)
                        session, attached = None, False
                        break
                    else:
                        raise ServeError(f"unknown message type {kind!r}")
                except ReproError as exc:
                    await self._error(writer, _error_code(exc), str(exc))
                    break
        except (
            ConnectionResetError,
            BrokenPipeError,
            asyncio.IncompleteReadError,
        ):
            pass  # abrupt peer loss: the finally block drops the session
        finally:
            if session is not None and attached:
                # Abrupt end (peer loss, protocol error, drain): drop the
                # live object; durable streams resume from their
                # checkpoint, non-durable ones start over.
                self.sessions.drop(session)
            with contextlib.suppress(Exception):
                writer.close()
            self.drain.unregister()
            self.metrics.incr("connections_closed")

    # -- message handlers -------------------------------------------------

    async def _hello(self, writer, message) -> tuple[StreamSession, bool]:
        tenant_name = message.get("tenant")
        stream = message.get("stream")
        shape = message.get("shape")
        dtype = message.get("dtype")
        have = message.get("have_outputs", 0)
        if not isinstance(tenant_name, str) or not isinstance(stream, str):
            raise ServeError("hello needs string 'tenant' and 'stream'")
        if not isinstance(shape, list) or not all(
            _is_int(s) and s > 0 for s in shape
        ):
            raise ServeError("hello needs 'shape' as a list of positive ints")
        if not _is_int(have) or have < 0:
            raise ServeError(
                f"hello needs 'have_outputs' as a non-negative int, got {have!r}"
            )
        if self.drain.draining:
            raise DrainingRefusal("server is draining; retry after restart")
        try:
            np_dtype = np.dtype(dtype)
        except (TypeError, ValueError) as exc:
            raise ServeError(f"bad dtype {dtype!r}: {exc}") from None
        if not np.issubdtype(np_dtype, np.number):
            raise ServeError(f"bad dtype {dtype!r}: frames must be numeric")
        session = self.sessions.acquire(tenant_name, stream, tuple(shape), np_dtype)
        try:
            resume_frame = await self.run_in_pool(session.open)
            start, outputs = session.replay_outputs(have)
        except Exception:
            self.sessions.drop(session)
            raise
        await self._send(
            writer,
            {
                "type": "welcome",
                "tenant": session.tenant.name,
                "stream": session.stream,
                "resume_frame": resume_frame,
                "chunk_frames": session.tenant.chunk_frames,
                "buffer_frames": session.tenant.buffer_frames,
                "output_start": start,
                "output_count": int(outputs.shape[0]),
                "outputs": encode_frames(outputs),
            },
        )
        return session, True

    async def _frames(self, writer, session: StreamSession, message) -> bool:
        """Process one frames message; True when chaos killed the link."""
        count = message.get("count")
        if not isinstance(count, int) or count < 0:
            raise ServeError("frames needs a non-negative integer 'count'")
        frames = decode_frames(
            str(message.get("data", "")),
            count,
            session.source.coord_shape,
            session.source.dtype,
        )
        if self.chaos is not None and self.chaos.strike():
            self.metrics.incr("chaos_kills")
            writer.transport.abort()  # frames lost before processing
            return True
        loop = asyncio.get_running_loop()
        t0 = loop.time()
        result = await self.run_in_pool(session.ingest, frames)
        self.metrics.observe("ingest_latency", loop.time() - t0)
        self.metrics.incr("messages")
        if result.refused:
            self.metrics.incr("backpressure_refusals", result.refused)
        if self.chaos is not None and self.chaos.strike():
            self.metrics.incr("chaos_kills")
            writer.transport.abort()  # processed and checkpointed, ack lost
            return True
        await self._send(
            writer,
            {
                "type": "ack",
                "received": result.received,
                "output_start": result.output_start,
                "output_count": int(result.outputs.shape[0]),
                "outputs": encode_frames(result.outputs),
            },
        )
        return False

    async def _end(self, writer, session: StreamSession | None) -> None:
        if session is None:
            raise ServeError("end before hello")
        result, start, outputs = await self.run_in_pool(session.finish)
        self.sessions.drop(session)
        await self._send(
            writer,
            {
                "type": "result",
                "output_start": start,
                "output_count": int(outputs.shape[0]),
                "outputs": encode_frames(outputs),
                "result": {
                    "n_frames_in": result.n_frames_in,
                    "n_frames_out": result.n_frames_out,
                    "n_chunks": result.n_chunks,
                    "psi_no_preprocessing": result.psi_no_preprocessing,
                    "psi_algorithm": result.psi_algorithm,
                    "improvement": result.improvement,
                },
            },
        )

    # -- plumbing ---------------------------------------------------------

    async def _read_line_or_drain(self, reader: asyncio.StreamReader):
        """One protocol line, or the ``_DRAIN`` sentinel if a drain begins."""
        if self.drain.draining:
            return _DRAIN
        read = asyncio.ensure_future(reader.readline())
        drain = asyncio.ensure_future(self.drain.wait_signal())
        done, _ = await asyncio.wait(
            {read, drain}, return_when=asyncio.FIRST_COMPLETED
        )
        if read in done:
            drain.cancel()
            return read.result()
        read.cancel()
        with contextlib.suppress(asyncio.CancelledError):
            await read
        return _DRAIN

    async def _send(self, writer: asyncio.StreamWriter, payload: dict) -> None:
        writer.write(json.dumps(payload).encode("utf-8") + b"\n")
        await writer.drain()

    async def _error(self, writer, code: str, detail: str) -> None:
        self.metrics.incr("protocol_errors")
        with contextlib.suppress(ConnectionError):
            await self._send(writer, {"type": "error", "code": code, "error": detail})


def _is_int(value) -> bool:
    """True for a JSON integer; a bool is not one."""
    return isinstance(value, int) and not isinstance(value, bool)


def _error_code(exc: ReproError) -> str:
    """Map an exception to the protocol's stable error code."""
    from repro.exceptions import CheckpointMismatchError, DataFormatError

    if isinstance(exc, DrainingRefusal):
        return "draining"
    if isinstance(exc, BusyStreamError):
        return "busy"
    if isinstance(exc, CheckpointMismatchError):
        return "checkpoint-mismatch"
    if isinstance(exc, DataFormatError):
        return "format"
    if isinstance(exc, ServeError):
        return "refused"
    return "internal"
