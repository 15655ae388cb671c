"""One tenant stream bound to a live :class:`StreamPipeline`.

A :class:`StreamSession` owns the push source, stage chain, and
checkpoint store for one ``tenant/stream`` pair.  The ingest listener
hands it decoded frame chunks; it drains them through the pipeline
incrementally (``push`` → ``pump``) and collects whatever the final
stage emits so the listener can ship the outputs back in the ack.

Durability contract (durable tenants): the pipeline checkpoints every
chunk boundary, and the session appends every emitted output chunk to a
JSONL *output log* before the ack leaves the process.  Together they
make resume byte-identical from the client's point of view:

* the checkpoint replays the exact pipeline state at the last boundary,
  so frames re-sent from ``resume_frame`` produce the same outputs an
  uninterrupted run would;
* the output log replays the outputs the pipeline emitted but the
  client never acknowledged (a kill between ack-write and ack-receipt),
  so the client's collected output has no gap.

Both files live under ``<checkpoint_dir>/<tenant>/`` and are deleted
when the stream completes cleanly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.exceptions import ServeError
from repro.serve.tenant import TenantConfig
from repro.stream.checkpoint import StreamCheckpoint, decode_array, encode_array
from repro.stream.pipeline import StreamPipeline, StreamResult
from repro.stream.source import PushFrameSource
from repro.stream.telemetry import Telemetry


@dataclass(frozen=True)
class IngestResult:
    """What one :meth:`StreamSession.ingest` call accomplished.

    Attributes:
        accepted: frames absorbed into the stream history (equals the
            offered count except under ``drop-oldest``, where it still
            counts every offered frame).
        received: the stream's total accepted frames so far — the index
            the producer continues from.
        output_start: global index of ``outputs[0]``.
        outputs: frames the final stage emitted during this call
            (possibly empty while stage windows fill).
        refused: push attempts the ingest buffer turned away before the
            pipeline drained room for them (the ``block`` policy's
            backpressure at work; retried internally, never lost).
    """

    accepted: int
    received: int
    output_start: int
    outputs: np.ndarray
    refused: int = 0


class StreamSession:
    """The server-side state of one ``tenant/stream`` pair.

    Args:
        tenant: the tenant contract the stream runs under.
        stream: stream name (unique within the tenant).
        coord_shape: per-frame coordinate shape from the client's hello.
        dtype: frame dtype from the client's hello.
        checkpoint_dir: root directory for durable state; ``None``
            disables durability regardless of the tenant setting.
        telemetry: optional shared hub for stream events.
    """

    def __init__(
        self,
        tenant: TenantConfig,
        stream: str,
        coord_shape: tuple[int, ...],
        dtype: "np.dtype | str",
        checkpoint_dir: "str | Path | None" = None,
        telemetry: Telemetry | None = None,
    ) -> None:
        if not stream or "/" in stream or stream != stream.strip():
            raise ServeError(
                f"stream name must be non-empty, trimmed, and '/'-free, "
                f"got {stream!r}"
            )
        self.tenant = tenant
        self.stream = stream
        self.source = PushFrameSource(
            coord_shape,
            dtype,
            capacity=tenant.buffer_frames,
            policy=tenant.policy,
            label=f"serve:{tenant.name}/{stream}",
        )
        self.durable = bool(tenant.durable and checkpoint_dir is not None)
        checkpoint = None
        self._output_log: Path | None = None
        if self.durable:
            base = Path(checkpoint_dir) / tenant.name
            checkpoint = StreamCheckpoint(base / f"{stream}.jsonl")
            self._output_log = base / f"{stream}.outputs.jsonl"
        self.pipeline = StreamPipeline(
            self.source,
            tenant.build_stages(telemetry, label=tenant.name),
            chunk_frames=tenant.chunk_frames,
            telemetry=telemetry,
            checkpoint=checkpoint,
            sink=self._sink,
        )
        self._pending: list[np.ndarray] = []
        self._sink_next = 0  # global index of the next frame _sink sees
        self._take_next = 0  # global index of the next frame taken
        self.completed = False

    # -- lifecycle --------------------------------------------------------

    def open(self) -> int:
        """Resume durable state (if any); returns the resume frame.

        The resume frame is the count of frames already accepted into
        the stream history — exactly where the producer must continue.
        Raises :class:`~repro.exceptions.CheckpointMismatchError` when a
        checkpoint exists but was written under a different tenant
        configuration.
        """
        self.pipeline.resume()
        self._sink_next = self.pipeline.frames_out
        self._take_next = self.pipeline.frames_out
        self.pipeline.announce()
        return self.source.received

    def ingest(self, frames: np.ndarray) -> IngestResult:
        """Absorb a frame chunk and drain it through the pipeline.

        Pushes in slices sized to what the ingest buffer will take and
        pumps the pipeline between slices, so a message larger than the
        buffer still lands whole — that loop *is* the per-connection
        backpressure under the ``block`` policy.  Raises
        :class:`~repro.exceptions.ServeError` if no progress is
        possible (a single push larger than the buffer capacity that
        the pipeline cannot drain).
        """
        frames = np.asarray(frames)
        offered = int(frames.shape[0])
        offset = 0
        refused = 0
        while offset < offered:
            accepted = self.source.push(frames[offset:])
            offset += accepted
            refused += (offered - offset > 0)
            pumped = self.pipeline.pump()
            if accepted == 0 and pumped == 0:
                raise ServeError(
                    f"{self.name}: ingest wedged — buffer full "
                    f"({self.source.buffered}/{self.tenant.buffer_frames}) "
                    f"and the pipeline cannot drain it"
                )
        start, outputs = self._take_outputs()
        return IngestResult(
            accepted=offered,
            received=self.source.received,
            output_start=start,
            outputs=outputs,
            refused=refused,
        )

    def finish(self) -> tuple[StreamResult, int, np.ndarray]:
        """End of stream: flush stages, return the final result.

        Returns ``(result, output_start, outputs)`` where *outputs* are
        the frames the flush released.  Durable state is deleted — the
        stream is complete, there is nothing left to resume.
        """
        self.pipeline.pump()  # drain anything still buffered
        result = self.pipeline.finalize()
        start, outputs = self._take_outputs()
        self.completed = True
        if self.durable:
            self.pipeline.checkpoint.clear()
            if self._output_log is not None:
                self._output_log.unlink(missing_ok=True)
        return result, start, outputs

    # -- output collection and replay -------------------------------------

    def _sink(self, chunk: np.ndarray) -> None:
        self._pending.append(chunk)
        if self._output_log is not None:
            line = json.dumps(
                {"start": self._sink_next, "frames": encode_array(chunk)}
            )
            self._output_log.parent.mkdir(parents=True, exist_ok=True)
            with self._output_log.open("a") as fh:
                fh.write(line + "\n")
                fh.flush()
        self._sink_next += chunk.shape[0]

    def _take_outputs(self) -> tuple[int, np.ndarray]:
        start = self._take_next
        if not self._pending:
            return start, self.source._empty()
        if len(self._pending) == 1:
            outputs = self._pending[0]
        else:
            outputs = np.concatenate(self._pending, axis=0)
        self._pending.clear()
        self._take_next += outputs.shape[0]
        return start, outputs

    def replay_outputs(self, have: int) -> tuple[int, np.ndarray]:
        """Outputs ``[have, frames_out)`` the client missed, from the log.

        A reconnecting client reports how many output frames it already
        holds; anything the restored pipeline emitted beyond that was
        acknowledged into the log but lost with the old connection, so
        it is replayed here.  Log entries past the restored boundary
        (written between the last checkpoint and the kill) are clipped —
        the pipeline will deterministically re-emit them.
        """
        want_end = self._take_next
        if have >= want_end:
            return have, self.source._empty()
        if self._output_log is None or not self._output_log.exists():
            raise ServeError(
                f"{self.name}: client is missing outputs "
                f"[{have}, {want_end}) and no output log exists"
            )
        pieces: list[np.ndarray] = []
        cursor = have
        with self._output_log.open() as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue  # partial trailing line from a kill
                start = int(record["start"])
                frames = decode_array(record["frames"])
                end = start + frames.shape[0]
                if end <= cursor or start >= want_end:
                    continue
                if start > cursor:
                    raise ServeError(
                        f"{self.name}: output log gap at frame {cursor} "
                        f"(next entry starts at {start})"
                    )
                lo = cursor - start
                hi = min(end, want_end) - start
                pieces.append(frames[lo:hi])
                cursor += hi - lo
        if cursor < want_end:
            raise ServeError(
                f"{self.name}: output log ends at frame {cursor}, "
                f"client needs up to {want_end}"
            )
        outputs = (
            pieces[0] if len(pieces) == 1 else np.concatenate(pieces, axis=0)
        )
        return have, outputs

    # -- identity ---------------------------------------------------------

    @property
    def name(self) -> str:
        """The ``tenant/stream`` pair as one display string."""
        return f"{self.tenant.name}/{self.stream}"

    @property
    def received(self) -> int:
        """Frames accepted into the stream history so far."""
        return self.source.received

    def matches(self, coord_shape: tuple[int, ...], dtype: "np.dtype | str") -> bool:
        """Whether a hello's frame format matches this session's."""
        return self.source.coord_shape == tuple(
            int(s) for s in coord_shape
        ) and self.source.dtype == np.dtype(dtype)
