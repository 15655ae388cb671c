"""Crash-safe JSONL checkpoints for streaming runs.

A streaming campaign cannot checkpoint "completed shards" the way the
trial runtime does — its unit of progress is a chunk boundary, and the
state that must survive a kill is the *exact* pipeline state: source
position and walk state, every stage's carry buffer, the Kahan-summed
Ψ accumulators, and the pristine-alignment FIFO.  This module stores
that state as one self-contained JSON line per completed chunk::

    {"fingerprint": "src=walk(...);stages=[...];v1", "chunk": 12,
     "frames_done": 768, "state": {...}}

Arrays are serialized as base64 of their exact bytes (bit-identical
round trip, including float64 walk state), and Python's ``json`` floats
use shortest-repr round-tripping, so a resumed run continues from
*exactly* the killed run's state — the resumed final Ψ is byte-for-byte
the uninterrupted one.  Append-only JSONL keeps interrupted writes
harmless: a partial trailing line is skipped and the previous boundary
is used instead.

Because the pipeline itself is chunk-size invariant, a checkpoint
written with one ``--chunk-frames`` may be resumed with another; the
fingerprint deliberately excludes transport parameters.
"""

from __future__ import annotations

import base64
import json
from pathlib import Path

import numpy as np

from repro.exceptions import ConfigurationError


def encode_array(array: np.ndarray) -> dict:
    """Serialize *array* exactly (dtype, shape, raw bytes as base64)."""
    array = np.ascontiguousarray(array)
    return {
        "dtype": array.dtype.str,
        "shape": list(array.shape),
        "data": base64.b64encode(array.tobytes()).decode("ascii"),
    }


def decode_array(payload: dict) -> np.ndarray:
    """Invert :func:`encode_array`, bit-identically."""
    raw = base64.b64decode(payload["data"])
    return np.frombuffer(raw, dtype=np.dtype(payload["dtype"])).reshape(
        tuple(payload["shape"])
    ).copy()


class StreamCheckpoint:
    """Append-only JSONL record of completed chunk boundaries.

    Args:
        path: checkpoint file; created (with parents) on first record.
    """

    def __init__(self, path: "str | Path") -> None:
        self.path = Path(path)

    def record(self, fingerprint: str, chunk: int, frames_done: int, state: dict) -> None:
        """Append one completed chunk boundary and flush it to disk."""
        line = json.dumps(
            {
                "fingerprint": fingerprint,
                "chunk": int(chunk),
                "frames_done": int(frames_done),
                "state": state,
            }
        )
        if "\n" in line:
            raise ConfigurationError("checkpoint record must be a single line")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("a") as fh:
            fh.write(line + "\n")
            fh.flush()

    def latest(self, fingerprint: str) -> dict | None:
        """The most recent well-formed record matching *fingerprint*.

        Records under other fingerprints are ignored, so a changed
        source or stage configuration silently invalidates stale
        checkpoints instead of resuming into the wrong stream.  Returns
        ``None`` when there is nothing to resume from.
        """
        best: dict | None = None
        if not self.path.exists():
            return None
        with self.path.open() as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue  # partial line from an interrupted run
                if not isinstance(record, dict):
                    continue
                if record.get("fingerprint") != fingerprint:
                    continue
                if not isinstance(record.get("state"), dict):
                    continue
                try:
                    chunk = int(record["chunk"])
                except (KeyError, TypeError, ValueError):
                    continue
                if best is None or chunk >= int(best["chunk"]):
                    best = record
        return best

    def fingerprints(self) -> set[str]:
        """Every fingerprint with at least one well-formed record.

        Strict resumers use this to tell "nothing to resume" (empty
        set) apart from "records exist, but for a different stream
        configuration" — the latter aborts instead of silently starting
        over.
        """
        found: set[str] = set()
        if not self.path.exists():
            return found
        with self.path.open() as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if not isinstance(record, dict):
                    continue
                fingerprint = record.get("fingerprint")
                if isinstance(fingerprint, str) and isinstance(
                    record.get("state"), dict
                ):
                    found.add(fingerprint)
        return found

    def clear(self) -> None:
        """Delete the checkpoint file (start the stream from scratch)."""
        self.path.unlink(missing_ok=True)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StreamCheckpoint({str(self.path)!r})"
