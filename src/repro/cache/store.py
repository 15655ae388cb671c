"""The content-addressed artifact store: LRU memory tier + disk tier.

:class:`ArtifactCache` maps a content fingerprint (see
:mod:`repro.cache.fingerprint`) to a :class:`CachedArtifact` — a bundle
of read-only numpy arrays plus a small JSON-able metadata dict (the
captured RNG state, for example).  Lookups fall through two tiers:

1. the in-process **LRU tier**, byte-capped, promoted on every hit;
2. the optional **disk tier**: one ``<key>.art`` file per entry,
   byte-capped with oldest-first eviction.  :func:`_decode` checks
   every file it reads; a damaged, truncated, renamed or hostile file
   reads as a miss and is deleted, never served.

The disk tier keeps a running tally of entry sizes, seeded by one
directory survey at the instance's first disk write; only a put that
takes it past ``max_disk_bytes`` surveys again (counting other
processes' entries) and evicts oldest-first by mtime.

Each entry is written to a unique temp file and published with one
``os.replace`` (atomic on POSIX), so concurrent writers and crashes
never leave a partial entry and the last writer wins.  An internal
re-entrant lock serialises tier bookkeeping, so threads can share one
instance.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import struct
import sys
import threading
import uuid
from collections import OrderedDict
from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.exceptions import ConfigurationError, DataFormatError

#: Entry file magic, version and header length, in file order.
_PREFIX = struct.Struct("<8sBI")
_MAGIC = b"REPROART"
_VERSION = 1
#: Longest header the decoder parses; real headers are a few hundred bytes.
_MAX_HEADER = 64 * 1024
#: Where the header's last field, ``"sha256":"<64 hex digits>"}``, keeps
#: the digest of every other byte of the file.
_DIGEST = slice(-66, -2)
#: numpy's smallest supported ``ndim`` cap (32 before numpy 2).
_MAX_NDIM = 32
#: An entry's file name in the store's earlier two-file layout.
_OLD_LAYOUT = re.compile(r"[0-9a-f]{64}\.(npz|json)")
#: The dtypes an entry may hold: native-order booleans, integers, floats.
_DTYPES = {np.dtype(c).str: np.dtype(c) for c in "?bBhHiIqQfd"}


def _aligned(offset: int) -> int:
    """*offset* rounded up to the 64-byte boundary every array starts on."""
    return -(-offset // 64) * 64


def _array_fault(name: object, dtype: object, shape: object) -> str | None:
    """Why array *name* of *dtype* (a ``dtype.str``) and *shape* cannot be
    stored, or None; ``put`` and the decoder share this rule."""
    if not isinstance(name, str):
        return f"array name {name!r} is not a string"
    if not isinstance(dtype, str) or dtype not in _DTYPES:
        return f"dtype {dtype!r} is not one of {sorted(_DTYPES)}"
    if not (isinstance(shape, list) and len(shape) <= _MAX_NDIM
            and all(type(n) is int and n >= 0 for n in shape)):
        return f"shape {shape!r} is not a list of at most {_MAX_NDIM} ints >= 0"
    if math.prod(max(n, 1) for n in shape) * _DTYPES[dtype].itemsize > sys.maxsize:
        return f"shape {shape!r} overflows the address space"
    return None


def _decode(
    path: Path, key: str, payload: bool = True
) -> tuple[dict, dict[str, np.ndarray]]:
    """The (meta, arrays) of the entry file at *path*, checked for *key*.

    The file is ``_PREFIX``, a JSON header ``{"arrays": [[name, dtype.str,
    shape, offset], ...], "key", "meta", "sha256"}``, then each array's
    C-order bytes at *offset* from the first aligned byte after the
    header.  The first fault raises a one-line :class:`DataFormatError`
    before anything is sized from the file.  Without *payload* (a
    survey) only the header is read and checked.
    """

    def refuse(fault: str) -> DataFormatError:
        return DataFormatError(f"artifact file {path.name}: {fault}"[:300])

    with open(path, "rb", buffering=0) as f:
        blob = f.read() if payload else f.read(_PREFIX.size + _MAX_HEADER)
        size = len(blob) if payload else os.fstat(f.fileno()).st_size
    if len(blob) < _PREFIX.size:
        raise refuse(f"{size} bytes is shorter than the prefix")
    magic, version, header_len = _PREFIX.unpack_from(blob)
    if (magic, version) != (_MAGIC, _VERSION):
        raise refuse(f"magic {magic!r} version {version} is not this format")
    if header_len > min(_MAX_HEADER, size - _PREFIX.size):
        raise refuse(f"header length {header_len} is over the cap or the file")
    end = _PREFIX.size + header_len
    try:
        header = json.loads(blob[_PREFIX.size : end])
    except (ValueError, RecursionError) as exc:
        raise refuse(f"header is not JSON ({exc})") from None
    if not (isinstance(header, dict) and isinstance(header.get("meta"), dict)
            and isinstance(header.get("arrays"), list)):
        raise refuse("header lacks its meta object or array list")
    if header.get("key") != key:
        raise refuse(f"header names key {header.get('key')!r}")
    layout, cursor = {}, 0
    for entry in header["arrays"]:
        if not (isinstance(entry, list) and len(entry) == 4):
            raise refuse(f"malformed array entry {entry!r}")
        name, dtype, shape, offset = entry
        fault = _array_fault(name, dtype, shape)
        if fault is not None:
            raise refuse(fault)
        if type(offset) is not int or offset != _aligned(cursor) or name in layout:
            raise refuse(f"array {name!r} does not tile the payload")
        layout[name] = (_DTYPES[dtype], shape, math.prod(shape), offset)
        cursor = offset + math.prod(shape) * _DTYPES[dtype].itemsize
    if _aligned(end) + cursor != size:
        raise refuse(f"arrays do not tile the file's {size} bytes")
    if not payload:
        return header["meta"], {}
    with memoryview(blob) as view:
        sha = hashlib.sha256(view[: end + _DIGEST.start])
        sha.update(view[end + _DIGEST.stop :])
    if blob[end + _DIGEST.start : end + _DIGEST.stop] != sha.hexdigest().encode():
        raise refuse("SHA-256 mismatch")
    return header["meta"], {
        name: np.frombuffer(blob, dtype, count, _aligned(end) + offset).reshape(shape)
        for name, (dtype, shape, count, offset) in layout.items()
    }


def _is_store_file(path: Path) -> bool:
    """Whether ``clear`` may delete *path*: an entry file (``.art`` with
    the format's magic), a writer's ``.art.tmp-`` temp file, or one half
    of an earlier layout's ``<64-hex key>.npz``/``.json`` pair."""
    name = path.name
    if ".art.tmp-" in name or _OLD_LAYOUT.fullmatch(name):
        return True
    if path.suffix != ".art":
        return False
    try:
        with open(path, "rb") as f:
            return f.read(len(_MAGIC)) == _MAGIC
    except OSError:
        return False


def _encode(key: str, arrays: Mapping[str, np.ndarray], meta: dict) -> list[bytes]:
    """The entry file for *key*, in pieces: the layout :func:`_decode` checks."""
    table, chunks, cursor = [], [], 0
    for name, array in arrays.items():
        offset = _aligned(cursor)
        table.append([name, array.dtype.str, list(array.shape), offset])
        chunks += [bytes(offset - cursor), array.tobytes()]
        cursor = offset + array.nbytes
    raw = json.dumps({"arrays": table, "key": key, "meta": meta, "sha256": "0" * 64},
                     sort_keys=True, separators=(",", ":")).encode()
    if len(raw) > _MAX_HEADER:
        raise ConfigurationError(f"artifact header for key {key!r} is "
                                 f"{len(raw)} bytes, over the {_MAX_HEADER}-byte cap")
    prefix = _PREFIX.pack(_MAGIC, _VERSION, len(raw))
    pad = bytes(_aligned(len(prefix) + len(raw)) - len(prefix) - len(raw))
    head, tail = raw[: _DIGEST.start], raw[_DIGEST.stop :]
    sha = hashlib.sha256(prefix + head)
    for part in (tail, pad, *chunks):
        sha.update(part)
    return [prefix, head, sha.hexdigest().encode(), tail, pad, *chunks]


def _frozen(arrays: Mapping[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Read-only views of *arrays* (the stored copies are never mutated)."""
    views = {name: np.asarray(array).view() for name, array in arrays.items()}
    for view in views.values():
        view.flags.writeable = False
    return views


@dataclass(frozen=True)
class CachedArtifact:
    """One cache entry: named read-only arrays plus JSON-able metadata.

    Attributes:
        arrays: name → read-only ndarray.
        meta: small JSON-serialisable data stored in the entry's header
            (e.g. the captured generator state needed to resume the
            trial's RNG stream bit-identically after a cache hit).
    """

    arrays: dict[str, np.ndarray]
    meta: dict = field(default_factory=dict)

    @classmethod
    def build(
        cls, arrays: Mapping[str, np.ndarray], meta: dict | None = None
    ) -> "CachedArtifact":
        """Normalise *arrays* to read-only views and wrap them."""
        return cls(arrays=_frozen(arrays), meta=dict(meta or {}))

    @property
    def nbytes(self) -> int:
        """Total payload bytes across all arrays."""
        return sum(a.nbytes for a in self.arrays.values())


@dataclass(frozen=True)
class CacheStats:
    """Counter snapshot for one :class:`ArtifactCache`.

    Attributes:
        hits: lookups served from any tier.
        misses: lookups that found nothing.
        memory_hits: hits served by the in-process LRU tier.
        disk_hits: hits served by the on-disk tier.
        puts: entries stored.
        memory_evictions: LRU entries dropped to respect the byte cap.
        disk_evictions: disk entries dropped to respect the byte cap.
        bytes_saved: payload bytes served from cache instead of being
            regenerated (the Σ of every hit's artifact size).
        n_memory_entries: entries currently in the LRU tier.
        memory_bytes: payload bytes currently in the LRU tier.
        n_disk_entries: entries currently on disk (0 without a disk tier).
        disk_bytes: entry file bytes currently on disk.
    """

    hits: int = 0
    misses: int = 0
    memory_hits: int = 0
    disk_hits: int = 0
    puts: int = 0
    memory_evictions: int = 0
    disk_evictions: int = 0
    bytes_saved: int = 0
    n_memory_entries: int = 0
    memory_bytes: int = 0
    n_disk_entries: int = 0
    disk_bytes: int = 0


class ArtifactCache:
    """Content-addressed artifact cache with LRU memory + disk tiers.

    Args:
        max_memory_bytes: byte cap for the in-process tier; least
            recently used entries are evicted past it.  0 disables the
            memory tier (every hit then comes from disk).
        directory: on-disk tier location; None disables the disk tier.
        max_disk_bytes: byte cap for the disk tier; oldest entries are
            evicted past it.
    """

    def __init__(
        self,
        max_memory_bytes: int = 256 * 1024 * 1024,
        directory: str | Path | None = None,
        max_disk_bytes: int = 1024 * 1024 * 1024,
    ) -> None:
        if max_memory_bytes < 0:
            raise ConfigurationError(
                f"max_memory_bytes must be >= 0, got {max_memory_bytes}"
            )
        if max_disk_bytes < 1:
            raise ConfigurationError(
                f"max_disk_bytes must be >= 1, got {max_disk_bytes}"
            )
        self.max_memory_bytes = int(max_memory_bytes)
        self.max_disk_bytes = int(max_disk_bytes)
        self.directory = Path(directory) if directory is not None else None
        self._lock = threading.RLock()
        self._memory: OrderedDict[str, CachedArtifact] = OrderedDict()
        self._memory_bytes = 0
        # key → entry file bytes of this instance's view of the disk
        # tier; None until the first disk write seeds it from a survey.
        self._disk_index: dict[str, int] | None = None
        self._disk_bytes = 0
        self._counts = dict.fromkeys(
            ("hits", "misses", "memory_hits", "disk_hits", "puts",
             "memory_evictions", "disk_evictions", "bytes_saved"), 0
        )

    # -- lookups ----------------------------------------------------------

    def get(self, key: str) -> CachedArtifact | None:
        """The artifact stored under *key*, or None on a miss."""
        with self._lock:
            artifact = self._memory.get(key)
            if artifact is not None:
                self._memory.move_to_end(key)
                self._hit("memory_hits", artifact)
                return artifact
            artifact = self._disk_read(key)
            if artifact is not None:
                self._admit_memory(key, artifact)
                self._hit("disk_hits", artifact)
                return artifact
            self._counts["misses"] += 1
            return None

    def contains(self, key: str) -> bool:
        """Whether ``get`` would serve *key*, without counting a lookup.

        The DAG scheduler's recovery survey calls this once per node, so
        a node whose publication was interrupted simply re-runs.  No
        counter moves and nothing is admitted to the memory tier, so a
        survey neither distorts campaign telemetry nor churns the LRU.
        """
        with self._lock:
            return key in self._memory or self._disk_read(key) is not None

    def put(self, key: str, artifact: CachedArtifact) -> None:
        """Store *artifact* under *key* in every writable tier.

        Raises:
            ConfigurationError: an array no entry file may hold, or (with
                a disk tier) meta too large for the header cap.
        """
        artifact = CachedArtifact(_frozen(artifact.arrays), dict(artifact.meta))
        for name, array in artifact.arrays.items():
            fault = _array_fault(name, array.dtype.str, list(array.shape))
            if fault is not None:
                raise ConfigurationError(f"cannot store under key {key!r}: {fault}")
        with self._lock:
            self._disk_write(key, artifact)
            self._admit_memory(key, artifact)
            self._counts["puts"] += 1

    # -- stats / maintenance ----------------------------------------------

    def stats(self) -> CacheStats:
        """Current counters plus tier occupancy."""
        with self._lock:
            entries = self._disk_entries()
            return CacheStats(
                **self._counts,
                n_memory_entries=len(self._memory),
                memory_bytes=self._memory_bytes,
                n_disk_entries=len(entries),
                disk_bytes=self._disk_bytes,
            )

    def disk_kind_breakdown(self) -> dict[str, dict[str, int]]:
        """Disk-tier occupancy grouped by DAG node kind.

        Returns ``{kind: {"entries": n, "bytes": entry file bytes}}``
        sorted by descending byte count.  The kind is the ``node_kind``
        the DAG scheduler stamps into each artifact's meta at
        publication, or ``"other"`` for an unstamped entry.  Like
        ``stats``, this reads each entry's checked header only.
        """
        breakdown: dict[str, dict[str, int]] = {}
        with self._lock:
            for _, size, _, meta in self._disk_entries():
                kind = str(meta.get("node_kind") or "other")
                slot = breakdown.setdefault(kind, {"entries": 0, "bytes": 0})
                slot["entries"] += 1
                slot["bytes"] += size
        return dict(sorted(breakdown.items(), key=lambda kv: -kv[1]["bytes"]))

    def counters(self) -> dict[str, int]:
        """A snapshot of the raw event counters (no occupancy fields)."""
        with self._lock:
            return dict(self._counts)

    def clear(self) -> None:
        """Drop every entry from both tiers, with stale temp files and
        the ``<key>.npz``/``<key>.json`` pairs of the store's earlier
        layout.  Any other file in the directory is left alone."""
        with self._lock:
            self._memory.clear()
            self._memory_bytes = 0
            self._disk_index = {}
            self._disk_bytes = 0
            if self.directory is None or not self.directory.is_dir():
                return
            for path in self.directory.iterdir():
                if _is_store_file(path):
                    path.unlink(missing_ok=True)

    # -- memory tier ------------------------------------------------------

    def _hit(self, tier: str, artifact: CachedArtifact) -> None:
        self._counts["hits"] += 1
        self._counts[tier] += 1
        self._counts["bytes_saved"] += artifact.nbytes

    def _admit_memory(self, key: str, artifact: CachedArtifact) -> None:
        if self.max_memory_bytes == 0:
            return
        old = self._memory.pop(key, None)
        if old is not None:
            self._memory_bytes -= old.nbytes
        self._memory[key] = artifact
        self._memory_bytes += artifact.nbytes
        while self._memory_bytes > self.max_memory_bytes and len(self._memory) > 1:
            _, evicted = self._memory.popitem(last=False)
            self._memory_bytes -= evicted.nbytes
            self._counts["memory_evictions"] += 1

    # -- disk tier --------------------------------------------------------

    def _path(self, key: str) -> Path:
        assert self.directory is not None
        return self.directory / f"{key}.art"

    def _disk_write(self, key: str, artifact: CachedArtifact) -> None:
        if self.directory is None:
            return
        self.directory.mkdir(parents=True, exist_ok=True)
        pieces = _encode(key, artifact.arrays, artifact.meta)
        # A unique temp name keeps concurrent writers of the same key from
        # trampling each other's half-written file; os.replace publishes it
        # atomically, and because both writers derived identical content
        # from the same fingerprint, last-writer-wins is harmless.
        path = self._path(key)
        tmp = path.with_name(f"{path.name}.tmp-{os.getpid()}-{uuid.uuid4().hex}")
        try:
            with open(tmp, "wb") as f:
                f.writelines(pieces)
            os.replace(tmp, path)
        except OSError:
            tmp.unlink(missing_ok=True)
            raise
        if self._disk_index is None:
            self._disk_entries()
        size = sum(map(len, pieces))
        self._disk_bytes += size - self._disk_index.get(key, 0)
        self._disk_index[key] = size
        if self._disk_bytes > self.max_disk_bytes:
            self._evict_disk()

    def _disk_read(self, key: str) -> CachedArtifact | None:
        """The verified disk entry for *key*; a refused file is deleted."""
        if self.directory is None:
            return None
        try:
            meta, arrays = _decode(self._path(key), key)
        except DataFormatError:
            self._drop_disk_entry(key)
            return None
        except OSError:
            return None
        return CachedArtifact.build(arrays, meta)

    def _drop_disk_entry(self, key: str) -> None:
        self._path(key).unlink(missing_ok=True)
        if self._disk_index is not None:
            self._disk_bytes -= self._disk_index.pop(key, 0)

    def _disk_entries(self) -> list[tuple[float, int, str, dict]]:
        """Survey the directory, rebuilding the disk index from it.

        Returns (mtime, bytes, key, meta) per entry whose header
        checks, oldest first; refused files are skipped, not deleted.
        """
        entries = []
        if self.directory is not None and self.directory.is_dir():
            for path in self.directory.glob("*.art"):
                try:
                    stat = path.stat()
                    meta, _ = _decode(path, path.stem, payload=False)
                except (OSError, DataFormatError):
                    continue
                entries.append((stat.st_mtime, stat.st_size, path.stem, meta))
        entries.sort(key=lambda entry: entry[:3])
        self._disk_index = {key: size for _, size, key, _ in entries}
        self._disk_bytes = sum(self._disk_index.values())
        return entries

    def _evict_disk(self) -> None:
        # A fresh survey, not the index: other processes' entries and
        # on-disk mtimes decide what goes.  Oldest-first, but the newest
        # entry (just written) always stays.
        for _, _, key, _ in self._disk_entries()[:-1]:
            if self._disk_bytes <= self.max_disk_bytes:
                break
            self._drop_disk_entry(key)
            self._counts["disk_evictions"] += 1
