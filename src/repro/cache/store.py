"""The content-addressed artifact store: LRU memory tier + disk tier.

:class:`ArtifactCache` maps a content fingerprint (see
:mod:`repro.cache.fingerprint`) to a :class:`CachedArtifact` — a bundle
of read-only numpy arrays plus a small JSON-able metadata dict (the
captured RNG state, for example).  Lookups fall through two tiers:

1. the in-process **LRU tier**, byte-capped, promoted on every hit;
2. the optional **disk tier**: one ``<key>.npz`` payload plus a
   ``<key>.json`` sidecar per entry, byte-capped with oldest-first
   eviction.

The disk tier keeps an in-process index of entry sizes and a running
byte total, seeded by one directory survey at the instance's first disk
write, so a put below the cap costs no directory scan.  Only a put that
takes the total past ``max_disk_bytes`` surveys the directory again,
rebuilding the index from on-disk state (entries written by other
processes included) and evicting oldest-first by mtime.

Disk writes are safe under concurrent writers: payload and sidecar are
written to unique temp files and published with ``os.replace`` (atomic
on POSIX), so readers never observe a partial file and the last writer
wins.  Within one process the cache is additionally thread-safe: an
internal re-entrant lock serialises tier bookkeeping (LRU order, byte
accounting, counters), so worker-pool threads — the serve layer runs
every stream's pipeline on a shared thread pool — can share one cache
instance.  ``get_or_create`` deliberately runs its factory *outside*
the lock: two threads may race to produce the same key (both results
are identical by construction, last writer wins), but a slow factory
never blocks unrelated lookups.  The sidecar records the payload's SHA-256; a torn pair or a
crash-corrupted payload fails verification and is treated as a miss
(and deleted), never served.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import threading
import uuid
import zipfile
from collections import OrderedDict
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.exceptions import ConfigurationError

#: Sidecar schema version; bump on incompatible layout changes.
_SIDECAR_VERSION = 1


def _frozen(arrays: Mapping[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Read-only views of *arrays* (the stored copies are never mutated)."""
    frozen = {}
    for name, array in arrays.items():
        view = np.asarray(array).view()
        view.flags.writeable = False
        frozen[name] = view
    return frozen


@dataclass(frozen=True)
class CachedArtifact:
    """One cache entry: named read-only arrays plus JSON-able metadata.

    Attributes:
        arrays: name → read-only ndarray.
        meta: small JSON-serialisable sidecar data (e.g. the captured
            generator state needed to resume the trial's RNG stream
            bit-identically after a cache hit).
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
        disk_bytes: payload + sidecar bytes currently on disk.
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

    @property
    def hit_rate(self) -> float:
        """hits / (hits + misses); 0.0 before any lookup."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict:
        """JSON-able snapshot, including the derived hit rate."""
        out = {f: getattr(self, f) for f in self.__dataclass_fields__}
        out["hit_rate"] = round(self.hit_rate, 6)
        return out


def infer_node_kind(names: list[str], meta: Mapping) -> str:
    """The DAG node kind of an artifact, from its sidecar fields.

    Prefers the explicit ``node_kind`` stamp; falls back to the array
    names of the two unstamped artifact shapes older stores hold
    (``pristine`` and ``corrupted``), and ``"other"`` for anything
    unrecognised.
    """
    kind = meta.get("node_kind")
    if isinstance(kind, str) and kind:
        return kind
    if names == ["pristine"]:
        return "dataset"
    if names == ["corrupted"]:
        return "fault"
    return "other"


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
        # key → payload+sidecar bytes of this instance's view of the disk
        # tier; None until the first disk write seeds it from a survey.
        self._disk_index: dict[str, int] | None = None
        self._disk_bytes = 0
        self._counts = {
            "hits": 0,
            "misses": 0,
            "memory_hits": 0,
            "disk_hits": 0,
            "puts": 0,
            "memory_evictions": 0,
            "disk_evictions": 0,
            "bytes_saved": 0,
        }

    # -- lookups ----------------------------------------------------------

    def get(self, key: str) -> CachedArtifact | None:
        """The artifact stored under *key*, or None on a miss."""
        with self._lock:
            return self._get_locked(key)

    def _get_locked(self, key: str) -> CachedArtifact | None:
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
        """Whether *key* is present and verifiably intact, without loading.

        The DAG scheduler's recovery survey calls this once per node at
        startup: a memory entry counts as present, and a disk
        entry counts only when its sidecar parses, matches this key, and
        the payload's SHA-256 verifies — a torn payload/sidecar pair or
        a crash-corrupted payload reads as absent (and is deleted), so a
        node whose publication was interrupted simply re-runs.  No hit
        or miss counters are touched and nothing is admitted to the
        memory tier, so surveying a thousand-node graph does not distort
        campaign telemetry or churn the LRU order.
        """
        with self._lock:
            if key in self._memory:
                return True
            return self._disk_verify(key)

    def get_or_create(
        self, key: str, factory: Callable[[], CachedArtifact]
    ) -> CachedArtifact:
        """The cached artifact for *key*, producing and storing on miss."""
        artifact = self.get(key)
        if artifact is not None:
            return artifact
        produced = factory()
        if not isinstance(produced, CachedArtifact):
            produced = CachedArtifact.build(produced)
        self.put(key, produced)
        return produced

    def put(self, key: str, artifact: CachedArtifact) -> None:
        """Store *artifact* under *key* in every writable tier."""
        artifact = CachedArtifact(_frozen(artifact.arrays), dict(artifact.meta))
        with self._lock:
            self._counts["puts"] += 1
            self._admit_memory(key, artifact)
            self._disk_write(key, artifact)

    # -- stats / maintenance ----------------------------------------------

    def stats(self) -> CacheStats:
        """Current counters plus tier occupancy."""
        with self._lock:
            n_disk, disk_bytes = self._disk_usage()
            return CacheStats(
                **self._counts,
                n_memory_entries=len(self._memory),
                memory_bytes=self._memory_bytes,
                n_disk_entries=n_disk,
                disk_bytes=disk_bytes,
            )

    def disk_kind_breakdown(self) -> dict[str, dict[str, int]]:
        """Disk-tier occupancy grouped by DAG node kind.

        Returns ``{kind: {"entries": n, "bytes": payload+sidecar bytes}}``
        sorted by descending byte count.  The kind comes from the
        ``node_kind`` the DAG scheduler stamps into each artifact's
        sidecar metadata at publication; older entries that carry no
        stamp are inferred from their array names (``pristine`` →
        dataset, ``corrupted`` → fault), with everything else grouped
        under ``"other"``.  Unreadable sidecars
        are skipped, not deleted — this is a reporting pass, not a
        verification pass.
        """
        breakdown: dict[str, dict[str, int]] = {}
        with self._lock:
            if self.directory is None or not self.directory.is_dir():
                return breakdown
            for sidecar_path in self.directory.glob("*.json"):
                try:
                    sidecar = json.loads(sidecar_path.read_text())
                    size = sidecar_path.stat().st_size
                    size += self._payload_path(sidecar_path.stem).stat().st_size
                except (OSError, json.JSONDecodeError):
                    continue
                kind = infer_node_kind(
                    sidecar.get("names") or [], sidecar.get("meta") or {}
                )
                slot = breakdown.setdefault(kind, {"entries": 0, "bytes": 0})
                slot["entries"] += 1
                slot["bytes"] += size
        return dict(
            sorted(breakdown.items(), key=lambda kv: -kv[1]["bytes"])
        )

    def counters(self) -> dict[str, int]:
        """A snapshot of the raw event counters (no occupancy fields)."""
        with self._lock:
            return dict(self._counts)

    def clear(self) -> None:
        """Drop every entry from the memory and disk tiers."""
        with self._lock:
            self._clear_locked()

    def _clear_locked(self) -> None:
        self._memory.clear()
        self._memory_bytes = 0
        self._disk_index = {}
        self._disk_bytes = 0
        if self.directory is not None and self.directory.is_dir():
            for path in self.directory.iterdir():
                if path.suffix in (".npz", ".json") or ".tmp-" in path.name:
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

    def _payload_path(self, key: str) -> Path:
        assert self.directory is not None
        return self.directory / f"{key}.npz"

    def _sidecar_path(self, key: str) -> Path:
        assert self.directory is not None
        return self.directory / f"{key}.json"

    def _disk_write(self, key: str, artifact: CachedArtifact) -> None:
        if self.directory is None:
            return
        self.directory.mkdir(parents=True, exist_ok=True)
        buffer = io.BytesIO()
        np.savez(buffer, **artifact.arrays)
        payload = buffer.getvalue()
        sidecar = json.dumps(
            {
                "version": _SIDECAR_VERSION,
                "key": key,
                "names": sorted(artifact.arrays),
                "nbytes": artifact.nbytes,
                "payload_sha256": hashlib.sha256(payload).hexdigest(),
                "meta": artifact.meta,
            },
            sort_keys=True,
        ).encode()
        # Unique temp names keep concurrent writers of the same key from
        # trampling each other's half-written files; os.replace publishes
        # each file atomically, and because both writers derived identical
        # content from the same fingerprint, last-writer-wins is harmless.
        token = f".tmp-{os.getpid()}-{uuid.uuid4().hex}"
        payload_tmp = self._payload_path(key).with_name(
            self._payload_path(key).name + token
        )
        sidecar_tmp = self._sidecar_path(key).with_name(
            self._sidecar_path(key).name + token
        )
        try:
            payload_tmp.write_bytes(payload)
            sidecar_tmp.write_bytes(sidecar)
            os.replace(payload_tmp, self._payload_path(key))
            os.replace(sidecar_tmp, self._sidecar_path(key))
        except OSError:
            payload_tmp.unlink(missing_ok=True)
            sidecar_tmp.unlink(missing_ok=True)
            raise
        if self._disk_index is None:
            self._survey_disk()
        size = len(payload) + len(sidecar)
        self._disk_bytes += size - self._disk_index.get(key, 0)
        self._disk_index[key] = size
        if self._disk_bytes > self.max_disk_bytes:
            self._evict_disk()

    def _disk_read(self, key: str) -> CachedArtifact | None:
        if self.directory is None:
            return None
        payload_path = self._payload_path(key)
        sidecar_path = self._sidecar_path(key)
        try:
            sidecar = json.loads(sidecar_path.read_text())
            payload = payload_path.read_bytes()
        except (OSError, json.JSONDecodeError):
            return None
        if (
            sidecar.get("version") != _SIDECAR_VERSION
            or sidecar.get("key") != key
            or sidecar.get("payload_sha256")
            != hashlib.sha256(payload).hexdigest()
        ):
            # Torn pair or crash-corrupted payload: never serve it.
            self._drop_disk_entry(key)
            return None
        try:
            with np.load(io.BytesIO(payload), allow_pickle=False) as npz:
                arrays = {name: npz[name] for name in npz.files}
        except (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile):
            self._drop_disk_entry(key)
            return None
        if sorted(arrays) != sidecar.get("names"):
            self._drop_disk_entry(key)
            return None
        return CachedArtifact.build(arrays, sidecar.get("meta") or {})

    def _disk_verify(self, key: str) -> bool:
        """True when the disk pair for *key* exists and the payload hash
        matches its sidecar; corrupt or torn pairs are deleted."""
        if self.directory is None:
            return False
        try:
            sidecar = json.loads(self._sidecar_path(key).read_text())
            payload = self._payload_path(key).read_bytes()
        except (OSError, json.JSONDecodeError):
            return False
        if (
            sidecar.get("version") != _SIDECAR_VERSION
            or sidecar.get("key") != key
            or sidecar.get("payload_sha256")
            != hashlib.sha256(payload).hexdigest()
        ):
            self._drop_disk_entry(key)
            return False
        return True

    def _drop_disk_entry(self, key: str) -> None:
        self._payload_path(key).unlink(missing_ok=True)
        self._sidecar_path(key).unlink(missing_ok=True)
        if self._disk_index is not None:
            self._disk_bytes -= self._disk_index.pop(key, 0)

    def _disk_entries(self) -> list[tuple[float, int, str]]:
        """(mtime, bytes, key) per committed disk entry, oldest first."""
        if self.directory is None or not self.directory.is_dir():
            return []
        entries = []
        for sidecar_path in self.directory.glob("*.json"):
            key = sidecar_path.stem
            payload_path = self._payload_path(key)
            try:
                stat = payload_path.stat()
                size = stat.st_size + sidecar_path.stat().st_size
            except OSError:
                continue
            entries.append((stat.st_mtime, size, key))
        entries.sort()
        return entries

    def _disk_usage(self) -> tuple[int, int]:
        entries = self._disk_entries()
        return len(entries), sum(size for _, size, _ in entries)

    def _survey_disk(self) -> list[tuple[float, int, str]]:
        """Rebuild the disk index from a directory survey; returns the
        surveyed entries, oldest first."""
        entries = self._disk_entries()
        self._disk_index = {key: size for _, size, key in entries}
        self._disk_bytes = sum(self._disk_index.values())
        return entries

    def _evict_disk(self) -> None:
        # A fresh survey, not the index: other processes' entries and
        # on-disk mtimes decide what goes.  Oldest-first, but the newest
        # entry (just written) always stays.
        for _, _, key in self._survey_disk()[:-1]:
            if self._disk_bytes <= self.max_disk_bytes:
                break
            self._drop_disk_entry(key)
            self._counts["disk_evictions"] += 1
