"""Tests for :class:`repro.cache.ArtifactCache`: LRU tier, disk tier,
atomic publication, corruption handling, and concurrent writers."""

import hashlib
import json
import multiprocessing
import os
import struct
import tempfile
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.cache import ArtifactCache, CachedArtifact
from repro.cache.store import _decode
from repro.exceptions import ConfigurationError, DataFormatError


def _artifact(nbytes=1024, fill=1, meta=None):
    return CachedArtifact.build(
        {"data": np.full(nbytes // 8, fill, dtype=np.uint64)}, meta or {}
    )


class TestMemoryTier:
    def test_round_trip(self):
        cache = ArtifactCache()
        art = _artifact(meta={"tag": 3})
        cache.put("k", art)
        got = cache.get("k")
        assert got is not None
        assert got.meta == {"tag": 3}
        np.testing.assert_array_equal(got.arrays["data"], art.arrays["data"])

    def test_miss_returns_none_and_counts(self):
        cache = ArtifactCache()
        assert cache.get("absent") is None
        assert cache.stats().misses == 1
        cache.put("k", _artifact())
        cache.get("k")
        assert (cache.stats().hits, cache.stats().misses) == (1, 1)

    def test_entries_are_read_only(self):
        cache = ArtifactCache()
        cache.put("k", _artifact())
        entry = cache.get("k")
        with pytest.raises(ValueError):
            entry.arrays["data"][0] = 99

    def test_put_copies_protect_against_later_mutation(self):
        cache = ArtifactCache()
        source = np.zeros(4, dtype=np.uint64)
        cache.put("k", CachedArtifact.build({"data": source}))
        entry = cache.get("k")
        assert entry.arrays["data"].flags.writeable is False

    def test_lru_eviction_order(self):
        entry_bytes = _artifact().nbytes
        cache = ArtifactCache(max_memory_bytes=entry_bytes * 2)
        cache.put("a", _artifact(fill=1))
        cache.put("b", _artifact(fill=2))
        assert cache.get("a") is not None  # refresh a; b is now LRU
        cache.put("c", _artifact(fill=3))
        assert not cache.contains("b")
        assert cache.contains("a")
        assert cache.contains("c")
        assert cache.stats().memory_evictions == 1

    def test_zero_memory_budget_disables_tier(self):
        cache = ArtifactCache(max_memory_bytes=0)
        cache.put("k", _artifact())
        assert not cache.contains("k")
        assert cache.get("k") is None

    def test_bytes_saved_accumulates(self):
        cache = ArtifactCache()
        cache.put("k", _artifact(nbytes=2048))
        cache.get("k")
        cache.get("k")
        assert cache.stats().bytes_saved == 2 * 2048

    def test_rejects_bad_budgets(self):
        with pytest.raises(ConfigurationError):
            ArtifactCache(max_memory_bytes=-1)
        with pytest.raises(ConfigurationError):
            ArtifactCache(max_disk_bytes=0)


class TestDiskTier:
    def test_round_trip_across_instances(self, tmp_path):
        ArtifactCache(directory=tmp_path).put("k", _artifact(meta={"m": 1}))
        fresh = ArtifactCache(directory=tmp_path)
        got = fresh.get("k")
        assert got is not None and got.meta == {"m": 1}
        assert fresh.stats().disk_hits == 1

    def test_disk_hit_promotes_to_memory(self, tmp_path):
        ArtifactCache(directory=tmp_path).put("k", _artifact())
        fresh = ArtifactCache(directory=tmp_path)
        fresh.get("k")
        assert fresh.stats().n_memory_entries == 1  # memory tier now warm
        fresh.get("k")
        assert fresh.stats().memory_hits == 1

    def test_meta_preserves_rng_state_round_trip(self, tmp_path):
        """The captured generator state must survive the entry header,
        resuming the stream exactly where it was captured."""
        rng = np.random.default_rng(3)
        rng.integers(100)  # advance past the seed state
        state = rng.bit_generator.state
        expected = int(rng.integers(2**31))  # the next draw after capture
        ArtifactCache(directory=tmp_path).put(
            "k", CachedArtifact.build({"d": np.ones(2)}, {"rng_state": state})
        )
        got = ArtifactCache(directory=tmp_path).get("k")
        resumed = np.random.default_rng(0)
        resumed.bit_generator.state = got.meta["rng_state"]
        assert int(resumed.integers(2**31)) == expected

    def test_no_temp_files_left_behind(self, tmp_path):
        cache = ArtifactCache(directory=tmp_path)
        for i in range(4):
            cache.put(f"k{i}", _artifact(fill=i))
        assert not [p for p in tmp_path.iterdir() if ".tmp-" in p.name]

    def test_size_cap_evicts_oldest_first(self, tmp_path):
        probe = ArtifactCache(directory=tmp_path)
        probe.put("probe", _artifact())
        entry_disk_bytes = probe.stats().disk_bytes
        probe.clear()

        cache = ArtifactCache(
            directory=tmp_path, max_disk_bytes=2 * entry_disk_bytes
        )
        for i, key in enumerate(("a", "b", "c")):
            cache.put(key, _artifact(fill=i))
            os.utime(tmp_path / f"{key}.art", (i + 1, i + 1))
        cache.put("d", _artifact(fill=9))
        stats = cache.stats()
        assert stats.disk_evictions >= 1
        assert cache._disk_read("d") is not None  # newest always survives
        assert cache._disk_read("a") is None  # oldest goes first

    def test_tiny_cap_never_evicts_newest(self, tmp_path):
        cache = ArtifactCache(directory=tmp_path, max_disk_bytes=1)
        cache.put("only", _artifact())
        assert ArtifactCache(directory=tmp_path).get("only") is not None

    def test_clear_removes_everything(self, tmp_path):
        cache = ArtifactCache(directory=tmp_path)
        cache.put("a", _artifact())
        cache.put("b", _artifact())
        cache.clear()
        assert cache.stats().n_disk_entries == 0
        assert cache.get("a") is None


def _entry_disk_bytes(tmp_path, key):
    """Entry file bytes of one :func:`_artifact` stored under a key of
    *key*'s length (the key is part of the header)."""
    probe = ArtifactCache(directory=tmp_path / "probe")
    probe.put(key, _artifact())
    return probe.stats().disk_bytes


@pytest.fixture
def surveys(monkeypatch):
    """Counts directory surveys (``_disk_entries`` calls) on every cache."""
    counter = {"n": 0}
    survey = ArtifactCache._disk_entries

    def counting(self):
        counter["n"] += 1
        return survey(self)

    monkeypatch.setattr(ArtifactCache, "_disk_entries", counting)
    return counter


class TestDiskIndex:
    """Puts below the cap cost no directory survey; the byte tally that
    replaces the survey stays equal to what is on disk."""

    def test_puts_under_cap_survey_at_most_once(self, tmp_path, surveys):
        entry = _entry_disk_bytes(tmp_path, "k000")
        store = tmp_path / "store"
        cache = ArtifactCache(directory=store, max_disk_bytes=200 * entry)
        surveys["n"] = 0
        for i in range(200):
            cache.put(f"k{i:03d}", _artifact(fill=i))
        assert surveys["n"] <= 1
        surveys["n"] = 0
        cache.put("k200", _artifact(fill=200))  # crosses the cap
        assert surveys["n"] == 1
        assert cache.counters()["disk_evictions"] == 1
        assert not (store / "k000.art").exists()
        assert cache._disk_bytes == cache.stats().disk_bytes == 200 * entry

    def test_reopened_store_counts_existing_entries(self, tmp_path):
        entry = _entry_disk_bytes(tmp_path, "a")
        store = tmp_path / "store"
        filler = ArtifactCache(directory=store)
        for i, key in enumerate(("a", "b")):
            filler.put(key, _artifact(fill=i))
            os.utime(store / f"{key}.art", (i + 1, i + 1))
        reopened = ArtifactCache(directory=store, max_disk_bytes=2 * entry)
        reopened.put("c", _artifact(fill=9))
        assert reopened.counters()["disk_evictions"] == 1
        assert not (store / "a.art").exists()  # the filler's oldest
        assert reopened.contains("b") and reopened.contains("c")

    def test_rewriting_one_key_is_not_double_counted(self, tmp_path, surveys):
        entry = _entry_disk_bytes(tmp_path, "k")
        store = tmp_path / "store"
        cache = ArtifactCache(directory=store, max_disk_bytes=2 * entry)
        surveys["n"] = 0
        for _ in range(100):
            cache.put("k", _artifact())
        assert surveys["n"] == 1  # the seeding survey only
        assert cache.counters()["disk_evictions"] == 0
        assert cache._disk_bytes == entry

    def test_clear_enforces_cap_from_zero(self, tmp_path, surveys):
        entry = _entry_disk_bytes(tmp_path, "a")
        store = tmp_path / "store"
        cache = ArtifactCache(directory=store, max_disk_bytes=2 * entry)
        cache.put("a", _artifact(fill=1))
        cache.put("b", _artifact(fill=2))
        cache.clear()
        surveys["n"] = 0
        cache.put("c", _artifact(fill=3))
        cache.put("d", _artifact(fill=4))
        assert surveys["n"] == 0
        os.utime(store / "c.art", (1, 1))
        cache.put("e", _artifact(fill=5))
        assert surveys["n"] == 1
        assert cache.counters()["disk_evictions"] == 1
        assert not (store / "c.art").exists()

    @pytest.mark.parametrize("lookup", ["get", "contains"])
    def test_verification_drop_leaves_the_tally(self, tmp_path, surveys, lookup):
        entry = _entry_disk_bytes(tmp_path, "a")
        store = tmp_path / "store"
        cache = ArtifactCache(
            max_memory_bytes=0, directory=store, max_disk_bytes=2 * entry
        )
        cache.put("a", _artifact(fill=1))
        cache.put("b", _artifact(fill=2))
        (store / "b.art").write_bytes(b"\x00" * 16)
        assert not getattr(cache, lookup)("b")
        assert cache._disk_bytes == entry
        surveys["n"] = 0
        cache.put("c", _artifact(fill=3))  # back at the cap, not over it
        assert surveys["n"] == 0
        assert cache.counters()["disk_evictions"] == 0
        assert cache.contains("a") and cache.contains("c")


class TestCorruption:
    """Crash-mid-write and damaged-file scenarios must read as misses."""

    def _write_one(self, tmp_path, key="k"):
        ArtifactCache(directory=tmp_path).put(key, _artifact(meta={"m": 1}))
        return tmp_path / f"{key}.art"

    def test_truncated_payload_is_dropped(self, tmp_path):
        entry = self._write_one(tmp_path)
        entry.write_bytes(entry.read_bytes()[:-7])
        cache = ArtifactCache(directory=tmp_path)
        assert cache.get("k") is None
        assert not entry.exists()  # corrupt entry deleted, not reserved

    def test_flipped_payload_byte_is_dropped(self, tmp_path):
        entry = self._write_one(tmp_path)
        blob = bytearray(entry.read_bytes())
        blob[-8] ^= 0xFF
        entry.write_bytes(bytes(blob))
        assert ArtifactCache(directory=tmp_path).get("k") is None

    def test_file_truncated_inside_header_is_dropped(self, tmp_path):
        entry = self._write_one(tmp_path)
        entry.write_bytes(entry.read_bytes()[:40])
        assert ArtifactCache(directory=tmp_path).get("k") is None
        assert not entry.exists()

    def test_flipped_header_byte_is_dropped(self, tmp_path):
        entry = self._write_one(tmp_path)
        blob = bytearray(entry.read_bytes())
        blob[blob.index(b'"m":1') + 4] ^= 0x01  # meta {"m": 1} -> {"m": 0}
        entry.write_bytes(bytes(blob))
        assert ArtifactCache(directory=tmp_path).get("k") is None
        assert not entry.exists()

    def test_key_mismatch_is_dropped(self, tmp_path):
        """An entry file renamed onto the wrong key must not be served."""
        self._write_one(tmp_path, key="a")
        self._write_one(tmp_path, key="b")
        (tmp_path / "a.art").rename(tmp_path / "stolen.art")
        assert ArtifactCache(directory=tmp_path).get("stolen") is None
        assert not (tmp_path / "stolen.art").exists()

    def test_wrong_version_byte_is_dropped(self, tmp_path):
        entry = self._write_one(tmp_path)
        blob = bytearray(entry.read_bytes())
        blob[8] = 99  # the version byte follows the 8-byte magic
        entry.write_bytes(bytes(blob))
        assert ArtifactCache(directory=tmp_path).get("k") is None
        assert not entry.exists()

    def test_interrupted_writer_leaves_readable_cache(self, tmp_path):
        """A killed writer's temp file never shadows the committed entry."""
        self._write_one(tmp_path)
        # Simulate a crash mid-write: a stale temp file from a dead pid.
        (tmp_path / "k.art.tmp-999-deadbeef").write_bytes(b"partial")
        got = ArtifactCache(directory=tmp_path).get("k")
        assert got is not None and got.meta == {"m": 1}

    def test_old_two_file_layout_reads_as_a_miss(self, tmp_path):
        """``<key>.npz`` + ``<key>.json`` pairs of the earlier layout
        are never read: the entry is a miss and the node re-runs."""
        (tmp_path / "k.npz").write_bytes(b"PK\x03\x04" + bytes(40))
        (tmp_path / "k.json").write_text('{"key": "k", "meta": {}}')
        cache = ArtifactCache(directory=tmp_path)
        assert not cache.contains("k") and cache.get("k") is None
        assert cache.stats().n_disk_entries == 0


def _entry_blob(arrays, meta=None):
    """The bytes of the entry file ``put`` writes for *arrays* under "k"."""
    with tempfile.TemporaryDirectory() as directory:
        ArtifactCache(directory=directory).put(
            "k", CachedArtifact.build(arrays, meta or {})
        )
        return (Path(directory) / "k.art").read_bytes()


_BLOB = _entry_blob(
    {
        "field": np.arange(4096, dtype=np.float64).reshape(64, 64),
        "mask": np.arange(300, dtype=np.uint8),
        "gain": np.array(3.5),
        "ids": np.arange(7, dtype=np.uint16),
    },
    {"node_kind": "score", "rng_state": {"state": 2**70, "inc": 3}},
)
_HEADER_LEN = struct.unpack_from("<I", _BLOB, 9)[0]
_HEADER = json.loads(_BLOB[13 : 13 + _HEADER_LEN])
_BODY = _BLOB[-(-(13 + _HEADER_LEN) // 64) * 64 :]


def _craft(header, body=_BODY, header_len=None):
    """An entry file for *header* and *body* with a valid SHA-256,
    written from the documented layout rather than by the store."""
    raw = json.dumps(
        {**header, "sha256": "0" * 64}, sort_keys=True, separators=(",", ":")
    ).encode()
    prefix = struct.pack(
        "<8sBI", b"REPROART", 1, len(raw) if header_len is None else header_len
    )
    pad = bytes(-(len(prefix) + len(raw)) % 64)
    digest = hashlib.sha256(prefix + raw[:-66] + raw[-2:] + pad + body)
    return prefix + raw[:-66] + digest.hexdigest().encode() + raw[-2:] + pad + body


def _with_array_field(index, field, value):
    table = [list(entry) for entry in _HEADER["arrays"]]
    table[index][field] = value
    return _craft({**_HEADER, "arrays": table})


#: Every phrase a refusal may name, one per check of the decoder.
_FAULTS = (
    "shorter than the prefix", "is not this format", "header length",
    "header is not JSON", "header lacks", "header names key",
    "malformed array entry", "array name", "dtype", "shape", "tile",
    "SHA-256 mismatch",
)


def _truncated(n):
    if n < 13:
        return "shorter than the prefix"
    return "header length" if n < 13 + _HEADER_LEN else "tile"


_array_index = st.integers(0, len(_HEADER["arrays"]) - 1)
_DAMAGE = st.one_of(
    st.integers(0, len(_BLOB) - 1).map(lambda n: (_BLOB[:n], _truncated(n))),
    st.tuples(st.integers(0, len(_BLOB) - 1), st.integers(0, 7)).map(
        lambda at: (
            _BLOB[: at[0]] + bytes([_BLOB[at[0]] ^ (1 << at[1])]) + _BLOB[at[0] + 1 :],
            None,
        )
    ),
    st.sampled_from([len(_BLOB), 64 * 1024 + 1, 2**32 - 1]).map(
        lambda n: (_craft(_HEADER, header_len=n), "header length")
    ),
    st.tuples(_array_index, st.sampled_from(["|O", ">f8", "|V8", "<c16", 8])).map(
        lambda c: (_with_array_field(c[0], 1, c[1]), "dtype")
    ),
    st.tuples(
        _array_index,
        st.sampled_from(
            [[-1], [2**62, 2**62], [2**70], [1.5], ["8"], [True], [1] * 33, 8]
        ),
    ).map(lambda c: (_with_array_field(c[0], 2, c[1]), "shape")),
    st.sampled_from(
        [
            _with_array_field(0, 2, [63, 64]),
            _with_array_field(1, 3, 32768 + 64),
            _with_array_field(3, 3, 33152.0),
            _craft({**_HEADER, "arrays": _HEADER["arrays"] * 2}),
            _craft(_HEADER, _BODY + b"\x00"),
            _craft(_HEADER, _BODY[:-1]),
        ]
    ).map(lambda blob: (blob, "tile")),
    st.just((_craft({**_HEADER, "key": "other"}), "header names key")),
)


class TestHostileFile:
    """Damaged and hostile entry files: every one is a miss, with one
    named fault, and a refused read stays within the file's size."""

    def test_crafted_file_round_trips(self, tmp_path):
        """The documented layout, written independently, is served."""
        assert _craft(_HEADER) == _BLOB
        (tmp_path / "k.art").write_bytes(_craft(_HEADER))
        got = ArtifactCache(directory=tmp_path).get("k")
        assert got.meta["rng_state"]["state"] == 2**70
        np.testing.assert_array_equal(
            got.arrays["field"], np.arange(4096.0).reshape(64, 64)
        )
        for array in got.arrays.values():
            assert not array.flags.writeable and array.flags.aligned

    @seed(2003)
    @settings(max_examples=300, deadline=None, database=None)
    @given(damage=_DAMAGE)
    def test_damaged_file_reads_as_a_miss(self, damage):
        blob, fault = damage
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "k.art"
            path.write_bytes(blob)
            with pytest.raises(DataFormatError) as refused:
                _decode(path, "k")
            message = str(refused.value)
            assert "\n" not in message and message.startswith("artifact file k.art: ")
            assert fault in message if fault else any(f in message for f in _FAULTS)
            cache = ArtifactCache(max_memory_bytes=0, directory=directory)
            assert cache.contains("k") is False and not path.exists()
            path.write_bytes(blob)
            tracemalloc.start()
            try:
                got = cache.get("k")
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert got is None and not path.exists()
            assert peak <= len(blob) + 16 * 1024

    def test_every_truncation_is_a_miss(self, tmp_path):
        blob = _entry_blob({"x": np.arange(40.0)}, {"m": 1})
        path = tmp_path / "k.art"
        cache = ArtifactCache(max_memory_bytes=0, directory=tmp_path)
        for n in range(len(blob)):
            path.write_bytes(blob[:n])
            assert not cache.contains("k")
            path.write_bytes(blob[:n])
            assert cache.get("k") is None and not path.exists()

    @pytest.mark.parametrize(
        "array",
        [np.array([object()]), np.zeros(2, ">f8"), np.zeros(2, "<c16"),
         np.zeros((1,) * 33)],
    )
    def test_put_refuses_what_no_file_may_hold(self, tmp_path, array):
        cache = ArtifactCache(directory=tmp_path)
        with pytest.raises(ConfigurationError, match="cannot store"):
            cache.put("k", CachedArtifact.build({"a": array}))
        with pytest.raises(ConfigurationError, match="not a string"):
            cache.put("k", CachedArtifact.build({3: np.zeros(2)}))
        with pytest.raises(ConfigurationError, match="cap"):
            cache.put("k", CachedArtifact.build({"a": np.zeros(2)}, {"m": "x" * 70000}))
        assert list(tmp_path.iterdir()) == []


def _hammer(args):
    directory, worker = args
    cache = ArtifactCache(directory=directory)
    for i in range(8):
        cache.put("shared", _artifact(fill=7))
        got = cache.get("shared")
        if got is None:
            continue  # another writer mid-replace: a miss is legal
        if int(got.arrays["data"][0]) != 7:
            return f"worker {worker} read torn value"
    return None


class TestConcurrentWriters:
    def test_parallel_same_key_writers_never_serve_torn_data(self, tmp_path):
        """N processes hammering one key: every successful read returns
        a fully committed artifact (last-writer-wins, never a mix)."""
        fork = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(4, mp_context=fork) as pool:
            problems = list(
                pool.map(_hammer, [(str(tmp_path), w) for w in range(4)])
            )
        assert [p for p in problems if p] == []
        final = ArtifactCache(directory=tmp_path).get("shared")
        assert final is not None
        assert int(final.arrays["data"][0]) == 7


class TestContains:
    def test_memory_hit_without_counter_churn(self):
        cache = ArtifactCache()
        cache.put("k", _artifact())
        before = cache.counters()
        assert cache.contains("k")
        assert not cache.contains("missing")
        assert cache.counters() == before

    def test_disk_hit_verifies_without_promotion(self, tmp_path):
        ArtifactCache(directory=tmp_path).put("k", _artifact())
        cache = ArtifactCache(directory=tmp_path)
        assert cache.contains("k")
        assert cache.stats().n_memory_entries == 0

    def test_corrupt_payload_reads_as_absent(self, tmp_path):
        cache = ArtifactCache(directory=tmp_path)
        cache.put("k", _artifact())
        (tmp_path / "k.art").write_bytes(b"\x00" * 16)
        fresh = ArtifactCache(directory=tmp_path)
        assert not fresh.contains("k")

    def test_truncated_file_reads_as_absent(self, tmp_path):
        cache = ArtifactCache(directory=tmp_path)
        cache.put("k", _artifact())
        entry = tmp_path / "k.art"
        entry.write_bytes(entry.read_bytes()[:-1])
        fresh = ArtifactCache(directory=tmp_path)
        assert not fresh.contains("k")
        assert not entry.exists()


class TestKindBreakdown:
    def test_groups_by_stamped_node_kind(self, tmp_path):
        cache = ArtifactCache(directory=tmp_path)
        cache.put("k1", _artifact(meta={"node_kind": "score"}))
        cache.put("k2", _artifact(meta={"node_kind": "score"}))
        cache.put("k3", _artifact(nbytes=4096, meta={"node_kind": "dataset"}))
        breakdown = cache.disk_kind_breakdown()
        assert breakdown["score"]["entries"] == 2
        assert breakdown["dataset"]["entries"] == 1
        assert breakdown["dataset"]["bytes"] > 0

    def test_sorted_by_descending_bytes(self, tmp_path):
        cache = ArtifactCache(directory=tmp_path)
        cache.put("small", _artifact(nbytes=256, meta={"node_kind": "score"}))
        cache.put("big", _artifact(nbytes=8192, meta={"node_kind": "dataset"}))
        assert list(cache.disk_kind_breakdown()) == ["dataset", "score"]

    def test_unstamped_entry_counts_as_other(self, tmp_path):
        cache = ArtifactCache(directory=tmp_path)
        cache.put("unstamped", CachedArtifact.build({"pristine": np.zeros(8)}))
        breakdown = cache.disk_kind_breakdown()
        assert list(breakdown) == ["other"]
        assert breakdown["other"]["entries"] == 1

    def test_memory_only_cache_has_empty_breakdown(self):
        cache = ArtifactCache()
        cache.put("k", _artifact())
        assert cache.disk_kind_breakdown() == {}
