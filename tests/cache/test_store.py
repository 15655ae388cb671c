"""Tests for :class:`repro.cache.ArtifactCache`: LRU tier, disk tier,
atomic publication, corruption handling, and concurrent writers."""

import hashlib
import json
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro.cache import ArtifactCache, CachedArtifact
from repro.exceptions import ConfigurationError


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

    def test_get_or_create_runs_factory_once(self):
        cache = ArtifactCache()
        calls = []

        def factory():
            calls.append(1)
            return _artifact()

        cache.get_or_create("k", factory)
        cache.get_or_create("k", factory)
        assert len(calls) == 1

    def test_bytes_saved_accumulates(self):
        cache = ArtifactCache()
        cache.put("k", _artifact(nbytes=2048))
        cache.get("k")
        cache.get("k")
        assert cache.stats().bytes_saved == 2 * 2048

    def test_hit_rate(self):
        cache = ArtifactCache()
        cache.put("k", _artifact())
        cache.get("k")
        cache.get("absent")
        assert cache.stats().hit_rate == 0.5

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
        """The captured generator state must survive the JSON sidecar,
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
            os.utime(tmp_path / f"{key}.npz", (i + 1, i + 1))
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
    """Payload + sidecar bytes of one :func:`_artifact` stored under a
    key of *key*'s length (the key is part of the sidecar)."""
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
        assert not (store / "k000.npz").exists()
        assert cache._disk_bytes == cache.stats().disk_bytes == 200 * entry

    def test_reopened_store_counts_existing_entries(self, tmp_path):
        entry = _entry_disk_bytes(tmp_path, "a")
        store = tmp_path / "store"
        filler = ArtifactCache(directory=store)
        for i, key in enumerate(("a", "b")):
            filler.put(key, _artifact(fill=i))
            os.utime(store / f"{key}.npz", (i + 1, i + 1))
        reopened = ArtifactCache(directory=store, max_disk_bytes=2 * entry)
        reopened.put("c", _artifact(fill=9))
        assert reopened.counters()["disk_evictions"] == 1
        assert not (store / "a.npz").exists()  # the filler's oldest
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
        os.utime(store / "c.npz", (1, 1))
        cache.put("e", _artifact(fill=5))
        assert surveys["n"] == 1
        assert cache.counters()["disk_evictions"] == 1
        assert not (store / "c.npz").exists()

    @pytest.mark.parametrize("lookup", ["get", "contains"])
    def test_verification_drop_leaves_the_tally(self, tmp_path, surveys, lookup):
        entry = _entry_disk_bytes(tmp_path, "a")
        store = tmp_path / "store"
        cache = ArtifactCache(
            max_memory_bytes=0, directory=store, max_disk_bytes=2 * entry
        )
        cache.put("a", _artifact(fill=1))
        cache.put("b", _artifact(fill=2))
        (store / "b.npz").write_bytes(b"\x00" * 16)
        assert not getattr(cache, lookup)("b")
        assert cache._disk_bytes == entry
        surveys["n"] = 0
        cache.put("c", _artifact(fill=3))  # back at the cap, not over it
        assert surveys["n"] == 0
        assert cache.counters()["disk_evictions"] == 0
        assert cache.contains("a") and cache.contains("c")


class TestCorruption:
    """Crash-mid-write and torn-pair scenarios must read as misses."""

    def _write_one(self, tmp_path, key="k"):
        ArtifactCache(directory=tmp_path).put(key, _artifact(meta={"m": 1}))

    def test_truncated_payload_is_dropped(self, tmp_path):
        self._write_one(tmp_path)
        payload = tmp_path / "k.npz"
        payload.write_bytes(payload.read_bytes()[:-7])
        cache = ArtifactCache(directory=tmp_path)
        assert cache.get("k") is None
        assert not payload.exists()  # corrupt pair deleted, not reserved

    def test_flipped_payload_byte_is_dropped(self, tmp_path):
        self._write_one(tmp_path)
        payload = tmp_path / "k.npz"
        blob = bytearray(payload.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        payload.write_bytes(bytes(blob))
        assert ArtifactCache(directory=tmp_path).get("k") is None

    def test_torn_pair_sidecar_without_payload(self, tmp_path):
        self._write_one(tmp_path)
        (tmp_path / "k.npz").unlink()
        assert ArtifactCache(directory=tmp_path).get("k") is None

    def test_garbage_sidecar_is_dropped(self, tmp_path):
        self._write_one(tmp_path)
        (tmp_path / "k.json").write_text("{not json")
        assert ArtifactCache(directory=tmp_path).get("k") is None

    def test_key_mismatch_is_dropped(self, tmp_path):
        """A sidecar renamed onto the wrong key must not be served."""
        self._write_one(tmp_path, key="a")
        self._write_one(tmp_path, key="b")
        (tmp_path / "a.json").rename(tmp_path / "stolen.json")
        (tmp_path / "a.npz").rename(tmp_path / "stolen.npz")
        assert ArtifactCache(directory=tmp_path).get("stolen") is None

    def test_wrong_sidecar_version_is_dropped(self, tmp_path):
        self._write_one(tmp_path)
        sidecar = tmp_path / "k.json"
        doc = json.loads(sidecar.read_text())
        doc["version"] = 999
        sidecar.write_text(json.dumps(doc))
        assert ArtifactCache(directory=tmp_path).get("k") is None

    def test_hash_valid_non_zip_payload_is_dropped(self, tmp_path):
        """A payload whose sidecar hash matches but which is not a zip
        passes the survey yet must read as a miss, not raise."""
        self._write_one(tmp_path)
        blob = b"PK\x03\x04" + bytes(40)
        (tmp_path / "k.npz").write_bytes(blob)
        sidecar = tmp_path / "k.json"
        doc = json.loads(sidecar.read_text())
        doc["payload_sha256"] = hashlib.sha256(blob).hexdigest()
        sidecar.write_text(json.dumps(doc))
        cache = ArtifactCache(directory=tmp_path)
        assert cache.contains("k")
        assert cache.get("k") is None
        assert not (tmp_path / "k.npz").exists()
        assert not sidecar.exists()

    def test_interrupted_writer_leaves_readable_cache(self, tmp_path):
        """A killed writer's temp files never shadow the committed entry."""
        self._write_one(tmp_path)
        # Simulate a crash mid-write: stale temp files from a dead pid.
        (tmp_path / "k.npz.tmp-999-deadbeef").write_bytes(b"partial")
        (tmp_path / "k.json.tmp-999-deadbeef").write_text("partial")
        got = ArtifactCache(directory=tmp_path).get("k")
        assert got is not None and got.meta == {"m": 1}


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
        (tmp_path / "k.npz").write_bytes(b"\x00" * 16)
        fresh = ArtifactCache(directory=tmp_path)
        assert not fresh.contains("k")

    def test_torn_pair_reads_as_absent(self, tmp_path):
        cache = ArtifactCache(directory=tmp_path)
        cache.put("k", _artifact())
        (tmp_path / "k.json").unlink()
        fresh = ArtifactCache(directory=tmp_path)
        assert not fresh.contains("k")


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

    def test_legacy_entries_fall_back_to_array_names(self, tmp_path):
        from repro.cache.store import infer_node_kind

        assert infer_node_kind(["pristine"], {}) == "dataset"
        assert infer_node_kind(["corrupted"], {}) == "fault"
        assert infer_node_kind(["values"], {}) == "other"
        cache = ArtifactCache(directory=tmp_path)
        cache.put(
            "legacy",
            CachedArtifact.build({"pristine": np.zeros(8)}),
        )
        assert "dataset" in cache.disk_kind_breakdown()

    def test_memory_only_cache_has_empty_breakdown(self):
        cache = ArtifactCache()
        cache.put("k", _artifact())
        assert cache.disk_kind_breakdown() == {}
