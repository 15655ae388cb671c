"""One ArtifactCache, many asyncio tasks, one process.

The serve layer shares a single cache between worker-pool threads
driven from the event loop, so the disk tier must tolerate concurrent
``get`` / ``put`` / ``stats`` calls racing in one process.
(Cross-*process* disk-tier races are covered in test_store.py; this is
the in-process, thread-offloaded shape ``repro serve`` produces.)
"""

import asyncio

import numpy as np

from repro.cache import ArtifactCache, CachedArtifact


def _make(key: str) -> CachedArtifact:
    seed = sum(key.encode())
    return CachedArtifact.build(
        {"data": np.random.default_rng(seed).integers(0, 2**16, 256)},
        {"key": key},
    )


def _get_or_put(cache: ArtifactCache, key: str) -> CachedArtifact:
    """The cached artifact for *key*, made and stored on a miss.  The
    lookup and the store are separate locked calls, so two threads may
    both miss and both put the same content."""
    artifact = cache.get(key)
    if artifact is None:
        artifact = _make(key)
        cache.put(key, artifact)
    return artifact


async def _hammer(cache: ArtifactCache, keys, rounds: int):
    """Every round races a get, and on a miss a put, for each key across
    threads."""

    async def one(key):
        artifact = await asyncio.to_thread(_get_or_put, cache, key)
        return key, artifact.arrays["data"].tobytes()

    seen = {}
    for _ in range(rounds):
        for key, payload in await asyncio.gather(*(one(k) for k in keys)):
            seen.setdefault(key, payload)
            assert seen[key] == payload, f"{key} changed between reads"
    return seen


class TestAsyncConcurrency:
    def test_concurrent_get_or_create_on_disk_tier(self, tmp_path):
        cache = ArtifactCache(max_memory_bytes=0, directory=tmp_path)
        keys = [f"artifact-{i}" for i in range(12)]
        seen = asyncio.run(_hammer(cache, keys, rounds=6))
        # Every key always resolved to one stable payload...
        assert set(seen) == set(keys)
        for key in keys:
            again = cache.get(key)
            assert again is not None
            assert again.arrays["data"].tobytes() == seen[key]
        # ...and after the first round, reads were disk hits.
        stats = cache.stats()
        assert stats.disk_hits > 0
        assert stats.n_disk_entries == len(keys)

    def test_memory_tier_under_concurrent_promotion(self, tmp_path):
        entry_bytes = _make("probe").nbytes
        cache = ArtifactCache(
            max_memory_bytes=entry_bytes * 4, directory=tmp_path
        )
        keys = [f"hot-{i}" for i in range(16)]  # 4x the memory tier
        seen = asyncio.run(_hammer(cache, keys, rounds=5))
        assert set(seen) == set(keys)
        stats = cache.stats()
        # Constant eviction pressure, yet the books still balance.
        assert stats.memory_evictions > 0
        assert stats.n_memory_entries <= 4
        assert stats.n_disk_entries == len(keys)

    def test_stats_scrape_races_with_writers(self, tmp_path):
        cache = ArtifactCache(directory=tmp_path)

        async def scenario():
            async def writer(i):
                await asyncio.to_thread(_get_or_put, cache, f"w-{i}")

            async def scraper():
                for _ in range(20):
                    snapshot = await asyncio.to_thread(cache.stats)
                    assert snapshot.puts >= 0
                    await asyncio.sleep(0)

            await asyncio.gather(*(writer(i) for i in range(20)), scraper())

        asyncio.run(scenario())
        assert cache.stats().puts == 20
