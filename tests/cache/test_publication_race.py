"""Cross-process publication races: atomic ``os.replace`` keeps the
store consistent when two *processes* publish the same content key.

The in-process concurrency tests cover thread races; this module forks
real processes against one shared disk directory — the situation two
``repro report`` processes sharing one ``--cache-dir`` create when
both publish the same deterministic artifact at once.  Both must
succeed silently, and the surviving entry must verify.
"""

from __future__ import annotations

import multiprocessing

import numpy as np
import pytest

from repro.cache.store import ArtifactCache, CachedArtifact

KEY = "a" * 64


def _artifact(stamp: int) -> CachedArtifact:
    # Deterministic payload: publications of one content key are
    # bit-identical by construction, exactly like re-run graph nodes.
    return CachedArtifact.build(
        {"values": np.arange(2048, dtype=np.float64)},
        {"kind": "race", "stamp": stamp},
    )


def _publish_many(directory: str, barrier, n_puts: int, error_queue) -> None:
    try:
        cache = ArtifactCache(max_memory_bytes=0, directory=directory)
        barrier.wait(timeout=30)
        for i in range(n_puts):
            cache.put(KEY, _artifact(stamp=7))
    except Exception as exc:  # pragma: no cover - failure reporting
        error_queue.put(f"{type(exc).__name__}: {exc}")


class TestCrossProcessPublicationRace:
    @pytest.mark.parametrize("n_processes", [2, 4])
    def test_concurrent_same_key_publications_all_succeed(
        self, tmp_path, n_processes
    ):
        ctx = multiprocessing.get_context()
        barrier = ctx.Barrier(n_processes)
        errors = ctx.Queue()
        procs = [
            ctx.Process(
                target=_publish_many,
                args=(str(tmp_path), barrier, 25, errors),
            )
            for _ in range(n_processes)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=120)
        assert all(p.exitcode == 0 for p in procs)
        assert errors.empty()
        # The surviving entry is intact and verifies end to end.
        reader = ArtifactCache(max_memory_bytes=0, directory=str(tmp_path))
        assert reader.contains(KEY)
        artifact = reader.get(KEY)
        np.testing.assert_array_equal(
            artifact.arrays["values"], np.arange(2048, dtype=np.float64)
        )
        assert artifact.meta["kind"] == "race"
        # No temp droppings left behind by either publisher.
        assert not list(tmp_path.glob("*.tmp-*"))

    def test_racing_with_reader_never_sees_torn_state(self, tmp_path):
        ctx = multiprocessing.get_context()
        barrier = ctx.Barrier(2)
        errors = ctx.Queue()
        writer = ctx.Process(
            target=_publish_many, args=(str(tmp_path), barrier, 50, errors)
        )
        writer.start()
        barrier.wait(timeout=30)
        reader = ArtifactCache(max_memory_bytes=0, directory=str(tmp_path))
        seen = 0
        while writer.is_alive():
            artifact = reader.get(KEY)
            if artifact is not None:
                seen += 1
                # A visible entry is always the complete publication.
                assert artifact.arrays["values"].shape == (2048,)
        writer.join(timeout=120)
        assert writer.exitcode == 0
        assert errors.empty()
        assert reader.get(KEY) is not None
