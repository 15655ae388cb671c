"""StreamSession: ingest/finish vs the batch oracle, durable resume,
output-log replay, and strict checkpoint mismatch."""

import numpy as np
import pytest

from repro.exceptions import CheckpointMismatchError, ServeError
from repro.serve import TenantConfig
from repro.serve.session import StreamSession
from repro.stream import ArraySource, SyntheticWalkSource, read_all, run_batch

TENANT = TenantConfig(
    name="t",
    gamma=0.01,
    inject_seed=2,
    upsilon=4,
    stack_frames=8,
    chunk_frames=16,
    durable=True,
)


def _walk(n_frames, seed=5, shape=(4, 4)):
    return read_all(SyntheticWalkSource(shape, seed=seed, n_frames=n_frames))


def _drive(session, frames, batch=13):
    """Feed every frame through ingest and return the collected outputs."""
    pieces = []
    for i in range(0, frames.shape[0], batch):
        pieces.append(session.ingest(frames[i : i + batch]).outputs)
    result, _, tail = session.finish()
    pieces.append(tail)
    return result, np.concatenate(pieces, axis=0)


class TestIngestFinish:
    def test_matches_batch_oracle(self, tmp_path):
        frames = _walk(80)
        session = StreamSession(TENANT, "s", (4, 4), np.uint16, tmp_path)
        assert session.open() == 0
        result, outputs = _drive(session, frames)
        oracle = run_batch(ArraySource(frames), TENANT.build_stages())
        assert outputs.tobytes() == oracle.output.tobytes()
        assert result.psi_algorithm == oracle.psi_algorithm
        assert result.n_frames_in == 80

    def test_profile_tenant_matches_batch_oracle(self, tmp_path):
        tenant = TenantConfig(
            name="p", gamma=0.001, inject_seed=4, stack_frames=8,
            chunk_frames=16, profile="step:elevated=0.08,period=32,duty=0.5",
        )
        frames = _walk(80)
        session = StreamSession(tenant, "s", (4, 4), np.uint16, tmp_path)
        session.open()
        result, outputs = _drive(session, frames)
        oracle = run_batch(ArraySource(frames), tenant.build_stages())
        assert outputs.tobytes() == oracle.output.tobytes()
        assert result.psi_no_preprocessing == oracle.psi_no_preprocessing
        assert result.psi_algorithm == oracle.psi_algorithm

    def test_clean_finish_deletes_durable_state(self, tmp_path):
        session = StreamSession(TENANT, "s", (4, 4), np.uint16, tmp_path)
        session.open()
        _drive(session, _walk(48))
        assert session.completed
        leftovers = [
            p for p in (tmp_path / TENANT.name).glob("s.*") if p.exists()
        ]
        assert leftovers == []

    def test_non_durable_session_writes_nothing(self, tmp_path):
        tenant = TenantConfig(
            name="t", gamma=0.01, upsilon=4, stack_frames=8,
            chunk_frames=16, durable=False,
        )
        session = StreamSession(tenant, "s", (4, 4), np.uint16, tmp_path)
        session.open()
        session.ingest(_walk(32))
        assert list(tmp_path.rglob("s.*")) == []

    def test_a_message_of_many_chunks_lands_whole(self):
        # 4100 frames in one message: more than the 4096-frame ingest
        # ring every tenant once had, and 257 chunks of 16.
        tenant = TenantConfig(
            name="t", gamma=0.01, inject_seed=2, upsilon=4, stack_frames=8,
            chunk_frames=16, durable=False,
        )
        frames = _walk(4100, shape=(2, 2))
        session = StreamSession(tenant, "s", (2, 2), np.uint16, None)
        session.open()
        ingested = session.ingest(frames)
        assert ingested.received == 4100
        assert ingested.output_start == 0
        result, _, tail = session.finish()
        outputs = np.concatenate([ingested.outputs, tail])
        oracle = run_batch(ArraySource(frames), tenant.build_stages())
        assert outputs.tobytes() == oracle.output.tobytes()
        assert result.psi_no_preprocessing == oracle.psi_no_preprocessing
        assert result.psi_algorithm == oracle.psi_algorithm


class TestDurableResume:
    def test_resume_after_drop_is_byte_identical(self, tmp_path):
        frames = _walk(96, seed=6)
        oracle = run_batch(ArraySource(frames), TENANT.build_stages())

        first = StreamSession(TENANT, "s", (4, 4), np.uint16, tmp_path)
        first.open()
        first.ingest(frames[:50])  # then the connection "dies"

        second = StreamSession(TENANT, "s", (4, 4), np.uint16, tmp_path)
        resume = second.open()
        # The checkpoint lands at the last chunk boundary (48 processed)
        # but preserves the 2 still-buffered frames in the source state,
        # so the producer continues from 50 — no frame is sent twice.
        assert resume == 50
        _, replayed = second.replay_outputs(0)
        pieces = [replayed]
        result, rest = _drive(second, frames[resume:])
        pieces.append(rest)
        outputs = np.concatenate(pieces, axis=0)
        assert outputs.tobytes() == oracle.output.tobytes()
        assert result.psi_algorithm == oracle.psi_algorithm

    def test_replay_outputs_dedupes_by_global_index(self, tmp_path):
        frames = _walk(64, seed=7)
        first = StreamSession(TENANT, "s", (4, 4), np.uint16, tmp_path)
        first.open()
        first.ingest(frames)

        second = StreamSession(TENANT, "s", (4, 4), np.uint16, tmp_path)
        second.open()
        start_all, all_outputs = second.replay_outputs(0)
        assert start_all == 0
        have = all_outputs.shape[0] // 2
        start, suffix = second.replay_outputs(have)
        assert start == have
        assert suffix.tobytes() == all_outputs[have:].tobytes()

    def test_replay_beyond_log_raises(self, tmp_path):
        tenant = TenantConfig(
            name="t", gamma=0.0, upsilon=4, stack_frames=8,
            chunk_frames=16, durable=False,
        )
        session = StreamSession(tenant, "s", (4, 4), np.uint16, None)
        session.open()
        session.ingest(_walk(32))
        with pytest.raises(ServeError, match="no output log"):
            session.replay_outputs(0)

    def test_checkpoint_mismatch_is_strict(self, tmp_path):
        first = StreamSession(TENANT, "s", (4, 4), np.uint16, tmp_path)
        first.open()
        first.ingest(_walk(32))

        retuned = TenantConfig(
            name="t", gamma=0.05, inject_seed=2, upsilon=4,
            stack_frames=8, chunk_frames=16, durable=True,
        )
        second = StreamSession(retuned, "s", (4, 4), np.uint16, tmp_path)
        with pytest.raises(CheckpointMismatchError):
            second.open()


class TestIdentity:
    def test_bad_stream_name_rejected(self):
        for name in ("", "a/b", " padded "):
            with pytest.raises(ServeError):
                StreamSession(TENANT, name, (4, 4), np.uint16, None)

    def test_matches_frame_format(self):
        session = StreamSession(TENANT, "s", (4, 4), np.uint16, None)
        assert session.matches((4, 4), "<u2")
        assert not session.matches((4, 4), np.float32)
        assert not session.matches((8,), np.uint16)

    def test_name_property(self):
        session = StreamSession(TENANT, "s1", (2,), np.uint16, None)
        assert session.name == "t/s1"
