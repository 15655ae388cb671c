"""Frame sources: chunk invariance, exact resume, file replay, downlink."""

import gc
import io
import warnings

import numpy as np
import pytest

from repro.config import NGSTDatasetConfig
from repro.data import generate_walk
from repro.exceptions import ConfigurationError, DataFormatError
from repro.stream.source import (
    ArraySource,
    DownlinkSource,
    SyntheticWalkSource,
    frame_rng,
    read_all,
)


class TestFrameRng:
    def test_matches_spawn_tree_children(self):
        root = np.random.SeedSequence(1234)
        children = root.spawn(3)
        for i, child in enumerate(children):
            direct = frame_rng(1234, i).integers(0, 2**32, 8)
            spawned = np.random.default_rng(child).integers(0, 2**32, 8)
            np.testing.assert_array_equal(direct, spawned)


class TestSyntheticWalkSource:
    def test_chunk_invariance(self):
        whole = read_all(SyntheticWalkSource(shape=(6,), seed=3, n_frames=97))
        src = SyntheticWalkSource(shape=(6,), seed=3, n_frames=97)
        pieces = []
        for k in (1, 2, 3, 50, 100, 100):
            chunk = src.read(k)
            if chunk.shape[0]:
                pieces.append(chunk)
        np.testing.assert_array_equal(whole, np.concatenate(pieces, axis=0))

    def test_statistics_match_batch_generator(self):
        # Same Eq. (1) recursion as generate_walk: clipped uint16 frames
        # around the configured initial value.
        config = NGSTDatasetConfig()
        frames = read_all(
            SyntheticWalkSource(shape=(), config=config, seed=0, n_frames=200)
        )
        assert frames.dtype == np.uint16
        assert int(frames[0]) == config.initial_value
        batch = generate_walk(config, np.random.default_rng(0), shape=())
        assert abs(float(frames.mean()) - float(np.mean(batch))) < 20 * config.sigma

    def test_state_round_trip_resumes_exactly(self):
        src = SyntheticWalkSource(shape=(4,), seed=9, n_frames=60)
        head = src.read(25)
        state = src.state_dict()
        rest = src.read(60)

        clone = SyntheticWalkSource(shape=(4,), seed=9, n_frames=60)
        clone.load_state(state)
        np.testing.assert_array_equal(clone.read(60), rest)
        assert head.shape[0] == 25

    def test_exhaustion_and_validation(self):
        src = SyntheticWalkSource(n_frames=3)
        assert src.read(10).shape[0] == 3
        assert src.read(10).shape[0] == 0
        with pytest.raises(ConfigurationError):
            src.read(0)
        with pytest.raises(ConfigurationError):
            SyntheticWalkSource(n_frames=0)


def _npy_bytes():
    """A 10-frame uint16 stack as ``.npy`` file bytes."""
    buffer = io.BytesIO()
    np.save(buffer, np.arange(40, dtype=np.uint16).reshape(10, 4))
    return buffer.getvalue()


class TestArraySource:
    def test_replay_in_memory(self):
        data = np.arange(24, dtype=np.uint16).reshape(8, 3)
        src = ArraySource(data)
        np.testing.assert_array_equal(read_all(src), data)

    def test_npy_replay_is_memory_mapped(self, tmp_path):
        data = np.arange(40, dtype=np.uint16).reshape(10, 4)
        path = tmp_path / "frames.npy"
        np.save(path, data)
        src = ArraySource.from_file(path)
        np.testing.assert_array_equal(read_all(src), data)

    def test_npz_replay_by_key(self, tmp_path):
        data = np.arange(12, dtype=np.uint16).reshape(4, 3)
        path = tmp_path / "frames.npz"
        np.savez(path, stack=data)
        src = ArraySource.from_file(path, key="stack")
        np.testing.assert_array_equal(read_all(src), data)
        with pytest.raises(DataFormatError):
            ArraySource.from_file(path, key="missing")

    @pytest.mark.parametrize(
        "name, write, reason",
        [
            pytest.param(
                "frames.npy",
                lambda p: p.write_bytes(_npy_bytes()[:-7]),
                "mmap length is greater than file size",
                id="truncated-npy",
            ),
            pytest.param(
                "frames.npy",
                lambda p: p.write_bytes(b""),
                "not a .npy file (no NumPy magic)",
                id="empty-npy",
            ),
            pytest.param(
                "frames.npy",
                lambda p: p.write_bytes(b"not a numpy file\n" * 8),
                "not a .npy file (no NumPy magic)",
                id="not-numpy",
            ),
            pytest.param(
                "frames.npy",
                lambda p: np.save(p, np.array([{}, None], dtype=object)),
                "Python objects in dtype",
                id="object-npy",
            ),
            pytest.param(
                "frames.npz",
                lambda p: np.savez(p, frames=np.array([{}, None], dtype=object)),
                "Object arrays cannot be loaded",
                id="object-npz",
            ),
            pytest.param(
                "frames.npz",
                lambda p: p.write_bytes(b"PK\x03\x04" + b"\x00" * 40),
                "not a zip file",
                id="not-a-zip",
            ),
        ],
    )
    def test_damaged_file_is_one_line_data_format_error(
        self, tmp_path, name, write, reason
    ):
        path = tmp_path / name
        write(path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with pytest.raises(DataFormatError) as excinfo:
                ArraySource.from_file(path)
            message = str(excinfo.value)
            # The error's context holds the loader's frames; drop it so
            # a handle left open is finalised, and warns, right here.
            del excinfo
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
        assert message.startswith(f"cannot load {path}: ")
        assert reason in message
        assert "\n" not in message

    def test_scalar_input_rejected(self):
        with pytest.raises(DataFormatError):
            ArraySource(np.uint16(7))

    def test_state_round_trip(self):
        data = np.arange(10, dtype=np.uint16)
        src = ArraySource(data)
        src.read(4)
        clone = ArraySource(data)
        clone.load_state(src.state_dict())
        np.testing.assert_array_equal(clone.read(10), data[4:])


class TestDownlinkSource:
    def test_chunk_invariance_through_the_channel(self):
        def make():
            return DownlinkSource(
                SyntheticWalkSource(shape=(16,), seed=2, n_frames=12), seed=5
            )

        whole = read_all(make())
        src = make()
        pieces = [src.read(5) for _ in range(4)]
        got = np.concatenate([p for p in pieces if p.shape[0]], axis=0)
        np.testing.assert_array_equal(whole, got)
        assert src.n_transmissions >= 12  # at least one packet per frame

    def test_state_round_trip_resumes_exactly(self):
        src = DownlinkSource(
            SyntheticWalkSource(shape=(8,), seed=4, n_frames=10), seed=6
        )
        src.read(4)
        state = src.state_dict()
        rest = src.read(10)

        clone = DownlinkSource(
            SyntheticWalkSource(shape=(8,), seed=4, n_frames=10), seed=6
        )
        clone.load_state(state)
        np.testing.assert_array_equal(clone.read(10), rest)
        assert clone.n_transmissions == src.n_transmissions
