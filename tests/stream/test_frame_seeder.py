"""FrameSeeder against frame_rng, its per-frame oracle.

The seeder reproduces numpy's SeedSequence → PCG64 seeding for a chunk
of frames at once; every Generator it yields must have exactly the
state, and so exactly the draws, of ``frame_rng(seed, index)``.  Seeds
wider than the 4-word pool and frame indices with a two-word spawn key
(2³² and above) take separate branches of numpy's mixing and are
covered explicitly.
"""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import NGSTConfig
from repro.exceptions import ConfigurationError
from repro.faults import UncorrelatedFaultModel
from repro.ngst.downlink import ARQDownlink, DownlinkConfig
from repro.stream import (
    ArraySource,
    AutotuneVoterStage,
    DownlinkSource,
    FrameSeeder,
    InjectStage,
    SyntheticWalkSource,
    frame_rng,
    read_all,
)

SEEDS = [0, 1, 2003, 2**32 - 1, 2**32, 2**64 + 5, 2**128 + 3]
STARTS = [0, 5000, 2**32 - 40, 2**32 - 3, 2**32, 2**40 + 7, 2**64 - 64]


def _assert_matches_frame_rng(seeder, seed, start, k):
    seen = 0
    for j, rng in enumerate(seeder.generators(start, k)):
        oracle = frame_rng(seed, start + j)
        assert rng.bit_generator.state == oracle.bit_generator.state, (seed, start, j)
        assert rng.random(3).tobytes() == oracle.random(3).tobytes()
        assert rng.integers(0, 2**63, 2).tolist() == oracle.integers(0, 2**63, 2).tolist()
        seen += 1
    assert seen == k


class TestMatchesFrameRng:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("start", STARTS)
    @pytest.mark.parametrize("k", [0, 1, 7, 64])
    def test_grid(self, seed, start, k):
        _assert_matches_frame_rng(FrameSeeder(seed), seed, start, k)

    def test_block_boundary_of_a_long_run(self):
        # Longer than one seeding block; spot-check across the seam.
        seeder = FrameSeeder(11)
        for j, rng in enumerate(seeder.generators(2**32 - 1500, 2100)):
            if j % 97 == 0 or 1020 <= j <= 1030:
                assert rng.bit_generator.state == frame_rng(11, 2**32 - 1500 + j).bit_generator.state

    def test_one_seeder_serves_any_order_of_chunks(self):
        seeder = FrameSeeder(9)
        for start, k in [(100, 3), (0, 2), (2**33, 1), (100, 3)]:
            _assert_matches_frame_rng(seeder, 9, start, k)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.one_of(st.integers(0, 2**32), st.integers(0, 2**300)),
        start=st.one_of(
            st.integers(0, 2**20),
            st.integers(2**32 - 10, 2**32 + 10),
            st.integers(0, 2**64 - 9),
        ),
        k=st.integers(0, 8),
    )
    def test_property(self, seed, start, k):
        _assert_matches_frame_rng(FrameSeeder(seed), seed, start, k)


class TestRefusals:
    def test_negative_seed(self):
        with pytest.raises(ConfigurationError, match="non-negative"):
            FrameSeeder(-1)

    def test_index_beyond_64_bits(self):
        seeder = FrameSeeder(0)
        with pytest.raises(ConfigurationError, match="2\\*\\*64"):
            next(seeder.generators(2**64 - 1, 2))
        with pytest.raises(ConfigurationError):
            next(seeder.generators(-1, 1))

    @pytest.mark.parametrize(
        "build",
        [
            lambda: SyntheticWalkSource((4,), seed=-1),
            lambda: InjectStage(UncorrelatedFaultModel(0.01), seed=-3),
            lambda: DownlinkSource(ArraySource(np.zeros((2, 4), np.uint16)), seed=-2),
            lambda: AutotuneVoterStage(NGSTConfig(), stack_frames=8, autotune_seed=-4),
        ],
        ids=["walk", "inject", "downlink", "autotune"],
    )
    def test_stages_and_sources_refuse_a_negative_seed_at_construction(self, build):
        with pytest.raises(ConfigurationError, match="must be a non-negative integer"):
            build()


class TestDownlinkMatchesPerFrameChannel:
    def test_each_frame_uses_its_frame_rng_channel(self):
        config = DownlinkConfig(payload_bytes=16)
        frames = read_all(SyntheticWalkSource((24,), seed=4, n_frames=40))
        source = DownlinkSource(ArraySource(frames), config=config, seed=8)
        received = np.concatenate([source.read(k) for k in (1, 9, 30)])
        expected = np.stack([
            np.frombuffer(
                ARQDownlink(config, seed=frame_rng(8, i)).transmit(frame.tobytes()).delivered,
                dtype=frames.dtype,
            )
            for i, frame in enumerate(frames)
        ])
        assert received.tobytes() == expected.tobytes()


class TestStagesOnThreads:
    def test_concurrent_stages_match_serial(self):
        # Each stage owns its seeder, so streams on a thread pool (as in
        # repro serve) cannot reseed one another's Generator.
        frames = read_all(SyntheticWalkSource((16,), seed=1, n_frames=96))

        def run(seed):
            stage = InjectStage(UncorrelatedFaultModel(0.05), seed=seed)
            return np.concatenate([stage.process(frames[i : i + 5]) for i in range(0, 96, 5)])

        serial = {seed: run(seed) for seed in range(6)}
        results = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=lambda s=seed: results.__setitem__(s, run(s)))
                for seed in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        for seed, expected in serial.items():
            assert results[seed].tobytes() == expected.tobytes()
