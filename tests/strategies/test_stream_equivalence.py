"""Strategy-equivalence harness, part 3: streams, chunks, kills, resumes.

The selective strategy and the online autotuner must honour every
invariant the fixed stream path holds:

* chunk-invariance — any transport chunk size produces the same bytes;
* stream ≡ batch — the streamed output equals ``run_batch`` on the same
  source, including the online autotuner (whose ``batch()`` replays the
  Λ trajectory from stack zero);
* kill/resume — interrupting at any chunk boundary and resuming from
  the checkpoint reproduces the uninterrupted run bit for bit, with the
  tuner's window/streak/trajectory restored mid-flight;
* fingerprints — strategy and tuner knobs are part of the checkpoint
  fingerprint (a changed config must refuse to resume), while default
  knobs keep the historical fingerprint so old checkpoints still load.
"""

import numpy as np
import pytest

from repro.config import NGSTConfig
from repro.faults import UncorrelatedFaultModel
from repro.faults.profile import GammaStepProfile
from repro.stream import (
    InjectStage,
    StreamCheckpoint,
    StreamPipeline,
    SyntheticWalkSource,
    VoterStage,
    run_batch,
)
from repro.stream.autotune_stage import AutotuneVoterStage

N_FRAMES = 512
CHUNKS = (1, 7, 64)
PROFILE = GammaStepProfile(base=0.001, elevated=0.08, period=256, duty=0.5)


def make_source():
    return SyntheticWalkSource(shape=(16,), seed=11, n_frames=N_FRAMES)


def selective_stages():
    return [
        InjectStage(UncorrelatedFaultModel(0.01), seed=3),
        VoterStage(
            NGSTConfig(strategy="selective", margin=2, header_rows=1),
            stack_frames=32,
        ),
    ]


def autotune_stages(frozen=False):
    return [
        InjectStage(UncorrelatedFaultModel(0.001), seed=3, profile=PROFILE),
        AutotuneVoterStage(
            NGSTConfig(sensitivity=50.0),
            stack_frames=32,
            window_stacks=2,
            interval_stacks=1,
            min_delta=10.0,
            confirm=2,
            frozen=frozen,
        ),
    ]


STAGE_BUILDERS = {
    "selective": selective_stages,
    "autotune": autotune_stages,
}


def collect(stage_list, chunk, checkpoint=None, limit_chunks=None):
    outs = []
    pipeline = StreamPipeline(
        make_source(),
        stage_list,
        chunk_frames=chunk,
        sink=lambda c: outs.append(np.array(c, copy=True)),
        checkpoint=checkpoint,
    )
    if checkpoint is not None:
        pipeline.resume()
    result = pipeline.run(limit_chunks=limit_chunks)
    data = np.concatenate(outs) if outs else np.empty((0, 16), np.uint16)
    return data, result


class TestChunkInvariance:
    @pytest.mark.parametrize("kind", sorted(STAGE_BUILDERS))
    def test_all_chunk_sizes_agree(self, kind):
        build = STAGE_BUILDERS[kind]
        reference, ref_result = collect(build(), CHUNKS[-1])
        for chunk in CHUNKS[:-1]:
            data, result = collect(build(), chunk)
            assert data.tobytes() == reference.tobytes(), (kind, chunk)
            assert result.psi_algorithm == ref_result.psi_algorithm

    def test_autotuner_trajectory_is_chunk_invariant(self):
        trajectories = []
        for chunk in CHUNKS:
            stages = autotune_stages()
            collect(stages, chunk)
            trajectories.append(stages[1].lambda_trajectory)
        assert trajectories[0], "profile must actually move Lambda"
        assert trajectories[0] == trajectories[1] == trajectories[2]


class TestStreamMatchesBatch:
    @pytest.mark.parametrize("kind", sorted(STAGE_BUILDERS))
    def test_streamed_bytes_equal_batch(self, kind):
        build = STAGE_BUILDERS[kind]
        streamed, result = collect(build(), 7)
        batch = run_batch(make_source(), build())
        assert streamed.tobytes() == batch.output.tobytes()
        assert result.psi_algorithm == batch.psi_algorithm

    def test_frozen_autotuner_is_a_plain_voter_stage(self):
        frozen, _ = collect(autotune_stages(frozen=True), 64)
        plain = [
            InjectStage(UncorrelatedFaultModel(0.001), seed=3, profile=PROFILE),
            VoterStage(NGSTConfig(sensitivity=50.0), stack_frames=32),
        ]
        reference, _ = collect(plain, 64)
        assert frozen.tobytes() == reference.tobytes()


class TestKillResume:
    @pytest.mark.parametrize("kind", sorted(STAGE_BUILDERS))
    @pytest.mark.parametrize("kill_at", [2, 5])
    def test_resumed_run_is_bit_identical(self, tmp_path, kind, kill_at):
        build = STAGE_BUILDERS[kind]
        reference, ref_result = collect(build(), 48)
        ck = StreamCheckpoint(tmp_path / f"{kind}-{kill_at}.jsonl")
        first, first_result = collect(
            build(), 48, checkpoint=ck, limit_chunks=kill_at
        )
        assert not first_result.completed
        rest, rest_result = collect(build(), 48, checkpoint=ck)
        assert rest_result.completed
        combined = np.concatenate([first, rest])
        assert combined.tobytes() == reference.tobytes()
        assert rest_result.psi_algorithm == ref_result.psi_algorithm

    def test_autotuner_state_round_trips_through_checkpoint(self):
        stages = autotune_stages()
        collect(stages, 64)
        tuner = stages[1]
        assert tuner.lambda_trajectory
        state = tuner.state_dict()
        clone = autotune_stages()[1]
        clone.load_state(state)
        assert clone.current_sensitivity == tuner.current_sensitivity
        assert clone.lambda_trajectory == tuner.lambda_trajectory
        assert len(clone._window) == len(tuner._window)
        for mine, theirs in zip(clone._window, tuner._window):
            assert mine.tobytes() == theirs.tobytes()


class TestFingerprints:
    def test_default_strategy_keeps_historical_fingerprint(self):
        # The literal string checkpoints have carried since before
        # strategies existed; any change orphans every fixed checkpoint.
        stage = VoterStage(NGSTConfig(), stack_frames=32)
        assert stage.describe() == (
            "algo_ngst[N=32](upsilon=4, sensitivity=50.0, per_coord=True)"
        )

    @pytest.mark.parametrize(
        "config",
        [
            NGSTConfig(strategy="selective"),
            NGSTConfig(strategy="selective", margin=2),
            NGSTConfig(strategy="selective", science_fast=True),
        ],
    )
    def test_strategy_knobs_change_the_fingerprint(self, config):
        default = VoterStage(NGSTConfig(), stack_frames=32).describe()
        changed = VoterStage(config, stack_frames=32).describe()
        assert changed != default
        assert "strategy" in changed

    def test_autotuner_knobs_are_fingerprinted(self):
        base = autotune_stages()[1].describe()
        assert "+autotune(" in base
        different = AutotuneVoterStage(
            NGSTConfig(sensitivity=50.0),
            stack_frames=32,
            window_stacks=3,
            min_delta=10.0,
        ).describe()
        assert different != base

    def test_profiled_injection_is_fingerprinted(self):
        plain = InjectStage(UncorrelatedFaultModel(0.001), seed=3)
        profiled = InjectStage(
            UncorrelatedFaultModel(0.001), seed=3, profile=PROFILE
        )
        assert "+profile(" not in plain.describe()
        assert PROFILE.describe() in profiled.describe()
