"""Strategy-equivalence harness, part 4: the Ψ each adaptive mode claims.

* the online Λ autotuner moves Λ under a time-varying Γ step profile
  and ends strictly better than the fixed Λ it started from;
* the coherence-adaptive arm is no worse than the fixed arm at the
  nominal operating Γ, within :data:`ADAPTIVE_TOLERANCE`.
"""

import numpy as np

from repro.config import NGSTConfig, NGSTDatasetConfig
from repro.core.algo_ngst import AlgoNGST
from repro.core.strategies import strategy_arm_config
from repro.data.ngst import generate_walk
from repro.faults import FaultInjector, UncorrelatedFaultModel
from repro.faults.profile import GammaStepProfile
from repro.metrics import psi
from repro.stream import InjectStage, StreamPipeline, SyntheticWalkSource, VoterStage
from repro.stream.autotune_stage import AutotuneVoterStage

#: Relative slack on "adaptive no worse than fixed" at the operating Γ.
#: Two repeats over an 8x8 grid leave Ψ with seed noise of a few
#: percent, so exact no-worse would be brittle; 5% still catches a real
#: regression.  It goes once the adaptive arm is exactly no worse.
ADAPTIVE_TOLERANCE = 0.05

STEP_FRAMES = 512
STEP_PROFILE = GammaStepProfile(base=0.001, elevated=0.08, period=256, duty=0.5)
STARTING_LAMBDA = 50.0


def _step_run(voter):
    source = SyntheticWalkSource(shape=(16,), seed=11, n_frames=STEP_FRAMES)
    inject = InjectStage(UncorrelatedFaultModel(0.001), seed=3, profile=STEP_PROFILE)
    return StreamPipeline(source, [inject, voter], chunk_frames=64).run()


def test_autotuner_beats_its_starting_lambda_on_the_step_profile():
    fixed = _step_run(
        VoterStage(NGSTConfig(sensitivity=STARTING_LAMBDA), stack_frames=32)
    )
    tuner = AutotuneVoterStage(
        NGSTConfig(sensitivity=STARTING_LAMBDA),
        stack_frames=32,
        window_stacks=2,
        interval_stacks=1,
        min_delta=10.0,
        confirm=2,
    )
    autotuned = _step_run(tuner)
    assert tuner.lambda_trajectory, "the tuner never adjusted"
    for record in tuner.lambda_trajectory:
        assert record["old_sensitivity"] != record["new_sensitivity"]
        assert record["frame_index"] >= 0
    assert autotuned.psi_algorithm < fixed.psi_algorithm


def test_adaptive_within_tolerance_of_fixed_at_operating_gamma():
    operating_gamma = 0.001
    n_repeats = 2
    dataset = NGSTDatasetConfig(n_variants=32, sigma=25.0)
    arms = {name: AlgoNGST(strategy_arm_config(name)) for name in ("fixed", "adaptive")}
    sums = dict.fromkeys(arms, 0.0)
    for repeat in range(n_repeats):
        pristine = generate_walk(dataset, np.random.default_rng(1000 + repeat), (8, 8))
        corrupted, _ = FaultInjector(
            UncorrelatedFaultModel(operating_gamma), seed=repeat
        ).inject(pristine)
        for name, algo in arms.items():
            sums[name] += psi(algo(corrupted).corrected, pristine)
    psi_fixed, psi_adaptive = (sums[name] / n_repeats for name in ("fixed", "adaptive"))
    assert psi_adaptive <= psi_fixed * (1 + ADAPTIVE_TOLERANCE) + 1e-12
