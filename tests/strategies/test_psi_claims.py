"""Strategy-equivalence harness, part 4: the Ψ each adaptive mode claims.

* the online Λ autotuner moves Λ under a time-varying Γ step profile
  and ends strictly better than the fixed Λ it started from;
* the selective arm is gated per Γ₀, with no slack: strictly better
  than the fixed arm at Γ₀ = 0.05 and strictly worse at Γ₀ = 0.005,
  the losing range docs/ADAPTIVE.md reports, both arms at Λ = 50;
* with each arm at its own tuned Λ, selective's one win is gated, again
  with no slack: strictly better than tuned fixed at Γ_ini = 0.15
  (correlated faults), and strictly worse at Γ₀ = 0.05, where its
  Λ = 50 win does not survive tuning.
"""

import numpy as np

from repro.config import CorrelatedFaultConfig, NGSTConfig, NGSTDatasetConfig
from repro.core.algo_ngst import AlgoNGST
from repro.core.strategies import strategy_arm_config
from repro.data.ngst import generate_walk
from repro.faults import CorrelatedFaultModel, FaultInjector, UncorrelatedFaultModel
from repro.faults.profile import GammaStepProfile
from repro.metrics import psi
from repro.stream import InjectStage, StreamPipeline, SyntheticWalkSource, VoterStage
from repro.stream.autotune_stage import AutotuneVoterStage

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


def _mean_psi_fixed_and_selective(gamma0, n_trials=16):
    """Mean Ψ of the fixed and selective arms at the fig2 default size
    (16x16 coordinates, N = 64, σ = 25, Λ = 50) over seeded trials."""
    dataset = NGSTDatasetConfig(n_variants=64, sigma=25.0)
    arms = {name: AlgoNGST(strategy_arm_config(name)) for name in ("fixed", "selective")}
    sums = dict.fromkeys(arms, 0.0)
    for trial in range(n_trials):
        pristine = generate_walk(dataset, np.random.default_rng(1000 + trial), (16, 16))
        corrupted, _ = FaultInjector(
            UncorrelatedFaultModel(gamma0), seed=trial
        ).inject(pristine)
        for name, algo in arms.items():
            sums[name] += psi(algo(corrupted).corrected, pristine)
    return sums["fixed"] / n_trials, sums["selective"] / n_trials


def test_selective_beats_fixed_at_high_gamma():
    psi_fixed, psi_selective = _mean_psi_fixed_and_selective(0.05)
    assert psi_selective < psi_fixed


def test_selective_loses_to_fixed_at_gamma_0_005():
    psi_fixed, psi_selective = _mean_psi_fixed_and_selective(0.005)
    assert psi_selective > psi_fixed


#: The Λ grid each arm is tuned over (docs/ADAPTIVE.md's retest).
TUNING_LAMBDAS = tuple(float(lam) for lam in range(10, 101, 10))


def _tuned_mean_psi(fault_model, n_tune=8, n_score=8):
    """Mean Ψ of the fixed and selective arms, each at its own best Λ.

    Fig. 2/4 default size (16x16 coordinates, N = 64, σ = 25).  Each
    arm's Λ is the grid point with the lowest mean Ψ over the first
    *n_tune* seeded trials; the arm is scored over the next *n_score*.
    """
    dataset = NGSTDatasetConfig(n_variants=64, sigma=25.0)
    fixed = AlgoNGST(NGSTConfig())
    selective = [
        AlgoNGST(strategy_arm_config("selective", sensitivity=lam))
        for lam in TUNING_LAMBDAS
    ]
    rows = {"fixed": [], "selective": []}
    for trial in range(n_tune + n_score):
        pristine = generate_walk(dataset, np.random.default_rng(1000 + trial), (16, 16))
        corrupted, _ = FaultInjector(fault_model, seed=trial).inject(pristine)
        rows["fixed"].append(
            [psi(r.corrected, pristine) for r in fixed.sweep(corrupted, TUNING_LAMBDAS)]
        )
        rows["selective"].append(
            [psi(algo(corrupted).corrected, pristine) for algo in selective]
        )
    means = {}
    for name, table in rows.items():
        table = np.asarray(table)
        best = int(np.argmin(table[:n_tune].mean(axis=0)))
        means[name] = float(table[n_tune:, best].mean())
    return means["fixed"], means["selective"]


def test_tuned_selective_beats_tuned_fixed_at_gamma_ini_0_15():
    psi_fixed, psi_selective = _tuned_mean_psi(
        CorrelatedFaultModel(CorrelatedFaultConfig(gamma_ini=0.15))
    )
    assert psi_selective < psi_fixed


def test_tuned_selective_loses_to_tuned_fixed_at_gamma_0_05():
    psi_fixed, psi_selective = _tuned_mean_psi(UncorrelatedFaultModel(0.05))
    assert psi_selective > psi_fixed
