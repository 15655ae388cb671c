"""Motivation experiment — §1's argument, made quantitative.

The classic software-redundancy schemes guard the *computation*:

* ABFT checksums verify a matrix product;
* NVP voting masks version-local failures;

but none of them can help when the *input data* is what got corrupted:
the checksums are computed over the corrupted operands, and all N
versions agree on the same wrong answer.  This experiment runs a
calibration-matrix product over an NGST frame under input bit-flips and
measures, per scheme, the error of the *certified* output — with and
without input preprocessing in front.

Expected shape: the schemes certify wrong outputs at full fault impact
(error tracks the raw input error), while preprocessing cuts the
certified-output error by an order of magnitude; certification rates
stay near 100 % throughout, which is exactly the danger.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.config import NGSTConfig, NGSTDatasetConfig
from repro.core.algo_ngst import AlgoNGST
from repro.data.ngst import generate_walk
from repro.experiments.common import ExperimentResult, seeded_trials
from repro.faults.injector import FaultInjector
from repro.faults.uncorrelated import UncorrelatedFaultModel
from repro.ft.abft import abft_matmul
from repro.ft.nvp import NVPVoter


def _calibration_matrix(size: int) -> np.ndarray:
    """A fixed, well-conditioned flat-field calibration operator."""
    rng = np.random.default_rng(424242)
    return np.eye(size) + 0.01 * rng.standard_normal((size, size))


def _relative_error(observed: np.ndarray, reference: np.ndarray) -> float:
    denom = max(1e-9, float(np.abs(reference).mean()))
    return float(np.abs(observed - reference).mean()) / denom


def run(
    gamma0_grid: Sequence[float] = (0.001, 0.005, 0.01, 0.025, 0.05),
    sensitivity: float = 90.0,
    sigma: float = 25.0,
    n_variants: int = 32,
    side: int = 16,
    n_repeats: int = 3,
    seed: int = 2003,
) -> ExperimentResult:
    """Certified-output error of ABFT / NVP with raw vs preprocessed input.

    Each trial returns ``[error, certified]`` so the certification
    verdicts travel with the trial values.
    """
    result = ExperimentResult(
        experiment_id="motivation",
        title="Input faults defeat computation-level FT (ABFT/NVP)",
        x_label="Gamma0",
        y_label="certified-output relative error",
    )
    calibration = _calibration_matrix(side)
    labels = (
        "ABFT (raw input)",
        "ABFT (preprocessed)",
        "NVP 3-version (raw input)",
        "NVP 3-version (preprocessed)",
    )
    curves: dict[str, list[float]] = {label: [] for label in labels}
    certified = {label: [] for label in ("ABFT", "NVP")}

    for gamma0 in gamma0_grid:

        def one_point(
            rng: np.random.Generator, scheme: str, preprocess: bool
        ) -> list[float]:
            dataset_cfg = NGSTDatasetConfig(n_variants=n_variants, sigma=sigma)
            stack = generate_walk(dataset_cfg, rng, (side, side))
            reference_frame = stack.mean(axis=0)
            reference = reference_frame @ calibration
            injector = FaultInjector(
                UncorrelatedFaultModel(gamma0), seed=int(rng.integers(2**31))
            )
            corrupted, _ = injector.inject(stack)
            if preprocess:
                corrupted = AlgoNGST(NGSTConfig(sensitivity=sensitivity))(
                    corrupted
                ).corrected
            frame = corrupted.astype(np.float64).mean(axis=0)

            if scheme == "abft":
                product, report = abft_matmul(frame, calibration)
                return [
                    _relative_error(product, reference),
                    float(report.consistent),
                ]

            # Three "independently developed" versions of the product.
            versions = [
                lambda x: x @ calibration,
                lambda x: (calibration.T @ x.T).T,
                lambda x: np.einsum("ij,jk->ik", x, calibration),
            ]
            voter = NVPVoter(versions, atol=1e-6)
            outcome = voter.run(frame)
            output = outcome.output if outcome.output is not None else frame
            return [_relative_error(output, reference), float(outcome.agreed)]

        for label, (scheme, pre) in zip(
            labels,
            (("abft", False), ("abft", True), ("nvp", False), ("nvp", True)),
        ):
            trials = seeded_trials(
                lambda rng: one_point(rng, scheme, pre), n_repeats, seed
            )
            curves[label].append(float(np.mean([error for error, _ in trials])))
            certified["ABFT" if scheme == "abft" else "NVP"].extend(
                bool(flag) for _, flag in trials
            )

    for label in labels:
        result.add(label, list(gamma0_grid), curves[label])
    for scheme, verdicts in certified.items():
        rate = float(np.mean(verdicts)) if verdicts else 0.0
        result.note(
            f"{scheme} certified its output in {rate:.0%} of runs — the "
            "schemes cannot see input corruption"
        )
    result.note(f"L={sensitivity}, sigma={sigma}, frame={side}x{side}")
    return result
