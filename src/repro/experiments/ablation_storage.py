"""Ablation — OTIS storage representation: 16-bit DN vs raw float32.

§7.1 says OTIS data "is stored in the form of simple 32-bit floating
point representation", yet §8's error levels (~12 % at Γ₀ = 0.05) are
only reachable if faults strike a fixed-point encoding: a bit-flip in a
float32 *exponent* multiplies the value by up to 2±¹²⁸, so raw-float
storage yields astronomically larger input errors.  DESIGN.md §2
therefore substitutes a 16-bit DN detector encoding as the fault
surface.  This ablation quantifies that decision on both
representations, with per-element relative error capped at 10⁶ so the
float panel stays printable.

Expected shape: float32 raw error is orders of magnitude above DN raw
error at every Γ₀; preprocessing (bounds screen + voter) tames both,
and the bounds screen does most of the work on floats (non-finite and
out-of-range values are unmissable).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.config import OTISConfig
from repro.core.algo_otis import AlgoOTIS
from repro.data.otis import make_dataset
from repro.experiments.common import ExperimentResult, averaged
from repro.faults.injector import FaultInjector
from repro.faults.uncorrelated import UncorrelatedFaultModel
from repro.metrics.relative_error import psi
from repro.otis.quantize import decode_dn, encode_dn


def run(
    gamma0_grid: Sequence[float] = (0.005, 0.01, 0.025, 0.05),
    sensitivity: float = 60.0,
    rows: int = 48,
    cols: int = 48,
    n_repeats: int = 3,
    seed: int = 2003,
) -> ExperimentResult:
    """Ψ under each storage representation, raw and preprocessed."""
    result = ExperimentResult(
        experiment_id="ablate-storage",
        title="OTIS storage: 16-bit DN vs raw float32 as the fault surface",
        x_label="Gamma0",
        y_label="avg relative error Psi (capped at 1e6/element)",
    )
    labels = (
        "DN raw",
        "DN + Algo_OTIS",
        "float32 raw",
        "float32 + Algo_OTIS",
    )
    curves: dict[str, list[float]] = {label: [] for label in labels}

    for gamma0 in gamma0_grid:

        def one_point(rng: np.random.Generator, which: str) -> float:
            field = make_dataset("blob", rows, cols, rng)
            injector = FaultInjector(
                UncorrelatedFaultModel(gamma0), seed=int(rng.integers(2**31))
            )
            if which.startswith("dn"):
                dn = encode_dn(field)
                pristine = decode_dn(dn)
                corrupted, _ = injector.inject(dn)
                if which == "dn-raw":
                    return psi(decode_dn(corrupted), pristine)
                repaired = AlgoOTIS(OTISConfig(sensitivity=sensitivity))(
                    corrupted
                ).corrected
                return psi(decode_dn(repaired), pristine)
            corrupted, _ = injector.inject(field)
            if which == "f32-raw":
                return psi(corrupted, field)
            repaired = AlgoOTIS(OTISConfig(sensitivity=sensitivity))(
                corrupted
            ).corrected
            return psi(repaired, field)

        for label, which in zip(
            labels, ("dn-raw", "dn-algo", "f32-raw", "f32-algo")
        ):
            curves[label].append(
                averaged(lambda rng: one_point(rng, which), n_repeats, seed)
            )

    for label in labels:
        result.add(label, list(gamma0_grid), curves[label])
    result.note(
        "per-element relative error capped at 1e6 (float exponent flips "
        "otherwise overflow the mean); see DESIGN.md S2"
    )
    return result
