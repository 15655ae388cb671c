"""Ablation — spatial vs spectral locality for OTIS (§7.1).

"Our experiments have shown that the former [the spatial locality
model] yields better expediency to our approach than the latter [the
spectral locality model], as spectral correlation falls drastically on
either side of a band of wavelengths."

The spectral variant reuses the temporal machinery of ``Algo_NGST``
with the cube's band axis playing the role of time: each sample is
XOR-paired with its Υ spectral neighbours.  Because the Planck curve
slopes steeply across the 8–12 µm window, spectral neighbours differ
far more than spatial ones, and the voter loses discriminating power —
reproducing the paper's preference for the spatial model.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.config import NGSTConfig, OTISBounds, OTISConfig
from repro.core.algo_ngst import AlgoNGST
from repro.core.algo_otis import AlgoOTIS
from repro.experiments.common import ExperimentResult, averaged
from repro.faults.injector import FaultInjector
from repro.faults.uncorrelated import UncorrelatedFaultModel
from repro.metrics.relative_error import psi
from repro.otis.quantize import decode_dn
from repro.otis.spectrometer import Spectrometer, default_bands


def _scene(side: int, rng: np.random.Generator) -> np.ndarray:
    """A smooth 290 K landscape with mild structure."""
    ys, xs = np.mgrid[0:side, 0:side]
    scene = 290.0 + 5.0 * np.sin(ys / 7.0) * np.cos(xs / 9.0)
    return scene + rng.normal(0.0, 0.4, size=(side, side))


def spectral_preprocess(
    dn_cube: np.ndarray, sensitivity: float, upsilon: int = 4
) -> np.ndarray:
    """Voting along the spectral (band) axis — the §7.1 alternative."""
    algo = AlgoNGST(NGSTConfig(upsilon=upsilon, sensitivity=sensitivity))
    return algo(dn_cube).corrected


def run(
    gamma0_grid: Sequence[float] = (0.005, 0.01, 0.025, 0.05),
    lambdas: Sequence[float] = (40.0, 60.0, 80.0, 100.0),
    n_bands: int = 10,
    side: int = 32,
    n_repeats: int = 3,
    seed: int = 2003,
) -> ExperimentResult:
    """Ψ after spatial vs spectral preprocessing of a sensed DN cube."""
    result = ExperimentResult(
        experiment_id="ablate-locality",
        title="OTIS: spatial vs spectral locality model",
        x_label="Gamma0",
        y_label="avg relative error Psi",
    )
    bands = default_bands(n_bands)
    instrument = Spectrometer(bands)
    labels = ("no-preprocessing", "spatial (Algo_OTIS)", "spectral (band-axis voting)")
    curves: dict[str, list[float]] = {label: [] for label in labels}

    for gamma0 in gamma0_grid:

        def one_point(rng: np.random.Generator, which: str) -> float:
            scene = _scene(side, rng)
            dn = instrument.sense_dn(scene, emissivity=0.97, rng=rng)
            pristine = decode_dn(dn, instrument.dn_scale)
            injector = FaultInjector(
                UncorrelatedFaultModel(gamma0), seed=int(rng.integers(2**31))
            )
            corrupted, _ = injector.inject(dn)
            if which == "none":
                return psi(decode_dn(corrupted, instrument.dn_scale), pristine)
            best = None
            for lam in lambdas:
                if which == "spatial":
                    config = OTISConfig(
                        sensitivity=lam,
                        bounds=OTISBounds(lower=0.0, upper=25.0),
                        dn_scale=instrument.dn_scale,
                    )
                    repaired = AlgoOTIS(config)(corrupted).corrected
                else:
                    repaired = spectral_preprocess(corrupted, lam)
                value = psi(decode_dn(repaired, instrument.dn_scale), pristine)
                best = value if best is None else min(best, value)
            return best

        for label, which in zip(labels, ("none", "spatial", "spectral")):
            curves[label].append(
                averaged(lambda rng: one_point(rng, which), n_repeats, seed)
            )

    for label in labels:
        result.add(label, list(gamma0_grid), curves[label])
    result.note(
        f"{n_bands} bands over 8-12um, {side}x{side} scene, optimum L per point"
    )
    return result
