"""Figure 8 — the three OTIS datasets, characterised.

Figure 8 displays the "Blob", "Stripe" and "Spots" fields themselves.
A table can't show pictures, so this experiment regenerates the figure
as the morphological statistics that motivated the paper's selection
(§7.3): overall variability, how concentrated the turbulence is, and
how far the extremes reach — verifying that our synthetic stand-ins
have the published characteristics.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.data.otis import DATASET_NAMES, make_dataset
from repro.experiments.common import ExperimentResult, seeded_trials


def _centre_band_concentration(field: np.ndarray) -> float:
    """Std of the central vertical band over the std of the flanks.

    ≫ 1 means the turbulence is concentrated in the centre (Stripe's
    signature); ≈ 1 means it is spread out.
    """
    cols = field.shape[1]
    lo, hi = cols // 2 - cols // 8, cols // 2 + cols // 8
    centre = field[:, lo:hi].std()
    flanks = np.concatenate([field[:, : cols // 4], field[:, -cols // 4 :]], axis=1).std()
    return float(centre / max(flanks, 1e-9))


def run(
    datasets: Sequence[str] = DATASET_NAMES,
    rows: int = 64,
    cols: int = 64,
    n_repeats: int = 5,
    seed: int = 2003,
) -> ExperimentResult:
    """Morphology statistics per dataset (x axis indexes the datasets)."""
    result = ExperimentResult(
        experiment_id="fig8",
        title="OTIS dataset morphologies (Blob / Stripe / Spots)",
        x_label="dataset#",
        y_label="per-statistic (see labels)",
    )
    stats: dict[str, list[float]] = {
        "std": [],
        "centre-band concentration": [],
        "extreme span": [],
        "deviant pixel fraction": [],
    }
    stat_keys = tuple(stats)
    for name in datasets:

        def one_field(rng: np.random.Generator) -> list[float]:
            field = make_dataset(name, rows, cols, rng).astype(np.float64)
            median = np.median(field)
            return [
                float(field.std()),
                _centre_band_concentration(field),
                float(field.max() - field.min()),
                float(np.mean(np.abs(field - median) > 10.0)),
            ]

        trials = seeded_trials(one_field, n_repeats, seed)
        for key, column in zip(stat_keys, zip(*trials)):
            stats[key].append(float(np.mean(column)))
    xs = list(range(1, len(datasets) + 1))
    for key, values in stats.items():
        result.add(key, [float(x) for x in xs], values)
    result.note("dataset# " + ", ".join(f"{i + 1}={n}" for i, n in enumerate(datasets)))
    result.note(
        "expected: Stripe max centre-band concentration; Spots max overall "
        "std (more turbulent than Stripe but spread out); Blob flattest (§7.3)"
    )
    return result
