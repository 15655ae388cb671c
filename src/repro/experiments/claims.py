"""Machine-checkable reproduction claims.

EXPERIMENTS.md records paper-vs-measured verdicts as prose; this module
encodes each verdict as an executable check over the result panels, so
a full regeneration (``repro report --json results.json``) can be verified
mechanically (``repro claims --json results.json``).  A claim failing
after a code change means the change altered a reproduced shape.

Checks are written against the *default full-scale* panels; running
them on ``--quick`` output will usually fail on missing grid points.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

from repro.exceptions import ConfigurationError
from repro.experiments.common import ExperimentResult

Panels = dict[str, ExperimentResult]


@dataclass(frozen=True)
class Claim:
    """One executable reproduction claim."""

    claim_id: str
    description: str
    panel_ids: tuple[str, ...]
    check: Callable[[Panels], bool]


@dataclass(frozen=True)
class ClaimVerdict:
    claim_id: str
    description: str
    passed: bool
    detail: str = ""


def _y_at(panel: ExperimentResult, label: str, x: float) -> float:
    series = panel.series_by_label(label)
    for xx, yy in zip(series.x, series.y):
        if abs(xx - x) <= 1e-12:
            return yy
    raise KeyError(f"{panel.experiment_id}/{label}: no x={x}")


def _best_algo_ngst(panel: ExperimentResult, x: float) -> float:
    values = [
        _y_at(panel, s.label, x)
        for s in panel.series
        if s.label.startswith("Algo_NGST")
    ]
    if not values:
        raise KeyError("no Algo_NGST series")
    return min(values)


def _check_fig2_gain(panels: Panels) -> bool:
    panel = panels["fig2"]
    for gamma0 in (0.005, 0.01):
        if _best_algo_ngst(panel, gamma0) > _y_at(panel, "no-preprocessing", gamma0) / 10:
            return False
    return True


def _check_fig2_lambda_crossover(panels: Panels) -> bool:
    """Low Γ₀ favours a low Λ; moderate Γ₀ favours a high Λ."""
    panel = panels["fig2"]
    lows = [s for s in panel.series if s.label.startswith("Algo_NGST")]

    def optimum_lambda(x):
        best = min(lows, key=lambda s: _y_at(panel, s.label, x))
        return float(best.label.split("=")[1])

    return optimum_lambda(0.0005) < optimum_lambda(0.025)


def _check_fig3_overhead(panels: Panels) -> bool:
    algo = panels["fig3"].series_by_label("Algo_NGST")
    return algo.y[0] < algo.y[-1] / 10 and algo.y[-1] > algo.y[1]


def _check_fig4_ordering(panels: Panels) -> bool:
    panel = panels["fig4"]
    for gamma_ini in (0.005, 0.01, 0.025):
        algo = _y_at(panel, "Algo_NGST (opt L)", gamma_ini)
        if algo >= _y_at(panel, "median-w3", gamma_ini):
            return False
        if algo >= _y_at(panel, "majority-w3", gamma_ini):
            return False
    return True


def _check_fig5_wins(panels: Panels) -> bool:
    panel = panels["fig5"]
    raw = panel.series_by_label("no-preprocessing")
    algo = panel.series_by_label("Algo_NGST (opt L)")
    return all(a < r for a, r in zip(algo.y, raw.y))


def _check_fig6_crossover(panels: Panels) -> bool:
    panel = panels["fig6-sigma250"]
    u4_low = _y_at(panel, "upsilon=4", 0.001)
    u6_low = _y_at(panel, "upsilon=6", 0.001)
    u4_high = _y_at(panel, "upsilon=4", 0.04)
    u6_high = _y_at(panel, "upsilon=6", 0.04)
    return u6_low < u4_low and u4_high < u6_high


def _check_fig6_sigma0(panels: Panels) -> bool:
    panel = panels["fig6-sigma0"]
    return _y_at(panel, "upsilon=4", 0.01) <= _y_at(panel, "upsilon=2", 0.01)


def _check_fig7_raw_level(panels: Panels) -> bool:
    return all(
        0.05 < _y_at(panels[f"fig7-{name}"], "no-preprocessing", 0.05) < 0.25
        for name in ("blob", "stripe", "spots")
    )


def _check_fig7_below_one_percent(panels: Panels) -> bool:
    return _y_at(panels["fig7-blob"], "Algo_OTIS (opt L)", 0.05) < 0.01


def _check_fig7_ordering(panels: Panels) -> bool:
    for name in ("blob", "stripe", "spots"):
        panel = panels[f"fig7-{name}"]
        algo = _y_at(panel, "Algo_OTIS (opt L)", 0.025)
        if algo >= _y_at(panel, "median-3x3", 0.025):
            return False
        if algo >= _y_at(panel, "majority-3", 0.025):
            return False
    return True


def _check_fig8_morphology(panels: Panels) -> bool:
    panel = panels["fig8"]
    std = panel.series_by_label("std")
    concentration = panel.series_by_label("centre-band concentration")
    blob_i, stripe_i, spots_i = 0, 1, 2
    return (
        std.y[spots_i] > std.y[stripe_i] > std.y[blob_i]
        and concentration.y[stripe_i] > 3 * concentration.y[spots_i]
    )


def _check_fig9_breakdown(panels: Panels) -> bool:
    for name in ("blob", "stripe", "spots"):
        pseudo = panels[f"fig9-{name}"].series_by_label(
            "Algo_OTIS pseudo-corr fraction"
        )
        low = _y_at(panels[f"fig9-{name}"], "Algo_OTIS pseudo-corr fraction", 0.1)
        high = _y_at(panels[f"fig9-{name}"], "Algo_OTIS pseudo-corr fraction", 0.4)
        if not (high > 1.5 * low and high > 0.3):
            return False
    return True


def _check_layout_transit(panels: Panels) -> bool:
    panel = panels["ablate-layout-transit"]
    pixel = panel.series_by_label("pixel-major + Algo_NGST")
    inter = panel.series_by_label("interleaved + Algo_NGST")
    return all(i < p / 3 for i, p in zip(inter.y, pixel.y))


def _check_locality(panels: Panels) -> bool:
    panel = panels["ablate-locality"]
    spatial = panel.series_by_label("spatial (Algo_OTIS)")
    spectral = panel.series_by_label("spectral (band-axis voting)")
    return all(sp < sc for sp, sc in zip(spatial.y, spectral.y))


def _check_motivation(panels: Panels) -> bool:
    panel = panels["motivation"]
    raw = panel.series_by_label("ABFT (raw input)")
    pre = panel.series_by_label("ABFT (preprocessed)")
    return all(p < r for p, r in zip(pre.y, raw.y)) and any(
        "100%" in note for note in panel.notes
    )


def _check_storage(panels: Panels) -> bool:
    panel = panels["ablate-storage"]
    dn_raw = panel.series_by_label("DN raw")
    f32_raw = panel.series_by_label("float32 raw")
    dn_algo = panel.series_by_label("DN + Algo_OTIS")
    return all(f > 100 * d for f, d in zip(f32_raw.y, dn_raw.y)) and all(
        a < r for a, r in zip(dn_algo.y, dn_raw.y)
    )


def _check_compression(panels: Panels) -> bool:
    panel = panels["compression"]
    clean = panel.series_by_label("clean reference")
    corrupted = panel.series_by_label("corrupted")
    preprocessed = panel.series_by_label("preprocessed")
    return corrupted.y[-1] < clean.y[-1] * 0.95 and preprocessed.y[-1] > corrupted.y[-1]


def _check_fig1_scaling(panels: Panels) -> bool:
    panel = panels["fig1"]
    plain = panel.series_by_label("no preprocessing")
    pre = [s for s in panel.series if s.label.startswith("with Algo_NGST")][0]
    return plain.y[-1] < plain.y[0] and all(
        p > n for p, n in zip(pre.y, plain.y)
    )


CLAIMS: tuple[Claim, ...] = (
    Claim("fig1-scaling", "cluster scales with workers; preprocessing costs bounded time", ("fig1",), _check_fig1_scaling),
    Claim("fig2-gain", ">=10x Psi reduction at practical Gamma0", ("fig2",), _check_fig2_gain),
    Claim("fig2-lambda-crossover", "optimum Lambda grows with Gamma0", ("fig2",), _check_fig2_lambda_crossover),
    Claim("fig3-overhead", "overhead ~0 at Lambda=0, grows with Lambda", ("fig3",), _check_fig3_overhead),
    Claim("fig4-ordering", "Algo_NGST beats both smoothers under correlated faults (Gamma_ini<=0.025)", ("fig4",), _check_fig4_ordering),
    Claim("fig5-wins", "preprocessing wins across the intensity gamut", ("fig5",), _check_fig5_wins),
    Claim("fig6-sigma0", "calm data: more neighbours never hurt", ("fig6-sigma0",), _check_fig6_sigma0),
    Claim("fig6-crossover", "Upsilon 4/6 optimality crossover near Gamma0~0.04 at sigma=250", ("fig6-sigma250",), _check_fig6_crossover),
    Claim("fig7-raw-level", "OTIS raw error ~12% at Gamma0=0.05", ("fig7-blob", "fig7-stripe", "fig7-spots"), _check_fig7_raw_level),
    Claim("fig7-below-1pct", "preprocessed Blob below 1% at Gamma0=0.05", ("fig7-blob",), _check_fig7_below_one_percent),
    Claim("fig7-ordering", "Algo_OTIS beats both baselines at Gamma0=0.025 on all datasets", ("fig7-blob", "fig7-stripe", "fig7-spots"), _check_fig7_ordering),
    Claim("fig8-morphology", "Blob/Stripe/Spots morphologies as published", ("fig8",), _check_fig8_morphology),
    Claim("fig9-breakdown", "pseudo-corrections take over past Gamma_ini~0.2", ("fig9-blob", "fig9-stripe", "fig9-spots"), _check_fig9_breakdown),
    Claim("layout-transit", "interleaving defeats transit bursts (S8)", ("ablate-layout-transit",), _check_layout_transit),
    Claim("locality", "spatial beats spectral locality (S7.1)", ("ablate-locality",), _check_locality),
    Claim("motivation", "ABFT/NVP certify wrong outputs; preprocessing fixes inputs (S1)", ("motivation",), _check_motivation),
    Claim("compression", "faults cost compression ratio; preprocessing recovers it (S2)", ("compression",), _check_compression),
    Claim("storage", "raw-float32 fault surface contradicts S8 error levels (DESIGN S2)", ("ablate-storage",), _check_storage),
)


def verify_claims(panels: Sequence[ExperimentResult]) -> list[ClaimVerdict]:
    """Evaluate every claim against the given panels."""
    by_id = {p.experiment_id: p for p in panels}
    verdicts = []
    for claim in CLAIMS:
        missing = [pid for pid in claim.panel_ids if pid not in by_id]
        if missing:
            verdicts.append(
                ClaimVerdict(
                    claim.claim_id,
                    claim.description,
                    passed=False,
                    detail=f"missing panels: {missing}",
                )
            )
            continue
        try:
            passed = bool(claim.check(by_id))
            detail = "" if passed else "check returned False"
        except (KeyError, IndexError, ValueError) as exc:
            passed = False
            detail = f"panel incomplete: {exc}"
        verdicts.append(
            ClaimVerdict(claim.claim_id, claim.description, passed, detail)
        )
    return verdicts


def render_verdicts(verdicts: Sequence[ClaimVerdict]) -> str:
    """ASCII report of the claim verdicts."""
    if not verdicts:
        raise ConfigurationError("no verdicts to render")
    lines = []
    for verdict in verdicts:
        mark = "PASS" if verdict.passed else "FAIL"
        line = f"[{mark}] {verdict.claim_id:<22} {verdict.description}"
        if verdict.detail:
            line += f"  ({verdict.detail})"
        lines.append(line)
    n_pass = sum(v.passed for v in verdicts)
    lines.append(f"-- {n_pass}/{len(verdicts)} claims reproduced --")
    return "\n".join(lines)
