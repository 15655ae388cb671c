"""The named centred-window smoother kernels behind ``--smoother``.

The registry behind :class:`~repro.stream.spec.StreamSpec`'s
``smoother`` field, which ``repro stream`` and every ``repro serve``
tenant build their stages from.
"""

from __future__ import annotations

from functools import partial

from repro.baselines.majority import majority_vote_window
from repro.baselines.median import median_smooth_temporal
from repro.baselines.smoothing import (
    bisquare_smooth,
    inverse_square_smooth,
    mean_smooth,
    negative_exponential_smooth,
)
from repro.exceptions import ConfigurationError
from repro.stream.pipeline import WindowedStage

#: Kernel registry: CLI/tenant name -> batch smoothing kernel.
SMOOTHERS = {
    "median": median_smooth_temporal,
    "majority": majority_vote_window,
    "mean": mean_smooth,
    "negexp": negative_exponential_smooth,
    "invsq": inverse_square_smooth,
    "bisquare": bisquare_smooth,
}


def smoother_stage(name: str, window: int) -> WindowedStage:
    """A :class:`WindowedStage` over the named centred-window kernel.

    The stage's name is ``f"{name}{window}"``, the same under the CLI
    and serve.
    """
    if name not in SMOOTHERS:
        raise ConfigurationError(
            f"unknown smoother {name!r}; choose from {sorted(SMOOTHERS)}"
        )
    return WindowedStage(
        partial(SMOOTHERS[name], window=window), window, f"{name}{window}"
    )
