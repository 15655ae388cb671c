"""Figure 1 — the CR-rejection system architecture, exercised.

Figure 1 is a diagram, not a measurement: a master node fragments each
1024×1024 exposure into 128×128 segments for 15 slave workers over a
Myrinet-class network.  This experiment *runs* that architecture on the
discrete-event substrate and reports its operating characteristics —
makespan, slave utilisation and network volume — as the worker count
scales, with and without slave-side preprocessing.

Expected shape: makespan falls with workers until the master's fan-out
serialisation dominates; preprocessing adds a bounded, Λ-dependent
increment that the slack slave CPU absorbs (§2.1).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.config import NGSTConfig
from repro.core.preprocessor import NGSTPreprocessor
from repro.experiments.common import ExperimentResult
from repro.ngst.cluster import ClusterConfig, CRRejectionPipeline
from repro.ngst.ramp import RampModel


def run(
    n_slaves_grid: Sequence[int] = (1, 2, 4, 8, 15),
    sensitivity: float = 80.0,
    frame_side: int = 256,
    tile: int = 64,
    n_readouts: int = 16,
    seed: int = 2003,
) -> ExperimentResult:
    """Makespan vs worker count, with/without preprocessing."""
    rng = np.random.default_rng(seed)
    ramp = RampModel(n_readouts=n_readouts)
    flux = rng.uniform(1.0, 10.0, size=(frame_side, frame_side))
    stack = ramp.generate(flux, rng)

    result = ExperimentResult(
        experiment_id="fig1",
        title="Figure 1 architecture: makespan vs worker count",
        x_label="n_slaves",
        y_label="simulated makespan (s)",
    )
    plain_curve, pre_curve, util_curve = [], [], []
    static_het, dynamic_het = [], []
    for n_slaves in n_slaves_grid:
        cluster = ClusterConfig(n_slaves=n_slaves, tile=tile)
        plain = CRRejectionPipeline(ramp, cluster).run(stack)
        pre = CRRejectionPipeline(
            ramp, cluster, NGSTPreprocessor(NGSTConfig(sensitivity=sensitivity))
        ).run(stack)
        plain_curve.append(plain.makespan_s)
        pre_curve.append(pre.makespan_s)
        util_curve.append(plain.slave_utilisation)
        # Heterogeneous COTS nodes: the scheduling discipline matters.
        for curve, scheduling in ((static_het, "static"), (dynamic_het, "dynamic")):
            cfg = ClusterConfig(
                n_slaves=n_slaves,
                tile=tile,
                scheduling=scheduling,
                node_speed_spread=0.5,
                failure_seed=seed,
            )
            curve.append(CRRejectionPipeline(ramp, cfg).run(stack).makespan_s)
    xs = [float(n) for n in n_slaves_grid]
    result.add("no preprocessing", xs, plain_curve)
    result.add(f"with Algo_NGST (L={int(sensitivity)})", xs, pre_curve)
    result.add("slave utilisation (no prep)", xs, util_curve)
    result.add("heterogeneous, static sched", xs, static_het)
    result.add("heterogeneous, dynamic sched", xs, dynamic_het)
    result.note(
        f"{frame_side}x{frame_side} frame, {tile}x{tile} fragments, "
        f"N={n_readouts} readouts, Myrinet-class network; heterogeneous "
        f"rows use lognormal(0.5) node speeds"
    )
    return result
