"""Bench for the §9 overhead claim — integrated vs layered preprocessing.

The claim is a wall-clock comparison, so it runs here rather than in the
unit suite.  It is gated on a paired statistic: each round times one
call of each path back to back, and the gate is the median over
:data:`ROUNDS` rounds of the per-round ratio integrated/layered.  A
slow spell on a shared host lands on both calls of a round and cancels
in its ratio, so no host-speed reference is needed, and the median
ignores the rounds a spell splits.  The science-output equality of the
two paths stays in ``tests/ngst/test_integrated.py``.
"""

import gc
import time

import numpy as np
import pytest

from repro.config import NGSTConfig
from repro.faults.injector import FaultInjector
from repro.faults.uncorrelated import UncorrelatedFaultModel
from repro.ngst.integrated import integrated_run, layered_run, make_transport
from repro.ngst.ramp import RampModel

#: Paired rounds per comparison.  Odd, so the median is one round's
#: ratio.  The gate fails only when 21 or more of the 41 rounds are
#: slower.  If integration is slower in a share p = 0.18 of rounds,
#: above the share measured at Λ = 0 (docs/PERFORMANCE.md), that has
#: probability 1.5e-6.
ROUNDS = 41


@pytest.fixture(scope="module")
def transport_world():
    rng = np.random.default_rng(31)
    ramp = RampModel(n_readouts=16, read_noise=8.0)
    flux = rng.uniform(0.5, 4.0, size=(48, 48))
    stack = ramp.generate(flux, rng)
    corrupted, _ = FaultInjector(UncorrelatedFaultModel(0.01), seed=2).inject(stack)
    return ramp, flux, make_transport(corrupted)


def paired_ratios(first, second, rounds):
    """Per-round time ratios *second* / *first* of two callables.

    Each round times one call of each.  The order within a round
    alternates, so neither callable always runs in the other's wake.
    One untimed warm-up call each precedes the rounds and the cyclic
    garbage collector is paused while they run.
    """
    first()
    second()
    ratios = np.empty(rounds)
    gc.collect()
    gc.disable()
    try:
        for round_index in range(rounds):
            elapsed = [0.0, 0.0]
            order = (0, 1) if round_index % 2 == 0 else (1, 0)
            for index in order:
                fn = (first, second)[index]
                start = time.perf_counter()
                fn()
                elapsed[index] = time.perf_counter() - start
            ratios[round_index] = elapsed[1] / elapsed[0]
    finally:
        gc.enable()
    return ratios


def _median_integrated_over_layered(benchmark, blob, ramp, config):
    ratios = benchmark.pedantic(
        lambda: paired_ratios(
            lambda: layered_run(blob, ramp, config),
            lambda: integrated_run(blob, ramp, config),
            rounds=ROUNDS,
        ),
        rounds=1,
        iterations=1,
    )
    p5, median, p95 = np.percentile(ratios, [5, 50, 95])
    benchmark.extra_info.update(
        ratio_p5=p5, ratio_median=median, ratio_p95=p95,
        integrated_faster=float(np.mean(ratios < 1.0)),
    )
    return median


def test_bench_integrated_no_slower_at_full_sensitivity(benchmark, transport_world):
    """At Λ > 0 the algorithm dominates; integration must not cost."""
    ramp, _, blob = transport_world
    median = _median_integrated_over_layered(
        benchmark, blob, ramp, NGSTConfig(sensitivity=80)
    )
    assert median < 1.0, f"median integrated/layered ratio {median:.3f}"


def test_bench_integrated_faster_at_header_only(benchmark, transport_world):
    """§9: integration lowers the overhead — at Λ = 0 the separate
    layer's FITS re-encode/decode round-trip is the dominant cost,
    and the integrated path skips it entirely."""
    ramp, _, blob = transport_world
    median = _median_integrated_over_layered(
        benchmark, blob, ramp, NGSTConfig(sensitivity=0)
    )
    assert median < 1.0, f"median integrated/layered ratio {median:.3f}"
