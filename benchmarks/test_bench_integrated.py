"""Bench for the §9 overhead claim — integrated vs layered preprocessing.

The claim is a wall-clock comparison, so it runs here rather than in the
unit suite: on a shared host whose vCPUs change speed in spells, a 2%
bound on a timing ratio fails now and then however the timing is taken.
The science-output equality of the two paths stays in
``tests/ngst/test_integrated.py``.
"""

import gc
import time

import numpy as np
import pytest

from benchmarks.e2e.speed import kernel_s
from repro.config import NGSTConfig
from repro.faults.injector import FaultInjector
from repro.faults.uncorrelated import UncorrelatedFaultModel
from repro.ngst.integrated import integrated_run, layered_run, make_transport
from repro.ngst.ramp import RampModel

#: Timed calls of each callable per comparison.
REPEATS = 25


@pytest.fixture(scope="module")
def transport_world():
    rng = np.random.default_rng(31)
    ramp = RampModel(n_readouts=16, read_noise=8.0)
    flux = rng.uniform(0.5, 4.0, size=(48, 48))
    stack = ramp.generate(flux, rng)
    corrupted, _ = FaultInjector(UncorrelatedFaultModel(0.01), seed=2).inject(stack)
    return ramp, flux, make_transport(corrupted)


def best_of_interleaved(first, second, repeats):
    """Best-of-*repeats* times of two callables, timed in alternation.

    Each round times one call of each, so a slow spell on a shared host
    lands on both callables instead of on one timing block.  The order
    within a round alternates too, so neither callable always runs in
    the other's wake.  Each call's time is divided by the mean of two
    host-speed references (:func:`benchmarks.e2e.speed.kernel_s`) taken
    just before and just after it, so a call that falls in a slow spell
    is not read as a slow call.  The results are therefore in units of
    the reference kernel, and only their ratio means anything.  One
    untimed warm-up call each precedes the rounds and the cyclic garbage
    collector is paused while they run.
    """
    first()
    second()
    best = [float("inf"), float("inf")]
    gc.collect()
    gc.disable()
    try:
        for round_index in range(repeats):
            order = (0, 1) if round_index % 2 == 0 else (1, 0)
            for index in order:
                fn = (first, second)[index]
                before = kernel_s()
                start = time.perf_counter()
                fn()
                elapsed = time.perf_counter() - start
                reference = (before + kernel_s()) / 2
                best[index] = min(best[index], elapsed / reference)
    finally:
        gc.enable()
    return best


def _layered_and_integrated_s(benchmark, blob, ramp, config):
    return benchmark.pedantic(
        lambda: best_of_interleaved(
            lambda: layered_run(blob, ramp, config),
            lambda: integrated_run(blob, ramp, config),
            repeats=REPEATS,
        ),
        rounds=1,
        iterations=1,
    )


def test_bench_integrated_no_slower_at_full_sensitivity(benchmark, transport_world):
    """At Λ > 0 the algorithm dominates; integration must not cost."""
    ramp, _, blob = transport_world
    layered_s, integrated_s = _layered_and_integrated_s(
        benchmark, blob, ramp, NGSTConfig(sensitivity=80)
    )
    assert integrated_s < layered_s * 1.10


def test_bench_integrated_faster_at_header_only(benchmark, transport_world):
    """§9: integration lowers the overhead — at Λ = 0 the separate
    layer's FITS re-encode/decode round-trip is the dominant cost,
    and the integrated path skips it entirely."""
    ramp, _, blob = transport_world
    layered_s, integrated_s = _layered_and_integrated_s(
        benchmark, blob, ramp, NGSTConfig(sensitivity=0)
    )
    # A small tolerance: the structural saving must show through
    # scheduler noise.
    assert integrated_s < layered_s * 1.02
