"""Tests for the §9 integrated-preprocessing architecture."""

import gc
import time

import numpy as np
import pytest

from repro.config import NGSTConfig
from repro.exceptions import HeaderSanityError
from repro.faults.injector import FaultInjector
from repro.faults.uncorrelated import UncorrelatedFaultModel
from repro.ngst.integrated import integrated_run, layered_run, make_transport
from repro.ngst.ramp import RampModel

#: Timed calls of each callable in :class:`TestOverheadClaim`.
REPEATS = 25


@pytest.fixture(scope="module")
def transport_world():
    rng = np.random.default_rng(31)
    ramp = RampModel(n_readouts=16, read_noise=8.0)
    flux = rng.uniform(0.5, 4.0, size=(48, 48))
    stack = ramp.generate(flux, rng)
    corrupted, _ = FaultInjector(UncorrelatedFaultModel(0.01), seed=2).inject(stack)
    return ramp, flux, make_transport(corrupted)


class TestEquivalence:
    def test_same_science_output(self, transport_world):
        ramp, flux, blob = transport_world
        config = NGSTConfig(sensitivity=80)
        layered = layered_run(blob, ramp, config)
        integrated = integrated_run(blob, ramp, config)
        assert np.allclose(layered, integrated.flux)

    def test_corrections_reported(self, transport_world):
        ramp, _, blob = transport_world
        result = integrated_run(blob, ramp, NGSTConfig(sensitivity=80))
        assert result.n_pixels_corrected > 0

    def test_zero_sensitivity_header_only(self, transport_world):
        ramp, _, blob = transport_world
        result = integrated_run(blob, ramp, NGSTConfig(sensitivity=0))
        assert result.n_pixels_corrected == 0
        assert result.flux.shape == (48, 48)

    def test_header_repair_inside_application(self, transport_world):
        ramp, _, blob = transport_world
        damaged = bytearray(blob)
        damaged[80] |= 0x80  # keyword byte of card 2
        result = integrated_run(bytes(damaged), ramp, NGSTConfig(sensitivity=80))
        assert result.n_header_repairs >= 1

    def test_unrecoverable_header_raises(self, transport_world):
        ramp, _, blob = transport_world
        destroyed = blob[:2880].replace(b"END", b"XXX") + blob[2880:]
        with pytest.raises(HeaderSanityError):
            integrated_run(destroyed, ramp, NGSTConfig(sensitivity=80))


def best_of_interleaved(first, second, repeats):
    """Best-of-*repeats* seconds of two callables, timed in alternation.

    Each round times one call of each, so a slow spell on a shared host
    lands on both callables instead of on one timing block.  The order
    within a round alternates too, so neither callable always runs in
    the other's wake.  One untimed warm-up call each precedes the rounds
    and the cyclic garbage collector is paused while they run.
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
                start = time.perf_counter()
                fn()
                best[index] = min(best[index], time.perf_counter() - start)
    finally:
        gc.enable()
    return best


class TestOverheadClaim:
    def test_integrated_no_slower_at_full_sensitivity(self, transport_world):
        """At Λ > 0 the algorithm dominates; integration must not cost."""
        ramp, _, blob = transport_world
        config = NGSTConfig(sensitivity=80)
        layered_s, integrated_s = best_of_interleaved(
            lambda: layered_run(blob, ramp, config),
            lambda: integrated_run(blob, ramp, config),
            repeats=REPEATS,
        )
        assert integrated_s < layered_s * 1.10

    def test_integrated_faster_at_header_only(self, transport_world):
        """§9: integration lowers the overhead — at Λ = 0 the separate
        layer's FITS re-encode/decode round-trip is the dominant cost,
        and the integrated path skips it entirely."""
        ramp, _, blob = transport_world
        config = NGSTConfig(sensitivity=0)
        layered_s, integrated_s = best_of_interleaved(
            lambda: layered_run(blob, ramp, config),
            lambda: integrated_run(blob, ramp, config),
            repeats=REPEATS,
        )
        # A small tolerance: the structural saving must show through
        # scheduler noise.
        assert integrated_s < layered_s * 1.02
