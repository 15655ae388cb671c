"""Tests for the §9 integrated-preprocessing architecture.

The §9 overhead claim (integrated no slower than layered) is a
wall-clock comparison and lives in ``benchmarks/test_bench_integrated.py``.
"""

import numpy as np
import pytest

from repro.config import NGSTConfig
from repro.exceptions import HeaderSanityError
from repro.faults.injector import FaultInjector
from repro.faults.uncorrelated import UncorrelatedFaultModel
from repro.ngst.integrated import integrated_run, layered_run, make_transport
from repro.ngst.ramp import RampModel


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
