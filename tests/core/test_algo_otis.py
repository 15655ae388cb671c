"""Behavioural tests for Algo_OTIS."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.config import OTISBounds, OTISConfig
from repro.core.algo_otis import AlgoOTIS, spatial_median
from repro.data.otis import blob
from repro.exceptions import DataFormatError
from repro.faults.injector import FaultInjector
from repro.faults.uncorrelated import UncorrelatedFaultModel
from repro.metrics.relative_error import psi
from repro.otis.quantize import decode_dn, encode_dn


class TestInputValidation:
    def test_rejects_float64(self):
        with pytest.raises(DataFormatError):
            AlgoOTIS()(np.zeros((8, 8)))

    def test_rejects_1d(self):
        with pytest.raises(DataFormatError):
            AlgoOTIS()(np.zeros(8, dtype=np.float32))

    def test_rejects_tiny_band(self):
        with pytest.raises(DataFormatError):
            AlgoOTIS()(np.zeros((2, 8), dtype=np.float32))

    def test_rejects_empty_cube(self):
        with pytest.raises(DataFormatError, match="no bands"):
            AlgoOTIS()(np.zeros((0, 8, 8), dtype=np.uint16))

    @pytest.mark.parametrize("shape", [(2, 2, 2), (2, 1, 5), (3, 8, 2)])
    def test_rejects_tiny_bands_in_cube(self, shape):
        # A cube's bands obey the same 3x3 floor as a single band.
        cube = np.zeros(shape, dtype=np.uint16)
        with pytest.raises(DataFormatError, match="at least 3x3"):
            AlgoOTIS()(cube)
        with pytest.raises(DataFormatError, match="at least 3x3"):
            AlgoOTIS()(cube[0])

    def test_accepts_uint16_dn(self, blob_dn):
        result = AlgoOTIS()(blob_dn)
        assert result.corrected.dtype == np.uint16

    def test_accepts_float32(self):
        field = blob(16, 16)
        result = AlgoOTIS()(field)
        assert result.corrected.dtype == np.float32


class TestBoundsScreen:
    def test_out_of_bounds_repaired(self, blob_dn):
        cfg = OTISConfig(sensitivity=0)
        damaged = blob_dn.copy()
        damaged[4, 4] = np.uint16(60000)  # 240 physical > 200 bound
        result = AlgoOTIS(cfg)(damaged)
        assert result.n_bounds_repairs == 1
        value = float(result.corrected[4, 4]) * cfg.dn_scale
        lo, hi = cfg.bounds.effective()
        assert lo <= value <= hi

    def test_nan_float_repaired(self):
        field = blob(16, 16)
        damaged = field.copy()
        damaged[3, 3] = np.float32(np.nan)
        result = AlgoOTIS(OTISConfig(sensitivity=0))(damaged)
        assert np.isfinite(result.corrected).all()
        assert result.n_bounds_repairs == 1

    def test_inf_float_repaired(self):
        field = blob(16, 16)
        damaged = field.copy()
        damaged[3, 3] = np.float32(np.inf)
        result = AlgoOTIS(OTISConfig(sensitivity=0))(damaged)
        assert np.isfinite(result.corrected).all()

    def test_geographic_bounds_tighten(self, blob_dn):
        bounds = OTISBounds(lower=0.0, upper=200.0, geographic_upper=100.0)
        cfg = OTISConfig(sensitivity=0, bounds=bounds)
        damaged = blob_dn.copy()
        damaged[2, 2] = np.uint16(30000)  # 120 physical: ok globally, not arctic
        result = AlgoOTIS(cfg)(damaged)
        assert result.n_bounds_repairs >= 1

    def test_clean_field_zero_bounds_repairs(self, blob_dn):
        result = AlgoOTIS(OTISConfig(sensitivity=0))(blob_dn)
        assert result.n_bounds_repairs == 0
        assert np.array_equal(result.corrected, blob_dn)


class TestVoterStage:
    def test_isolated_flip_repaired(self, blob_dn):
        damaged = blob_dn.copy()
        damaged[10, 10] ^= np.uint16(1 << 13)
        result = AlgoOTIS(OTISConfig(trend_exemption=False))(damaged)
        assert abs(int(result.corrected[10, 10]) - int(blob_dn[10, 10])) < (1 << 10)

    def test_improves_psi_under_random_faults(self, blob_dn):
        corrupted, _ = FaultInjector(
            UncorrelatedFaultModel(0.02), seed=9
        ).inject(blob_dn)
        result = AlgoOTIS()(corrupted)
        pristine = decode_dn(blob_dn)
        assert psi(decode_dn(result.corrected), pristine) < psi(
            decode_dn(corrupted), pristine
        ) / 3

    def test_iterations_help_or_equal(self, blob_dn):
        corrupted, _ = FaultInjector(
            UncorrelatedFaultModel(0.05), seed=9
        ).inject(blob_dn)
        pristine = decode_dn(blob_dn)
        one = AlgoOTIS(OTISConfig(iterations=1))(corrupted)
        three = AlgoOTIS(OTISConfig(iterations=3))(corrupted)
        assert psi(decode_dn(three.corrected), pristine) <= psi(
            decode_dn(one.corrected), pristine
        ) * 1.1

    def test_corrections_respect_bounds(self, blob_dn):
        corrupted, _ = FaultInjector(
            UncorrelatedFaultModel(0.05), seed=9
        ).inject(blob_dn)
        cfg = OTISConfig()
        result = AlgoOTIS(cfg)(corrupted)
        values = result.corrected.astype(np.float64) * cfg.dn_scale
        lo, hi = cfg.bounds.effective()
        # Every pixel the algorithm touched must land inside bounds.
        touched = result.corrected != corrupted
        assert np.all(values[touched] >= lo)
        assert np.all(values[touched] <= hi)

    def test_upsilon8_runs(self, blob_dn):
        corrupted, _ = FaultInjector(
            UncorrelatedFaultModel(0.02), seed=9
        ).inject(blob_dn)
        result = AlgoOTIS(OTISConfig(upsilon=8))(corrupted)
        assert result.corrected.shape == corrupted.shape

    def test_global_thresholds_tile_zero(self, blob_dn):
        corrupted, _ = FaultInjector(
            UncorrelatedFaultModel(0.02), seed=9
        ).inject(blob_dn)
        result = AlgoOTIS(OTISConfig(tile=0))(corrupted)
        pristine = decode_dn(blob_dn)
        assert psi(decode_dn(result.corrected), pristine) < psi(
            decode_dn(corrupted), pristine
        )


class TestTrendExemption:
    def test_natural_hotspot_preserved(self):
        # A genuine 3x3 hyper-thermal anomaly must survive preprocessing.
        field = np.full((24, 24), 95.0, dtype=np.float32)
        field[10:13, 10:13] = 180.0
        dn = encode_dn(field)
        result = AlgoOTIS(OTISConfig(trend_exemption=True))(dn)
        centre = float(result.corrected[11, 11]) * 0.004
        assert centre > 150.0

    def test_exemption_counter_reports(self):
        field = np.full((24, 24), 95.0, dtype=np.float32)
        field[10:13, 10:13] = 180.0
        dn = encode_dn(field)
        result = AlgoOTIS(OTISConfig(trend_exemption=True))(dn)
        without = AlgoOTIS(OTISConfig(trend_exemption=False))(dn)
        assert result.n_trend_exemptions >= 0
        # Without the exemption the anomaly is (wrongly) flattened more.
        centre_with = float(result.corrected[11, 11])
        centre_without = float(without.corrected[11, 11])
        assert centre_with >= centre_without


    def test_trend_window_above_two_changes_nothing(self):
        # The trend test always reads the fixed 8-ring; any window > 1
        # only lowers the co-deviant count from two neighbours to one.
        rng = np.random.default_rng(5)
        field = np.full((24, 24), 95.0, dtype=np.float32)
        field += rng.normal(0.0, 1.0, field.shape).astype(np.float32)
        field[10:13, 10:13] = 180.0
        dn = encode_dn(field)
        hit = rng.random(dn.shape) < 0.05
        dn[hit] ^= np.left_shift(np.uint16(1), rng.integers(8, 16, hit.sum()).astype(np.uint16))
        narrow, two, five = (
            AlgoOTIS(OTISConfig(trend_window=w))(dn) for w in (1, 2, 5)
        )
        assert two.corrected.tobytes() == five.corrected.tobytes()
        counts = lambda r: (r.n_bounds_repairs, r.n_bit_corrections, r.n_trend_exemptions)
        assert counts(two) == counts(five)
        assert counts(narrow) != counts(two)


class TestCube:
    def test_cube_processed_per_band(self, blob_dn):
        cube = np.stack([blob_dn, blob_dn, blob_dn])
        result = AlgoOTIS()(cube)
        assert result.corrected.shape == cube.shape

    def test_cube_counts_aggregate(self, blob_dn):
        damaged = blob_dn.copy()
        damaged[4, 4] = np.uint16(60000)
        cube = np.stack([damaged, damaged])
        result = AlgoOTIS(OTISConfig(sensitivity=0))(cube)
        assert result.n_bounds_repairs == 2


class TestSpatialMedian:
    def test_constant_field(self):
        field = np.full((5, 5), 7.0)
        assert np.allclose(spatial_median(field), 7.0)

    def test_excludes_centre(self):
        field = np.zeros((5, 5))
        field[2, 2] = 100.0
        assert spatial_median(field)[2, 2] == 0.0

    def test_nan_in_ring_gives_nan(self):
        field = np.arange(25, dtype=np.float64).reshape(5, 5)
        field[2, 2] = np.nan
        med = spatial_median(field)
        assert np.isnan(med[1:4, 1:4]).sum() == 8
        assert np.isfinite(med[2, 2])

    @pytest.mark.parametrize("shape", [(5,), (1, 5), (5, 1), (2, 3, 3)])
    def test_rejects_degenerate_fields(self, shape):
        with pytest.raises(DataFormatError):
            spatial_median(np.zeros(shape))


class TestPropertyBased:
    """Hypothesis invariants on arbitrary DN fields."""

    @settings(max_examples=25, deadline=None)
    @given(
        hnp.arrays(
            dtype=np.uint16,
            shape=st.tuples(
                st.integers(4, 10), st.integers(4, 10)
            ),
        )
    )
    def test_output_always_within_bounds(self, field):
        cfg = OTISConfig()
        result = AlgoOTIS(cfg)(field)
        lo, hi = cfg.bounds.effective()
        values = result.corrected.astype(np.float64) * cfg.dn_scale
        # Every pixel the algorithm *touched* must be in bounds; pixels
        # it left alone keep whatever (possibly out-of-bounds... no:
        # the bounds pre-pass repairs those too).
        assert np.all(values >= lo - cfg.dn_scale)
        assert np.all(values <= hi + cfg.dn_scale)

    @settings(max_examples=15, deadline=None)
    @given(
        hnp.arrays(dtype=np.uint16, shape=(8, 8)),
    )
    def test_deterministic_and_nonmutating(self, field):
        snapshot = field.copy()
        first = AlgoOTIS()(field)
        second = AlgoOTIS()(field)
        assert np.array_equal(first.corrected, second.corrected)
        assert np.array_equal(field, snapshot)

    @settings(max_examples=15, deadline=None)
    @given(
        hnp.arrays(
            dtype=np.uint16,
            shape=(8, 8),
            elements={"min_value": 20000, "max_value": 30000},
        )
    )
    def test_in_bounds_fields_only_voter_changes(self, field):
        """Fields already inside bounds get no bounds repairs."""
        result = AlgoOTIS()(field)
        assert result.n_bounds_repairs == 0
