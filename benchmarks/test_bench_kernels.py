"""Micro-benchmarks of the vectorized hot-path kernels.

Each pair times a vectorized kernel next to the ``_reference_*`` oracle
it replaced, so ``pytest benchmarks/ --benchmark-only`` shows the
before/after trajectory alongside the component benches.  End-to-end
and per-layer numbers come from the benchmark in ``benchmarks/e2e``
(see ``benchmarks/e2e/README.md``).
"""

import numpy as np
import pytest

from repro.baselines.majority import (
    _reference_majority_vote_window,
    majority_vote_window,
)
from repro.baselines.median import (
    _reference_median_smooth_temporal,
    median_smooth_temporal,
)
from repro.config import OTISConfig
from repro.core import bitops
from repro.core.algo_otis import _otis_band, _reference_otis_band
from repro.core.voter import VoterMatrix, _reference_grt
from repro.faults.correlated import (
    _reference_correlated_flip_grid,
    correlated_flip_grid,
)
from repro.faults.layout import RowMajorLayout, _reference_flip_mask_from_grid
from repro.stream.source import FrameSeeder, frame_rng


@pytest.fixture(scope="module")
def stack_u16():
    rng = np.random.default_rng(11)
    return rng.integers(0, 2**16, size=(32, 128, 128), dtype=np.uint16)


@pytest.fixture(scope="module")
def grt_voters(stack_u16):
    matrix = VoterMatrix(stack_u16, 8)
    return matrix.pruned(matrix.thresholds(0.75))


@pytest.fixture(scope="module")
def otis_band():
    """A 32x32 uint16 band with 2% bit flips and an out-of-bounds spot,
    at the report's tile 16 and Υ = 4."""
    rng = np.random.default_rng(13)
    values = 140.0 + np.cumsum(rng.normal(0.0, 2.0, (32, 32)), axis=1)
    band = np.clip(np.rint(values / 0.004), 0, 65535).astype(np.uint16)
    hit = rng.random(band.shape) < 0.02
    band[hit] ^= np.left_shift(np.uint16(1), rng.integers(0, 16, hit.sum()).astype(np.uint16))
    band[5:7, 9:11] = 65000
    return band, OTISConfig(tile=16, upsilon=4)


@pytest.fixture(scope="module")
def fig4_flip_grid():
    """Fig. 4's correlated flip grid: a (64, 16, 16) uint16 stack in the
    default row-major layout at Γ_ini 0.3."""
    layout = RowMajorLayout()
    n_words, nbits = 64 * 16 * 16, 16
    grid = correlated_flip_grid(
        layout.grid_shape(n_words, nbits), 0.3, np.random.default_rng(0)
    )
    return layout, grid, n_words, nbits


def test_bench_correlated_grid(benchmark):
    benchmark(correlated_flip_grid, (256, 256), 0.3, np.random.default_rng(0))


def test_bench_correlated_grid_reference(benchmark):
    benchmark(
        _reference_correlated_flip_grid, (256, 256), 0.3, np.random.default_rng(0)
    )


def test_bench_flip_mask_from_grid(benchmark, fig4_flip_grid):
    layout, grid, n_words, nbits = fig4_flip_grid
    benchmark(layout.flip_mask_from_grid, grid, n_words, nbits)


def test_bench_flip_mask_from_grid_reference(benchmark, fig4_flip_grid):
    benchmark(_reference_flip_mask_from_grid, *fig4_flip_grid)


def test_bench_grt(benchmark, grt_voters):
    benchmark(VoterMatrix.grt, grt_voters)


def test_bench_grt_reference(benchmark, grt_voters):
    benchmark(_reference_grt, grt_voters)


def test_bench_to_bit_planes(benchmark, stack_u16):
    benchmark(bitops.to_bit_planes, stack_u16)


def test_bench_to_bit_planes_reference(benchmark, stack_u16):
    benchmark(bitops._reference_to_bit_planes, stack_u16)


def test_bench_median_temporal(benchmark, stack_u16):
    benchmark(median_smooth_temporal, stack_u16)


def test_bench_median_temporal_reference(benchmark, stack_u16):
    benchmark(_reference_median_smooth_temporal, stack_u16)


def test_bench_majority_window(benchmark, stack_u16):
    benchmark(majority_vote_window, stack_u16, 5)


def test_bench_majority_window_reference(benchmark, stack_u16):
    benchmark(_reference_majority_vote_window, stack_u16, 5)


def test_bench_otis_band(benchmark, otis_band):
    benchmark(_otis_band, *otis_band)


def test_bench_otis_band_reference(benchmark, otis_band):
    benchmark(_reference_otis_band, *otis_band)


# One 64-frame stream chunk's Generators: the seeder reseeds one
# Generator per frame, frame_rng builds one per frame.
def test_bench_frame_seeder(benchmark):
    seeder = FrameSeeder(2003)
    benchmark(lambda: [rng.bit_generator for rng in seeder.generators(4096, 64)])


def test_bench_frame_seeder_reference(benchmark):
    benchmark(lambda: [frame_rng(2003, 4096 + j).bit_generator for j in range(64)])
