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
from repro.core import bitops
from repro.core.voter import VoterMatrix, _reference_grt
from repro.faults.correlated import (
    _reference_correlated_flip_grid,
    correlated_flip_grid,
)
from repro.otis.scan import (
    ScanConfig,
    _reference_cross_frame_preprocess,
    cross_frame_preprocess,
    mosaic,
    scan_scene,
)


@pytest.fixture(scope="module")
def stack_u16():
    rng = np.random.default_rng(11)
    return rng.integers(0, 2**16, size=(32, 128, 128), dtype=np.uint16)


@pytest.fixture(scope="module")
def grt_voters(stack_u16):
    matrix = VoterMatrix(stack_u16, 8)
    return matrix.pruned(matrix.thresholds(0.75))


@pytest.fixture(scope="module")
def swath():
    rng = np.random.default_rng(12)
    config = ScanConfig(frame_rows=32, frame_cols=128, step_rows=8)
    scene = rng.integers(0, 2**16, size=(512, 128), dtype=np.uint16)
    return scan_scene(scene, config), config


def test_bench_correlated_grid(benchmark):
    benchmark(correlated_flip_grid, (256, 256), 0.3, np.random.default_rng(0))


def test_bench_correlated_grid_reference(benchmark):
    benchmark(
        _reference_correlated_flip_grid, (256, 256), 0.3, np.random.default_rng(0)
    )


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


def test_bench_cross_frame(benchmark, swath):
    frames, config = swath
    benchmark(cross_frame_preprocess, frames, config)


def test_bench_cross_frame_reference(benchmark, swath):
    frames, config = swath
    benchmark(_reference_cross_frame_preprocess, frames, config)


def test_bench_mosaic(benchmark, swath):
    frames, config = swath
    benchmark(mosaic, frames, config)
