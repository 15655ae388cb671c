"""Tests for the memory-layout mappings (§8)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.config import CorrelatedFaultConfig
from repro.exceptions import ConfigurationError, DataFormatError
from repro.faults.correlated import CorrelatedFaultModel, correlated_flip_grid
from repro.faults.layout import (
    InterleavedLayout,
    PixelMajorLayout,
    RowMajorLayout,
    _reference_flip_mask_from_grid,
)
from repro.faults.transit import (
    GilbertElliottConfig,
    TransitFaultModel,
    burst_flip_stream,
)

WORD_DTYPES = (np.uint8, np.uint16, np.uint32, np.uint64)


class TestRowMajorLayout:
    def test_identity_permutation(self):
        layout = RowMajorLayout()
        assert layout.word_permutation(10).tolist() == list(range(10))

    def test_grid_shape(self):
        layout = RowMajorLayout(row_words=4)
        # 10 words * 16 bits = 160 bits; rows of 64 bits -> 3 rows.
        assert layout.grid_shape(10, 16) == (3, 64)

    def test_bit_positions_contiguous(self):
        layout = RowMajorLayout(row_words=2)
        rows, cols = layout.bit_positions(4, 16)
        # Word 0 occupies the first 16 columns of row 0.
        assert rows[0].tolist() == [0] * 16
        assert cols[0].tolist() == list(range(16))
        # Word 2 starts row 1.
        assert rows[2, 0] == 1 and cols[2, 0] == 0

    def test_rejects_bad_row_words(self):
        with pytest.raises(ConfigurationError):
            RowMajorLayout(row_words=0)


class TestInterleavedLayout:
    def test_permutation_is_bijection(self):
        layout = InterleavedLayout()
        for n in (7, 64, 100, 1024):
            perm = layout.word_permutation(n)
            assert sorted(perm.tolist()) == list(range(n))

    def test_stride_coprime(self):
        layout = InterleavedLayout(stride=4)
        assert np.gcd(layout.effective_stride(64), 64) == 1

    def test_neighbours_scattered(self):
        layout = InterleavedLayout()
        perm = layout.word_permutation(256)
        gaps = np.abs(np.diff(perm.astype(np.int64)))
        assert gaps.min() > 1  # no two logical neighbours stay adjacent

    def test_rejects_bad_stride(self):
        with pytest.raises(ConfigurationError):
            InterleavedLayout(stride=0)

    @given(st.integers(min_value=2, max_value=2000))
    def test_bijection_property(self, n):
        perm = InterleavedLayout().word_permutation(n)
        assert len(set(perm.tolist())) == n


class TestFlipMaskFromGrid:
    def test_empty_grid_no_masks(self):
        layout = RowMajorLayout(row_words=2)
        grid = np.zeros(layout.grid_shape(6, 16), dtype=bool)
        masks = layout.flip_mask_from_grid(grid, 6, 16)
        assert not masks.any()

    def test_single_bit_maps_to_word(self):
        layout = RowMajorLayout(row_words=2)
        grid = np.zeros(layout.grid_shape(6, 16), dtype=bool)
        # Bit 0 of word 0 is its MSB (leftmost) position in the grid.
        grid[0, 0] = True
        masks = layout.flip_mask_from_grid(grid, 6, 16)
        assert masks[0] == 1 << 15
        assert masks[1:].sum() == 0

    def test_full_word_row(self):
        layout = RowMajorLayout(row_words=2)
        grid = np.zeros(layout.grid_shape(2, 16), dtype=bool)
        grid[0, :16] = True
        masks = layout.flip_mask_from_grid(grid, 2, 16)
        assert masks[0] == 0xFFFF

    def test_interleaved_inverse_consistency(self):
        layout = InterleavedLayout()
        n, nbits = 32, 16
        rng = np.random.default_rng(5)
        grid = rng.random(layout.grid_shape(n, nbits)) < 0.3
        masks = layout.flip_mask_from_grid(grid, n, nbits)
        # Rebuild the grid bits from the masks through the same mapping
        # and check every mapped position agrees.
        rows, cols = layout.bit_positions(n, nbits)
        for w in range(n):
            for b in range(nbits):
                bit = (int(masks[w]) >> (nbits - 1 - b)) & 1
                assert bit == int(grid[rows[w, b], cols[w, b]])

    def test_refuses_a_short_grid(self):
        layout = RowMajorLayout(row_words=2)
        grid = np.zeros((2, 32), dtype=bool)  # 6 words need 3 rows
        with pytest.raises(DataFormatError, match=r"shape \(3, 32\)"):
            layout.flip_mask_from_grid(grid, 6, 16)

    def test_refuses_a_grid_of_another_row_width(self):
        layout = RowMajorLayout(row_words=2)
        grid = np.zeros((2, 48), dtype=bool)  # right bit count, wrong rows
        with pytest.raises(DataFormatError, match="shape"):
            layout.flip_mask_from_grid(grid, 6, 16)

    def test_refuses_a_non_bool_grid(self):
        layout = RowMajorLayout(row_words=2)
        grid = np.zeros(layout.grid_shape(6, 16), dtype=np.uint8)
        with pytest.raises(DataFormatError, match="bool"):
            layout.flip_mask_from_grid(grid, 6, 16)

    def test_refuses_a_word_width_that_is_not_whole_bytes(self):
        layout = RowMajorLayout(row_words=2)
        grid = np.zeros(layout.grid_shape(6, 12), dtype=bool)
        with pytest.raises(ConfigurationError, match="nbits must be 8, 16, 32 or 64"):
            layout.flip_mask_from_grid(grid, 6, 12)


LAYOUT_KINDS = ("row-major", "interleaved", "interleaved-stride", "pixel-major")


def _layout(kind, row_words, n_variants):
    if kind == "row-major":
        return RowMajorLayout(row_words=row_words)
    if kind == "interleaved":
        return InterleavedLayout(row_words=row_words)
    if kind == "interleaved-stride":
        return InterleavedLayout(row_words=row_words, stride=5)
    return PixelMajorLayout(n_variants=n_variants, row_words=row_words)


class TestPackedMatchesReference:
    """The ``np.packbits`` word packer against the per-bit gather oracle."""

    @given(
        kind=st.sampled_from(LAYOUT_KINDS),
        nbits=st.sampled_from((8, 16, 32, 64)),
        row_words=st.sampled_from((1, 3, 64)),
        n_variants=st.integers(min_value=1, max_value=6),
        per_variant=st.integers(min_value=1, max_value=40),
        density=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_byte_identical(
        self, kind, nbits, row_words, n_variants, per_variant, density, seed
    ):
        layout = _layout(kind, row_words, n_variants)
        n_words = n_variants * per_variant
        shape = layout.grid_shape(n_words, nbits)
        grid = np.random.default_rng(seed).random(shape) < density
        # Cells past the last word (a partial last row) belong to no word.
        grid.reshape(-1)[n_words * nbits :] = True
        packed = layout.flip_mask_from_grid(grid, n_words, nbits)
        reference = _reference_flip_mask_from_grid(layout, grid, n_words, nbits)
        assert packed.dtype == reference.dtype == np.uint64
        assert packed.tobytes() == reference.tobytes()

    def test_partial_last_row_padding_is_ignored(self):
        layout = InterleavedLayout(row_words=3)
        grid = np.zeros(layout.grid_shape(7, 16), dtype=bool)
        assert grid.size > 7 * 16
        grid.reshape(-1)[7 * 16 :] = True
        assert not layout.flip_mask_from_grid(grid, 7, 16).any()

    @pytest.mark.parametrize("dtype", WORD_DTYPES + (np.float32,))
    @pytest.mark.parametrize(
        "layout", [RowMajorLayout(row_words=3), InterleavedLayout()]
    )
    def test_correlated_corrupt(self, dtype, layout):
        data = _words(dtype, (6, 5, 7))
        config = CorrelatedFaultConfig(gamma_ini=0.3)
        model = CorrelatedFaultModel(config, layout=layout)
        rng = np.random.default_rng(21)
        corrupted, mask = model.corrupt(data, rng)

        oracle_rng = np.random.default_rng(21)
        words = _as_words(data)
        nbits = words.dtype.itemsize * 8
        grid = correlated_flip_grid(
            layout.grid_shape(words.size, nbits),
            config.gamma_ini,
            oracle_rng,
            config.max_run_terms,
        )
        expected = _reference_flip_mask_from_grid(layout, grid, words.size, nbits)
        _assert_same_corruption(data, corrupted, mask, expected)
        assert rng.bit_generator.state == oracle_rng.bit_generator.state

    @pytest.mark.parametrize("dtype", WORD_DTYPES + (np.float32,))
    @pytest.mark.parametrize("layout", [None, InterleavedLayout()])
    def test_transit_corrupt(self, dtype, layout):
        data = _words(dtype, (6, 5, 7))
        config = GilbertElliottConfig(
            p_good_to_bad=0.01, p_bad_to_good=0.1, flip_prob_good=0.01
        )
        model = TransitFaultModel(config, layout=layout)
        rng = np.random.default_rng(22)
        corrupted, mask = model.corrupt(data, rng)

        oracle_rng = np.random.default_rng(22)
        words = _as_words(data)
        nbits = words.dtype.itemsize * 8
        stream = burst_flip_stream(words.size * nbits, config, oracle_rng)
        # One word per grid row makes the grid the serial stream itself.
        serial = RowMajorLayout(row_words=1)
        slots = _reference_flip_mask_from_grid(
            serial, stream.reshape(words.size, nbits), words.size, nbits
        )
        if layout is not None:
            slots = slots[layout.word_permutation(words.size)]
        _assert_same_corruption(data, corrupted, mask, slots)
        assert rng.bit_generator.state == oracle_rng.bit_generator.state


def _words(dtype, shape):
    rng = np.random.default_rng(3)
    if dtype == np.float32:
        return rng.normal(100.0, 5.0, shape).astype(np.float32)
    return rng.integers(0, np.iinfo(dtype).max, shape, dtype=dtype, endpoint=True)


def _as_words(data):
    return data.view(np.uint32) if data.dtype == np.float32 else data


def _assert_same_corruption(data, corrupted, mask, expected_mask):
    words = _as_words(data)
    expected = expected_mask.astype(words.dtype).reshape(words.shape)
    assert mask.dtype == words.dtype and mask.tobytes() == expected.tobytes()
    assert corrupted.dtype == data.dtype
    assert corrupted.tobytes() == np.bitwise_xor(words, expected).tobytes()


class TestPixelMajorLayout:
    def test_permutation_is_bijection(self):
        from repro.faults.layout import PixelMajorLayout

        layout = PixelMajorLayout(n_variants=8)
        perm = layout.word_permutation(8 * 12)
        assert sorted(perm.tolist()) == list(range(96))

    def test_variants_made_contiguous(self):
        from repro.faults.layout import PixelMajorLayout

        # With 4 variants of 3 coords, variant k of coord c (logical
        # index k*3 + c) must land at physical slot c*4 + k.
        layout = PixelMajorLayout(n_variants=4)
        perm = layout.word_permutation(12)
        for k in range(4):
            for c in range(3):
                assert perm[k * 3 + c] == c * 4 + k

    def test_rejects_indivisible(self):
        from repro.faults.layout import PixelMajorLayout

        with pytest.raises(ConfigurationError):
            PixelMajorLayout(n_variants=7).word_permutation(16)

    def test_rejects_bad_variants(self):
        from repro.faults.layout import PixelMajorLayout

        with pytest.raises(ConfigurationError):
            PixelMajorLayout(n_variants=0)
