"""Unit and property tests for repro.core.bitops."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import bitops
from repro.exceptions import DataFormatError

UINT16S = hnp.arrays(
    dtype=np.uint16, shape=hnp.array_shapes(max_dims=3, max_side=8)
)


class TestBitWidth:
    def test_known_widths(self):
        assert bitops.bit_width(np.uint8) == 8
        assert bitops.bit_width(np.uint16) == 16
        assert bitops.bit_width(np.uint32) == 32
        assert bitops.bit_width(np.uint64) == 64

    def test_rejects_signed(self):
        with pytest.raises(DataFormatError):
            bitops.bit_width(np.int16)

    def test_rejects_float(self):
        with pytest.raises(DataFormatError):
            bitops.bit_width(np.float32)


class TestRequireUnsigned:
    def test_accepts_uint16(self):
        arr = np.zeros(3, dtype=np.uint16)
        assert bitops.require_unsigned(arr) is arr

    def test_rejects_list(self):
        with pytest.raises(DataFormatError, match="numpy array"):
            bitops.require_unsigned([1, 2, 3])

    def test_rejects_float_array(self):
        with pytest.raises(DataFormatError, match="unsigned"):
            bitops.require_unsigned(np.zeros(3, dtype=np.float64))

    @pytest.mark.parametrize("dtype", [">u2", ">u4", ">u8"])
    def test_names_the_byte_order_of_a_byte_swapped_array(self, dtype):
        arr = np.zeros(3, dtype=dtype)
        native = np.dtype(dtype).newbyteorder("=").str
        with pytest.raises(DataFormatError) as excinfo:
            bitops.require_unsigned(arr, "pixels")
        assert str(excinfo.value) == (
            f"pixels must be in native byte order, got byte-swapped {dtype}; "
            f"convert with .astype('{native}')"
        )


class TestCeilPow2:
    def test_scalar_zero(self):
        assert bitops.ceil_pow2(0) == 1

    def test_scalar_one(self):
        assert bitops.ceil_pow2(1) == 1

    def test_scalar_exact_power(self):
        assert bitops.ceil_pow2(64) == 64

    def test_scalar_above_power(self):
        assert bitops.ceil_pow2(65) == 128

    def test_array(self):
        out = bitops.ceil_pow2(np.array([0, 3, 4, 5, 65535]))
        assert out.tolist() == [1, 4, 4, 8, 65536]

    @given(st.integers(min_value=0, max_value=2**32))
    def test_result_is_enclosing_power(self, value):
        result = int(bitops.ceil_pow2(value))
        assert result & (result - 1) == 0  # a power of two
        assert result >= max(value, 1)
        assert result // 2 < max(value, 1)


class TestMaskAtOrAbove:
    def test_bit0(self):
        assert bitops.mask_at_or_above(1, 16) == 0xFFFF

    def test_bit3(self):
        assert bitops.mask_at_or_above(8, 16) == 0xFFF8

    def test_top_bit(self):
        assert bitops.mask_at_or_above(1 << 15, 16) == 0x8000

    def test_beyond_top_is_empty(self):
        assert bitops.mask_at_or_above(1 << 16, 16) == 0

    def test_rejects_non_power(self):
        with pytest.raises(DataFormatError, match="power of two"):
            bitops.mask_at_or_above(3, 16)

    def test_rejects_zero(self):
        with pytest.raises(DataFormatError, match="power of two"):
            bitops.mask_at_or_above(0, 16)

    def test_rejects_odd_width(self):
        with pytest.raises(DataFormatError, match="nbits"):
            bitops.mask_at_or_above(1, 12)

    def test_array_input(self):
        out = bitops.mask_at_or_above(np.array([1, 2, 4], dtype=np.uint64), 8)
        assert out.tolist() == [0xFF, 0xFE, 0xFC]


class TestPopcountHamming:
    def test_popcount_known(self):
        arr = np.array([0, 1, 3, 0xFFFF], dtype=np.uint16)
        assert bitops.popcount(arr).tolist() == [0, 1, 2, 16]

    def test_hamming_distance_self_is_zero(self):
        arr = np.array([5, 9], dtype=np.uint16)
        assert bitops.hamming_distance(arr, arr).tolist() == [0, 0]

    def test_hamming_distance_known(self):
        a = np.array([0b1010], dtype=np.uint16)
        b = np.array([0b0110], dtype=np.uint16)
        assert bitops.hamming_distance(a, b).tolist() == [2]

    def test_hamming_rejects_dtype_mismatch(self):
        with pytest.raises(DataFormatError, match="mismatch"):
            bitops.hamming_distance(
                np.zeros(2, dtype=np.uint16), np.zeros(2, dtype=np.uint32)
            )

    @given(UINT16S)
    def test_popcount_bounds(self, arr):
        counts = bitops.popcount(arr)
        assert np.all(counts <= 16)
        assert np.all(counts >= 0)


class TestFloatViews:
    def test_roundtrip(self):
        arr = np.array([1.5, -2.25, 0.0], dtype=np.float32)
        assert np.array_equal(
            bitops.bits_to_float32(bitops.float32_to_bits(arr)), arr
        )

    def test_float32_to_bits_rejects_float64(self):
        with pytest.raises(DataFormatError):
            bitops.float32_to_bits(np.zeros(2, dtype=np.float64))

    def test_bits_to_float32_rejects_uint16(self):
        with pytest.raises(DataFormatError):
            bitops.bits_to_float32(np.zeros(2, dtype=np.uint16))

    @given(
        hnp.arrays(
            dtype=np.uint32, shape=hnp.array_shapes(max_dims=2, max_side=6)
        )
    )
    def test_bits_roundtrip_is_identity_on_patterns(self, bits):
        back = bitops.float32_to_bits(
            np.ascontiguousarray(bitops.bits_to_float32(bits))
        )
        assert np.array_equal(back, bits)


class TestBitPlanes:
    def test_bit_plane_msb(self):
        arr = np.array([0x8000, 0x7FFF], dtype=np.uint16)
        assert bitops.bit_plane(arr, 15).tolist() == [1, 0]

    def test_bit_plane_rejects_out_of_range(self):
        with pytest.raises(DataFormatError):
            bitops.bit_plane(np.zeros(2, dtype=np.uint16), 16)

    def test_planes_shape(self):
        arr = np.zeros((3, 4), dtype=np.uint16)
        assert bitops.to_bit_planes(arr).shape == (16, 3, 4)

    def test_plane_zero_is_msb(self):
        arr = np.array([0x8000], dtype=np.uint16)
        planes = bitops.to_bit_planes(arr)
        assert planes[0, 0] == 1
        assert planes[1:, 0].sum() == 0

    @given(UINT16S)
    def test_roundtrip(self, arr):
        planes = bitops.to_bit_planes(arr)
        assert np.array_equal(bitops.from_bit_planes(planes, np.uint16), arr)

    def test_from_planes_rejects_wrong_count(self):
        with pytest.raises(DataFormatError, match="planes"):
            bitops.from_bit_planes(np.zeros((8, 2), dtype=np.uint8), np.uint16)


class TestFlipBits:
    def test_flip_is_xor(self):
        arr = np.array([0b1100], dtype=np.uint16)
        mask = np.array([0b1010], dtype=np.uint16)
        assert bitops.flip_bits(arr, mask).tolist() == [0b0110]

    def test_double_flip_is_identity(self):
        arr = np.array([123, 456], dtype=np.uint16)
        mask = np.array([7, 0xFF00], dtype=np.uint16)
        once = bitops.flip_bits(arr, mask)
        assert np.array_equal(bitops.flip_bits(once, mask), arr)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DataFormatError, match="shape"):
            bitops.flip_bits(
                np.zeros(3, dtype=np.uint16), np.zeros(4, dtype=np.uint16)
            )

    @given(UINT16S)
    def test_involution_property(self, arr):
        mask = np.full_like(arr, 0x5A5A)
        assert np.array_equal(
            bitops.flip_bits(bitops.flip_bits(arr, mask), mask), arr
        )


class TestHighestSetBit:
    def test_known_values(self):
        arr = np.array([0, 1, 2, 3, 255, 0x8000], dtype=np.uint16)
        out = bitops.highest_set_bit_value(arr)
        assert out.tolist() == [0, 1, 2, 2, 128, 0x8000]

    @given(st.integers(min_value=1, max_value=0xFFFF))
    def test_is_power_and_bounds(self, value):
        out = int(
            bitops.highest_set_bit_value(np.array([value], dtype=np.uint16))[0]
        )
        assert out & (out - 1) == 0
        assert out <= value < out * 2
