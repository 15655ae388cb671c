"""Tests for the Rice entropy codec."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.exceptions import CodecError, DataFormatError
from repro.ngst.rice import compression_ratio, rice_decode, rice_encode


class TestRoundtrip:
    def test_constant_array(self):
        data = np.full(1000, 1234, dtype=np.uint16)
        assert np.array_equal(rice_decode(rice_encode(data)), data)

    def test_ramp(self):
        data = np.arange(5000, dtype=np.uint16)
        assert np.array_equal(rice_decode(rice_encode(data)), data)

    def test_random_uint16(self, rng):
        data = rng.integers(0, 2**16, size=777, dtype=np.uint16)
        assert np.array_equal(rice_decode(rice_encode(data)), data)

    def test_random_uint8(self, rng):
        data = rng.integers(0, 2**8, size=100, dtype=np.uint8)
        out = rice_decode(rice_encode(data))
        assert out.dtype == np.uint8
        assert np.array_equal(out, data)

    def test_random_uint32(self, rng):
        data = rng.integers(0, 2**32, size=1000, dtype=np.uint32)
        assert np.array_equal(rice_decode(rice_encode(data)), data)

    def test_uint32_escape_above_2_to_31(self):
        # The folded residual of this jump needs 33 bits; a 32-bit
        # escape field used to decode position 10 as 5.
        data = np.array([0] * 10 + [2**31 + 5] + [0] * 53, dtype=np.uint32)
        assert np.array_equal(rice_decode(rice_encode(data)), data)

    def test_uint32_full_scale_spikes(self):
        # Isolated full-scale spikes in flat data escape; alternating
        # full-scale samples take k = 32 instead.
        data = np.zeros(200, dtype=np.uint32)
        data[[10, 50, 51, 120]] = [2**32 - 1, 2**31, 2**32 - 1, 1]
        assert np.array_equal(rice_decode(rice_encode(data)), data)
        data = np.array([0, 2**32 - 1, 1, 2**32 - 2] * 9, dtype=np.uint32)
        assert np.array_equal(rice_decode(rice_encode(data)), data)

    def test_2d_shape_preserved(self, rng):
        data = rng.integers(0, 2**16, size=(17, 23), dtype=np.uint16)
        out = rice_decode(rice_encode(data))
        assert out.shape == (17, 23)
        assert np.array_equal(out, data)

    def test_3d_shape_preserved(self, rng):
        data = rng.integers(0, 100, size=(3, 5, 7), dtype=np.uint16)
        assert np.array_equal(rice_decode(rice_encode(data)), data)

    def test_single_element(self):
        data = np.array([65535], dtype=np.uint16)
        assert np.array_equal(rice_decode(rice_encode(data)), data)

    def test_extremes(self):
        data = np.array([0, 65535, 0, 65535, 32768], dtype=np.uint16)
        assert np.array_equal(rice_decode(rice_encode(data)), data)

    @settings(max_examples=60, deadline=None)
    @given(
        hnp.arrays(
            dtype=st.sampled_from([np.uint16, np.uint32]),
            shape=hnp.array_shapes(min_dims=1, max_dims=2, max_side=40),
        )
    )
    def test_roundtrip_property(self, data):
        if data.size == 0:
            return
        assert np.array_equal(rice_decode(rice_encode(data)), data)


class TestCompression:
    def test_smooth_data_compresses(self, rng):
        data = (10000 + np.cumsum(rng.normal(0, 3, size=20000))).astype(np.uint16)
        assert compression_ratio(data) > 2.0

    def test_random_data_does_not_explode(self, rng):
        data = rng.integers(0, 2**16, size=5000, dtype=np.uint16)
        # Incompressible input must stay close to raw size.
        assert compression_ratio(data) > 0.7

    def test_constant_data_compresses_strongly(self):
        data = np.full(10000, 777, dtype=np.uint16)
        assert compression_ratio(data) > 10.0


class TestErrorHandling:
    def test_rejects_empty(self):
        with pytest.raises(DataFormatError):
            rice_encode(np.array([], dtype=np.uint16))

    def test_rejects_signed(self):
        with pytest.raises(DataFormatError):
            rice_encode(np.zeros(4, dtype=np.int16))

    def test_bad_magic(self):
        with pytest.raises(CodecError, match="magic"):
            rice_decode(b"NOPE" + b"\x00" * 32)

    def test_truncated_stream(self):
        blob = rice_encode(np.arange(1000, dtype=np.uint16))
        with pytest.raises(CodecError):
            rice_decode(blob[: len(blob) // 2])

    def test_truncated_header(self):
        blob = rice_encode(np.arange(10, dtype=np.uint16))
        with pytest.raises(CodecError):
            rice_decode(blob[:5])

    def test_sample_count_beyond_payload_rejected(self):
        # 26 bytes claiming 4000x4000x4000 uint16 samples: rejected
        # before the decoder allocates anything for them.
        blob = b"RICE" + struct.pack(">BB3I", 1, 3, 4000, 4000, 4000) + bytes(8)
        assert len(blob) == 26
        with pytest.raises(CodecError, match="claims 64000000000 samples"):
            rice_decode(blob)

    def test_implausible_k_rejected(self):
        # One uint16 sample: k = 63 (six 1-bits), then unary q = 1 ("10"),
        # then enough zero bits for a 63-bit remainder.
        blob = b"RICE" + struct.pack(">BBI", 1, 1, 1) + bytes([0b11111110]) + bytes(8)
        with pytest.raises(CodecError, match="k=63"):
            rice_decode(blob)
