"""Tests for the Υ-way XOR voter matrix."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.voter import VoterMatrix, neighbour_indices, reflect_index
from repro.exceptions import ConfigurationError, DataFormatError


class TestReflectIndex:
    def test_interior_unchanged(self):
        assert reflect_index(3, 10) == 3

    def test_negative_reflects(self):
        assert reflect_index(-1, 10) == 1
        assert reflect_index(-2, 10) == 2

    def test_past_end_reflects(self):
        assert reflect_index(10, 10) == 8
        assert reflect_index(11, 10) == 7

    def test_edge_not_repeated(self):
        # Reflection must not map -1 onto 0 (that would duplicate the edge).
        assert reflect_index(-1, 5) == 1

    def test_rejects_tiny_length(self):
        with pytest.raises(ConfigurationError):
            reflect_index(0, 1)

    @given(st.integers(-100, 100), st.integers(2, 50))
    def test_always_in_range(self, index, length):
        assert 0 <= reflect_index(index, length) < length


class TestNeighbourIndices:
    def test_forward_offset(self):
        idx = neighbour_indices(5, 1)
        assert idx.tolist() == [1, 2, 3, 4, 3]

    def test_backward_offset(self):
        idx = neighbour_indices(5, -1)
        assert idx.tolist() == [1, 0, 1, 2, 3]

    def test_offset_two(self):
        idx = neighbour_indices(6, 2)
        assert idx.tolist() == [2, 3, 4, 5, 4, 3]


class TestVoterMatrixConstruction:
    def test_xor_shape(self, walk_stack):
        matrix = VoterMatrix(walk_stack, 4)
        assert matrix.xors.shape == (4,) + walk_stack.shape

    def test_offsets_alternate(self, walk_stack):
        matrix = VoterMatrix(walk_stack, 6)
        assert matrix.offsets == [1, -1, 2, -2, 3, -3]

    def test_identical_pixels_give_zero_xors(self, flat_stack):
        matrix = VoterMatrix(flat_stack, 4)
        assert not matrix.xors.any()

    def test_xor_content_forward(self):
        pixels = np.array([1, 2, 4, 8, 16, 32], dtype=np.uint16)
        matrix = VoterMatrix(pixels, 2)
        assert matrix.xors[0, 0] == (1 ^ 2)
        assert matrix.xors[0, 4] == (16 ^ 32)

    def test_rejects_odd_upsilon(self, walk_stack):
        with pytest.raises(ConfigurationError):
            VoterMatrix(walk_stack, 3)

    def test_rejects_zero_upsilon(self, walk_stack):
        with pytest.raises(ConfigurationError):
            VoterMatrix(walk_stack, 0)

    def test_rejects_too_few_variants(self):
        with pytest.raises(DataFormatError):
            VoterMatrix(np.zeros(2, dtype=np.uint16), 4)

    def test_rejects_float_input(self):
        with pytest.raises(DataFormatError):
            VoterMatrix(np.zeros(8, dtype=np.float32), 4)


class TestThresholds:
    def test_shape_per_coordinate(self, walk_stack):
        matrix = VoterMatrix(walk_stack, 4)
        thr = matrix.thresholds(80, per_coordinate=True)
        assert thr.shape == (4,) + walk_stack.shape[1:]

    def test_shape_global(self, walk_stack):
        matrix = VoterMatrix(walk_stack, 4)
        thr = matrix.thresholds(80, per_coordinate=False)
        assert thr.shape == (4,)

    def test_all_powers_of_two(self, walk_stack):
        matrix = VoterMatrix(walk_stack, 4)
        thr = matrix.thresholds(50)
        assert np.all((thr & (thr - 1)) == 0)
        assert np.all(thr >= 1)

    def test_flat_stack_minimal_thresholds(self, flat_stack):
        matrix = VoterMatrix(flat_stack, 4)
        thr = matrix.thresholds(80)
        assert np.all(thr == 1)

    def test_higher_sensitivity_lower_or_equal_threshold(self, walk_stack):
        matrix = VoterMatrix(walk_stack, 4)
        strict = matrix.thresholds(10)
        lenient = matrix.thresholds(100)
        assert np.all(lenient <= strict)


class TestPruning:
    def test_prunes_at_or_below_threshold(self):
        pixels = np.array([100, 100, 100, 228, 100, 100], dtype=np.uint16)
        matrix = VoterMatrix(pixels, 2)
        thr = np.array([64, 64], dtype=np.uint64)
        pruned = matrix.pruned(thr)
        # XORs of value 0 and of 100^228=184 > 64 survives; zeros pruned.
        assert pruned.max() == (100 ^ 228)
        assert (pruned[pruned > 0] > 64).all()

    def test_threshold_way_count_checked(self, walk_stack):
        matrix = VoterMatrix(walk_stack, 4)
        with pytest.raises(DataFormatError):
            matrix.pruned(np.ones(3, dtype=np.uint64))

    def test_threshold_coordinate_shape_checked(self, walk_stack):
        matrix = VoterMatrix(walk_stack, 4)
        with pytest.raises(DataFormatError):
            matrix.pruned(np.ones((4, 3), dtype=np.uint64))

    # (16, 5, 3) once raised a raw broadcast ValueError; (16, 4, 3) with
    # Υ = 4 silently lined the way thresholds up with the first
    # coordinate axis instead of the way axis.
    @pytest.mark.parametrize("shape", [(16, 5, 3), (16, 4, 3)])
    def test_global_thresholds_on_multi_axis_stack(self, rng, shape):
        pixels = rng.integers(0, 2**16, size=shape, dtype=np.uint16)
        matrix = VoterMatrix(pixels, 4)
        thr = np.array([2**4, 2**8, 2**12, 2**15], dtype=np.uint64)
        pruned = matrix.pruned(thr)
        for way in range(4):
            want = np.where(matrix.xors[way] > thr[way], matrix.xors[way], 0)
            assert np.array_equal(pruned[way], want), way
        # Global thresholds prune a multi-axis stack exactly as they
        # prune the same stack flattened to one coordinate axis.
        flat = VoterMatrix(pixels.reshape(shape[0], -1), 4).pruned(thr)
        assert np.array_equal(pruned.reshape(flat.shape), flat)


class TestCombiners:
    def test_unanimous_is_and(self):
        voters = np.array([[0b1110], [0b0111], [0b1111]], dtype=np.uint16)
        assert VoterMatrix.unanimous(voters).tolist() == [0b0110]

    def test_grt_is_all_but_one(self):
        voters = np.array(
            [[0b1000], [0b1000], [0b1000], [0b0000]], dtype=np.uint16
        )
        # Bit 3 asserted by 3 of 4 voters -> GRT sets it.
        assert VoterMatrix.grt(voters).tolist() == [0b1000]

    def test_grt_requires_quorum(self):
        voters = np.array(
            [[0b1000], [0b1000], [0b0000], [0b0000]], dtype=np.uint16
        )
        assert VoterMatrix.grt(voters).tolist() == [0]

    def test_grt_upsilon2_falls_back_to_unanimity(self):
        voters = np.array([[0b1000], [0b0000]], dtype=np.uint16)
        assert VoterMatrix.grt(voters).tolist() == [0]
        both = np.array([[0b1000], [0b1000]], dtype=np.uint16)
        assert VoterMatrix.grt(both).tolist() == [0b1000]

    @given(
        hnp.arrays(dtype=np.uint16, shape=(4, 5)),
    )
    def test_unanimous_subset_of_grt(self, voters):
        una = VoterMatrix.unanimous(voters)
        grt = VoterMatrix.grt(voters)
        assert np.all((una & grt) == una)
