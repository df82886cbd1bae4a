import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from essnorm_lab.lpspace import StepFunction, norm_p, normalized_indicator
from essnorm_lab.measure import build_space

P_VALUES = (1.0, 1.5, 2.0, 3.0)


def coeff_arrays(dim, max_abs=10.0):
    return st.lists(
        st.floats(min_value=-max_abs, max_value=max_abs, allow_nan=False),
        min_size=dim,
        max_size=dim,
    )


class TestNormP:
    def test_p1_sum_of_masses(self):
        space = build_space((1.0, 1.0))
        f = StepFunction([1.0, 1.0], space)
        assert norm_p(f, 1.0) == 2.0

    @pytest.mark.parametrize("p", P_VALUES)
    def test_constant_one_on_unit_interval(self, p):
        space = build_space(diffuse_interval=(0.0, 1.0), diffuse_level=5)
        f = StepFunction.constant(1.0, space)
        assert norm_p(f, p) == 1.0

    def test_euclidean_case(self):
        # (9 + 16)^(1/2) evaluated directly
        space = build_space((1.0, 1.0))
        f = StepFunction([3.0, -4.0], space)
        assert norm_p(f, 2.0) == pytest.approx(5.0, abs=1e-15)

    @pytest.mark.parametrize("p", [0.5, 0.0, -1.0, float("inf")])
    def test_bad_p_rejected(self, p):
        space = build_space((1.0,))
        with pytest.raises(ValueError, match="p must be"):
            norm_p(StepFunction([1.0], space), p)

    def test_zero_iff_zero(self):
        space = build_space((1.0, 2.0, 0.5))
        assert norm_p(StepFunction.constant(0.0, space), 2.0) == 0.0
        assert norm_p(StepFunction([0.0, 1e-30, 0.0], space), 1.0) > 0.0


class TestNormalizedIndicator:
    def test_single_atom_p1(self):
        space = build_space((0.25,))
        f = normalized_indicator(space, [0], 1.0)
        assert f.coefficients[0] == 4.0
        assert norm_p(f, 1.0) == 1.0

    def test_whole_interval_any_p(self):
        space = build_space(diffuse_interval=(0.0, 1.0), diffuse_level=4)
        for p in P_VALUES:
            f = normalized_indicator(space, range(16), p)
            np.testing.assert_array_equal(f.coefficients, np.ones(16))

    def test_two_eighth_cells_p2(self):
        # mass 1/4, exponent -1/2 -> coefficient 2
        space = build_space(diffuse_interval=(0.0, 1.0), diffuse_level=3)
        f = normalized_indicator(space, [2, 5], 2.0)
        assert f.coefficients[2] == 2.0
        assert f.coefficients[5] == 2.0
        assert np.count_nonzero(f.coefficients) == 2

    def test_empty_set_rejected(self):
        space = build_space((1.0,))
        with pytest.raises(ValueError, match="nonempty"):
            normalized_indicator(space, [], 1.0)

    def test_out_of_range_rejected(self):
        space = build_space((1.0, 1.0))
        with pytest.raises(ValueError, match="out of range"):
            normalized_indicator(space, [2], 1.0)

    def test_unit_norm_random_masses(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            masses = rng.uniform(0.05, 3.0, 6)
            space = build_space(masses)
            idx = rng.choice(6, size=rng.integers(1, 7), replace=False)
            for p in P_VALUES:
                f = normalized_indicator(space, idx, p)
                assert norm_p(f, p) == pytest.approx(1.0, abs=1e-12)

    def test_unit_norm_exact_dyadic_p1(self):
        space = build_space(diffuse_interval=(0.0, 1.0), diffuse_level=5)
        f = normalized_indicator(space, [3, 4], 1.0)
        assert norm_p(f, 1.0) == 1.0


class TestStandardIsometry:
    @settings(max_examples=40, deadline=None)
    @given(coeffs=coeff_arrays(5), p=st.sampled_from(P_VALUES))
    def test_isometry(self, coeffs, p):
        space = build_space((1.0, 0.5, 0.25, 2.0, 0.125))
        f = StepFunction(coeffs, space)
        std = f.coefficients * space.masses ** (1.0 / p)
        unweighted = float(np.sum(np.abs(std) ** p)) ** (1.0 / p)
        assert unweighted == pytest.approx(norm_p(f, p), rel=1e-12, abs=1e-13)


class TestVectorAlgebra:
    @settings(max_examples=40, deadline=None)
    @given(a=coeff_arrays(4), b=coeff_arrays(4), p=st.sampled_from(P_VALUES))
    def test_triangle_inequality(self, a, b, p):
        space = build_space((1.0, 0.5, 1.5, 0.25))
        f, g = StepFunction(a, space), StepFunction(b, space)
        assert norm_p(StepFunction(f.coefficients + g.coefficients, space), p) <= norm_p(f, p) + norm_p(g, p) + 1e-12

    @settings(max_examples=40, deadline=None)
    @given(a=coeff_arrays(4), c=st.floats(-5, 5, allow_nan=False), p=st.sampled_from(P_VALUES))
    def test_absolute_homogeneity(self, a, c, p):
        space = build_space((1.0, 0.5, 1.5, 0.25))
        f = StepFunction(a, space)
        assert norm_p(StepFunction(f.coefficients * c, space), p) == pytest.approx(abs(c) * norm_p(f, p), rel=1e-12, abs=1e-12)

    def test_length_mismatch_rejected(self):
        space = build_space((1.0, 1.0))
        with pytest.raises(ValueError, match="length"):
            StepFunction([1.0], space)


class TestLeftToRightSums:
    def test_p1_norm_matches_python_accumulation(self):
        rng = np.random.default_rng(1)
        space = build_space(rng.uniform(0.1, 2.0, 257))
        f = StepFunction(rng.uniform(-1, 1, 257), space)
        acc = 0.0
        for c, m in zip(f.coefficients, space.masses):
            acc += abs(c) * m
        assert norm_p(f, 1.0) == acc

    def test_p1_indicator_mass_matches_python_accumulation(self):
        rng = np.random.default_rng(3)
        space = build_space(rng.uniform(0.1, 2.0, 300))
        idx = np.sort(rng.choice(300, 200, replace=False))
        mass = 0.0
        for m in space.masses[idx]:
            mass += m
        # the data tell the two orders apart: numpy's pairwise sum differs
        assert float(np.sum(space.masses[idx])) != mass
        f = normalized_indicator(space, idx, 1.0)
        np.testing.assert_array_equal(f.coefficients[idx], 1.0 / mass)
