import numpy as np
import pytest

from essnorm_lab.lattice import (
    centre_decay_under_refinement,
    centre_project,
    join,
    meet,
    modulus,
    regular_norm,
)
from essnorm_lab.lpspace import StepFunction
from essnorm_lab.measure import build_space
from essnorm_lab.operators import (
    MatrixOperator,
    mult_op,
    opnorm_estimate,
    opnorm_p1,
    rank_one_atomic_offdiag,
)


def unit_atoms(n):
    return build_space(np.ones(n))


def join_meet_oracle(S, T, n_grid=41):
    """Columnwise sup/inf over the one-parameter decompositions of e_j.

    Splitting e_j = g + h with g, h >= 0 forces g = t e_j, so the defining
    sup of the lattice operations reduces to extremizing
    t S[:, j] + (1 - t) T[:, j] over t in [0, 1], coordinatewise.
    """
    ts = np.linspace(0.0, 1.0, n_grid)
    cand = ts[None, None, :] * S[:, :, None] + (1 - ts[None, None, :]) * T[:, :, None]
    return cand.max(axis=2), cand.min(axis=2)


def modulus_sup_oracle(S, f, steps=9):
    """Brute-force sup of |S g| over a grid of g with |g| <= f."""
    n = S.shape[1]
    axes = [np.linspace(-fi, fi, steps) for fi in f]
    grids = np.meshgrid(*axes, indexing="ij")
    gs = np.stack([g.ravel() for g in grids], axis=0)
    return np.max(np.abs(S @ gs), axis=1)


class TestModulus:
    def test_entrywise(self):
        S = MatrixOperator([[-1.0, 2.0], [-3.0, 0.0]], unit_atoms(2))
        np.testing.assert_array_equal(modulus(S).entries, [[1.0, 2.0], [3.0, 0.0]])

    def test_fixes_positive(self):
        S = MatrixOperator([[1.0, 0.5], [0.0, 2.0]], unit_atoms(2))
        np.testing.assert_array_equal(modulus(S).entries, S.entries)

    def test_against_sup_oracle_on_ones(self):
        S = MatrixOperator([[-1.0, 2.0], [-3.0, 0.0]], unit_atoms(2))
        applied = modulus(S).matvec(np.ones(2))
        np.testing.assert_array_equal(applied, [3.0, 3.0])
        oracle = modulus_sup_oracle(S.entries, np.ones(2))
        np.testing.assert_allclose(applied, oracle, atol=1e-12)

    def test_sup_oracle_random_3x3(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            S = rng.uniform(-1, 1, (3, 3))
            f = rng.uniform(0.2, 1.5, 3)
            oracle = modulus_sup_oracle(S, f)
            np.testing.assert_allclose(np.abs(S) @ f, oracle, atol=1e-6)


class TestJoinMeet:
    def test_join_example(self):
        S = MatrixOperator([[1.0, 0.0], [0.0, 1.0]], unit_atoms(2))
        T = MatrixOperator([[0.0, 2.0], [0.0, 0.0]], unit_atoms(2))
        np.testing.assert_array_equal(join(S, T).entries, [[1.0, 2.0], [0.0, 1.0]])

    def test_meet_idempotent(self):
        rng = np.random.default_rng(9)
        S = MatrixOperator(rng.uniform(-1, 1, (3, 3)), unit_atoms(3))
        np.testing.assert_array_equal(meet(S, S).entries, S.entries)

    def test_identity_disjoint_from_offdiag_rank_one(self):
        space = unit_atoms(3)
        eta = StepFunction([0.5, 1.0, 2.0], space)
        K = rank_one_atomic_offdiag(1, eta)
        I = mult_op(StepFunction.constant(1.0, space))
        np.testing.assert_array_equal(meet(I, K).entries, np.zeros((3, 3)))

    def test_dimension_mismatch_rejected(self):
        S = mult_op(StepFunction.constant(1.0, unit_atoms(2)))
        T = mult_op(StepFunction.constant(1.0, unit_atoms(3)))
        with pytest.raises(ValueError, match="different spaces"):
            join(S, T)

    def test_against_decomposition_oracle(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            space = unit_atoms(4)
            S = MatrixOperator(rng.uniform(-1, 1, (4, 4)), space)
            T = MatrixOperator(rng.uniform(-1, 1, (4, 4)), space)
            oj, om = join_meet_oracle(S.entries, T.entries)
            np.testing.assert_allclose(join(S, T).entries, oj, atol=1e-9)
            np.testing.assert_allclose(meet(S, T).entries, om, atol=1e-9)


class TestRegularNorm:
    def test_p1_example(self):
        S = MatrixOperator([[1.0, -2.0], [3.0, 4.0]], unit_atoms(2))
        assert regular_norm(S, 1.0) == 6.0
        assert regular_norm(S, 1.0) == opnorm_p1(S)

    def test_positive_operator(self):
        S = MatrixOperator([[1.0, 2.0], [0.5, 0.25]], unit_atoms(2))
        assert regular_norm(S, 1.0) == opnorm_p1(S)

    def test_diagonal(self):
        space = build_space((0.5, 2.0))
        M = mult_op(StepFunction([3.0, -7.0], space))
        for p in (1.0, 1.5, 2.0, 3.0):
            assert regular_norm(M, p) == 7.0

    def test_dominates_opnorm(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            space = build_space(rng.uniform(0.1, 2.0, 4))
            S = MatrixOperator(rng.uniform(-1, 1, (4, 4)), space)
            assert opnorm_p1(S) <= regular_norm(S, 1.0) * (1 + 1e-14)
            # p = 1 equality: |S| has the same weighted column sums as S
            assert opnorm_p1(S) == regular_norm(S, 1.0)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_dominates_opnorm_general_p(self, p):
        rng = np.random.default_rng(19)
        for _ in range(20):
            space = build_space(rng.uniform(0.1, 2.0, 4))
            S = MatrixOperator(rng.uniform(-1, 1, (4, 4)), space)
            assert opnorm_estimate(S, p) <= regular_norm(S, p) * (1 + 1e-9)


class TestCentreProject:
    def test_diagonal_split(self):
        S = MatrixOperator([[1.0, 2.0], [3.0, 4.0]], unit_atoms(2))
        dec = centre_project(S)
        np.testing.assert_array_equal(dec.centre_part.u_values, [1.0, 4.0])
        np.testing.assert_array_equal(dec.disjoint_part.entries, [[0.0, 2.0], [3.0, 0.0]])

    def test_parts_sum_back_exactly(self):
        rng = np.random.default_rng(13)
        S = MatrixOperator(rng.uniform(-1, 1, (5, 5)), unit_atoms(5))
        dec = centre_project(S)
        np.testing.assert_array_equal((dec.centre_part + dec.disjoint_part).entries, S.entries)

    def test_offdiag_rank_one_has_no_centre(self):
        space = unit_atoms(3)
        K = rank_one_atomic_offdiag(2, StepFunction([1.0, 2.0, 3.0], space))
        dec = centre_project(K)
        np.testing.assert_array_equal(dec.centre_part.u_values, np.zeros(3))

    def test_multiplication_operator_is_fixed(self):
        space = build_space((1.0, 0.5))
        M = mult_op(StepFunction([2.0, -3.0], space))
        dec = centre_project(M)
        np.testing.assert_array_equal(dec.centre_part.entries, M.entries)
        np.testing.assert_array_equal(dec.disjoint_part.entries, np.zeros((2, 2)))

    def test_idempotent_and_linear(self):
        rng = np.random.default_rng(14)
        space = unit_atoms(4)
        S = MatrixOperator(rng.uniform(-1, 1, (4, 4)), space)
        T = MatrixOperator(rng.uniform(-1, 1, (4, 4)), space)
        PS = centre_project(S).centre_part
        again = centre_project(PS)
        np.testing.assert_array_equal(again.centre_part.entries, PS.entries)
        np.testing.assert_array_equal(again.disjoint_part.entries, np.zeros((4, 4)))
        combo = MatrixOperator(2.0 * S.entries + (-3.0) * T.entries, space)
        left = centre_project(combo).centre_part.entries
        right = 2.0 * PS.entries + (-3.0) * centre_project(T).centre_part.entries
        np.testing.assert_allclose(left, right, rtol=1e-15)

    def test_zero_diagonal_iff_meets_identity_at_zero(self):
        rng = np.random.default_rng(15)
        space = unit_atoms(4)
        S = MatrixOperator(rng.uniform(0.1, 1.0, (4, 4)), space)
        I = mult_op(StepFunction.constant(1.0, space))
        assert np.any(meet(modulus(S), I).entries != 0.0)
        hollow = S.entries.copy()
        np.fill_diagonal(hollow, 0.0)
        H = MatrixOperator(hollow, space)
        np.testing.assert_array_equal(meet(modulus(H), I).entries, np.zeros((4, 4)))

    def test_contractive_at_p1(self):
        # |PS| = max |S_ii| never exceeds the exact L1 norm
        rng = np.random.default_rng(16)
        for _ in range(50):
            space = build_space(rng.uniform(0.1, 2.0, 5))
            S = MatrixOperator(rng.uniform(-1, 1, (5, 5)), space)
            assert centre_project(S).centre_part.opnorm <= opnorm_p1(S)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_contractive_for_general_p(self, p):
        rng = np.random.default_rng(17)
        for _ in range(20):
            space = build_space(rng.uniform(0.1, 2.0, 4))
            S = MatrixOperator(rng.uniform(-1, 1, (4, 4)), space)
            assert centre_project(S).centre_part.opnorm <= opnorm_estimate(S, p)

    def test_mu_plus_hollow_dominates_sup_of_u(self):
        # adding a zero-diagonal perturbation cannot shrink the exact L1
        # norm below max |u_i|, since the diagonal survives the projection
        rng = np.random.default_rng(18)
        for _ in range(50):
            space = build_space(rng.uniform(0.1, 2.0, 5))
            u = StepFunction(rng.uniform(-1, 1, 5), space)
            K = rng.uniform(-1, 1, (5, 5))
            np.fill_diagonal(K, 0.0)
            S = mult_op(u) + MatrixOperator(K, space)
            assert opnorm_p1(S) >= np.max(np.abs(u.coefficients))


class TestCentreDecay:
    def test_exact_halving(self):
        values = centre_decay_under_refinement(1.0, 1.0, [3, 4, 5])
        assert values == [2.0**-3, 2.0**-4, 2.0**-5]

    def test_zero_eta(self):
        values = centre_decay_under_refinement(0.0, 1.0, [1, 2, 3])
        assert values == [0.0, 0.0, 0.0]

    def test_callable_factors_decay(self):
        values = centre_decay_under_refinement(
            lambda x: 1.0 + x, lambda x: np.sin(3 * x) + 2.0, range(1, 9)
        )
        assert all(b < a for a, b in zip(values, values[1:]))
        assert values[-1] < values[0] / 50.0

    def test_general_interval(self):
        values = centre_decay_under_refinement(1.0, 1.0, [2], interval=(0.0, 2.0))
        assert values == [2.0 * 2.0**-2]

    def test_matches_full_band_projection_pipeline(self):
        from essnorm_lab.operators import rank_one_diffuse

        eta_fn = lambda x: 1.0 + 0.5 * x
        g_fn = lambda x: np.cos(2 * x)
        for level in (2, 5, 8):
            space = build_space(diffuse_interval=(0.0, 1.0), diffuse_level=level)
            eta = StepFunction.from_function(space, eta_fn)
            g = StepFunction.from_function(space, g_fn)
            full = centre_project(rank_one_diffuse(eta, g)).centre_part.opnorm
            short = centre_decay_under_refinement(eta_fn, g_fn, [level])[0]
            assert short == full
