import numpy as np
import pytest

from essnorm_lab import operators
from essnorm_lab._pcg64 import _pcg64_raw, _pcg64_states, _seed_words
from essnorm_lab.lattice import regular_norm
from essnorm_lab.lpspace import StepFunction, norm_p, normalized_indicator
from essnorm_lab.measure import build_space
from essnorm_lab.operators import (
    FunctionKernel,
    MatrixOperator,
    _MAX_ITER,
    _block_ascent,
    _horner,
    _quotients_on,
    _upper_bound_on,
    mult_op,
    opnorm_estimate,
    opnorm_p1,
    opnorm_upper_bound,
    p1_column_quotients,
    pinch,
    rank_one_atomic_offdiag,
    rank_one_diffuse,
)


def unit_atoms(n):
    return build_space(np.ones(n))


def identity(space):
    return mult_op(StepFunction.constant(1.0, space))


def apply(A, f):
    return StepFunction(A.matvec(f.coefficients), f.space)


def brute_force_p1_norm(A, n_random=500, seed=0):
    """Max of |Af|_1 over unit-ball points: every +-normalized indicator
    (the extreme points at p = 1) plus random convex combinations."""
    space = A.space
    best = 0.0
    for j in range(A.dimension):
        for sign in (1.0, -1.0):
            f = StepFunction(normalized_indicator(space, [j], 1.0).coefficients * sign, space)
            best = max(best, norm_p(apply(A, f), 1.0))
    rng = np.random.default_rng(seed)
    for _ in range(n_random):
        coeffs = rng.uniform(-1, 1, A.dimension)
        f = StepFunction(coeffs, space)
        n = norm_p(f, 1.0)
        if n > 0:
            best = max(best, norm_p(apply(A, f), 1.0) / n)
    return best


class TestMultOp:
    def test_pointwise_product(self):
        space = unit_atoms(2)
        M = mult_op(StepFunction([3.0, -5.0], space))
        out = apply(M, StepFunction([1.0, 1.0], space))
        np.testing.assert_array_equal(out.coefficients, [3.0, -5.0])

    def test_zero_symbol(self):
        space = unit_atoms(3)
        M = mult_op(StepFunction.constant(0.0, space))
        np.testing.assert_array_equal(M.entries, np.zeros((3, 3)))

    def test_one_symbol_is_identity(self):
        space = unit_atoms(3)
        M = mult_op(StepFunction.constant(1.0, space))
        np.testing.assert_array_equal(M.entries, np.eye(3))

    def test_diagonal_structure(self):
        space = build_space((1.0, 0.5))
        M = mult_op(StepFunction([2.0, 7.0], space))
        np.testing.assert_array_equal(M.entries, [[2.0, 0.0], [0.0, 7.0]])


class TestRankOneDiffuse:
    def test_single_cell(self):
        space = build_space(diffuse_interval=(0.0, 1.0), diffuse_level=0)
        one = StepFunction.constant(1.0, space)
        K = rank_one_diffuse(one, one)
        np.testing.assert_array_equal(K.entries, [[1.0]])

    def test_level_one_entries_half(self):
        space = build_space(diffuse_interval=(0.0, 1.0), diffuse_level=1)
        one = StepFunction.constant(1.0, space)
        K = rank_one_diffuse(one, one)
        np.testing.assert_array_equal(K.entries, np.full((2, 2), 0.5))

    def test_zero_eta(self):
        space = unit_atoms(3)
        K = rank_one_diffuse(StepFunction.constant(0.0, space), StepFunction.constant(1.0, space))
        np.testing.assert_array_equal(K.entries, np.zeros((3, 3)))

    def test_rank_at_most_one(self):
        rng = np.random.default_rng(3)
        space = build_space(rng.uniform(0.1, 2.0, 4))
        eta = StepFunction(rng.uniform(-1, 1, 4), space)
        g = StepFunction(rng.uniform(-1, 1, 4), space)
        K = rank_one_diffuse(eta, g).entries
        # every 2x2 minor vanishes
        for i in range(4):
            for k in range(i + 1, 4):
                for j in range(4):
                    for l in range(j + 1, 4):
                        minor = K[i, j] * K[k, l] - K[i, l] * K[k, j]
                        assert abs(minor) < 1e-14

    def test_apply_is_integral_times_g(self):
        space = build_space((0.5, 0.25, 2.0))
        eta = StepFunction([1.0, -2.0, 0.5], space)
        g = StepFunction([3.0, 0.0, 1.0], space)
        f = StepFunction([1.0, 1.0, -1.0], space)
        integral = float(np.sum(eta.coefficients * f.coefficients * space.masses))
        out = apply(rank_one_diffuse(eta, g), f)
        np.testing.assert_allclose(out.coefficients, integral * g.coefficients, rtol=1e-15)


class TestRankOneAtomicOffdiag:
    def test_two_atoms(self):
        space = unit_atoms(2)
        K = rank_one_atomic_offdiag(0, StepFunction.constant(1.0, space))
        np.testing.assert_array_equal(K.entries, [[0.0, 1.0], [0.0, 0.0]])

    def test_weighted_row(self):
        space = build_space((1.0, 1.0, 2.0))
        K = rank_one_atomic_offdiag(1, StepFunction.constant(1.0, space))
        np.testing.assert_array_equal(K.entries[1], [1.0, 0.0, 2.0])
        np.testing.assert_array_equal(K.entries[0], np.zeros(3))
        np.testing.assert_array_equal(K.entries[2], np.zeros(3))

    def test_zero_eta(self):
        space = unit_atoms(2)
        K = rank_one_atomic_offdiag(1, StepFunction.constant(0.0, space))
        np.testing.assert_array_equal(K.entries, np.zeros((2, 2)))

    def test_diffuse_space_rejected(self):
        space = build_space((1.0,), diffuse_interval=(0, 1), diffuse_level=1)
        with pytest.raises(ValueError, match="atomic"):
            rank_one_atomic_offdiag(0, StepFunction.constant(1.0, space))

    def test_index_out_of_range(self):
        space = unit_atoms(2)
        with pytest.raises(ValueError, match="out of range"):
            rank_one_atomic_offdiag(5, StepFunction.constant(0.0, space))


class TestOpnormP1:
    def test_frozen_example(self):
        A = MatrixOperator([[1.0, -2.0], [3.0, 4.0]], unit_atoms(2))
        assert opnorm_p1(A) == 6.0
        assert opnorm_p1(A) == pytest.approx(brute_force_p1_norm(A), rel=1e-12)

    def test_identity_any_masses(self):
        space = build_space((0.3, 1.7, 0.01))
        assert opnorm_p1(identity(space)) == 1.0

    def test_multiplication_operator(self):
        space = build_space((0.3, 1.7))
        M = mult_op(StepFunction([3.0, -5.0], space))
        assert opnorm_p1(M) == 5.0

    def test_against_brute_force_random(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            space = build_space(rng.uniform(0.1, 2.0, 3))
            A = MatrixOperator(rng.uniform(-1, 1, (3, 3)), space)
            exact = opnorm_p1(A)
            brute = brute_force_p1_norm(A, n_random=200, seed=5)
            assert brute <= exact * (1 + 1e-12)
            assert exact == pytest.approx(brute, rel=1e-9)

    def test_column_quotients_are_indicator_ratios(self):
        rng = np.random.default_rng(12)
        space = build_space(rng.uniform(0.1, 2.0, 4))
        A = MatrixOperator(rng.uniform(-1, 1, (4, 4)), space)
        quot = p1_column_quotients(A)
        for j in range(4):
            f = normalized_indicator(space, [j], 1.0)
            assert norm_p(apply(A, f), 1.0) == pytest.approx(quot[j], rel=1e-13)


def brute_force_pnorm_2x2(A, p, n_grid=20001):
    """Induced p-norm of a 2x2 standard-coordinate matrix over a fine
    parametrization of the unit p-sphere."""
    t = np.linspace(0, 2 * np.pi, n_grid)
    x = np.stack([np.cos(t), np.sin(t)])
    scale = (np.abs(x[0]) ** p + np.abs(x[1]) ** p) ** (1.0 / p)
    x = x / scale
    y = A @ x
    return float(np.max((np.abs(y[0]) ** p + np.abs(y[1]) ** p) ** (1.0 / p)))


class TestOpnormEstimate:
    def test_diagonal_attained(self):
        space = unit_atoms(2)
        M = mult_op(StepFunction([3.0, -5.0], space))
        assert opnorm_estimate(M, 2.0) == 5.0

    def test_swap_matrix(self):
        A = MatrixOperator([[0.0, 1.0], [1.0, 0.0]], unit_atoms(2))
        assert opnorm_estimate(A, 2.0) == 1.0

    def test_delegates_at_p1(self):
        rng = np.random.default_rng(21)
        space = build_space(rng.uniform(0.1, 2.0, 4))
        A = MatrixOperator(rng.uniform(-1, 1, (4, 4)), space)
        assert opnorm_estimate(A, 1.0) == opnorm_p1(A)

    def test_bad_p_rejected(self):
        A = identity(unit_atoms(2))
        with pytest.raises(ValueError, match="p must be"):
            opnorm_estimate(A, 0.5)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_sound_and_sharp_on_2x2(self, p):
        rng = np.random.default_rng(31)
        for _ in range(20):
            A = MatrixOperator(rng.uniform(-1, 1, (2, 2)), unit_atoms(2))
            est = opnorm_estimate(A, p)
            true = brute_force_pnorm_2x2(A.entries, p)
            assert est <= true + 1e-6  # lower bound up to oracle resolution
            assert est >= true - 1e-6  # power method actually converges here

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_sound_on_3x3_weighted(self, p):
        rng = np.random.default_rng(32)
        for _ in range(10):
            space = build_space(rng.uniform(0.1, 2.0, 3))
            A = MatrixOperator(rng.uniform(-1, 1, (3, 3)), space)
            est = opnorm_estimate(A, p)
            # ratio sampling can only stay below the true norm,
            # so the estimate must dominate every sampled quotient
            # only up to the estimator's own guarantee; check soundness
            # against random quotients instead
            for _ in range(200):
                f = StepFunction(rng.uniform(-1, 1, 3), space)
                n = norm_p(f, p)
                if n > 0:
                    assert norm_p(apply(A, f), p) / n <= est * (1 + 1e-9) + 1e-12

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_non_finite_entry_rejected(self, p, bad):
        A = MatrixOperator([[1.0, bad], [0.0, 1.0]], build_space([1.0, 1.0]))
        with pytest.raises(ValueError, match="non-finite"):
            opnorm_estimate(A, p)
        with pytest.raises(ValueError, match="non-finite"):
            regular_norm(A, p)

    def test_non_finite_entry_at_p1_is_opnorm_p1s(self):
        A = MatrixOperator([[1.0, np.nan], [0.0, 1.0]], build_space([1.0, 1.0]))
        assert np.isnan(opnorm_estimate(A, 1.0)) and np.isnan(opnorm_p1(A))

    def test_ascent_runs_only_at_p_other_than_1_and_2(self, monkeypatch):
        seen = []
        ascent = operators._block_ascent

        def spy(B, p, *rest):
            seen.append(p)
            return ascent(B, p, *rest)

        monkeypatch.setattr(operators, "_block_ascent", spy)
        A = MatrixOperator(np.arange(9.0).reshape(3, 3), build_space((0.5, 1.0, 2.0)))
        for p in (1.0, 1.5, 2.0, 3.0):
            opnorm_estimate(A, p)
        assert seen == [1.5, 3.0]

    def test_diagonal_floor(self):
        # max |A_ii| is a certified lower bound at every p
        rng = np.random.default_rng(33)
        for p in (1.5, 2.0, 3.0):
            for _ in range(20):
                space = build_space(rng.uniform(0.1, 2.0, 5))
                A = MatrixOperator(rng.uniform(-1, 1, (5, 5)), space)
                assert np.max(np.abs(np.diag(A.entries))) <= opnorm_estimate(A, p)

    @pytest.mark.parametrize(
        "scale, p", [(2.0, 1e4), (2.0, 2000.0), (1.0, 2000.0), (1e103, 3.0), (1e200, 2.0)]
    )
    def test_finite_and_bracketed_where_powers_overflow(self, scale, p):
        # |B|^p overflows here: the estimate is taken on B scaled by a power of two
        E = np.random.default_rng(1).uniform(-1, 1, (6, 6))
        A = MatrixOperator(E * scale, build_space(np.ones(6)))
        upper = opnorm_upper_bound(A, p)
        est = opnorm_estimate(A, p)
        assert np.max(np.abs(np.diag(A.entries))) <= est <= upper * (1.0 + 1e-12)
        assert np.isfinite(upper) and np.isfinite(regular_norm(A, p))

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_scaled_estimate_follows_the_unscaled_arithmetic(self, p):
        rng = np.random.default_rng(2)
        E = rng.uniform(-1, 1, (6, 6))
        space = build_space(rng.uniform(0.1, 2.0, 6))
        # E 2^600 is scaled down and its quotient scaled back
        base = opnorm_estimate(MatrixOperator(E, space), p)
        est = opnorm_estimate(MatrixOperator(E * 2.0**600, space), p)
        assert est == pytest.approx(base * 2.0**600, rel=1e-13, abs=0.0)
        if p == 2.0:
            return
        # E 2^-300 is scaled up, and the floor 1 of the convergence test
        # with it: every seed stops where the per-seed loop stops unscaled,
        # after two steps, as the absolute tolerance 1e-12 swamps it
        A = MatrixOperator(E * 2.0**-300, space)
        B = isometric_image(A, p)
        oracle = float(np.max(reference_seed_values(A, p, loop=reference_ascent)))
        col_floor = float(np.max(np.sum(np.abs(B) ** p, axis=0) ** (1.0 / p)))
        assert opnorm_estimate(A, p) == pytest.approx(max(oracle, col_floor), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_extreme_magnitudes_stay_finite(self, p):
        space = build_space(np.ones(4))
        # a norm above the largest float reads as the largest float
        huge = opnorm_estimate(MatrixOperator(np.full((4, 4), 1e308), space), p)
        assert huge == np.finfo(float).max
        # subnormal entries: a finite bound at least the diagonal floor
        tiny = np.diag([5e-324, 1e-320, 0.0, 0.0]) + 1e-315
        est = opnorm_estimate(MatrixOperator(tiny, space), p)
        assert np.isfinite(est) and est >= 1e-315 + 1e-320


def reference_ascent(B, p, x, max_iter=100, tol=1e-12):
    """The p-norm dual ascent from one seed, run on its own.

    Best attained quotient and termination reason, in the per-seed loop
    that the block ascent replaced: the historical oracle that the block's
    best value is gated against.
    """

    def pnorm(v, r):
        return float(np.sum(np.abs(v) ** r) ** (1.0 / r))

    q = p / (p - 1.0)
    x = x / pnorm(x, p)
    best = 0.0
    prev = -1.0
    for _ in range(max_iter):
        y = B @ x
        gamma = pnorm(y, p)
        if gamma == 0.0:
            return best, "zero"
        best = max(best, gamma)
        xi = np.sign(y) * np.abs(y) ** (p - 1.0) / gamma ** (p - 1.0)
        z = B.T @ xi
        zeta = pnorm(z, q)
        if zeta <= float(z @ x) * (1.0 + 1e-14):
            return best, "stationary"
        if prev >= 0.0 and abs(gamma - prev) <= tol * max(gamma, 1.0):
            return best, "converged"
        prev = gamma
        x = np.sign(z) * np.abs(z) ** (q - 1.0) / zeta ** (q - 1.0)
    return best, "max_iter"


def step_ascent(B, p, x, max_iter=100, tol=1e-12):
    """One seed of the block ascent's step, run on its own.

    One power per half-step: t = |y|^(p-1) gives the unnormalized dual
    vector sign(y) t and s = |y|_p^p; u = |z|^(q-1) gives the next iterate
    and |z|_q^q.  Stationary when |z|_q <= s (1 + 1e-14), since
    <z, x> = s; converged when the quotient is at most
    tol * max(previous, 1) above the previous one.
    """
    q = p / (p - 1.0)
    x = x / float(np.sum(np.abs(x) ** p) ** (1.0 / p))
    best = 0.0
    bound = None
    for _ in range(max_iter):
        y = B @ x
        t = np.abs(y) ** (p - 1.0)
        s = float(np.sum(t * np.abs(y)))
        gamma = s ** (1.0 / p)
        best = max(best, gamma)
        z = B.T @ np.copysign(t, y)
        u = np.abs(z) ** (q - 1.0)
        r = float(np.sum(u * np.abs(z)))
        stationary = r ** (1.0 / q) <= s * (1.0 + 1e-14)
        if stationary or (bound is not None and gamma <= bound):
            return best, "zero" if s == 0.0 else "stationary" if stationary else "converged"
        bound = gamma + tol * max(gamma, 1.0)
        x = np.copysign(u, z) / r ** (1.0 / p)
    return best, "max_iter"


def isometric_image(A, p):
    w = A.space.masses ** (1.0 / p)
    return (w[:, None] * A.entries) / w[None, :]


def reference_seed_values(A, p, max_iter=100, loop=step_ascent):
    """Per-seed values of ``loop`` over the seeds 1, e_1, ..., e_n."""
    B = isometric_image(A, p)
    n = A.dimension
    seeds = [np.ones(n)] + [np.eye(n)[:, j] for j in range(n)]
    return np.array([loop(B, p, x, max_iter)[0] for x in seeds])


def random_ensemble(seed, trials, step=1):
    """Every step-th 6 x 6 operator drawn as the estimator benchmark draws
    them: default_rng([seed, t]), masses on U[0.1, 2], then entries on
    U[-1, 1]."""
    ops = []
    for t in range(0, trials, step):
        rng = np.random.default_rng([seed, t])
        space = build_space(rng.uniform(0.1, 2.0, 6))
        ops.append(MatrixOperator(rng.uniform(-1.0, 1.0, (6, 6)), space))
    return ops


def criterion_4_ensemble(step=5):
    """Every step-th operator of the acceptance suite's criterion-4 ensemble."""
    return random_ensemble(20103, 500, step)


def refine_operator(level, kernel_seed=7):
    """M_u + K with u the identity on [0, 1] and a rank-3 kernel."""
    space = build_space(diffuse_interval=(0.0, 1.0), diffuse_level=level)
    u = StepFunction.from_function(space, lambda x: x)
    return mult_op(u) + FunctionKernel.random_polynomial(3, kernel_seed).discretize(space)


class TestBlockAscent:
    def check_against_reference(self, A, p):
        max_iter = operators._MAX_ITER
        B = isometric_image(A, p)
        values, reasons = _block_ascent(B, p)
        expected = reference_seed_values(A, p, max_iter)
        assert len(reasons) == A.dimension + 1
        np.testing.assert_allclose(values, expected, rtol=1e-13, atol=0.0)
        if max_iter == _MAX_ITER:  # the only ascent opnorm_estimate runs
            diag_floor = float(np.max(np.abs(np.diag(A.entries))))
            col_floor = float(np.max(np.sum(np.abs(B) ** p, axis=0) ** (1.0 / p)))
            est = opnorm_estimate(A, p)
            assert est >= diag_floor and est >= col_floor
            lower = max(diag_floor, col_floor, float(np.max(expected)))
            if p == 2.0:
                # the quotient of the leading singular vector: at least what
                # the ascent reaches, at most the spectral norm
                assert lower * (1.0 - 1e-15) <= est <= np.linalg.norm(B, 2) * (1.0 + 1e-13)
            else:
                assert est == pytest.approx(lower, rel=1e-13)
        return reasons

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_matches_per_seed_loop_on_criterion_4_ensemble(self, p):
        for A in criterion_4_ensemble():
            self.check_against_reference(A, p)

    @pytest.mark.parametrize("level", [4, 5, 6, 7, 8])
    def test_matches_per_seed_loop_on_witness_operators(self, level):
        # level 8 runs every seed for max_iter steps: p = 2 only
        for p in (1.5, 2.0, 3.0) if level < 8 else (2.0,):
            self.check_against_reference(refine_operator(level), p)

    @pytest.mark.parametrize("p", [1.5, 3.0])
    @pytest.mark.parametrize(
        "ops",
        [
            criterion_4_ensemble,
            lambda: random_ensemble(1515, 50),
            lambda: [refine_operator(level) for level in (4, 5, 6, 7)],
        ],
        ids=["criterion_4", "estimator_draws", "refine_4_to_7"],
    )
    def test_not_below_historical_oracle(self, ops, p):
        # the best seed value of the block, and the estimate, against the
        # best over all seeds of the per-seed loop that the block replaced
        for A in ops():
            oracle = float(np.max(reference_seed_values(A, p, loop=reference_ascent)))
            values, _ = _block_ascent(isometric_image(A, p), p)
            assert float(np.max(values)) >= oracle * (1.0 - 1e-12)
            assert opnorm_estimate(A, p) >= oracle * (1.0 - 1e-12)

    def test_p2_reaches_spectral_norm_at_level_8(self):
        # the ascent stops 2.0e-5 relative short here (0.9974364)
        A = refine_operator(8)
        est = opnorm_estimate(A, 2.0)
        assert 0.99745 <= est <= np.linalg.norm(isometric_image(A, 2.0), 2) * (1.0 + 1e-13)

    def test_termination_reasons(self):
        # the level-8 refine operator: every seed is still climbing after
        # max_iter steps, which is why the ascent stops short of the
        # spectral norm
        A = refine_operator(8)
        _, reasons = _block_ascent(isometric_image(A, 2.0), 2.0)
        assert reasons.tolist() == ["max_iter"] * 257
        # a diagonal operator: every indicator seed is a local maximizer
        u = StepFunction.from_function(A.space, lambda x: x)
        values, reasons = _block_ascent(mult_op(u).entries, 2.0)
        assert reasons[1:].tolist() == ["stationary"] * 256
        np.testing.assert_array_equal(values[1:], np.abs(u.coefficients))

    def test_zero_operator(self):
        Z = MatrixOperator.zero(build_space((0.5, 1.0, 2.0)))
        values, reasons = _block_ascent(Z.entries, 2.0)
        np.testing.assert_array_equal(values, 0.0)
        assert reasons.tolist() == ["zero"] * 4
        assert opnorm_estimate(Z, 2.0) == 0.0

    def test_zero_column(self):
        A = MatrixOperator(
            [[1.0, 0.0, 2.0], [3.0, 0.0, -1.0], [0.5, 0.0, 1.0]], build_space((0.5, 1.0, 2.0))
        )
        for p in (1.5, 2.0, 3.0):
            reasons = self.check_against_reference(A, p)
            assert reasons[2] == "zero"  # the seed e_2 has a zero image

    def test_single_step(self, monkeypatch):
        monkeypatch.setattr(operators, "_MAX_ITER", 1)
        for A in criterion_4_ensemble(step=50):
            for p in (1.5, 2.0, 3.0):
                reasons = self.check_against_reference(A, p)
                assert set(reasons.tolist()) <= {"max_iter", "stationary", "zero"}


class TestPinch:
    def test_full_diagonal(self):
        A = MatrixOperator([[1.0, 2.0], [3.0, 4.0]], unit_atoms(2))
        P = pinch(A, [0, 1])
        np.testing.assert_array_equal(P.entries, [[1.0, 0.0], [0.0, 4.0]])

    def test_two_blocks_3x3(self):
        A = MatrixOperator(np.arange(1.0, 10.0).reshape(3, 3), unit_atoms(3))
        P = pinch(A, [0, 0, 1])
        expected = np.array([[1.0, 2.0, 0.0], [4.0, 5.0, 0.0], [0.0, 0.0, 9.0]])
        np.testing.assert_array_equal(P.entries, expected)

    def test_single_block_is_identity_pinch(self):
        rng = np.random.default_rng(41)
        A = MatrixOperator(rng.uniform(-1, 1, (4, 4)), unit_atoms(4))
        np.testing.assert_array_equal(pinch(A, np.zeros(4, dtype=int)).entries, A.entries)

    def test_not_a_label_vector_rejected(self):
        # integer labels partition the coordinates whatever their values, so
        # the shape and the integer type are all there is to check; a NaN
        # label would drop its coordinate's diagonal entry
        A = identity(unit_atoms(3))
        for labels in ([0, 1], [0, 1, 1, 0], [[0], [1], [2]], 0, [0.0, 1.0, np.nan]):
            with pytest.raises(ValueError, match="labels must be 3 integers"):
                pinch(A, labels)

    def test_contractive_at_p1(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            space = build_space(rng.uniform(0.1, 2.0, 5))
            A = MatrixOperator(rng.uniform(-1, 1, (5, 5)), space)
            assign = rng.integers(0, 3, 5)
            assert opnorm_p1(pinch(A, assign)) <= opnorm_p1(A)

    def test_block_supported_vectors_pass_through(self):
        rng = np.random.default_rng(43)
        space = build_space(rng.uniform(0.1, 2.0, 6))
        A = MatrixOperator(rng.uniform(-1, 1, (6, 6)), space)
        P = pinch(A, [0, 1, 0, 1, 0, 1])
        f = np.zeros(6)
        f[[0, 2, 4]] = rng.uniform(-1, 1, 3)
        full = A.matvec(f)
        pinched = P.matvec(f)
        np.testing.assert_array_equal(pinched[[0, 2, 4]], full[[0, 2, 4]])


class TestOperatorAlgebra:
    def test_addition_acts_pointwise(self):
        rng = np.random.default_rng(51)
        space = build_space(rng.uniform(0.5, 1.5, 3))
        A = MatrixOperator(rng.uniform(-1, 1, (3, 3)), space)
        B = MatrixOperator(rng.uniform(-1, 1, (3, 3)), space)
        f = StepFunction(rng.uniform(-1, 1, 3), space)
        np.testing.assert_allclose(
            apply(A + B, f).coefficients,
            apply(A, f).coefficients + apply(B, f).coefficients,
            rtol=1e-13,
        )

    def test_composition(self):
        space = unit_atoms(2)
        A = MatrixOperator([[0.0, 1.0], [0.0, 0.0]], space)
        B = MatrixOperator([[0.0, 0.0], [1.0, 0.0]], space)
        AB = np.column_stack([A.matvec(B.matvec(e)) for e in np.eye(2)])
        np.testing.assert_array_equal(AB, A.entries @ B.entries)
        np.testing.assert_array_equal(AB, [[1.0, 0.0], [0.0, 0.0]])

    def test_space_mismatch_rejected(self):
        A = identity(unit_atoms(2))
        B = identity(build_space((2.0, 2.0)))
        with pytest.raises(ValueError, match="different spaces"):
            A + B

    def test_entries_read_only(self):
        A = identity(unit_atoms(2))
        with pytest.raises(ValueError):
            A.entries[0, 0] = 9.0


# kernel seeds of 1 to 7 words: the SeedSequence pool holds 4, and
# 2**200 + 3 runs past it
KERNEL_SEEDS = [*range(300), 2**32 - 1, 2**32, 2**40 + 17, 2**64 + 5, 2**127 + 3, 10**30, 2**200 + 3]


class TestFunctionKernel:
    @pytest.mark.parametrize("rank", [1, 3, 64])
    def test_coefficients_are_default_rng_draws(self, rank, monkeypatch):
        # the factors, in the order (eta_1, g_1, eta_2, ...), are built from
        # default_rng(seed).uniform(-1, 1, 3) draws, bit for bit
        built = []
        real = operators._horner
        monkeypatch.setattr(operators, "_horner", lambda c: built.append(list(c)) or real(c))
        for seed in KERNEL_SEEDS:
            built.clear()
            assert FunctionKernel.random_polynomial(rank, seed).rank == rank
            rng = np.random.default_rng(seed)
            expected = [rng.uniform(-1.0, 1.0, 3) for _ in range(2 * rank)]
            assert bits(built).tolist() == bits(expected).tolist()

    def test_raw_words_match_random_raw(self):
        # the most words a kernel takes: rank 64, two factors of 3
        for seed in KERNEL_SEEDS:
            (state,) = _pcg64_states(np.array(_seed_words(seed), dtype=np.uint32)[:, None])
            bit_generator = np.random.default_rng(seed).bit_generator
            assert bit_generator.state["state"] == state
            assert _pcg64_raw(state, 384) == bit_generator.random_raw(384).tolist()

    @pytest.mark.parametrize("degree", range(6))
    def test_horner_matches_polynomial(self, degree):
        # signed zeros in x and in the coefficients (Polynomial maps -0.0
        # to +0.0 first), and x large enough to overflow
        rng = np.random.default_rng(degree)
        x = np.concatenate(
            [rng.uniform(-3.0, 3.0, 64), [0.0, -0.0, 1e-300, -1e-300, 1e100, -1e100, 1e300, -1e300, np.inf]]
        )
        cases = [[-0.0] * (degree + 1), [0.0] * (degree + 1)]
        for _ in range(200):
            c = rng.uniform(-1.0, 1.0, degree + 1)
            c[rng.random(degree + 1) < 0.2] = 0.0
            c[rng.random(degree + 1) < 0.2] = -0.0
            cases.append(c.tolist())
        with np.errstate(over="ignore", invalid="ignore"):
            for c in cases:
                assert bits(_horner(c)(x)).tolist() == bits(np.polynomial.Polynomial(c)(x)).tolist(), c

    def test_reproducible(self):
        k1 = FunctionKernel.random_polynomial(3, seed=7)
        k2 = FunctionKernel.random_polynomial(3, seed=7)
        space = build_space(diffuse_interval=(0, 1), diffuse_level=4)
        np.testing.assert_array_equal(k1.discretize(space).entries, k2.discretize(space).entries)

    def test_rank(self):
        space = build_space(diffuse_interval=(0, 1), diffuse_level=5)
        K = FunctionKernel.random_polynomial(3, seed=9).discretize(space)
        assert np.linalg.matrix_rank(K.entries) <= 3

    def test_constant_pair_matches_rank_one(self):
        space = build_space(diffuse_interval=(0, 1), diffuse_level=3)
        kern = FunctionKernel([(lambda x: 1.0, lambda x: 1.0)])
        one = StepFunction.constant(1.0, space)
        np.testing.assert_array_equal(
            kern.discretize(space).entries, rank_one_diffuse(one, one).entries
        )


def dense_kernel(kernel, space):
    """The dense construction of a discretized kernel: zeros, then
    += outer(g_r, eta_r * mu) for r in order."""
    acc = np.zeros((space.dimension, space.dimension))
    for eta_fn, g_fn in kernel.pairs:
        eta = StepFunction.from_function(space, eta_fn)
        g = StepFunction.from_function(space, g_fn)
        acc += np.outer(g.coefficients, eta.coefficients * space.masses)
    return acc


def dense_quotients(entries, space):
    """Column quotients summed as one cumsum over all n rows."""
    mu = space.masses
    return np.cumsum(np.abs(entries) * mu[:, None], axis=0)[-1] / mu


def bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


# atoms of unequal masses ahead of the cells; dimensions 33 to 131, among
# them 65 and 129, one column past a block edge
FACTORED_SPACES = [
    build_space(masses, diffuse_interval=(0.0, 1.0), diffuse_level=level)
    for masses, level in (
        ((0.3,), 5),
        ((0.3, 1.7), 6),
        ((0.05,), 6),
        ((0.3, 1.7, 0.05), 7),
        ((0.9,), 7),
    )
]

# one cell, one atom and one cell, and exactly one block of cells
SMALL_SPACES = [
    build_space(masses, diffuse_interval=(0.0, 1.0), diffuse_level=level)
    for masses, level in (((), 0), ((0.3,), 0), ((), 6))
]


def symbol(space, seed):
    atoms = np.random.default_rng(seed).uniform(-2.0, 2.0, space.n_atoms)
    cells = StepFunction.from_function(space, lambda x: x).coefficients[space.n_atoms :]
    return StepFunction(np.concatenate([atoms, cells]), space)


class TestFactoredOperators:
    @pytest.mark.parametrize("space", FACTORED_SPACES, ids=lambda s: f"n{s.dimension}")
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_entries_match_dense_sum(self, space, seed):
        kernel = FunctionKernel.random_polynomial(3, seed)
        u = symbol(space, seed)
        K = kernel.discretize(space)
        A = mult_op(u) + K
        acc = dense_kernel(kernel, space)
        dense = np.diag(u.coefficients) + acc
        np.testing.assert_array_equal(bits(K.entries), bits(acc))
        np.testing.assert_array_equal(bits(A.entries), bits(dense))
        np.testing.assert_array_equal(bits(A.diagonal), bits(np.diag(dense)))
        np.testing.assert_array_equal(bits(K.diagonal), bits(np.diag(acc)))
        x = np.random.default_rng(seed).uniform(-1.0, 1.0, space.dimension)
        np.testing.assert_allclose(A.matvec(x), dense @ x, rtol=1e-13, atol=1e-15)
        assert not A.entries.flags.writeable

    @pytest.mark.parametrize("space", FACTORED_SPACES + SMALL_SPACES, ids=lambda s: f"n{s.dimension}")
    def test_blockwise_quotients_match_cumsum(self, space):
        rng = np.random.default_rng(space.dimension)
        kernel = FunctionKernel.random_polynomial(3, 5)
        u = symbol(space, 5)
        R = rng.uniform(-1.0, 1.0, (space.dimension, space.dimension))
        acc = dense_kernel(kernel, space)
        cases = [
            (kernel.discretize(space), acc),
            (mult_op(u) + kernel.discretize(space), np.diag(u.coefficients) + acc),
            (MatrixOperator(R, space), R),
            (mult_op(u) + MatrixOperator(R, space), np.diag(u.coefficients) + R),
            (MatrixOperator(R.T, space), R.T),
            (mult_op(u), np.diag(u.coefficients)),
        ]
        for A, dense in cases:
            expected = dense_quotients(dense, space)
            np.testing.assert_array_equal(bits(p1_column_quotients(A)), bits(expected))
            assert opnorm_p1(A) == float(np.max(expected))

    def test_sum_keeps_parts(self):
        space = FACTORED_SPACES[1]
        K = FunctionKernel.random_polynomial(3, 0).discretize(space)
        u = symbol(space, 0)
        assert (mult_op(u) + K)._entries is None
        assert (K + mult_op(u))._entries is None
        assert (mult_op(u) + mult_op(u))._entries is None
        np.testing.assert_array_equal(
            bits((K + mult_op(u)).entries), bits((mult_op(u) + K).entries)
        )
        # the zero operator as an operand: the diagonal of the other, or no part
        M, Z = mult_op(u), MatrixOperator.zero(space)
        for A, B in ((Z, M), (M, Z), (Z, Z)):
            S = A + B
            assert S._dense is None and S._factors is None and S._entries is None
            if B is M or A is M:
                np.testing.assert_array_equal(bits(S._diag), bits(M._diag))
            else:
                assert S._diag is None
            np.testing.assert_array_equal(bits(S.entries), bits(A.entries + B.entries))

    @pytest.mark.parametrize("space", SMALL_SPACES, ids=lambda s: f"n{s.dimension}")
    def test_small_norm_builds_no_entries(self, space):
        # an operator no wider than one column block streams through the
        # block buffer like a wide one
        A = mult_op(symbol(space, 1)) + FunctionKernel.random_polynomial(3, 1).discretize(space)
        opnorm_p1(A)
        opnorm_upper_bound(A, 2.0)
        assert A._entries is None

    def test_zero_has_no_parts(self):
        space = FACTORED_SPACES[0]
        Z = MatrixOperator.zero(space)
        assert Z._dense is None and Z._diag is None and Z._factors is None
        np.testing.assert_array_equal(Z.matvec(np.ones(space.dimension)), 0.0)
        np.testing.assert_array_equal(p1_column_quotients(Z), 0.0)

    def test_factor_shapes_checked(self):
        space = unit_atoms(3)
        with pytest.raises(ValueError, match="shape"):
            MatrixOperator(None, space, factors=(np.ones((3, 2)), np.ones((3, 1))))
        with pytest.raises(ValueError, match="shape"):
            MatrixOperator(None, space, diag=np.ones(2))


def riesz_thorin(entries, space, p):
    w = space.masses ** (1.0 / p)
    B = np.abs(w[:, None] * entries / w[None, :])
    return B.sum(axis=0).max() ** (1.0 / p) * B.sum(axis=1).max() ** (1.0 - 1.0 / p)


class TestOpnormUpperBound:
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_matches_dense_riesz_thorin(self, p):
        for space in FACTORED_SPACES[:3]:
            kernel = FunctionKernel.random_polynomial(3, 2)
            A = mult_op(symbol(space, 2)) + kernel.discretize(space)
            upper = opnorm_upper_bound(A, p)
            assert upper == pytest.approx(riesz_thorin(A.entries, space, p), rel=1e-13)
            assert opnorm_estimate(A, p) <= upper * (1 + 1e-12)

    def test_exact_at_p1(self):
        A = MatrixOperator([[1.0, -2.0], [3.0, 4.0]], build_space((0.3, 1.7)))
        assert opnorm_upper_bound(A, 1.0) == opnorm_p1(A)


def support_cases(space):
    """Operators of every structure on a space: factored, factored +
    diagonal, dense, dense + diagonal and diagonal-only."""
    kernel = FunctionKernel.random_polynomial(3, 3)
    u = symbol(space, 3)
    R = np.random.default_rng(space.dimension).uniform(-1.0, 1.0, (space.dimension,) * 2)
    K = kernel.discretize(space)
    return [K, mult_op(u) + K, MatrixOperator(R, space), mult_op(u) + MatrixOperator(R, space), mult_op(u)]


def supports(n, seed):
    """A single column (first, last, inner), exactly one block of 64, 65
    columns (one past a block), and a random spread, each ascending."""
    rng = np.random.default_rng(seed)
    out = [np.array([0]), np.array([n - 1]), np.array([n // 2])]
    for size in (64, 65, 129):
        if size <= n:
            out.append(np.arange(n - size, n))
            out.append(np.sort(rng.choice(n, size, replace=False)))
    out.append(np.sort(rng.choice(n, max(1, n // 3), replace=False)))
    return out


class TestSupportColumns:
    @pytest.mark.parametrize(
        "space", FACTORED_SPACES + SMALL_SPACES, ids=lambda s: f"n{s.dimension}"
    )
    def test_quotients_bit_identical_to_full(self, space):
        for A in support_cases(space):
            full = p1_column_quotients(A)
            for cols in supports(space.dimension, 1):
                np.testing.assert_array_equal(bits(_quotients_on(A, cols)), bits(full[cols]))
                assert _upper_bound_on(A, 1.0, cols) == float(np.max(full[cols]))

    def test_kept_entries_gathered(self):
        # an operator whose entries were built still rebuilds gathered
        # columns from its parts, bit for bit, and leaves the kept array
        # untouched
        space = FACTORED_SPACES[3]
        A = support_cases(space)[1]
        full = p1_column_quotients(A)
        kept = A.entries.copy()
        for cols in supports(space.dimension, 2):
            np.testing.assert_array_equal(bits(_quotients_on(A, cols)), bits(full[cols]))
        np.testing.assert_array_equal(bits(A.entries), bits(kept))

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_upper_bound_is_riesz_thorin_of_the_support(self, p):
        for space in FACTORED_SPACES[:3] + SMALL_SPACES[:2]:
            n = space.dimension
            for A in support_cases(space):
                assert _upper_bound_on(A, p, np.arange(n)) == opnorm_upper_bound(A, p)
                for cols in supports(n, 3):
                    masked = np.zeros((n, n))
                    masked[:, cols] = A.entries[:, cols]
                    upper = _upper_bound_on(A, p, cols)
                    assert upper == pytest.approx(riesz_thorin(masked, space, p), rel=1e-13)
                    assert upper <= opnorm_upper_bound(A, p) * (1 + 1e-13)
