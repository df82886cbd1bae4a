import itertools
import tracemalloc

import numpy as np
import pytest

from essnorm_lab.essnorm import (
    EssNormProblem,
    PINCHING_DIAGONAL,
    WITNESS_PAIR,
    best_diagonal_rank_k,
    diagonal_compactification,
    essential_norm,
    perturbed_ratio,
    pinching_lower_bound,
    qn_decay_profile,
    truncation_perturbation,
    verify_certificate,
    witness_lower_bound,
    witness_sets,
)
from essnorm_lab.lattice import centre_project
from essnorm_lab.lpspace import StepFunction, norm_p
from essnorm_lab.measure import TailDescriptor, build_space
from essnorm_lab.operators import (
    FunctionKernel,
    MatrixOperator,
    MultiplicationOperator,
    mult_op,
    opnorm_p1,
    projections,
    rank_one_diffuse,
)


def unit_atoms(n):
    return build_space(np.ones(n))


def harmonic_problem(n_atoms):
    tail = TailDescriptor.harmonic_limit(1.0)
    space = build_space(np.ones(n_atoms), tail)
    u = np.array([tail.value(k) for k in range(1, n_atoms + 1)])
    return EssNormProblem(space, None, u, tail)


class TestEssentialNorm:
    def test_harmonic_atoms(self):
        assert essential_norm(harmonic_problem(10)) == 1.0

    def test_max_of_parts(self):
        tail = TailDescriptor.alternating(2.0, -2.0)
        space = build_space((1.0,), tail, diffuse_interval=(0, 1), diffuse_level=2)
        problem = EssNormProblem(space, [0.9, 0.1, -0.3, 0.2], [5.0], tail)
        assert essential_norm(problem) == 2.0

    def test_zero_symbol(self):
        space = build_space((1.0,), diffuse_interval=(0, 1), diffuse_level=1)
        problem = EssNormProblem(space, [0.0, 0.0], [0.0])
        assert essential_norm(problem) == 0.0

    def test_purely_diffuse_is_sup(self):
        space = build_space(diffuse_interval=(0, 1), diffuse_level=3)
        problem = EssNormProblem(space, space.cell_midpoints, [])
        assert essential_norm(problem) == np.max(space.cell_midpoints)

    def test_stored_atoms_do_not_matter(self):
        tail = TailDescriptor.constant_limit(0.5)
        space = build_space((1.0, 1.0), tail)
        low = EssNormProblem(space, None, [0.0, 0.0], tail)
        high = EssNormProblem(space, None, [9.0, 9.0], tail)
        assert essential_norm(low) == essential_norm(high) == 0.5

    def test_layout_validation(self):
        space = build_space((1.0,), diffuse_interval=(0, 1), diffuse_level=1)
        with pytest.raises(ValueError, match="diffuse"):
            EssNormProblem(space, None, [1.0])
        with pytest.raises(ValueError, match="atom values"):
            EssNormProblem(space, [1.0, 1.0], [1.0, 2.0])


class TestDiagonalCompactification:
    def test_diagonal_extraction(self):
        K = MatrixOperator([[0.5, 1.0], [2.0, -0.25]], unit_atoms(2))
        D = diagonal_compactification(K)
        np.testing.assert_array_equal(D.u_values, [0.5, -0.25])

    def test_zero_diagonal(self):
        K = MatrixOperator([[0.0, 1.0], [1.0, 0.0]], unit_atoms(2))
        assert diagonal_compactification(K).opnorm == 0.0

    def test_agrees_with_band_projection(self):
        rng = np.random.default_rng(61)
        space = build_space(rng.uniform(0.1, 2.0, 5))
        K = MatrixOperator(rng.uniform(-1, 1, (5, 5)), space)
        np.testing.assert_array_equal(
            diagonal_compactification(K).entries,
            centre_project(K).centre_part.entries,
        )

    def test_fixes_multiplication_operators(self):
        space = build_space((1.0, 0.5, 2.0))
        M = mult_op(StepFunction([1.0, -2.0, 0.5], space))
        np.testing.assert_array_equal(diagonal_compactification(M).entries, M.entries)

    def test_linear_and_idempotent(self):
        rng = np.random.default_rng(62)
        space = unit_atoms(4)
        K = MatrixOperator(rng.uniform(-1, 1, (4, 4)), space)
        L = MatrixOperator(rng.uniform(-1, 1, (4, 4)), space)
        left = diagonal_compactification(2.0 * K + 3.0 * L).u_values
        right = 2.0 * diagonal_compactification(K).u_values + 3.0 * diagonal_compactification(L).u_values
        np.testing.assert_allclose(left, right, rtol=1e-15)
        D = diagonal_compactification(K)
        np.testing.assert_array_equal(diagonal_compactification(D).entries, D.entries)

    def test_compression_identity(self):
        # P_n K P_n = d_n P_n as operators, with d_n the diagonal entry
        rng = np.random.default_rng(63)
        space = build_space(rng.uniform(0.1, 2.0, 4))
        K = MatrixOperator(rng.uniform(-1, 1, (4, 4)), space)
        ps, _ = projections(space, 4)
        for n, P in enumerate(ps):
            compressed = (P @ K @ P).entries
            np.testing.assert_array_equal(compressed, K.entries[n, n] * P.entries)


class TestPinchingLowerBound:
    def test_offdiagonal_perturbation(self):
        space = unit_atoms(2)
        u = StepFunction([5.0, 1.0], space)
        K = MatrixOperator([[0.0, 3.0], [3.0, 0.0]], space)
        cert = pinching_lower_bound(u, K)
        assert cert.bound == 5.0
        assert cert.construction == PINCHING_DIAGONAL
        assert opnorm_p1(mult_op(u) + K) == 8.0
        assert verify_certificate(cert, u, K, 1.0)

    def test_partial_cancellation(self):
        space = unit_atoms(3)
        u = StepFunction([5.0, 4.0, 3.0], space)
        K = MultiplicationOperator([-5.0, -4.0, 0.0], space)
        assert pinching_lower_bound(u, K).bound == 3.0

    def test_no_perturbation(self):
        space = build_space((0.5, 2.0))
        u = StepFunction([-7.0, 2.0], space)
        cert = pinching_lower_bound(u, MatrixOperator.zero(space))
        assert cert.bound == 7.0

    def test_general_p_rejected(self):
        space = unit_atoms(2)
        u = StepFunction([1.0, 0.0], space)
        with pytest.raises(ValueError, match="p = 1"):
            pinching_lower_bound(u, MatrixOperator.zero(space), p=2.0)

    def test_certified_on_random_instances(self):
        rng = np.random.default_rng(71)
        for _ in range(100):
            space = build_space(rng.uniform(0.1, 2.0, 6))
            u = StepFunction(rng.uniform(-1, 1, 6), space)
            K = MatrixOperator(rng.uniform(-1, 1, (6, 6)), space)
            cert = pinching_lower_bound(u, K)
            assert verify_certificate(cert, u, K, 1.0)
            assert cert.bound <= opnorm_p1(mult_op(u) + K)


class TestWitnessSets:
    def test_midpoint_example_level_4(self):
        space = build_space(diffuse_interval=(0.0, 1.0), diffuse_level=4)
        sets = witness_sets(space.cell_midpoints, 0.25)
        assert sets == [(12, 13, 14, 15), (14, 15), (15,)]

    def test_constant_symbol_takes_all_cells(self):
        sets = witness_sets(np.full(8, 0.7), 0.1)
        assert sets[0] == tuple(range(8))
        assert [len(s) for s in sets] == [8, 4, 2, 1]

    def test_single_cell(self):
        assert witness_sets([0.9], 0.5) == [(0,)]

    def test_masses_halve(self):
        space = build_space(diffuse_interval=(0.0, 1.0), diffuse_level=6)
        sets = witness_sets(space.cell_midpoints, 0.4)
        sizes = [len(s) for s in sets]
        assert all(b <= a / 2 for a, b in zip(sizes, sizes[1:]))
        assert all(set(b) <= set(a) for a, b in zip(sets, sets[1:]))

    def test_superlevel_property(self):
        rng = np.random.default_rng(81)
        values = rng.uniform(-1, 1, 64)
        eps = 0.3
        m = np.max(np.abs(values))
        for s in witness_sets(values, eps):
            assert all(abs(values[i]) >= m - eps for i in s)

    @pytest.mark.parametrize("eps", [0.0, -0.1, 1.0, 2.0])
    def test_bad_eps_rejected(self, eps):
        with pytest.raises(ValueError, match="eps"):
            witness_sets([0.5, 1.0], eps)


class TestWitnessLowerBound:
    def test_unperturbed_bound_exceeds_sup_minus_eps(self):
        space = build_space(diffuse_interval=(0.0, 1.0), diffuse_level=8)
        u = StepFunction(space.cell_midpoints, space)
        cert = witness_lower_bound(u, MatrixOperator.zero(space), 0.1, 1.0)
        assert cert.bound >= 0.9
        # sharper: the mean of |u| over each witness set is an attained
        # quotient, so the bound dominates the best per-set minimum
        sets = witness_sets(space.cell_midpoints, 0.1)
        per_set_min = max(min(abs(space.cell_midpoints[i]) for i in s) for s in sets)
        assert cert.bound >= per_set_min
        assert cert.construction == WITNESS_PAIR
        assert verify_certificate(cert, u, MatrixOperator.zero(space), 1.0)

    def test_constant_kernel_annihilated_on_differences(self):
        # K g = (integral g) * 1 vanishes on f_n - f_m at p = 1, where
        # every witness indicator has integral one
        space = build_space(diffuse_interval=(0.0, 1.0), diffuse_level=6)
        u = StepFunction(space.cell_midpoints, space)
        one = StepFunction.constant(1.0, space)
        K = rank_one_diffuse(one, one)
        from essnorm_lab.essnorm import witness_sets as ws
        from essnorm_lab.lpspace import normalized_indicator

        sets = ws(space.cell_midpoints, 0.1)
        fns = [normalized_indicator(space, s, 1.0) for s in sets]
        for fn, fm in itertools.combinations(fns, 2):
            diff = (fn - fm).coefficients
            np.testing.assert_allclose(K.matvec(diff), np.zeros(space.dimension), atol=1e-13)
        cert = witness_lower_bound(u, K, 0.1, 1.0)
        cert0 = witness_lower_bound(u, MatrixOperator.zero(space), 0.1, 1.0)
        # the best pair-difference quotient survives the perturbation
        pair_ratios = [
            perturbed_ratio(u, K, fn - fm, 1.0) for fn, fm in itertools.combinations(fns, 2)
        ]
        assert cert.bound >= max(pair_ratios) - 1e-13
        assert cert.bound >= min(cert0.bound, max(pair_ratios)) - 1e-13

    def test_eps_at_least_sup_rejected(self):
        space = build_space(diffuse_interval=(0.0, 1.0), diffuse_level=3)
        u = StepFunction(space.cell_midpoints, space)
        with pytest.raises(ValueError, match="eps"):
            witness_lower_bound(u, MatrixOperator.zero(space), 2.0, 1.0)

    def test_purely_atomic_rejected(self):
        space = unit_atoms(3)
        u = StepFunction([1.0, 2.0, 3.0], space)
        with pytest.raises(ValueError, match="diffuse"):
            witness_lower_bound(u, MatrixOperator.zero(space), 0.1, 1.0)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
    def test_sound_against_exact_or_sampled_quotients(self, p):
        rng = np.random.default_rng(91)
        space = build_space(diffuse_interval=(0.0, 1.0), diffuse_level=5)
        u = StepFunction(space.cell_midpoints, space)
        K = MatrixOperator(rng.uniform(-0.3, 0.3, (32, 32)), space)
        cert = witness_lower_bound(u, K, 0.2, p)
        r = perturbed_ratio(u, K, cert.witness, p)
        assert r == cert.bound
        if p == 1.0:
            assert cert.bound <= opnorm_p1(mult_op(u) + K) * (1 + 1e-12)


def dense_kernel(kernel, space):
    """The dense construction of a discretized kernel: zeros, then
    += outer(g_r, eta_r * mu) for r in order."""
    acc = np.zeros((space.dimension, space.dimension))
    for eta_fn, g_fn in kernel.pairs:
        eta = StepFunction.from_function(space, eta_fn)
        g = StepFunction.from_function(space, g_fn)
        acc += np.outer(g.coefficients, eta.coefficients * space.masses)
    return acc


def diffuse_problem(seed, level):
    space = build_space(diffuse_interval=(0.0, 1.0), diffuse_level=level)
    u = StepFunction.from_function(space, lambda x: x)
    return u, FunctionKernel.random_polynomial(3, seed)


class TestFactoredWitness:
    @pytest.mark.parametrize("p", [1.0, 1.5])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 7])
    def test_bound_within_4_ulps_of_dense(self, seed, p):
        # the factored matvec sums G (E^T x) instead of one dense row
        # product, so quotients may move in the last bits
        for level in range(6, 10):
            u, kernel = diffuse_problem(seed, level)
            K = kernel.discretize(u.space)
            K_dense = MatrixOperator(dense_kernel(kernel, u.space), u.space)
            factored = witness_lower_bound(u, K, 0.1, p).bound
            dense = witness_lower_bound(u, K_dense, 0.1, p).bound
            ulps = abs(int(np.float64(factored).view(np.int64)) - int(np.float64(dense).view(np.int64)))
            assert ulps <= 4, (level, factored, dense)

    @pytest.mark.parametrize("seed", [79, 109])
    def test_general_p_checked_against_upper_bound(self, seed):
        # these witness bounds exceed opnorm_estimate (a lower bound, so no
        # reference for soundness) but lie far below the Riesz-Thorin bound
        u, kernel = diffuse_problem(seed, 7)
        K = kernel.discretize(u.space)
        cert = witness_lower_bound(u, K, 0.1, 1.5)
        assert verify_certificate(cert, u, K, 1.5)

    def test_level_12_streams_without_entries(self, monkeypatch):
        u, kernel = diffuse_problem(7, 12)
        K = kernel.discretize(u.space)

        def no_entries(self):
            raise AssertionError("the n x n entry array was built")

        monkeypatch.setattr(MatrixOperator, "entries", property(no_entries))
        tracemalloc.start()
        try:
            cert = witness_lower_bound(u, K, 0.1, 1.0)
            verified = verify_certificate(cert, u, K, 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert verified
        assert peak < 64 * 2**20, f"peak {peak / 2**20:.1f} MB"


class TestQnDecayProfile:
    def test_geometric_tail_closed_form(self):
        space = unit_atoms(21)
        g = StepFunction(np.concatenate([0.5 ** np.arange(1, 21), [0.5**20]]), space)
        eta = StepFunction.constant(1.0, space)
        profile = qn_decay_profile(rank_one_diffuse(eta, g))
        for n in range(21):
            assert profile[n] == 2.0**-n
        assert profile[21] == 0.0

    def test_zero_kernel(self):
        space = unit_atoms(4)
        profile = qn_decay_profile(MatrixOperator.zero(space))
        assert profile == [0.0] * 5

    def test_full_masking_is_zero(self):
        rng = np.random.default_rng(101)
        space = build_space(rng.uniform(0.1, 2.0, 5))
        K = MatrixOperator(rng.uniform(-1, 1, (5, 5)), space)
        profile = qn_decay_profile(K)
        assert profile[-1] == 0.0
        assert profile[0] == opnorm_p1(K)

    def test_n_max_validation(self):
        K = MatrixOperator.zero(unit_atoms(3))
        with pytest.raises(ValueError, match="n_max"):
            qn_decay_profile(K, 4)


def rank_k_oracle(values, k):
    """Enumerate every k-subset and cancel it outright; the best achievable
    sup is the smallest over subsets of the largest remaining |u_i|."""
    values = np.abs(np.asarray(values, dtype=float))
    n = values.size
    if k >= n:
        return 0.0
    best = np.inf
    for subset in itertools.combinations(range(n), k):
        rest = np.delete(values, subset)
        best = min(best, float(np.max(rest)))
    return best


class TestBestDiagonalRankK:
    def test_frozen_example(self):
        assert best_diagonal_rank_k([5, 4, 3, 2, 1], 2) == 3.0
        assert rank_k_oracle([5, 4, 3, 2, 1], 2) == 3.0

    def test_k_zero_is_max(self):
        assert best_diagonal_rank_k([-2.0, 1.5], 0) == 2.0

    def test_full_cancellation(self):
        assert best_diagonal_rank_k([1.0, 2.0], 2) == 0.0
        assert best_diagonal_rank_k([1.0, 2.0], 5) == 0.0

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            best_diagonal_rank_k([1.0], -1)

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(111)
        for _ in range(30):
            values = rng.uniform(-3, 3, 7)
            for k in range(0, 8):
                assert best_diagonal_rank_k(values, k) == rank_k_oracle(values, k)

    def test_monotone_in_k(self):
        rng = np.random.default_rng(112)
        values = rng.uniform(-5, 5, 20)
        results = [best_diagonal_rank_k(values, k) for k in range(21)]
        assert all(b <= a for a, b in zip(results, results[1:]))

    def test_harmonic_closed_form(self):
        u = [1 + 1 / n for n in range(1, 51)]
        for k in range(50):
            assert best_diagonal_rank_k(u, k) == 1 + 1 / (k + 1)


class TestPinchingChain:
    def test_full_pinch_dominates_diagonal(self):
        # |M_u + K| >= |M_u + D_K| exactly at p = 1, on random instances
        rng = np.random.default_rng(121)
        for _ in range(200):
            space = build_space(rng.uniform(0.1, 2.0, 8))
            u = StepFunction(rng.uniform(-1, 1, 8), space)
            K = MatrixOperator(rng.uniform(-1, 1, (8, 8)), space)
            lhs = opnorm_p1(mult_op(u) + K)
            rhs = opnorm_p1(mult_op(u) + diagonal_compactification(K))
            assert lhs >= rhs

    def test_equality_for_diagonal_perturbations(self):
        rng = np.random.default_rng(122)
        for _ in range(50):
            space = build_space(rng.uniform(0.1, 2.0, 6))
            u = StepFunction(rng.uniform(-1, 1, 6), space)
            K = MultiplicationOperator(rng.uniform(-1, 1, 6), space)
            assert opnorm_p1(mult_op(u) + K) == opnorm_p1(
                mult_op(u) + diagonal_compactification(K)
            )

    def test_sparse_diagonal_perturbations_respect_rank_floor(self):
        # a diagonal perturbation on at most k coordinates cannot push the
        # norm below the (k+1)-th largest |u_i|
        rng = np.random.default_rng(123)
        for _ in range(100):
            space = build_space(rng.uniform(0.1, 2.0, 8))
            u = rng.uniform(-1, 1, 8)
            k = int(rng.integers(0, 9))
            support = rng.choice(8, size=k, replace=False)
            d = np.zeros(8)
            d[support] = rng.uniform(-2, 2, k)
            S = mult_op(StepFunction(u, space)) + MultiplicationOperator(d, space)
            floor = best_diagonal_rank_k(u, k)
            assert opnorm_p1(S) >= floor * (1 - 1e-12)


class TestTruncationPerturbation:
    def test_cancels_prefix(self):
        problem = harmonic_problem(20)
        u = problem.u_step()
        K = truncation_perturbation(u, 10)
        S = mult_op(u) + K
        expected = np.concatenate([np.zeros(10), u.coefficients[10:]])
        np.testing.assert_array_equal(np.diag(S.entries), expected)

    def test_certifies_upper_bound(self):
        problem = harmonic_problem(50)
        u = problem.u_step()
        for n in (10, 25, 49):
            K = truncation_perturbation(u, n)
            # sup over the remaining coordinates, attained at index n
            assert opnorm_p1(mult_op(u) + K) == u.coefficients[n]
        assert essential_norm(problem) == 1.0

    def test_matches_projection_construction(self):
        problem = harmonic_problem(12)
        u = problem.u_step()
        _, q = projections(u.space, 5)
        identity = MatrixOperator.identity(u.space)
        direct = (-1.0) * (mult_op(u) @ (identity - q))
        np.testing.assert_array_equal(truncation_perturbation(u, 5).entries, direct.entries)
