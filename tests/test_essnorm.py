import itertools
import json
import math
import tracemalloc
from pathlib import Path
from time import perf_counter

import numpy as np
import pytest

import essnorm_lab.essnorm as essnorm_module
from essnorm_lab.essnorm import (
    LowerBoundCertificate,
    PINCHING_DIAGONAL,
    WITNESS_PAIR,
    _pinching_quotients,
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
from essnorm_lab.experiments import ExperimentConfig, run_scenario
from essnorm_lab.lattice import centre_project
from essnorm_lab.lpspace import StepFunction, norm_p, normalized_indicator
from essnorm_lab.measure import TailDescriptor, build_space
from essnorm_lab.operators import (
    FunctionKernel,
    MatrixOperator,
    MultiplicationOperator,
    _quotients_on,
    mult_op,
    opnorm_p1,
    opnorm_upper_bound,
    p1_column_quotients,
    rank_one_diffuse,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def unit_atoms(n):
    return build_space(np.ones(n))


# u(k) = 1 + 1/k on the atoms, with limit 1
HARMONIC = TailDescriptor.harmonic_limit(1.0)


def harmonic_symbol(n_atoms):
    return StepFunction([HARMONIC.value(k) for k in range(1, n_atoms + 1)], unit_atoms(n_atoms))


class TestEssentialNorm:
    def test_harmonic_atoms(self):
        assert essential_norm(harmonic_symbol(10), HARMONIC) == 1.0

    def test_max_of_parts(self):
        tail = TailDescriptor.alternating(2.0, -2.0)
        space = build_space((1.0,), diffuse_interval=(0, 1), diffuse_level=2)
        u = StepFunction([5.0, 0.9, 0.1, -0.3, 0.2], space)
        assert essential_norm(u, tail) == 2.0

    def test_zero_symbol(self):
        space = build_space((1.0,), diffuse_interval=(0, 1), diffuse_level=1)
        assert essential_norm(StepFunction.constant(0.0, space)) == 0.0

    def test_purely_diffuse_is_sup(self):
        space = build_space(diffuse_interval=(0, 1), diffuse_level=3)
        u = StepFunction(space.cell_midpoints, space)
        assert essential_norm(u) == np.max(space.cell_midpoints)

    def test_stored_atoms_do_not_matter(self):
        tail = TailDescriptor.constant_limit(0.5)
        space = build_space((1.0, 1.0))
        low = StepFunction([0.0, 0.0], space)
        high = StepFunction([9.0, 9.0], space)
        assert essential_norm(low, tail) == essential_norm(high, tail) == 0.5

    def test_layout_validation(self):
        # one atom and two cells: the symbol needs one value for each, so
        # the atom's value alone, or atom and one cell, is rejected
        space = build_space((1.0,), diffuse_interval=(0, 1), diffuse_level=1)
        with pytest.raises(ValueError, match="length 1, space has dimension 3"):
            StepFunction([1.0], space)
        with pytest.raises(ValueError, match="length 2, space has dimension 3"):
            StepFunction([1.0, 2.0], space)


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
        combo = MatrixOperator(2.0 * K.entries + 3.0 * L.entries, space)
        left = diagonal_compactification(combo).u_values
        right = 2.0 * diagonal_compactification(K).u_values + 3.0 * diagonal_compactification(L).u_values
        np.testing.assert_allclose(left, right, rtol=1e-15)
        D = diagonal_compactification(K)
        np.testing.assert_array_equal(diagonal_compactification(D).entries, D.entries)

    def test_compression_identity(self):
        # P_n K P_n = d_n P_n, with P_n the n-th coordinate projection and
        # d_n the n-th diagonal scalar of D_K
        rng = np.random.default_rng(63)
        space = build_space(rng.uniform(0.1, 2.0, 4))
        K = MatrixOperator(rng.uniform(-1, 1, (4, 4)), space)
        d = diagonal_compactification(K).u_values
        for n in range(4):
            P = np.diag(np.eye(4)[n])
            np.testing.assert_array_equal(P @ K.entries @ P, d[n] * P)


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

    def test_certified_on_random_instances(self):
        rng = np.random.default_rng(71)
        for _ in range(100):
            space = build_space(rng.uniform(0.1, 2.0, 6))
            u = StepFunction(rng.uniform(-1, 1, 6), space)
            K = MatrixOperator(rng.uniform(-1, 1, (6, 6)), space)
            cert = pinching_lower_bound(u, K)
            assert verify_certificate(cert, u, K, 1.0)
            assert cert.bound <= opnorm_p1(mult_op(u) + K)

    def test_quotients_match_the_compressed_operator(self):
        # the kernel gives p1_column_quotients(M_u + D) bit for bit, for one
        # diagonal and for each row of a stack, cancelled coordinates and
        # zeros of both signs included
        rng = np.random.default_rng(72)
        space = build_space(10.0 ** rng.uniform(-3, 3, 7))
        u = rng.choice([-1.5, -0.0, 0.0, 2.0], 7) * 10.0 ** rng.uniform(-3, 3, 7)
        D = np.where(rng.random((5, 7)) < 0.5, -u, rng.choice([-0.0, 0.0, 1.0], (5, 7)))
        stack = _pinching_quotients(u, D, space.masses)
        for d, row in zip(D, stack):
            expected = p1_column_quotients(mult_op(StepFunction(u, space)) + MultiplicationOperator(d, space))
            assert row.view(np.int64).tolist() == expected.view(np.int64).tolist()
            assert _pinching_quotients(u, d, space.masses).view(np.int64).tolist() == row.view(np.int64).tolist()

    def test_refuses_an_operator_on_another_space(self):
        u = StepFunction([1.0, 2.0], unit_atoms(2))
        with pytest.raises(ValueError, match="different spaces"):
            pinching_lower_bound(u, MatrixOperator.zero(build_space((0.5, 2.0))))


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

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_values_rejected(self, bad):
        # above inf - eps = inf no cell qualifies, so no set could be built
        with pytest.raises(ValueError, match="finite"):
            witness_sets([0.5, bad, 0.25], 1e300)

    @pytest.mark.parametrize("eps", [0.0, -0.1, 1.0, 2.0])
    def test_bad_eps_rejected(self, eps):
        with pytest.raises(ValueError, match="eps"):
            witness_sets([0.5, 1.0], eps)

    def test_matches_sorted_construction(self):
        def sorted_sets(u_diffuse, eps):
            # cells above max|u| - eps, sorted by (-|u|, index), halved
            values = np.abs(np.asarray(u_diffuse, dtype=float))
            threshold = float(np.max(values)) - eps
            selected = [i for i in range(values.size) if values[i] > threshold]
            selected.sort(key=lambda i: (-values[i], i))
            sets, current = [], selected
            while True:
                sets.append(tuple(sorted(current)))
                if len(current) == 1:
                    return sets
                current = current[: len(current) // 2]

        rng = np.random.default_rng(83)
        cases = [(np.full(100, -0.7), 0.1), ([0.1, 0.9, 0.2, -0.3], 0.5), ([0.9], 0.5)]
        for _ in range(20):
            # quarter steps in [-2, 2]: equal |u| within and across signs
            cases.append((rng.integers(-8, 9, int(rng.integers(1, 300))) / 4.0, 0.9))
            cases.append((rng.uniform(-1.0, 1.0, 500), 0.4))
        for values, eps in cases:
            if np.max(np.abs(values)) <= eps:
                continue
            sets = witness_sets(values, eps)
            assert sets == sorted_sets(values, eps)
            assert all(type(i) is int for s in sets for i in s)


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
            diff = fn.coefficients - fm.coefficients
            np.testing.assert_allclose(K.matvec(diff), np.zeros(space.dimension), atol=1e-13)
        cert = witness_lower_bound(u, K, 0.1, 1.0)
        cert0 = witness_lower_bound(u, MatrixOperator.zero(space), 0.1, 1.0)
        # the best pair-difference quotient survives the perturbation
        pair_ratios = [
            perturbed_ratio(u, K, StepFunction(fn.coefficients - fm.coefficients, space), 1.0)
            for fn, fm in itertools.combinations(fns, 2)
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


def assert_streams_without_entries(monkeypatch, level):
    """Witness search and verification at a level never build the n x n
    entries and peak below 64 MB of traced allocations."""
    u, kernel = diffuse_problem(7, level)
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
        assert_streams_without_entries(monkeypatch, 12)

    def test_level_14_streams_without_entries(self, monkeypatch):
        assert_streams_without_entries(monkeypatch, 14)

    def test_witness_search_streams_candidates(self):
        # level 14 has 11 witness sets, so 66 candidates of 128 KB each:
        # 8.3 MB if they were all built before the first is evaluated
        u, kernel = diffuse_problem(7, 14)
        K = kernel.discretize(u.space)
        tracemalloc.start()
        try:
            witness_lower_bound(u, K, 0.1, 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, f"peak {peak / 2**20:.1f} MB"


def reference_candidates(u, eps, p):
    """The witness candidates as StepFunctions: the indicators f_n, then
    the differences f_n - f_m, n < m."""
    space = u.space
    na = space.n_atoms
    fns = [normalized_indicator(space, [na + i for i in s], p) for s in witness_sets(u.coefficients[na:], eps)]
    diffs = (StepFunction(f.coefficients - h.coefficients, space) for f, h in itertools.combinations(fns, 2))
    return itertools.chain(fns, diffs)


def reference_quotient(u, K, g, p):
    """|u g + K g|_p / |g|_p as two norm_p sums over the full vector."""
    y = u.coefficients * g.coefficients + K.matvec(g.coefficients)
    return norm_p(StepFunction(y, u.space), p) / norm_p(g, p)


def reference_witness_search(u, K, eps, p):
    """witness_lower_bound as a loop over built candidates: each indicator
    and difference a StepFunction, each quotient two norm_p sums over the
    full vector of u g + K g and of g."""
    candidates = reference_candidates(u, eps, p)
    best_g = next(candidates)
    best_ratio = -np.inf
    for g in itertools.chain([best_g], candidates):
        r = reference_quotient(u, K, g, p)
        if r > best_ratio:
            best_ratio, best_g = r, g
    return float(best_ratio), best_g


def assert_search_matches_reference(u, K, p, eps=0.1):
    cert = witness_lower_bound(u, K, eps, p)
    bound, witness = reference_witness_search(u, K, eps, p)
    assert repr(cert.bound) == repr(bound), (u.space.dimension, p)
    assert list(map(repr, cert.witness.coefficients.tolist())) == list(map(repr, witness.coefficients.tolist()))
    return cert


WITNESS_PS = [1.0, 1.5, 2.0, 3.0]


class TestWitnessSearchMatchesReference:
    """The search scores every candidate in one scratch vector with the
    float operations of the built-candidate loop, so bound and witness
    agree with it repr for repr."""

    @pytest.mark.parametrize("p", WITNESS_PS)
    @pytest.mark.parametrize("seed", [1, 3, 7, 11, 79, 109])
    def test_rank_one_kernels(self, seed, p):
        for level in range(4, 13):
            u, kernel = diffuse_problem(seed, level)
            assert_search_matches_reference(u, kernel.discretize(u.space), p)

    @pytest.mark.parametrize("p", WITNESS_PS)
    def test_no_perturbation(self, p):
        for level in range(4, 13):
            u, _ = diffuse_problem(0, level)
            assert_search_matches_reference(u, MatrixOperator.zero(u.space), p)

    @pytest.mark.parametrize("p", WITNESS_PS)
    def test_ties_keep_the_first_candidate(self, p):
        # u = 1 and K = 0 give every candidate the quotient 1.0 exactly
        space = build_space(diffuse_interval=(0.0, 1.0), diffuse_level=8)
        u = StepFunction.constant(1.0, space)
        cert = assert_search_matches_reference(u, MatrixOperator.zero(space), p)
        assert cert.bound == 1.0
        assert np.array_equal(cert.witness.coefficients, normalized_indicator(space, range(256), p).coefficients)

    @pytest.mark.parametrize("p", WITNESS_PS)
    @pytest.mark.parametrize("interval", [(0.0, 1.0), (-0.3, 1.1)])
    def test_every_candidate_quotient(self, interval, p):
        # perturbed_ratio shares the search's kernel; on each candidate it
        # must give the built-candidate quotient, whose |g| sums over the
        # full vector (pairwise and left-to-right sums of |g| differ on
        # most candidates, though rarely on a winner)
        for level in range(4, 11):
            space = build_space(diffuse_interval=interval, diffuse_level=level)
            u = StepFunction.from_function(space, lambda x: x)
            K = FunctionKernel.random_polynomial(3, 11).discretize(space)
            for g in reference_candidates(u, 0.1, p):
                assert repr(perturbed_ratio(u, K, g, p)) == repr(reference_quotient(u, K, g, p)), level

    @pytest.mark.parametrize("p", WITNESS_PS)
    def test_random_dense_perturbations(self, p):
        for level in range(4, 10):
            u, _ = diffuse_problem(0, level)
            rng = np.random.default_rng([29, level])
            K = MatrixOperator(rng.uniform(-1.0, 1.0, (u.space.dimension,) * 2), u.space)
            assert_search_matches_reference(u, K, p)

    @pytest.mark.parametrize("p", WITNESS_PS)
    def test_space_with_atoms(self, p):
        # atoms of unequal mass come first; the witnesses live on the cells
        rng = np.random.default_rng(29)
        space = build_space(rng.uniform(0.1, 2.0, 5), diffuse_interval=(0.0, 1.0), diffuse_level=7)
        u = StepFunction(np.r_[rng.uniform(-3.0, 3.0, 5), space.cell_midpoints], space)
        for K in (
            FunctionKernel.random_polynomial(3, 7).discretize(space),
            MatrixOperator(rng.uniform(-1.0, 1.0, (space.dimension,) * 2), space),
        ):
            cert = assert_search_matches_reference(u, K, p)
            assert not np.any(cert.witness.coefficients[:5])

    @pytest.mark.parametrize("p", WITNESS_PS)
    def test_nan_kernel(self, p):
        # every quotient is NaN, so no candidate beats -inf and the first
        # indicator stands
        u, _ = diffuse_problem(0, 5)
        entries = np.zeros((u.space.dimension,) * 2)
        entries[3, 7] = np.nan
        cert = assert_search_matches_reference(u, MatrixOperator(entries, u.space), p)
        assert cert.bound == -math.inf

    @pytest.mark.parametrize("p", [1.0, 1.5])
    def test_builds_at_most_one_step_function_per_set(self, monkeypatch, p):
        # the built-candidate loop makes m indicators, m(m - 1)/2
        # differences and a StepFunction of u g + K g per candidate
        u, kernel = diffuse_problem(7, 10)
        K = kernel.discretize(u.space)
        m = len(witness_sets(u.coefficients, 0.1))
        built = []
        init = StepFunction.__init__

        def spy(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(StepFunction, "__init__", spy)
        witness_lower_bound(u, K, 0.1, p)
        assert 0 < len(built) <= m + 1, (m, len(built))
        built.clear()
        reference_witness_search(u, K, 0.1, p)
        assert len(built) == m + m * (m - 1) // 2 + m * (m + 1) // 2


def full_check(cert, u, K, p, rtol=1e-12):
    """verify_certificate as it read before it checked on the witness's
    support: a witness_pair bound against an upper bound for the whole of
    M_u + K, a pinching_diagonal bound against the exact norm of M_u + K."""
    if cert.construction == WITNESS_PAIR:
        r = essnorm_module.perturbed_ratio(u, K, cert.witness, p)
        if p == 1.0:
            if r != cert.bound:
                return False
        elif abs(r - cert.bound) > rtol * max(1.0, abs(cert.bound)):
            return False
        return cert.bound <= opnorm_upper_bound(mult_op(u) + K, p) * (1.0 + rtol)
    quotients = p1_column_quotients(mult_op(u) + essnorm_module.diagonal_compactification(K))
    if cert.bound != float(np.max(quotients)):
        return False
    support = np.nonzero(cert.witness.coefficients)[0]
    if support.size != 1 or quotients[support[0]] != cert.bound:
        return False
    return cert.bound <= opnorm_p1(mult_op(u) + K)


def support(g):
    return np.flatnonzero(g.coefficients)


class TestSupportVerification:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 7])
    def test_support_quotients_match_full_quotients(self, seed):
        # the quotients on every witness set and on the winning witnesses
        # at p = 1 and 1.5, level 13 for one kernel only (0.4 s each)
        for level in range(4, 14 if seed == 7 else 13):
            u, kernel = diffuse_problem(seed, level)
            for K in (kernel.discretize(u.space), MatrixOperator.zero(u.space)):
                A = mult_op(u) + K
                full = p1_column_quotients(A)
                cols = [np.array(s) for s in witness_sets(u.coefficients, 0.1)]
                cols += [support(witness_lower_bound(u, K, 0.1, p).witness) for p in (1.0, 1.5)]
                for c in cols:
                    np.testing.assert_array_equal(_quotients_on(A, c), full[c])

    def test_support_quotients_of_random_dense_perturbations(self):
        for level in range(4, 11):
            u, _ = diffuse_problem(0, level)
            rng = np.random.default_rng([5, level])
            K = MatrixOperator(rng.uniform(-1.0, 1.0, (u.space.dimension,) * 2), u.space)
            A = mult_op(u) + K
            full = p1_column_quotients(A)
            for p in (1.0, 1.5):
                c = support(witness_lower_bound(u, K, 0.1, p).witness)
                np.testing.assert_array_equal(_quotients_on(A, c), full[c])
            for c in witness_sets(u.coefficients, 0.1):
                np.testing.assert_array_equal(_quotients_on(A, np.array(c)), full[list(c)])

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 7])
    def test_every_certificate_passes_both_checks(self, seed, p):
        for level in range(4, 13):
            u, kernel = diffuse_problem(seed, level)
            K = kernel.discretize(u.space)
            cert = witness_lower_bound(u, K, 0.1, p)
            assert verify_certificate(cert, u, K, p), (level, cert.bound)
            assert full_check(cert, u, K, p), (level, cert.bound)
            # the witness reproduces its bound bit for bit, so a bound one
            # ulp off either way is rejected
            for direction in (-math.inf, math.inf):
                moved = LowerBoundCertificate(math.nextafter(cert.bound, direction), cert.witness, WITNESS_PAIR)
                assert not verify_certificate(moved, u, K, p), (level, direction)

    @pytest.mark.parametrize("p", [1.0, 1.5])
    def test_witness_pair_bound_above_its_support_is_rejected(self, monkeypatch, p):
        # the witness's recomputed quotient is taken to be the forged bound,
        # so only the soundness comparison decides
        u, kernel = diffuse_problem(7, 8)
        K = kernel.discretize(u.space)
        A = mult_op(u) + K
        q = p1_column_quotients(A)
        cols = np.sort(np.argsort(q, kind="stable")[:3])
        witness = normalized_indicator(u.space, cols, p)
        if p == 1.0:
            on_support = float(np.max(q[cols]))
        else:
            # the Riesz-Thorin bound of A P_S, from the dense entries
            w = u.space.masses ** (1.0 / p)
            B = np.abs(w[:, None] * A.entries[:, cols] / w[None, cols])
            on_support = B.sum(axis=0).max() ** (1.0 / p) * B.sum(axis=1).max() ** (1.0 - 1.0 / p)
        full = opnorm_upper_bound(A, p)
        assert on_support * (1 + 1e-6) < full

        def forged(bound):
            monkeypatch.setattr(essnorm_module, "perturbed_ratio", lambda *args: bound)
            return LowerBoundCertificate(bound, witness, WITNESS_PAIR)

        between = forged(0.5 * (on_support + full))
        assert full_check(between, u, K, p)
        assert not verify_certificate(between, u, K, p)
        if p == 1.0:
            # the bound may reach max over S of q_j within rtol, not beyond
            threshold = on_support * (1.0 + 1e-12)
            assert verify_certificate(forged(threshold), u, K, p)
            assert not verify_certificate(forged(np.nextafter(threshold, np.inf)), u, K, p)

    def test_pinching_bound_above_its_column_is_rejected(self, monkeypatch):
        # u = 0 on dyadic cells, so the forged diagonal's quotient is the
        # forged bound exactly; every column but j has a zero diagonal
        space = build_space(diffuse_interval=(0.0, 1.0), diffuse_level=6)
        u = StepFunction(np.zeros(space.dimension), space)
        K = FunctionKernel.random_polynomial(3, 7).discretize(space)
        q = p1_column_quotients(mult_op(u) + K)
        j = int(np.argmin(q))
        assert q[j] * (1 + 1e-6) < np.max(q)

        def forged(bound):
            d = np.zeros(space.dimension)
            d[j] = bound
            monkeypatch.setattr(
                essnorm_module, "diagonal_compactification",
                lambda K: MultiplicationOperator(d, K.space),
            )
            return LowerBoundCertificate(bound, normalized_indicator(space, [j], 1.0), PINCHING_DIAGONAL)

        between = forged(0.5 * (q[j] + np.max(q)))
        assert full_check(between, u, K, 1.0)
        assert not verify_certificate(between, u, K, 1.0)
        assert verify_certificate(forged(float(q[j])), u, K, 1.0)
        assert not verify_certificate(forged(np.nextafter(q[j], np.inf)), u, K, 1.0)

    def test_verification_builds_blocks_on_the_support_only(self, monkeypatch):
        u, kernel = diffuse_problem(7, 12)
        K = kernel.discretize(u.space)
        fns = [normalized_indicator(u.space, s, 1.0) for s in witness_sets(u.coefficients, 0.1)]
        certs = [(witness_lower_bound(u, K, 0.1, p), p) for p in (1.0, 1.5, 3.0)]
        diffs = [
            StepFunction(f.coefficients - h.coefficients, u.space) for f, h in ((fns[0], fns[1]), (fns[2], fns[-1]))
        ]
        for g in fns + diffs:
            certs.append((LowerBoundCertificate(perturbed_ratio(u, K, g, 1.0), g, WITNESS_PAIR), 1.0))
        blocks = []
        columns = MatrixOperator._columns

        def spy(self, *args, **kwargs):
            blocks.append(args)
            return columns(self, *args, **kwargs)

        monkeypatch.setattr(MatrixOperator, "_columns", spy)
        for cert, p in certs:
            blocks.clear()
            assert verify_certificate(cert, u, K, p)
            size = support(cert.witness).size
            assert len(blocks) == math.ceil(size / 64), (size, len(blocks))
            assert all(cols.size <= 64 for cols, *_ in blocks), size

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
    def test_zero_or_non_finite_witness_is_rejected(self, p):
        u, kernel = diffuse_problem(7, 3)
        K = kernel.discretize(u.space)
        n = u.space.dimension
        genuine = witness_lower_bound(u, K, 0.1, p)
        assert verify_certificate(genuine, u, K, p)
        if p == 1.0:
            pinched = pinching_lower_bound(u, K)
            assert verify_certificate(pinched, u, K, p)
        zero = StepFunction(np.zeros(n), u.space)
        nan_last = StepFunction(np.r_[np.zeros(n - 1), np.nan], u.space)
        for g in (zero, nan_last):
            for construction in (WITNESS_PAIR, PINCHING_DIAGONAL):
                # 1.05 lies below the upper bound of the last column alone
                # (1.37 at p = 1.5, 1.19 at p = 2), so only the witness
                # checks can reject it
                for bound in (0.0, genuine.bound, 1.05):
                    cert = LowerBoundCertificate(bound, g, construction)
                    assert not verify_certificate(cert, u, K, p), (construction, bound)

    def test_level_16_run_within_budget(self):
        raw = json.loads((CONFIGS / "diffuse_witness.json").read_text())
        cfg = ExperimentConfig.from_dict({**raw, "levels": [16, 16]})
        start = perf_counter()
        result = run_scenario(cfg)
        elapsed = perf_counter() - start
        assert [c.passed for c in result.checks] == [True]
        assert elapsed < 5.0, f"{elapsed:.2f} s"


class TestQnDecayProfile:
    def test_geometric_tail_closed_form(self):
        space = unit_atoms(21)
        g = StepFunction(np.concatenate([0.5 ** np.arange(1, 21), [0.5**20]]), space)
        eta = StepFunction.constant(1.0, space)
        profile = qn_decay_profile(rank_one_diffuse(eta, g))
        for n in range(21):
            assert profile[n] == 2.0**-n
        assert profile[21] == 0.0

    @pytest.mark.parametrize("dim", [1, 2, 5])
    def test_last_row_is_summed(self, dim, monkeypatch):
        # the row at n = dim sums an empty block like every other row
        calls = []
        real = essnorm_module._weighted_abs_colsums
        monkeypatch.setattr(
            essnorm_module, "_weighted_abs_colsums", lambda block, mu: calls.append(len(block)) or real(block, mu)
        )
        rng = np.random.default_rng(dim)
        K = MatrixOperator(rng.uniform(-1.0, 1.0, (dim, dim)), build_space(rng.uniform(0.1, 2.0, dim)))
        profile = qn_decay_profile(K)
        assert calls == list(range(dim, -1, -1))
        assert profile[-1] == 0.0

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

    @pytest.mark.parametrize("n", [1, 2, 3, 65, 129])
    def test_matches_masked_dense_copies(self, n):
        # Q_n K as a dense copy of K with its first n rows zeroed, one
        # operator per n, and its exact L1 norm
        rng = np.random.default_rng([17, n])
        space = build_space(rng.uniform(0.1, 2.0, n))
        dense = MatrixOperator(rng.uniform(-1.0, 1.0, (n, n)), space)
        factors = (rng.uniform(-1.0, 1.0, (n, 3)), rng.uniform(-1.0, 1.0, (n, 3)))
        factored = MatrixOperator(None, space, factors=factors)
        with_diag = MatrixOperator(None, space, factors=factors, diag=rng.uniform(-1.0, 1.0, n))
        for K in (dense, factored, with_diag):
            masked_norms = []
            for k in range(n + 1):
                masked = K.entries.copy()
                masked[:k, :] = 0.0
                masked_norms.append(opnorm_p1(MatrixOperator(masked, space)))
            for n_max in range(n + 1):
                profile = qn_decay_profile(K, n_max)
                assert list(map(float.hex, profile)) == list(map(float.hex, masked_norms[: n_max + 1]))

    def test_builds_no_operator(self, monkeypatch):
        K = FunctionKernel.random_polynomial(3, 7).discretize(
            build_space(diffuse_interval=(0.0, 1.0), diffuse_level=6)
        )
        built = []
        init = MatrixOperator.__init__

        def spy(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(MatrixOperator, "__init__", spy)
        profile = qn_decay_profile(K)
        assert len(profile) == K.dimension + 1 and profile[-1] == 0.0
        assert built == []

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

    def test_sequence_of_k_matches_each_k(self):
        values = np.random.default_rng(113).choice([-2.0, -0.0, 0.0, 1.0, 2.0], 12)
        ks = [5, 0, 12, 3, 3, 40]
        assert best_diagonal_rank_k(values, ks) == [best_diagonal_rank_k(values, k) for k in ks]
        assert best_diagonal_rank_k(values, range(0)) == []
        with pytest.raises(ValueError):
            best_diagonal_rank_k(values, [1, -1])

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
        u = harmonic_symbol(20)
        K = truncation_perturbation(u, 10)
        S = mult_op(u) + K
        expected = np.concatenate([np.zeros(10), u.coefficients[10:]])
        np.testing.assert_array_equal(np.diag(S.entries), expected)

    def test_certifies_upper_bound(self):
        u = harmonic_symbol(50)
        for n in (10, 25, 49):
            K = truncation_perturbation(u, n)
            # sup over the remaining coordinates, attained at index n
            assert opnorm_p1(mult_op(u) + K) == u.coefficients[n]
        assert essential_norm(u, HARMONIC) == 1.0

    def test_matches_projection_construction(self):
        u = harmonic_symbol(12)
        # -M_u (I - Q_5), with Q_5 zeroing the first 5 coordinates
        head = np.diag((np.arange(u.space.dimension) < 5).astype(float))
        direct = -(mult_op(u).entries @ head)
        np.testing.assert_array_equal(truncation_perturbation(u, 5).entries, direct)
