"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance and runtime budget is pinned here; random draws use
numpy's PCG64 seeded per trial with (seed, trial).
"""

from contextlib import contextmanager
from time import perf_counter

import numpy as np
import pytest

from essnorm_lab.essnorm import (
    best_diagonal_rank_k,
    diagonal_compactification,
    essential_norm,
    qn_decay_profile,
    truncation_perturbation,
    witness_lower_bound,
)
from essnorm_lab.experiments import ExperimentConfig, run_scenario
from essnorm_lab.lattice import centre_decay_under_refinement, join, meet, modulus
from essnorm_lab.lpspace import StepFunction
from essnorm_lab.measure import TailDescriptor, build_space
from essnorm_lab.operators import (
    FunctionKernel,
    MatrixOperator,
    MultiplicationOperator,
    mult_op,
    opnorm_estimate,
    opnorm_p1,
    rank_one_diffuse,
)

PINCHING_SEED = 20101
DK_SEED = 20102
CENTRE_SEED = 20103
LATTICE_SEED = 20104
KERNEL_SEED = 7


@contextmanager
def criterion(number, name, runtime_limit_s):
    start = perf_counter()
    try:
        yield
    except Exception:
        print(f"criterion {number} ({name}): FAIL")
        raise
    elapsed = perf_counter() - start
    ok = elapsed < runtime_limit_s
    print(f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'} [{elapsed:.2f}s]")
    assert ok, f"runtime {elapsed:.2f}s exceeds the {runtime_limit_s}s budget"


def trial_rng(seed, trial):
    return np.random.default_rng([seed, trial])


def test_criterion_1_atomic_formula_convergence():
    with criterion(1, "atomic formula convergence", 1.0):
        n_atoms = 200
        tail = TailDescriptor.harmonic_limit(1.0)
        space = build_space(np.ones(n_atoms))
        u = np.array([tail.value(n) for n in range(1, n_atoms + 1)])
        symbol = StepFunction(u, space)
        assert essential_norm(symbol, tail) == 1.0
        values = [best_diagonal_rank_k(u, k) for k in range(n_atoms)]
        for k, value in enumerate(values):
            assert abs(value - (1.0 + 1.0 / (k + 1))) <= 1e-12
        assert all(b <= a for a, b in zip(values, values[1:]))
        # the sweep closes in on the formula value from above
        assert values[-1] == 1.0 + 1.0 / n_atoms
        assert abs(values[-1] - essential_norm(symbol, tail)) <= 1.0 / n_atoms + 1e-15


def test_criterion_2_pinching_inequality():
    with criterion(2, "pinching inequality", 5.0):
        # per trial: masses on [0.1, 2.0], then the 8 x 8 entries, then the
        # two-block assignment; each row holds the worse of the diagonal and
        # the two-block pinch against the full norm
        cfg = ExperimentConfig.from_dict(
            {
                "scenario": "pinching_suite",
                "space": {"random": {"dimension": 8, "mass_low": 0.1, "mass_high": 2.0}},
                "trials": 1000,
                "p": 1.0,
                "seed": PINCHING_SEED,
            }
        )
        result = run_scenario(cfg)
        assert len(result.rows) == 1000
        assert result.passed
        assert all(row.computed <= row.certified for row in result.rows)


def test_criterion_3_diagonal_compactification_optimality():
    with criterion(3, "D_K optimality direction", 5.0):
        dim = 8
        violations = 0
        for t in range(1000):
            rng = trial_rng(DK_SEED, t)
            space = build_space(rng.uniform(0.1, 2.0, dim))
            u = StepFunction(rng.uniform(-1.0, 1.0, dim), space)
            K = MatrixOperator(rng.uniform(-1.0, 1.0, (dim, dim)), space)
            lhs = opnorm_p1(mult_op(u) + K)
            rhs = opnorm_p1(mult_op(u) + diagonal_compactification(K))
            if lhs < rhs:
                violations += 1
            # equality whenever the perturbation is diagonal
            K_diag = MultiplicationOperator(K.diagonal, space)
            if opnorm_p1(mult_op(u) + K_diag) != opnorm_p1(
                mult_op(u) + diagonal_compactification(K_diag)
            ):
                violations += 1
        assert violations == 0


def test_criterion_4_centre_projection_contractivity():
    with criterion(4, "centre-projection contractivity", 10.0):
        dim = 6
        violations = 0
        for t in range(500):
            rng = trial_rng(CENTRE_SEED, t)
            space = build_space(rng.uniform(0.1, 2.0, dim))
            A = MatrixOperator(rng.uniform(-1.0, 1.0, (dim, dim)), space)
            max_diag = float(np.max(np.abs(A.diagonal)))
            for p in (1.0, 1.5, 2.0, 3.0):
                if max_diag > opnorm_estimate(A, p):
                    violations += 1
        assert violations == 0


def test_criterion_5_rank_one_centre_decay():
    with criterion(5, "rank-one centre decay", 1.0):
        levels = range(1, 13)
        values = centre_decay_under_refinement(1.0, 1.0, levels)
        for level, value in zip(levels, values):
            assert value == 2.0**-level  # bit-exact with dyadic masses


def test_criterion_6_diffuse_witness_convergence():
    with criterion(6, "diffuse witness convergence", 10.0):
        eps = 0.1
        kernel = FunctionKernel.random_polynomial(3, KERNEL_SEED)
        bounds = []
        for level in range(6, 13):
            space = build_space(diffuse_interval=(0.0, 1.0), diffuse_level=level)
            u = StepFunction.from_function(space, lambda x: x)
            cert = witness_lower_bound(u, kernel.discretize(space), eps, 1.0)
            bounds.append(cert.bound)
            cert0 = witness_lower_bound(u, MatrixOperator.zero(space), eps, 1.0)
            assert cert0.bound >= 1.0 - eps - 2.0 ** (-level + 1)
        assert bounds[8 - 6] >= 0.8
        assert all(b >= a for a, b in zip(bounds, bounds[1:]))


def test_criterion_7_qn_decay_closed_form():
    with criterion(7, "Q_n decay closed form", 1.0):
        # the 21st coordinate carries the geometric tail sum 2^-20, so every
        # tail compression norm matches the infinite closed form exactly
        space = build_space(np.ones(21))
        g = StepFunction(np.concatenate([0.5 ** np.arange(1, 21), [0.5**20]]), space)
        eta = StepFunction.constant(1.0, space)
        profile = qn_decay_profile(rank_one_diffuse(eta, g), 21)
        for n in range(21):
            assert profile[n] == 2.0**-n
        assert profile[21] == 0.0


def test_criterion_8_lattice_oracle_equivalence():
    with criterion(8, "lattice oracle equivalence", 10.0):
        dim = 5
        ts = np.linspace(0.0, 1.0, 21)
        worst_jm = 0.0
        for t in range(500):
            rng = trial_rng(LATTICE_SEED, t)
            space = build_space(np.ones(dim))
            S = MatrixOperator(rng.uniform(-1.0, 1.0, (dim, dim)), space)
            T = MatrixOperator(rng.uniform(-1.0, 1.0, (dim, dim)), space)
            cand = (
                ts[None, None, :] * S.entries[:, :, None]
                + (1.0 - ts[None, None, :]) * T.entries[:, :, None]
            )
            worst_jm = max(
                worst_jm,
                float(np.max(np.abs(join(S, T).entries - cand.max(axis=2)))),
                float(np.max(np.abs(meet(S, T).entries - cand.min(axis=2)))),
            )
        assert worst_jm <= 1e-9

        worst_mod = 0.0
        axes = [np.linspace(-1.0, 1.0, 5)] * 3
        gs = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=0)
        for t in range(300):
            rng = trial_rng(LATTICE_SEED + 1, t)
            space = build_space(np.ones(3))
            S = MatrixOperator(rng.uniform(-1.0, 1.0, (3, 3)), space)
            oracle = np.max(np.abs(S.entries @ gs), axis=1)
            applied = modulus(S).matvec(np.ones(3))
            worst_mod = max(worst_mod, float(np.max(np.abs(oracle - applied))))
        assert worst_mod <= 1e-6


def test_criterion_9_upper_bound_certification():
    with criterion(9, "upper-bound certification", 1.0):
        n_atoms = 200
        tail = TailDescriptor.harmonic_limit(1.0)
        space = build_space(np.ones(n_atoms))
        u_values = np.array([tail.value(n) for n in range(1, n_atoms + 1)])
        u = StepFunction(u_values, space)
        K = truncation_perturbation(u, 100)
        achieved = opnorm_p1(mult_op(u) + K)
        assert achieved == 1.0 + 1.0 / 101.0
        assert achieved <= 1.01
        # jointly with criterion 1 this sandwiches the formula value
        assert essential_norm(u, tail) == 1.0
        assert best_diagonal_rank_k(u_values, 100) == achieved
        assert essential_norm(u, tail) <= achieved <= 1.01
