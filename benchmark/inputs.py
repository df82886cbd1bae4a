"""Seeded inputs of the three workloads.

Everything here is plain Python and numpy, so the orchestrator can draw
the same inputs as the worker and check outputs without importing the
program.  The workload seed maps to the draws as follows:

* ``refine``: the seed is the seed of the rank-3 polynomial kernel
  (``perturbation.seed`` of a ``diffuse_witness`` config), whose
  coefficients are drawn i.i.d. uniform on [-1, 1] from
  ``default_rng(seed)`` in the order eta_1, g_1, eta_2, ...
* ``ensemble``: the seed is the ``seed`` field of the ``pinching_suite``
  and ``lattice_oracle`` configs; trial t draws from
  ``default_rng([seed, t])``.  ``atomic_limsup`` and ``qn_decay`` have no
  random input.
* ``estimator``: operator t of the criterion-4 ensemble draws masses on
  [0.1, 2.0] and then entries on [-1, 1] from ``default_rng([seed, t])``.
  The witness certificates use the kernel of ``configs/diffuse_witness.json``
  (seed 7) at every workload seed: the estimator's iteration count on
  ``M_u + K`` depends on the kernel, and over kernel seeds 1-8 the witness
  part took from 0.9 s to 4.5 s, so a seeded kernel would make ``run_s`` a
  property of the seed.  The 6x6 ensemble is large enough that its cost
  varies by about 3% between seeds.
"""

from __future__ import annotations

import numpy as np

WORKLOADS = ("refine", "ensemble", "estimator")

EPSILON = 0.1
KERNEL_RANK = 3
KERNEL_DEGREE = 2
REFINE_LEVELS = (6, 12)

PINCH_DIM = 8
PINCH_MASSES = (0.1, 2.0)
PINCH_TRIALS = 2000
LATTICE_DIM = 5
LATTICE_TRIALS = 1000
ATOMS = 200
ATOMIC_K_RANGE = (0, ATOMS - 1)
ATOMIC_CUTOFF = 100
QN_COUNT = 20

ESTIMATOR_DIM = 6
ESTIMATOR_MASSES = (0.1, 2.0)
ESTIMATOR_TRIALS = 200
ESTIMATOR_PS = (1.5, 2.0, 3.0)
ESTIMATOR_LEVELS = (4, 7)
WITNESS_KERNEL_SEED = 7


def witness_config(seed: int, p: float, levels: tuple[int, int]) -> dict:
    """``diffuse_witness`` config: u = identity on [0, 1], rank-3 kernel."""
    return {
        "scenario": "diffuse_witness",
        "space": {"interval": [0.0, 1.0]},
        "u": {"diffuse": {"kind": "identity"}},
        "perturbation": {"kind": "rank_one", "rank": KERNEL_RANK, "seed": seed},
        "p": p,
        "epsilon": EPSILON,
        "levels": list(levels),
        "seed": seed,
    }


def refine_configs(seed: int) -> list[dict]:
    return [witness_config(seed, 1.0, REFINE_LEVELS)]


def ensemble_configs(seed: int) -> list[dict]:
    lo, hi = PINCH_MASSES
    return [
        {
            "scenario": "pinching_suite",
            "space": {"random": {"dimension": PINCH_DIM, "mass_low": lo, "mass_high": hi}},
            "trials": PINCH_TRIALS,
            "p": 1.0,
            "seed": seed,
        },
        {
            "scenario": "lattice_oracle",
            "space": {"random": {"dimension": LATTICE_DIM}},
            "trials": LATTICE_TRIALS,
            "seed": seed,
        },
        {
            "scenario": "atomic_limsup",
            "space": {
                "atom_masses": {"value": 1.0, "count": ATOMS},
                "tail": {"kind": "harmonic_limit", "params": [1.0, 1.0]},
            },
            "u": {"atoms": "from_tail", "tail": {"kind": "harmonic_limit", "params": [1.0, 1.0]}},
            "perturbation": {"kind": "truncation", "cutoff": ATOMIC_CUTOFF},
            "k_range": list(ATOMIC_K_RANGE),
            "p": 1.0,
            "seed": seed,
        },
        {
            "scenario": "qn_decay",
            "space": {"atom_masses": {"value": 1.0, "count": QN_COUNT + 1}},
            "kernel": {
                "eta": {"kind": "constant", "value": 1.0},
                "g": {"kind": "geometric_tail", "count": QN_COUNT},
            },
            "n_max": QN_COUNT,
            "p": 1.0,
            "formula": {"kind": "power", "base": 0.5, "scale": 1.0},
            "seed": seed,
        },
    ]


def estimator_configs() -> list[dict]:
    return [witness_config(WITNESS_KERNEL_SEED, p, ESTIMATOR_LEVELS) for p in ESTIMATOR_PS]


def estimator_draws(seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """(masses, entries) of every operator in the criterion-4 ensemble."""
    out = []
    for t in range(ESTIMATOR_TRIALS):
        rng = np.random.default_rng([seed, t])
        masses = rng.uniform(*ESTIMATOR_MASSES, ESTIMATOR_DIM)
        entries = rng.uniform(-1.0, 1.0, (ESTIMATOR_DIM, ESTIMATOR_DIM))
        out.append((masses, entries))
    return out


def pinching_draw(seed: int, t: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Masses, entries and two-block assignment of pinching trial t.

    Drawn in the documented order; an assignment that leaves one block
    empty is drawn again.
    """
    rng = np.random.default_rng([seed, t])
    masses = rng.uniform(*PINCH_MASSES, PINCH_DIM)
    entries = rng.uniform(-1.0, 1.0, (PINCH_DIM, PINCH_DIM))
    assign = rng.integers(0, 2, PINCH_DIM)
    while assign.all() or not assign.any():
        assign = rng.integers(0, 2, PINCH_DIM)
    return masses, entries, assign


def kernel_coefficients(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(eta, g) coefficient arrays of shape (rank, degree + 1)."""
    rng = np.random.default_rng(seed)
    eta = np.empty((KERNEL_RANK, KERNEL_DEGREE + 1))
    g = np.empty_like(eta)
    for r in range(KERNEL_RANK):
        eta[r] = rng.uniform(-1.0, 1.0, KERNEL_DEGREE + 1)
        g[r] = rng.uniform(-1.0, 1.0, KERNEL_DEGREE + 1)
    return eta, g
