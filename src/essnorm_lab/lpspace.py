"""Step functions over a discretized space and their weighted p-norms.

A step function is a coefficient vector with one entry per coordinate
(atoms first, then diffuse cells): the a.e. value of the function on that
piece.  Norms are the weighted p-norms (sum |f_i|^p mu_i)^(1/p).
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

import numpy as np

from .measure import MeasureSpace

__all__ = [
    "StepFunction",
    "norm_p",
    "normalized_indicator",
]


def _weighted_abs_colsums(block: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Column sums sum_i |block[..., i, j]| mu[..., i] of a block or a stack.

    Every p = 1 sum in the package goes through here: the column blocks of
    exact operator norms, stacks of trial matrices, ``norm_p`` at p = 1 (a
    vector as one column) and the mass of ``normalized_indicator``.  The
    rows are added top to bottom, whatever the width, so exact-equality
    checks are reproducible and dropping rows can only lower a sum, in
    floating point too: numpy adds the rows of a C-contiguous array of two
    or more columns one after another, but reduces a lone column pairwise,
    so a lone column of one or more rows is summed by a cumulative sum
    instead (no rows sum to exact zeros).  A writable
    block is scratch and is overwritten; a read-only one is copied.
    """
    weighted = np.abs(block, out=block if block.flags.writeable else None, order="C")
    weighted *= mu[..., :, None]
    if weighted.shape[-1] == 1 and weighted.shape[-2]:
        return np.cumsum(weighted, axis=-2)[..., -1, :]
    return np.add.reduce(weighted, axis=-2)


def _check_p(p: float) -> float:
    p = float(p)
    if not math.isfinite(p) or p < 1.0:
        raise ValueError(f"p must be a finite real >= 1, got {p}")
    return p


class StepFunction:
    """A function constant on every atom and diffuse cell of a space."""

    __slots__ = ("coefficients", "space")

    def __init__(self, coefficients: Sequence[float], space: MeasureSpace):
        coeffs = np.array(coefficients, dtype=float)
        if coeffs.ndim != 1 or coeffs.size != space.dimension:
            raise ValueError(
                f"coefficient vector has length {coeffs.size}, "
                f"space has dimension {space.dimension}"
            )
        coeffs.setflags(write=False)
        object.__setattr__(self, "coefficients", coeffs)
        object.__setattr__(self, "space", space)

    def __setattr__(self, name, value):
        raise AttributeError("StepFunction is immutable")

    @classmethod
    def constant(cls, value: float, space: MeasureSpace) -> "StepFunction":
        return cls(np.full(space.dimension, float(value)), space)

    @classmethod
    def from_function(cls, space: MeasureSpace, fn: Callable[[np.ndarray], np.ndarray]) -> "StepFunction":
        """Discretize a function on the diffuse interval by cell averaging.

        Atom coordinates are 0, since a function of the interval variable
        says nothing about the atoms.
        """
        coeffs = np.zeros(space.dimension)
        if space.has_diffuse:
            coeffs[space.n_atoms :] = space.cell_averages(fn)
        return cls(coeffs, space)

    def __repr__(self) -> str:
        return f"StepFunction({np.array2string(self.coefficients, threshold=8)})"


def norm_p(f: StepFunction, p: float) -> float:
    """Weighted p-norm (sum_i |f_i|^p mu_i)^(1/p).

    At p = 1 the sum is accumulated left to right over the coordinate
    order, which keeps p = 1 norms exactly reproducible.
    """
    p = _check_p(p)
    mu = f.space.masses
    if p == 1.0:
        return float(_weighted_abs_colsums(f.coefficients[:, None], mu)[0])
    total = float(np.sum(np.abs(f.coefficients) ** p * mu))
    return total ** (1.0 / p)


def normalized_indicator(
    space: MeasureSpace, index_set: Iterable[int], p: float
) -> StepFunction:
    """Indicator of a coordinate set, scaled to unit p-norm.

    The result is 1_A / mu(A)^(1/p): supported exactly on ``index_set``,
    constant there, with norm_p equal to one.
    """
    p = _check_p(p)
    indices = sorted(set(int(i) for i in index_set))
    if not indices:
        raise ValueError("index set must be nonempty")
    if indices[0] < 0 or indices[-1] >= space.dimension:
        raise ValueError(f"index out of range for dimension {space.dimension}")
    mass = float(_weighted_abs_colsums(np.ones((len(indices), 1)), space.masses[indices])[0])
    if p == 1.0:
        c = 1.0 / mass
    else:
        c = mass ** (-1.0 / p)
    coeffs = np.zeros(space.dimension)
    coeffs[indices] = c
    return StepFunction(coeffs, space)
