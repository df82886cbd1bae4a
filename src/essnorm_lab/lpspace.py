"""Step functions over a discretized space and their weighted p-norms.

A step function is a coefficient vector with one entry per coordinate
(atoms first, then diffuse cells): the a.e. value of the function on that
piece.  Norms are the weighted p-norms (sum |f_i|^p mu_i)^(1/p); the maps
``to_standard`` / ``from_standard`` implement the isometry onto the
unweighted sequence space, f_i -> f_i * mu_i^(1/p).
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

import numpy as np

from .measure import MeasureSpace

__all__ = [
    "StepFunction",
    "sum_ltr",
    "norm_p",
    "normalized_indicator",
    "to_standard",
    "from_standard",
]


def sum_ltr(values: Iterable[float]) -> float:
    """Sum floats strictly left to right.

    Every p = 1 quantity in the package funnels through this fixed
    accumulation order, so exact-equality checks are reproducible and the
    monotonicity of partial sums under dropping nonnegative terms is
    preserved in floating point.
    """
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return 0.0
    # cumsum accumulates sequentially, unlike np.sum's pairwise scheme
    return float(np.cumsum(arr)[-1])


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
    def zero(cls, space: MeasureSpace) -> "StepFunction":
        return cls(np.zeros(space.dimension), space)

    @classmethod
    def constant(cls, value: float, space: MeasureSpace) -> "StepFunction":
        return cls(np.full(space.dimension, float(value)), space)

    @classmethod
    def from_function(
        cls,
        space: MeasureSpace,
        fn: Callable[[np.ndarray], np.ndarray],
        atom_values: Sequence[float] | None = None,
    ) -> "StepFunction":
        """Discretize a function on the diffuse interval by cell averaging.

        Atom coordinates take the given ``atom_values`` (default 0), since a
        function of the interval variable says nothing about the atoms.
        """
        coeffs = np.zeros(space.dimension)
        if atom_values is not None:
            atom_values = np.asarray(atom_values, dtype=float)
            if atom_values.size != space.n_atoms:
                raise ValueError("atom_values length does not match the atom count")
            coeffs[: space.n_atoms] = atom_values
        if space.has_diffuse:
            coeffs[space.n_atoms :] = space.cell_averages(fn)
        return cls(coeffs, space)

    # -- vector arithmetic ------------------------------------------------

    def _same_space(self, other: "StepFunction") -> None:
        if self.space != other.space:
            raise ValueError("step functions live on different spaces")

    def __add__(self, other: "StepFunction") -> "StepFunction":
        self._same_space(other)
        return StepFunction(self.coefficients + other.coefficients, self.space)

    def __sub__(self, other: "StepFunction") -> "StepFunction":
        self._same_space(other)
        return StepFunction(self.coefficients - other.coefficients, self.space)

    def __neg__(self) -> "StepFunction":
        return StepFunction(-self.coefficients, self.space)

    def __mul__(self, scalar: float) -> "StepFunction":
        return StepFunction(self.coefficients * float(scalar), self.space)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"StepFunction({np.array2string(self.coefficients, threshold=8)})"


def norm_p(f: StepFunction, p: float) -> float:
    """Weighted p-norm (sum_i |f_i|^p mu_i)^(1/p).

    At p = 1 the sum is accumulated left to right over the coordinate
    order, which keeps p = 1 norms exactly reproducible.
    """
    p = _check_p(p)
    mu = f.space.masses
    absf = np.abs(f.coefficients)
    if p == 1.0:
        return sum_ltr(absf * mu)
    total = float(np.sum(absf**p * mu))
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
    mass = sum_ltr(space.masses[indices])
    if p == 1.0:
        c = 1.0 / mass
    else:
        c = mass ** (-1.0 / p)
    coeffs = np.zeros(space.dimension)
    coeffs[indices] = c
    return StepFunction(coeffs, space)


def to_standard(f: StepFunction, p: float) -> np.ndarray:
    """Coordinates of f under the isometry onto the unweighted p-space."""
    p = _check_p(p)
    return f.coefficients * f.space.masses ** (1.0 / p)


def from_standard(values: Sequence[float], space: MeasureSpace, p: float) -> StepFunction:
    """Inverse of :func:`to_standard`."""
    p = _check_p(p)
    values = np.asarray(values, dtype=float)
    return StepFunction(values / space.masses ** (1.0 / p), space)
