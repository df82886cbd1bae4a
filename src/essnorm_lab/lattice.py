"""Order operations on operators: modulus, join, meet, regular norm, and
the band split into a multiplication part plus a zero-diagonal part.

On a finite discretization every operator is regular and the defining
sup/inf formulas

    (S v T) f = sup { S g + T h : g, h >= 0, g + h = f }
    |S| f     = sup { |S g|    : |g| <= f }

reduce columnwise to entrywise max/min/abs of the matrices; the sup/inf
formulas are kept as test oracles.  The multiplication operators form a
band whose complement is exactly the zero-diagonal operators, and the band
projection is diagonal extraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .essnorm import diagonal_compactification
from .lpspace import StepFunction
from .measure import build_space
from .operators import MatrixOperator, MultiplicationOperator, opnorm_estimate, rank_one_diffuse

__all__ = [
    "RegularDecomposition",
    "modulus",
    "join",
    "meet",
    "regular_norm",
    "centre_project",
    "centre_decay_under_refinement",
]


@dataclass(frozen=True, eq=False)
class RegularDecomposition:
    """Unique split S = centre_part + disjoint_part.

    The centre part is the multiplication operator carrying the diagonal of
    S; the disjoint part has zero diagonal, which in this discretization
    characterizes membership in the band disjoint from all multiplication
    operators.
    """

    centre_part: MultiplicationOperator
    disjoint_part: MatrixOperator


def _modulus(S: np.ndarray) -> np.ndarray:
    """The kernel of modulus: |S| entrywise, over any leading (stack) shape."""
    return np.abs(S)


def _join(S: np.ndarray, T: np.ndarray) -> np.ndarray:
    """The kernel of join: entrywise max, over any leading (stack) shape."""
    return np.maximum(S, T)


def _meet(S: np.ndarray, T: np.ndarray) -> np.ndarray:
    """The kernel of meet: entrywise min, over any leading (stack) shape."""
    return np.minimum(S, T)


def modulus(S: MatrixOperator) -> MatrixOperator:
    """|S|, realized entrywise; agrees with sup{|Sg| : |g| <= f} columnwise."""
    return MatrixOperator(_modulus(S.entries), S.space)


def join(S: MatrixOperator, T: MatrixOperator) -> MatrixOperator:
    """Lattice supremum S v T (entrywise max of the matrices)."""
    S._same_space(T)
    return MatrixOperator(_join(S.entries, T.entries), S.space)


def meet(S: MatrixOperator, T: MatrixOperator) -> MatrixOperator:
    """Lattice infimum S ^ T (entrywise min of the matrices)."""
    S._same_space(T)
    return MatrixOperator(_meet(S.entries, T.entries), S.space)


def regular_norm(S: MatrixOperator, p: float = 1.0) -> float:
    """Regular norm |S|_r = || |S| ||; exact at p = 1."""
    return opnorm_estimate(modulus(S), p)


def centre_project(S: MatrixOperator) -> RegularDecomposition:
    """Band projection onto the multiplication operators.

    Returns the diagonal of S as a MultiplicationOperator together with the
    zero-diagonal remainder; the two parts add back to S exactly.
    """
    off = S.entries.copy()
    np.fill_diagonal(off, 0.0)
    return RegularDecomposition(
        centre_part=diagonal_compactification(S),
        disjoint_part=MatrixOperator(off, S.space),
    )


def centre_decay_under_refinement(
    eta: Callable[[np.ndarray], np.ndarray] | float,
    g: Callable[[np.ndarray], np.ndarray] | float,
    levels: Sequence[int],
    interval: tuple[float, float] = (0.0, 1.0),
) -> list[float]:
    """Centre-part norms of the rank-one kernel across refinement levels.

    For each level L the kernel K f = (integral eta f) g is discretized on
    the interval at 2**L cells and the norm of its centre projection,
    max_i |g_i * eta_i * mu(C_i)|, is recorded; the kernel is held as its
    factors, so no 4**L entries are built.  The sequence decays to
    zero: on an ever finer grid a rank-one operator has an ever smaller
    diagonal, which is the discrete face of the fact that positive
    rank-one kernels on a diffuse space dominate no multiplication
    operator but zero.
    """
    fns = [f if callable(f) else (lambda x, c=float(f): c) for f in (eta, g)]
    out = []
    for level in levels:
        space = build_space(diffuse_interval=interval, diffuse_level=int(level))
        eta_l, g_l = (StepFunction.from_function(space, fn) for fn in fns)
        out.append(diagonal_compactification(rank_one_diffuse(eta_l, g_l)).opnorm)
    return out
