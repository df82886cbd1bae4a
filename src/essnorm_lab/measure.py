"""Discretized measure spaces: finitely many atoms plus a dyadic interval.

A space is a disjoint union of an atomic part (an explicit list of atom
masses) and a diffuse part, modeled as one bounded interval split into
``2**level`` cells of equal mass.  Splitting every cell in two
("refinement") is the discrete counterpart of diffuseness: every
positive-mass piece of the diffuse part strictly contains smaller pieces,
while atoms are indivisible.

Masses are kept as exact binary floats wherever the inputs allow it; a
dyadic interval such as (0, 1) gives cell masses that are exact powers of
two, so the closed-form checks downstream hold bit-exactly.

Coordinate convention used throughout the package: atoms come first, in
storage order, followed by the diffuse cells from left to right.

A space holds masses only.  The values of a symbol on the atoms beyond the
stored ones are a ``TailDescriptor``, passed next to the symbol to
``essnorm.essential_norm``.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "TailDescriptor",
    "MeasureSpace",
    "build_space",
]

_TAIL_KINDS = {
    # kind -> number of parameters
    "finitely_supported": 0,
    "constant_limit": 1,
    "harmonic_limit": 2,
    "alternating": 2,
}

# two-point Gauss-Legendre node offset (relative to the cell midpoint, in
# units of the half-width); exact for cubics, so polynomial kernels are
# averaged without quadrature error
_GAUSS2_OFFSET = 1.0 / math.sqrt(3.0)


@dataclass(frozen=True)
class TailDescriptor:
    """Closed-form rule for a symbol's values on the atoms beyond the stored ones.

    Kinds and their parameters:

    =====================  ============  =======================================
    kind                   params        value at index n (1-based)
    =====================  ============  =======================================
    ``finitely_supported``  ()           0 beyond the prefix
    ``constant_limit``      (c,)         c
    ``harmonic_limit``      (c, a)       c + a / n
    ``alternating``         (c1, c2)     c1 for odd n, c2 for even n
    =====================  ============  =======================================

    The one datum every downstream computation needs is ``limsup_abs``,
    which is available in closed form for each kind.  Any finite prefix of
    stored values is irrelevant to it by definition of the limsup.
    """

    kind: str
    params: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in _TAIL_KINDS:
            raise ValueError(
                f"unknown tail kind {self.kind!r}; expected one of {sorted(_TAIL_KINDS)}"
            )
        params = tuple(float(p) for p in self.params)
        expected = _TAIL_KINDS[self.kind]
        if len(params) != expected:
            raise ValueError(
                f"tail kind {self.kind!r} takes {expected} parameter(s), got {len(params)}"
            )
        if not all(math.isfinite(p) for p in params):
            raise ValueError("tail parameters must be finite")
        object.__setattr__(self, "params", params)

    @classmethod
    def finitely_supported(cls) -> "TailDescriptor":
        return cls("finitely_supported")

    @classmethod
    def constant_limit(cls, c: float) -> "TailDescriptor":
        return cls("constant_limit", (c,))

    @classmethod
    def harmonic_limit(cls, c: float, alpha: float = 1.0) -> "TailDescriptor":
        return cls("harmonic_limit", (c, alpha))

    @classmethod
    def alternating(cls, c1: float, c2: float) -> "TailDescriptor":
        return cls("alternating", (c1, c2))

    def limsup_abs(self) -> float:
        """limsup of |value at n| as n grows, in closed form."""
        if self.kind == "finitely_supported":
            return 0.0
        if self.kind in ("constant_limit", "harmonic_limit"):
            return abs(self.params[0])
        # alternating: both values are limit points
        return max(abs(self.params[0]), abs(self.params[1]))

    def value(self, n: int) -> float:
        """Value the rule assigns to the (1-based) atom index ``n``."""
        if n < 1:
            raise ValueError("atom index must be >= 1")
        if self.kind == "finitely_supported":
            return 0.0
        if self.kind == "constant_limit":
            return self.params[0]
        if self.kind == "harmonic_limit":
            c, alpha = self.params
            return c + alpha / n
        c1, c2 = self.params
        return c1 if n % 2 == 1 else c2

    def values(self, n: int) -> np.ndarray:
        """Values at the atom indices 1..n, equal to ``[value(i) for i in
        range(1, n + 1)]`` bit for bit."""
        if n < 0:
            raise ValueError("atom count must be >= 0")
        if self.kind == "harmonic_limit":
            c, alpha = self.params
            return c + alpha / np.arange(1, n + 1, dtype=float)
        if self.kind == "alternating":
            out = np.empty(n)
            out[0::2], out[1::2] = self.params
            return out
        return np.full(n, self.params[0] if self.kind == "constant_limit" else 0.0)


@dataclass(frozen=True)
class MeasureSpace:
    """Finite discretization of a measure space with atomic and diffuse parts.

    ``atom_masses`` lists the strictly positive masses of the stored atoms.
    ``diffuse_interval`` is the support (a, b) of the diffuse part, split
    into ``2**diffuse_level`` equal cells of positive, finite mass, or None
    for a purely atomic space.  ``dimension`` is the number of coordinates,
    n_atoms + n_cells.
    """

    atom_masses: tuple[float, ...] = ()
    diffuse_interval: tuple[float, float] | None = None
    diffuse_level: int = 0

    def __post_init__(self) -> None:
        masses = tuple(map(float, self.atom_masses))
        arr = np.array(masses)
        valid = np.isfinite(arr) & (arr > 0.0)
        if not valid.all():
            bad = masses[int(np.argmin(valid))]
            raise ValueError(f"atom masses must be positive and finite, got {bad}")
        object.__setattr__(self, "atom_masses", masses)

        if self.diffuse_interval is not None:
            a, b = (float(x) for x in self.diffuse_interval)
            if not (math.isfinite(a) and math.isfinite(b)):
                raise ValueError("diffuse interval endpoints must be finite")
            if b <= a:
                raise ValueError(
                    f"diffuse interval must have positive length, got ({a}, {b})"
                )
            object.__setattr__(self, "diffuse_interval", (a, b))

        level = int(self.diffuse_level)
        if level < 0:
            raise ValueError("diffuse level must be >= 0")
        if self.diffuse_interval is None and level != 0:
            raise ValueError("diffuse level given without a diffuse interval")
        object.__setattr__(self, "diffuse_level", level)
        if self.has_diffuse and not 0.0 < self.cell_mass < math.inf:
            raise ValueError(
                f"diffuse cells need a positive, finite mass; (b - a) / 2**{level} "
                f"is {self.cell_mass} on {self.diffuse_interval}"
            )

        # set once, not declared as a field: equality, hash and repr are
        # those of the fields alone
        object.__setattr__(self, "dimension", self.n_atoms + self.n_cells)
        if self.dimension == 0:
            raise ValueError("space must contain at least one atom or a diffuse part")

    # -- layout ---------------------------------------------------------

    @property
    def n_atoms(self) -> int:
        return len(self.atom_masses)

    @property
    def has_diffuse(self) -> bool:
        return self.diffuse_interval is not None

    @property
    def n_cells(self) -> int:
        return 2**self.diffuse_level if self.has_diffuse else 0

    @property
    def cell_mass(self) -> float:
        """Common mass of every diffuse cell, (b - a) / 2**level."""
        if not self.has_diffuse:
            raise ValueError("purely atomic space has no cells")
        a, b = self.diffuse_interval
        # ldexp rounds as the division by 2**level does, and underflows to 0
        # where converting 2**level to a float would overflow
        return math.ldexp(b - a, -self.diffuse_level)

    @cached_property
    def masses(self) -> np.ndarray:
        """Masses of all coordinates, atoms first, then diffuse cells."""
        out = np.empty(self.dimension, dtype=float)
        out[: self.n_atoms] = self.atom_masses
        if self.has_diffuse:
            out[self.n_atoms :] = self.cell_mass
        out.setflags(write=False)
        return out

    @cached_property
    def cell_midpoints(self) -> np.ndarray:
        """Midpoints of the diffuse cells, left to right."""
        # read first: it raises on a purely atomic space; equals the cell width
        h = self.cell_mass
        a, _ = self.diffuse_interval
        mids = a + (np.arange(self.n_cells, dtype=float) + 0.5) * h
        mids.setflags(write=False)
        return mids

    # -- operations -----------------------------------------------------

    def refine(self) -> "MeasureSpace":
        """Split every diffuse cell into two equal-mass halves.

        Atoms are indivisible, so a purely atomic space cannot be refined.
        """
        if not self.has_diffuse:
            raise ValueError("cannot refine a purely atomic space: atoms are indivisible")
        return dataclasses.replace(self, diffuse_level=self.diffuse_level + 1)

    def cell_averages(self, fn: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        """Per-cell averages of a function on the diffuse interval.

        Uses the two-point Gauss rule on each cell, which reproduces the
        exact average for polynomials up to degree three.  ``fn`` is called
        once per Gauss node set, on an array of nodes, and must act
        elementwise (numpy ufuncs, polynomials); a scalar result stands for
        a constant function.  Each node value is halved before the sum, so
        values above half the largest float average to a finite number.
        """
        mids = self.cell_midpoints
        d = 0.5 * self.cell_mass * _GAUSS2_OFFSET

        def f(x: np.ndarray) -> np.ndarray:
            return np.broadcast_to(np.asarray(fn(x), dtype=float), x.shape)

        return 0.5 * f(mids - d) + 0.5 * f(mids + d)


def build_space(
    atom_masses: Sequence[float] = (),
    diffuse_interval: tuple[float, float] | None = None,
    diffuse_level: int = 0,
) -> MeasureSpace:
    """Construct a MeasureSpace from masses alone, validating every invariant.

    Raises ValueError for non-positive atom masses, an interval with
    b <= a, a negative refinement level, or cells whose common mass
    (b - a) / 2**level is not positive and finite.
    """
    return MeasureSpace(
        atom_masses=tuple(atom_masses),
        diffuse_interval=diffuse_interval,
        diffuse_level=diffuse_level,
    )
