"""Operators in indicator coordinates over a discretized space.

An operator acts on step-function coefficients, (Af)_i = sum_j A[i][j] f_j;
the measure enters only through norms and through the rank-one
constructors, whose kernels integrate against the weights.  The exact
operator norm is available at p = 1; for general p a certified lower-bound
estimator is provided (a dual-ascent power method seeded with every
normalized indicator) together with the Riesz-Thorin upper bound.

Every operator is held as up to three parts: a diagonal d, low-rank
factors G and E (n x r each, E already multiplied by the masses), and a
dense remainder D, so that A = D + G E^T + diag(d).  Multiplication
operators are the diagonal-only case and discretized integral kernels the
factor-only case; matvec, the diagonal and M_u + K then cost O(nr), and
the n x n entry array is built only on request.  Every entry is built by
the same float operations in the same order as the dense sum
((D or 0) + outer(g_1, e_1) + ... + outer(g_r, e_r)) + diag(d), one
column block at a time, so exact p = 1 norms do not depend on the
representation.
"""

from __future__ import annotations

import math
import sys
from typing import Callable, Iterator, Sequence

import numpy as np

from ._pcg64 import _pcg64_raw, _pcg64_states, _seed_words, _uniform_from_raw
from .lpspace import StepFunction, _check_p, _weighted_abs_colsums
from .measure import MeasureSpace

__all__ = [
    "MatrixOperator",
    "MultiplicationOperator",
    "FunctionKernel",
    "mult_op",
    "rank_one_diffuse",
    "rank_one_atomic_offdiag",
    "opnorm_p1",
    "opnorm_upper_bound",
    "p1_column_quotients",
    "opnorm_estimate",
    "pinch",
]

# width of the column blocks that exact norms stream over: n x 64 floats
# per temporary, 2 MB at n = 4096
_BLOCK = 64

# degree of the polynomial factors of FunctionKernel.random_polynomial
_KERNEL_DEGREE = 2


def _frozen(values, shape: tuple[int, ...], what: str) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if arr.shape != shape:
        raise ValueError(f"{what} must have shape {shape}, got {arr.shape}")
    arr.setflags(write=False)
    return arr


class MatrixOperator:
    """Square operator on the coordinates of a MeasureSpace.

    Immutable value of up to three parts, each copied on construction and
    marked read-only: a dense remainder D (the ``entries`` argument, or
    None), a diagonal d (``diag``) and factors G, E (``factors``, n x r
    each).  The operator is D + G E^T + diag(d), and zero when it has no
    part at all; the ``entries`` attribute is its full n x n matrix, built
    on first access.  At desk scale every operator is
    finite-rank, which is the discrete surrogate of compactness;
    "compact" behavior shows up as decay across truncation and
    refinement, not as a property of a single matrix.
    """

    def __init__(
        self,
        entries: Sequence[Sequence[float]] | None,
        space: MeasureSpace,
        *,
        diag: Sequence[float] | None = None,
        factors: tuple[np.ndarray, np.ndarray] | None = None,
    ):
        n = space.dimension
        self.space = space
        self._dense = None if entries is None else _frozen(entries, (n, n), "entries")
        self._diag = None if diag is None else _frozen(diag, (n,), "diag")
        self._factors = None
        if factors is not None:
            G, E = factors
            G = np.asarray(G)
            if G.ndim != 2:
                raise ValueError(f"factors must be n x r arrays, got shape {G.shape}")
            shape = (n, G.shape[1])
            self._factors = (_frozen(G, shape, "factor G"), _frozen(E, shape, "factor E"))
        self._entries = self._dense if self._diag is None and self._factors is None else None

    @property
    def dimension(self) -> int:
        return self.space.dimension

    @property
    def _diagonal_only(self) -> bool:
        return self._dense is None and self._factors is None

    def _columns(self, cols: np.ndarray, out: np.ndarray, term: np.ndarray) -> np.ndarray:
        """Columns ``cols`` of the matrix, a strictly increasing index array,
        built from the parts in ``out`` with ``term`` as scratch, both
        C-contiguous n x len(cols) arrays.  Returns ``out``.
        """
        # a run of consecutive columns is read through a slice, which numpy
        # copies faster than a gather
        run = cols[-1] - cols[0] == cols.size - 1
        sel = slice(cols[0], cols[-1] + 1) if run else cols
        if self._dense is not None:
            np.copyto(out, self._dense[:, sel])
        else:
            out.fill(0.0)
        if self._factors is not None:
            for g, e in zip(self._factors[0].T, self._factors[1].T):
                np.multiply(g[:, None], e[None, sel], out=term)
                out += term
        if self._diag is not None:
            out[cols, np.arange(cols.size)] += self._diag[sel]
        return out

    @property
    def entries(self) -> np.ndarray:
        """The n x n matrix, built on first access and kept (read-only)."""
        if self._entries is None:
            n = self.dimension
            arr = self._columns(np.arange(n), np.empty((n, n)), np.empty((n, n)))
            arr.setflags(write=False)
            self._entries = arr
        return self._entries

    @property
    def diagonal(self) -> np.ndarray:
        out = np.zeros(self.dimension) if self._dense is None else np.diag(self._dense).copy()
        if self._factors is not None:
            for g, e in zip(self._factors[0].T, self._factors[1].T):
                out += g * e
        if self._diag is not None:
            out += self._diag
        return out

    @classmethod
    def zero(cls, space: MeasureSpace) -> "MatrixOperator":
        return cls(None, space)

    # -- action -----------------------------------------------------------

    def matvec(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self._dense is not None:
            return self.entries @ x
        y = np.zeros(self.dimension)
        if self._factors is not None:
            G, E = self._factors
            y += G @ (E.T @ x)
        if self._diag is not None:
            y += self._diag * x
        return y

    # -- algebra ----------------------------------------------------------

    def _same_space(self, other: "MatrixOperator") -> None:
        if self.space != other.space:
            raise ValueError("operators live on different spaces")

    def __add__(self, other: "MatrixOperator") -> "MatrixOperator":
        """Sum, kept in parts wherever the dense sum's float order allows.

        Two diagonals add; a diagonal-only operand adds to the diagonal of
        an operand without one (the dense sum adds the diagonal last as
        well); every other pair is summed entrywise.
        """
        self._same_space(other)
        if all(op._diagonal_only and op._diag is not None for op in (self, other)):
            return MatrixOperator(None, self.space, diag=self._diag + other._diag)
        for a, b in ((self, other), (other, self)):
            if b._diagonal_only and a._diag is None:
                return MatrixOperator(a._dense, self.space, diag=b._diag, factors=a._factors)
        return MatrixOperator(self.entries + other.entries, self.space)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(dim={self.dimension})"


class MultiplicationOperator(MatrixOperator):
    """Diagonal operator f -> u * f for a step function u."""

    def __init__(self, u_values: Sequence[float], space: MeasureSpace):
        super().__init__(None, space, diag=u_values)
        self.u_values = self._diag

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return self.u_values * np.asarray(x, dtype=float)

    @property
    def opnorm(self) -> float:
        """Operator norm on every weighted L_p: max_i |u_i|."""
        return float(np.max(np.abs(self.u_values)))


def mult_op(u: StepFunction) -> MultiplicationOperator:
    """Multiplication operator M_u f = u f."""
    return MultiplicationOperator(u.coefficients, u.space)


def rank_one_diffuse(eta: StepFunction, g: StepFunction) -> MatrixOperator:
    """Rank-one integral operator K f = (integral of eta * f dmu) * g.

    In coordinates K[i][j] = g_i * eta_j * mu_j.  The constructor works on
    any space; the name records its role as the positive rank-one building
    block whose diagonal dies under refinement of the diffuse part.
    """
    if eta.space != g.space:
        raise ValueError("eta and g live on different spaces")
    space = eta.space
    row = eta.coefficients * space.masses
    return MatrixOperator(None, space, factors=(g.coefficients[:, None], row[:, None]))


def rank_one_atomic_offdiag(j: int, eta: StepFunction) -> MatrixOperator:
    """Rank-one operator K f = (sum_{k != j} f_k eta_k mu_k) * 1_{B_j}.

    Only row j is nonzero and its diagonal entry vanishes, so the operator
    is disjoint from every multiplication operator.  Defined on purely
    atomic spaces only: the construction integrates over the complement of
    a single atom.  Held as its factors e_j and eta * mu with entry j set
    to 0.
    """
    space = eta.space
    if space.has_diffuse:
        raise ValueError("rank_one_atomic_offdiag requires a purely atomic space")
    j = int(j)
    if not 0 <= j < space.dimension:
        raise ValueError(f"atom index {j} out of range for dimension {space.dimension}")
    row = eta.coefficients * space.masses
    row[j] = 0.0
    e_j = np.zeros(space.dimension)
    e_j[j] = 1.0
    return MatrixOperator(None, space, factors=(e_j[:, None], row[:, None]))


def _column_blocks(A: MatrixOperator, cols: np.ndarray) -> Iterator[tuple[int, int, np.ndarray]]:
    """(lo, hi, block) over the columns ``cols`` (strictly increasing) of A,
    _BLOCK at a time: block holds columns cols[lo:hi] of A.

    The blocks are C-contiguous, writable and share one buffer of
    min(len(cols), _BLOCK) columns: each is scratch that the caller may
    overwrite, valid only until the next one is yielded.
    """
    n, k = A.dimension, cols.size
    width = min(k, _BLOCK)
    out, term = np.empty(n * width), np.empty(n * width)
    for lo in range(0, k, _BLOCK):
        chunk = cols[lo : lo + _BLOCK]
        size = n * chunk.size
        yield lo, lo + chunk.size, A._columns(
            chunk, out[:size].reshape(n, -1), term[:size].reshape(n, -1)
        )


def _diagonal_quotients(d: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Column quotients |d| mu / mu of diag(d) over masses mu, as
    p1_column_quotients computes them: the one nonzero of each column is
    its sum, as adding zeros is exact.  d may be a stack of diagonals."""
    return np.abs(d) * mu / mu


def _quotients_on(A: MatrixOperator, cols: np.ndarray) -> np.ndarray:
    """Column quotients of A on the strictly increasing columns ``cols``:
    entry t is p1_column_quotients(A)[cols[t]], bit for bit, at
    O(n len(cols) r) cost for a factored A, and O(n) for a diagonal-only A."""
    mu = A.space.masses
    if A._diagonal_only:
        return _diagonal_quotients(A.diagonal, mu)[cols]
    colsums = np.empty(cols.size)
    for lo, hi, block in _column_blocks(A, cols):
        colsums[lo:hi] = _weighted_abs_colsums(block, mu)
    return colsums / mu[cols]


def p1_column_quotients(A: MatrixOperator) -> np.ndarray:
    """Per-column quotients (sum_i |A[i][j]| mu_i) / mu_j.

    The j-th quotient is the exact L1 norm of A applied to the normalized
    indicator of coordinate j; their maximum is the exact L1 -> L1 operator
    norm.  Column sums accumulate top to bottom in a fixed order, so
    dropping rows (pinching, tail projections) can only decrease every
    quotient, exactly, in floating point.  The columns are built and summed
    a block at a time, so the n x n array is never formed.
    """
    return _quotients_on(A, np.arange(A.dimension))


def opnorm_p1(A: MatrixOperator) -> float:
    """Exact operator norm of A on weighted L1."""
    return float(np.max(p1_column_quotients(A)))


def _upper_bound_on(A: MatrixOperator, p: float, cols: np.ndarray) -> float:
    """Upper bound for the norm of A P_S on weighted L_p, where P_S keeps the
    coordinates S = ``cols``: the exact max of their column quotients at
    p = 1, the Riesz-Thorin bound of A P_S otherwise.

    A P_S has the columns of A in S and zeros elsewhere, so its column and
    row sums are sub-sums of those of A, read from the columns in S only.
    """
    if p == 1.0:
        return float(np.max(_quotients_on(A, cols)))
    w = A.space.masses ** (1.0 / p)
    colsums = np.empty(cols.size)
    rowsums = np.zeros(A.dimension)
    for lo, hi, block in _column_blocks(A, cols):
        np.abs(block, out=block)
        colsums[lo:hi] = w @ block
        rowsums += block @ (1.0 / w[cols[lo:hi]])
    norm_1 = float(np.max(colsums / w[cols]))
    norm_inf = float(np.max(w * rowsums))
    return norm_1 ** (1.0 / p) * norm_inf ** (1.0 - 1.0 / p)


def opnorm_upper_bound(A: MatrixOperator, p: float) -> float:
    """Riesz-Thorin upper bound for the operator norm of A on weighted L_p.

    With B = W^{1/p} A W^{-1/p} the isometric image on the unweighted
    sequence space, |A|_p = |B|_p <= |B|_1^{1/p} |B|_inf^{1-1/p}, up to the
    rounding of the column and row sums of |B|, which stream over the same
    column blocks as the exact L1 norm.  At p = 1 the exact norm is
    returned.
    """
    return _upper_bound_on(A, _check_p(p), np.arange(A.dimension))


# the block ascent's step budget, and its relative tolerance on a
# quotient's change between steps
_MAX_ITER = 100
_TOL = 1e-12

# termination reasons of the block ascent, in the order its exit tests run
_REASONS = np.array(["zero", "stationary", "converged", "max_iter"])


def _colnorms(aX: np.ndarray, p: float) -> np.ndarray:
    """p-norms of the columns of X, given aX = |X|."""
    return np.add.reduce(aX ** p, 0) ** (1.0 / p)


def _block_ascent(B: np.ndarray, p: float, unit: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """The p-norm power method on B from every seed at once.

    The seeds are the columns of [1 | I], scaled to unit p-norm.  They
    iterate together, one B X and one B^T Xi per step over the seeds still
    active, and each stops on its own at the first of: a zero image, dual
    stationarity (its iterate is a local maximizer), or a quotient at most
    _TOL * max(previous, unit) above the one before (the quotients rise in
    exact arithmetic, so a fall is rounding and stops the seed too); else
    after _MAX_ITER steps.

    Each half-step takes one power.  t = |y|^(p-1) gives the dual vector
    xi = sign(y) t, left unnormalized, and s = sum(t |y|) = |y|_p^p;
    u = |z|^(q-1) gives the next iterate and |z|_q^q.  Since
    <z, x> = <xi, Bx> = s, a seed is stationary when |z|_q <= s (1 + 1e-14).
    The active columns are compacted, and zero images told apart, only on
    a step where some seed stops.  Column sums run top to bottom
    (np.add.reduce over axis 0, passed positionally, which is as fast as a
    product with a ones vector here), so compaction leaves every column's
    sums unchanged.

    Returns per seed the best quotient |Bx|_p it attained, a true lower
    bound for the induced p-norm of B, and why it stopped (one of
    _REASONS).  |y|^p and |z|^q are formed without rescaling, so |B|_p
    must keep them in range; opnorm_estimate passes B / 2^e to that end,
    with unit = 2^-e, which stops every seed where B itself would stop
    with unit 1.
    """
    n = B.shape[0]
    q = p / (p - 1.0)
    pm1, qm1, inv_p, inv_q = p - 1.0, q - 1.0, 1.0 / p, 1.0 / q
    Bt = B.T
    X = np.hstack([np.ones((n, 1)), np.eye(n)])
    X /= _colnorms(X, p)
    best = np.zeros(n + 1)
    reason = np.full(n + 1, len(_REASONS) - 1)
    live = np.arange(n + 1)  # the seed of each column of X
    # a live seed's quotients rise by more than the tolerance at every step
    # (else it stops), so its best is the last quotient, or on the step it
    # stops the larger of the last two
    gamma = np.zeros(n + 1)
    # the largest quotient that counts as converged, per live seed; none on
    # the first step
    bound = -np.inf
    for _ in range(_MAX_ITER):
        Y = np.dot(B, X)
        aY = np.abs(Y)
        T = aY ** pm1
        s = np.add.reduce(T * aY, 0)
        prev, gamma = gamma, s ** inv_p
        Z = np.dot(Bt, np.copysign(T, Y))
        aZ = np.abs(Z)
        U = aZ ** qm1
        r = np.add.reduce(U * aZ, 0)
        # a zero image has s = 0 and z = 0, which this test stops
        stationary = r ** inv_q <= s * (1.0 + 1e-14)
        stop = stationary | (gamma <= bound)
        if np.count_nonzero(stop):
            # the first exit test a seed meets is its reason
            done = live[stop]
            reason[done] = np.where(s == 0.0, 0, np.where(stationary, 1, 2))[stop]
            best[done] = np.maximum(prev[stop], gamma[stop])
            if done.size == live.size:
                return best, _REASONS[reason]
            go = ~stop
            live, gamma, Z, U, r = live[go], gamma[go], Z[:, go], U[:, go], r[go]
        bound = gamma + _TOL * np.maximum(gamma, unit)
        # Fortran order, the layout of a column-masked copy, so that B X
        # rounds alike whether or not this step compacted the columns
        X = np.copysign(U, Z, order="F") / r ** inv_p
    best[live] = gamma
    return best, _REASONS[reason]


# the largest |log2| of a power in the ascent: with h = _LOG2_RANGE / (p + q)
# and |B|_p <= 2^h, |y|^p <= 2^(h p) and, the dual vector being
# unnormalized, |z|^q <= 2^(h (p + q)) = 2^_LOG2_RANGE; 2^24 of headroom is
# left below the largest float
_LOG2_RANGE = 1000.0

# B is used unscaled only if quotients down to 2^-_LOG2_ROOM times its norm
# bound keep their powers in range (or as far down as the range allows)
_LOG2_ROOM = 64.0


def _scale_exponent(aB: np.ndarray, top: float, p: float) -> int:
    """The e by which opnorm_estimate scales B to B / 2^e, given aB = |B|
    and its largest entry ``top``.

    With 2^E the largest column or row sum of |B|, a bound for every
    induced p-norm of B (Riesz-Thorin), h = _LOG2_RANGE / (p + q) and
    room = min(_LOG2_ROOM, 2 h - 1): 0 when no power of B overflows
    (E <= h) and quotients down to 2^(E - room) keep their powers in range
    (E - room >= -h), so that B is used as it is; else ceil(E - h), which
    puts the scaled bound in (2^(h-1), 2^h], leaving the whole range below
    it.  Never below -_LOG2_RANGE, so that 2^-e is finite.
    """
    h = _LOG2_RANGE / (p + p / (p - 1.0))
    room = min(_LOG2_ROOM, 2.0 * h - 1.0)
    n = aB.shape[0]
    m, e = math.frexp(top)  # top = m 2^e with 1/2 <= m < 1
    if m == 0.0:
        return 0
    # the sums of |B| / 2^e lie in [1/2, n], finite for every finite B
    aB = np.ldexp(aB, -e)
    ones = np.ones(n)
    E = e + math.log2(max(float(np.dot(ones, aB).max()), float(np.dot(aB, ones).max())))
    if E <= h and E - room >= -h:
        return 0
    return max(math.ceil(E - h), -int(_LOG2_RANGE))


def opnorm_estimate(A: MatrixOperator, p: float) -> float:
    """Certified lower bound for the operator norm of A on weighted L_p.

    The weighted problem is mapped isometrically to the unweighted sequence
    space (B = W^{1/p} A W^{-1/p}).  At p = 2 the induced norm is the
    largest singular value of B, and the result is the quotient
    |Bv|_2 / |v|_2 that B attains on its leading right singular vector v.
    At every other p > 1 a dual-ascent power method is run from every
    normalized-indicator seed and from the all-ones seed, all seeds as one
    block iteration (_block_ascent), keeping the best attained quotient.
    Either way the result is the quotient of an explicit vector, floored
    at max_j |A e_j|_p / |e_j|_p, at max_i |A_ii| (the norm of the
    diagonal part, attained by indicator seeds in exact arithmetic,
    floored explicitly to keep the guarantee under roundoff).

    Where a power |.|^p of B could leave the float range, B is first
    scaled by a power of two 2^-e (_scale_exponent) and every quotient
    scaled back by 2^e exactly.  At large p the powers can underflow even
    so; a quotient then reads low, down to 0, and the estimate is floored
    at max_ij |B_ij| as well, which the column floor tends to as p grows.
    A quotient above the largest float reads as the largest float, so the
    result is always finite.  A non-finite entry of B raises ValueError.
    At p = 1 the exact norm is returned.
    """
    p = _check_p(p)
    if p == 1.0:
        return opnorm_p1(A)
    w = A.space.masses ** (1.0 / p)
    B = (w[:, None] * A.entries) / w[None, :]
    if not np.isfinite(B).all():
        raise ValueError("opnorm_estimate needs finite entries, got a non-finite one")
    aB = np.abs(B)
    top = float(aB.max())
    e = _scale_exponent(aB, top, p)
    floor = float(np.abs(A.entries.diagonal()).max())
    if e:
        B, aB = np.ldexp(B, -e), np.ldexp(aB, -e)
        # the powers of the scaled B can underflow, the column floor's with
        # them: its limit as p grows, the largest entry, stands in
        floor = max(floor, top)
    # the first iterate of every indicator seed
    value = float(_colnorms(aB, p).max())
    if p == 2.0:
        v = np.linalg.svd(B)[2][0]
        value = max(value, float(_colnorms(np.abs(B @ v), p) / _colnorms(np.abs(v), p)))
    else:
        values, _ = _block_ascent(B, p, math.ldexp(1.0, -e))
        value = max(value, float(np.max(values)))
    try:
        value = math.ldexp(value, e)
    except OverflowError:
        value = sys.float_info.max
    return max(floor, value)


def pinch(A: MatrixOperator, labels: Sequence[int] | np.ndarray) -> MatrixOperator:
    """Block-diagonal compression sum_b P_b A P_b, coordinate i in block labels[i].

    A vector of integer labels partitions the coordinates by construction
    (a NaN label would not equal itself).  Entries (i, j) with i and j in
    different blocks are zeroed; kept entries are copied unchanged, so at
    p = 1 the compression is norm-contractive exactly.
    """
    labels = np.asarray(labels)
    if labels.shape != (A.dimension,) or labels.dtype.kind not in "iu":
        raise ValueError(f"labels must be {A.dimension} integers, got {labels.dtype} of shape {labels.shape}")
    return MatrixOperator(_pinched(A.entries, labels), A.space)


def _pinched(entries: np.ndarray, block_id: np.ndarray) -> np.ndarray:
    """Entries (or a stack of them) with every cross-block entry zeroed.

    ``block_id[..., i]`` is the block of coordinate i; kept entries are
    copied unchanged.
    """
    return np.where(block_id[..., :, None] == block_id[..., None, :], entries, 0.0)


def _horner(coeffs: Sequence[float]) -> Callable[[np.ndarray], np.ndarray]:
    """The polynomial sum_i coeffs[i] x**i, evaluated as Polynomial(coeffs)
    evaluates it, bit for bit.

    That is Horner's rule from c[-1] + x*0, on 0.0 + 1.0*x, the map of
    Polynomial's default domain onto its window, which turns -0.0 into +0.0.
    """
    c = [float(v) for v in coeffs]

    def value(x: np.ndarray) -> np.ndarray:
        x = 0.0 + x
        y = c[-1] + x * 0
        for ci in reversed(c[:-1]):
            y = ci + y * x
        return y

    return value


class FunctionKernel:
    """Finite-rank integral kernel given at the function level.

    K f = sum_r (integral of eta_r * f dmu) * g_r with eta_r, g_r functions
    on the diffuse interval.  Because the factors are functions rather than
    coefficient vectors, the same kernel can be discretized at every
    refinement level (by per-cell averaging), which is what makes "the same
    perturbation across levels" meaningful.
    """

    def __init__(
        self,
        pairs: Sequence[tuple[Callable[[np.ndarray], np.ndarray], Callable[[np.ndarray], np.ndarray]]],
    ):
        self.pairs = list(pairs)

    @property
    def rank(self) -> int:
        return len(self.pairs)

    @classmethod
    def random_polynomial(cls, rank: int, seed: int) -> "FunctionKernel":
        """Seeded kernel with polynomial factors of degree _KERNEL_DEGREE.

        The coefficients are the draws of default_rng(seed).uniform(-1, 1),
        taken in the fixed order (eta_1, g_1, eta_2, g_2, ...), lowest
        degree first, so the kernel is reproducible.  They are computed
        in-process from the PCG64 stream of SeedSequence(seed), bit for bit
        (see _pcg64), without importing numpy.random.
        """
        n = _KERNEL_DEGREE + 1
        (state,) = _pcg64_states(np.array(_seed_words(seed), dtype=np.uint32)[:, None])
        coeffs = _uniform_from_raw(np.array(_pcg64_raw(state, 2 * rank * n), dtype=np.uint64)).tolist()
        factors = [_horner(coeffs[i : i + n]) for i in range(0, len(coeffs), n)]
        return cls(list(zip(factors[::2], factors[1::2])))

    def discretize(self, space: MeasureSpace) -> MatrixOperator:
        """The kernel on a given space, held as its factors.

        Column r of G holds the cell averages of g_r, column r of E those
        of eta_r times the masses, so K = G E^T.
        """
        G = np.empty((space.dimension, self.rank))
        E = np.empty((space.dimension, self.rank))
        for r, (eta_fn, g_fn) in enumerate(self.pairs):
            G[:, r] = StepFunction.from_function(space, g_fn).coefficients
            E[:, r] = StepFunction.from_function(space, eta_fn).coefficients * space.masses
        return MatrixOperator(None, space, factors=(G, E))
