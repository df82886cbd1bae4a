"""Essential-norm machinery: the formula, certified lower bounds for
compact perturbations, diagonal compactification, and decay profiles.

The essential norm of a multiplication operator (its distance to the
compact operators) equals

    max( sup of |u| over the diffuse part,  limsup_n |u(atom n)| ).

At desk scale both directions are certified separately: from above by
explicit truncation perturbations, from below by two constructive routes
that never search the perturbation space:

* pinching: compressing M_u + K to the coordinate diagonal is
  norm-contractive and leaves M_u + D_K, where D_K carries the diagonal
  scalars of K, so |M_u + K| >= |M_u + D_K|, exactly at p = 1;
* witness pairs: normalized indicators of shrinking superlevel sets of |u|
  (and their differences, which asymptotically annihilate any fixed
  kernel) give attained Rayleigh quotients.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .lpspace import (
    StepFunction,
    _check_p,
    _indicator_height,
    _norm,
    _weighted_abs_colsums,
    normalized_indicator,
)
from .measure import TailDescriptor
from .operators import (
    MatrixOperator,
    MultiplicationOperator,
    _diagonal_quotients,
    _quotients_on,
    _upper_bound_on,
    mult_op,
)

__all__ = [
    "LowerBoundCertificate",
    "WITNESS_PAIR",
    "PINCHING_DIAGONAL",
    "essential_norm",
    "diagonal_compactification",
    "pinching_lower_bound",
    "witness_sets",
    "witness_lower_bound",
    "perturbed_ratio",
    "verify_certificate",
    "qn_decay_profile",
    "best_diagonal_rank_k",
    "truncation_perturbation",
]

WITNESS_PAIR = "witness_pair"
PINCHING_DIAGONAL = "pinching_diagonal"

# relative tolerance of verify_certificate's support upper bound, which the
# witness quotient reaches along a different float path
_VERIFY_RTOL = 1e-12


@dataclass(frozen=True, eq=False)
class LowerBoundCertificate:
    """A certified lower bound for |M_u + K| with the vector attaining it.

    ``construction`` records which route produced it: a witness_pair bound
    is the Rayleigh quotient of the stored witness under M_u + K itself; a
    pinching_diagonal bound is the exact L1 norm of the diagonal
    compression M_u + D_K, attained by the stored witness on that
    compressed operator.
    """

    bound: float
    witness: StepFunction
    construction: str


def essential_norm(u: StepFunction, tail: TailDescriptor = TailDescriptor.finitely_supported()) -> float:
    """Evaluate max(diffuse sup of |u|, limsup over the atom tail).

    ``tail`` is the closed-form rule for the values of u on the atoms
    beyond the stored ones.  The stored atom values never enter: a limsup
    is blind to finite prefixes, and at desk scale every stored coordinate
    can be cancelled by a finite-rank perturbation.
    """
    cells = np.abs(u.coefficients[u.space.n_atoms :])
    return max(float(np.max(cells, initial=0.0)), tail.limsup_abs())


def diagonal_compactification(K: MatrixOperator) -> MultiplicationOperator:
    """The multiplication operator D_K built from the diagonal scalars of K.

    d_n = K[n][n] is the unique scalar with P_n K P_n = d_n P_n, where P_n
    masks the n-th coordinate.  D_K coincides with the band projection of K
    onto the multiplication operators.
    """
    return MultiplicationOperator(K.diagonal, K.space)


def pinching_lower_bound(u: StepFunction, K: MatrixOperator) -> LowerBoundCertificate:
    """Lower bound |M_u + K| >= |M_u + D_K| on weighted L1, where it is exact.

    Compressing to the full coordinate diagonal is contractive and maps
    M_u + K to M_u + D_K; the bound is the exact L1 norm of the latter and
    the witness is the normalized indicator of the coordinate attaining it.
    """
    if u.space != K.space:
        raise ValueError("u and K live on different spaces")
    quotients = _diagonal_quotients(u.coefficients + diagonal_compactification(K).u_values, u.space.masses)
    j = int(np.argmax(quotients))
    bound = float(quotients[j])
    witness = normalized_indicator(u.space, [j], 1.0)
    return LowerBoundCertificate(bound=bound, witness=witness, construction=PINCHING_DIAGONAL)


def witness_sets(u_diffuse: Sequence[float], eps: float) -> list[tuple[int, ...]]:
    """Descending superlevel witness sets A_1 contains A_2 contains ...

    A_1 is the set of cells with |u| strictly above max|u| - eps.  Like
    that exact set, it always holds the cells attaining max|u|, also where
    max|u| - eps rounds to max|u|.  Each following set keeps the half with
    the largest |u| values (ties broken by cell index, so the construction
    is deterministic), which at least halves the mass at every step.  The
    list ends when a set is a single cell.  Indices are positions within
    the diffuse cell block.  Raises ValueError without cells or with a
    non-finite value, above which no threshold inf - eps would select a
    cell.
    """
    values = np.abs(np.asarray(u_diffuse, dtype=float))
    if values.size == 0:
        raise ValueError("no diffuse cells to build witness sets from")
    if not np.all(np.isfinite(values)):
        raise ValueError("witness sets need finite values of u")
    m = float(np.max(values))
    eps = float(eps)
    if not 0.0 < eps < m:
        raise ValueError(f"eps must lie strictly between 0 and max|u| = {m}, got {eps}")
    # m - eps rounds to m when eps is tiny against m, and then only the
    # maximizers pass; the stable sort keeps equal |u| in index order
    selected = np.flatnonzero((values > m - eps) | (values == m))
    order = selected[np.argsort(-values[selected], kind="stable")]
    sets: list[tuple[int, ...]] = []
    size = order.size
    while size:
        sets.append(tuple(np.sort(order[:size]).tolist()))
        size //= 2
    return sets


def perturbed_ratio(u: StepFunction, K: MatrixOperator, g: StepFunction, p: float) -> float:
    """Rayleigh-type quotient |(M_u + K) g|_p / |g|_p."""
    gc = g.coefficients
    return _quotient(u.coefficients, K, gc, np.flatnonzero(gc), _check_p(p), np.empty(gc.size))


def _quotient(
    u: np.ndarray, K: MatrixOperator, g: np.ndarray, support: np.ndarray, p: float, scratch: np.ndarray
) -> float:
    """perturbed_ratio on coefficient vectors: |u g + K g|_p / |g|_p, p checked.

    g is only read; ``support`` is an increasing index array holding every
    nonzero of g, and ``scratch`` an n-vector that is overwritten.  The
    float operations are those of norm_p on u g + K g and on g: K g + u g
    adds the same terms, and float addition commutes.  At p = 1, |g| is
    summed over the support alone, which drops exact +0.0 steps of its
    left-to-right sum; at other p the pairwise sum needs every coordinate.
    """
    mu = K.space.masses
    y = K.matvec(g)
    y += np.multiply(u, g, out=scratch)
    top = _norm(y, mu, p)
    if p == 1.0:
        return top / _norm(g[support], mu[support], p)
    np.copyto(scratch, g)
    return top / _norm(scratch, mu, p)


def witness_lower_bound(
    u: StepFunction, K: MatrixOperator, eps: float, p: float
) -> LowerBoundCertificate:
    """Best attained quotient over witness indicators and their differences.

    Candidates are f_n = normalized indicator of A_n (unit p-norm) and all
    differences f_n - f_m with n < m; every candidate's quotient is a true
    lower bound for |M_u + K|, and for p = 1 the differences of deep
    witnesses annihilate fixed integral kernels, which is what drives the
    bound up to the diffuse sup of |u| under refinement.  The first
    candidate of largest quotient wins.
    """
    if u.space != K.space:
        raise ValueError("u and K live on different spaces")
    space = u.space
    na = space.n_atoms
    sets = [na + np.array(s) for s in witness_sets(u.coefficients[na:], eps)]
    p = _check_p(p)
    heights = [_indicator_height(space.masses[s], p) for s in sets]
    g = np.zeros(space.dimension)

    def write(n: int, m: int | None) -> None:
        # f_n - f_m is c_n on A_n, then c_n - c_m on A_m, a subset of A_n
        g[sets[n]] = heights[n]
        if m is not None:
            g[sets[m]] = heights[n] - heights[m]

    # (n, None) is f_n and (n, m) is f_n - f_m, each scored in g, which is
    # zero off the last candidate's A_n
    k = len(sets)
    candidates = itertools.chain(((n, None) for n in range(k)), itertools.combinations(range(k), 2))
    scratch = np.empty(space.dimension)
    best_ratio = -np.inf
    best = (0, None)
    last = 0
    for n, m in candidates:
        g[sets[last]] = 0.0
        write(n, m)
        r = _quotient(u.coefficients, K, g, sets[n], p, scratch)
        if r > best_ratio:
            best_ratio = r
            best = (n, m)
        last = n
    g.fill(0.0)
    write(*best)
    return LowerBoundCertificate(bound=float(best_ratio), witness=StepFunction(g, space), construction=WITNESS_PAIR)


def verify_certificate(
    cert: LowerBoundCertificate, u: StepFunction, K: MatrixOperator, p: float
) -> bool:
    """Check that a certificate is reproduced by its witness and is sound.

    A witness that is zero or has a non-finite coordinate certifies
    nothing and is rejected.

    witness_pair: recomputing the witness quotient must reproduce the bound
    bit for bit at every p (both sides call perturbed_ratio on the same
    inputs), and the bound must not exceed an upper bound for the norm of
    (M_u + K) P_S, where P_S keeps the support S of the witness g (within
    _VERIFY_RTOL, the only tolerance: the quotient and the column sums take
    different float paths): the exact max over j in S of the column
    quotients q_j at p = 1, the Riesz-Thorin bound of (M_u + K) P_S
    otherwise.  As g = P_S g, the quotient is at most
    |(M_u + K) P_S| <= |M_u + K|, so this check is stricter than one
    against the norm of M_u + K, and it reads only the columns in S.

    pinching_diagonal: the bound must equal the exact L1 norm of
    M_u + D_K, the witness must sit on a column j attaining it, and the
    contractivity comparison against q_j(M_u + K) holds with no tolerance
    at all (the compressed column sum is one term of the full one).
    """
    g = cert.witness.coefficients
    support = np.flatnonzero(g)
    if support.size == 0 or not np.all(np.isfinite(g)):
        return False
    if cert.construction == WITNESS_PAIR:
        # != also rejects a NaN quotient or bound
        if perturbed_ratio(u, K, cert.witness, p) != cert.bound:
            return False
        return cert.bound <= _upper_bound_on(mult_op(u) + K, float(p), support) * (1.0 + _VERIFY_RTOL)
    if cert.construction == PINCHING_DIAGONAL:
        quotients = _diagonal_quotients(u.coefficients + diagonal_compactification(K).u_values, u.space.masses)
        if cert.bound != float(np.max(quotients)):
            return False
        if support.size != 1 or quotients[support[0]] != cert.bound:
            return False
        return cert.bound <= float(_quotients_on(mult_op(u) + K, support)[0])
    raise ValueError(f"unknown certificate construction {cert.construction!r}")


def qn_decay_profile(K: MatrixOperator, n_max: int | None = None) -> list[float]:
    """Exact L1 norms of Q_n K for n = 0..n_max, Q_n zeroing the first n
    coordinates.

    The profile witnesses the vanishing of tail compressions: every row is
    the same sum, and at n = dimension it sums an empty block to 0 exactly.
    For kernels with summable columns the decay follows the tail sums.
    """
    dim = K.dimension
    if n_max is None:
        n_max = dim
    n_max = int(n_max)
    if not 0 <= n_max <= dim:
        raise ValueError(f"n_max must lie in [0, {dim}], got {n_max}")
    # rows n.. of K summed as opnorm_p1 sums them: the zeroed rows of Q_n K
    # come first and add exact zeros
    entries, mu = K.entries, K.space.masses
    return [float(np.max(_weighted_abs_colsums(entries[n:], mu[n:]) / mu)) for n in range(n_max + 1)]


def best_diagonal_rank_k(u_values: Sequence[float], k: int | Sequence[int]) -> float | list[float]:
    """inf over diagonal perturbations on <= k coordinates of max_i |u_i + d_i|.

    Equals the (k+1)-th largest of the |u_i|: the k largest can be
    cancelled outright, and no k-coordinate support can touch the
    (k+1)-th largest.  Returns 0 when k >= number of values.  Given a
    sequence of k, returns the list of values, sorting |u| once.
    """
    ks = np.array(k, dtype=np.int64, ndmin=1)
    if np.any(ks < 0):
        raise ValueError("k must be >= 0")
    values = np.append(np.sort(np.abs(np.asarray(u_values, dtype=float)))[::-1], 0.0)
    out = values[np.minimum(ks, values.size - 1)].tolist()
    return out if np.ndim(k) else out[0]


def truncation_perturbation(u: StepFunction, n: int) -> MultiplicationOperator:
    """The explicit compact perturbation K = -M_u (I - Q_n).

    Cancels u on the first n coordinates, so M_u + K is multiplication by
    the tail of u; its exact L1 norm sup_{i > n} |u_i| certifies the
    essential norm from above at any finite truncation.
    """
    n = int(n)
    if not 0 <= n <= u.space.dimension:
        raise ValueError(f"n must lie in [0, {u.space.dimension}], got {n}")
    d = np.zeros(u.space.dimension)
    d[:n] = -u.coefficients[:n]
    return MultiplicationOperator(d, u.space)
