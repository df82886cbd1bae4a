"""Reference values and output checks, computed apart from the program.

Nothing here imports ``essnorm_lab``.  The references are:

* the exact weighted L1 norm of ``M_u + K`` for the ``refine`` problem,
  built from the closed-form cell integrals of the kernel polynomials and
  reduced in column blocks with numpy's own summation;
* numpy's spectral norm of ``B = W^{1/p} A W^{-1/p}`` at p = 2 and the
  Riesz-Thorin bound ``|B|_1^{1/p} |B|_inf^{1 - 1/p}`` at other p;
* the closed forms pinned by the acceptance suite (``2^-n``,
  ``1 - 2^{-L-1}``, ``1 + 1/(k+1)``).

Tolerances follow the float paths.  A p = 1 norm that the program sums
left to right and the reference sums pairwise is compared within ``REL``;
a value the program copies or floors, and the dyadic closed forms, are
compared exactly.  Each checker returns ``(errors, ratios, failed)``:
error messages (empty when the outputs are correct), ``bound / reference``
for every certified lower bound, and the number of operations the
program itself reported as failed.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

import inputs

REL = 1e-12
_BLOCK = 512


def _le(a: float, b: float) -> bool:
    """a <= b up to REL relative (both sides nonnegative)."""
    return a <= b * (1.0 + REL)


def _ge(a: float, b: float) -> bool:
    """a >= b up to REL relative (both sides nonnegative)."""
    return a >= b * (1.0 - REL)


def report_errors(name: str, lines: list[str]) -> list[str]:
    """Check and result lines of a report that do not say PASS."""
    bad = [ln for ln in lines if ln.startswith(("check ", "result:")) and "PASS" not in ln]
    if not any(ln.startswith("result:") for ln in lines):
        bad.append("no result line")
    return [f"{name} report: {ln}" for ln in bad]


def _rows(scenario: dict) -> np.ndarray:
    """Rows as a float array; a missing cell (None) becomes NaN."""
    return np.array(
        [[np.nan if v is None else v for v in row] for row in scenario["rows"]], dtype=float
    ).reshape(-1, 4)


# ---------------------------------------------------------------------------
# the refine problem: M_u + K with u = identity and a seeded rank-3 kernel
# ---------------------------------------------------------------------------


def _cell_average(c: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact average of c0 + c1 x + c2 x^2 over each cell [a, b]."""
    return c[0] + c[1] * (a + b) / 2.0 + c[2] * (a * a + a * b + b * b) / 3.0


def witness_operator_blocks(seed: int, level: int, block: int = _BLOCK):
    """Yield ``(j0, columns)`` of A = M_u + K on [0, 1] at 2**level cells.

    ``columns`` holds A[:, j0:j0 + block]; entries are
    A_ij = u_i [i = j] + sum_r g_r(i) eta_r(j) mu_j with every factor the
    closed-form average of its polynomial over the cell.
    """
    n = 2**level
    mu = 1.0 / n
    a = np.arange(n) / n
    b = (np.arange(n) + 1.0) / n
    u = (a + b) / 2.0
    eta_c, g_c = inputs.kernel_coefficients(seed)
    G = np.stack([_cell_average(c, a, b) for c in g_c], axis=1)
    E = np.stack([_cell_average(c, a, b) for c in eta_c], axis=1) * mu
    for j0 in range(0, n, block):
        j1 = min(n, j0 + block)
        cols = G @ E[j0:j1].T
        cols[np.arange(j0, j1), np.arange(j1 - j0)] += u[j0:j1]
        yield j0, cols


def witness_column_quotients(seed: int, level: int) -> np.ndarray:
    """Exact p = 1 column quotients sum_i |A_ij| mu_i / mu_j."""
    mu = 2.0**-level
    out = np.empty(2**level)
    for j0, cols in witness_operator_blocks(seed, level):
        out[j0 : j0 + cols.shape[1]] = (np.abs(cols) * mu).sum(axis=0) / mu
    return out


def witness_operator(seed: int, level: int) -> np.ndarray:
    """Dense A = M_u + K (cells have equal mass, so B = A at every p)."""
    return np.concatenate([cols for _, cols in witness_operator_blocks(seed, level)], axis=1)


def riesz_thorin(B: np.ndarray, p: float) -> np.ndarray:
    """|B|_1^{1/p} |B|_inf^{1-1/p}, an upper bound for |B|_p (batched)."""
    absb = np.abs(B)
    n1 = absb.sum(axis=-2).max(axis=-1)
    ninf = absb.sum(axis=-1).max(axis=-1)
    return n1 ** (1.0 / p) * ninf ** (1.0 - 1.0 / p)


def column_pnorms(B: np.ndarray, p: float) -> np.ndarray:
    """max_j |B e_j|_p (batched): every estimator seed attains it."""
    return ((np.abs(B) ** p).sum(axis=-2) ** (1.0 / p)).max(axis=-1)


def spectral_norm(B: np.ndarray) -> np.ndarray:
    return np.linalg.norm(B, ord=2, axis=(-2, -1))


# ---------------------------------------------------------------------------
# refine
# ---------------------------------------------------------------------------


class RefineReference:
    def __init__(self, seed: int):
        self.seed = seed
        self._levels: dict[int, tuple[float, float]] = {}

    def level(self, level: int) -> tuple[float, float]:
        """(exact |M_u + K|_1, quotient of the top cell's indicator)."""
        if level not in self._levels:
            q = witness_column_quotients(self.seed, level)
            self._levels[level] = (float(q.max()), float(q[-1]))
        return self._levels[level]


def check_refine(ref: RefineReference, out: dict) -> tuple[list[str], list[float], int]:
    errors: list[str] = []
    ratios: list[float] = []
    (scenario,) = out["scenarios"]
    rows = _rows(scenario)
    l0, l1 = inputs.REFINE_LEVELS
    if rows[:, 0].tolist() != list(range(l0, l1 + 1)):
        return [f"refine: levels {rows[:, 0].tolist()}"], ratios, 0
    for level, bound, certified, formula in rows:
        level = int(level)
        exact, top = ref.level(level)
        if formula != 1.0 - 2.0 ** (-level - 1):
            errors.append(f"refine L={level}: formula {formula:.17g}")
        if certified != bound:
            errors.append(f"refine L={level}: certified {certified:.17g} != bound {bound:.17g}")
        if not _le(bound, exact):
            errors.append(f"refine L={level}: bound {bound:.17g} above exact norm {exact:.17g}")
        if not _ge(bound, top):
            errors.append(f"refine L={level}: bound {bound:.17g} below top-cell quotient {top:.17g}")
        ratios.append(bound / exact)
    errors += report_errors("refine", scenario["report"])
    return errors, ratios, 0


# ---------------------------------------------------------------------------
# ensemble
# ---------------------------------------------------------------------------


class EnsembleReference:
    def __init__(self, seed: int):
        self.seed = seed

    @cached_property
    def pinching(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(exact L1 norm, worst pinched L1 norm, max |A_jj|) of every trial.

        The worst pinch is the larger of the diagonal pinch, whose norm is
        max |A_jj|, and the two-block pinch of the trial's assignment.
        """
        draws = [inputs.pinching_draw(self.seed, t) for t in range(inputs.PINCH_TRIALS)]
        m = np.stack([d[0] for d in draws])
        A = np.stack([d[1] for d in draws])
        assign = np.stack([d[2] for d in draws])
        full = _p1_norms(A, m)
        same_block = assign[:, :, None] == assign[:, None, :]
        blocks = _p1_norms(np.where(same_block, A, 0.0), m)
        diag = np.abs(np.diagonal(A, axis1=1, axis2=2)).max(axis=1)
        return full, np.maximum(blocks, diag), diag


def _p1_norms(A: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Exact weighted L1 operator norms of a stack of matrices."""
    return ((np.abs(A) * m[:, :, None]).sum(axis=1) / m).max(axis=1)


def _check_pinching(ref: EnsembleReference, rows: np.ndarray, errors: list, ratios: list) -> None:
    full, pinched, diag = ref.pinching
    if rows[:, 0].tolist() != list(range(inputs.PINCH_TRIALS)):
        errors.append("pinching_suite: trial indices")
        return
    computed, certified = rows[:, 1], rows[:, 2]
    for t in np.nonzero(np.abs(certified - full) > REL * full)[0]:
        errors.append(f"pinching t={t}: certified {certified[t]:.17g} != exact {full[t]:.17g}")
    for t in np.nonzero(np.abs(computed - pinched) > REL * pinched)[0]:
        errors.append(f"pinching t={t}: pinched {computed[t]:.17g} != exact {pinched[t]:.17g}")
    for t in np.nonzero(computed > certified)[0]:
        errors.append(f"pinching t={t}: pinched {computed[t]:.17g} above full {certified[t]:.17g}")
    for t in np.nonzero(computed < diag * (1.0 - REL))[0]:
        errors.append(f"pinching t={t}: pinched {computed[t]:.17g} below max|A_jj| {diag[t]:.17g}")
    ratios.extend((computed / full).tolist())


def _check_lattice(rows: np.ndarray, errors: list) -> None:
    if rows[:, 0].tolist() != list(range(inputs.LATTICE_TRIALS)):
        errors.append("lattice_oracle: trial indices")
        return
    if not np.all(rows[:, 1] <= 1e-9):
        errors.append(f"lattice_oracle: join/meet deviation {rows[:, 1].max():.17g}")
    if not np.all(rows[:, 2] <= 1e-6):
        errors.append(f"lattice_oracle: modulus deviation {rows[:, 2].max():.17g}")
    if not np.all(rows[:, 3] == 0.0):
        errors.append("lattice_oracle: formula column is not 0")


def _check_atomic(rows: np.ndarray, errors: list, ratios: list) -> None:
    k0, k1 = inputs.ATOMIC_K_RANGE
    if rows[:, 0].tolist() != list(range(k0, k1 + 1)):
        errors.append("atomic_limsup: k values")
        return
    for k, value, cert, formula in rows:
        # cancelling the k largest atoms leaves sup |u| = 1 + 1/(k+1), which
        # is also the exact L1 norm of the cancelled multiplication operator
        expected = 1.0 + 1.0 / (k + 1.0)
        if abs(value - expected) > REL * expected:
            errors.append(f"atomic_limsup k={int(k)}: {value:.17g} != {expected:.17g}")
        if formula != 1.0:
            errors.append(f"atomic_limsup k={int(k)}: formula {formula:.17g}")
        if abs(cert - expected) > REL * expected:
            errors.append(f"atomic_limsup k={int(k)}: certificate {cert:.17g} != {expected:.17g}")
        ratios.append(cert / expected)


def _check_qn(rows: np.ndarray, errors: list) -> None:
    if rows[:, 0].tolist() != list(range(inputs.QN_COUNT + 1)):
        errors.append("qn_decay: n values")
        return
    for n, value, _, formula in rows:
        if value != 2.0**-n or formula != 2.0**-n:
            errors.append(f"qn_decay n={int(n)}: {value:.17g} (formula {formula:.17g}) != 2^-{int(n)}")


def check_ensemble(ref: EnsembleReference, out: dict) -> tuple[list[str], list[float], int]:
    errors: list[str] = []
    ratios: list[float] = []
    by_name = {s["scenario"]: s for s in out["scenarios"]}
    if sorted(by_name) != sorted(c["scenario"] for c in inputs.ensemble_configs(0)):
        return [f"ensemble: scenarios {sorted(by_name)}"], ratios, 0
    _check_pinching(ref, _rows(by_name["pinching_suite"]), errors, ratios)
    _check_lattice(_rows(by_name["lattice_oracle"]), errors)
    _check_atomic(_rows(by_name["atomic_limsup"]), errors, ratios)
    _check_qn(_rows(by_name["qn_decay"]), errors)
    for name, s in by_name.items():
        errors += report_errors(name, s["report"])
    return errors, ratios, 0


# ---------------------------------------------------------------------------
# estimator
# ---------------------------------------------------------------------------


class EstimatorReference:
    def __init__(self, seed: int):
        self.seed = seed

    @cached_property
    def ensemble(self) -> dict:
        draws = inputs.estimator_draws(self.seed)
        m = np.stack([d[0] for d in draws])
        A = np.stack([d[1] for d in draws])
        ref = {"A": A, "maxdiag": np.abs(np.diagonal(A, axis1=1, axis2=2)).max(axis=1)}
        for p in inputs.ESTIMATOR_PS:
            w = m ** (1.0 / p)
            B = (w[:, :, None] * A) / w[:, None, :]
            ref[p] = {
                "upper": spectral_norm(B) if p == 2.0 else riesz_thorin(B, p),
                "columns": column_pnorms(B, p),
            }
        return ref

    @cached_property
    def witness(self) -> dict:
        """Per level: (max |A_ii|, {p: (upper bound of A, of |A|, max_j |A e_j|_p)})."""
        out = {}
        l0, l1 = inputs.ESTIMATOR_LEVELS
        for level in range(l0, l1 + 1):
            A = witness_operator(inputs.WITNESS_KERNEL_SEED, level)
            per_p = {}
            for p in inputs.ESTIMATOR_PS:
                if p == 2.0:
                    per_p[p] = (float(spectral_norm(A)), float(spectral_norm(np.abs(A))))
                else:
                    rt = float(riesz_thorin(A, p))
                    per_p[p] = (rt, rt)
                per_p[p] += (float(column_pnorms(A, p)),)
            out[level] = (float(np.abs(np.diag(A)).max()), per_p)
        return out


def check_estimator(ref: EstimatorReference, out: dict) -> tuple[list[str], list[float], int]:
    errors: list[str] = []
    ratios: list[float] = []
    failed = 0
    ens = ref.ensemble
    trials = out["trials"]
    if len(trials) != inputs.ESTIMATOR_TRIALS:
        return [f"estimator: {len(trials)} trials"], ratios, 0
    for t, trial in enumerate(trials):
        A = ens["A"][t]
        for p, est in zip(inputs.ESTIMATOR_PS, trial["estimates"]):
            upper = ens[p]["upper"][t]
            if not _le(est, upper):
                errors.append(f"estimator t={t} p={p}: estimate {est:.17g} above upper bound {upper:.17g}")
            if est < ens["maxdiag"][t]:
                errors.append(f"estimator t={t} p={p}: estimate {est:.17g} below max|A_ii|")
            if not _ge(est, ens[p]["columns"][t]):
                errors.append(f"estimator t={t} p={p}: estimate {est:.17g} below max_j |B e_j|_p")
            ratios.append(est / upper)
        centre = np.asarray(trial["centre"])
        disjoint = np.asarray(trial["disjoint"])
        if not (np.array_equal(centre, np.diag(A)) and np.array_equal(disjoint + np.diag(centre), A)
                and np.all(np.diag(disjoint) == 0.0)):
            errors.append(f"estimator t={t}: centre_project does not split A exactly")

    wit = ref.witness
    seen = sorted((w["p"], w["level"]) for w in out["witness"])
    l0, l1 = inputs.ESTIMATOR_LEVELS
    if seen != sorted((p, L) for p in inputs.ESTIMATOR_PS for L in range(l0, l1 + 1)):
        return errors + [f"estimator: witness runs {seen}"], ratios, failed
    for w in out["witness"]:
        p, level, bound, regular = w["p"], w["level"], w["bound"], w["regular"]
        maxdiag, per_p = wit[level]
        upper, upper_abs, columns = per_p[p]
        tag = f"estimator witness L={level} p={p}"
        if not w["verified"]:
            # the program rejected its own certificate: a failed operation
            failed += 1
        if not _le(bound, upper):
            errors.append(f"{tag}: bound {bound:.17g} above upper bound {upper:.17g}")
        if not _le(regular, upper_abs):
            errors.append(f"{tag}: regular norm {regular:.17g} above upper bound {upper_abs:.17g}")
        if not (_ge(regular, maxdiag) and _ge(regular, columns)):
            errors.append(f"{tag}: regular norm {regular:.17g} below its seeds")
        ratios.append(bound / upper)
        ratios.append(regular / upper_abs)
    return errors, ratios, failed


REFERENCES = {
    "refine": RefineReference,
    "ensemble": EnsembleReference,
    "estimator": EstimatorReference,
}
CHECKERS = {
    "refine": check_refine,
    "ensemble": check_ensemble,
    "estimator": check_estimator,
}
