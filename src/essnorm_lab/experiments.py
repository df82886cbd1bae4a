"""Configuration-driven experiment scenarios with CSV and report output.

A single JSON document describes one scenario run: the space, the symbol
u, the perturbation, and the sweep.  Runs are deterministic given the
config (random draws use numpy's PCG64 seeded per trial with
``(seed, trial)``), and re-running a config produces byte-identical
output files.

Scenarios
---------
``atomic_limsup``        best rank-k diagonal cancellation vs. the tail limsup
``diffuse_witness``      certified witness lower bounds across refinement levels
``pinching_suite``       block-compression contractivity on random operators
``rankone_centre_decay`` diagonal of a rank-one kernel under refinement
``qn_decay``             exact norms of tail compressions Q_n K
``lattice_oracle``       entrywise join/meet/modulus vs. their defining sup forms

CSV columns are ``parameter, computed, certified_bound, formula, residual``
(``residual = |computed - formula|`` where a formula value exists); the
sidecar report lists one PASS/FAIL line per scenario assertion.
"""

from __future__ import annotations

import csv
import json
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence, TextIO

import numpy as np

from .essnorm import (
    EssNormProblem,
    best_diagonal_rank_k,
    essential_norm,
    pinching_lower_bound,
    qn_decay_profile,
    truncation_perturbation,
    verify_certificate,
    witness_lower_bound,
)
from .lattice import centre_decay_under_refinement, join, meet, modulus
from .lpspace import StepFunction
from .measure import MeasureSpace, TailDescriptor, build_space
from .operators import (
    FunctionKernel,
    MatrixOperator,
    MultiplicationOperator,
    _pinched,
    _weighted_abs_colsums,
    mult_op,
    opnorm_p1,
    rank_one_diffuse,
)

__all__ = [
    "SCENARIOS",
    "ConfigError",
    "ExperimentConfig",
    "Row",
    "Check",
    "ScenarioResult",
    "run_scenario",
    "emit",
]

SCENARIOS = (
    "atomic_limsup",
    "diffuse_witness",
    "pinching_suite",
    "rankone_centre_decay",
    "qn_decay",
    "lattice_oracle",
)

_PERTURBATION_KINDS = ("none", "random_dense", "rank_one", "truncation")
_FN_KINDS = ("identity", "constant", "poly", "values", "geometric_tail")

CSV_HEADER = ("parameter", "computed", "certified_bound", "formula", "residual")

# deepest refinement level a config may sweep: 2**16 cells, whose witness
# sweep streams its exact norms through O(n) memory per column block
MAX_LEVEL = 16
# a random_dense perturbation is an n x n array, 128 MB at 2**12 cells
DENSE_MAX_LEVEL = 12
# trial scenarios draw dense n x n matrices, capped like random_dense
MAX_RANDOM_DIMENSION = 2**DENSE_MAX_LEVEL
# trial scenarios run in stacks whose arrays hold at most this many floats
# each (32 kB), so the stack shrinks as the dimension grows
_STACK_ENTRIES = 4096
# lattice_oracle checks the modulus on 3 x 3 operators against a grid of
# 5 points per coordinate
_MODULUS_DIM = 3
_GRID_STEPS = 5


class ConfigError(ValueError):
    """Invalid experiment configuration, carrying the offending field path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path
        self.message = message


# ---------------------------------------------------------------------------
# configuration parsing
# ---------------------------------------------------------------------------


def _req(d: dict, key: str, path: str) -> Any:
    if key not in d:
        raise ConfigError(f"{path}.{key}", "required field is missing")
    return d[key]


def _as_float(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, f"expected a number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise ConfigError(path, f"expected a finite number, got {value!r}")
    return x


def _as_int(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(path, f"expected an integer, got {value!r}")
    return int(value)


def _as_float_list(value: Any, path: str) -> list[float]:
    if not isinstance(value, list):
        raise ConfigError(path, f"expected a list of numbers, got {value!r}")
    return [_as_float(v, f"{path}[{i}]") for i, v in enumerate(value)]


def _as_pair(value: Any, path: str) -> tuple[int, int]:
    if not isinstance(value, list) or len(value) != 2:
        raise ConfigError(path, f"expected a pair [lo, hi], got {value!r}")
    lo = _as_int(value[0], f"{path}[0]")
    hi = _as_int(value[1], f"{path}[1]")
    if hi < lo:
        raise ConfigError(path, f"range is empty: [{lo}, {hi}]")
    return lo, hi


def _as_levels(value: Any, path: str) -> tuple[int, int]:
    lo, hi = _as_pair(value, path)
    if lo < 0 or hi > MAX_LEVEL:
        raise ConfigError(path, f"levels must lie in [0, {MAX_LEVEL}], got [{lo}, {hi}]")
    return lo, hi


def _check_keys(d: dict, allowed: Sequence[str], path: str) -> None:
    for key in d:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}", "unknown field")


def _parse_tail(value: Any, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(path, "expected an object with 'kind' and 'params'")
    _check_keys(value, ("kind", "params"), path)
    kind = _req(value, "kind", path)
    params = _as_float_list(value.get("params", []), f"{path}.params")
    try:
        TailDescriptor(kind, tuple(params))
    except ValueError as e:
        raise ConfigError(path, str(e)) from None
    return {"kind": kind, "params": params}


def _parse_fnspec(value: Any, path: str) -> dict:
    if not isinstance(value, dict) or "kind" not in value:
        raise ConfigError(path, "expected an object with a 'kind' field")
    kind = value["kind"]
    if kind not in _FN_KINDS:
        raise ConfigError(f"{path}.kind", f"unknown kind {kind!r}; expected one of {_FN_KINDS}")
    if kind == "identity":
        _check_keys(value, ("kind",), path)
        return {"kind": kind}
    if kind == "constant":
        _check_keys(value, ("kind", "value"), path)
        return {"kind": kind, "value": _as_float(_req(value, "value", path), f"{path}.value")}
    if kind == "poly":
        _check_keys(value, ("kind", "coeffs"), path)
        return {"kind": kind, "coeffs": _as_float_list(_req(value, "coeffs", path), f"{path}.coeffs")}
    if kind == "values":
        _check_keys(value, ("kind", "values"), path)
        return {"kind": kind, "values": _as_float_list(_req(value, "values", path), f"{path}.values")}
    # geometric_tail: 2^-1 .. 2^-count plus one closing coordinate 2^-count,
    # so every tail sum equals the infinite geometric value exactly
    _check_keys(value, ("kind", "count"), path)
    count = _as_int(_req(value, "count", path), f"{path}.count")
    if count < 1:
        raise ConfigError(f"{path}.count", "count must be >= 1")
    return {"kind": kind, "count": count}


def _parse_space(value: Any, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(path, "expected an object")
    _check_keys(value, ("atom_masses", "tail", "interval", "random"), path)
    out: dict[str, Any] = {}
    if "atom_masses" in value:
        masses = value["atom_masses"]
        if isinstance(masses, dict):
            _check_keys(masses, ("value", "count"), f"{path}.atom_masses")
            v = _as_float(_req(masses, "value", f"{path}.atom_masses"), f"{path}.atom_masses.value")
            c = _as_int(_req(masses, "count", f"{path}.atom_masses"), f"{path}.atom_masses.count")
            if c < 1:
                raise ConfigError(f"{path}.atom_masses.count", "count must be >= 1")
            masses = [v] * c
        else:
            masses = _as_float_list(masses, f"{path}.atom_masses")
        for i, m in enumerate(masses):
            if m <= 0:
                raise ConfigError(f"{path}.atom_masses[{i}]", f"mass must be positive, got {m}")
        out["atom_masses"] = masses
    if "tail" in value:
        out["tail"] = _parse_tail(value["tail"], f"{path}.tail")
    if "interval" in value:
        iv = value["interval"]
        if not isinstance(iv, list) or len(iv) != 2:
            raise ConfigError(f"{path}.interval", f"expected [a, b], got {iv!r}")
        a = _as_float(iv[0], f"{path}.interval[0]")
        b = _as_float(iv[1], f"{path}.interval[1]")
        if b <= a:
            raise ConfigError(f"{path}.interval", f"interval must have positive length, got [{a}, {b}]")
        out["interval"] = [a, b]
    if "random" in value:
        rnd = value["random"]
        if not isinstance(rnd, dict):
            raise ConfigError(f"{path}.random", "expected an object")
        _check_keys(rnd, ("dimension", "mass_low", "mass_high"), f"{path}.random")
        dim = _as_int(_req(rnd, "dimension", f"{path}.random"), f"{path}.random.dimension")
        if not 1 <= dim <= MAX_RANDOM_DIMENSION:
            raise ConfigError(
                f"{path}.random.dimension",
                f"dimension must lie in [1, {MAX_RANDOM_DIMENSION}], got {dim}: "
                "every trial draws a dense dimension x dimension matrix",
            )
        parsed = {"dimension": dim}
        if "mass_low" in rnd or "mass_high" in rnd:
            lo = _as_float(rnd.get("mass_low", 0.1), f"{path}.random.mass_low")
            hi = _as_float(rnd.get("mass_high", 2.0), f"{path}.random.mass_high")
            if not 0 < lo <= hi:
                raise ConfigError(f"{path}.random", f"need 0 < mass_low <= mass_high, got {lo}, {hi}")
            parsed["mass_low"] = lo
            parsed["mass_high"] = hi
        out["random"] = parsed
    return out


def _parse_u(value: Any, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(path, "expected an object")
    _check_keys(value, ("atoms", "diffuse", "tail"), path)
    out: dict[str, Any] = {}
    if "atoms" in value:
        atoms = value["atoms"]
        if atoms == "from_tail":
            out["atoms"] = "from_tail"
        else:
            out["atoms"] = _as_float_list(atoms, f"{path}.atoms")
    if "diffuse" in value:
        out["diffuse"] = _parse_fnspec(value["diffuse"], f"{path}.diffuse")
    if "tail" in value:
        out["tail"] = _parse_tail(value["tail"], f"{path}.tail")
    return out


def _parse_perturbation(value: Any, path: str) -> dict:
    if not isinstance(value, dict) or "kind" not in value:
        raise ConfigError(path, "expected an object with a 'kind' field")
    kind = value["kind"]
    if kind not in _PERTURBATION_KINDS:
        raise ConfigError(
            f"{path}.kind", f"unknown kind {kind!r}; expected one of {_PERTURBATION_KINDS}"
        )
    if kind == "none":
        _check_keys(value, ("kind",), path)
        return {"kind": kind}
    if kind == "random_dense":
        _check_keys(value, ("kind", "seed"), path)
        return {"kind": kind, "seed": _as_int(_req(value, "seed", path), f"{path}.seed")}
    if kind == "rank_one":
        _check_keys(value, ("kind", "rank", "seed"), path)
        rank = _as_int(_req(value, "rank", path), f"{path}.rank")
        if rank < 1:
            raise ConfigError(f"{path}.rank", "rank must be >= 1")
        return {
            "kind": kind,
            "rank": rank,
            "seed": _as_int(_req(value, "seed", path), f"{path}.seed"),
        }
    _check_keys(value, ("kind", "cutoff"), path)
    cutoff = _as_int(_req(value, "cutoff", path), f"{path}.cutoff")
    if cutoff < 0:
        raise ConfigError(f"{path}.cutoff", "cutoff must be >= 0")
    return {"kind": kind, "cutoff": cutoff}


def _parse_formula(value: Any, path: str) -> dict:
    if not isinstance(value, dict) or "kind" not in value:
        raise ConfigError(path, "expected an object with a 'kind' field")
    kind = value["kind"]
    if kind == "power":
        _check_keys(value, ("kind", "base", "scale"), path)
        base = _as_float(_req(value, "base", path), f"{path}.base")
        scale = _as_float(value.get("scale", 1.0), f"{path}.scale")
        return {"kind": kind, "base": base, "scale": scale}
    if kind == "constant":
        _check_keys(value, ("kind", "value"), path)
        return {"kind": kind, "value": _as_float(_req(value, "value", path), f"{path}.value")}
    raise ConfigError(f"{path}.kind", f"unknown kind {kind!r}; expected 'power' or 'constant'")


@dataclass(eq=True)
class ExperimentConfig:
    """Validated, normalized description of one scenario run."""

    scenario: str
    space: dict | None = None
    u: dict | None = None
    kernel: dict | None = None
    perturbation: dict = field(default_factory=lambda: {"kind": "none"})
    p: float = 1.0
    epsilon: float | None = None
    levels: tuple[int, int] | None = None
    k_range: tuple[int, int] | None = None
    n_max: int | None = None
    trials: int | None = None
    seed: int = 0
    formula: dict | None = None

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("<root>", "configuration must be a JSON object")
        allowed = (
            "scenario",
            "space",
            "u",
            "kernel",
            "perturbation",
            "p",
            "epsilon",
            "levels",
            "k_range",
            "n_max",
            "trials",
            "seed",
            "formula",
        )
        _check_keys(raw, allowed, "<root>")
        scenario = _req(raw, "scenario", "<root>")
        if scenario not in SCENARIOS:
            raise ConfigError(
                "scenario", f"unknown scenario {scenario!r}; expected one of {SCENARIOS}"
            )
        cfg = cls(
            scenario=scenario,
            space=_parse_space(raw["space"], "space") if "space" in raw else None,
            u=_parse_u(raw["u"], "u") if "u" in raw else None,
            kernel=_parse_kernel(raw["kernel"], "kernel") if "kernel" in raw else None,
            perturbation=(
                _parse_perturbation(raw["perturbation"], "perturbation")
                if "perturbation" in raw
                else {"kind": "none"}
            ),
            p=_as_float(raw.get("p", 1.0), "p"),
            epsilon=_as_float(raw["epsilon"], "epsilon") if "epsilon" in raw else None,
            levels=_as_levels(raw["levels"], "levels") if "levels" in raw else None,
            k_range=_as_pair(raw["k_range"], "k_range") if "k_range" in raw else None,
            n_max=_as_int(raw["n_max"], "n_max") if "n_max" in raw else None,
            trials=_as_int(raw["trials"], "trials") if "trials" in raw else None,
            seed=_as_int(raw.get("seed", 0), "seed"),
            formula=_parse_formula(raw["formula"], "formula") if "formula" in raw else None,
        )
        cfg._validate_scenario()
        return cfg

    def to_dict(self) -> dict:
        out: dict[str, Any] = {"scenario": self.scenario}
        if self.space is not None:
            out["space"] = json.loads(json.dumps(self.space))
        if self.u is not None:
            out["u"] = json.loads(json.dumps(self.u))
        if self.kernel is not None:
            out["kernel"] = json.loads(json.dumps(self.kernel))
        out["perturbation"] = dict(self.perturbation)
        out["p"] = self.p
        if self.epsilon is not None:
            out["epsilon"] = self.epsilon
        if self.levels is not None:
            out["levels"] = list(self.levels)
        if self.k_range is not None:
            out["k_range"] = list(self.k_range)
        if self.n_max is not None:
            out["n_max"] = self.n_max
        if self.trials is not None:
            out["trials"] = self.trials
        out["seed"] = self.seed
        if self.formula is not None:
            out["formula"] = dict(self.formula)
        return out

    # -- scenario-specific requirements ---------------------------------

    def _require(self, cond: bool, path: str, message: str) -> None:
        if not cond:
            raise ConfigError(path, message)

    def _validate_scenario(self) -> None:
        s = self.scenario
        if self.p < 1.0:
            raise ConfigError("p", f"p must be >= 1, got {self.p}")
        if self.epsilon is not None and self.epsilon <= 0:
            raise ConfigError("epsilon", f"epsilon must be positive, got {self.epsilon}")
        if self.trials is not None and self.trials < 1:
            raise ConfigError("trials", "trials must be >= 1")
        if s == "atomic_limsup":
            self._require(self.space is not None and "atom_masses" in self.space,
                          "space.atom_masses", "atomic_limsup needs explicit atoms")
            self._require(self.u is not None and "atoms" in self.u and "tail" in self.u,
                          "u", "atomic_limsup needs u.atoms and u.tail")
            self._require(self.k_range is not None, "k_range", "atomic_limsup sweeps k_range")
            self._require(self.p == 1.0, "p", "atomic_limsup uses exact L1 norms; p must be 1")
            self._require(self.perturbation["kind"] in ("none", "truncation"),
                          "perturbation.kind",
                          "atomic_limsup supports only the truncation perturbation")
        elif s == "diffuse_witness":
            self._require(self.space is not None and "interval" in self.space,
                          "space.interval", "diffuse_witness needs a diffuse interval")
            self._require(self.u is not None and "diffuse" in self.u,
                          "u.diffuse", "diffuse_witness needs the symbol on the interval")
            self._require(self.levels is not None, "levels", "diffuse_witness sweeps levels")
            self._require(self.epsilon is not None, "epsilon", "diffuse_witness needs epsilon")
            self._require(self.perturbation["kind"] != "truncation",
                          "perturbation.kind", "truncation applies to atomic spaces only")
            self._require(self.perturbation["kind"] != "random_dense"
                          or self.levels[1] <= DENSE_MAX_LEVEL, "levels",
                          f"random_dense draws an n x n matrix; levels must stay <= {DENSE_MAX_LEVEL}")
        elif s == "pinching_suite":
            self._require(self.space is not None and "random" in self.space,
                          "space.random", "pinching_suite draws random spaces")
            self._require(self.trials is not None, "trials", "pinching_suite needs a trial count")
            self._require(self.p == 1.0, "p", "pinching contractivity is exact at p = 1 only")
        elif s == "rankone_centre_decay":
            self._require(self.kernel is not None, "kernel", "rankone_centre_decay needs eta and g")
            self._require(self.levels is not None, "levels", "rankone_centre_decay sweeps levels")
        elif s == "qn_decay":
            self._require(self.space is not None and "atom_masses" in self.space,
                          "space.atom_masses", "qn_decay needs explicit atoms")
            self._require(self.kernel is not None, "kernel", "qn_decay needs eta and g")
            self._require(self.p == 1.0, "p", "tail-compression norms are exact at p = 1 only")
        elif s == "lattice_oracle":
            self._require(self.space is not None and "random" in self.space,
                          "space.random", "lattice_oracle draws random operators")
            self._require(self.trials is not None, "trials", "lattice_oracle needs a trial count")


def _parse_kernel(value: Any, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(path, "expected an object with 'eta' and 'g'")
    _check_keys(value, ("eta", "g"), path)
    return {
        "eta": _parse_fnspec(_req(value, "eta", path), f"{path}.eta"),
        "g": _parse_fnspec(_req(value, "g", path), f"{path}.g"),
    }


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Row:
    param: float
    computed: float | None
    certified: float | None
    formula: float | None
    residual: float | None


def _make_row(
    param: float,
    computed: float | None,
    certified: float | None = None,
    formula: float | None = None,
) -> Row:
    residual = None
    if computed is not None and formula is not None:
        residual = abs(computed - formula)
    return Row(float(param), computed, certified, formula, residual)


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class ScenarioResult:
    scenario: str
    rows: list[Row]
    checks: list[Check]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


# ---------------------------------------------------------------------------
# shared builders
# ---------------------------------------------------------------------------


def _tail_from(spec: dict) -> TailDescriptor:
    return TailDescriptor(spec["kind"], tuple(spec.get("params", [])))


def _fn_callable(spec: dict, path: str) -> Callable[[np.ndarray], np.ndarray]:
    kind = spec["kind"]
    if kind == "identity":
        return lambda x: x
    if kind == "constant":
        c = spec["value"]
        return lambda x: c
    if kind == "poly":
        return np.polynomial.Polynomial(spec["coeffs"])
    raise ConfigError(path, f"kind {kind!r} does not define a function of the interval variable")


def _fn_vector(spec: dict, space: MeasureSpace, path: str) -> np.ndarray:
    kind = spec["kind"]
    if kind == "constant":
        return np.full(space.dimension, spec["value"])
    if kind == "values":
        values = np.asarray(spec["values"], dtype=float)
        if values.size != space.dimension:
            raise ConfigError(
                path, f"{values.size} values for a space of dimension {space.dimension}"
            )
        return values
    if kind == "geometric_tail":
        count = spec["count"]
        if count + 1 != space.dimension:
            raise ConfigError(
                path,
                f"geometric_tail of count {count} needs dimension {count + 1}, "
                f"space has {space.dimension}",
            )
        values = 0.5 ** np.arange(1, count + 1, dtype=float)
        return np.concatenate([values, [0.5**count]])
    raise ConfigError(path, f"kind {kind!r} does not define a coordinate vector")


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    return np.random.default_rng([seed, trial])


# ---------------------------------------------------------------------------
# scenario runners
# ---------------------------------------------------------------------------


def _run_atomic_limsup(cfg: ExperimentConfig) -> ScenarioResult:
    masses = cfg.space["atom_masses"]
    tail = _tail_from(cfg.u["tail"])
    space_tail = _tail_from(cfg.space["tail"]) if "tail" in cfg.space else tail
    space = build_space(masses, space_tail)
    if cfg.u["atoms"] == "from_tail":
        u_atoms = np.array([tail.value(n) for n in range(1, space.n_atoms + 1)])
    else:
        u_atoms = np.asarray(cfg.u["atoms"], dtype=float)
    problem = EssNormProblem(space, None, u_atoms, tail)
    formula = essential_norm(problem)
    ustep = problem.u_step()
    order = np.argsort(-np.abs(u_atoms), kind="stable")

    rows = []
    cert_gap = 0.0
    k0, k1 = cfg.k_range
    for k in range(k0, k1 + 1):
        value = best_diagonal_rank_k(u_atoms, k)
        d = np.zeros(space.dimension)
        d[order[:k]] = -u_atoms[order[:k]]
        cert = pinching_lower_bound(ustep, MultiplicationOperator(d, space))
        cert_gap = max(cert_gap, abs(cert.bound - value) / max(1.0, abs(value)))
        rows.append(_make_row(k, value, cert.bound, formula))

    values = [r.computed for r in rows]
    non_increasing = all(values[i + 1] <= values[i] for i in range(len(values) - 1))
    checks = [
        Check("values_non_increasing_in_k", non_increasing),
        Check(
            "certificate_matches_value",
            cert_gap <= 1e-12,
            f"max relative gap {cert_gap:.3e}",
        ),
    ]
    if cfg.perturbation["kind"] == "truncation":
        # cancelling the first `cutoff` atoms leaves multiplication by the
        # tail of u, whose exact norm certifies the formula from above
        cutoff = cfg.perturbation["cutoff"]
        K = truncation_perturbation(ustep, min(cutoff, space.dimension))
        achieved = opnorm_p1(mult_op(ustep) + K)
        tail_sup = float(np.max(np.abs(u_atoms[cutoff:]))) if cutoff < space.dimension else 0.0
        checks.append(
            Check(
                "truncation_certifies_upper_bound",
                abs(achieved - tail_sup) <= 1e-12 * max(1.0, tail_sup),
                f"|M_u + K| = {achieved:.12g} at cutoff {cutoff}",
            )
        )
    return ScenarioResult(cfg.scenario, rows, checks)


def _run_diffuse_witness(cfg: ExperimentConfig) -> ScenarioResult:
    a, b = cfg.space["interval"]
    ufn = _fn_callable(cfg.u["diffuse"], "u.diffuse")
    pert = cfg.perturbation
    kernel = None
    if pert["kind"] == "rank_one":
        kernel = FunctionKernel.random_polynomial(pert["rank"], pert["seed"])

    rows = []
    all_verified = True
    l0, l1 = cfg.levels
    for level in range(l0, l1 + 1):
        space = build_space(diffuse_interval=(a, b), diffuse_level=level)
        u_l = StepFunction.from_function(space, ufn)
        formula = float(np.max(np.abs(u_l.coefficients)))
        if not cfg.epsilon < formula:
            # the witness sets need cells with |u| above max|u| - epsilon
            raise ConfigError(
                "epsilon",
                f"epsilon must lie below max|u| = {formula} at level {level}, got {cfg.epsilon}",
            )
        if pert["kind"] == "none":
            K = MatrixOperator.zero(space)
        elif pert["kind"] == "rank_one":
            K = kernel.discretize(space)
        else:  # random_dense
            rng = _trial_rng(pert["seed"], level)
            K = MatrixOperator(rng.uniform(-1.0, 1.0, (space.dimension, space.dimension)), space)
        cert = witness_lower_bound(u_l, K, cfg.epsilon, cfg.p)
        all_verified = verify_certificate(cert, u_l, K, cfg.p) and all_verified
        rows.append(_make_row(level, cert.bound, cert.bound, formula))

    checks = [Check("certificates_verified", all_verified)]
    return ScenarioResult(cfg.scenario, rows, checks)


def _stack_size(entries_per_trial: int) -> int:
    """Trials per stack: each array of a stack holds at most _STACK_ENTRIES
    floats, or one trial when a trial alone takes more."""
    return max(1, _STACK_ENTRIES // entries_per_trial)


def _p1_norms(stack: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Exact L1 norms of a (trials, n, n) stack over masses (trials, n).

    Computed as opnorm_p1 computes each one, column sums added top to
    bottom; the stack is scratch and is overwritten.
    """
    return np.max(_weighted_abs_colsums(stack, mu) / mu, axis=-1)


def _run_pinching_suite(cfg: ExperimentConfig) -> ScenarioResult:
    rnd = cfg.space["random"]
    dim = rnd["dimension"]
    lo = rnd.get("mass_low", 0.1)
    hi = rnd.get("mass_high", 2.0)
    size = _stack_size(dim * dim)
    masses = np.empty((size, dim))
    entries = np.empty((size, dim, dim))
    assign = np.empty((size, dim), dtype=np.int64)
    worst: list[float] = []
    full: list[float] = []
    for start in range(0, cfg.trials, size):
        k = min(size, cfg.trials - start)
        for i in range(k):
            rng = _trial_rng(cfg.seed, start + i)
            masses[i] = rng.uniform(lo, hi, dim)
            entries[i] = rng.uniform(-1.0, 1.0, (dim, dim))
            if dim >= 2:
                # two nonempty blocks: redraw an assignment that puts every
                # coordinate in one block
                a = rng.integers(0, 2, dim)
                while a.all() or not a.any():
                    a = rng.integers(0, 2, dim)
                assign[i] = a
        mu, A = masses[:k], entries[:k]
        # the diagonal pinch, then the two-block pinch of the assignment
        pinched = _p1_norms(_pinched(A, np.arange(dim)), mu)
        if dim >= 2:
            pinched = np.maximum(pinched, _p1_norms(_pinched(A, assign[:k]), mu))
        worst += pinched.tolist()
        full += _p1_norms(A, mu).tolist()
    rows = [_make_row(t, w, f) for t, (w, f) in enumerate(zip(worst, full))]
    violations = sum(1 for r in rows if r.computed > r.certified)
    checks = [
        Check(
            "pinch_contractive",
            violations == 0,
            f"{violations} violation(s) in {len(rows)} trials",
        )
    ]
    return ScenarioResult(cfg.scenario, rows, checks)


def _run_rankone_centre_decay(cfg: ExperimentConfig) -> ScenarioResult:
    eta_spec = cfg.kernel["eta"]
    g_spec = cfg.kernel["g"]
    interval = tuple(cfg.space["interval"]) if cfg.space and "interval" in cfg.space else (0.0, 1.0)
    l0, l1 = cfg.levels
    levels = list(range(l0, l1 + 1))
    values = centre_decay_under_refinement(
        _fn_callable(eta_spec, "kernel.eta"),
        _fn_callable(g_spec, "kernel.g"),
        levels,
        interval,
    )

    width = interval[1] - interval[0]
    rows = []
    for level, value in zip(levels, values):
        formula = None
        if eta_spec["kind"] == "constant" and g_spec["kind"] == "constant":
            formula = abs(eta_spec["value"] * g_spec["value"]) * width * 2.0 ** (-level)
        elif cfg.formula is not None:
            formula = _eval_formula(cfg.formula, level)
        rows.append(_make_row(level, value, None, formula))

    non_increasing = all(
        rows[i + 1].computed <= rows[i].computed for i in range(len(rows) - 1)
    )
    decays = len(rows) < 2 or rows[-1].computed < rows[0].computed or rows[0].computed == 0.0
    checks = [
        Check("centre_norm_non_increasing", non_increasing),
        Check("centre_norm_decays", decays),
    ]
    res_rows = [r for r in rows if r.residual is not None]
    if res_rows:
        worst = max(
            r.residual / max(1.0, abs(r.formula)) for r in res_rows
        )
        checks.append(Check("matches_formula", worst <= 1e-12, f"max relative residual {worst:.3e}"))
    return ScenarioResult(cfg.scenario, rows, checks)


def _run_qn_decay(cfg: ExperimentConfig) -> ScenarioResult:
    space = build_space(cfg.space["atom_masses"])
    g = StepFunction(_fn_vector(cfg.kernel["g"], space, "kernel.g"), space)
    eta = StepFunction(_fn_vector(cfg.kernel["eta"], space, "kernel.eta"), space)
    K = rank_one_diffuse(eta, g)
    n_max = cfg.n_max if cfg.n_max is not None else space.dimension
    if n_max > space.dimension:
        raise ConfigError("n_max", f"n_max exceeds the dimension {space.dimension}")
    profile = qn_decay_profile(K, n_max)

    rows = []
    for n, value in enumerate(profile):
        formula = _eval_formula(cfg.formula, n) if cfg.formula is not None else None
        rows.append(_make_row(n, value, None, formula))

    checks = [Check("profile_nonnegative", all(r.computed >= 0.0 for r in rows))]
    if n_max == space.dimension:
        checks.append(Check("final_value_zero", rows[-1].computed == 0.0))
    res_rows = [r for r in rows if r.residual is not None]
    if res_rows:
        worst = max(r.residual / max(1.0, abs(r.formula)) for r in res_rows)
        checks.append(Check("matches_formula", worst <= 1e-12, f"max relative residual {worst:.3e}"))
    return ScenarioResult(cfg.scenario, rows, checks)


def _one_parameter_join_meet(S: np.ndarray, T: np.ndarray, n_grid: int = 21) -> tuple[np.ndarray, np.ndarray]:
    """Columnwise sup/inf over decompositions f = t f + (1-t) f of e_j.

    For a coordinate indicator, any split g + h = f with g, h >= 0 is a
    one-parameter family g = t f, so the defining sup/inf of join/meet
    reduces to extremizing t S[:, j] + (1 - t) T[:, j] over t in [0, 1].
    S and T may be stacks; the extrema are taken one grid point at a time.
    """
    hi = np.full(S.shape, -np.inf)
    lo = np.full(S.shape, np.inf)
    for t in np.linspace(0.0, 1.0, n_grid):
        cand = t * S + (1.0 - t) * T
        np.maximum(hi, cand, out=hi)
        np.minimum(lo, cand, out=lo)
    return hi, lo


def _modulus_grid_oracle(S: np.ndarray) -> np.ndarray:
    """sup over a grid of |g| <= 1 of |S g|, coordinatewise (f = all-ones).

    S may be a stack; the grid has _GRID_STEPS points per coordinate.
    """
    n = S.shape[-1]
    axes = [np.linspace(-1.0, 1.0, _GRID_STEPS)] * n
    grids = np.meshgrid(*axes, indexing="ij")
    gs = np.stack([g.ravel() for g in grids], axis=0)  # n x steps^n
    image = S @ gs
    return np.max(np.abs(image, out=image), axis=-1)


def _max_abs_diff(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """max |X - Y| over the last two axes."""
    return np.max(np.abs(X - Y), axis=(-2, -1))


def _run_lattice_oracle(cfg: ExperimentConfig) -> ScenarioResult:
    dim = cfg.space["random"]["dimension"]
    space = build_space(np.ones(dim))
    small_space = build_space(np.ones(_MODULUS_DIM))
    # a trial's largest arrays: S, T, their join and meet (dim x dim each),
    # and the image of the modulus grid
    size = _stack_size(max(dim * dim, _MODULUS_DIM * _GRID_STEPS**_MODULUS_DIM))
    S, T, J, M = (np.empty((size, dim, dim)) for _ in range(4))
    Sm = np.empty((size, _MODULUS_DIM, _MODULUS_DIM))
    applied = np.empty((size, _MODULUS_DIM))
    ones = np.ones(_MODULUS_DIM)
    dev_jm: list[float] = []
    dev_mod: list[float] = []
    for start in range(0, cfg.trials, size):
        k = min(size, cfg.trials - start)
        for i in range(k):
            rng = _trial_rng(cfg.seed, start + i)
            S[i] = rng.uniform(-1.0, 1.0, (dim, dim))
            T[i] = rng.uniform(-1.0, 1.0, (dim, dim))
            Sm[i] = rng.uniform(-1.0, 1.0, (_MODULUS_DIM, _MODULUS_DIM))
            # the library operations under test, one trial at a time
            St, Tt = MatrixOperator(S[i], space), MatrixOperator(T[i], space)
            J[i] = join(St, Tt).entries
            M[i] = meet(St, Tt).entries
            applied[i] = modulus(MatrixOperator(Sm[i], small_space)).matvec(ones)
        oj, om = _one_parameter_join_meet(S[:k], T[:k])
        dev_jm += np.maximum(_max_abs_diff(J[:k], oj), _max_abs_diff(M[:k], om)).tolist()
        dev_mod += np.max(np.abs(_modulus_grid_oracle(Sm[:k]) - applied[:k]), axis=-1).tolist()

    # computed column: join/meet deviation; certified column: modulus deviation
    rows = [_make_row(t, jm, mod, 0.0) for t, (jm, mod) in enumerate(zip(dev_jm, dev_mod))]
    worst_jm = max((r.computed for r in rows), default=0.0)
    worst_mod = max((r.certified for r in rows), default=0.0)
    checks = [
        Check("join_meet_matches_oracle", worst_jm <= 1e-9, f"max deviation {worst_jm:.3e}"),
        Check("modulus_matches_grid_oracle", worst_mod <= 1e-6, f"max deviation {worst_mod:.3e}"),
    ]
    return ScenarioResult(cfg.scenario, rows, checks)


def _eval_formula(spec: dict, param: float) -> float:
    if spec["kind"] == "power":
        return spec["scale"] * spec["base"] ** param
    return spec["value"]


_RUNNERS = {
    "atomic_limsup": _run_atomic_limsup,
    "diffuse_witness": _run_diffuse_witness,
    "pinching_suite": _run_pinching_suite,
    "rankone_centre_decay": _run_rankone_centre_decay,
    "qn_decay": _run_qn_decay,
    "lattice_oracle": _run_lattice_oracle,
}


def run_scenario(config: ExperimentConfig) -> ScenarioResult:
    """Run one scenario; deterministic given the config (seed included)."""
    return _RUNNERS[config.scenario](config)


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------


def _fmt(x: float | None) -> str:
    return "" if x is None else f"{x:.12g}"


@contextmanager
def _atomic_open(path: Path) -> Iterator[TextIO]:
    """Open a temporary file that replaces path once written in full.

    The file appears under its name complete or not at all: the temporary
    file, in the same directory, is renamed over path in one step after a
    clean close and removed if writing fails.
    """
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def emit(result: ScenarioResult, out_dir: str | Path, config: ExperimentConfig | None = None) -> list[Path]:
    """Write the CSV table and the sidecar report; returns the paths.

    Reruns with the same config produce byte-identical files.  Each file
    is written to a temporary file and then renamed, so a failure leaves
    no partial file behind.
    """
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        paths = []

        csv_path = out / f"{result.scenario}.csv"
        with _atomic_open(csv_path) as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_HEADER)
            for row in result.rows:
                writer.writerow(
                    [_fmt(row.param), _fmt(row.computed), _fmt(row.certified),
                     _fmt(row.formula), _fmt(row.residual)]
                )
        paths.append(csv_path)

        report_path = out / f"{result.scenario}.report.txt"
        lines = [f"scenario: {result.scenario}"]
        if result.rows:
            lines.append(f"rows: {len(result.rows)}")
        else:
            lines.append("rows: 0 (empty sweep)")
        for check in result.checks:
            status = "PASS" if check.passed else "FAIL"
            suffix = f" ({check.detail})" if check.detail else ""
            lines.append(f"check {check.name}: {status}{suffix}")
        lines.append(f"result: {'PASS' if result.passed else 'FAIL'}")
        with _atomic_open(report_path) as fh:
            fh.write("\n".join(lines) + "\n")
        paths.append(report_path)

        if config is not None:
            config_path = out / f"{result.scenario}.config.json"
            with _atomic_open(config_path) as fh:
                fh.write(json.dumps(config.to_dict(), indent=2, sort_keys=True) + "\n")
            paths.append(config_path)
        return paths
    except OSError as e:
        raise RuntimeError(f"failed to write results under {out}: {e}") from e
