"""Configuration-driven experiment scenarios with CSV and report output.

A single JSON document describes one scenario run: the space, the symbol
u, the perturbation, and the sweep.  Runs are deterministic given the
config (random draws use numpy's PCG64 in the state of
``default_rng([seed, trial])``), and re-running a config produces
byte-identical output files.

Scenarios
---------
Each scenario is one entry of ``_SCENARIOS``, which lists the fields it
reads.  A config that sets any other field, or a size beyond the limits
below, is refused before anything is allocated.

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
import itertools
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence, TextIO

import numpy as np

from .essnorm import (
    _pinching_quotients,
    best_diagonal_rank_k,
    essential_norm,
    qn_decay_profile,
    truncation_perturbation,
    verify_certificate,
    witness_lower_bound,
)
from ._pcg64 import _pcg64_states, _seed_words, _uniform_from_raw
from .lattice import _join, _meet, _modulus, centre_decay_under_refinement
from .lpspace import StepFunction, _weighted_abs_colsums
from .measure import _TAIL_KINDS as _TAIL_PARAMS
from .measure import MeasureSpace, TailDescriptor, build_space
from .operators import (
    FunctionKernel,
    MatrixOperator,
    _horner,
    _pinched,
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

_COMMON_FIELDS = ("scenario", "p", "seed", "perturbation")

CSV_HEADER = ("parameter", "computed", "certified_bound", "formula", "residual")

# deepest refinement level a config may sweep: 2**16 cells, whose witness
# sweep streams its exact norms through O(n) memory per column block
MAX_LEVEL = 16
# a random_dense perturbation is an n x n array, 128 MB at 2**12 cells
DENSE_MAX_LEVEL = 12
# the trial scenarios draw dense n x n matrices and qn_decay builds them over
# its atoms; both cap n like random_dense
MAX_RANDOM_DIMENSION = 2**DENSE_MAX_LEVEL
# an atomic space holds its masses and the symbol's atom values as lists and
# vectors of one float per atom: 8 MB each at 2**20 atoms
MAX_ATOMS = 2**20
# a run holds one Row per trial or swept k, about 300 bytes each, until it
# emits them: 2**18 rows take about 75 MB
MAX_ROWS = 2**18
# the trial scenarios draw trials x dimension**2 entries and spend 35-80 ns
# on each (measured on a 2-vCPU VM), so a run stays within 10-20 s;
# atomic_limsup's k sweep caps its rows x atoms by the same number, more
# than its O(atoms log atoms + rows) work needs
MAX_TRIAL_ENTRIES = 2**28
# a rank-r kernel holds two n x r factors: 64 MB at level 16 and rank 64
MAX_RANK = 64
# trial scenarios run in stacks whose arrays hold at most this many floats
# each (32 kB), so the stack shrinks as the dimension grows
_STACK_ENTRIES = 4096
# lattice_oracle checks the modulus on 3 x 3 operators against a grid of
# 5 points per coordinate
_MODULUS_DIM = 3
_GRID_STEPS = 5
# and join/meet against 21 values of the split parameter t in [0, 1]
_SPLIT_STEPS = 21
# both grids, built once and read-only; the modulus grid's points are the
# columns of a _MODULUS_DIM x _GRID_STEPS**_MODULUS_DIM array
_SPLITS = tuple(np.linspace(0.0, 1.0, _SPLIT_STEPS))
_MODULUS_GRID = np.reshape(
    np.meshgrid(*[np.linspace(-1.0, 1.0, _GRID_STEPS)] * _MODULUS_DIM, indexing="ij"), (_MODULUS_DIM, -1)
)
_MODULUS_GRID.setflags(write=False)


class ConfigError(ValueError):
    """Invalid experiment configuration, carrying the offending field path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


# ---------------------------------------------------------------------------
# configuration parsing
# ---------------------------------------------------------------------------


def _req(d: dict, key: str, path: str) -> Any:
    if key not in d:
        raise ConfigError(f"{path}.{key}", "required field is missing")
    return d[key]


def _check_keys(d: dict, allowed: Iterable[str], path: str) -> None:
    allowed = sorted(allowed)
    for key in d:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}", f"unknown field; expected one of {allowed}")


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


def _as_positive(value: Any, path: str) -> float:
    x = _as_float(value, path)
    if x <= 0:
        raise ConfigError(path, f"must be positive, got {x}")
    return x


def _as_p(value: Any, path: str) -> float:
    p = _as_float(value, path)
    if p < 1.0:
        raise ConfigError(path, f"p must be >= 1, got {p}")
    return p


def _as_int(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(path, f"expected an integer, got {value!r}")
    return int(value)


def _as_float_list(value: Any, path: str) -> list[float]:
    if not isinstance(value, list):
        raise ConfigError(path, f"expected a list of numbers, got {value!r}")
    return [_as_float(v, f"{path}[{i}]") for i, v in enumerate(value)]


def _as_coeffs(value: Any, path: str) -> list[float]:
    coeffs = _as_float_list(value, path)
    if not coeffs:
        raise ConfigError(path, "a polynomial needs at least one coefficient")
    return coeffs


def _int_in(lo: int, hi: float = math.inf, why: str = "") -> Callable[[Any, str], int]:
    """Parser of an integer in [lo, hi]; ``why`` gives the reason for hi."""

    def parse(value: Any, path: str) -> int:
        n = _as_int(value, path)
        if not lo <= n <= hi:
            reason = f": {why}" if why else ""
            raise ConfigError(path, f"must lie in [{lo}, {hi}], got {n}{reason}")
        return n

    return parse


def _sweep_in(lo: int, hi: float = math.inf) -> Callable[[Any, str], tuple[int, int]]:
    """Parser of a sweep [first, last] inside [lo, hi], one row per point."""

    def parse(value: Any, path: str) -> tuple[int, int]:
        if not isinstance(value, list) or len(value) != 2:
            raise ConfigError(path, f"expected a pair [first, last], got {value!r}")
        first, last = (_as_int(v, f"{path}[{i}]") for i, v in enumerate(value))
        if last < first:
            raise ConfigError(path, f"range is empty: [{first}, {last}]")
        if first < lo or last > hi:
            raise ConfigError(path, f"{path} must lie in [{lo}, {hi}], got [{first}, {last}]")
        if last - first >= MAX_ROWS:
            raise ConfigError(path, f"{path} sweeps more than {MAX_ROWS} points, one row each")
        return first, last

    return parse


def _parse_members(
    value: Any, path: str, members: dict[str, Callable], required: Sequence[str] = ()
) -> dict:
    """Parse an object whose member ``name`` is parsed by ``members[name]``."""
    if not isinstance(value, dict):
        raise ConfigError(path, "expected an object")
    _check_keys(value, members, path)
    for name in required:
        _req(value, name, path)
    return {name: parse(value[name], f"{path}.{name}") for name, parse in members.items() if name in value}


# fields of a kind-tagged object that may be left out, with their values
_KIND_DEFAULTS = {"scale": 1.0, "params": []}


def _parse_kind(value: Any, path: str, kinds: dict[str, dict[str, Callable]]) -> dict:
    """Parse ``{"kind": k, ...}`` whose other fields are parsed by ``kinds[k]``."""
    if not isinstance(value, dict) or "kind" not in value:
        raise ConfigError(path, "expected an object with a 'kind' field")
    kind = value["kind"]
    if not isinstance(kind, str) or kind not in kinds:
        raise ConfigError(f"{path}.kind", f"unknown kind {kind!r}; expected one of {tuple(kinds)}")
    fields = kinds[kind]
    defaults = {name: _KIND_DEFAULTS[name] for name in fields if name in _KIND_DEFAULTS}
    return _parse_members({**defaults, **value}, path, {"kind": lambda k, _: k, **fields}, tuple(fields))


_seed = _int_in(0)

_FN_KINDS = {
    "identity": {},
    "constant": {"value": _as_float},
    "poly": {"coeffs": _as_coeffs},
    "values": {"values": _as_float_list},
    # 2^-1 .. 2^-count plus one closing coordinate 2^-count, so every tail
    # sum equals the infinite geometric value exactly
    "geometric_tail": {"count": _int_in(1)},
}
# the kinds that define a function of the interval variable, and those that
# define a coordinate vector over the atoms
_FUNCTION_KINDS = ("identity", "constant", "poly")
_VECTOR_KINDS = ("constant", "values", "geometric_tail")
_PERTURBATION_KINDS = {
    "none": {},
    "random_dense": {"seed": _seed},
    "rank_one": {"rank": _int_in(1, MAX_RANK, "the kernel holds two n x rank factors"), "seed": _seed},
    "truncation": {"cutoff": _int_in(0)},
}
_FORMULA_KINDS = {
    "power": {"base": _as_float, "scale": _as_float},
    "constant": {"value": _as_float},
}
_TAIL_KINDS = {kind: {"params": _as_float_list} for kind in _TAIL_PARAMS}


def _parse_fn(value: Any, path: str) -> dict:
    return _parse_kind(value, path, _FN_KINDS)


def _parse_tail(value: Any, path: str) -> dict:
    tail = _parse_kind(value, path, _TAIL_KINDS)
    try:
        TailDescriptor(tail["kind"], tuple(tail["params"]))
    except ValueError as e:
        raise ConfigError(path, str(e)) from None
    return tail


def _parse_masses(value: Any, path: str) -> list[float]:
    if isinstance(value, dict):
        # the count is bounded before the list is built
        spec = _parse_members(
            value, path, {"value": _as_positive, "count": _int_in(1, MAX_ATOMS)}, ("value", "count")
        )
        return [spec["value"]] * spec["count"]
    if not isinstance(value, list) or len(value) > MAX_ATOMS:
        raise ConfigError(path, f"expected a list of at most {MAX_ATOMS} masses")
    return [_as_positive(m, f"{path}[{i}]") for i, m in enumerate(value)]


def _parse_interval(value: Any, path: str) -> list[float]:
    interval = _as_float_list(value, path)
    if len(interval) != 2 or interval[1] <= interval[0]:
        raise ConfigError(path, f"expected [a, b] with a < b, got {interval}")
    return interval


# the range pinching_suite draws its masses from when the config leaves it out
_MASS_RANGE = {"mass_low": 0.1, "mass_high": 2.0}


def _parse_random(value: Any, path: str) -> dict:
    members = {
        "dimension": _int_in(1, MAX_RANDOM_DIMENSION, "every trial draws a dense n x n matrix"),
        "mass_low": _as_float,
        "mass_high": _as_float,
    }
    rnd = _parse_members(value, path, members, ("dimension",))
    if "mass_low" in rnd or "mass_high" in rnd:
        rnd = {**_MASS_RANGE, **rnd}
        if not 0 < rnd["mass_low"] <= rnd["mass_high"]:
            raise ConfigError(
                path, f"need 0 < mass_low <= mass_high, got {rnd['mass_low']}, {rnd['mass_high']}"
            )
    return rnd


_SPACE_MEMBERS = {
    "atom_masses": _parse_masses,
    "tail": _parse_tail,
    "interval": _parse_interval,
    "random": _parse_random,
}
_U_MEMBERS = {
    "atoms": lambda v, path: v if v == "from_tail" else _as_float_list(v, path),
    "diffuse": _parse_fn,
    "tail": _parse_tail,
}

# top-level config field -> parser of its value
_FIELDS: dict[str, Callable[[Any, str], Any]] = {
    "space": lambda v, path: _parse_members(v, path, _SPACE_MEMBERS),
    "u": lambda v, path: _parse_members(v, path, _U_MEMBERS),
    "kernel": lambda v, path: _parse_members(v, path, {"eta": _parse_fn, "g": _parse_fn}, ("eta", "g")),
    "perturbation": lambda v, path: _parse_kind(v, path, _PERTURBATION_KINDS),
    "p": _as_p,
    "epsilon": _as_positive,
    "levels": _sweep_in(0, MAX_LEVEL),
    "k_range": _sweep_in(0),
    "n_max": _int_in(0),
    "trials": _int_in(1, MAX_ROWS, "a run holds one row per trial"),
    "seed": _seed,
    "formula": lambda v, path: _parse_kind(v, path, _FORMULA_KINDS),
}


def _lookup(cfg: "ExperimentConfig", path: str) -> Any:
    """The value at a field path ``name.member...``, or None."""
    name, *members = path.split(".")
    value = getattr(cfg, name)
    for member in members:
        value = None if value is None else value.get(member)
    return value


def _check_paths(d: dict, paths: list[list[str]], path: str) -> None:
    """Refuse the keys of ``d`` that no field path names; below a key, check
    the object it holds when every path through the key names a member."""
    _check_keys(d, {p[0] for p in paths}, path)
    for key, value in d.items():
        below = [p[1:] for p in paths if p[0] == key]
        if isinstance(value, dict) and all(below):
            _check_paths(value, below, key if path == "<root>" else f"{path}.{key}")


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
        scenario = _req(raw, "scenario", "<root>")
        if scenario not in SCENARIOS:
            raise ConfigError(
                "scenario", f"unknown scenario {scenario!r}; expected one of {SCENARIOS}"
            )
        entry = _SCENARIOS[scenario]
        # a scenario takes only the fields it reads, down to the members it names
        paths = [f.split(".") for f in (*_COMMON_FIELDS, *entry.requires, *entry.accepts)]
        _check_paths(raw, paths, "<root>")
        cfg = cls(
            scenario=scenario,
            **{name: _FIELDS[name](value, name) for name, value in raw.items() if name != "scenario"},
        )
        for path in entry.requires:
            if _lookup(cfg, path) is None:
                raise ConfigError(path, f"{scenario} needs this field")
        kind = cfg.perturbation["kind"]
        if kind not in entry.perturbations:
            users = tuple(name for name, e in _SCENARIOS.items() if kind in e.perturbations)
            raise ConfigError(
                "perturbation.kind",
                f"{scenario} takes perturbation kinds {entry.perturbations}; {kind!r} is for {users}",
            )
        if entry.p_is_one and cfg.p != 1.0:
            raise ConfigError("p", f"{scenario} computes exact L1 norms; p must be 1")
        cfg._check_across_fields(entry)
        return cfg

    def _check_across_fields(self, entry: "_Scenario") -> None:
        """The rules that relate a field to another field or to the entry."""
        if self.perturbation["kind"] == "random_dense" and self.levels[1] > DENSE_MAX_LEVEL:
            raise ConfigError(
                "levels", f"random_dense draws an n x n matrix; levels must stay <= {DENSE_MAX_LEVEL}"
            )
        atoms = len(self.space["atom_masses"]) if self.space and "atom_masses" in self.space else None
        if entry.dense and atoms > MAX_RANDOM_DIMENSION:
            why = f"{self.scenario} builds n x n arrays over its atoms"
            raise ConfigError("space.atom_masses", f"{why}: at most {MAX_RANDOM_DIMENSION}, got {atoms}")
        atom_values = _lookup(self, "u.atoms")
        if isinstance(atom_values, list) and len(atom_values) != atoms:
            raise ConfigError("u.atoms", f"{len(atom_values)} values for {atoms} atoms")
        for path in ("u.diffuse", "kernel.eta", "kernel.g"):
            spec = _lookup(self, path)
            if spec is None:
                continue
            if spec["kind"] not in entry.functions:
                raise ConfigError(f"{path}.kind", f"{self.scenario} takes kinds {entry.functions}")
            if spec["kind"] == "values":
                size = len(spec["values"])
            elif spec["kind"] == "geometric_tail":
                size = spec["count"] + 1
            else:
                continue
            if size != atoms:
                raise ConfigError(path, f"{spec['kind']} gives {size} coordinates for {atoms} atoms")
        if self.n_max is not None and self.n_max > atoms:
            raise ConfigError("n_max", f"n_max exceeds the dimension {atoms}")
        interval = _lookup(self, "space.interval")
        if interval is not None:
            # cells are smallest at the sweep's last level and no larger than b - a
            try:
                MeasureSpace(diffuse_interval=tuple(interval), diffuse_level=self.levels[1])
            except ValueError as e:
                raise ConfigError("space.interval", str(e)) from None
        # |formula| is largest at the last parameter of the sweep
        last = self.levels[1] if self.levels else (atoms if self.n_max is None else self.n_max)
        if self.formula is not None and not math.isfinite(_eval_formula(self.formula, last)):
            raise ConfigError("formula", f"not a finite number at parameter {last}")
        if self.trials is not None:
            dim = self.space["random"]["dimension"]
            if self.trials * dim * dim > MAX_TRIAL_ENTRIES:
                raise ConfigError("trials", f"trials x dimension**2 must be <= {MAX_TRIAL_ENTRIES}")
        if self.k_range is not None and (self.k_range[1] - self.k_range[0] + 1) * atoms > MAX_TRIAL_ENTRIES:
            raise ConfigError("k_range", f"(k1 - k0 + 1) x atoms must be <= {MAX_TRIAL_ENTRIES}")

    def to_dict(self) -> dict:
        return json.loads(json.dumps({k: v for k, v in vars(self).items() if v is not None}))


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
    """The one constructor of a Row.  Raises ConfigError if a value leaves
    the float range: such a row states nothing, and the config's data
    caused it, so the sweep stops at its first such row."""
    residual = None
    if computed is not None and formula is not None:
        residual = abs(computed - formula)
    row = Row(float(param), computed, certified, formula, residual)
    for name in ("computed", "certified", "formula", "residual"):
        value = getattr(row, name)
        if value is not None and not math.isfinite(value):
            raise ConfigError("<root>", f"row {row.param:g}: {name} = {value} leaves the float range")
    return row


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str = ""


def _gamma(k: float) -> float:
    """gamma_k = k u / (1 - k u), u = 2**-53: the relative error that k
    rounded operations on normal floats can add up to."""
    ku = k * 2.0**-53
    return ku / (1.0 - ku)


def _at_most(name: str, values: Sequence[float], tol: float, what: str) -> Check:
    """The check that the largest of a nonempty list of values is at most tol."""
    worst = max(values)
    return Check(name, worst <= tol, f"max {what} {worst:.3e}")


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


def _fn_callable(spec: dict) -> Callable[[np.ndarray], np.ndarray]:
    """The function of the interval variable of one of _FUNCTION_KINDS."""
    if spec["kind"] == "identity":
        return lambda x: x
    if spec["kind"] == "constant":
        c = spec["value"]
        return lambda x: c
    return _horner(spec["coeffs"])


def _fn_vector(spec: dict, dimension: int) -> np.ndarray:
    """The coordinate vector of one of _VECTOR_KINDS."""
    if spec["kind"] == "constant":
        return np.full(dimension, spec["value"])
    if spec["kind"] == "values":
        return np.asarray(spec["values"], dtype=float)
    count = spec["count"]
    return np.concatenate([0.5 ** np.arange(1, count + 1, dtype=float), [0.5**count]])


# trials whose generator states are derived together
_SEED_BATCH = 4096


def _trial_rngs(seed: int, start: int, stop: int) -> Iterator[np.random.Generator]:
    """For each t in [start, stop), a generator in the state of
    ``default_rng([seed, t])``.

    One generator is reseeded per trial, so each one yielded is valid only
    until the next is drawn.  The states are derived in batches, and the
    first of each batch is checked against default_rng, so a numpy that
    seeds differently raises RuntimeError instead of changing the draws.
    """
    rng = None
    for lo in range(start, stop, _SEED_BATCH):
        hi = min(lo + _SEED_BATCH, stop)
        entropy = [np.full(hi - lo, w, np.uint32) for w in _seed_words(seed)]
        states = _pcg64_states([*entropy, np.arange(lo, hi, dtype=np.uint32)])
        reference = np.random.default_rng([seed, lo])
        if reference.bit_generator.state["state"] != states[0]:
            raise RuntimeError(f"derived PCG64 state of trial {lo} differs from default_rng([{seed}, {lo}])")
        rng = reference if rng is None else rng
        for state in states:
            rng.bit_generator.state = {
                "bit_generator": "PCG64", "state": state, "has_uint32": 0, "uinteger": 0
            }
            yield rng


# ---------------------------------------------------------------------------
# scenario runners
# ---------------------------------------------------------------------------


def _run_atomic_limsup(cfg: ExperimentConfig) -> ScenarioResult:
    masses = cfg.space["atom_masses"]
    # space.tail is parsed and echoed but not read: u.tail alone sets the
    # symbol's values beyond the stored atoms
    tail = TailDescriptor(cfg.u["tail"]["kind"], tuple(cfg.u["tail"]["params"]))
    space = build_space(masses)
    if cfg.u["atoms"] == "from_tail":
        u_atoms = np.array([tail.value(n) for n in range(1, space.n_atoms + 1)])
    else:
        u_atoms = np.asarray(cfg.u["atoms"], dtype=float)
    ustep = StepFunction(u_atoms, space)
    formula = essential_norm(ustep, tail)
    k0, k1 = cfg.k_range
    ks = np.arange(k0, k1 + 1)
    # row k's certificate is pinching_lower_bound's bound for the diagonal
    # that cancels u on the k atoms of largest |u|: a cancelled atom's
    # quotient |u - u| mu / mu is 0.0, at most every other, so the bound is
    # the largest quotient of the rest, a suffix maximum in the stable
    # descending order of |u|, and 0.0 once every atom is cancelled
    order = np.argsort(-np.abs(u_atoms), kind="stable")
    quotients = _pinching_quotients(u_atoms, 0.0, space.masses)[order]
    suffix_max = np.append(np.maximum.accumulate(quotients[::-1])[::-1], 0.0)
    bounds = suffix_max[np.minimum(ks, space.n_atoms)].tolist()
    values = best_diagonal_rank_k(u_atoms, ks)
    rows = [_make_row(k, v, b, formula) for k, v, b in zip(ks.tolist(), values, bounds)]

    # each certificate is fl(fl(|u_i| mu_i) / mu_i), within 2u + u**2 of the
    # exact value |u_i|; the gap's subtraction is exact and its division rounds
    gaps = [abs(r.certified - r.computed) / max(1.0, abs(r.computed)) for r in rows]
    checks = [
        Check("values_non_increasing_in_k", _non_increasing(rows)),
        _at_most("certificate_matches_value", gaps, _gamma(3), "relative gap"),
    ]
    if cfg.perturbation["kind"] == "truncation":
        # cancelling the first `cutoff` atoms leaves multiplication by the stored
        # atoms past it, of exact norm their max|u|, which may lie below the
        # formula; the computed norm rounds twice per column, like a certificate
        cutoff = cfg.perturbation["cutoff"]
        K = truncation_perturbation(ustep, min(cutoff, space.dimension))
        achieved = opnorm_p1(mult_op(ustep) + K)
        tail_sup = float(np.max(np.abs(u_atoms[cutoff:]), initial=0.0))
        checks.append(
            Check(
                "truncation_certifies_upper_bound",
                abs(achieved - tail_sup) <= _gamma(3) * max(1.0, tail_sup),
                f"|M_u + K| = {achieved:.12g} at cutoff {cutoff}",
            )
        )
    return ScenarioResult(cfg.scenario, rows, checks)


def _run_diffuse_witness(cfg: ExperimentConfig) -> ScenarioResult:
    a, b = cfg.space["interval"]
    ufn = _fn_callable(cfg.u["diffuse"])
    pert = cfg.perturbation
    kernel = None
    if pert["kind"] == "rank_one":
        kernel = FunctionKernel.random_polynomial(pert["rank"], pert["seed"])

    rows = []
    l0, l1 = cfg.levels
    if pert["kind"] == "random_dense":
        rngs = _trial_rngs(pert["seed"], l0, l1 + 1)
    for level in range(l0, l1 + 1):
        space = build_space(diffuse_interval=(a, b), diffuse_level=level)
        u_l = StepFunction.from_function(space, ufn)
        formula = essential_norm(u_l)
        if not math.isfinite(formula):
            raise ConfigError("u.diffuse", f"max|u| = {formula} at level {level} leaves the float range")
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
            K = MatrixOperator(next(rngs).uniform(-1.0, 1.0, (space.dimension, space.dimension)), space)
        cert = witness_lower_bound(u_l, K, cfg.epsilon, cfg.p)
        # a bound that fails verification certifies nothing
        certified = cert.bound if verify_certificate(cert, u_l, K, cfg.p) else None
        rows.append(_make_row(level, cert.bound, certified, formula))

    checks = [Check("certificates_verified", all(r.certified is not None for r in rows))]
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


def _draw_again(
    seed: int, t: int, derived: Sequence[np.ndarray], draws: Callable, *args: Any
) -> list[np.ndarray]:
    """Trial t's inputs drawn again, by draws(default_rng([seed, t]), *args)
    through Generator's own calls.  Raises RuntimeError unless the draws
    derived from raw words equal the first of them bit for bit; returns the
    rest."""
    drawn = list(draws(np.random.default_rng([seed, t]), *args))
    if not all(np.array_equal(a.view(np.int64), b.view(np.int64)) for a, b in zip(derived, drawn)):
        raise RuntimeError(f"draws derived for trial {t} differ from those of default_rng([{seed}, {t}])")
    return drawn[len(derived) :]


def _pinching_draws(rng: np.random.Generator, lo: float, hi: float, dim: int) -> tuple[np.ndarray, ...]:
    """A pinching_suite trial's inputs through Generator's documented calls:
    masses, entries, the first block assignment and the one kept, which has
    two nonempty blocks (or, at dimension 1, is the one block, not drawn)."""
    masses = rng.uniform(lo, hi, dim)
    entries = rng.uniform(-1.0, 1.0, (dim, dim))
    first = kept = rng.integers(0, 2, dim) if dim >= 2 else np.zeros(1, dtype=np.int64)
    while dim >= 2 and (kept.all() or not kept.any()):
        kept = rng.integers(0, 2, dim)
    return masses, entries, first, kept


def _lattice_draws(rng: np.random.Generator, dim: int) -> list[np.ndarray]:
    """A lattice_oracle trial's inputs through Generator's documented calls:
    S, T and the modulus matrix."""
    return [rng.uniform(-1.0, 1.0, shape) for shape in ((dim, dim), (dim, dim), (_MODULUS_DIM, _MODULUS_DIM))]


def _run_pinching_suite(cfg: ExperimentConfig) -> ScenarioResult:
    rnd = {**_MASS_RANGE, **cfg.space["random"]}
    dim, lo, hi = rnd["dimension"], rnd["mass_low"], rnd["mass_high"]
    size = _stack_size(dim * dim)
    masses = np.empty((size, dim))
    entries = np.empty((size, dim, dim))
    # each trial's raw words: its entries, written into the stack itself, and
    # one word per two coordinates of its first assignment
    n2, pair_words = dim * dim, (dim + 1) // 2 if dim >= 2 else 0
    words = entries.reshape(size, n2).view(np.uint64)
    pairs = np.empty((size, pair_words), dtype=np.uint64)
    # one block at dimension 1, where no assignment is drawn
    assign = np.zeros((size, dim), dtype=np.int64)
    rows: list[Row] = []
    rngs = _trial_rngs(cfg.seed, 0, cfg.trials)
    for start in range(0, cfg.trials, size):
        k = min(size, cfg.trials - start)
        for i, rng in zip(range(k), rngs):
            # uniform(lo, hi) rounds, so the masses stay with numpy's own code
            masses[i] = rng.uniform(lo, hi, dim)
            raw = rng.bit_generator.random_raw(n2 + pair_words)
            words[i], pairs[i] = raw[:n2], raw[n2:]
        # the last trial's words would outlive it by the whole stack
        del raw
        mu, A = masses[:k], _uniform_from_raw(words[:k]).reshape(k, dim, dim)
        # the first trial of each seed batch is drawn again through numpy
        again = set(range(-start % _SEED_BATCH, k, _SEED_BATCH))
        if dim >= 2:
            # integers(0, 2) takes the top bit of each 32-bit half of a word,
            # low half first: Lemire's method at range 2, which never rejects
            p = pairs[:k]
            assign[:k] = np.stack([p >> 31 & 1, p >> 63], axis=-1).reshape(k, -1)[:, :dim]
            # and so is a trial whose first assignment puts every coordinate
            # in one block, which numpy then draws again as documented
            again.update(np.flatnonzero(assign[:k].min(axis=1) == assign[:k].max(axis=1)).tolist())
        for i in sorted(again):
            derived = (mu[i], A[i], assign[i])
            (assign[i],) = _draw_again(cfg.seed, start + i, derived, _pinching_draws, lo, hi, dim)
        worst = _p1_norms(_pinched(A, assign[:k]), mu).tolist()
        full = _p1_norms(A, mu).tolist()
        rows += [_make_row(start + i, w, f) for i, (w, f) in enumerate(zip(worst, full))]
    violations = sum(1 for r in rows if r.computed > r.certified)
    checks = [
        Check(
            "pinch_contractive",
            violations == 0,
            f"{violations} violation(s) in {len(rows)} trials",
        )
    ]
    return ScenarioResult(cfg.scenario, rows, checks)


def _non_increasing(rows: list[Row]) -> bool:
    return all(b.computed <= a.computed for a, b in zip(rows, rows[1:]))


def _formula_check(rows: list[Row]) -> list[Check]:
    """The matches_formula check over the rows that have a formula value."""
    residuals = [r.residual / max(1.0, abs(r.formula)) for r in rows if r.residual is not None]
    return [_at_most("matches_formula", residuals, 1e-12, "relative residual")] if residuals else []


def _run_rankone_centre_decay(cfg: ExperimentConfig) -> ScenarioResult:
    eta_spec = cfg.kernel["eta"]
    g_spec = cfg.kernel["g"]
    interval = tuple(cfg.space["interval"]) if cfg.space and "interval" in cfg.space else (0.0, 1.0)
    l0, l1 = cfg.levels
    levels = list(range(l0, l1 + 1))
    values = centre_decay_under_refinement(_fn_callable(eta_spec), _fn_callable(g_spec), levels, interval)

    spec = cfg.formula
    if spec is None and eta_spec["kind"] == g_spec["kind"] == "constant":
        # the closed form |eta g| (b - a) 2**-level
        scale = abs(eta_spec["value"] * g_spec["value"]) * (interval[1] - interval[0])
        spec = {"kind": "power", "base": 0.5, "scale": scale}
    rows = [_make_row(level, value, None, _eval_formula(spec, level)) for level, value in zip(levels, values)]

    decays = len(rows) < 2 or rows[-1].computed < rows[0].computed or rows[0].computed == 0.0
    checks = [
        Check("centre_norm_non_increasing", _non_increasing(rows)),
        Check("centre_norm_decays", decays),
    ]
    return ScenarioResult(cfg.scenario, rows, checks + _formula_check(rows))


def _run_qn_decay(cfg: ExperimentConfig) -> ScenarioResult:
    space = build_space(cfg.space["atom_masses"])
    g = StepFunction(_fn_vector(cfg.kernel["g"], space.dimension), space)
    eta = StepFunction(_fn_vector(cfg.kernel["eta"], space.dimension), space)
    K = rank_one_diffuse(eta, g)
    profile = qn_decay_profile(K, cfg.n_max)
    rows = [_make_row(n, value, None, _eval_formula(cfg.formula, n)) for n, value in enumerate(profile)]

    checks = [Check("profile_nonnegative", all(r.computed >= 0.0 for r in rows))]
    if len(rows) > space.dimension:
        checks.append(Check("final_value_zero", rows[-1].computed == 0.0))
    if cfg.formula is None:
        # K = g (eta mu)^T: row n is max|eta| times the tail sum of |g| mu past
        # n, and over its m = dim - n terms rounds m + 3 times, this tail m + 1
        weights = np.abs(g.coefficients) * np.max(np.abs(eta.coefficients)) * space.masses
        tails = np.append(np.cumsum(weights[::-1])[::-1], 0.0).tolist()
        dim = space.dimension
        fits = [abs(r.computed - c) <= _gamma(2 * (dim - r.param) + 5) * c for r, c in zip(rows, tails)]
        checks.append(Check("matches_rank_one_tail", all(fits)))
    return ScenarioResult(cfg.scenario, rows, checks + _formula_check(rows))


def _one_parameter_join_meet(S: np.ndarray, T: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Columnwise sup/inf over decompositions f = t f + (1-t) f of e_j.

    For a coordinate indicator, any split g + h = f with g, h >= 0 is a
    one-parameter family g = t f, so the defining sup/inf of join/meet
    reduces to extremizing t S[:, j] + (1 - t) T[:, j] over t in [0, 1].
    S and T may be stacks; the extrema are taken one grid point at a time,
    as all 21 candidates of a 4096 x 4096 trial would take 2.8 GB.
    """
    hi = np.full(S.shape, -np.inf)
    lo = np.full(S.shape, np.inf)
    for t in _SPLITS:
        cand = t * S + (1.0 - t) * T
        np.maximum(hi, cand, out=hi)
        np.minimum(lo, cand, out=lo)
    return hi, lo


def _modulus_grid_oracle(S: np.ndarray) -> np.ndarray:
    """sup over a grid of |g| <= 1 of |S g|, coordinatewise (f = all-ones).

    S is a stack of _MODULUS_DIM x _MODULUS_DIM operators; the grid has
    _GRID_STEPS points per coordinate.  The grid's image, _MODULUS_DIM x
    _GRID_STEPS**_MODULUS_DIM entries a trial, is built for one sub-stack
    at a time, so it too holds at most _STACK_ENTRIES floats.
    """
    step = _stack_size(_MODULUS_GRID.size)
    sup = np.empty(S.shape[:-1])
    for lo in range(0, len(S), step):
        image = S[lo : lo + step] @ _MODULUS_GRID
        np.max(np.abs(image, out=image), axis=-1, out=sup[lo : lo + step])
    return sup


def _max_abs_diff(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """max |X - Y| over the last two axes."""
    return np.max(np.abs(X - Y), axis=(-2, -1))


def _run_lattice_oracle(cfg: ExperimentConfig) -> ScenarioResult:
    dim = cfg.space["random"]["dimension"]
    # a trial's largest arrays: S, T, their join and meet (dim x dim each);
    # the modulus grid's image is taken over sub-stacks of its own
    size = _stack_size(dim * dim)
    S, T = (np.empty((size, dim, dim)) for _ in range(2))
    Sm = np.empty((size, _MODULUS_DIM, _MODULUS_DIM))
    ones = np.ones(_MODULUS_DIM)
    # each trial's raw words, written into the stacks of S, T and Sm
    n2 = dim * dim
    words = [X.reshape(size, -1).view(np.uint64) for X in (S, T, Sm)]
    # computed column: join/meet deviation; certified column: modulus deviation
    rows: list[Row] = []
    rngs = _trial_rngs(cfg.seed, 0, cfg.trials)
    for start in range(0, cfg.trials, size):
        k = min(size, cfg.trials - start)
        for i, rng in zip(range(k), rngs):
            raw = rng.bit_generator.random_raw(2 * n2 + _MODULUS_DIM**2)
            words[0][i], words[1][i], words[2][i] = raw[:n2], raw[n2 : 2 * n2], raw[2 * n2 :]
        # the last trial's words would outlive it by the whole stack
        del raw
        for w in words:
            _uniform_from_raw(w[:k])
        # the first trial of each seed batch is drawn again through numpy
        for i in range(-start % _SEED_BATCH, k, _SEED_BATCH):
            _draw_again(cfg.seed, start + i, (S[i], T[i], Sm[i]), _lattice_draws, dim)
        # the library's kernels under test, one call per stack
        J, M, applied = _join(S[:k], T[:k]), _meet(S[:k], T[:k]), _modulus(Sm[:k]) @ ones
        oj, om = _one_parameter_join_meet(S[:k], T[:k])
        dev_jm = np.maximum(_max_abs_diff(J, oj), _max_abs_diff(M, om)).tolist()
        dev_mod = np.max(np.abs(_modulus_grid_oracle(Sm[:k]) - applied), axis=-1).tolist()
        rows += [_make_row(start + i, jm, mod, 0.0) for i, (jm, mod) in enumerate(zip(dev_jm, dev_mod))]

    checks = [
        _at_most("join_meet_matches_oracle", [r.computed for r in rows], 1e-9, "deviation"),
        _at_most("modulus_matches_grid_oracle", [r.certified for r in rows], 1e-6, "deviation"),
    ]
    return ScenarioResult(cfg.scenario, rows, checks)


def _eval_formula(spec: dict | None, param: float) -> float | None:
    """The formula at param: None without one, inf beyond the float range."""
    if spec is None:
        return None
    if spec["kind"] == "constant":
        return spec["value"]
    try:
        return spec["scale"] * spec["base"] ** param
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class _Scenario:
    """What a scenario reads: its required and optional field paths (dotted,
    as ``space.random.dimension``; a path that stops at an object takes all
    its members), the perturbation kinds it takes, the kinds its function
    specs take, whether p must be 1, and whether it builds n x n arrays
    over its atoms.  Every config also takes the common fields."""

    run: Callable[[ExperimentConfig], ScenarioResult]
    requires: tuple[str, ...]
    accepts: tuple[str, ...] = ()
    perturbations: tuple[str, ...] = ("none",)
    functions: tuple[str, ...] = _FUNCTION_KINDS
    p_is_one: bool = False
    dense: bool = False


_SCENARIOS = {
    "atomic_limsup": _Scenario(
        _run_atomic_limsup,
        ("space.atom_masses", "u.atoms", "u.tail", "k_range"),
        ("space.tail",),
        ("none", "truncation"),
        p_is_one=True,
    ),
    "diffuse_witness": _Scenario(
        _run_diffuse_witness,
        ("space.interval", "u.diffuse", "levels", "epsilon"),
        perturbations=("none", "rank_one", "random_dense"),
    ),
    "pinching_suite": _Scenario(_run_pinching_suite, ("space.random", "trials"), p_is_one=True),
    "rankone_centre_decay": _Scenario(
        _run_rankone_centre_decay, ("kernel", "levels"), ("space.interval", "formula")
    ),
    "qn_decay": _Scenario(
        _run_qn_decay,
        ("space.atom_masses", "kernel"),
        ("n_max", "formula"),
        functions=_VECTOR_KINDS,
        p_is_one=True,
        dense=True,
    ),
    "lattice_oracle": _Scenario(_run_lattice_oracle, ("space.random.dimension", "trials")),
}
SCENARIOS = tuple(_SCENARIOS)


def run_scenario(config: ExperimentConfig) -> ScenarioResult:
    """Run one scenario; deterministic given the config (seed included).

    Raises ConfigError at the first row whose computed, certified, formula
    or residual value leaves the float range, and sweeps no further (a trial
    scenario finishes that row's stack): such a row states nothing, and the
    config's data caused it.
    """
    return _SCENARIOS[config.scenario].run(config)


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------


def _fmt(x: float | None) -> str:
    return "" if x is None else f"{x:.12g}"


def _write_atomic(path: Path, write: Callable[[TextIO], object]) -> None:
    """Write path through ``write(fh)``, replacing it whole or not at all.

    ``write`` fills a temporary file in the same directory, which is
    renamed over path in one step after a clean close and removed if
    writing fails.
    """
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline="") as fh:
            write(fh)
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
    # the CSV is streamed row by row, never held as one string
    table = ([_fmt(r.param), _fmt(r.computed), _fmt(r.certified), _fmt(r.formula), _fmt(r.residual)]
             for r in result.rows)
    lines = [f"scenario: {result.scenario}", f"rows: {len(result.rows)}"]
    for check in result.checks:
        status = "PASS" if check.passed else "FAIL"
        suffix = f" ({check.detail})" if check.detail else ""
        lines.append(f"check {check.name}: {status}{suffix}")
    lines.append(f"result: {'PASS' if result.passed else 'FAIL'}")
    files = {
        "csv": lambda fh: csv.writer(fh).writerows(itertools.chain([CSV_HEADER], table)),
        "report.txt": lambda fh: fh.write("\n".join(lines) + "\n"),
    }
    if config is not None:
        text = json.dumps(config.to_dict(), indent=2, sort_keys=True) + "\n"
        files["config.json"] = lambda fh: fh.write(text)
    try:
        out.mkdir(parents=True, exist_ok=True)
        paths = [out / f"{result.scenario}.{suffix}" for suffix in files]
        for path, write in zip(paths, files.values()):
            _write_atomic(path, write)
        return paths
    except OSError as e:
        raise RuntimeError(f"failed to write results under {out}: {e}") from e
