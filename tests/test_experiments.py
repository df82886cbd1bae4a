import ast
import csv
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from essnorm_lab import essnorm as essnorm_module
from essnorm_lab import experiments
from essnorm_lab import lattice as lattice_module
from essnorm_lab.cli import main
from essnorm_lab.experiments import (
    SCENARIOS,
    Check,
    ConfigError,
    MAX_LEVEL,
    MAX_RANDOM_DIMENSION,
    ExperimentConfig,
    Row,
    ScenarioResult,
    _SEED_BATCH,
    _p1_norms,
    _stack_size,
    _trial_rngs,
    emit,
    run_scenario,
)
from essnorm_lab.essnorm import (
    LowerBoundCertificate,
    best_diagonal_rank_k,
    pinching_lower_bound,
    witness_lower_bound,
)
from essnorm_lab.lattice import join, meet, modulus
from essnorm_lab.lpspace import StepFunction, _weighted_abs_colsums
from essnorm_lab.measure import build_space
from essnorm_lab.operators import MatrixOperator, MultiplicationOperator, _pinched, opnorm_p1, pinch

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SRC = CONFIGS.parent / "src"


def shipped_config(name, **changes):
    """The shipped configs/<name>.json with the given top-level fields
    replaced, and those given as None left out."""
    cfg = {**json.loads((CONFIGS / f"{name}.json").read_text()), **changes}
    return {key: value for key, value in cfg.items() if value is not None}


def nudge_witness_bounds(monkeypatch):
    """Make experiments' witness_lower_bound return each certificate with its
    bound moved up one ulp, so that no bound verifies."""
    real = experiments.witness_lower_bound

    def nudged(*args, **kwargs):
        cert = real(*args, **kwargs)
        return dataclasses.replace(cert, bound=math.nextafter(cert.bound, math.inf))

    monkeypatch.setattr(experiments, "witness_lower_bound", nudged)


def atomic_limsup_config(n=50, kmax=20):
    return {
        "scenario": "atomic_limsup",
        "space": {
            "atom_masses": {"value": 1.0, "count": n},
            "tail": {"kind": "harmonic_limit", "params": [1.0, 1.0]},
        },
        "u": {"atoms": "from_tail", "tail": {"kind": "harmonic_limit", "params": [1.0, 1.0]}},
        "k_range": [0, kmax],
        "p": 1.0,
        "seed": 0,
    }


def diffuse_witness_config():
    return {
        "scenario": "diffuse_witness",
        "space": {"interval": [0.0, 1.0]},
        "u": {"diffuse": {"kind": "identity"}},
        "perturbation": {"kind": "rank_one", "rank": 3, "seed": 7},
        "p": 1.0,
        "epsilon": 0.1,
        "levels": [5, 7],
        "seed": 0,
    }


def qn_decay_config():
    return {
        "scenario": "qn_decay",
        "space": {"atom_masses": {"value": 1.0, "count": 21}},
        "kernel": {
            "eta": {"kind": "constant", "value": 1.0},
            "g": {"kind": "geometric_tail", "count": 20},
        },
        "p": 1.0,
        "formula": {"kind": "power", "base": 0.5, "scale": 1.0},
        "n_max": 20,
        "seed": 0,
    }


class TestConfigParsing:
    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigError, match="unknown scenario"):
            ExperimentConfig.from_dict({"scenario": "frobnicate"})

    def test_unknown_field_path(self):
        cfg = atomic_limsup_config()
        cfg["bogus"] = 1
        with pytest.raises(ConfigError, match="<root>.bogus"):
            ExperimentConfig.from_dict(cfg)

    def test_nested_field_path(self):
        cfg = atomic_limsup_config()
        cfg["space"]["atom_masses"] = [1.0, -2.0]
        with pytest.raises(ConfigError, match=r"space.atom_masses\[1\]"):
            ExperimentConfig.from_dict(cfg)

    def test_missing_required_field(self):
        cfg = atomic_limsup_config()
        del cfg["k_range"]
        with pytest.raises(ConfigError, match="k_range"):
            ExperimentConfig.from_dict(cfg)

    def test_p_constraint_named(self):
        cfg = atomic_limsup_config()
        cfg["p"] = 2.0
        with pytest.raises(ConfigError, match="p must be 1"):
            ExperimentConfig.from_dict(cfg)

    def test_truncation_rejected_for_diffuse(self):
        cfg = diffuse_witness_config()
        cfg["perturbation"] = {"kind": "truncation", "cutoff": 3}
        with pytest.raises(ConfigError, match="atomic"):
            ExperimentConfig.from_dict(cfg)

    def test_round_trip(self):
        for raw in (atomic_limsup_config(), diffuse_witness_config(), qn_decay_config()):
            cfg = ExperimentConfig.from_dict(raw)
            again = ExperimentConfig.from_dict(cfg.to_dict())
            assert cfg == again
            assert cfg.to_dict() == again.to_dict()

    @pytest.mark.parametrize("field", ["p", "epsilon"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), 10**400])
    def test_non_finite_number_rejected(self, field, value):
        cfg = diffuse_witness_config()
        cfg[field] = value
        with pytest.raises(ConfigError, match="finite") as e:
            ExperimentConfig.from_dict(cfg)
        assert e.value.path == field

    def test_nan_inside_list_rejected(self):
        cfg = diffuse_witness_config()
        cfg["space"]["interval"] = [0.0, float("nan")]
        with pytest.raises(ConfigError, match="finite"):
            ExperimentConfig.from_dict(cfg)

    @pytest.mark.parametrize("levels", [[0, MAX_LEVEL + 1], [0, 30], [-1, 3]])
    def test_levels_outside_range_rejected(self, levels):
        cfg = diffuse_witness_config()
        cfg["levels"] = levels
        with pytest.raises(ConfigError, match="levels must lie in") as e:
            ExperimentConfig.from_dict(cfg)
        assert e.value.path == "levels"

    def test_dense_perturbation_levels_capped(self):
        cfg = diffuse_witness_config()
        cfg["perturbation"] = {"kind": "random_dense", "seed": 1}
        cfg["levels"] = [5, 13]
        with pytest.raises(ConfigError, match="random_dense") as e:
            ExperimentConfig.from_dict(cfg)
        assert e.value.path == "levels"

    def test_deepest_level_accepted(self):
        cfg = diffuse_witness_config()
        cfg["levels"] = [MAX_LEVEL, MAX_LEVEL]
        assert ExperimentConfig.from_dict(cfg).levels == (MAX_LEVEL, MAX_LEVEL)

    def test_random_dimension_capped(self):
        cfg = trial_config("pinching_suite", MAX_RANDOM_DIMENSION + 1, 1, 0)
        with pytest.raises(ConfigError, match=r"space\.random\.dimension.*dense"):
            ExperimentConfig.from_dict(cfg)
        ExperimentConfig.from_dict(trial_config("pinching_suite", MAX_RANDOM_DIMENSION, 1, 0))

    def test_bad_tail_kind_path(self):
        cfg = atomic_limsup_config()
        cfg["u"]["tail"] = {"kind": "nope", "params": []}
        with pytest.raises(ConfigError, match="u.tail"):
            ExperimentConfig.from_dict(cfg)


# configs with finite, valid data whose rows leave the float range
OVERFLOW_CONFIGS = {
    # |u| times the normalized indicator 4 of one level-2 cell is 4e308
    "diffuse_witness": {
        "scenario": "diffuse_witness",
        "space": {"interval": [0.0, 1.0]},
        "u": {"diffuse": {"kind": "constant", "value": 1e308}},
        "epsilon": 1e300,
        "levels": [2, 3],
    },
    # column 1 sums 1e300 x 1e300 before dividing by its mass
    "qn_decay": {
        "scenario": "qn_decay",
        "space": {"atom_masses": [1e-300, 1e300, 1.0, 1.0]},
        "kernel": {"eta": {"kind": "constant", "value": 1.0}, "g": {"kind": "constant", "value": 1.0}},
    },
    # the pinching quotient of atom 0 takes |u_0| mu_0 = 1e600
    "atomic_limsup": {
        "scenario": "atomic_limsup",
        "space": {"atom_masses": [1e300, 1e300, 1.0]},
        "u": {"atoms": [1e300, 2.0, 3.0], "tail": {"kind": "finitely_supported", "params": []}},
        "k_range": [0, 2],
    },
    # row 0's computed value 1.5e308 lies 2.5e308 from the formula
    "qn_decay_residual": {
        "scenario": "qn_decay",
        "space": {"atom_masses": [1.0, 1.0]},
        "kernel": {"eta": {"kind": "constant", "value": 1.0}, "g": {"kind": "values", "values": [1.5e308, 1.0]}},
        "formula": {"kind": "constant", "value": -1e308},
    },
}

# sweeps whose first row leaves the float range, with the library call
# that makes one row: the witness quotient of level 2 overflows, and so
# does the pinching quotient (|u_0| mu_0) / mu_0 at k = 0
LONG_OVERFLOW_SWEEPS = {
    "diffuse_witness": (
        {
            "scenario": "diffuse_witness",
            "space": {"interval": [0.0, 1.0]},
            "u": {"diffuse": {"kind": "constant", "value": 1e308}},
            "perturbation": {"kind": "random_dense", "seed": 0},
            "epsilon": 1e300,
            "levels": [2, 12],
        },
        "witness_lower_bound",
    ),
    "atomic_limsup": (
        {
            "scenario": "atomic_limsup",
            "space": {"atom_masses": {"value": 1e300, "count": 2**16}},
            "u": {"atoms": [1e300] + [1.0] * (2**16 - 1), "tail": {"kind": "finitely_supported", "params": []}},
            "k_range": [0, 300],
        },
        "best_diagonal_rank_k",
    ),
}


class TestScenarios:
    @pytest.mark.parametrize("name", OVERFLOW_CONFIGS)
    def test_row_beyond_float_range_refused(self, name):
        cfg = ExperimentConfig.from_dict(OVERFLOW_CONFIGS[name])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(ConfigError, match="leaves the float range") as info:
                run_scenario(cfg)
        assert info.value.path == "<root>"

    @pytest.mark.parametrize("name", LONG_OVERFLOW_SWEEPS)
    def test_refused_row_stops_the_sweep(self, name, monkeypatch):
        raw, spied = LONG_OVERFLOW_SWEEPS[name]
        calls = []
        original = getattr(experiments, spied)

        def spy(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(experiments, spied, spy)
        cfg = ExperimentConfig.from_dict(raw)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(ConfigError, match="leaves the float range"):
                run_scenario(cfg)
        assert len(calls) == 1

    def test_atomic_limsup_closed_form(self):
        result = run_scenario(ExperimentConfig.from_dict(atomic_limsup_config()))
        assert result.passed
        for row in result.rows:
            k = int(row.param)
            assert row.computed == 1 + 1 / (k + 1)
            assert row.formula == 1.0
            assert row.residual == abs(row.computed - 1.0)
            assert row.certified == pytest.approx(row.computed, rel=1e-12)

    def test_atomic_limsup_truncation_check(self):
        cfg = atomic_limsup_config(n=120, kmax=5)
        cfg["perturbation"] = {"kind": "truncation", "cutoff": 100}
        result = run_scenario(ExperimentConfig.from_dict(cfg))
        assert result.passed
        check = next(c for c in result.checks if c.name == "truncation_certifies_upper_bound")
        assert check.passed
        assert f"{1 + 1 / 101:.12g}" in check.detail

    @pytest.mark.parametrize(
        "space_tail",
        [{"kind": "harmonic_limit", "params": [1.0, 1.0]}, {"kind": "alternating", "params": [5.0, 7.0]}],
        ids=["harmonic", "alternating"],
    )
    def test_atomic_limsup_space_tail_has_no_effect(self, space_tail, tmp_path):
        # space.tail is validated and echoed, but only u.tail sets the
        # symbol's values beyond the stored atoms
        shipped = json.loads((CONFIGS / "atomic_limsup.json").read_text())
        without = {**shipped, "space": {k: v for k, v in shipped["space"].items() if k != "tail"}}
        written = {}
        for name, raw in (("without", without), ("with", {**without, "space": {**without["space"], "tail": space_tail}})):
            cfg = ExperimentConfig.from_dict(raw)
            emit(run_scenario(cfg), tmp_path / name, cfg)
            written[name] = [(tmp_path / name / f"atomic_limsup.{ext}").read_bytes() for ext in ("csv", "report.txt")]
        assert written["with"] == written["without"]
        echoed = json.loads((tmp_path / "with" / "atomic_limsup.config.json").read_text())
        assert echoed["space"]["tail"] == space_tail

    def test_atomic_limsup_rejects_rank_one(self):
        cfg = atomic_limsup_config()
        cfg["perturbation"] = {"kind": "rank_one", "rank": 2, "seed": 1}
        with pytest.raises(ConfigError, match="truncation"):
            ExperimentConfig.from_dict(cfg)

    def test_diffuse_witness_levels(self):
        result = run_scenario(ExperimentConfig.from_dict(diffuse_witness_config()))
        assert result.passed
        assert [int(r.param) for r in result.rows] == [5, 6, 7]
        assert all(r.computed == r.certified for r in result.rows)

    def test_pinching_suite(self):
        cfg = ExperimentConfig.from_dict(
            {
                "scenario": "pinching_suite",
                "space": {"random": {"dimension": 6}},
                "trials": 100,
                "p": 1.0,
                "seed": 3,
            }
        )
        result = run_scenario(cfg)
        assert result.passed
        assert len(result.rows) == 100
        assert all(r.computed <= r.certified for r in result.rows)

    def test_rankone_centre_decay_halving(self):
        cfg = ExperimentConfig.from_dict(
            {
                "scenario": "rankone_centre_decay",
                "kernel": {
                    "eta": {"kind": "constant", "value": 1.0},
                    "g": {"kind": "constant", "value": 1.0},
                },
                "levels": [1, 10],
                "seed": 0,
            }
        )
        result = run_scenario(cfg)
        assert result.passed
        for row in result.rows:
            assert row.computed == 2.0 ** (-row.param)
            assert row.residual == 0.0

    def test_qn_decay_formula(self):
        result = run_scenario(ExperimentConfig.from_dict(qn_decay_config()))
        assert result.passed
        for row in result.rows:
            assert row.computed == 2.0 ** (-row.param)
            assert row.residual == 0.0

    def test_lattice_oracle(self):
        cfg = ExperimentConfig.from_dict(
            {
                "scenario": "lattice_oracle",
                "space": {"random": {"dimension": 5}},
                "trials": 50,
                "seed": 5,
            }
        )
        result = run_scenario(cfg)
        assert result.passed

    def test_failed_verification_certifies_nothing(self, monkeypatch):
        nudge_witness_bounds(monkeypatch)
        result = run_scenario(ExperimentConfig.from_dict(shipped_config("diffuse_witness")))
        assert [int(r.param) for r in result.rows] == list(range(6, 13))
        assert all(r.certified is None and r.computed > 0.0 for r in result.rows)
        assert result.checks == [Check("certificates_verified", False)]

    def test_qn_decay_one_atom_computes_its_last_row(self):
        # no n_max: the profile runs to n = 1, an empty block of one column
        cfg = ExperimentConfig.from_dict(
            {
                "scenario": "qn_decay",
                "space": {"atom_masses": [1.0]},
                "kernel": {
                    "eta": {"kind": "constant", "value": 1.0},
                    "g": {"kind": "values", "values": [2.0]},
                },
            }
        )
        result = run_scenario(cfg)
        assert [r.computed for r in result.rows] == [2.0, 0.0]
        assert Check("final_value_zero", True) in result.checks
        assert result.passed

    def test_diffuse_witness_verifies_general_p(self):
        # kernel 79 at level 7, p = 1.5: a sound witness bound that beats
        # the estimator's local maximum, so only an upper bound checks it
        cfg = diffuse_witness_config()
        cfg.update(p=1.5, levels=[7, 7])
        cfg["perturbation"]["seed"] = 79
        result = run_scenario(ExperimentConfig.from_dict(cfg))
        assert result.checks == [Check("certificates_verified", True)]

    def test_determinism(self):
        cfg = ExperimentConfig.from_dict(diffuse_witness_config())
        r1 = run_scenario(cfg)
        r2 = run_scenario(cfg)
        assert [(r.param, r.computed) for r in r1.rows] == [
            (r.param, r.computed) for r in r2.rows
        ]


def callers_in_experiments(callee):
    """The functions of experiments.py that call ``callee``, once per call."""
    callers = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == callee:
                    callers.append(owner)
            visit(child, owner)

    visit(ast.parse(Path(experiments.__file__).read_text()), "<module>")
    return callers


def test_rows_are_made_only_by_make_rows():
    # _make_rows refuses a value beyond the float range; a runner that built
    # its own Row, a result from a Row list, or columns of its own would
    # skip that refusal.  Row is built only by the view of checked columns,
    # and every function that builds a result from columns makes its rows
    # through _make_rows
    assert callers_in_experiments("Row") == ["rows"]
    assert callers_in_experiments("ScenarioResult") == []
    runners = {entry.run.__name__ for entry in experiments._SCENARIOS.values()}
    assert set(callers_in_experiments("from_columns")) == runners
    assert set(callers_in_experiments("_make_rows")) == runners


def test_files_are_written_through_one_path():
    # _write_atomic replaces a file whole or not at all; emit writes every
    # output file through its one call of it
    assert callers_in_experiments("open") == ["_write_atomic"]
    assert callers_in_experiments("_write_atomic") == ["emit"]


class TestEmit:
    def test_csv_layout(self, tmp_path):
        cfg = ExperimentConfig.from_dict(qn_decay_config())
        result = run_scenario(cfg)
        paths = emit(result, tmp_path, cfg)
        csv_path = tmp_path / "qn_decay.csv"
        assert csv_path in paths
        lines = csv_path.read_bytes().split(b"\r\n")
        assert lines[0] == b"parameter,computed,certified_bound,formula,residual"
        assert len([l for l in lines if l]) == 1 + len(result.rows)

    def test_report_contents(self, tmp_path):
        cfg = ExperimentConfig.from_dict(qn_decay_config())
        result = run_scenario(cfg)
        emit(result, tmp_path, cfg)
        report = (tmp_path / "qn_decay.report.txt").read_text()
        assert "scenario: qn_decay" in report
        assert "check matches_formula: PASS" in report
        assert "result: PASS" in report

    def test_rerun_byte_identical(self, tmp_path):
        cfg = ExperimentConfig.from_dict(atomic_limsup_config(20, 10))
        first = emit(run_scenario(cfg), tmp_path / "a", cfg)
        second = emit(run_scenario(cfg), tmp_path / "b", cfg)
        for p1, p2 in zip(first, second):
            assert p1.read_bytes() == p2.read_bytes()

    def test_empty_result_notes_zero_rows(self, tmp_path):
        result = ScenarioResult("qn_decay", [], [Check("vacuous", True)])
        emit(result, tmp_path)
        csv_text = (tmp_path / "qn_decay.csv").read_text()
        assert csv_text.strip() == "parameter,computed,certified_bound,formula,residual"
        assert "rows: 0" in (tmp_path / "qn_decay.report.txt").read_text()

    def test_twelve_significant_digits(self, tmp_path):
        row = Row(1.0, 1.0 / 3.0, None, 0.0, 1.0 / 3.0)
        result = ScenarioResult("qn_decay", [row], [])
        emit(result, tmp_path)
        text = (tmp_path / "qn_decay.csv").read_text()
        assert "0.333333333333" in text

    @pytest.mark.parametrize("failing", [0, 1, 2])
    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch, failing):
        cfg = ExperimentConfig.from_dict(qn_decay_config())
        result = run_scenario(cfg)
        paths = emit(result, tmp_path, cfg)
        before = {p: p.read_bytes() for p in paths}
        # a second result with other rows and checks, whose failing-th file
        # breaks off after half its text
        changed = ScenarioResult(result.scenario, result.rows[:5], [Check("other", False)])
        real_open = open
        opened = []

        class HalfWriter:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, text):
                self.fh.write(text[: len(text) // 2])
                raise OSError("disk full")

        def failing_open(file, *args, **kwargs):
            fh = real_open(file, *args, **kwargs)
            opened.append(file)
            return HalfWriter(fh) if len(opened) == failing + 1 else fh

        monkeypatch.setattr(experiments, "open", failing_open, raising=False)
        with pytest.raises(RuntimeError, match="failed to write results under"):
            emit(changed, tmp_path, cfg)
        monkeypatch.undo()
        assert sorted(tmp_path.iterdir()) == sorted(paths)
        # files before the failing one are new, the failing one and those
        # after it are exactly as the first emit left them
        for i, path in enumerate(paths):
            assert (path.read_bytes() == before[path]) == (i >= failing)
        assert emit(result, tmp_path, cfg) == paths
        assert {p: p.read_bytes() for p in paths} == before

    def test_config_echo_round_trips(self, tmp_path):
        cfg = ExperimentConfig.from_dict(qn_decay_config())
        emit(run_scenario(cfg), tmp_path, cfg)
        echoed = json.loads((tmp_path / "qn_decay.config.json").read_text())
        assert ExperimentConfig.from_dict(echoed) == cfg


def csv_writer_bytes(rows):
    """The CSV of a Row list as csv.writer writes it, each number as %.12g."""
    text = io.StringIO(newline="")
    writer = csv.writer(text)
    writer.writerow(experiments.CSV_HEADER)
    for row in rows:
        writer.writerow(["" if v is None else f"{v:.12g}" for v in dataclasses.astuple(row)])
    return text.getvalue().encode()


class TestRowColumns:
    def test_non_finite_in_mid_stack_names_row_and_first_column(self, monkeypatch):
        # stacks of 64 trials at dimension 8; in the second stack, trial 100
        # gets a NaN computed value and an inf certificate, and trial 120 an
        # inf computed value.  The run stops at that stack and names trial
        # 100 and its first bad column, without a RuntimeWarning
        assert _stack_size(64) == 64
        real = experiments._p1_norms
        calls = []

        def spoiled(X, mu):
            out = real(X, mu)
            calls.append(len(X))
            if len(calls) == 3:
                out[100 - 64], out[120 - 64] = np.nan, np.inf
            elif len(calls) == 4:
                out[100 - 64] = np.inf
            return out

        monkeypatch.setattr(experiments, "_p1_norms", spoiled)
        cfg = ExperimentConfig.from_dict(trial_config("pinching_suite", 8, 200, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError) as info:
                run_scenario(cfg)
        assert str(info.value) == "<root>: row 100: computed = nan leaves the float range"
        assert calls == [64, 64, 64, 64]

    def test_residual_beyond_float_range_in_mid_block(self):
        # row 0's residual 1 + 1e308 is finite; row 2's 1.5e308 + 1e308 is not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match=re.escape("row 2: residual = inf leaves the float range")):
                experiments._make_rows(range(4), [1.0, 2.0, 1.5e308, 3.0], None, -1e308)

    def test_unverified_witness_row_emits_an_empty_cell(self, monkeypatch, tmp_path):
        nudge_witness_bounds(monkeypatch)
        cfg = ExperimentConfig.from_dict(shipped_config("diffuse_witness"))
        result = run_scenario(cfg)
        emit(result, tmp_path, cfg)
        lines = (tmp_path / "diffuse_witness.csv").read_bytes().split(b"\r\n")
        assert lines[-1] == b""
        cells = [line.split(b",") for line in lines[1:-1]]
        assert len(cells) == 7
        assert all(len(c) == 5 and c[2] == b"" and all(c[:2] + c[3:]) for c in cells)
        assert all(row.certified is None for row in result.rows)

    def test_nan_is_the_one_mark_of_an_empty_cell(self, tmp_path):
        # a Row list reads None and NaN alike as an empty cell, and
        # _make_rows fills a column given as None with NaN
        rows = [Row(0.0, None, math.nan, 1.5, None), Row(1.0, math.nan, 2.0, None, math.nan)]
        result = ScenarioResult("qn_decay", rows, [])
        assert result.rows == [Row(0.0, None, None, 1.5, None), Row(1.0, None, 2.0, None, None)]
        emit(result, tmp_path)
        assert (tmp_path / "qn_decay.csv").read_bytes().split(b"\r\n")[1:] == [b"0,,,1.5,", b"1,,2,,", b""]
        cells = experiments._make_rows([0, 1], [1.0, 2.0], None, None)
        assert np.isnan(cells[2:]).all() and not np.isnan(cells[:2]).any()
        made = ScenarioResult.from_columns("qn_decay", cells, [])
        assert made.rows == [Row(0.0, 1.0, None, None, None), Row(1.0, 2.0, None, None, None)]

    def rows_and_columns(self):
        """(result, rows) pairs: each shipped config's result with its own
        Row view, and a result joined from three blocks, whose columns mix
        empty and full cells, with its table written out as Row values."""
        results = [run_scenario(ExperimentConfig.from_dict(shipped_config(name))) for name in SCENARIOS]
        blocks = [
            experiments._make_rows([0], 1.0 / 3.0, None, 0.0),
            experiments._make_rows([1, 2], [-0.0, 1e300], [2.5, 5e-324]),
            experiments._make_rows([3], 7.0, None, None),
        ]
        mixed = ScenarioResult.from_columns("qn_decay", np.concatenate(blocks, axis=1), [Check("mixed", True)])
        rows = [
            Row(0.0, 1.0 / 3.0, None, 0.0, 1.0 / 3.0),
            Row(1.0, -0.0, 2.5, None, None),
            Row(2.0, 1e300, 5e-324, None, None),
            Row(3.0, 7.0, None, None, None),
        ]
        return [(r, r.rows) for r in results] + [(mixed, rows)]

    @pytest.mark.parametrize("chunk", [2, experiments._CSV_CHUNK])
    def test_row_list_and_columns_give_equal_rows_and_bytes(self, chunk, tmp_path, monkeypatch):
        # both as csv.writer writes the rows, whatever the chunk size
        monkeypatch.setattr(experiments, "_CSV_CHUNK", chunk)
        for i, (from_columns, rows) in enumerate(self.rows_and_columns()):
            from_rows = ScenarioResult(from_columns.scenario, rows, from_columns.checks)
            assert from_columns.rows == rows and from_rows.rows == rows
            assert list(map(repr, from_columns.rows)) == list(map(repr, rows))
            written = []
            for side, result in (("columns", from_columns), ("rows", from_rows)):
                emit(result, tmp_path / f"{side}{i}")
                written.append([(tmp_path / f"{side}{i}" / f"{result.scenario}.{ext}").read_bytes()
                                for ext in ("csv", "report.txt")])
            assert written[0] == written[1]
            assert written[0][0] == csv_writer_bytes(rows)


class TestCli:
    def test_list_scenarios(self):
        runner = CliRunner()
        result = runner.invoke(main, ["list-scenarios"])
        assert result.exit_code == 0
        assert set(result.output.split()) == set(SCENARIOS)

    def test_validate_ok(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(qn_decay_config()))
        runner = CliRunner()
        result = runner.invoke(main, ["validate", "--config", str(path)])
        assert result.exit_code == 0
        assert "OK" in result.output

    def test_validate_bad_config_exit_2(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"scenario": "nope"}))
        runner = CliRunner()
        result = runner.invoke(main, ["validate", "--config", str(path)])
        assert result.exit_code == 2

    def test_validate_non_finite_and_deep_levels_exit_2(self, tmp_path):
        # json accepts the NaN literal; before any allocation the config
        # must be refused, not run at 2**30 cells
        cfg = json.dumps(diffuse_witness_config())
        cfg = cfg.replace('"p": 1.0', '"p": NaN').replace('"epsilon": 0.1', '"epsilon": NaN')
        cfg = cfg.replace('"levels": [5, 7]', '"levels": [0, 30]')
        assert "NaN" in cfg and "30" in cfg
        path = tmp_path / "cfg.json"
        path.write_text(cfg)
        result = CliRunner().invoke(main, ["validate", "--config", str(path)])
        assert result.exit_code == 2
        assert "OK" not in result.output

    @pytest.mark.parametrize("scenario", ["pinching_suite", "lattice_oracle"])
    def test_oversized_random_space_exit_2(self, tmp_path, scenario):
        # 4097 x 4097 entries per trial are refused before any draw
        assert MAX_RANDOM_DIMENSION == 4096
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(trial_config(scenario, 4097, 1, 0)))
        for command in (["validate"], ["run", "--out", str(tmp_path / "out")]):
            result = CliRunner().invoke(main, [*command, "--config", str(path)])
            assert result.exit_code == 2
            assert "space.random.dimension" in result.output
            assert "OK" not in result.output
        assert not (tmp_path / "out").exists()
        path.write_text(json.dumps(trial_config(scenario, 4096, 1, 0)))
        result = CliRunner().invoke(main, ["validate", "--config", str(path)])
        assert result.exit_code == 0
        assert f"OK: {scenario}" in result.output

    def test_validate_missing_file_exit_2(self, tmp_path):
        runner = CliRunner()
        result = runner.invoke(main, ["validate", "--config", str(tmp_path / "nope.json")])
        assert result.exit_code == 2

    def test_run_writes_outputs(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(qn_decay_config()))
        out = tmp_path / "out"
        runner = CliRunner()
        result = runner.invoke(main, ["run", "--config", str(path), "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert (out / "qn_decay.csv").exists()
        assert (out / "qn_decay.report.txt").exists()
        assert "qn_decay: matches_formula: PASS" in result.output

    def test_run_bad_json_exit_2(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        runner = CliRunner()
        result = runner.invoke(main, ["run", "--config", str(path), "--out", str(tmp_path)])
        assert result.exit_code == 2

    def test_run_precondition_violation_exit_2(self, tmp_path):
        # epsilon above the sup of |u| is well-formed JSON but violates the
        # witness-set precondition
        cfg = diffuse_witness_config()
        cfg["epsilon"] = 5.0
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        runner = CliRunner()
        result = runner.invoke(main, ["run", "--config", str(path), "--out", str(tmp_path)])
        assert result.exit_code == 2
        assert "eps" in result.output

    def test_run_epsilon_above_sup_is_config_error(self, tmp_path):
        # max|u| = 0.984375 at level 5: the data, not the library, are wrong
        cfg = diffuse_witness_config()
        cfg["epsilon"] = 2.0
        with pytest.raises(ConfigError, match="epsilon"):
            run_scenario(ExperimentConfig.from_dict(cfg))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        result = CliRunner().invoke(main, ["run", "--config", str(path), "--out", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert "config error: epsilon" in result.output
        assert not (tmp_path / "out").exists()

    def test_run_symbol_beyond_float_range_exit_2(self, tmp_path):
        # 1e308 + 1e308 x is inf on every cell, where no witness set can be
        # built; validate accepts the config, run refuses it before any
        # level is written (in a subprocess, so that a hang fails the test)
        cfg = {
            "scenario": "diffuse_witness",
            "space": {"interval": [0.0, 1.0]},
            "u": {"diffuse": {"kind": "poly", "coeffs": [1e308, 1e308]}},
            "epsilon": 1e300,
            "levels": [2, 3],
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert CliRunner().invoke(main, ["validate", "--config", str(path)]).exit_code == 0
        out = tmp_path / "out"
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        command = [sys.executable, "-m", "essnorm_lab.cli", "run", "--config", str(path), "--out", str(out)]
        result = subprocess.run(command, env=env, capture_output=True, text=True, timeout=60)
        assert result.returncode == 2, result.stderr
        assert "config error: u.diffuse:" in result.stderr
        assert not out.exists()

    def test_run_row_beyond_float_range_exit_2(self, tmp_path):
        # validate accepts each config; run refuses its inf rows and writes
        # nothing
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        cases = (("diffuse_witness", "row 2: computed = inf"), ("qn_decay_residual", "row 0: residual = inf"))
        for name, message in cases:
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(OVERFLOW_CONFIGS[name]))
            assert CliRunner().invoke(main, ["validate", "--config", str(path)]).exit_code == 0
            out = tmp_path / name
            out.mkdir()
            command = [sys.executable, "-m", "essnorm_lab.cli", "run", "--config", str(path), "--out", str(out)]
            result = subprocess.run(command, env=env, capture_output=True, text=True, timeout=60)
            assert result.returncode == 2, result.stderr
            assert f"config error: <root>: {message} leaves the float range" in result.stderr
            assert list(out.iterdir()) == []

    def test_run_centre_decay_beyond_half_the_float_range(self, tmp_path):
        # eta = 1e308 averages to itself on every cell, so the centre norms
        # |eta g| 2^-level stay finite
        cfg = {
            "scenario": "rankone_centre_decay",
            "kernel": {"eta": {"kind": "constant", "value": 1e308}, "g": {"kind": "constant", "value": 1e-300}},
            "levels": [1, 3],
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        result = CliRunner().invoke(main, ["run", "--config", str(path), "--out", str(out)])
        assert result.exit_code == 0, result.output
        rows = (out / "rankone_centre_decay.csv").read_text().splitlines()[1:]
        assert [row.split(",")[1] for row in rows] == ["50000000", "25000000", "12500000"]

    def test_run_library_error_exit_3(self, tmp_path, monkeypatch):
        # a ValueError from inside the library is a fault, not a config error
        def broken(*args, **kwargs):
            raise ValueError("broken witness")

        monkeypatch.setattr("essnorm_lab.experiments.witness_lower_bound", broken)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(diffuse_witness_config()))
        result = CliRunner().invoke(main, ["run", "--config", str(path), "--out", str(tmp_path / "out")])
        assert result.exit_code == 3
        assert "internal error: ValueError: broken witness" in result.output
        assert "config error" not in result.output
        assert not (tmp_path / "out").exists()

    def test_run_failed_verification_exit_1(self, tmp_path, monkeypatch):
        nudge_witness_bounds(monkeypatch)
        out = tmp_path / "out"
        args = ["run", "--config", str(CONFIGS / "diffuse_witness.json"), "--out", str(out)]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 1, result.output
        assert "certificates_verified: FAIL" in result.output
        rows = (out / "diffuse_witness.csv").read_text().splitlines()[1:]
        assert len(rows) == 7
        assert all(row.split(",")[2] == "" for row in rows)

    def test_run_failing_assertion_exit_1(self, tmp_path):
        # a wrong formula makes the matches_formula assertion fail
        cfg = qn_decay_config()
        cfg["formula"] = {"kind": "power", "base": 0.6, "scale": 1.0}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        runner = CliRunner()
        result = runner.invoke(main, ["run", "--config", str(path), "--out", str(out)])
        assert result.exit_code == 1
        assert "matches_formula: FAIL" in result.output
        assert "result: FAIL" in (out / "qn_decay.report.txt").read_text()


def trial_config(scenario, dim, trials, seed):
    random = {"dimension": dim}
    if scenario == "pinching_suite":
        random.update(mass_low=0.1, mass_high=2.0)
    return {"scenario": scenario, "space": {"random": random}, "trials": trials, "p": 1.0, "seed": seed}


def per_trial_pinching(seed, dim, trials, mass_low=0.1, mass_high=2.0):
    """Rows of pinching_suite computed one trial at a time through pinch."""
    rows = []
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        masses = rng.uniform(mass_low, mass_high, dim)
        A = MatrixOperator(rng.uniform(-1.0, 1.0, (dim, dim)), build_space(masses))
        full = opnorm_p1(A)
        worst = opnorm_p1(pinch(A, np.arange(dim)))
        if dim >= 2:
            assign = rng.integers(0, 2, dim)
            while assign.all() or not assign.any():
                assign = rng.integers(0, 2, dim)
            worst = max(worst, opnorm_p1(pinch(A, assign)))
        rows.append(Row(float(t), worst, full, None, None))
    return rows


def per_trial_lattice(seed, dim, trials):
    """Rows of lattice_oracle computed one trial at a time, oracles included."""
    ts = np.linspace(0.0, 1.0, 21)
    axes = [np.linspace(-1.0, 1.0, 5)] * 3
    gs = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=0)
    rows = []
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        space = build_space(np.ones(dim))
        S = MatrixOperator(rng.uniform(-1.0, 1.0, (dim, dim)), space)
        T = MatrixOperator(rng.uniform(-1.0, 1.0, (dim, dim)), space)
        cand = ts[None, None, :] * S.entries[:, :, None] + (1.0 - ts[None, None, :]) * T.entries[:, :, None]
        dev_jm = max(
            float(np.max(np.abs(join(S, T).entries - cand.max(axis=2)))),
            float(np.max(np.abs(meet(S, T).entries - cand.min(axis=2)))),
        )
        Sm = MatrixOperator(rng.uniform(-1.0, 1.0, (3, 3)), build_space(np.ones(3)))
        oracle = np.max(np.abs(Sm.entries @ gs), axis=1)
        dev_mod = float(np.max(np.abs(oracle - modulus(Sm).matvec(np.ones(3)))))
        rows.append(Row(float(t), dev_jm, dev_mod, 0.0, abs(dev_jm - 0.0)))
    return rows


PER_TRIAL = {"pinching_suite": per_trial_pinching, "lattice_oracle": per_trial_lattice}


def stack_size(dim):
    # both trial scenarios stack by their dim x dim matrices; lattice_oracle
    # takes its 3 x 125 modulus grid images over sub-stacks of their own
    return _stack_size(dim * dim)


def bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


class TestTrialScenarios:
    @pytest.mark.parametrize("scenario", ["pinching_suite", "lattice_oracle"])
    def test_rerun_gives_equal_rows(self, scenario):
        cfg = ExperimentConfig.from_dict(trial_config(scenario, 5, 40, 9))
        first = run_scenario(cfg)
        second = run_scenario(cfg)
        assert [int(r.param) for r in first.rows] == list(range(40))
        assert first.rows == second.rows

    @pytest.mark.parametrize("dim", [1, 2, 8, 64, 65, 129])
    @pytest.mark.parametrize("scenario", ["pinching_suite", "lattice_oracle"])
    def test_stacks_match_per_trial_runner(self, scenario, dim, monkeypatch):
        # one trial, exactly one stack, and one trial into a second stack;
        # a spy on a function called a fixed number of times per stack (the
        # pinching suite takes the norms of the pinch, two blocks or at
        # dimension 1 one, and of the operator) records the stacks
        # actually run
        size = stack_size(dim)
        reference = PER_TRIAL[scenario](31, dim, size + 1)
        if scenario == "lattice_oracle":
            name, per_stack = "_one_parameter_join_meet", 1
        else:
            name, per_stack = "_p1_norms", 2
        stacks = []
        real = getattr(experiments, name)
        monkeypatch.setattr(experiments, name, lambda X, *args: stacks.append(len(X)) or real(X, *args))
        for trials in sorted({1, size, size + 1}):
            stacks.clear()
            result = run_scenario(ExperimentConfig.from_dict(trial_config(scenario, dim, trials, 31)))
            assert stacks[::per_stack] == [min(trials, size)] + [1] * (trials > size)
            assert list(map(repr, result.rows)) == list(map(repr, reference[:trials]))
            assert result.passed

    def test_ensemble_configs_match_per_trial_runner(self):
        # the shipped sizes over several stacks: 1000 pinching trials of
        # dimension 8, 500 lattice trials of dimension 5
        for scenario, dim, trials in (("pinching_suite", 8, 1000), ("lattice_oracle", 5, 500)):
            for seed in (20101, 47):
                result = run_scenario(ExperimentConfig.from_dict(trial_config(scenario, dim, trials, seed)))
                assert list(map(repr, result.rows)) == list(map(repr, PER_TRIAL[scenario](seed, dim, trials)))

    @pytest.mark.parametrize("dim", [1, 2, 3, 8, 63, 64, 65, 66, 129])
    def test_stacked_column_sums_match_cumsum(self, dim):
        # the stacked reduction adds the rows of each column top to bottom,
        # as opnorm_p1 does on one operator
        rng = np.random.default_rng(dim)
        k = stack_size(dim) + 1
        mu = rng.uniform(0.1, 2.0, (k, dim))
        stack = rng.uniform(-1.0, 1.0, (k, dim, dim))
        expected = np.cumsum(np.abs(stack) * mu[:, :, None], axis=-2)[..., -1, :]
        kept = stack.copy()
        kept.setflags(write=False)
        np.testing.assert_array_equal(bits(_weighted_abs_colsums(kept, mu)), bits(expected))
        np.testing.assert_array_equal(bits(_weighted_abs_colsums(stack, mu)), bits(expected))
        for t in range(k):
            A = MatrixOperator(kept[t], build_space(mu[t]))
            assert opnorm_p1(A) == float(np.max(expected[t] / mu[t]))

    @pytest.mark.parametrize("seed", range(8))
    def test_two_block_pinch_dominates_diagonal_pinch(self, seed):
        # pinching_suite keeps only the two-block pinch: each of its column
        # quotients is at least the diagonal pinch's |A_jj| mu_j / mu_j, bit
        # for bit, also where the entries and masses over 10^(+-300)
        # overflow or underflow and where the assignment is one block
        rng = np.random.default_rng([19, seed])
        for dim in range(1, 13):
            k = 333
            mu = 10.0 ** rng.uniform(-300.0, 300.0, (k, dim))
            A = rng.choice([-1.0, 1.0], (k, dim, dim)) * 10.0 ** rng.uniform(-300.0, 300.0, (k, dim, dim))
            assign = rng.integers(0, 2, (k, dim))
            assign[::4] = 0
            with np.errstate(over="ignore", under="ignore"):
                diagonal = np.abs(np.diagonal(A, 0, -2, -1)) * mu / mu
                pinched = _pinched(A, assign)
                quotients = _weighted_abs_colsums(pinched.copy(), mu) / mu
                norms = _p1_norms(pinched, mu)
            assert np.any(np.isinf(quotients)) and not np.any(np.isnan(quotients))
            np.testing.assert_array_equal(bits(np.maximum(diagonal, quotients)), bits(quotients))
            worst = np.maximum(np.max(diagonal, axis=-1), norms)
            np.testing.assert_array_equal(bits(worst), bits(norms))

    def test_lone_column_sums_match_cumsum(self):
        # a lone column of 2^16 rows, on which numpy's pairwise reduction
        # of the same values differs from the top-to-bottom sum
        rng = np.random.default_rng(16)
        mu = rng.uniform(0.1, 2.0, 2**16)
        block = rng.uniform(-1.0, 1.0, (2**16, 1)) * 10.0 ** rng.integers(-8, 9, (2**16, 1))
        weighted = np.abs(block) * mu[:, None]
        expected = np.cumsum(weighted, axis=-2)[..., -1, :]
        assert bits(np.add.reduce(weighted, axis=-2)).tolist() != bits(expected).tolist()
        kept = block.copy()
        kept.setflags(write=False)
        np.testing.assert_array_equal(bits(_weighted_abs_colsums(kept, mu)), bits(expected))
        np.testing.assert_array_equal(bits(_weighted_abs_colsums(block, mu)), bits(expected))


def test_empty_lone_column_sums_to_zero():
    # rows n.. of a one-column block at n = 1: no rows, and no cumulative sum
    assert _weighted_abs_colsums(np.empty((0, 1)), np.empty(0)).tolist() == [0.0]


def per_k_atomic(masses, atoms, k0, k1):
    """(k, value, certificate) of atomic_limsup computed one k at a time,
    the certificate through pinching_lower_bound."""
    space = build_space(masses)
    u = StepFunction(atoms, space)
    order = np.argsort(-np.abs(u.coefficients), kind="stable")
    rows = []
    for k in range(k0, k1 + 1):
        d = np.zeros(space.dimension)
        d[order[:k]] = -u.coefficients[order[:k]]
        cert = pinching_lower_bound(u, MultiplicationOperator(d, space))
        rows.append((float(k), best_diagonal_rank_k(atoms, k), cert.bound))
    return rows


@pytest.mark.parametrize("n", [1, 2, 20, 21, 200, 4096, 4097])
def test_atomic_limsup_chunks_match_per_k_rows(n, monkeypatch):
    # ties, zeros of both signs and negative values over masses 10**U(-3, 3);
    # the k range starts above 0 and runs past the atom count, and every
    # row comes from one call of the kernel on the atoms' arrays
    rng = np.random.default_rng([28, n])
    masses = (10.0 ** rng.uniform(-3.0, 3.0, n)).tolist()
    atoms = np.where(rng.random(n) < 0.5, rng.choice([-2.0, -1.0, -0.0, 0.0, 1.0, 3.5], n), rng.normal(size=n))
    step = _stack_size(n)
    k0 = max(1, n - step - 1)
    k1 = max(k0 + step + 1, n + 2)
    shapes = []
    real = experiments._diagonal_quotients

    def spy(d, mu):
        out = real(d, mu)
        shapes.append((np.shape(d), np.shape(mu), out.shape))
        return out

    monkeypatch.setattr(experiments, "_diagonal_quotients", spy)
    cfg = atomic_limsup_config()
    cfg["space"]["atom_masses"] = masses
    cfg.update(u={**cfg["u"], "atoms": atoms.tolist()}, k_range=[k0, k1])
    result = run_scenario(ExperimentConfig.from_dict(cfg))
    assert result.passed
    rows = [(r.param, r.computed, r.certified) for r in result.rows]
    assert list(map(repr, rows)) == list(map(repr, per_k_atomic(masses, atoms.tolist(), k0, k1)))
    assert shapes == [((n,), (n,), (n,))]


def spy_calls(monkeypatch, module, name, calls):
    """Count the calls of ``name`` through every essnorm_lab module that
    binds it as module's does."""
    real = getattr(module, name)
    calls[name] = 0

    def spy(*args, **kwargs):
        calls[name] += 1
        return real(*args, **kwargs)

    for bound in [m for key, m in sys.modules.items() if key.split(".")[0] == "essnorm_lab"]:
        if vars(bound).get(name) is real:
            monkeypatch.setattr(bound, name, spy)


@pytest.mark.parametrize(
    "config, kernels, entries",
    [("lattice_oracle", ("_join", "_meet", "_modulus"), 25), ("atomic_limsup", ("_diagonal_quotients",), 200)],
)
def test_shipped_runs_call_each_kernel_once_per_stack(config, kernels, entries, monkeypatch):
    # the scenarios run the library's kernels on whole stacks, never the
    # public per-operator functions
    calls = {}
    for module, name in ((lattice_module, "join"), (lattice_module, "meet"), (lattice_module, "modulus")):
        spy_calls(monkeypatch, module, name, calls)
    spy_calls(monkeypatch, essnorm_module, "pinching_lower_bound", calls)
    for name in ("_join", "_meet", "_modulus", "_diagonal_quotients"):
        spy_calls(monkeypatch, experiments, name, calls)
    cfg = ExperimentConfig.from_dict(shipped_config(config))
    result = run_scenario(cfg)
    assert result.passed
    if config == "atomic_limsup":
        # every row from one call on the arrays of the `entries` atoms
        stacks = 1
    else:
        stacks = -(-len(result.rows) // _stack_size(entries))
        assert stacks > 1
    assert calls == {name: stacks if name in kernels else 0 for name in calls}


def scaled(value, factor):
    """A library call's output with its numbers scaled by factor: a float,
    an array or a list of floats, an operator's entries or a certificate's
    bound."""
    if isinstance(value, MatrixOperator):
        return MatrixOperator(value.entries * factor, value.space)
    if isinstance(value, LowerBoundCertificate):
        return dataclasses.replace(value, bound=value.bound * factor)
    if isinstance(value, list):
        return [v * factor for v in value]
    return value * factor


# How strong each check is: one library call's output, scaled by (1 + delta)
# where the experiments module calls it, must make the named check FAIL on a
# shipped config.  Each delta is the first step of the probe grid
# {2.3e-16, 1e-13, 1e-10, 1e-6, 1e-3, 0.1} that the check's tolerance allows
# it to catch; a change that weakens a check fails its entry here.

# the benchmark's truncation config: 200 atoms, the first 100 cancelled
TRUNCATION = {"kind": "truncation", "cutoff": 100}
CHECK_STRENGTHS = {
    # a relative gap of at most gamma_3 = 3.3e-16 lets 2.3e-16 pass; 1e-13 exceeds it
    "atomic_limsup": ("atomic_limsup", {}, "best_diagonal_rank_k", "certificate_matches_value", 1e-13),
    # the same gap, moved from the certificate's side
    "atomic_limsup-pinching": (
        "atomic_limsup", {}, "_diagonal_quotients", "certificate_matches_value", 1e-13
    ),
    # exact reproduction: 1 + 2.3e-16 rounds to 1 + 2**-52, which moves any bound by an ulp or more
    "diffuse_witness-p1": ("diffuse_witness", {}, "witness_lower_bound", "certificates_verified", 2.3e-16),
    # the same exact reproduction at p = 1.5, on the shipped factored kernel
    "diffuse_witness-p1.5": (
        "diffuse_witness", {"p": 1.5, "levels": [6, 9]}, "witness_lower_bound", "certificates_verified", 2.3e-16
    ),
    # a relative residual of at most 1e-12 against 2**-n lets 1e-13 pass; 1e-10 exceeds it at n = 0
    "qn_decay": ("qn_decay", {}, "qn_decay_profile", "matches_formula", 1e-10),
    # without a formula, every row within gamma_(2(dim - n) + 5) <= 5.3e-15 of the
    # rank-one tail sum: 2.3e-16 stays inside, 1e-13 does not
    "qn_decay-no-formula": (
        "qn_decay", {"n_max": 21, "formula": None}, "qn_decay_profile", "matches_rank_one_tail", 1e-13
    ),
    # a relative residual of at most 1e-12 against 2**-level: 1e-10 exceeds it at level 1
    "rankone_centre_decay": (
        "rankone_centre_decay", {}, "centre_decay_under_refinement", "matches_formula", 1e-10
    ),
    # an absolute deviation of at most 1e-9 on entries below 1 lets 1e-10 pass; 1e-6 exceeds it
    "join": ("lattice_oracle", {}, "_join", "join_meet_matches_oracle", 1e-6),
    # an absolute deviation of at most 1e-6: 1e-6 exceeds it on any row of |S| that sums past 1
    "modulus": ("lattice_oracle", {}, "_modulus", "modulus_matches_grid_oracle", 1e-6),
    # |M_u + K| within gamma_3 x max(1, tail sup) of the tail sup: 2.3e-16 stays inside, 1e-13 does not
    "truncation": (
        "atomic_limsup", {"perturbation": TRUNCATION}, "opnorm_p1", "truncation_certifies_upper_bound", 1e-13
    ),
}


@pytest.mark.parametrize("entry", CHECK_STRENGTHS)
def test_check_catches_scaled_output(entry, monkeypatch):
    config, changes, name, check, delta = CHECK_STRENGTHS[entry]
    cfg = ExperimentConfig.from_dict(shipped_config(config, **changes))
    real = getattr(experiments, name)
    passed = {}
    for d in (0.0, delta):
        monkeypatch.setattr(experiments, name, lambda *a, d=d, **kw: scaled(real(*a, **kw), 1 + d))
        passed[d] = {c.name: c.passed for c in run_scenario(cfg).checks}[check]
    assert passed == {0.0: True, delta: False}


def signed_magnitudes(rng, lo, hi, n):
    """n draws of 10**U(lo, hi), each with a random sign."""
    return (rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(lo, hi, n)).tolist()


def test_diagonal_checks_pass_across_the_float_range():
    # gamma_3 bounds a certificate's two roundings wherever |u_i| mu_i is a
    # normal float: masses 10**U(-150, 150), atoms of magnitude 10**U(-100, 100)
    rng = np.random.default_rng(24)
    for _ in range(100):
        n = int(rng.integers(1, 40))
        cfg = atomic_limsup_config()
        cfg["space"]["atom_masses"] = (10.0 ** rng.uniform(-150, 150, n)).tolist()
        cfg.update(u={**cfg["u"], "atoms": signed_magnitudes(rng, -100, 100, n)}, k_range=[0, n])
        if rng.random() < 0.5:
            cfg["perturbation"] = {"kind": "truncation", "cutoff": int(rng.integers(0, n + 2))}
        checks = run_scenario(ExperimentConfig.from_dict(cfg)).checks
        assert all(c.passed for c in checks), (cfg, checks)


def test_rank_one_tail_check_passes_across_the_float_range():
    # every row's rounding stays inside its gamma margin while each term
    # |g_i eta_j mu_j| mu_i is a normal float: masses 10**U(-100, 100),
    # kernel values of magnitude 10**U(-50, 50)
    rng = np.random.default_rng(25)
    for _ in range(100):
        n = int(rng.integers(1, 40))
        cfg = qn_decay_config()
        del cfg["formula"]
        cfg.update(space={"atom_masses": (10.0 ** rng.uniform(-100, 100, n)).tolist()}, n_max=n)
        cfg["kernel"] = {
            name: {"kind": "values", "values": signed_magnitudes(rng, -50, 50, n)} for name in ("eta", "g")
        }
        checks = run_scenario(ExperimentConfig.from_dict(cfg)).checks
        assert "matches_rank_one_tail" in {c.name for c in checks}
        assert all(c.passed for c in checks), (cfg, checks)


def random_dense_config(seed, levels, p):
    cfg = diffuse_witness_config()
    cfg.update(perturbation={"kind": "random_dense", "seed": seed}, levels=list(levels), p=p)
    return cfg


def per_level_random_dense(seed, levels, p):
    """Rows of diffuse_witness under random_dense, each level's K drawn
    from its own default_rng([seed, level])."""
    rows = []
    for level in range(levels[0], levels[1] + 1):
        space = build_space(diffuse_interval=(0.0, 1.0), diffuse_level=level)
        u = StepFunction.from_function(space, lambda x: x)
        n = space.dimension
        K = MatrixOperator(np.random.default_rng([seed, level]).uniform(-1.0, 1.0, (n, n)), space)
        bound = witness_lower_bound(u, K, 0.1, p).bound
        formula = float(np.max(np.abs(u.coefficients)))
        rows.append(Row(float(level), bound, bound, formula, abs(bound - formula)))
    return rows


class TestTrialSeeding:
    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**96, 2**128 + 7, 2**200 + 3])
    def test_matches_default_rng_draw_for_draw(self, seed):
        # seeds of 1 to 7 words, so the entropy runs past the pool of 4;
        # trials across a batch boundary and up to the last one-word index,
        # each batch opened at start and every _SEED_BATCH trials past it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for start, stop in ((0, 3), (_SEED_BATCH - 2, _SEED_BATCH + 4), (2**32 - 3, 2**32)):
                for t, (rng, opens) in zip(range(start, stop), _trial_rngs(seed, start, stop), strict=True):
                    assert opens == ((t - start) % _SEED_BATCH == 0)
                    expected = np.random.default_rng([seed, t])
                    for args in ((0.1, 2.0, 5), (-1.0, 1.0, (3, 3))):
                        assert bits(rng.uniform(*args)).tolist() == bits(expected.uniform(*args)).tolist()
                    for _ in range(4):
                        assert rng.integers(0, 2, 3).tolist() == expected.integers(0, 2, 3).tolist()

    @pytest.mark.parametrize("scenario, dim", [("pinching_suite", 2), ("lattice_oracle", 1)])
    def test_scenarios_across_a_batch(self, scenario, dim):
        trials = _SEED_BATCH + 1
        result = run_scenario(ExperimentConfig.from_dict(trial_config(scenario, dim, trials, 53)))
        assert list(map(repr, result.rows)) == list(map(repr, PER_TRIAL[scenario](53, dim, trials)))

    @pytest.mark.parametrize("scenario", ["pinching_suite", "lattice_oracle"])
    def test_batches_across_stacks(self, scenario, monkeypatch):
        # batches of 7 against stacks of 64
        monkeypatch.setattr(experiments, "_SEED_BATCH", 7)
        result = run_scenario(ExperimentConfig.from_dict(trial_config(scenario, 8, 150, 61)))
        assert list(map(repr, result.rows)) == list(map(repr, PER_TRIAL[scenario](61, 8, 150)))

    @pytest.mark.parametrize("batch", [2, _SEED_BATCH])
    @pytest.mark.parametrize("p", [1.0, 1.5])
    def test_random_dense_levels_match_per_level_rng(self, p, batch, monkeypatch):
        # the levels seed default_rng([seed, level]) directly, so the seed
        # batch size must not change a single row
        monkeypatch.setattr(experiments, "_SEED_BATCH", batch)
        result = run_scenario(ExperimentConfig.from_dict(random_dense_config(5, (3, 7), p)))
        assert list(map(repr, result.rows)) == list(map(repr, per_level_random_dense(5, (3, 7), p)))
        assert result.passed

    def test_raw_words_give_uniform_draws_exactly(self):
        # numpy's own draws, and the exact value -1 + 2 (w >> 11) 2**-53 at
        # the extreme words and around the sign change
        rng = np.random.default_rng([3, 1])
        expected = rng.uniform(-1.0, 1.0, 100_000)
        rng = np.random.default_rng([3, 1])
        derived = experiments._uniform_from_raw(rng.bit_generator.random_raw(100_000))
        assert bits(derived).tolist() == bits(expected).tolist()
        edges = [0, 2**11 - 1, 2**11, 2**62, 2**63 - 1, 2**63, 2**63 + 2**11, 2**64 - 1]
        floats = experiments._uniform_from_raw(np.array(edges, dtype=np.uint64))
        for w, x in zip(edges, floats.tolist()):
            assert Fraction(x) == -1 + Fraction(2 * (w >> 11), 2**53)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_one_block_assignments_are_drawn_again(self, dim, monkeypatch):
        # about half the first assignments at dimension 2 put both
        # coordinates in one block; at dimension 3 the high half of each
        # trial's last assignment word goes unused.  Batches of 7 cross the
        # two stacks, and every assignment pinched is the documented one
        monkeypatch.setattr(experiments, "_SEED_BATCH", 7)
        real_draws, real_pinched = experiments._pinching_draws, experiments._pinched
        redrawn, pinched = [], []

        def draws_spy(*args):
            draws = real_draws(*args)
            redrawn.append(draws[2] is not draws[3])
            return draws

        def pinched_spy(A, labels):
            pinched.extend(labels.tolist())
            return real_pinched(A, labels)

        monkeypatch.setattr(experiments, "_pinching_draws", draws_spy)
        monkeypatch.setattr(experiments, "_pinched", pinched_spy)
        trials = stack_size(dim) + 5
        result = run_scenario(ExperimentConfig.from_dict(trial_config("pinching_suite", dim, trials, 71)))
        assert list(map(repr, result.rows)) == list(map(repr, per_trial_pinching(71, dim, trials)))
        assert any(redrawn)
        documented = []
        for t in range(trials):
            rng = np.random.default_rng([71, t])
            documented.append(real_draws(rng, 0.1, 2.0, dim)[3].tolist())
        assert pinched == documented

    @pytest.mark.parametrize("mass_low, mass_high", [(1e-3, 7.5), (0.5, 0.5)])
    def test_masses_come_from_generator_uniform(self, mass_low, mass_high):
        cfg = trial_config("pinching_suite", 4, 300, 37)
        cfg["space"]["random"].update(mass_low=mass_low, mass_high=mass_high)
        result = run_scenario(ExperimentConfig.from_dict(cfg))
        expected = per_trial_pinching(37, 4, 300, mass_low, mass_high)
        assert list(map(repr, result.rows)) == list(map(repr, expected))

    @pytest.mark.parametrize("scenario", ["pinching_suite", "lattice_oracle"])
    def test_derived_draw_off_by_one_bit_is_an_internal_error(self, scenario, tmp_path, monkeypatch):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(trial_config(scenario, 3, 20, 4)))
        out = tmp_path / "out"
        args = ["run", "--config", str(path), "--out", str(out)]
        assert CliRunner().invoke(main, args).exit_code == 0
        written = (out / f"{scenario}.csv").read_bytes()
        real = experiments._uniform_from_raw
        calls = []

        def flipped(words):
            # the last bit of the first entry of the first stack, once a run
            floats = real(words)
            if not calls:
                floats.view(np.int64)[(0,) * floats.ndim] ^= 1
            calls.append(True)
            return floats

        monkeypatch.setattr(experiments, "_uniform_from_raw", flipped)
        with pytest.raises(RuntimeError, match="default_rng"):
            run_scenario(ExperimentConfig.from_dict(trial_config(scenario, 3, 20, 4)))
        calls.clear()
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 3
        assert "internal error: RuntimeError" in result.output
        assert (out / f"{scenario}.csv").read_bytes() == written

    def test_drifted_state_is_an_internal_error(self, tmp_path, monkeypatch):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(trial_config("pinching_suite", 3, 20, 4)))
        out = tmp_path / "out"
        args = ["run", "--config", str(path), "--out", str(out)]
        assert CliRunner().invoke(main, args).exit_code == 0
        written = (out / "pinching_suite.csv").read_bytes()
        real = experiments._pcg64_states

        def drifted(*args):
            return [{**s, "state": s["state"] ^ 1} for s in real(*args)]

        monkeypatch.setattr(experiments, "_pcg64_states", drifted)
        with pytest.raises(RuntimeError, match="default_rng"):
            run_scenario(ExperimentConfig.from_dict(trial_config("lattice_oracle", 2, 3, 4)))
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 3
        assert "internal error: RuntimeError" in result.output
        assert (out / "pinching_suite.csv").read_bytes() == written


# run_scenario on the config in argv[1], then the numpy submodules loaded
IMPORTS_PROBE = """
import json, sys
from essnorm_lab.experiments import ExperimentConfig, run_scenario
assert run_scenario(ExperimentConfig.from_dict(json.loads(sys.argv[1]))).passed
print(json.dumps([m for m in ("numpy.random", "numpy.polynomial") if m in sys.modules]))
"""


@pytest.mark.parametrize(
    "perturbation, loaded",
    [
        # the kernel's draws and polynomials are computed in-process
        ({"kind": "rank_one", "rank": 3, "seed": 7}, []),
        # the control: random_dense draws through default_rng
        ({"kind": "random_dense", "seed": 5}, ["numpy.random"]),
    ],
)
def test_witness_run_imports_of_numpy(perturbation, loaded):
    cfg = diffuse_witness_config()
    cfg.update(perturbation=perturbation, u={"diffuse": {"kind": "poly", "coeffs": [0.25, -0.5, 1.0]}})
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    command = [sys.executable, "-c", IMPORTS_PROBE, json.dumps(cfg)]
    result = subprocess.run(command, env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == loaded
