import json

import pytest
from click.testing import CliRunner

from essnorm_lab.cli import main
from essnorm_lab.experiments import (
    SCENARIOS,
    Check,
    ConfigError,
    MAX_LEVEL,
    ExperimentConfig,
    Row,
    ScenarioResult,
    emit,
    run_scenario,
)


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

    def test_bad_tail_kind_path(self):
        cfg = atomic_limsup_config()
        cfg["u"]["tail"] = {"kind": "nope", "params": []}
        with pytest.raises(ConfigError, match="u.tail"):
            ExperimentConfig.from_dict(cfg)


class TestScenarios:
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

    def test_config_echo_round_trips(self, tmp_path):
        cfg = ExperimentConfig.from_dict(qn_decay_config())
        emit(run_scenario(cfg), tmp_path, cfg)
        echoed = json.loads((tmp_path / "qn_decay.config.json").read_text())
        assert ExperimentConfig.from_dict(echoed) == cfg


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


class TestTrialScenarios:
    @pytest.mark.parametrize("scenario", ["pinching_suite", "lattice_oracle"])
    def test_rerun_gives_equal_rows(self, scenario):
        cfg = ExperimentConfig.from_dict(
            {
                "scenario": scenario,
                "space": {"random": {"dimension": 5}},
                "trials": 40,
                "p": 1.0,
                "seed": 9,
            }
        )
        first = run_scenario(cfg)
        second = run_scenario(cfg)
        assert [int(r.param) for r in first.rows] == list(range(40))
        assert first.rows == second.rows
