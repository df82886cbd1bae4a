"""Config parsing: what each scenario reads, size limits, fuzzing, and the
byte-identical outputs of the shipped configs."""

import copy
import hashlib
import json
import math
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from essnorm_lab.cli import main
from essnorm_lab.experiments import (
    MAX_ATOMS,
    MAX_RANDOM_DIMENSION,
    MAX_RANK,
    MAX_ROWS,
    MAX_TRIAL_ENTRIES,
    SCENARIOS,
    ConfigError,
    ExperimentConfig,
    emit,
    run_scenario,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SHIPPED = {name: json.loads((CONFIGS / f"{name}.json").read_text()) for name in SCENARIOS}


def shipped(name, **changes):
    raw = copy.deepcopy(SHIPPED[name])
    raw.update(changes)
    return raw


def cli(tmp_path, raw, *command):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    return CliRunner().invoke(main, [*command, "--config", str(path)])


def assert_refused(tmp_path, raw, field_path):
    """validate and run both exit 2 naming field_path; run writes nothing."""
    out = tmp_path / "out"
    for command in (["validate"], ["run", "--out", str(out)]):
        result = cli(tmp_path, raw, *command)
        assert result.exit_code == 2, result.output
        assert f"config error: {field_path}:" in result.output
        assert "OK" not in result.output
    assert not out.exists()


def assert_accepted(tmp_path, raw):
    result = cli(tmp_path, raw, "validate")
    assert result.exit_code == 0, result.output
    assert f"OK: {raw['scenario']}" in result.output


class TestScenarioTable:
    def test_shipped_configs_cover_every_scenario(self):
        assert SCENARIOS == (
            "atomic_limsup",
            "diffuse_witness",
            "pinching_suite",
            "rankone_centre_decay",
            "qn_decay",
            "lattice_oracle",
        )
        for name, raw in SHIPPED.items():
            assert ExperimentConfig.from_dict(raw).scenario == name

    @pytest.mark.parametrize(
        "name, section, key, value, field_path",
        [
            ("lattice_oracle", None, "epsilon", 0.1, "<root>.epsilon"),
            ("lattice_oracle", None, "levels", [1, 2], "<root>.levels"),
            ("lattice_oracle", None, "perturbation", {"kind": "random_dense", "seed": 1}, "perturbation.kind"),
            ("qn_decay", None, "trials", 10, "<root>.trials"),
            ("qn_decay", None, "epsilon", 0.1, "<root>.epsilon"),
            ("diffuse_witness", "u", "atoms", [1.0], "u.atoms"),
            ("diffuse_witness", "space", "tail", {"kind": "finitely_supported"}, "space.tail"),
            ("rankone_centre_decay", "space", "atom_masses", [1.0], "space.atom_masses"),
            ("qn_decay", "space", "tail", {"kind": "finitely_supported"}, "space.tail"),
            ("pinching_suite", "space", "interval", [0.0, 1.0], "space.interval"),
            # lattice_oracle draws no masses
            ("lattice_oracle", "space", "random", {"dimension": 5, "mass_low": 0.1}, "space.random.mass_low"),
            ("lattice_oracle", "space", "random", {"dimension": 5, "mass_high": 2.0}, "space.random.mass_high"),
        ],
    )
    def test_fields_a_scenario_does_not_read_are_refused(self, tmp_path, name, section, key, value, field_path):
        raw = shipped(name)
        (raw[section] if section else raw)[key] = value
        assert_refused(tmp_path, raw, field_path)

    def test_given_formula_wins_over_closed_form(self, tmp_path):
        # both kernel factors are constants, whose closed form is 2**-level
        out = str(tmp_path / "out")
        raw = shipped("rankone_centre_decay", formula={"kind": "power", "base": 0.6})
        result = cli(tmp_path, raw, "run", "--out", out)
        assert result.exit_code == 1, result.output
        assert "rankone_centre_decay: matches_formula: FAIL" in result.output
        raw["formula"]["base"] = 0.5
        result = cli(tmp_path, raw, "run", "--out", out)
        assert result.exit_code == 0, result.output
        assert "rankone_centre_decay: matches_formula: PASS" in result.output

    def test_perturbation_kind_names_its_scenarios(self):
        raw = shipped("qn_decay", perturbation={"kind": "truncation", "cutoff": 3})
        with pytest.raises(ConfigError, match="'truncation' is for \\('atomic_limsup',\\)") as e:
            ExperimentConfig.from_dict(raw)
        assert e.value.path == "perturbation.kind"

    def test_missing_required_member_named(self):
        raw = shipped("atomic_limsup")
        del raw["u"]["tail"]
        with pytest.raises(ConfigError, match="atomic_limsup needs this field") as e:
            ExperimentConfig.from_dict(raw)
        assert e.value.path == "u.tail"

    @pytest.mark.parametrize(
        "name, fn_path, spec",
        [
            ("qn_decay", "g", {"kind": "identity"}),
            ("qn_decay", "eta", {"kind": "poly", "coeffs": [1.0]}),
            ("rankone_centre_decay", "g", {"kind": "values", "values": [1.0, 2.0]}),
            ("rankone_centre_decay", "eta", {"kind": "geometric_tail", "count": 3}),
        ],
    )
    def test_function_kinds_checked_before_running(self, tmp_path, name, fn_path, spec):
        raw = shipped(name)
        raw["kernel"][fn_path] = spec
        assert_refused(tmp_path, raw, f"kernel.{fn_path}.kind")

    @pytest.mark.parametrize(
        "spec", [{"kind": "values", "values": [1.0] * 20}, {"kind": "geometric_tail", "count": 21}]
    )
    def test_coordinate_count_checked_before_running(self, tmp_path, spec):
        # the shipped qn_decay space has 21 atoms
        raw = shipped("qn_decay")
        raw["kernel"]["g"] = spec
        assert_refused(tmp_path, raw, "kernel.g")
        raw["kernel"]["g"] = {"kind": "values", "values": [0.5] * 21}
        assert_accepted(tmp_path, raw)

    def test_power_formula_scale_defaults_to_one(self):
        cfg = ExperimentConfig.from_dict(shipped("qn_decay", formula={"kind": "power", "base": 0.5}))
        assert cfg.formula == {"kind": "power", "base": 0.5, "scale": 1.0}
        assert cfg == ExperimentConfig.from_dict(SHIPPED["qn_decay"])

    def test_to_dict_keeps_only_set_fields(self):
        assert ExperimentConfig.from_dict(SHIPPED["lattice_oracle"]).to_dict() == {
            "scenario": "lattice_oracle",
            "space": {"random": {"dimension": 5}},
            "perturbation": {"kind": "none"},
            "p": 1.0,
            "trials": 500,
            "seed": 20104,
        }


class TestRunErrorsCaughtAtParse:
    # each of these passed validate and then exited 3 from run
    def test_negative_n_max(self, tmp_path):
        assert_refused(tmp_path, shipped("qn_decay", n_max=-1), "n_max")

    def test_n_max_above_atom_count(self, tmp_path):
        assert_refused(tmp_path, shipped("qn_decay", n_max=22), "n_max")
        assert_accepted(tmp_path, shipped("qn_decay", n_max=21))

    def test_negative_k_range_start(self, tmp_path):
        assert_refused(tmp_path, shipped("atomic_limsup", k_range=[-2, 3]), "k_range")

    def test_atom_values_of_wrong_length(self, tmp_path):
        raw = shipped("atomic_limsup")
        raw["u"]["atoms"] = [1.0, 0.5]
        assert_refused(tmp_path, raw, "u.atoms")
        raw["u"]["atoms"] = [1.0] * 200
        assert_accepted(tmp_path, raw)

    def test_empty_polynomial(self, tmp_path):
        raw = shipped("diffuse_witness")
        raw["u"]["diffuse"] = {"kind": "poly", "coeffs": []}
        assert_refused(tmp_path, raw, "u.diffuse.coeffs")

    @pytest.mark.parametrize("name", ["rankone_centre_decay", "qn_decay"])
    def test_formula_overflow(self, tmp_path, name):
        # the shipped sweeps end at level 12 and at n = 20
        assert_refused(tmp_path, shipped(name, formula={"kind": "power", "base": 1e300}), "formula")
        assert_refused(tmp_path, shipped(name, formula={"kind": "power", "base": 10.0, "scale": 1e300}), "formula")
        assert_accepted(tmp_path, shipped(name, formula={"kind": "power", "base": 1e15}))

    def test_formula_checked_at_atom_count_without_n_max(self, tmp_path):
        raw = shipped("qn_decay", formula={"kind": "power", "base": 1e15})
        del raw["n_max"]
        assert_refused(tmp_path, raw, "formula")

    @pytest.mark.parametrize("name", ["diffuse_witness", "rankone_centre_decay"])
    @pytest.mark.parametrize("interval", [[-1e308, 1e308], [0.0, 5e-324]], ids=["inf", "zero"])
    def test_cell_mass_not_positive_and_finite(self, tmp_path, name, interval):
        # b - a overflows to inf, or (b - a) / 2**level underflows to 0
        raw = shipped(name, levels=[1, 2])
        raw["space"]["interval"] = interval
        assert_refused(tmp_path, raw, "space.interval")

    def test_cell_mass_checked_at_last_level(self, tmp_path):
        raw = shipped("rankone_centre_decay", levels=[0, 2])
        raw["space"]["interval"] = [0.0, 2e-323]  # 4 times the least subnormal
        assert_accepted(tmp_path, raw)
        raw["levels"] = [0, 3]
        assert_refused(tmp_path, raw, "space.interval")

    @pytest.mark.parametrize("section", [None, "perturbation"])
    def test_negative_seed(self, tmp_path, section):
        raw = shipped("diffuse_witness")
        (raw[section] if section else raw)["seed"] = -1
        assert_refused(tmp_path, raw, f"{section}.seed" if section else "seed")


class TestSizeLimits:
    def test_atom_count_bounded_before_allocation(self, tmp_path):
        raw = shipped("atomic_limsup")
        for count, ok in ((MAX_ATOMS, True), (MAX_ATOMS + 1, False), (10**12, False)):
            raw["space"]["atom_masses"]["count"] = count
            if ok:
                assert_accepted(tmp_path, raw)
            else:
                assert_refused(tmp_path, raw, "space.atom_masses.count")

    def test_qn_decay_atoms_capped_like_dense_dimension(self, tmp_path):
        raw = shipped("qn_decay")
        raw["kernel"]["g"] = {"kind": "constant", "value": 1.0}
        for count, ok in ((MAX_RANDOM_DIMENSION, True), (MAX_RANDOM_DIMENSION + 1, False), (30_000, False)):
            raw["space"]["atom_masses"]["count"] = count
            if ok:
                assert_accepted(tmp_path, raw)
            else:
                assert_refused(tmp_path, raw, "space.atom_masses")

    @pytest.mark.parametrize("name", ["pinching_suite", "lattice_oracle"])
    def test_trials_bounded_by_rows_held(self, tmp_path, name):
        raw = shipped(name)
        raw["space"]["random"]["dimension"] = 1
        assert_accepted(tmp_path, dict(raw, trials=MAX_ROWS))
        assert_refused(tmp_path, dict(raw, trials=MAX_ROWS + 1), "trials")

    @pytest.mark.parametrize("name", ["pinching_suite", "lattice_oracle"])
    def test_trials_bounded_by_entries_drawn(self, tmp_path, name):
        raw = shipped(name)
        raw["space"]["random"]["dimension"] = MAX_RANDOM_DIMENSION
        most = MAX_TRIAL_ENTRIES // MAX_RANDOM_DIMENSION**2
        assert_accepted(tmp_path, dict(raw, trials=most))
        assert_refused(tmp_path, dict(raw, trials=most + 1), "trials")
        assert_refused(tmp_path, dict(raw, trials=10**12), "trials")

    def test_k_range_bounded_by_rows_held(self, tmp_path):
        assert_accepted(tmp_path, shipped("atomic_limsup", k_range=[5, 5 + MAX_ROWS - 1]))
        assert_refused(tmp_path, shipped("atomic_limsup", k_range=[5, 5 + MAX_ROWS]), "k_range")

    def test_k_range_bounded_by_atom_rows_scanned(self, tmp_path):
        # atomic_limsup sorts its atoms once and reads each row from one
        # suffix maximum, so rows x atoms is not capped; k stops at the
        # largest atom count, past which every row is the same
        raw = shipped("atomic_limsup")
        raw["space"]["atom_masses"]["count"] = MAX_ATOMS
        assert_accepted(tmp_path, dict(raw, k_range=[0, MAX_ROWS - 1]))
        assert_accepted(tmp_path, dict(raw, k_range=[MAX_ATOMS - MAX_ROWS + 1, MAX_ATOMS]))
        assert_refused(tmp_path, dict(raw, k_range=[MAX_ATOMS, MAX_ATOMS + 1]), "k_range")
        assert_refused(tmp_path, dict(raw, k_range=[2**63 - 1, 2**63]), "k_range")

    def test_kernel_rank_bounded(self, tmp_path):
        raw = shipped("diffuse_witness")
        raw["perturbation"]["rank"] = MAX_RANK
        assert_accepted(tmp_path, raw)
        raw["perturbation"]["rank"] = MAX_RANK + 1
        assert_refused(tmp_path, raw, "perturbation.rank")

    def test_validate_reports_internal_error_exit_3(self, tmp_path, monkeypatch):
        def broken(cls, raw):
            raise MemoryError("no room")

        monkeypatch.setattr(ExperimentConfig, "from_dict", classmethod(broken))
        result = cli(tmp_path, SHIPPED["qn_decay"], "validate")
        assert result.exit_code == 3
        assert "internal error: MemoryError: no room" in result.output
        assert "Traceback" in result.output
        assert "OK" not in result.output


# values swapped into the shipped configs: wrong types, non-finite, huge,
# negative, empty, and objects of other fields
SWAPS = [
    0, 1, -1, 3, 21, 4097, MAX_ATOMS + 1, 10**12, 10**400,
    0.0, -0.0, 0.5, -2.5, 1e308, math.nan, math.inf, -math.inf,
    True, None, "", "x", "from_tail", "identity", "none",
    [], [1, 2], [-2, 3], [3, 1], [0.5], [0.0, 1.0], ["a"], [math.nan], [[1]],
    {}, {"kind": "identity"}, {"kind": ["poly"]}, {"kind": "poly", "coeffs": []},
    {"kind": "power", "base": 0.5}, {"kind": "none"}, {"kind": "rank_one", "rank": 2, "seed": 1},
    {"kind": "harmonic_limit", "params": [1.0]}, {"value": 1.0, "count": 3}, {"dimension": 2},
]


def key_paths(node, prefix=()):
    """Every path of keys and list indices into a JSON tree."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return []
    return [p for key, child in items for p in [prefix + (key,), *key_paths(child, prefix + (key,))]]


def node_at(tree, path):
    for key in path:
        tree = tree[key]
    return tree


@st.composite
def mutated_configs(draw):
    raw = copy.deepcopy(SHIPPED[draw(st.sampled_from(SCENARIOS))])
    for _ in range(draw(st.integers(1, 3))):
        paths = key_paths(raw)
        op = draw(st.sampled_from(["drop", "add", "swap"]))
        if op == "add":
            # a field of another scenario, put where that scenario has it
            other = SHIPPED[draw(st.sampled_from(SCENARIOS))]
            path = draw(st.sampled_from(key_paths(other)))
            if path[:-1] in paths + [()] and isinstance(node_at(raw, path[:-1]), dict):
                node_at(raw, path[:-1])[path[-1]] = copy.deepcopy(node_at(other, path))
        elif paths:
            path = draw(st.sampled_from(paths))
            parent = node_at(raw, path[:-1])
            if op == "drop":
                del parent[path[-1]]
            else:
                parent[path[-1]] = copy.deepcopy(draw(st.sampled_from(SWAPS)))
    return raw


class TestFuzz:
    @settings(max_examples=400, deadline=None)
    @given(raw=mutated_configs())
    def test_refused_or_round_trips(self, raw):
        try:
            cfg = ExperimentConfig.from_dict(raw)
        except ConfigError:
            return
        out = cfg.to_dict()
        again = ExperimentConfig.from_dict(out)
        assert again == cfg
        assert again.to_dict() == out
        assert json.dumps(again.to_dict(), sort_keys=True) == json.dumps(out, sort_keys=True)


# sha256 of every file the shipped configs emit, taken from the outputs of
# the program before the scenario table replaced the per-scenario parsing
GOLDEN = {
    "atomic_limsup.config.json": "59e2cffa56b6246988e4b8db1c04554253ea264162f27b92ce16a687dac1fa11",
    "atomic_limsup.csv": "83e71f9fbdff1706537b7331897ea1075a54995c29a93dc6e75c43cb2c84f9c2",
    "atomic_limsup.report.txt": "47c6d89d5fa7eba7d0d49eea6b6e5f1fabc33339661de267849933a63a288015",
    "diffuse_witness.config.json": "329f7fc345b345fdf03803082f7d70f5e7a40ffeb2fdca201f7db6362826074d",
    "diffuse_witness.csv": "20bbbd01cedb4e8f59b3113d03960cc0625565c807cd917ebe5e8ec6a494a871",
    "diffuse_witness.report.txt": "78507e896160a38a68fc1af71c7f384fa41cf7d100a50d00eac646951d771631",
    "lattice_oracle.config.json": "11cd6d773a7e23907adcf46b2d8b2014969aa9120d31ca2351b6fc24aa6d849d",
    "lattice_oracle.csv": "3239362e67cf73ca42308bb14b4ca067adc33cb55532342f98713b57aa0bf849",
    "lattice_oracle.report.txt": "8a5fd7efd2d89a0f1a64a32f1ca4fa0bf4f8f69e8f85529d769e65f72090b1ea",
    "pinching_suite.config.json": "cb7aa4338b91d4a33be598938aae80f29dc6470fdac14388f972266d77bfafdb",
    "pinching_suite.csv": "b5845398b3e916ebbc3c23b7c82359f65402817da963a135a2460d4376e91883",
    "pinching_suite.report.txt": "5b2468f57cef04f8a5c4630e6ab5919f7a5c1d301d4bcc0061659025adee1fa5",
    "qn_decay.config.json": "a5e43c64538bea4499ac9b25ad09b403618996d09bdfeb6070e2a854d00390e7",
    "qn_decay.csv": "90c6207a3564a67db25adc469243f003ad9f96112c05028023548c4fd1a843c5",
    "qn_decay.report.txt": "20bf72d1112b1b59cffbd1895cde9526649677bc0d908b675e17e3cd802765dc",
    "rankone_centre_decay.config.json": "d1596dd0de9664ad74795fc276c1855e365c7a18cb9da1bc54cdbf6eb9eaaa3a",
    "rankone_centre_decay.csv": "2c8099a8640494e0b7426932c712745f73de473a030ae654be2174a44e9c52a0",
    "rankone_centre_decay.report.txt": "a8691e6675afec3125cd752fb07eb0f9b4801f578f0b57a9d88f9915959d49cb",
}


def test_shipped_configs_emit_golden_files(tmp_path):
    for raw in SHIPPED.values():
        cfg = ExperimentConfig.from_dict(raw)
        emit(run_scenario(cfg), tmp_path, cfg)
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert digests == GOLDEN
