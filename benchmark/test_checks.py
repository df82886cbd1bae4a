"""The benchmark's checkers accept the program's outputs and reject corrupted ones.

Run from the repository root:  python3 -m pytest -q benchmark
Workload sizes are shrunk so that each test runs the program in-process in
about a second; the checkers read the sizes from ``inputs`` at call time.
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SEED = 3


@pytest.fixture
def small(monkeypatch):
    monkeypatch.setattr(inputs, "REFINE_LEVELS", (3, 7))
    monkeypatch.setattr(inputs, "PINCH_TRIALS", 40)
    monkeypatch.setattr(inputs, "LATTICE_TRIALS", 20)
    monkeypatch.setattr(inputs, "ESTIMATOR_TRIALS", 12)
    monkeypatch.setattr(inputs, "ESTIMATOR_LEVELS", (3, 5))


def program_outputs(workload: str, out_dir: Path) -> dict:
    state = workloads.SETUP[workload](SEED)
    return workloads.outputs(workload, workloads.RUN[workload](state, out_dir), out_dir)


def assert_rejected(check, ref, out, fragment: str) -> None:
    errors, _, _ = check(ref, out)
    assert any(fragment in e for e in errors), errors


# -- refine ------------------------------------------------------------------


def test_refine(small, tmp_path):
    ref = checks.RefineReference(SEED)
    out = program_outputs("refine", tmp_path)
    errors, ratios, failed = checks.check_refine(ref, out)
    assert errors == [] and failed == 0
    assert len(ratios) == 5 and all(0.0 < r <= 1.0 + checks.REL for r in ratios)

    rows = out["scenarios"][0]["rows"]
    level = int(rows[2][0])
    exact, top = ref.level(level)

    above = copy.deepcopy(out)
    above["scenarios"][0]["rows"][2][1:3] = [exact * (1 + 1e-9)] * 2
    assert_rejected(checks.check_refine, ref, above, "above exact norm")

    within = copy.deepcopy(out)
    within["scenarios"][0]["rows"][2][1:3] = [exact * (1 + 1e-14)] * 2
    assert checks.check_refine(ref, within)[0] == []

    below = copy.deepcopy(out)
    below["scenarios"][0]["rows"][2][1:3] = [top * (1 - 1e-9)] * 2
    assert_rejected(checks.check_refine, ref, below, "below top-cell quotient")

    formula = copy.deepcopy(out)
    formula["scenarios"][0]["rows"][2][3] = np.nextafter(rows[2][3], 0.0)
    assert_rejected(checks.check_refine, ref, formula, "formula")

    report = copy.deepcopy(out)
    report["scenarios"][0]["report"][-1] = "result: FAIL"
    assert_rejected(checks.check_refine, ref, report, "report")


# -- ensemble ----------------------------------------------------------------


def _scenario(out: dict, name: str) -> dict:
    return next(s for s in out["scenarios"] if s["scenario"] == name)


def test_ensemble(small, tmp_path):
    ref = checks.EnsembleReference(SEED)
    out = program_outputs("ensemble", tmp_path)
    errors, ratios, failed = checks.check_ensemble(ref, out)
    assert errors == [] and failed == 0
    assert len(ratios) == inputs.PINCH_TRIALS + inputs.ATOMS

    pinched = copy.deepcopy(out)
    row = _scenario(pinched, "pinching_suite")["rows"][5]
    row[1] = np.nextafter(row[2], np.inf)
    assert_rejected(checks.check_ensemble, ref, pinched, "above full")

    full = copy.deepcopy(out)
    row = _scenario(full, "pinching_suite")["rows"][7]
    row[2] *= 1 + 1e-9
    assert_rejected(checks.check_ensemble, ref, full, "!= exact")

    floor = copy.deepcopy(out)
    row = _scenario(floor, "pinching_suite")["rows"][9]
    row[1] = float(ref.pinching[2][9]) * (1 - 1e-9)
    assert_rejected(checks.check_ensemble, ref, floor, "below max|A_jj|")

    unpinched = copy.deepcopy(out)
    row = _scenario(unpinched, "pinching_suite")["rows"][11]
    row[1] = row[2]
    assert_rejected(checks.check_ensemble, ref, unpinched, "!= exact")

    qn = copy.deepcopy(out)
    row = _scenario(qn, "qn_decay")["rows"][13]
    row[1] = np.nextafter(row[1], 1.0)
    assert_rejected(checks.check_ensemble, ref, qn, "qn_decay n=13")

    atomic = copy.deepcopy(out)
    _scenario(atomic, "atomic_limsup")["rows"][4][1] *= 1 + 1e-9
    assert_rejected(checks.check_ensemble, ref, atomic, "atomic_limsup k=4")

    lattice = copy.deepcopy(out)
    _scenario(lattice, "lattice_oracle")["rows"][3][1] = 1e-6
    assert_rejected(checks.check_ensemble, ref, lattice, "join/meet")

    report = copy.deepcopy(out)
    rep = _scenario(report, "qn_decay")["report"]
    rep[2] = rep[2].replace("PASS", "FAIL")
    assert_rejected(checks.check_ensemble, ref, report, "qn_decay report")


# -- estimator ---------------------------------------------------------------


def test_estimator(small, tmp_path):
    ref = checks.EstimatorReference(SEED)
    out = program_outputs("estimator", tmp_path)
    errors, ratios, failed = checks.check_estimator(ref, out)
    assert errors == []
    assert failed == sum(not w["verified"] for w in out["witness"])
    assert all(0.0 < r <= 1.0 + checks.REL for r in ratios)

    p2 = inputs.ESTIMATOR_PS.index(2.0)
    sigma = copy.deepcopy(out)
    sigma["trials"][4]["estimates"][p2] = float(ref.ensemble[2.0]["upper"][4]) * (1 + 1e-9)
    assert_rejected(checks.check_estimator, ref, sigma, "above upper bound")

    floor = copy.deepcopy(out)
    floor["trials"][6]["estimates"][0] = float(np.nextafter(ref.ensemble["maxdiag"][6], 0.0))
    assert_rejected(checks.check_estimator, ref, floor, "below max|A_ii|")

    centre = copy.deepcopy(out)
    centre["trials"][2]["centre"][1] = float(np.nextafter(centre["trials"][2]["centre"][1], np.inf))
    assert_rejected(checks.check_estimator, ref, centre, "centre_project")

    witness = copy.deepcopy(out)
    w = next(w for w in witness["witness"] if w["p"] == 2.0)
    w["bound"] = ref.witness[w["level"]][1][2.0][0] * (1 + 1e-9)
    assert_rejected(checks.check_estimator, ref, witness, "bound")

    rejected = copy.deepcopy(out)
    for w in rejected["witness"]:
        w["verified"] = True
    rejected["witness"][0]["verified"] = False
    errors, _, failed = checks.check_estimator(ref, rejected)
    assert errors == [] and failed == 1


# -- references and tracing ----------------------------------------------------


def test_witness_reference_matches_dense_operator():
    A = checks.witness_operator(SEED, 5)
    mu = 2.0**-5
    q = checks.witness_column_quotients(SEED, 5)
    assert np.allclose(q, np.abs(A).sum(axis=0) * mu / mu, rtol=1e-14, atol=0)
    assert checks.riesz_thorin(A, 2.0) >= checks.spectral_norm(A) >= checks.column_pnorms(A, 2.0)


def test_covered_counts_overlapping_children_once():
    assert tracing._covered([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0), (5.5, 5.8)]) == 4.0
    assert tracing._covered([]) == 0.0


def test_traced_unit_counts_calls_through_by_name_imports(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("ESSNORM_LAB_WORKERS", None)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmark" / "worker.py"), "unit", "--workload", "ensemble",
         "--seed", str(SEED), "--trace", "1", "--out", str(tmp_path), "--spawn", "0"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    layers = json.loads(proc.stdout.splitlines()[-1])["layers"]
    # experiments imports pinch, opnorm_p1 and build_space by name
    assert layers["operators.pinch_calls"] == 2 * inputs.PINCH_TRIALS
    assert layers["measure.build_space_calls"] == inputs.PINCH_TRIALS + 2 * inputs.LATTICE_TRIALS + 2
    assert layers["experiments.emit_bytes"] == sum(p.stat().st_size for p in tmp_path.glob("*.*"))
    assert 0.0 < layers["experiments.run_scenario_self_s"] < sum(
        v for k, v in layers.items() if k.endswith("_s"))
    spans = json.loads((tmp_path / "trace" / "ensemble.spans.json").read_text())
    assert {s["name"] for s in spans} >= {"experiments.run_scenario", "operators.pinch"}
