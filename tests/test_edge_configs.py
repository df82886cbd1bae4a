"""Edge configs through the CLI, each in a subprocess under a timeout.

Each config must be refused by ``validate`` (exit 2) or end ``run`` with
exit 0, 1 or 2 inside the timeout.  An internal error (exit 3) or a run
that does not end fails its test, and the timeout kills the run, so a
config that loops fails instead of hanging the suite.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SRC = CONFIGS.parent / "src"
# the slowest run below, 2**18 rows over 2**20 atoms, takes about 2.5 s on
# a 2-vCPU VM
TIMEOUT_S = 30


def shipped(name, **changes):
    """The shipped configs/<name>.json with the given top-level fields replaced."""
    return {**json.loads((CONFIGS / f"{name}.json").read_text()), **changes}


EDGE_CONFIGS = {
    # max|u| - epsilon rounds to max|u|
    "epsilon-below-half-ulp": shipped("diffuse_witness", epsilon=1e-17),
    # the same at the shipped epsilon, with max|u| near 2e300
    "symbol-1e300": shipped("diffuse_witness", u={"diffuse": {"kind": "poly", "coeffs": [0, 1e300, 1e300]}}),
    # k beyond every int64
    "k-range-past-int64": shipped("atomic_limsup", k_range=[2**63 - 1, 2**63]),
    # the most rows over the most atoms
    "k-range-most-rows-and-atoms": shipped(
        "atomic_limsup", space={"atom_masses": {"value": 1.0, "count": 2**20}}, k_range=[0, 2**18 - 1]
    ),
}


def cli(*args):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    command = [sys.executable, "-m", "essnorm_lab.cli", *args]
    try:
        return subprocess.run(command, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        pytest.fail(f"{args[0]} did not end within {TIMEOUT_S} s")


@pytest.mark.parametrize("name", EDGE_CONFIGS)
def test_edge_config_is_refused_or_runs_to_an_exit_code(name, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(EDGE_CONFIGS[name]))
    checked = cli("validate", "--config", str(path))
    assert checked.returncode in (0, 2), checked.stderr
    if checked.returncode == 2:
        assert "config error:" in checked.stderr
        return
    ran = cli("run", "--config", str(path), "--out", str(tmp_path / "out"))
    assert ran.returncode in (0, 1, 2), ran.stderr
