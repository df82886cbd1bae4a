"""The program names that the benchmark in ``benchmark/`` reaches exist,
and one unit of each workload passes the benchmark's own checks.

The benchmark's tracer rebinds the functions and methods it names, and its
workloads call the library through ``lab.``, ``experiments.`` and
``operators.``; deleting or renaming any of them, or refusing an input the
benchmark passes, breaks the benchmark, which these tests only read.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = ROOT / "benchmark"

# the benchmark's names for the modules it calls into
MODULES = {"lab": "essnorm_lab", "experiments": "essnorm_lab.experiments", "operators": "essnorm_lab.operators"}


# src for the library, benchmark for the tracer, inputs and checks
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(BENCHMARK)])}


def test_tracer_installs_on_the_cli_import():
    # in a fresh process, as the tracer rebinds the library it wraps
    code = "import essnorm_lab.cli, tracing; tracing.Tracer().install()"
    result = subprocess.run([sys.executable, "-c", code], env=ENV, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def workload_names():
    """(module alias, attribute) of every ``alias.attribute`` in workloads.py."""
    tree = ast.parse((BENCHMARK / "workloads.py").read_text())
    return sorted(
        {
            (node.value.id, node.attr)
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in MODULES
        }
    )


@pytest.mark.parametrize("alias,name", workload_names(), ids=lambda v: v)
def test_workload_names_resolve(alias, name):
    assert hasattr(importlib.import_module(MODULES[alias]), name), f"{alias}.{name}"


@pytest.mark.parametrize("workload", ["refine", "ensemble", "estimator"])
def test_workload_unit_passes_its_checks(workload, tmp_path, monkeypatch):
    # one unit at seed 0 in a fresh process, checked against the
    # benchmark's references, which are computed without the library
    cmd = [
        sys.executable, str(BENCHMARK / "worker.py"), "unit", "--workload", workload, "--seed", "0",
        "--spawn", repr(time.monotonic()), "--out", str(tmp_path),
    ]
    result = subprocess.run(cmd, env=ENV, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    monkeypatch.syspath_prepend(str(BENCHMARK))
    checks = importlib.import_module("checks")
    outputs = json.loads(result.stdout)["outputs"]
    errors, _, failed = checks.CHECKERS[workload](checks.REFERENCES[workload](0), outputs)
    assert errors == []
    assert failed == 0
