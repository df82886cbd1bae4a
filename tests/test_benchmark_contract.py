"""The program names that the benchmark in ``benchmark/`` reaches exist.

The benchmark's tracer rebinds the functions and methods it names, and its
workloads call the library through ``lab.``, ``experiments.`` and
``operators.``; deleting or renaming any of them breaks the benchmark,
which these tests only read.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = ROOT / "benchmark"

# the benchmark's names for the modules it calls into
MODULES = {"lab": "essnorm_lab", "experiments": "essnorm_lab.experiments", "operators": "essnorm_lab.operators"}


def test_tracer_installs_on_the_cli_import():
    # in a fresh process, as the tracer rebinds the library it wraps
    code = "import essnorm_lab.cli, tracing; tracing.Tracer().install()"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(BENCHMARK)])}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
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
