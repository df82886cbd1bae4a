#!/usr/bin/env python3
"""Regenerate the reference figures quoted in benchmark/README.md.

Run from the repository root:  python3 benchmark/reference.py

Each figure is measured in a fresh process with ``PYTHONPATH=src``.  The
end-to-end figures of the workloads come from ``benchmark/run.py`` itself;
the README gives the loop that produces them.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
OUT = ROOT / "benchmark" / "out" / "reference"

PRELUDE = """
import json, statistics, sys, time
sys.path.insert(0, "benchmark")
import numpy as np
import essnorm_lab as lab
from essnorm_lab import experiments
import checks, inputs
def load(path):
    return experiments.ExperimentConfig.from_dict(json.load(open(path)))
def timed(fn):
    start = time.perf_counter(); fn(); return time.perf_counter() - start
"""

FIGURES = {
    "refine sweep, three repeats in one process started right after another sweep (s)": """
cfg = experiments.ExperimentConfig.from_dict(inputs.refine_configs(0)[0])
print([round(timed(lambda: experiments.run_scenario(cfg)), 3) for _ in range(3)])
""",
    "pinching_suite and lattice_oracle shipped configs, median of 5 in-process runs (s)": """
out = {}
for name in ("pinching_suite", "lattice_oracle"):
    cfg = load(f"configs/{name}.json")
    experiments.run_scenario(cfg)
    out[name] = round(statistics.median(timed(lambda: experiments.run_scenario(cfg)) for _ in range(5)), 3)
print(out)
""",
    "estimator ensemble at p = 2, seed 0: median and min of estimate / numpy spectral norm": """
ref = checks.EstimatorReference(0)
ratios = []
for t, (m, a) in enumerate(inputs.estimator_draws(0)):
    est = lab.opnorm_estimate(lab.MatrixOperator(a, lab.build_space(m)), 2.0)
    ratios.append(est / ref.ensemble[2.0]["upper"][t])
print(repr(float(statistics.median(ratios))), repr(float(min(ratios))))
""",
    "opnorm_estimate at p = 2 on the level-8 refine operator, kernel seed 7, against numpy's spectral norm": """
space = lab.build_space(diffuse_interval=(0.0, 1.0), diffuse_level=8)
u = lab.StepFunction.from_function(space, lambda x: x)
A = lab.mult_op(u) + lab.FunctionKernel.random_polynomial(3, 7).discretize(space)
print(repr(lab.opnorm_estimate(A, 2.0)), repr(float(np.linalg.norm(A.entries, 2))))
""",
    "verify_certificate on sound witness certificates, level 7, p = 1.5 (seed, bound, estimate, Riesz-Thorin, verdict)": """
for seed in (79, 109):
    space = lab.build_space(diffuse_interval=(0.0, 1.0), diffuse_level=7)
    u = lab.StepFunction.from_function(space, lambda x: x)
    K = lab.FunctionKernel.random_polynomial(3, seed).discretize(space)
    cert = lab.witness_lower_bound(u, K, 0.1, 1.5)
    A = lab.mult_op(u) + K
    print(seed, round(cert.bound, 9), round(lab.opnorm_estimate(A, 1.5), 9),
          round(float(checks.riesz_thorin(A.entries, 1.5)), 9), lab.verify_certificate(cert, u, K, 1.5))
""",
}


POOL_VARIANTS = {
    " [default workers]": {},
    " [ESSNORM_LAB_WORKERS=1]": {"ESSNORM_LAB_WORKERS": "1"},
    " [ESSNORM_LAB_WORKERS=2]": {"ESSNORM_LAB_WORKERS": "2"},
}


def cli(*args: str) -> str:
    proc = subprocess.run([sys.executable, "-m", "essnorm_lab.cli", *args], cwd=ROOT, env=_env(),
                          capture_output=True, text=True, timeout=120)
    return f"exit {proc.returncode}: {(proc.stdout + proc.stderr).strip()}"


def _env(**extra: str) -> dict:
    env = dict(os.environ, PYTHONPATH="src", **extra)
    if "ESSNORM_LAB_WORKERS" not in extra:
        env.pop("ESSNORM_LAB_WORKERS", None)
    return env


def refine_units() -> list[float]:
    """run_s of four back-to-back refine units, the first after 20 s idle."""
    time.sleep(20)
    out = []
    for _ in range(4):
        proc = subprocess.run([sys.executable, "benchmark/worker.py", "unit", "--workload", "refine",
                               "--out", str(OUT), "--spawn", "0"], cwd=ROOT, env=_env(),
                              capture_output=True, text=True, timeout=120, check=True)
        out.append(round(json.loads(proc.stdout)["run_s"], 3))
    return out


def main() -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    print(f"refine units in fresh processes, the first after 20 s idle (s): {refine_units()}")
    for title, body in FIGURES.items():
        variants = POOL_VARIANTS if title.startswith("pinching_suite") else {"": {}}
        for label, extra in variants.items():
            proc = subprocess.run([sys.executable, "-c", PRELUDE + body], cwd=ROOT, env=_env(**extra),
                                  capture_output=True, text=True, timeout=300, check=True)
            print(f"{title}{label}: {proc.stdout.strip()}")

    nan_config = OUT / "nan_levels.json"
    nan_config.write_text(
        '{"scenario": "diffuse_witness", "space": {"interval": [0.0, 1.0]},'
        ' "u": {"diffuse": {"kind": "identity"}}, "p": NaN, "epsilon": NaN, "levels": [0, 30]}\n'
    )
    print(f"validate with p = NaN, epsilon = NaN, levels [0, 30]: {cli('validate', '--config', str(nan_config))}")
    eps_config = OUT / "epsilon_above_sup.json"
    eps_config.write_text(json.dumps({**json.loads(Path("configs/diffuse_witness.json").read_text()),
                                      "epsilon": 2.0, "levels": [2, 3]}) + "\n")
    print(f"validate with epsilon = 2 > sup|u|: {cli('validate', '--config', str(eps_config))}")
    print(f"run with epsilon = 2 > sup|u|: {cli('run', '--config', str(eps_config), '--out', str(OUT))}")


if __name__ == "__main__":
    main()
