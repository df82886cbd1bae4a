"""One unit of each workload, driven through the program's public API.

Imported in a worker process after ``essnorm_lab`` and, when tracing, after
the tracer has wrapped its functions.  Library functions are looked up on
their module at call time, so the wrapped versions are the ones called.
``SETUP`` turns a seed into parsed, validated inputs; ``RUN`` computes and
writes every result and returns what the orchestrator checks.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

import numpy as np

import essnorm_lab as lab
from essnorm_lab import experiments, operators

import inputs


def _identity(x: float) -> float:
    return x


def _parse(configs: list[dict]) -> list:
    return [experiments.ExperimentConfig.from_dict(c) for c in configs]


def _run_scenarios(configs: list, out_dir: Path) -> list:
    results = []
    for cfg in configs:
        result = experiments.run_scenario(cfg)
        experiments.emit(result, out_dir, cfg)
        results.append(result)
    return results


def scenario_outputs(results: list, out_dir: Path) -> dict:
    return {
        "scenarios": [
            {
                "scenario": r.scenario,
                "rows": [[row.param, row.computed, row.certified, row.formula] for row in r.rows],
                "report": (out_dir / f"{r.scenario}.report.txt").read_text().splitlines(),
            }
            for r in results
        ]
    }


def setup_estimator(seed: int) -> dict:
    return {"configs": _parse(inputs.estimator_configs()), "draws": inputs.estimator_draws(seed)}


def run_estimator(state: dict, out_dir: Path) -> dict:
    """Criterion-4 ensemble, then witness certificates at general p."""
    trials, witness, rows = [], [], []
    for masses, entries in state["draws"]:
        A = lab.MatrixOperator(entries, lab.build_space(masses))
        estimates = [lab.opnorm_estimate(A, p) for p in inputs.ESTIMATOR_PS]
        split = lab.centre_project(A)
        trials.append({"estimates": estimates, "centre": split.centre_part.u_values,
                       "disjoint": split.disjoint_part.entries})
        rows += [experiments.Row(p, e, None, None, None) for p, e in zip(inputs.ESTIMATOR_PS, estimates)]
    for cfg in state["configs"]:
        kernel = lab.FunctionKernel.random_polynomial(cfg.perturbation["rank"], cfg.perturbation["seed"])
        l0, l1 = cfg.levels
        for level in range(l0, l1 + 1):
            space = lab.build_space(diffuse_interval=tuple(cfg.space["interval"]), diffuse_level=level)
            u = lab.StepFunction.from_function(space, _identity)
            K = kernel.discretize(space)
            cert = lab.witness_lower_bound(u, K, cfg.epsilon, cfg.p)
            verified = lab.verify_certificate(cert, u, K, cfg.p)
            regular = lab.regular_norm(lab.mult_op(u) + K, cfg.p)
            witness.append({"p": cfg.p, "level": level, "bound": cert.bound,
                            "verified": verified, "regular": regular})
            rows.append(experiments.Row(level, cert.bound, regular, None, None))
    n_ok = sum(w["verified"] for w in witness)
    result = experiments.ScenarioResult(
        "estimator", rows,
        [experiments.Check("certificates_verified", n_ok == len(witness), f"{n_ok}/{len(witness)}")],
    )
    experiments.emit(result, out_dir)
    return {"trials": trials, "witness": witness}


SETUP = {
    "refine": lambda seed: _parse(inputs.refine_configs(seed)),
    "ensemble": lambda seed: _parse(inputs.ensemble_configs(seed)),
    "estimator": setup_estimator,
}
RUN = {
    "refine": _run_scenarios,
    "ensemble": _run_scenarios,
    "estimator": run_estimator,
}


def outputs(workload: str, computed, out_dir: Path) -> dict:
    """What the orchestrator checks, as plain JSON values."""
    if workload == "estimator":
        for t in computed["trials"]:
            t["centre"] = np.asarray(t["centre"]).tolist()
            t["disjoint"] = np.asarray(t["disjoint"]).tolist()
        return computed
    return scenario_outputs(computed, out_dir)


# ---------------------------------------------------------------------------
# kernel micro-timings on the refine operator M_u + K
# ---------------------------------------------------------------------------


def _median_time(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


# level -> repetitions; each timing is the median of its repetitions
MICRO_LEVELS = {3: 101, 8: 11, 12: 3}


def micro(seed: int) -> dict[str, float]:
    kernel = lab.FunctionKernel.random_polynomial(inputs.KERNEL_RANK, seed)
    out = {}
    for level, reps in MICRO_LEVELS.items():
        n = 2**level
        space = lab.build_space(diffuse_interval=(0.0, 1.0), diffuse_level=level)
        u = lab.StepFunction.from_function(space, _identity)
        K = kernel.discretize(space)
        A = lab.mult_op(u) + K
        out[f"operators.opnorm_p1.n{n}_s"] = _median_time(lambda: lab.opnorm_p1(A), reps)
        out[f"operators.p1_column_quotients.n{n}_s"] = _median_time(
            lambda: operators.p1_column_quotients(A), reps)
        if n <= 256:
            out[f"operators.opnorm_estimate.n{n}_s"] = _median_time(
                lambda: lab.opnorm_estimate(A, 2.0), 1 if n > 8 else reps)
        if n >= 256:
            out[f"essnorm.witness_lower_bound.n{n}_s"] = _median_time(
                lambda: lab.witness_lower_bound(u, K, inputs.EPSILON, 1.0), reps)
        del A, K
    return out


def emit_configs(paths: list[str], out_dir: Path) -> None:
    """In-process run and emit of config files, as the CLI does them."""
    for path in paths:
        cfg = experiments.ExperimentConfig.from_dict(json.loads(Path(path).read_text()))
        experiments.emit(experiments.run_scenario(cfg), out_dir, cfg)
