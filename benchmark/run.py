#!/usr/bin/env python3
"""Benchmark of essnorm-lab: three workloads, checked outputs, a traced run.

Usage, from the root of the repository:

    python3 benchmark/run.py --workload refine|ensemble|estimator \
        --seed N --seconds S --trace 0|1

Every unit of a workload runs in a fresh process (``benchmark/worker.py``)
with ``PYTHONPATH=src`` and ``ESSNORM_LAB_WORKERS`` unset.  Units run one
after another, closed loop, until ``--seconds`` have passed; a unit that
has started always finishes.  Each unit's outputs are checked here against
values computed apart from the program (``checks.py``).

``--trace 0`` reports the end-to-end metrics as medians over the units.
``--trace 1`` runs rounds of one untraced unit of the chosen workload and
one traced unit of every workload, and reports the per-layer metrics
(totals over the three traced units, median over rounds), the tracing
overhead, the kernel micro-timings and the CLI round trip of every
``configs/*.json``.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it give each metric by name,
unit and sample count.  The run exits with code 2, printing no result,
when the program's sources are not in the working directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import inputs

HERE = Path(__file__).resolve().parent
OUT = Path("benchmark") / "out"
DEADLINE_S = 170.0

END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB", "bound_tightness": "ratio"}

PER_LAYER = {
    "cli.import_s": "s",
    "experiments.parse_s": "s",
    "experiments.run_scenario_self_s": "s",
    "experiments.emit_s": "s",
    "experiments.emit_bytes": "bytes",
    "measure.build_space_s": "s",
    "measure.build_space_calls": "count",
    "measure.cell_averages_s": "s",
    "measure.cell_averages_points": "count",
    "lpspace.norm_p_s": "s",
    "lpspace.norm_p_calls": "count",
    "lpspace.normalized_indicator_s": "s",
    "operators.discretize_s": "s",
    "operators.dense_alloc_bytes": "bytes",
    "operators.matrix_operator_calls": "count",
    "operators.pinch_s": "s",
    "operators.pinch_calls": "count",
    "operators.p1_column_quotients_s": "s",
    "operators.p1_column_quotients_calls": "count",
    "operators.opnorm_p1_s": "s",
    "operators.matvec_s": "s",
    "operators.opnorm_estimate_s": "s",
    "operators.opnorm_estimate_calls": "count",
    "lattice.join_meet_modulus_s": "s",
    "lattice.centre_project_s": "s",
    "lattice.regular_norm_s": "s",
    "essnorm.witness_lower_bound_s": "s",
    "essnorm.witness_candidates": "count",
    "essnorm.verify_certificate_s": "s",
    "essnorm.pinching_lower_bound_s": "s",
    "essnorm.qn_decay_profile_s": "s",
    "operators.opnorm_p1.n8_s": "s",
    "operators.opnorm_p1.n256_s": "s",
    "operators.opnorm_p1.n4096_s": "s",
    "operators.p1_column_quotients.n8_s": "s",
    "operators.p1_column_quotients.n256_s": "s",
    "operators.p1_column_quotients.n4096_s": "s",
    "operators.opnorm_estimate.n8_s": "s",
    "operators.opnorm_estimate.n256_s": "s",
    "essnorm.witness_lower_bound.n256_s": "s",
    "essnorm.witness_lower_bound.n4096_s": "s",
    "trace.overhead_s": "s",
}

# operations per unit: one per checked result
_L0, _L1 = inputs.REFINE_LEVELS
_E0, _E1 = inputs.ESTIMATOR_LEVELS
_K0, _K1 = inputs.ATOMIC_K_RANGE
OPS = {
    "refine": _L1 - _L0 + 1,
    "ensemble": inputs.PINCH_TRIALS + inputs.LATTICE_TRIALS + (_K1 - _K0 + 1) + inputs.QN_COUNT + 1,
    # per operator: three estimates and one centre projection; per
    # certificate: the bound, its verification and the regular norm
    "estimator": 4 * inputs.ESTIMATOR_TRIALS + len(inputs.ESTIMATOR_PS) * (_E1 - _E0 + 1),
}


class UnitFailed(Exception):
    pass


class Run:
    """Counts, check errors and references shared by the units of one run."""

    def __init__(self, root: Path, seed: int, deadline: float):
        self.root = root
        self.seed = seed
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.references: dict[str, object] = {}
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.env.pop("ESSNORM_LAB_WORKERS", None)

    def timeout(self) -> float:
        return max(1.0, self.deadline - time.monotonic())

    def worker(self, *args: str) -> dict:
        cmd = [sys.executable, str(HERE / "worker.py"), *args]
        proc = subprocess.run(
            cmd + ["--spawn", repr(time.monotonic())],
            cwd=self.root, env=self.env, capture_output=True, text=True, timeout=self.timeout(),
        )
        if proc.returncode != 0:
            raise UnitFailed(proc.stderr.strip().splitlines()[-1:] or [f"exit {proc.returncode}"])
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def unit(self, workload: str, trace: int) -> dict | None:
        """Run and check one unit; None when the process failed."""
        self.attempted += OPS[workload]
        out = self.root / OUT / workload
        try:
            res = self.worker("unit", "--workload", workload, "--seed", str(self.seed),
                              "--trace", str(trace), "--out", str(out))
        except (UnitFailed, subprocess.TimeoutExpired) as e:
            self.failed += OPS[workload]
            print(f"{workload}: unit failed: {e}", file=sys.stderr)
            return None
        if workload not in self.references:
            self.references[workload] = checks.REFERENCES[workload](self.seed)
        errors, ratios, failed = checks.CHECKERS[workload](self.references[workload], res.pop("outputs"))
        self.errors += errors
        self.failed += failed
        if not ratios:
            self.errors.append(f"{workload}: no certified bound to compare")
        res["bound_tightness"] = statistics.fmean(ratios) if ratios else 0.0
        return res


def _metric(name: str, value: float, unit: str, samples: int) -> tuple[str, dict]:
    print(f"{name} = {value:.6g} {unit} (median of {samples})")
    return name, {"value": value, "unit": unit}


def timed_run(run: Run, workload: str, seconds: float) -> dict:
    units = []
    start = time.monotonic()
    while not units or time.monotonic() - start < seconds:
        res = run.unit(workload, 0)
        if res is None:
            if time.monotonic() - start >= seconds:
                break
            continue
        units.append(res)
    if not units:
        raise UnitFailed(["no unit of the workload completed"])
    return dict(
        _metric(name, statistics.median(u[name] for u in units), unit, len(units))
        for name, unit in END_TO_END.items()
    )


def cli_roundtrip(run: Run) -> None:
    """Every configs/*.json twice through the CLI, against in-process emit."""
    base = run.root / OUT / "roundtrip"
    shutil.rmtree(base, ignore_errors=True)
    configs = sorted(str(p) for p in (run.root / "configs").glob("*.json"))
    run.attempted += len(configs)
    try:
        run.worker("emit", "--out", str(base / "inproc"), "--configs", *configs)
    except (UnitFailed, subprocess.TimeoutExpired) as e:
        run.failed += len(configs)
        print(f"roundtrip: in-process emit failed: {e}", file=sys.stderr)
        return
    for tag in ("first", "second"):
        for config in configs:
            run.attempted += 1
            proc = subprocess.run(
                [sys.executable, "-m", "essnorm_lab.cli", "run", "--config", config,
                 "--out", str(base / tag)],
                cwd=run.root, env=run.env, capture_output=True, text=True, timeout=run.timeout(),
            )
            if proc.returncode != 0:
                run.failed += 1
                print(f"roundtrip: {config} exited {proc.returncode}", file=sys.stderr)
            bad = [ln for ln in proc.stdout.splitlines() if not ln.startswith("wrote ") and not ln.endswith(": PASS")]
            run.errors += [f"roundtrip {config}: {ln}" for ln in bad]
    expected = sorted(p.name for p in (base / "inproc").iterdir())
    for tag in ("first", "second"):
        if sorted(p.name for p in (base / tag).iterdir()) != expected:
            run.errors.append(f"roundtrip: {tag} CLI run wrote other files than the in-process emit")
            continue
        for name in expected:
            if (base / tag / name).read_bytes() != (base / "inproc" / name).read_bytes():
                run.errors.append(f"roundtrip: {tag}/{name} differs from the in-process emit")
        report_lines = [ln for name in expected if name.endswith(".report.txt")
                        for ln in (base / tag / name).read_text().splitlines()]
        run.errors += [f"roundtrip {tag}: {ln}" for ln in checks.report_errors("cli", report_lines)]


def traced_run(run: Run, workload: str, seconds: float) -> dict:
    untraced: list[float] = []
    traced: list[float] = []
    rounds: list[dict[str, float]] = []
    start = time.monotonic()
    while not rounds or time.monotonic() - start < seconds:
        plain = run.unit(workload, 0)
        totals: dict[str, float] = {}
        complete = plain is not None
        for w in inputs.WORKLOADS:
            res = run.unit(w, 1)
            if res is None:
                complete = False
                continue
            for name, value in res["layers"].items():
                totals[name] = totals.get(name, 0) + value
            if w == workload and plain is not None:
                untraced.append(plain["run_s"])
                traced.append(res["run_s"])
        if complete:
            rounds.append(totals)
        elif time.monotonic() - start >= seconds:
            break
    if not rounds:
        raise UnitFailed(["no traced round completed"])
    layers = {name: statistics.median_low(r[name] for r in rounds) for name in rounds[0]}
    layers["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    try:
        layers.update(run.worker("micro", "--seed", str(run.seed), "--out", str(run.root / OUT)))
    except (UnitFailed, subprocess.TimeoutExpired) as e:
        raise UnitFailed([f"micro-timings failed: {e}"]) from None
    cli_roundtrip(run)
    missing = sorted(set(PER_LAYER) - set(layers))
    if missing:
        raise UnitFailed([f"per-layer metrics missing: {missing}"])
    return dict(_metric(name, layers[name], unit, len(rounds)) for name, unit in PER_LAYER.items())


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    root = Path.cwd()
    if not (root / "src" / "essnorm_lab" / "__init__.py").is_file():
        print("error: run from the repository root; src/essnorm_lab is missing", file=sys.stderr)
        return 2
    run = Run(root, args.seed, time.monotonic() + DEADLINE_S)
    try:
        if args.trace:
            metrics = traced_run(run, args.workload, args.seconds)
        else:
            metrics = timed_run(run, args.workload, args.seconds)
    except UnitFailed as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    for err in run.errors[:20]:
        print(f"check failed: {err}", file=sys.stderr)
    print(json.dumps({
        "correct": not run.errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
