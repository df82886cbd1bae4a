"""In-memory span tracer over the public functions of each module.

``install`` replaces each traced function with a wrapper that records a
span: name, start, end, the span that caused it, and an optional value
(bytes allocated, points evaluated, bytes written).  The modules import
functions by name, so a function is replaced in every ``essnorm_lab``
module that binds it, the package namespace included; methods are
replaced on their class.  Spans stay in a list until ``summary`` reduces
them to the per-layer metrics at the end of a unit.

Spans opened on a worker thread of the scenario thread pool, with no
span of their own thread open, belong to the span open on the main
thread: that is the call that started the pool.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from pathlib import Path

# (module, attribute path, span name, value of the span or None)
TARGETS = [
    ("measure", "build_space", "measure.build_space", None),
    ("measure", "MeasureSpace.cell_averages", "measure.cell_averages",
     lambda args, out: 2 * len(out)),  # two Gauss points per cell
    ("lpspace", "norm_p", "lpspace.norm_p", None),
    ("lpspace", "normalized_indicator", "lpspace.normalized_indicator", None),
    ("operators", "MatrixOperator.__init__", "operators.matrix_operator",
     lambda args, out: 8 * args[0].dimension ** 2),
    ("operators", "MatrixOperator.matvec", "operators.matvec", None),
    ("operators", "MultiplicationOperator.matvec", "operators.matvec", None),
    ("operators", "FunctionKernel.discretize", "operators.discretize", None),
    ("operators", "pinch", "operators.pinch", None),
    ("operators", "p1_column_quotients", "operators.p1_column_quotients", None),
    ("operators", "opnorm_p1", "operators.opnorm_p1", None),
    ("operators", "opnorm_estimate", "operators.opnorm_estimate", None),
    ("lattice", "join", "lattice.join_meet_modulus", None),
    ("lattice", "meet", "lattice.join_meet_modulus", None),
    ("lattice", "modulus", "lattice.join_meet_modulus", None),
    ("lattice", "centre_project", "lattice.centre_project", None),
    ("lattice", "regular_norm", "lattice.regular_norm", None),
    ("essnorm", "witness_lower_bound", "essnorm.witness_lower_bound", None),
    ("essnorm", "perturbed_ratio", "essnorm.perturbed_ratio", None),
    ("essnorm", "verify_certificate", "essnorm.verify_certificate", None),
    ("essnorm", "pinching_lower_bound", "essnorm.pinching_lower_bound", None),
    ("essnorm", "qn_decay_profile", "essnorm.qn_decay_profile", None),
    ("experiments", "ExperimentConfig.from_dict", "experiments.parse", None),
    ("experiments", "run_scenario", "experiments.run_scenario", None),
    ("experiments", "emit", "experiments.emit",
     lambda args, out: sum(Path(p).stat().st_size for p in out)),
]

# span name -> metric of its time, counted over outermost spans of the name
TIME_METRICS = {
    "experiments.parse": "experiments.parse_s",
    "experiments.emit": "experiments.emit_s",
    "measure.build_space": "measure.build_space_s",
    "measure.cell_averages": "measure.cell_averages_s",
    "lpspace.norm_p": "lpspace.norm_p_s",
    "lpspace.normalized_indicator": "lpspace.normalized_indicator_s",
    "operators.discretize": "operators.discretize_s",
    "operators.pinch": "operators.pinch_s",
    "operators.p1_column_quotients": "operators.p1_column_quotients_s",
    "operators.opnorm_p1": "operators.opnorm_p1_s",
    "operators.matvec": "operators.matvec_s",
    "operators.opnorm_estimate": "operators.opnorm_estimate_s",
    "lattice.join_meet_modulus": "lattice.join_meet_modulus_s",
    "lattice.centre_project": "lattice.centre_project_s",
    "lattice.regular_norm": "lattice.regular_norm_s",
    "essnorm.witness_lower_bound": "essnorm.witness_lower_bound_s",
    "essnorm.verify_certificate": "essnorm.verify_certificate_s",
    "essnorm.pinching_lower_bound": "essnorm.pinching_lower_bound_s",
    "essnorm.qn_decay_profile": "essnorm.qn_decay_profile_s",
}
CALL_METRICS = {
    "measure.build_space": "measure.build_space_calls",
    "lpspace.norm_p": "lpspace.norm_p_calls",
    "operators.matrix_operator": "operators.matrix_operator_calls",
    "operators.pinch": "operators.pinch_calls",
    "operators.p1_column_quotients": "operators.p1_column_quotients_calls",
    "operators.opnorm_estimate": "operators.opnorm_estimate_calls",
}
VALUE_METRICS = {
    "measure.cell_averages": "measure.cell_averages_points",
    "operators.matrix_operator": "operators.dense_alloc_bytes",
    "experiments.emit": "experiments.emit_bytes",
}
SELF_METRICS = {"experiments.run_scenario": "experiments.run_scenario_self_s"}


class Tracer:
    def __init__(self) -> None:
        # (id, name, start, end, parent id or 0, value)
        self.spans: list[tuple[int, str, float, float, int, float]] = []
        self._ids = itertools.count(1)
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.get_ident()

    def _open(self) -> tuple[list[int], int]:
        stack = self._stacks.setdefault(threading.get_ident(), [])
        if stack:
            return stack, stack[-1]
        main = self._stacks.get(self._main)
        return stack, (main[-1] if main else 0)

    def wrap(self, name: str, fn, value=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, parent = self._open()
            sid = next(self._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            self.spans.append((sid, name, start, end, parent, value(args, out) if value else 0))
            return out

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "essnorm_lab" or n.startswith("essnorm_lab.")]
        for module, attr, name, value in TARGETS:
            owner = sys.modules[f"essnorm_lab.{module}"]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            raw = owner.__dict__[leaf] if path else getattr(owner, leaf)
            if isinstance(raw, classmethod):
                setattr(owner, leaf, classmethod(self.wrap(name, raw.__func__, value)))
                continue
            wrapped = self.wrap(name, raw, value)
            if path:
                setattr(owner, leaf, wrapped)
                continue
            for m in modules:
                for key, obj in list(vars(m).items()):
                    if obj is raw:
                        setattr(m, key, wrapped)

    def summary(self) -> dict[str, float]:
        """Per-layer metrics of the spans recorded so far."""
        by_id = {s[0]: s for s in self.spans}
        children: dict[int, list[tuple[float, float]]] = {}
        for sid, _, start, end, parent, _ in self.spans:
            children.setdefault(parent, []).append((start, end))

        def outermost(span) -> bool:
            parent = by_id.get(span[4])
            while parent is not None:
                if parent[1] == span[1]:
                    return False
                parent = by_id.get(parent[4])
            return True

        out = {m: 0.0 for m in TIME_METRICS.values()}
        out.update({m: 0 for m in CALL_METRICS.values()})
        out.update({m: 0 for m in VALUE_METRICS.values()})
        out.update({m: 0.0 for m in SELF_METRICS.values()})
        out["essnorm.witness_candidates"] = 0
        for span in self.spans:
            sid, name, start, end, parent, value = span
            if name in TIME_METRICS and outermost(span):
                out[TIME_METRICS[name]] += end - start
            if name in CALL_METRICS:
                out[CALL_METRICS[name]] += 1
            if name in VALUE_METRICS:
                out[VALUE_METRICS[name]] += value
            if name in SELF_METRICS:
                out[SELF_METRICS[name]] += end - start - _covered(children.get(sid, []))
            if name == "essnorm.perturbed_ratio" and by_id.get(parent, ("",) * 2)[1] == "essnorm.witness_lower_bound":
                out["essnorm.witness_candidates"] += 1
        return out

    def write(self, path: Path) -> None:
        keys = ("id", "name", "start", "end", "parent", "value")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([dict(zip(keys, s)) for s in self.spans]))


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals (children on pool threads overlap)."""
    total = 0.0
    end = float("-inf")
    for s, e in sorted(intervals):
        if e <= end:
            continue
        total += e - max(s, end)
        end = e
    return total
