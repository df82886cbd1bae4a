"""One fresh process of the benchmark; started by ``run.py``.

Modes:

``unit``   one unit of a workload.  ``setup_s`` runs from ``--spawn`` (the
           orchestrator's monotonic clock just before it started this
           process) to inputs ready: ``essnorm_lab`` imported, configs
           generated, parsed and validated.  ``run_s`` runs from inputs ready
           to every result computed and written.  ``peak_rss_mb`` is read
           right after, before anything else is done.  With ``--trace 1`` the
           tracer wraps the library first and the span summary is returned.
``micro``  kernel micro-timings on the refine operator, untraced.
``emit``   in-process run and emit of config files (CLI round trip).

Prints one JSON object on stdout.  Needs ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import json
import resource
import time
from pathlib import Path


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("unit", "micro", "emit"))
    ap.add_argument("--workload", default="refine")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--spawn", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--configs", nargs="*", default=[])
    args = ap.parse_args()

    start = time.perf_counter()
    import essnorm_lab.cli  # noqa: F401  (what the essnorm-lab command loads)
    import_s = time.perf_counter() - start

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    import workloads

    if args.mode == "micro":
        print(json.dumps(workloads.micro(args.seed)))
        return
    if args.mode == "emit":
        workloads.emit_configs(args.configs, args.out)
        print("{}")
        return

    state = workloads.SETUP[args.workload](args.seed)
    ready = time.monotonic()
    start = time.perf_counter()
    computed = workloads.RUN[args.workload](state, args.out)
    run_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "setup_s": ready - args.spawn,
        "run_s": run_s,
        "peak_rss_mb": peak_rss_mb,
        "outputs": workloads.outputs(args.workload, computed, args.out),
    }
    if tracer is not None:
        layers = tracer.summary()
        layers["cli.import_s"] = import_s
        result["layers"] = layers
        tracer.write(args.out / "trace" / f"{args.workload}.spans.json")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
