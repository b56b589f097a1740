"""One repetition of one workload, in a fresh interpreter.

``run.py`` starts this script once per repetition so that no process-level
memo carries over from one repetition to the next.  It runs every item of
the workload back to back in this one process and thread, and prints one
line, ``PERFBENCH_REP <json>``, with the item outcomes, timings and — with
``--traced`` — the per-layer trace.

Usage (normally only through ``run.py``; ``src`` must be importable)::

    PYTHONPATH=src python3 perfbench/rep.py --workload fault_matrix --seed 2016
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback
from collections import defaultdict

MARKER = "PERFBENCH_REP "
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")

_first_run: list[float] = []


def _stamp_first_run() -> None:
    """Record the clock when any simulator first starts running events,
    then put the engines' ``run`` methods back untouched."""
    import repro.sim.core as sim_core

    classes = [c for c in vars(sim_core).values() if isinstance(c, type)]
    engines = [c for c in classes if issubclass(c, sim_core.Simulator)]
    originals = {c: c.__dict__["run"] for c in engines if "run" in c.__dict__}

    def restore() -> None:
        for cls, run in originals.items():
            cls.run = run

    for cls, run in originals.items():

        def first_run(self, *args, _run=run, **kwargs):
            if not _first_run:
                _first_run.append(time.monotonic())
                restore()
            return _run(self, *args, **kwargs)

        cls.run = first_run


def provenance() -> dict:
    import numpy

    from repro.dataplane import default_dataplane_kind
    from repro.hw.flash import default_ssd_kind
    from repro.net.fabric import default_fabric_kind
    from repro.sim.core import default_engine_kind

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "engine": default_engine_kind(),
        "fabric": default_fabric_kind(),
        "dataplane": default_dataplane_kind(),
        "ssd": default_ssd_kind(),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="python3 perfbench/rep.py")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--traced", action="store_true")
    args = p.parse_args(argv)

    tracer = None
    if args.traced:
        from layertrace import LayerTrace

        tracer = LayerTrace(SRC_DIR, BENCH_DIR)
        tracer.profile.enable()
    _stamp_first_run()
    from workloads import WORKLOADS, Outcome

    if tracer is not None:
        tracer.install()

    units = list(WORKLOADS[args.workload](args.seed))
    outcomes: list[Outcome] = []
    observed: dict[str, float] = defaultdict(float)
    t0 = time.monotonic()
    for labels, run in units:
        try:
            got, seen = run()
        except Exception as exc:  # an item that raises is a failed item
            traceback.print_exc()
            problem = f"{type(exc).__name__}: {exc}"
            got, seen = [Outcome(x, "", [problem]) for x in labels], {}
        if tracer is not None:
            tracer.harvest()
        outcomes.extend(got)
        for key, value in seen.items():
            observed[key] += value
    wall = time.monotonic() - t0
    if tracer is not None:
        tracer.profile.disable()

    report = {
        "outcomes": [[o.item, o.digest, o.problems] for o in outcomes],
        "items_wall_s": wall,
        "first_event_t": _first_run[0] if _first_run else t0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "provenance": provenance(),
        "observed": dict(observed),
        "trace": None,
    }
    if tracer is not None:
        report["trace"] = {
            "layer_s": tracer.layer_seconds(),
            "counts": dict(tracer.counts),
        }
    print(MARKER + json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
