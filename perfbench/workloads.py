"""The benchmark's three workloads, and how every item's output is checked.

An *item* is one grid point (``ior_grid``), one fault scenario
(``fault_matrix``) or one fleet job (``fleet_mixed``).  Each workload is a
list of *units* — one call into the simulator — and each unit yields one
:class:`Outcome` per item it covers.  The runners are called directly
(``run_experiment``, ``run_fault_experiment``, ``run_fleet(row_cache=None)``)
so neither the on-disk result cache nor the in-process memo of the sweep
layer can answer for the simulator.

Each unit also returns the simulated-time observations the traced run
reports (``fleet.sim_*``, ``faults.sim_recovery_s``); they are summed over
units.

An outcome carries a digest of the item's simulated output (diagnostic
event counts excluded: they measure the engine, not the model) and the
list of problems the program's own checks found.  ``run.py`` compares the
digests across the repetitions of a run and against ``reference.json``.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterator

from repro.experiments.faultsweep import fault_matrix_specs, run_fault_experiment
from repro.experiments.runner import CACHE_MODES, ExperimentSpec, run_experiment
from repro.fleet import FleetSpec, run_fleet
from repro.units import MiB

# ior_grid: the corners of the paper's aggregator x buffer grid at 1/32 of the
# paper's data volume.  8 aggregators cannot hide the cache flush behind the
# compute delay, 64 can; 4 MiB and 64 MiB buffers bracket the round counts.
IOR_AGGREGATORS = (8, 64)
IOR_CB_MIB = (4, 64)
IOR_SCALE = 1 / 32

FLEET_JOBS = 128
FLEET_SCALE = 1 / 32

# Each scenario's reference + faulted pair takes about 0.5 s of host time.
FAULT_SCALE = 16


@dataclass
class Outcome:
    item: str
    digest: str
    problems: list[str] = field(default_factory=list)


def digest(obj) -> str:
    """Short content hash of a JSON-safe object (floats hash bit-exactly)."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


Observed = dict[str, float]
Unit = tuple[list[str], Callable[[], tuple[list[Outcome], Observed]]]


# -- ior_grid ----------------------------------------------------------------
def _ior_point(label: str, spec: ExperimentSpec) -> tuple[list[Outcome], Observed]:
    result = run_experiment(spec)
    out = result.to_dict()
    del out["events"]
    problems = []
    # flush_none never persists cached bytes; every other mode persists all.
    total = spec.num_files * result.file_size
    expected = 0 if spec.cache_mode == "theoretical" else total
    if result.bytes_persisted != expected:
        problems.append(f"persisted {result.bytes_persisted} B, expected {expected}")
    if not (math.isfinite(result.bw) and result.bw > 0):
        problems.append(f"bandwidth {result.bw!r}")
    return [Outcome(label, digest(out), problems)], {}


def ior_grid(seed: int) -> Iterator[Unit]:
    for aggregators in IOR_AGGREGATORS:
        for cb_mib in IOR_CB_MIB:
            for mode in CACHE_MODES:
                spec = ExperimentSpec(
                    benchmark="ior",
                    aggregators=aggregators,
                    cb_buffer=cb_mib * MiB,
                    cache_mode=mode,
                    scale=IOR_SCALE,
                    seed=seed,
                )
                label = f"{spec.label}/{mode}"
                yield [label], partial(_ior_point, label, spec)


# -- fault_matrix ------------------------------------------------------------
def _fault_point(label: str, spec) -> tuple[list[Outcome], Observed]:
    result = run_fault_experiment(spec)
    out = result.to_dict()
    del out["events"]
    problems = []
    if not result.integrity_ok:
        problems.append("persisted files differ from the fault-free reference")
    problems.extend(f"invariant: {v}" for v in result.invariant_violations)
    if spec.faults and not result.faults_injected:
        problems.append("no fault was injected")
    observed = {"faults.sim_recovery_s": result.recovery_time}
    return [Outcome(label, digest(out), problems)], observed


def fault_matrix(seed: int) -> Iterator[Unit]:
    for spec in fault_matrix_specs(scale=FAULT_SCALE, seed=seed):
        yield [spec.scenario], partial(_fault_point, spec.scenario, spec)


# -- fleet_mixed -------------------------------------------------------------
def _fleet(labels: list[str], spec: FleetSpec) -> tuple[list[Outcome], Observed]:
    result = run_fleet(spec, row_cache=None)
    identity = result.identity()
    rows = identity.pop("jobs")
    if len(rows) != len(labels):
        raise RuntimeError(f"{len(rows)} job rows for {len(labels)} jobs")
    # A job's output is its row plus the fleet aggregate it feeds.
    fleet_digest = digest(identity)
    outcomes = []
    for label, job, row in zip(labels, result.jobs, rows):
        problems = []
        if job.status != "ok":
            problems.append(f"status {job.status}")
        problems.extend(f"slo: {v}" for v in job.slo_violations)
        outcomes.append(Outcome(label, digest([row, fleet_digest]), problems))
    observed = {
        "fleet.sim_queue_wait_mean_s": result.summary["queue_wait_mean"],
        "fleet.sim_stretch_p95": result.summary["stretch_p95"],
    }
    return outcomes, observed


def fleet_mixed(seed: int) -> Iterator[Unit]:
    # Jobs cycle ior/coll_perf/flash_io x cache on/off over 1/2/4-node shapes,
    # Poisson arrivals, backfill, on the 16-node test cluster (FleetSpec's
    # defaults); the solo reference runs are part of the unit.
    spec = FleetSpec(fleet_size=FLEET_JOBS, scale=FLEET_SCALE, seed=seed)
    labels = [f"j{i}" for i in range(spec.fleet_size)]
    yield labels, partial(_fleet, labels, spec)


WORKLOADS: dict[str, Callable[[int], Iterator[Unit]]] = {
    "ior_grid": ior_grid,
    "fleet_mixed": fleet_mixed,
    "fault_matrix": fault_matrix,
}
