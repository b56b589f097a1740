"""The ext2ph model memo must be transparent.

``_prepare_model`` caches its per-round arrays under a translation-
normalised key, so a collective call that repeats an earlier call's shape
at another file offset reuses the earlier arrays.  These tests prove the
reuse changes no simulated quantity: a differential oracle against runs
with the memo disabled, and a direct check of the restored coverage on a
cross-offset hit.
"""

import numpy as np
import pytest

from repro.access import merge_extent_arrays
from repro.config import small_testbed
from repro.experiments.faultsweep import (
    FaultExperimentSpec,
    fault_hints_for,
    run_fault_experiment,
    scenario_faults,
)
from repro.fleet import FleetSpec, run_fleet
from repro.machine import Machine
from repro.mpi.process import MPIWorld
from repro.romio import ext2ph
from repro.romio.file import MPIIOLayer
from repro.sim.profile import SimProfiler
from repro.units import KiB
from repro.workloads import ior_workload


@pytest.fixture
def no_memo(monkeypatch):
    """Disable the memo: every call computes its model arrays afresh."""
    monkeypatch.setattr(ext2ph, "_model_cache_key", lambda fd, call, cb: None)


def _fault_point(scenario):
    base = FaultExperimentSpec(benchmark="ior", scenario=scenario)
    faults, timeout = scenario_faults(scenario, base)
    result = run_fault_experiment(
        base.scaled(faults=faults, sync_rpc_timeout=timeout)
    ).to_dict()
    del result["events"]  # engine diagnostic, not a simulated quantity
    return result


def _fleet():
    return run_fleet(FleetSpec(fleet_size=16, scale=1 / 32, seed=5)).identity()


class TestDifferentialOracle:
    @pytest.fixture(scope="class")
    def memoised(self):
        return {
            "baseline": _fault_point("baseline"),
            "agg_crash": _fault_point("agg_crash"),
            "fleet": _fleet(),
        }

    @pytest.mark.parametrize("scenario", ["baseline", "agg_crash"])
    def test_fault_point_unchanged_without_memo(self, memoised, no_memo, scenario):
        assert _fault_point(scenario) == memoised[scenario]

    def test_fleet_unchanged_without_memo(self, memoised, no_memo):
        assert _fleet() == memoised["fleet"]


class TestCrossOffsetHit:
    def test_shifted_segment_hits_and_restores_coverage(self):
        # IOR, 8 ranks x 64 KiB per segment: each segment spans two 256 KiB
        # stripes, so two of the four stripe-aligned domains are empty.
        spec = FaultExperimentSpec(benchmark="ior")
        profiler = SimProfiler()
        machine = Machine(small_testbed(4, 2), profiler=profiler)
        world = MPIWorld(machine)
        layer = MPIIOLayer(machine, world.comm, driver="beegfs", exchange_mode="model")
        workload = ior_workload(world.comm.size, block_bytes=64 * KiB, segments=2)
        handles = {}

        def body(ctx):
            fh = yield from layer.open(ctx.rank, "/global/memo", fault_hints_for(spec))
            for step in workload.steps:
                yield from fh.write_all(step.access_fn(ctx.rank))
            handles[ctx.rank] = fh
            yield from fh.close()

        world.run(body)
        calls = handles[0].fd._calls
        assert [c.min_st for c in calls] == [0, 512 * KiB]
        assert sum(d.size <= 0 for d in calls[1].domains) == 2
        assert profiler.counters.get("ext2ph.model_cache_miss") == 1
        assert profiler.counters.get("ext2ph.model_cache_hit") == 1
        for call in calls:
            accs = call.accesses.values()
            fresh = merge_extent_arrays(
                [a.offsets for a in accs], [a.lengths for a in accs]
            )
            assert np.array_equal(call.merged_cov[0], fresh[0])
            assert np.array_equal(call.merged_cov[1], fresh[1])
        assert list(machine.pfs.lookup("/global/memo").persisted) == [(0, 1024 * KiB)]
