"""The ext2ph model memo must be transparent.

``_prepare_model`` caches its per-round arrays in one LRU memo per physical
machine, under a key normalised for file-offset translation and for node
placement, so a collective call that repeats an earlier call's shape — at
another file offset, or in another job on other nodes — reuses the earlier
arrays.  These tests prove the reuse changes no simulated quantity: a
differential oracle against runs with the memo disabled, a direct check of
the restored coverage on a cross-offset hit, cross-placement hits, keys
that must stay apart, LRU eviction at the cap, and a fleet guard that each
shape misses once per machine.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.access import RankAccess, merge_extent_arrays
from repro.config import small_testbed
from repro.experiments.faultsweep import (
    FaultExperimentSpec,
    fault_hints_for,
    run_fault_experiment,
    scenario_faults,
)
from repro.fleet import FleetSpec, run_fleet
from repro.fleet.view import JobView
from repro.machine import Machine
from repro.mpi.process import MPIWorld
from repro.romio import ext2ph
from repro.romio.file import MPIIOLayer
from repro.sim.profile import SimProfiler
from repro.units import KiB
from repro.workloads import ior_workload


def _disable_memo(monkeypatch):
    monkeypatch.setattr(ext2ph, "_model_cache_key", lambda fd, call, cb: None)


@pytest.fixture
def no_memo(monkeypatch):
    """Disable the memo: every call computes its model arrays afresh."""
    _disable_memo(monkeypatch)


@pytest.fixture
def keys(monkeypatch):
    """Record ``(fd, key)`` for every memo lookup, in call order."""
    seen = []
    real = ext2ph._model_cache_key

    def record(fd, call, cb):
        key = real(fd, call, cb)
        seen.append((fd, key))
        return key

    monkeypatch.setattr(ext2ph, "_model_cache_key", record)
    return seen


def _fault_point(scenario):
    base = FaultExperimentSpec(benchmark="ior", scenario=scenario)
    faults, timeout = scenario_faults(scenario, base)
    result = run_fault_experiment(
        base.scaled(faults=faults, sync_rpc_timeout=timeout)
    ).to_dict()
    del result["events"]  # engine diagnostic, not a simulated quantity
    return result


def _fleet(size=16):
    spec = FleetSpec(fleet_size=size, scale=1 / 32, seed=5, backfill=True)
    return run_fleet(spec).identity()


class TestDifferentialOracle:
    @pytest.fixture(scope="class")
    def memoised(self):
        return {
            "baseline": _fault_point("baseline"),
            "agg_crash": _fault_point("agg_crash"),
            "fleet": _fleet(),
            "fleet32": _fleet(32),
        }

    @pytest.mark.parametrize("scenario", ["baseline", "agg_crash"])
    def test_fault_point_unchanged_without_memo(self, memoised, no_memo, scenario):
        assert _fault_point(scenario) == memoised[scenario]

    def test_fleet_unchanged_without_memo(self, memoised, no_memo):
        assert _fleet() == memoised["fleet"]

    def test_backfill_fleet_unchanged_without_memo(self, memoised, no_memo):
        # 32 jobs with backfill: the same shapes land on many placements.
        assert _fleet(32) == memoised["fleet32"]


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


# -- placement invariance, key coverage and eviction --------------------------
HINTS = {
    "romio_cb_write": "enable",
    "cb_buffer_size": str(32 * KiB),
    "striping_unit": str(64 * KiB),
    "striping_factor": "4",
}
BLOCK = 16 * KiB


def _strided(rank, nranks, blocks):
    """``blocks`` interleaved 16 KiB extents: every aggregator hears from
    every rank, so the exchange crosses nodes."""
    offsets = np.array([(i * nranks + rank) * BLOCK for i in range(blocks)])
    return RankAccess(offsets, np.full(blocks, BLOCK))


def _run_job(owner, path, shapes=(8,)):
    """One open, a collective write per entry of ``shapes`` (extents per
    rank), close; returns the simulated duration and every rank's phases."""
    world = MPIWorld(owner)
    layer = MPIIOLayer(owner, world.comm, driver="beegfs", exchange_mode="model")
    nranks = world.comm.size
    phases = {}

    def body(ctx):
        fh = yield from layer.open(ctx.rank, path, HINTS)
        for blocks in shapes:
            yield from fh.write_all(_strided(ctx.rank, nranks, blocks))
        yield from fh.close()
        phases[ctx.rank] = dict(fh.prof.profile.seconds)

    t0 = owner.sim.now
    world.run(body)
    return owner.sim.now - t0, [phases[r] for r in range(nranks)]


def _counts(profiler):
    c = profiler.counters
    return c.get("ext2ph.model_cache_miss", 0), c.get("ext2ph.model_cache_hit", 0)


class _RoundRobinView(JobView):
    """A job whose ranks are dealt over its nodes one at a time."""

    def node_of_rank(self, rank):
        return self.placement[rank % len(self.placement)]


def test_canonical_nodes_relabel_by_first_occurrence():
    assert ext2ph._canonical_nodes([5, 5, 2, 2]) == (0, 0, 1, 1)
    assert ext2ph._canonical_nodes([3, 7, 3, 7]) == (0, 1, 0, 1)
    assert ext2ph._canonical_nodes([]) == ()


class TestPlacementInvariance:
    def _two_jobs(self, second=JobView):
        profiler = SimProfiler()
        machine = Machine(small_testbed(4, 2), profiler=profiler)
        first = JobView(machine, 0, (0, 1))
        other = second(machine, 1, (2, 3))
        assert other.ext2ph_model_memo is machine.ext2ph_model_memo
        runs = [_run_job(first, "/global/a"), _run_job(other, "/global/b")]
        return runs, profiler

    def test_same_shape_on_disjoint_placements_hits(self, monkeypatch):
        runs, profiler = self._two_jobs()
        assert _counts(profiler) == (1, 1)
        _disable_memo(monkeypatch)
        assert self._two_jobs()[0] == runs

    def test_node_equality_patterns_key_apart(self, keys, monkeypatch):
        # (0, 0, 1, 1) then (0, 1, 0, 1): both jobs must price their own
        # exchange, and each must match a memo-off run.
        runs, profiler = self._two_jobs(_RoundRobinView)
        assert [fd.comm.rank_to_node for fd, _ in keys] == [[0, 0, 1, 1], [2, 3, 2, 3]]
        assert keys[0][1] != keys[1][1]
        assert _counts(profiler) == (2, 0)
        assert runs[0][1] != runs[1][1]  # the pattern changes the exchange
        _disable_memo(monkeypatch)
        assert self._two_jobs(_RoundRobinView)[0] == runs


@pytest.mark.parametrize(
    "network",
    [
        {"alpha_collective": 4e-6},  # CollectiveCosts.alpha
        {"shm_bw": 1e9},  # CollectiveCosts.shm_beta_inv
        {"piece_overhead": 8e-6},
    ],
)
def test_machines_differing_in_one_cost_never_share(network, monkeypatch):
    base = small_testbed(2, 2)
    other = replace(base, network=replace(base.network, **network))
    first = Machine(base)
    profiler = SimProfiler()
    second = Machine(other, profiler=profiler)
    second.ext2ph_model_memo = first.ext2ph_model_memo  # one memo for both
    baseline = _run_job(first, "/global/a")
    shared = _run_job(second, "/global/a")
    assert _counts(profiler) == (1, 0)
    assert shared != baseline  # the parameter matters to the model
    _disable_memo(monkeypatch)
    assert _run_job(Machine(other), "/global/a") == shared


def test_memo_cap_evicts_least_recently_used(keys, monkeypatch):
    monkeypatch.setattr(ext2ph, "_MODEL_CACHE_MAX", 3)
    profiler = SimProfiler()
    machine = Machine(small_testbed(2, 2), profiler=profiler)
    # Shapes 1, 2, 3 fill the memo; 1 hits again; 4 must evict 2, the
    # least recently used, not the whole memo.
    _run_job(machine, "/global/lru", shapes=(1, 2, 3, 1, 4))
    k1, k2, k3, k1_again, k4 = (key for _, key in keys)
    assert k1_again == k1
    assert _counts(profiler) == (4, 1)
    assert list(machine.ext2ph_model_memo) == [k3, k1, k4]
    assert k2 not in machine.ext2ph_model_memo


def test_fleet_misses_once_per_shape(keys):
    """Each collective shape misses once on the fleet's shared machine,
    and shapes are shared across placements (the key has no node ids)."""
    profiler = SimProfiler()
    machines = []

    def attach(machine):
        machine.sim.profiler = profiler
        machines.append(machine)

    run_fleet(FleetSpec(fleet_size=16, scale=1 / 32, seed=5), on_machine=attach)
    (machine,) = machines
    placements = {}
    for fd, key in keys:
        if key is not None and getattr(fd.machine, "machine", None) is machine:
            placements.setdefault(key, set()).add(fd.machine.placement)
    misses, hits = _counts(profiler)
    assert len(machine.ext2ph_model_memo) <= ext2ph._MODEL_CACHE_MAX
    assert misses == len(placements)
    assert hits > misses
    assert max(len(p) for p in placements.values()) > 1
