"""Shared fixtures: small simulated clusters and SPMD helpers."""

from __future__ import annotations

import pytest

from repro.chaos.invariants import InvariantMonitor
from repro.config import small_testbed
from repro.machine import Machine
from repro.mpi.process import MPIWorld
from repro.romio.file import MPIIOLayer
from repro.units import KiB


@pytest.fixture
def machine():
    """A 4-node × 2-rank cluster with exact (unbatched) flush simulation."""
    return Machine(small_testbed())


@pytest.fixture
def world(machine):
    return MPIWorld(machine)


@pytest.fixture
def romio(machine, world):
    """Flow-fidelity ROMIO over the small machine (data verification works)."""
    return MPIIOLayer(machine, world.comm, driver="beegfs", exchange_mode="flow")


@pytest.fixture
def spmd(machine, world):
    """Run a rank body across all ranks and return per-rank results."""

    def run(body):
        return world.run(body)

    return run


def make_cluster(num_nodes=4, procs_per_node=2, driver="beegfs", exchange="flow", **overrides):
    """Non-fixture helper for tests needing custom cluster shapes."""
    machine = Machine(small_testbed(num_nodes, procs_per_node, **overrides))
    world = MPIWorld(machine)
    layer = MPIIOLayer(machine, world.comm, driver=driver, exchange_mode=exchange)
    return machine, world, layer


def drop_persisted_head(monkeypatch):
    """Make every faulted machine lose ``[0, 4 KiB)`` of each file's persisted
    coverage after the run, leaving sizes (and so checksums) untouched."""
    original = InvariantMonitor.check_quiescent

    def check_then_drop(self):
        original(self)
        if self.machine.faults is not None:
            for f in self.machine.pfs._files.values():
                f.persisted.remove(0, 4 * KiB)

    monkeypatch.setattr(InvariantMonitor, "check_quiescent", check_then_drop)
