"""Per-layer host-time attribution and work counters for one traced repetition.

Everything here is installed from the benchmark's own files; nothing under
``src/`` is edited.  :class:`LayerTrace` does three things:

* profiles the whole repetition with :mod:`cProfile` — imports and spec
  construction as well as the items — and attributes every profiled
  function's self time to a ``repro`` layer (:meth:`Attributor.attribute`);
* wraps a few constructors and entry points so that every ``Machine``,
  ``JobView`` and ``ADIOFile`` the run builds can be read after each unit,
  and attaches the existing :class:`~repro.sim.profile.SimProfiler` hook to
  every machine for the counters only it sees (the ext2ph model memo);
* sums the layers' public counters into a flat ``{metric: value}`` dict.

All data stays in memory until the repetition ends.
"""

from __future__ import annotations

import cProfile
import os
import pstats
from collections import defaultdict
from typing import Callable, Optional

LAYERS = (
    "sim",
    "net",
    "hw",
    "localfs",
    "pfs",
    "cache",
    "romio",
    "access",
    "mpi",
    "workloads",
    "faults",
    "fleet",
)
# Shared helper modules: like numpy, their time counts against the caller.
HELPERS = ("intervals", "units")
OTHER = "other"  # repro code outside the layers, and frames with no caller
INSTRUMENTATION = "instrumentation"  # the SimProfiler and this benchmark


class Attributor:
    """Map cProfile function keys to owning layers, and charge self time.

    A function in ``repro.<layer>`` owns its own self time.  A function
    outside ``repro`` (numpy, builtins, the standard library) or in a helper
    module owns nothing: its self time is split over its callers in
    proportion to the self time each caller's calls incurred, recursively,
    until a frame with an owner is reached.
    """

    def __init__(self, src_dir: str, bench_dir: str):
        self.repro_dir = os.path.join(os.path.realpath(src_dir), "repro") + os.sep
        self.bench_dir = os.path.realpath(bench_dir) + os.sep
        self._paths: dict[str, Optional[str]] = {}

    def owner(self, filename: str) -> Optional[str]:
        if filename in self._paths:
            return self._paths[filename]
        path = os.path.realpath(filename) if filename.endswith(".py") else ""
        owner: Optional[str] = None
        if path.startswith(self.bench_dir):
            owner = INSTRUMENTATION
        elif path.startswith(self.repro_dir):
            rel = path[len(self.repro_dir):]
            top = rel.split(os.sep, 1)[0].removesuffix(".py")
            if rel == os.path.join("sim", "profile.py"):
                owner = INSTRUMENTATION
            elif top in LAYERS:
                owner = top
            elif top not in HELPERS:
                owner = OTHER
        self._paths[filename] = owner
        return owner

    def attribute(self, stats: dict) -> dict[str, float]:
        """Self seconds per owner from ``pstats.Stats(...).stats``."""
        memo: dict[tuple, dict[str, float]] = {}
        active: set[tuple] = set()

        def shares(func) -> dict[str, float]:
            got = memo.get(func)
            if got is not None:
                return got
            owner = self.owner(func[0])
            if owner is not None:
                memo[func] = {owner: 1.0}
                return memo[func]
            active.add(func)
            edges = [
                (caller, edge[2] or 0.0, edge[0])
                for caller, edge in stats[func][4].items()
                if caller not in active and caller in stats
            ]
            total_tt = sum(tt for _, tt, _ in edges)
            total_nc = sum(nc for _, _, nc in edges)
            out: dict[str, float] = defaultdict(float)
            for caller, tt, nc in edges:
                weight = tt / total_tt if total_tt > 0 else nc / total_nc
                for name, share in shares(caller).items():
                    out[name] += weight * share
            active.discard(func)
            result = dict(out) if out else {OTHER: 1.0}
            memo[func] = result
            return result

        seconds: dict[str, float] = defaultdict(float)
        for func, (_, _, tt, _, _) in stats.items():
            if tt:
                for name, share in shares(func).items():
                    seconds[name] += tt * share
        return dict(seconds)


def _wrap(owner, name: str, before: Callable) -> None:
    """Replace ``owner.name`` with a call-through that runs ``before`` first.
    Nothing is unwrapped: a traced repetition is a process of its own."""
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        before(args, kwargs)
        return original(*args, **kwargs)

    setattr(owner, name, wrapper)


class LayerTrace:
    """One traced repetition: profile, hooks, counters."""

    def __init__(self, src_dir: str, bench_dir: str):
        self.attributor = Attributor(src_dir, bench_dir)
        self.profile = cProfile.Profile()
        self.counts: dict[str, float] = defaultdict(float)
        self._machines: list = []
        self._views: list = []
        self._fds: list = []

    # -- hooks -----------------------------------------------------------------
    def install(self) -> None:
        import repro.fleet.runner as fleet_runner
        from repro.analysis.breakdown import breakdown_from_profiles
        from repro.fleet.view import JobView
        from repro.machine import Machine
        from repro.romio.fd import ADIOFile
        from repro.romio.file import MPIFileHandle
        from repro.sim.profile import SimProfiler

        self._breakdown = breakdown_from_profiles

        def on_machine(args, kwargs):
            # Machine(config, trace, faults, profiler, dataplane)
            if kwargs.get("profiler") is None and len(args) < 5:
                kwargs["profiler"] = SimProfiler()
            self._machines.append(args[0])

        def count(key):
            def bump(args, kwargs):
                self.counts[key] += 1

            return bump

        _wrap(Machine, "__init__", on_machine)
        _wrap(JobView, "__init__", lambda a, k: self._views.append(a[0]))
        _wrap(ADIOFile, "__init__", lambda a, k: self._fds.append(a[0]))
        _wrap(MPIFileHandle, "write_all", count("romio.coll_writes"))
        _wrap(fleet_runner, "_solo_reference", count("fleet.solo_runs"))

    # -- counters --------------------------------------------------------------
    def harvest(self) -> None:
        """Fold the state of everything the last unit built into the counts,
        then drop the references so finished machines can be freed.  The
        profile is paused meanwhile: this is the benchmark's work."""
        self.profile.disable()
        c = self.counts
        for m in self._machines:
            c["sim.events"] += m.sim.events_fired
            c["net.rate_cache_hits"] += getattr(m.fabric, "rate_cache_hits", 0)
            c["net.rate_solves"] += getattr(m.fabric, "rate_cache_misses", 0)
            c["pfs.rpcs"] += sum(s.rpcs_served for s in m.pfs.servers)
            c["hw.device_requests"] += sum(
                n.ssd.requests_served + n.nvmm.requests_served for n in m.nodes
            ) + sum(s.target.requests_served for s in m.pfs.servers)
            if m.faults is not None:
                c["faults.injected"] += m.faults.injected
            counters = m.sim.profiler.counters if m.sim.profiler else {}
            c["romio.memo_hits"] += counters.get("ext2ph.model_cache_hit", 0)
            c["romio.memo_misses"] += counters.get("ext2ph.model_cache_miss", 0)
        for owner in self._machines + self._views:
            c["cache.bytes_flushed"] += owner.io_stats["bytes_flushed"]
            c["cache.bytes_replayed"] += owner.io_stats["bytes_replayed"]
            c["cache.retries"] += owner.cache_stats["retries"]
            c["cache.sync_failures"] += owner.cache_stats["sync_failures"]
        for fd in self._fds:
            phases = self._breakdown([p.profile for p in fd.profilers.values()])
            c["romio.sim_shuffle_s"] += phases.get("shuffle_all2all", 0.0)
            c["romio.sim_shuffle_s"] += phases.get("comm", 0.0)
            c["romio.sim_write_s"] += phases.get("write", 0.0)
            c["romio.sim_post_write_s"] += phases.get("post_write", 0.0)
            c["cache.sim_not_hidden_sync_s"] += phases.get("not_hidden_sync", 0.0)
        self._machines.clear()
        self._views.clear()
        self._fds.clear()
        self.profile.enable()

    def layer_seconds(self) -> dict[str, float]:
        return self.attributor.attribute(pstats.Stats(self.profile).stats)
