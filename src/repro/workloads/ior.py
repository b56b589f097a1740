"""IOR: segmented shared-file collective writes.

The paper's configuration: each of the 512 ranks writes one 8 MB block per
segment for 8 segments — a 32 GB shared file.  IOR issues one collective
write per segment; within a segment the blocks are laid out in rank order:

    offset(rank, segment) = segment * (nprocs * block) + rank * block

Paper correspondence: §IV-D — the IOR runs of Figs. 9/10 (8 MB
transfers, segmented layout).
"""

from __future__ import annotations

from repro.access import RankAccess
from repro.workloads.base import IOStep, Workload, payload_bytes


# Dataless IOR patterns are immutable (RankAccess never mutates after
# construction), so identical shapes share one Workload: the per-rank
# extent arrays are built once per shape instead of once per experiment —
# a measurable slice of grid-sweep wall time at 512 ranks.
_WORKLOAD_CACHE: dict[tuple[int, int, int], Workload] = {}
_WORKLOAD_CACHE_MAX = 16


def ior_workload(
    nprocs: int,
    block_bytes: int = 8 * 1024 * 1024,
    segments: int = 8,
    with_data: bool = False,
    seed: int = 0,
) -> Workload:
    """Build the IOR pattern: ``segments`` collective steps of one block each."""
    if block_bytes <= 0 or segments <= 0:
        raise ValueError("block_bytes and segments must be positive")
    cache_key = None
    if not with_data:
        cache_key = (nprocs, block_bytes, segments)
        cached = _WORKLOAD_CACHE.get(cache_key)
        if cached is not None:
            return cached
    seg_bytes = nprocs * block_bytes

    def make_step(segment: int) -> IOStep:
        accesses: dict[int, RankAccess] = {}

        def access_fn(rank: int) -> RankAccess:
            offset = segment * seg_bytes + rank * block_bytes
            if with_data:
                data = payload_bytes((seed * 7 + segment) * 100003 + rank, block_bytes)
                return RankAccess.contiguous(offset, block_bytes, data)
            # Dataless accesses are immutable; one per (segment, rank) —
            # reused across the files of a phased run.
            acc = accesses.get(rank)
            if acc is None:
                acc = accesses[rank] = RankAccess.contiguous(offset, block_bytes, None)
            return acc

        return IOStep.collective(access_fn, label=f"segment{segment}")

    workload = Workload(
        name="ior",
        nprocs=nprocs,
        steps=tuple(make_step(s) for s in range(segments)),
        bytes_per_rank=block_bytes * segments,
        file_size=seg_bytes * segments,
        detail={"block_bytes": block_bytes, "segments": segments},
    )
    if cache_key is not None:
        if len(_WORKLOAD_CACHE) >= _WORKLOAD_CACHE_MAX:
            _WORKLOAD_CACHE.clear()
        _WORKLOAD_CACHE[cache_key] = workload
    return workload
