"""File access patterns: per-rank extent lists.

A :class:`RankAccess` is a rank's flattened file view for one I/O call —
sorted, non-overlapping ``(offset, length)`` extents plus an optional
payload (the flat memory buffer, for data-verification runs).  The two-phase
algorithm spends its time intersecting extents with file-domain windows;
that operation is vectorised here (``searchsorted`` over prefix sums) so
benchmark-scale patterns (millions of extents for coll_perf's 3-D strides)
stay cheap.

``merge_extent_arrays`` computes the union coverage of many ranks' extents
in one vectorised pass — used by the model-fidelity exchange to know which
byte ranges an aggregator must write per round.

Paper correspondence: these are the offset/length lists the extended
two-phase algorithm exchanges in its first step (§II-A).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np


@dataclass(frozen=True)
class WindowSlice:
    """The part of a rank's access that falls inside a window."""

    offsets: np.ndarray  # file offsets of the sub-extents
    lengths: np.ndarray
    nbytes: int
    count: int
    # byte positions (into the rank's flat buffer) where each sub-extent starts
    buffer_starts: np.ndarray


class RankAccess:
    """One rank's sorted extent list with prefix sums."""

    def __init__(
        self,
        offsets: np.ndarray,
        lengths: np.ndarray,
        data: Optional[np.ndarray] = None,
    ):
        offsets = np.asarray(offsets, dtype=np.int64)
        lengths = np.asarray(lengths, dtype=np.int64)
        if offsets.shape != lengths.shape or offsets.ndim != 1:
            raise ValueError("offsets/lengths must be equal-length 1-D arrays")
        if np.any(lengths < 0):
            raise ValueError("negative extent length")
        keep = lengths > 0
        offsets, lengths = offsets[keep], lengths[keep]
        order = np.argsort(offsets, kind="stable")
        self.offsets = offsets[order]
        self.lengths = lengths[order]
        ends = self.offsets + self.lengths
        if len(self.offsets) > 1 and np.any(self.offsets[1:] < ends[:-1]):
            raise ValueError("extents overlap")
        self.ends = ends
        # prefix[i] = bytes in extents [0, i)
        self.prefix = np.concatenate(([0], np.cumsum(self.lengths)))
        self.total_bytes = int(self.prefix[-1])
        if data is not None:
            data = np.asarray(data, dtype=np.uint8)
            if len(data) != self.total_bytes:
                raise ValueError(
                    f"payload is {len(data)} bytes, extents describe {self.total_bytes}"
                )
        self.data = data

    def __len__(self) -> int:
        return len(self.offsets)

    @property
    def empty(self) -> bool:
        return self.total_bytes == 0

    @property
    def start_offset(self) -> int:
        """ROMIO's st_offset (first accessed byte); 0 for an empty access."""
        return int(self.offsets[0]) if len(self.offsets) else 0

    @property
    def end_offset(self) -> int:
        """ROMIO's end_offset (last accessed byte, inclusive); -1 if empty."""
        return int(self.ends[-1]) - 1 if len(self.offsets) else -1

    def bytes_in_window(self, lo: int, hi: int) -> int:
        """Bytes of this access inside ``[lo, hi)`` — O(log n)."""
        if hi <= lo or self.empty:
            return 0
        i = int(np.searchsorted(self.ends, lo, side="right"))
        j = int(np.searchsorted(self.offsets, hi, side="left"))
        if i >= j:
            return 0
        inner = int(self.prefix[j] - self.prefix[i])
        # trim partial overlap at both boundaries
        head = max(0, lo - int(self.offsets[i]))
        tail = max(0, int(self.ends[j - 1]) - hi)
        return inner - head - tail

    def cum_bytes(self, positions: np.ndarray) -> np.ndarray:
        """Vectorised: bytes of this access strictly below each position.

        ``bytes_in_window(a, b) == cum_bytes([b]) - cum_bytes([a])``; used to
        compute every round's per-aggregator send size in one shot.
        """
        pos = np.asarray(positions, dtype=np.int64)
        if self.empty:
            return np.zeros(pos.shape, dtype=np.int64)
        k = np.searchsorted(self.offsets, pos, side="right") - 1
        kc = np.clip(k, 0, None)
        inside = np.clip(pos - self.offsets[kc], 0, self.lengths[kc])
        inside[k < 0] = 0
        return self.prefix[kc] * (k >= 0) + inside

    def cum_counts(self, positions: np.ndarray) -> np.ndarray:
        """Vectorised: number of extents starting strictly below each position.

        Differences approximate per-window piece counts (boundary pieces are
        attributed to the window holding their start), which is what the
        per-piece CPU cost model needs.
        """
        pos = np.asarray(positions, dtype=np.int64)
        if self.empty:
            return np.zeros(pos.shape, dtype=np.int64)
        return np.searchsorted(self.offsets, pos, side="left").astype(np.int64)

    def slice_window(self, lo: int, hi: int) -> WindowSlice:
        """Sub-extents of this access inside ``[lo, hi)`` with buffer mapping."""
        if hi <= lo or self.empty:
            z = np.empty(0, dtype=np.int64)
            return WindowSlice(z, z, 0, 0, z)
        i = int(np.searchsorted(self.ends, lo, side="right"))
        j = int(np.searchsorted(self.offsets, hi, side="left"))
        if i >= j:
            z = np.empty(0, dtype=np.int64)
            return WindowSlice(z, z, 0, 0, z)
        offs = self.offsets[i:j].copy()
        lens = self.lengths[i:j].copy()
        bufs = self.prefix[i:j].copy()
        head = lo - int(offs[0])
        if head > 0:
            offs[0] += head
            lens[0] -= head
            bufs[0] += head
        tail = int(offs[-1] + lens[-1]) - hi
        if tail > 0:
            lens[-1] -= tail
        nbytes = int(lens.sum())
        return WindowSlice(offs, lens, nbytes, int(len(offs)), bufs)

    def payload_for(self, ws: WindowSlice) -> Optional[np.ndarray]:
        """Gather the buffer bytes backing a window slice (None if virtual)."""
        if self.data is None or ws.nbytes == 0:
            return None
        parts = [
            self.data[int(b) : int(b) + int(l)]
            for b, l in zip(ws.buffer_starts, ws.lengths)
        ]
        return np.concatenate(parts) if parts else np.empty(0, dtype=np.uint8)

    @classmethod
    def contiguous(cls, offset: int, nbytes: int, data: Optional[np.ndarray] = None) -> "RankAccess":
        offset, nbytes = int(offset), int(nbytes)
        if data is not None or nbytes <= 0:
            return cls(np.array([offset]), np.array([nbytes]), data)
        # One dataless extent: nothing to filter, sort or overlap-check, so
        # set exactly what the general constructor would compute.
        acc = cls.__new__(cls)
        acc.offsets = np.array([offset], dtype=np.int64)
        acc.lengths = np.array([nbytes], dtype=np.int64)
        acc.ends = np.array([offset + nbytes], dtype=np.int64)
        acc.prefix = np.array([0, nbytes], dtype=np.int64)
        acc.total_bytes = nbytes
        acc.data = None
        return acc

    @classmethod
    def empty_access(cls) -> "RankAccess":
        z = np.empty(0, dtype=np.int64)
        return cls(z, z)


def merge_extent_arrays(
    offset_arrays: list[np.ndarray], length_arrays: list[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Union coverage of many extent lists, vectorised.

    Returns merged ``(starts, ends)`` arrays sorted ascending, overlapping
    and adjacent runs coalesced.
    """
    if not offset_arrays:
        z = np.empty(0, dtype=np.int64)
        return z, z
    starts = np.concatenate([np.asarray(a, dtype=np.int64) for a in offset_arrays])
    lengths = np.concatenate([np.asarray(a, dtype=np.int64) for a in length_arrays])
    keep = lengths > 0
    starts, lengths = starts[keep], lengths[keep]
    if len(starts) == 0:
        z = np.empty(0, dtype=np.int64)
        return z, z
    order = np.argsort(starts, kind="stable")
    starts = starts[order]
    ends = starts + lengths[order]
    running_end = np.maximum.accumulate(ends)
    # A new run begins where the start exceeds every previous end.
    breaks = np.empty(len(starts), dtype=bool)
    breaks[0] = True
    breaks[1:] = starts[1:] > running_end[:-1]
    run_starts = starts[breaks]
    # End of each run = max end within the run = running_end at the last
    # element of the run.
    idx = np.flatnonzero(breaks)
    last_of_run = np.concatenate((idx[1:] - 1, [len(starts) - 1]))
    run_ends = running_end[last_of_run]
    return run_starts, run_ends


def coverage_in_window(
    merged_starts: np.ndarray, merged_ends: np.ndarray, lo: int, hi: int
) -> list[tuple[int, int]]:
    """Clip merged coverage runs to ``[lo, hi)`` — the aggregator's write list."""
    if hi <= lo or len(merged_starts) == 0:
        return []
    i = int(np.searchsorted(merged_ends, lo, side="right"))
    j = int(np.searchsorted(merged_starts, hi, side="left"))
    out = []
    for k in range(i, j):
        s = max(int(merged_starts[k]), lo)
        e = min(int(merged_ends[k]), hi)
        if s < e:
            out.append((s, e))
    return out
