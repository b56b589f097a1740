"""Workload step/recipe types shared by all three benchmarks.

Paper correspondence: §IV — the common shape of the three evaluated
benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.access import RankAccess

AccessFn = Callable[[int], RankAccess]


@dataclass(frozen=True)
class IOStep:
    """One I/O operation inside a file phase.

    ``collective`` steps provide ``access_fn(rank)``; ``rank0`` steps are
    small independent metadata writes (headers/attributes) from rank 0 only,
    as HDF5 produces.
    """

    kind: str  # "collective" | "rank0"
    label: str = ""
    access_fn: Optional[AccessFn] = None
    offset: int = 0
    nbytes: int = 0

    @staticmethod
    def collective(access_fn: AccessFn, label: str = "") -> "IOStep":
        return IOStep(kind="collective", label=label, access_fn=access_fn)

    @staticmethod
    def rank0(offset: int, nbytes: int, label: str = "") -> "IOStep":
        return IOStep(kind="rank0", label=label, offset=offset, nbytes=nbytes)


@dataclass(frozen=True)
class Workload:
    """A named recipe: the per-file steps plus bookkeeping totals."""

    name: str
    nprocs: int
    steps: tuple[IOStep, ...]
    bytes_per_rank: int
    file_size: int
    detail: dict = field(default_factory=dict)

    def total_bytes(self) -> int:
        return self.file_size


def payload_bytes(seed: int, n: int) -> np.ndarray:
    """``n`` deterministic pseudo-random payload bytes for ``seed``.

    Byte-identical to ``default_rng(seed).integers(0, 256, n, dtype=uint8)``
    — numpy draws full-range bytes from the raw 64-bit stream, low byte
    first — at about a third of the cost.
    """
    raw = np.random.default_rng(seed).bit_generator.random_raw(-(-n // 8))
    return raw.view(np.uint8)[:n]
