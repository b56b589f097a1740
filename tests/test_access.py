import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.access import RankAccess, coverage_in_window, merge_extent_arrays


def access_of(*pairs, data=None):
    offs = np.array([p[0] for p in pairs], dtype=np.int64)
    lens = np.array([p[1] for p in pairs], dtype=np.int64)
    return RankAccess(offs, lens, data)


class TestConstruction:
    def test_empty(self):
        a = RankAccess.empty_access()
        assert a.empty
        assert a.start_offset == 0
        assert a.end_offset == -1
        assert a.total_bytes == 0

    def test_sorted_on_build(self):
        a = access_of((100, 10), (0, 10))
        assert list(a.offsets) == [0, 100]

    def test_zero_length_dropped(self):
        a = access_of((0, 10), (50, 0))
        assert len(a) == 1

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            access_of((0, 10), (5, 10))

    def test_adjacent_allowed(self):
        a = access_of((0, 10), (10, 10))
        assert a.total_bytes == 20

    def test_payload_length_checked(self):
        with pytest.raises(ValueError):
            access_of((0, 10), data=np.zeros(5, dtype=np.uint8))

    def test_contiguous_helper(self):
        a = RankAccess.contiguous(100, 50)
        assert a.start_offset == 100
        assert a.end_offset == 149

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            RankAccess(np.array([0]), np.array([-1]))


class TestWindows:
    def test_bytes_in_window_full(self):
        a = access_of((0, 10), (20, 10))
        assert a.bytes_in_window(0, 30) == 20

    def test_bytes_in_window_partial(self):
        a = access_of((0, 10), (20, 10))
        assert a.bytes_in_window(5, 25) == 10  # 5 from first, 5 from second

    def test_bytes_in_window_hole(self):
        a = access_of((0, 10), (20, 10))
        assert a.bytes_in_window(10, 20) == 0

    def test_slice_window_trims(self):
        a = access_of((0, 10), (20, 10))
        ws = a.slice_window(5, 25)
        assert list(ws.offsets) == [5, 20]
        assert list(ws.lengths) == [5, 5]
        assert ws.nbytes == 10
        assert list(ws.buffer_starts) == [5, 10]

    def test_slice_empty_window(self):
        a = access_of((0, 10))
        ws = a.slice_window(100, 200)
        assert ws.nbytes == 0 and ws.count == 0

    def test_payload_for(self):
        data = np.arange(20, dtype=np.uint8)
        a = access_of((0, 10), (20, 10), data=data)
        ws = a.slice_window(5, 25)
        assert list(a.payload_for(ws)) == [5, 6, 7, 8, 9, 10, 11, 12, 13, 14]

    def test_cum_bytes_matches_windows(self):
        a = access_of((3, 7), (15, 5), (30, 10))
        positions = np.arange(0, 45)
        cum = a.cum_bytes(positions)
        for lo in range(0, 44):
            for hi in range(lo, 45):
                assert cum[hi] - cum[lo] == a.bytes_in_window(lo, hi)

    def test_cum_counts_monotone(self):
        a = access_of((0, 4), (10, 4), (20, 4))
        counts = a.cum_counts(np.array([0, 1, 10, 11, 25]))
        assert list(counts) == [0, 1, 1, 2, 3]


extent_lists = st.lists(
    st.tuples(st.integers(0, 500), st.integers(1, 30)), min_size=0, max_size=15
)


def dedupe(pairs):
    """Drop overlapping extents (RankAccess requires disjoint)."""
    out = []
    covered = set()
    for off, length in sorted(pairs):
        cells = set(range(off, off + length))
        if not cells & covered:
            out.append((off, length))
            covered |= cells
    return out


@settings(max_examples=150, deadline=None)
@given(extent_lists, st.integers(0, 550), st.integers(0, 60))
def test_bytes_in_window_matches_bruteforce(pairs, lo, width):
    pairs = dedupe(pairs)
    if not pairs:
        return
    a = access_of(*pairs)
    hi = lo + width
    expected = sum(
        max(0, min(hi, off + length) - max(lo, off)) for off, length in pairs
    )
    assert a.bytes_in_window(lo, hi) == expected
    ws = a.slice_window(lo, hi)
    assert ws.nbytes == expected
    assert int(ws.lengths.sum()) if ws.count else 0 == expected


@settings(max_examples=100, deadline=None)
@given(st.lists(extent_lists, min_size=1, max_size=5))
def test_merge_extent_arrays_matches_pointset(rank_lists):
    offsets, lengths, pts = [], [], set()
    for pairs in rank_lists:
        offsets.append(np.array([p[0] for p in pairs], dtype=np.int64))
        lengths.append(np.array([p[1] for p in pairs], dtype=np.int64))
        for off, length in pairs:
            pts.update(range(off, off + length))
    starts, ends = merge_extent_arrays(offsets, lengths)
    merged_pts = set()
    for s, e in zip(starts, ends):
        merged_pts.update(range(int(s), int(e)))
    assert merged_pts == pts
    # runs strictly increasing and disjoint
    for i in range(1, len(starts)):
        assert starts[i] > ends[i - 1]


def test_coverage_in_window_clips():
    starts = np.array([0, 20, 40], dtype=np.int64)
    ends = np.array([10, 30, 50], dtype=np.int64)
    assert coverage_in_window(starts, ends, 5, 45) == [(5, 10), (20, 30), (40, 45)]
    assert coverage_in_window(starts, ends, 10, 20) == []
    assert coverage_in_window(starts, ends, 100, 200) == []


def _assert_same_access(fast, ref):
    for name in ("offsets", "lengths", "ends", "prefix"):
        a, b = getattr(fast, name), getattr(ref, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name
    assert fast.total_bytes == ref.total_bytes
    assert type(fast.total_bytes) is type(ref.total_bytes)
    assert fast.data is ref.data is None
    assert len(fast) == len(ref)
    assert fast.empty == ref.empty
    assert fast.start_offset == ref.start_offset
    assert fast.end_offset == ref.end_offset


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 1 << 40),
    st.integers(0, 1 << 30),
    st.lists(st.integers(-(1 << 31), 1 << 31), min_size=2, max_size=6),
)
def test_contiguous_matches_general_constructor(offset, nbytes, deltas):
    """The one-extent fast path builds exactly what the constructor does."""
    fast = RankAccess.contiguous(offset, nbytes)
    ref = RankAccess(np.array([offset]), np.array([nbytes]))
    _assert_same_access(fast, ref)
    # Probe positions around the extent (before, inside, past its end).
    pos = np.array([max(0, offset + d) for d in deltas], dtype=np.int64)
    assert np.array_equal(fast.cum_bytes(pos), ref.cum_bytes(pos))
    assert np.array_equal(fast.cum_counts(pos), ref.cum_counts(pos))
    lo, hi = sorted(int(p) for p in pos[:2])
    got, want = fast.slice_window(lo, hi), ref.slice_window(lo, hi)
    assert (got.nbytes, got.count) == (want.nbytes, want.count)
    for name in ("offsets", "lengths", "buffer_starts"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


@given(st.integers(0, 1 << 40), st.integers(-(1 << 30), -1))
def test_contiguous_rejects_negative_length(offset, nbytes):
    with pytest.raises(ValueError):
        RankAccess.contiguous(offset, nbytes)
