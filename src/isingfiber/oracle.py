"""Brute-force ground truth for small grids.

Enumerates fibers (all 0-1 tables with given t1, t2) by placing the ones with
itertools.combinations rather than scanning all 2^(mn) tables, which keeps the
worst case at the 25-cell cap to a few seconds. Used to validate the sampler,
the LP bounds, and the importance estimates.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations, islice
from typing import Iterator

import numpy as np

from .grid import BinaryTable, SuffStats, check_prefix, check_shape, topology, window_stats

CELL_CAP = 25
_CHUNK = 65536


class CapExceededError(ValueError):
    """Raised when an enumeration request has more than CELL_CAP cells."""


@dataclass(frozen=True)
class FiberSummary:
    rows: int
    cols: int
    stats: SuffStats
    size: int
    stat_name: str
    stat_histogram: dict[int, int]


def _check_cap(rows: int, cols: int) -> None:
    check_shape(rows, cols)
    if rows * cols > CELL_CAP:
        raise CapExceededError(
            f"grid has {rows * cols} cells, enumeration is capped at {CELL_CAP}"
        )


def _members(rows: int, cols: int, stats: SuffStats, prefix) -> Iterator[np.ndarray]:
    """The fiber members that begin with `prefix`, as (count, rows*cols) int8
    chunks, in lexicographic order of their one-positions: the enumeration
    behind fiber_members, enumerate_fiber and exact_cell_bounds. Each chunk
    tests up to _CHUNK placements of the ones left to place among the cells
    after the prefix."""
    topo = topology(rows, cols)
    n, k = topo.n_cells, len(prefix)
    r1 = stats.t1 - sum(prefix)
    if not 0 <= r1 <= n - k:
        return
    base = np.zeros(n, dtype=np.int8)
    base[:k] = prefix
    combos = combinations(range(k, n), r1)
    while True:
        chunk = list(islice(combos, _CHUNK))
        if not chunk:
            return
        x = np.tile(base, (len(chunk), 1))
        if r1:
            x[np.repeat(np.arange(len(chunk)), r1), np.array(chunk, dtype=np.intp).ravel()] = 1
        x = x[(x[:, topo.edge_lo] != x[:, topo.edge_hi]).sum(axis=1) == stats.t2]
        if len(x):
            yield x


def fiber_members(rows: int, cols: int, stats: SuffStats) -> Iterator[BinaryTable]:
    """Yield every table in the fiber, in lexicographic order of one-positions."""
    _check_cap(rows, cols)
    stats.validate_for(rows, cols)
    for x in _members(rows, cols, stats, ()):
        for cells in x.tolist():
            yield BinaryTable(rows, cols, tuple(cells))


def enumerate_fiber(rows: int, cols: int, stats: SuffStats, stat_name: str = "u") -> FiberSummary:
    """Exhaustively count the fiber and histogram the chosen statistic over it."""
    _check_cap(rows, cols)
    stats.validate_for(rows, cols)
    which = {"u": 0, "uprime": 1}[stat_name]  # the statistic's place in window_stats
    histogram = Counter()
    for x in _members(rows, cols, stats, ()):
        histogram.update(window_stats(x.reshape(-1, rows, cols))[which].tolist())
    size = sum(histogram.values())
    return FiberSummary(rows, cols, stats, size, stat_name, dict(sorted(histogram.items())))


def exact_pvalues(summary: FiberSummary, observed: int) -> tuple[float, float]:
    """Exact (p1, p2) under the uniform fiber distribution: P[stat > obs], P[stat >= obs]."""
    if summary.size < 1:
        raise ValueError("empty fiber has no p-values")
    gt = sum(c for s, c in summary.stat_histogram.items() if s > observed)
    ge = sum(c for s, c in summary.stat_histogram.items() if s >= observed)
    return gt / summary.size, ge / summary.size


def exact_cell_bounds(rows, cols, stats, prefix, cell):
    """Min/max value of `cell` over all fiber completions of a raster prefix.

    `prefix` is the sequence of already-determined leading cell values, and
    `cell` must be a cell after it (see grid.check_prefix). Returns (lo, hi)
    or None when no completion exists.
    """
    _check_cap(rows, cols)
    check_prefix(rows, cols, prefix, cell)
    lo, hi = 1, 0
    for x in _members(rows, cols, stats, prefix):
        lo, hi = min(lo, int(x[:, cell].min())), max(hi, int(x[:, cell].max()))
        if lo < hi:
            break
    return None if lo > hi else (lo, hi)


def nonempty_fibers(rows: int, cols: int) -> dict[SuffStats, int]:
    """Map every realizable (t1, t2) on the grid to its fiber size, via one full scan."""
    _check_cap(rows, cols)
    topo = topology(rows, cols)
    n = topo.n_cells
    sizes = Counter()
    for start in range(0, 2**n, _CHUNK):
        codes = np.arange(start, min(start + _CHUNK, 2**n), dtype=np.uint64)
        x = (codes[:, None] >> np.arange(n, dtype=np.uint64)) & 1
        t2s = (x[:, topo.edge_lo] != x[:, topo.edge_hi]).sum(axis=1)
        sizes.update(zip(x.sum(axis=1).tolist(), t2s.tolist()))
    return {SuffStats(a, b): size for (a, b), size in sizes.items()}
