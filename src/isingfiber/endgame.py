"""The exact endgame: which (ones, discord) budgets the last raster cells can meet.

A backward transfer-matrix recursion over the last L raster cells. Once k cells
are determined, a completion's discord depends on the prefix only through its
last `cols` values, the frontier: every undetermined cell's up neighbour lies
among them, and its left neighbour is either the newest of them or
undetermined. So for each determined count k, frontier value w (bit j holds
cell k - 1 - j) and count r1 of ones still to place, one 64-bit set holds
every remaining discord r2 that some completion achieves: bit r2 of
levels[k][w, r1]. Level n is bit 0 at r1 = 0; level k is built from level
k + 1 in a few numpy passes over the two values of cell k.

The table depends on the grid shape and L only, not on (t1, t2), so one cached
table serves every test on a shape. It exists where the frontier has at most
MAX_COLS cells (2^cols windows) and every discord the last L cells can carry
fits in 64 bits: at most 2L, so any L <= 31 on such grids.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .grid import topology

MAX_COLS = 10  # 1,024 frontier values; the 10x10 table at L = 20 takes 1.9 MB
BITS = 64


@lru_cache(maxsize=8)
def endgame_table(rows: int, cols: int, cells: int) -> tuple | None:
    """The levels covering the last `cells` raster cells, or None where the
    table does not apply (cols above MAX_COLS, or a discord budget that does
    not fit in 64 bits). levels[k] is a (2^cols, n - k + 1) memoryview of
    uint64 sets for k >= n - cells, and None below. Cached: run_trial asks
    for it once per trial."""
    if cols > MAX_COLS:
        return None
    topo = topology(rows, cols)
    n = topo.n_cells
    first = max(n - cells, 0)
    if topo.n_edges - topo.determined_edges[first] >= BITS:
        return None
    size = 1 << cols
    w = np.arange(size, dtype=np.uint64)
    left = w & 1  # cell k - 1
    up = w >> np.uint64(cols - 1)  # cell k - cols
    after0 = ((w << 1) & (size - 1)).astype(np.intp)  # the frontier once cell k is placed
    after1 = after0 | 1
    nxt = np.ones((size, 1), dtype=np.uint64)
    levels = [None] * (n + 1)
    levels[n] = memoryview(nxt)
    for k in range(n - 1, first - 1, -1):
        has_up, has_left = k >= cols, k % cols != 0
        d0 = up * has_up + left * has_left  # discord cell k adds with value 0
        d1 = (1 - up) * has_up + (1 - left) * has_left
        cur = np.zeros((size, n - k + 1), dtype=np.uint64)
        cur[:, :-1] = nxt[after0] << d0[:, None]
        cur[:, 1:] |= nxt[after1] << d1[:, None]
        levels[k] = memoryview(cur)
        nxt = cur
    return tuple(levels)
