"""The exact endgame: which (ones, discord) budgets the last raster cells can meet.

Both tables are indexed by the number m of cells left. levels[m][w, r1], for
w, the part of the prefix those cells see, and r1 ones to place, packs one
digit per discord r2, which describes the completions of the m cells that
place r1 ones and add r2 discordant edges.

The narrow table serves grids at most MAX_COLS wide: a backward transfer-matrix
recursion over the last L raster cells. A completion's discord depends on the
prefix only through its last `cols` values, the frontier w (bit j holds cell
k - 1 - j): every undetermined cell's up neighbour lies among them, and its
left neighbour is either the newest of them or undetermined. Its digits are
bits, set iff some such completion exists, and its words are 64 bits wide,
so it covers the last L cells or, where they would carry 64 or more edges,
the longest suffix that carries fewer: at least 31 cells, since each cell
closes at most 2 edges. The table depends on the shape and the first cell it
covers only, so one cached table serves every test on a shape and every L
that trims to the same cell.

`row_endgame` serves every other grid, over its last min(L, cols - 1) cells.
They lie in the last row, below determined cells, so w is the left value of
the first of them. The table depends on the row above, so each trial builds
its own. Its digits are completion counts, packed in Python ints with no
width cap: a count above 0 is the narrow table's bit, and two counts give
the exact branch probability.

`zone` is the endgame's single entry. It states the width rule, the 64-edge
trim and the reach, and hands out the narrow table, which `_levels` builds
and caches by its first cell; run_trial reads the rule from it and nowhere
else, and builds a row_endgame where zone gives no table.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

import numpy as np

from .grid import topology

MAX_COLS = 10  # 1,024 frontier values; the 10x10 table at L = 20 takes 1.9 MB
BITS = 64


@lru_cache(maxsize=8)
def _levels(rows: int, cols: int, first: int) -> tuple:
    """The narrow table's levels from the last cell back to cell `first`."""
    topo = topology(rows, cols)
    n = topo.n_cells
    size = 1 << cols
    w = np.arange(size, dtype=np.uint64)
    left = w & 1  # cell k - 1
    up = w >> np.uint64(cols - 1)  # cell k - cols
    after0 = ((w << 1) & (size - 1)).astype(np.intp)  # the frontier once cell k is placed
    after1 = after0 | 1
    nxt = np.ones((size, 1), dtype=np.uint64)
    levels = [memoryview(nxt)]
    for k in range(n - 1, first - 1, -1):
        has_up, has_left = k >= cols, k % cols != 0
        d0 = up * has_up + left * has_left  # discord cell k adds with value 0
        d1 = (1 - up) * has_up + (1 - left) * has_left
        cur = np.zeros((size, n - k + 1), dtype=np.uint64)
        cur[:, :-1] = nxt[after0] << d0[:, None]
        cur[:, 1:] |= nxt[after1] << d1[:, None]
        levels.append(memoryview(cur))
        nxt = cur
    return tuple(levels)


def row_endgame(ups, ones: int) -> tuple[list[dict], int]:
    """The levels covering the last len(ups) cells of a row whose cells all
    have a left neighbour, and their digit width: levels[m] maps (w, r1),
    for the left value w and r1 <= min(ones, m), to an int whose digit r2
    counts the completions of the last m cells that place r1 ones and add r2
    discordant edges; no completion places more ones than it has cells. A
    level holds at most C(m, r1) completions per r1, and C(len(ups),
    min(ones, len(ups) // 2)) bounds them all, which sets the width. ups
    holds the values of their up neighbours, -1 where there is none."""
    width = comb(len(ups), min(ones, len(ups) // 2)).bit_length() + 1
    nxt = {(0, 0): 1, (1, 0): 1}
    levels = [nxt]
    for m, u in enumerate(reversed(ups), 1):
        cur = {}
        for w in (0, 1):
            d0 = ((u == 1) + (w == 1)) * width  # discord the cell adds with value 0
            d1 = ((u == 0) + (w == 0)) * width
            cur[w, 0] = nxt[0, 0] << d0
            for r in range(1, min(ones, m) + 1):
                cur[w, r] = (nxt.get((0, r), 0) << d0) + (nxt[1, r - 1] << d1)
        levels.append(cur)
        nxt = cur
    return levels, width


@lru_cache(maxsize=8)
def zone(rows: int, cols: int, cells: int) -> tuple[int, tuple | None]:
    """The endgame for a shape and `cells`, the endgame length asked for, as
    (reach, table): a cell followed by at most reach cells is screened
    exactly. On grids at most MAX_COLS wide, table is the narrow table's
    levels over the last `cells` raster cells, trimmed to the longest suffix
    whose edges number fewer than 64, and reach is len(table) - 1; levels[m]
    is a (2^cols, m + 1) memoryview of uint64 sets. Every length that trims
    to the same first cell gets the same cached levels. On every other grid,
    reach is min(cells, cols - 1) and table is None: each trial builds a
    row_endgame over those cells. Cached: run_trial asks for it once per
    trial."""
    if cols > MAX_COLS:
        return min(cells, cols - 1), None
    topo = topology(rows, cols)
    first = max(topo.n_cells - cells, 0)
    while topo.n_edges - topo.determined_edges[first] >= BITS:
        first += 1
    return topo.n_cells - first, _levels(rows, cols, first)
