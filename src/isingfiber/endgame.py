"""The exact endgame: which (ones, discord) budgets the last raster cells can meet.

Both tables are indexed by the number m of cells left: bit r2 of
levels[m][w, r1] is set iff some completion of those cells places r1 ones and
adds r2 discordant edges, given w, the part of the prefix they see.

`endgame_table` serves grids at most MAX_COLS wide: a backward transfer-matrix
recursion over the last L raster cells. A completion's discord depends on the
prefix only through its last `cols` values, the frontier w (bit j holds cell
k - 1 - j): every undetermined cell's up neighbour lies among them, and its
left neighbour is either the newest of them or undetermined. The table
depends on the shape and L only, so one cached table serves every test on a
shape. Its sets are 64-bit words, so it exists only where every discord the
last L cells can carry fits: at most 2L, so any L <= 31.

`row_endgame` serves every other grid, over its last min(L, cols - 1) cells.
They lie in the last row, below determined cells, so w is the left value of
the first of them. The table depends on the row above, so each trial builds
its own; its sets are Python ints, with no width or bit cap.
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
    not fit in 64 bits). levels[m] is a (2^cols, m + 1) memoryview of
    uint64 sets for m <= min(cells, rows * cols). Cached: run_trial asks for
    it once per trial."""
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


def row_endgame(ups, ones: int) -> list[dict]:
    """The levels covering the last len(ups) cells of a row whose cells all
    have a left neighbour: levels[m] maps (w, r1), for the left value w and
    r1 <= ones, to the set of discords the last m cells can add. ups holds
    the values of their up neighbours, -1 where there is none."""
    nxt = {(w, r): int(r == 0) for w in (0, 1) for r in range(ones + 1)}
    levels = [nxt]
    for u in reversed(ups):
        cur = {}
        for w in (0, 1):
            d0 = (u == 1) + (w == 1)  # discord the cell adds with value 0
            d1 = (u == 0) + (w == 0)
            cur[w, 0] = nxt[0, 0] << d0
            for r in range(1, ones + 1):
                cur[w, r] = nxt[0, r] << d0 | nxt[1, r - 1] << d1
        levels.append(cur)
        nxt = cur
    return levels
