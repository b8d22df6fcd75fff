"""The exact endgame: how many completions the last raster cells have for
each remaining (ones, discord) budget.

Both tables are indexed by the number m of cells left. For w, the part of
the prefix those cells see, r1 ones and r2 discordant edges to place, level
m gives the number of completions of the m cells that meet the budget. A
value passes the endgame screen iff its count is positive, and where both
values pass run_trial takes P[1] = N1 / (N0 + N1) from the two counts.

The narrow table serves grids at most MAX_COLS wide: a backward transfer-matrix
recursion over the last L raster cells. A completion's discord depends on the
prefix only through its last `cols` values, the frontier w (bit j holds cell
k - 1 - j): every undetermined cell's up neighbour lies among them, and its
left neighbour is either the newest of them or undetermined. levels[m] is a
(2^cols, m + 1, e + 1) array of uint16 counts, indexed [w, r1, r2], where e is
the number of edges the m cells close. No count of level m exceeds C(m, m // 2),
the most ways to place any number of ones in m cells, and that stays below
2^16 up to MAX_REACH cells; so the table covers the last L cells, or the
longest suffix of them that is at most MAX_REACH cells long and takes at most
TABLE_BYTES. The table depends on the shape and the first cell it covers only,
so one cached table serves every test on a shape and every L that trims to
the same cell.

`row_endgame` serves every other grid, over its last min(L, cols - 1) cells.
They lie in the last row, below determined cells, so w is the left value of
the first of them. The table depends on the row above, so each trial builds
its own. Its counts are packed as the digits of Python ints, with no width
cap.

`zone` is the endgame's single entry. It states the width rule, the two trim
rules and the reach, and hands out the narrow table, which `_levels` builds
and caches by its first cell; run_trial reads the rule from it and nowhere
else, and builds a row_endgame where zone gives no table.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

import numpy as np

from .grid import topology

MAX_COLS = 10  # 1,024 frontier values
# the longest reach whose counts fit in uint16: C(18, 9) = 48,620 < 2^16 <= C(19, 9)
MAX_REACH = 18
TABLE_BYTES = 1 << 22  # 13 cells on 10x10 (3.84 MB), all of 3x3 and 4x4


@lru_cache(maxsize=8)
def _levels(rows: int, cols: int, first: int) -> tuple:
    """The narrow table's levels from the last cell back to cell `first`."""
    topo = topology(rows, cols)
    n = topo.n_cells
    size = 1 << cols
    w = np.arange(size)
    left = w & 1  # cell k - 1
    up = w >> (cols - 1)  # cell k - cols
    after0 = (w << 1) & (size - 1)  # the frontier once cell k is placed
    after1 = after0 | 1
    nxt = np.ones((size, 1, 1), dtype=np.uint16)
    levels = [memoryview(nxt)]
    for k in range(n - 1, first - 1, -1):
        m, e = n - k, nxt.shape[2] - 1  # cells from k on; edges the cells after k close
        closes = (k >= cols) + (k % cols != 0)  # edges cell k closes
        d0 = up * (k >= cols) + left * (k % cols != 0)  # discord cell k adds with value 0
        d1 = closes - d0
        cur = np.zeros((size, m + 1, e + closes + 1), dtype=np.uint16)
        for v, after, d in ((0, after0, d0), (1, after1, d1)):
            for shift in range(closes + 1):
                at = np.flatnonzero(d == shift)
                cur[at, v : v + m, shift : shift + e + 1] += nxt[after[at]]
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
    exactly, and its branch probability is a ratio of completion counts. On
    grids at most MAX_COLS wide, table is the narrow table's levels over the
    last `cells` raster cells, trimmed to the longest suffix that has at most
    MAX_REACH cells, so that no uint16 count wraps, and takes at most
    TABLE_BYTES; reach is len(table) - 1, and levels[m] is a (2^cols, m + 1,
    e + 1) memoryview of uint16 counts for the e edges the last m cells close.
    Every length that trims to the same first cell gets the same cached
    levels. On every other grid, reach is min(cells, cols - 1) and table is
    None: each trial builds a row_endgame over those cells. Cached: run_trial
    asks for it once per trial."""
    if cols > MAX_COLS:
        return min(cells, cols - 1), None
    topo = topology(rows, cols)
    n = topo.n_cells

    def table_bytes(first):
        return sum(
            2 * (n - k + 1) * (topo.n_edges - topo.determined_edges[k] + 1) << cols
            for k in range(first, n + 1)
        )

    first = max(n - cells, n - MAX_REACH, 0)
    while table_bytes(first) > TABLE_BYTES:
        first += 1
    return n - first, _levels(rows, cols, first)
