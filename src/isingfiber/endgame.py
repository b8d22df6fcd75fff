"""The exact endgame: how many completions the last raster cells have for
each remaining (ones, discord) budget.

Both tables are indexed by the number m of cells left. For w, the part of
the prefix those cells see, r1 ones and r2 discordant edges to place, level
m gives the number of completions of the m cells that meet the budget. A
value passes the endgame screen iff its count is positive, and where both
values pass run_trial takes P[1] = N1 / (N0 + N1) from the two counts.

The narrow table serves grids at most MAX_COLS wide: a backward transfer-matrix
recursion over the last `reach` raster cells. A completion's discord depends
on the prefix only through its last `cols` values, the frontier w (bit j
holds cell k - 1 - j): every undetermined cell's up neighbour lies among
them, and its left neighbour is either the newest of them or undetermined.
Level m stores only the states with r1 <= cap, where few ones are left and
few r2 values have completions: r2 is at most 4 r1 + cols + 1, since every
discordant edge meets one of the r1 ones or one of the cols + 1 edges from
the frontier. Each (w, r1) keeps the counts of its nonzero r2 span [lo, hi],
one after another in one flat uint16 array per level, and one packed uint32
index entry per (w, r1), at (r1 << cols) + w, holds the span's offset in
that array, lo and hi (see FIELD). `cap` is the largest value for which the
asked cells fit in TABLE_BYTES with every count below 2^16; entries with
r1 <= c do not depend on the cap they were built under, so one loop over the
levels runs twice: to find the cap, holding no table, then to pack the table.

`row_endgame` serves every other grid, over its last min(L, cols - 1) cells.
They lie in the last row, below determined cells, so w is the left value of
the first of them. The table depends on the row above, so each trial builds
its own. Its counts are packed as the digits of Python ints, with no width
cap, and its cap covers every r1.

`zone` is the endgame's single entry. It states the width rule, the cap
rule and the reach, and hands out the narrow table, cached by its reach so
that every length of at least n cells shares it; run_trial reads the rule
from it and nowhere else, and builds a row_endgame where zone gives none.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from math import comb

import numpy as np

from .grid import topology

MAX_COLS = 10  # 1,024 frontier values
TABLE_BYTES = 1 << 22  # 32 cells on 10x10 at cap 5 (3.78 MB), all of 3x3 and 4x4
# an index entry is offset << 2 FIELD | lo << FIELD | hi; lo and hi are at
# most 4 cap + cols + 1, and a level's offsets stay below 2^(32 - 2 FIELD)
FIELD = 6


def _level(topo, k: int, nxt: np.ndarray, cap: int) -> tuple[np.ndarray, int]:
    """The counts of cells k.. from those of cells k + 1.. (nxt), for level
    m = n - k: a uint16 array counts[r1, w, r2] for r1 <= min(cap, m) and r2
    up to the discord those r1 ones can reach, and the first r1 at which some
    count reached 2^16 (cap + 1 if none did). nxt must hold the rows
    r1 <= min(cap, m - 1), none of them wrapped.

    Placing v at cell k takes frontier w to (w << 1 | v) and adds the discord
    d = (v != up) + (v != left) for the neighbours cell k has. Split w as
    (up, rest) and rest as (rest', left): cur[r1 + v, (up, rest), r2 + d]
    gathers nxt[r1, 2 rest + v, r2], so each (up, left, v) is one slice add.
    """
    cols = topo.cols
    m = topo.n_cells - k
    rows = min(cap, m) + 1
    width = min(topo.n_edges - topo.determined_edges[k], 4 * (rows - 1) + cols + 1) + 1
    has_up, has_left = k >= cols, k % cols != 0
    split = 1 + has_left
    cur = np.zeros((rows, 1 << cols, width), np.uint16)
    into = cur.reshape(rows, 2, -1, split, width)  # [r1, up, rest', left, r2]
    src = nxt.reshape(len(nxt), -1, split, 2, nxt.shape[2])  # [r1, rest', left, v, r2]
    wrapped = cap + 1
    for up, left, v in product((0, 1), range(split), (0, 1)):
        d = (v != up) * has_up + (v != left) * has_left
        j = min(rows - v, len(nxt))
        span = min(nxt.shape[2], width - d)
        add = src[:j, :, left, v, :span]
        out = into[v : v + j, up, :, left, d : d + span]
        out += add
        # value 0 came first into a zero block; a wrapped sum is below its term
        if v:
            hits = np.flatnonzero((out < add).any(axis=(1, 2)))
            if len(hits):
                wrapped = min(wrapped, 1 + int(hits[0]))
    return cur, wrapped


def _spans(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """lo and hi of the nonzero r2 of each (r1, w) row; lo = 1, hi = 0 where
    it has none."""
    nonzero = counts != 0
    some = nonzero.any(axis=2)
    lo = np.where(some, nonzero.argmax(axis=2), 1)
    hi = np.where(some, counts.shape[2] - 1 - nonzero[..., ::-1].argmax(axis=2), 0)
    return lo, hi


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
def zone(rows: int, cols: int, cells: int) -> tuple[int, int, tuple | None]:
    """The endgame for a shape and `cells`, the endgame length asked for, as
    (reach, cap, table): a cell followed by at most reach cells, reached with
    at most cap ones still to place, is screened exactly, and its branch
    probability is a ratio of completion counts. A trial that enters the
    zone stays in it, since r1 never rises.

    On grids at most MAX_COLS wide, reach is min(cells, n) and table is the
    narrow table over the last reach cells: levels[m] is (index, counts),
    whose entry at (r1 << cols) + w, for r1 <= min(cap, m), packs the offset
    of the (w, r1) row's counts in counts and the bounds lo <= hi of its
    nonzero r2 (see FIELD and the module docstring). cap, found by _narrow's
    first pass, is the largest for which the table takes at most TABLE_BYTES
    and holds no count of 2^16 or more: 5 on 10x10 at 32 cells (3.78 MB),
    where cap 6 would hold a count past 16 bits, and n, every r1, where the
    whole table fits, as on 3x3 and 4x4. Where not even cap 0 fits, the zone
    is empty: (-1, -1, None). On every other grid, reach is min(cells,
    cols - 1), cap is n and table is None: each trial builds a row_endgame
    over those cells. Cached: run_trial asks for it once per trial."""
    n = rows * cols
    if cols > MAX_COLS:
        return min(cells, cols - 1), n, None
    return _narrow(rows, cols, min(cells, n))


@lru_cache(maxsize=8)
def _narrow(rows: int, cols: int, reach: int) -> tuple[int, int, tuple | None]:
    """zone on a grid at most MAX_COLS wide, cached by the reach. One loop
    over levels 0..reach runs twice, keeping the rows r1 <= cap only and
    lowering cap once a row wraps or the rows up to it pass TABLE_BYTES,
    since later levels only add: first holding no table, to find the cap,
    then at that cap, packing each level into (index, counts) memoryviews.
    The second pass cannot lower the cap: its rows are the first pass's rows
    r1 <= cap, where none wrapped and the bytes stayed within TABLE_BYTES."""
    topo = topology(rows, cols)
    n, size = topo.n_cells, 1 << cols
    cap = n
    levels = []
    for keep in (False, True):
        spent = np.zeros(n + 1, np.int64)  # the bytes each r1's entries take so far
        counts = np.ones((1, size, 1), np.uint16)
        for m in range(reach + 1):
            if m:
                counts, wrapped = _level(topo, n - m, counts, cap)
                cap = min(cap, wrapped - 1)
                counts = counts[: cap + 1]
            lo, hi = _spans(counts)
            length = hi - lo + 1
            spent[: len(counts)] += 4 * size + 2 * length.sum(axis=1)
            over = np.flatnonzero(np.cumsum(spent[: len(counts)]) > TABLE_BYTES)
            if len(over):
                cap = int(over[0]) - 1
                if cap < 0:
                    return -1, -1, None
                counts = counts[: cap + 1]
            if keep:
                length = length.ravel()
                offset = np.cumsum(length) - length
                assert hi.max() < 1 << FIELD and length.sum() <= 1 << (32 - 2 * FIELD)
                r2 = np.arange(counts.shape[2])
                stored = lo[..., None] <= r2
                stored &= r2 <= hi[..., None]
                index = (offset << 2 * FIELD | lo.ravel() << FIELD | hi.ravel()).astype(np.uint32)
                levels.append((memoryview(index), memoryview(counts[stored])))
    return reach, cap, tuple(levels)
