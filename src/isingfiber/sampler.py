"""Sequential cell-by-cell sampling of tables with fixed (t1, t2).

Cells are filled in raster order by one step loop, `run_trial`. At each cell
both candidate values are screened by sound feasibility arguments; when both
survive they are weighted by a Gaussian approximation of how many fiber
completions each branch leaves open, which keeps the remaining discord budget
tracking its achievable mean. In the endgame the weights are the exact
completion counts instead, so there a trial is uniform over the completions
it can still reach. Every
conditional probability is recorded exactly. `replay_log_q` runs the same
loop with forcing uniforms, so the log proposal probability of an accepted
table replays bit for bit by construction. The Gaussian weights' terms that
depend only on the cell and the number of ones still to place are computed
once per trial range and kept in a memo that its trials share; the rest,
which reads the trial's frontier and discord, is computed at each step. The
memo holds the same floats the inline expressions gave, so it does not
change a bit.

The screens depend on the cell's place (see run_trial). In the endgame,
the cells near the end reached with few ones left, as endgame.zone says,
one lookup in an exact table of endgame.py gives the number of completions
that meet the remaining budget, and a value passes iff it is positive.
Before it the screens are counting, a discord-budget window, toggle
capacity and the exact single-one check.

All screens are sound (they never exclude a value that still admits a fiber
completion), which makes the proposal strictly positive on the whole fiber;
rejection handles everything the screens fail to catch, and rejected trials
simply carry zero importance weight. The exact endgame leaves nothing to
catch after its first cell: a trial that enters it stays in it, and rejects
there or before, or not at all; on a nonempty fiber of a grid that lies
wholly in the endgame no trial rejects.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, log
from struct import Struct
from typing import NamedTuple

import numpy as np

# not called here: bench/tracer.py wraps this attribute
from .cutlp import state_lp_feasible  # noqa: F401
from .endgame import FIELD, row_endgame, zone
from .grid import BinaryTable, SuffStats, topology

# Gaussian branch-weight shape: on large grids the variance of the
# future-discord model is scaled down to steer trials firmly onto the feasible
# ridge; on small grids (few edges in total) the honest variance is kept, as
# overconfident weights there fatten the importance-weight tails without
# helping acceptance. The floor keeps the weight defined when no variability
# is left.
VAR_SCALE = 0.25
VAR_FLOOR = 0.25
EDGE_RELAX = 120.0


def _var_scale(total_edges: int) -> float:
    return VAR_SCALE + (1.0 - VAR_SCALE) * exp(-total_edges / EDGE_RELAX)


# the packed layout of a memo entry: eight doubles, no Python float objects
_TERMS = Struct("8d")


def _branch_terms(r1: int, rc_after: int, eff1: int, fro1: int, n_edges: int) -> bytes:
    """The terms of the Gaussian branch weights at a cell that depend only on
    the cell and the r1 ones still to place: e, 2 var and log(var) / 2 for
    value 1 (r1 - 1 ones left), the same for value 0 (r1 left), then log(mu)
    and log(1 - mu). Each is the float run_trial's inline expressions gave,
    in their operation order, packed as doubles to keep the memo small."""
    scale = _var_scale(n_edges)
    terms = []
    for j in (r1 - 1, r1):
        p = j / rc_after
        omp = 1.0 - p
        q2 = 2.0 * p * omp
        e = eff1 * q2
        var = (e * (1.0 - q2) + fro1 * p * omp) * scale + VAR_FLOOR
        terms += (e, 2.0 * var, 0.5 * log(var))
    mu = r1 / (rc_after + 1)
    return _TERMS.pack(*terms, log(mu), log(1.0 - mu))


STEP_CACHE_CELL_LIMIT = 25
RHO_CLAMP = 1e-3  # floor on branch probabilities; keeps q > 0 on the fiber


@dataclass
class SamplerConfig:
    endgame_cells: int = 32

    def __post_init__(self):
        if self.endgame_cells < 0:
            raise ValueError("endgame_cells must be nonnegative")


class Draw(NamedTuple):
    """One sampling trial as a light tuple-like record: an accepted table's
    cells, shape and exact log proposal probability, or a rejection with the
    cell index where it died. An accepted draw's BinaryTable is built, by
    the validating constructor, only when .table is read."""

    cells: tuple[int, ...] | None
    rows: int | None
    cols: int | None
    log_q: float | None
    stage: int | None

    @property
    def accepted(self) -> bool:
        return self.cells is not None

    @property
    def table(self) -> BinaryTable | None:
        return None if self.cells is None else BinaryTable(self.rows, self.cols, self.cells)

    @classmethod
    def accept(cls, table: BinaryTable, log_q: float) -> "Draw":
        return cls(table.cells, table.rows, table.cols, log_q, None)

    @classmethod
    def reject(cls, stage: int) -> "Draw":
        return cls(None, None, None, None, stage)


def _single_one_feasible(topo, cells, idx: int, v: int, f1_after: int, r2p: int) -> bool:
    """Exact check when exactly one 1 remains for the cells after idx.

    The completion is one 1 at a free cell c and zeros elsewhere; its total
    remaining discord is f1_after plus, over c's neighbors, +1 per zero-valued
    neighbor and -1 per determined one (whose frontier edge turns concordant).
    A cell changes it by at most its degree, which is at most 4. Only the
    cells up to idx + cols have a determined neighbor, so they are scanned;
    past them the change is c's degree, and the suffix degree counts say
    whether some cell there has the degree needed.
    """
    change = r2p - f1_after  # what the placed one must add to the discord
    if not -4 <= change <= 4:
        return False
    band_end = min(idx + topo.cols + 1, topo.n_cells)
    for c in range(idx + 1, band_end):
        delta = 0
        for nb in topo.neighbors[c]:
            if nb < idx:
                delta += 1 if cells[nb] == 0 else -1
            elif nb == idx:
                delta += 1 if v == 0 else -1
            else:
                delta += 1
        if delta == change:
            return True
    return change >= 0 and topo.suffix_deg[change][band_end] > 0


def new_step_cache(rows: int, cols: int) -> dict | None:
    """A fresh step cache for run_trial on grids of at most
    STEP_CACHE_CELL_LIMIT cells, where exact prefixes recur across trials;
    None (no cache) on larger grids."""
    return {} if rows * cols <= STEP_CACHE_CELL_LIMIT else None


def run_trial(
    rows: int,
    cols: int,
    stats: SuffStats,
    config: SamplerConfig,
    uniforms,
    memo: dict | None = None,
    step_cache: dict | None = None,
) -> Draw:
    """One trial driven by one uniform per cell: the sampler's only step.

    At each raster cell the screens run for value 0, then for value 1. In the
    endgame one lookup per value is the whole screen: it gives the number of
    completions that place exactly the r1' remaining ones and r2' remaining
    discordant edges, and the value passes iff it is positive.
    endgame.zone(rows, cols, endgame_cells) gives the endgame as (reach,
    cap, table): a cell is in it iff at most reach cells follow it and at
    most cap ones are left to place, tested once per cell. r1 never rises
    and the cells left only fall, so a trial that enters stays, every count
    it looks up is stored, and it is never rejected after its first endgame
    cell. The narrow table stores the counts of each (frontier, r1') as the
    span of r2' that has completions, and a lookup outside the span reads
    0; where zone gives no table, a row_endgame table is built at the first
    endgame cell for the ones still to place.
    Before it the screens are counting (the ones still to place fit in the
    cells after it), the discord budget (the remaining discord r2' is
    nonnegative and fits in the edges not yet determined), toggle capacity
    (r2' differs from the frontier baseline f1, the discord the all-zero
    completion would add, by at most what the r1' remaining ones can flip:
    the sum of the r1' largest free degrees), then the exact single-one check
    (r1' = 1). endgame_cells=0 leaves the last cell alone in the endgame,
    where it decides as those screens would.
    When both values pass, value 1 is taken iff the cell's uniform is below
    P[1], and the taken branch's probability enters log_q; a single feasible
    value is a forced move. P[1] is the Gaussian branch weight, except in
    the endgame, under either table, where it is N1 / (N0 + N1) for the
    counts N0 and N1 of the completions each value leaves: there a trial is
    uniform over the completions of the state it enters the zone with,
    wherever RHO_CLAMP does not bind. Both are clamped to [RHO_CLAMP,
    1 - RHO_CLAMP].

    memo keeps the terms of the Gaussian branch weights that depend only on
    the cell and the ones still to place (see _branch_terms), so trials that
    share it compute each of them once: pass one dict to every trial of a
    range, as inference does. Its entries are filed under (rows, cols), so
    one dict may serve several shapes and fibers; it grows with the (cell,
    ones to place) pairs where the trials weigh both values, by 8 packed
    doubles each. None gives the call a fresh memo of its own. The bits do
    not depend on the memo.

    step_cache, keyed by the exact determined prefix, memoizes each step's
    verdicts, P[1], its two logs and state updates, so a hit calls no log;
    it pays only on small grids, where prefixes recur across trials (see
    new_step_cache). An accepted Draw carries the cells and the shape, and
    builds its BinaryTable only when .table is read.
    """
    topo = topology(rows, cols)
    capacity = topo.toggle_capacity
    # the endgame runs where rc_after <= exact_cells and r1 <= cap. A row
    # table reads only the left value, so its frontier mask is 0; its digits
    # are counts, width bits each, set where it is built. A narrow table's
    # index entry packs a span's offset above its lo and hi, FIELD bits each
    exact_cells, cap, exact = zone(rows, cols, config.endgame_cells)
    narrow = exact is not None
    wmask = (1 << cols) - 1 if narrow else 0
    width = digit = 1
    lo_at, offset_at, field = FIELD, 2 * FIELD, (1 << FIELD) - 1
    track = step_cache is not None or exact is not None  # whether key is kept
    eps = RHO_CLAMP
    one_minus_eps = 1.0 - eps
    # the memo's entry for the shape: per cell, a dict from r1 to packed terms
    if memo is None:
        memo = {}
    terms_of = memo.get((rows, cols))
    if terms_of is None:
        terms_of = memo[rows, cols] = [{} for _ in range(topo.n_cells)]
    unpack = _TERMS.unpack
    us = uniforms.tolist() if isinstance(uniforms, np.ndarray) else uniforms

    n = topo.n_cells
    cells = [0] * n
    r1, r2 = stats.t1, stats.t2  # ones and discord still to place
    f1 = 0  # frontier edges whose determined endpoint is a one
    log_q = 0.0
    # a leading 1, then the values placed so far: the step-cache key, and its
    # low cols bits are the endgame frontier
    key = 1
    p1 = 1.0  # P[1]; read only where both values pass

    for idx, rc_after, up, lf, fw, nb_det, open_after, eff1, fro1, deg4 in topo.raster_steps:
        step = None if step_cache is None else step_cache.get(key)
        if step is None:
            # r2p and f1a: remaining discord and frontier ones after placing
            # 0 or 1; a missing neighbour (-1) reads the last cell, still 0 here
            ones = cells[up] + cells[lf]
            r2p0 = r2 - ones
            f1a0 = f1 - ones
            r2p1 = r2 - nb_det + ones
            f1a1 = f1a0 + fw
            r1p = r1 - 1
            endgame = rc_after <= exact_cells and r1 <= cap
            if endgame:
                if exact is None:
                    # the first endgame cell this trial computes: the cells
                    # after it lie below determined ones
                    ups = [cells[u] if u >= 0 else -1 for u in topo.up[idx + 1 :]]
                    exact, width = row_endgame(ups, r1)
                    digit = (1 << width) - 1
                # the number of completions for the frontier after the cell,
                # r1' and r2', in place of the screens below: the count at r2'
                # in the narrow table's (w, r1') span, zero outside it, or
                # digit r2' of a row table's entry
                w0 = (key + key) & wmask
                if narrow:
                    index, counts = exact[rc_after]
                    ok0 = ok1 = 0
                    if r1 <= rc_after:
                        entry = index[(r1 << cols) + w0]
                        lo = entry >> lo_at & field
                        if lo <= r2p0 <= entry & field:
                            ok0 = counts[(entry >> offset_at) + r2p0 - lo]
                    if 0 <= r1p <= rc_after:
                        entry = index[(r1p << cols) + w0 + 1]
                        lo = entry >> lo_at & field
                        if lo <= r2p1 <= entry & field:
                            ok1 = counts[(entry >> offset_at) + r2p1 - lo]
                else:
                    level = exact[rc_after]
                    ok0 = r1 <= rc_after and r2p0 >= 0 and (level[w0, r1] >> r2p0 * width) & digit
                    ok1 = (
                        0 <= r1p <= rc_after
                        and r2p1 >= 0
                        and (level[w0 + 1, r1p] >> r2p1 * width) & digit
                    )
            else:
                # value 0: r1' = r1
                if r1 > rc_after or r2p0 < 0 or r2p0 > open_after:
                    ok0 = False
                else:
                    diff = abs(r2p0 - f1a0)
                    if diff > r1 and diff > (4 * r1 if r1 <= deg4 else capacity(idx + 1, r1)):
                        ok0 = False
                    elif r1 == 1:
                        ok0 = _single_one_feasible(topo, cells, idx, 0, f1a0, r2p0)
                    else:
                        ok0 = True
                # value 1: r1' = r1 - 1
                if r1p < 0 or r1p > rc_after or r2p1 < 0 or r2p1 > open_after:
                    ok1 = False
                else:
                    diff = abs(r2p1 - f1a1)
                    if diff > r1p and diff > (4 * r1p if r1p <= deg4 else capacity(idx + 1, r1p)):
                        ok1 = False
                    elif r1p == 1:
                        ok1 = _single_one_feasible(topo, cells, idx, 1, f1a1, r2p1)
                    else:
                        ok1 = True

            if ok0 and ok1:
                if endgame:
                    # in the endgame ok0 and ok1 are the completion counts,
                    # so the step is uniform over the completions
                    p1 = ok1 / (ok0 + ok1)
                    if p1 < eps:
                        p1 = eps
                    elif p1 > one_minus_eps:
                        p1 = one_minus_eps
                else:
                    # Gaussian branch weight: the counting base (remaining-ones
                    # density) times a Gaussian likelihood of the remaining
                    # discord under independent random placement of the
                    # remaining ones, where free-free edges are discordant
                    # with rate 2p(1-p) and frontier edges with rate p or 1-p
                    # by their determined endpoint. The terms that depend only
                    # on the cell and r1 come from the memo (see
                    # _branch_terms); value 1 leaves r1p ones, value 0 leaves
                    # r1. Keep the operation order: another order changes the
                    # low bits of P[1], and with them the draws for a fixed
                    # seed.
                    at = terms_of[idx]
                    terms = at.get(r1)
                    if terms is None:
                        terms = at[r1] = _branch_terms(r1, rc_after, eff1, fro1, topo.n_edges)
                    e1, two_var1, half_log_var1, e0, two_var0, half_log_var0, log_mu, log_1_mu = (
                        unpack(terms)
                    )
                    p = r1p / rc_after
                    omp = 1.0 - p
                    m = e1 + (fro1 - f1a1) * p + f1a1 * omp
                    lw1 = log_mu - (r2p1 - m) ** 2 / two_var1 - half_log_var1
                    p = r1 / rc_after
                    omp = 1.0 - p
                    m = e0 + (fro1 - f1a0) * p + f1a0 * omp
                    lw0 = log_1_mu - (r2p0 - m) ** 2 / two_var0 - half_log_var0
                    # P[1] floored at eps on both sides keeps q > 0 on the fiber
                    d = lw0 - lw1
                    if d > 36.0:
                        p1 = eps
                    elif d < -36.0:
                        p1 = one_minus_eps
                    else:
                        p1 = 1.0 / (1.0 + exp(d))
                        if p1 < eps:
                            p1 = eps
                        elif p1 > one_minus_eps:
                            p1 = one_minus_eps
            if step_cache is not None:
                lp1, lp0 = (log(p1), log(1.0 - p1)) if ok0 and ok1 else (0.0, 0.0)
                step = step_cache[key] = (ok0, ok1, p1, lp1, lp0, r2p0, f1a0, r2p1, f1a1)
        else:
            ok0, ok1, p1, lp1, lp0, r2p0, f1a0, r2p1, f1a1 = step

        # step is the cache entry and holds the logs; without a cache, take them here
        if ok0 and ok1:
            if us[idx] < p1:
                v = 1
                log_q += lp1 if step else log(p1)
            else:
                v = 0
                log_q += lp0 if step else log(1.0 - p1)
        elif ok1:
            v = 1
        elif ok0:
            v = 0
        else:
            return Draw.reject(idx)

        if v:
            cells[idx] = 1
            r1 -= 1
            r2 = r2p1
            f1 = f1a1
        else:
            r2 = r2p0
            f1 = f1a0
        if track:
            key = key + key + v

    if r1 or r2:
        return Draw.reject(n)
    return Draw(tuple(cells), rows, cols, log_q, None)


class OffFiberError(ValueError):
    """Raised when replaying a table that is not in the target fiber."""


def replay_log_q(
    table: BinaryTable, stats: SuffStats, config: SamplerConfig, memo: dict | None = None
) -> float:
    """The exact log proposal probability of an on-fiber table.

    Runs run_trial with forcing uniforms, 0.0 at a one and 1.0 at a zero.
    Where both values are feasible, RHO_CLAMP keeps P[1] inside
    [eps, 1 - eps], so the uniform takes the table's value; a forced move
    takes the only feasible one. The trial therefore follows the table
    exactly when every one of its values passes the screens, and its log_q
    is the table's bit for bit.
    Raises OffFiberError naming the first cell the trial cannot follow.
    memo is run_trial's: callers that replay many tables of one shape pass
    one dict to every call, and None gives each call a fresh one.
    """
    got = SuffStats.of(table)
    if got != stats:
        raise OffFiberError(f"table has stats ({got.t1}, {got.t2}), expected {stats}")
    forcing = [1.0 - v for v in table.cells]
    draw = run_trial(table.rows, table.cols, stats, config, forcing, memo)
    if not draw.accepted:
        raise OffFiberError(f"the proposal rejects the table at cell {draw.stage}")
    if draw.cells != table.cells:
        idx = next(i for i, (a, b) in enumerate(zip(draw.cells, table.cells)) if a != b)
        raise OffFiberError(
            f"value {table.cells[idx]} at cell {idx} is outside the proposal support"
        )
    return draw.log_q


def uniform_rows(seed: int, n_cells: int, start: int, count: int) -> np.ndarray:
    """Per-trial uniform blocks from one counter-advanced stream.

    Trial i always occupies positions [i*n_cells, (i+1)*n_cells) of the
    PCG64(seed) stream, so any chunking of trials over workers reproduces the
    same uniforms and results are independent of the degree of parallelism.
    """
    bg = np.random.PCG64(seed)
    if start:
        bg.advance(start * n_cells)
    return np.random.Generator(bg).random((count, n_cells))
