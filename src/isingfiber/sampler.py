"""Sequential cell-by-cell sampling of tables with fixed (t1, t2).

Cells are filled in raster order by one step loop, `run_trial`. At each cell
both candidate values are screened by sound feasibility arguments; when both
survive they are weighted by a Gaussian approximation of how many fiber
completions each branch leaves open, which keeps the remaining discord budget
tracking its achievable mean. Every conditional probability is recorded
exactly. `replay_log_q` runs the same loop with forcing uniforms, so the log
proposal probability of an accepted table replays bit for bit by
construction.

The screens depend on the cell's place (see run_trial). In the endgame, one
lookup in an exact table of endgame.py decides each value: it passes iff
some completion meets the remaining budget. Before it the screens are
counting, a discord-budget window, toggle capacity and the exact single-one
check.

All screens are sound (they never exclude a value that still admits a fiber
completion), which makes the proposal strictly positive on the whole fiber;
rejection handles everything the screens fail to catch, and rejected trials
simply carry zero importance weight. The exact endgame leaves nothing to
catch after its first cell: a trial rejects there or before, or not at all,
and on a nonempty fiber of a grid that lies wholly in the endgame no trial
rejects.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, log

import numpy as np

# not called here: bench/tracer.py wraps this attribute
from .cutlp import state_lp_feasible  # noqa: F401
from .endgame import endgame_table, row_endgame
from .grid import BinaryTable, SuffStats, topology

UNKNOWN = -1

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

# exact placement search for the last remaining one is linear in the free
# cells, so it is capped; beyond the cap the other screens stand alone
EXACT_ONE_LIMIT = 128

STEP_CACHE_CELL_LIMIT = 25


@dataclass
class SamplerConfig:
    lp_cell_threshold: int = 20
    rho_clamp: float = 1e-3  # floor on branch probabilities; keeps q > 0 on the fiber
    lp_enabled: bool = True
    naive_proposal: bool = False

    def __post_init__(self):
        if self.lp_cell_threshold < 0:
            raise ValueError("lp_cell_threshold must be nonnegative")
        if not 0.0 < self.rho_clamp < 0.5:
            raise ValueError(f"rho_clamp must be in (0, 0.5), got {self.rho_clamp}")


@dataclass(frozen=True)
class Draw:
    """One sampling trial: an accepted table with its exact log proposal
    probability, or a rejection with the cell index where it died."""

    table: BinaryTable | None
    log_q: float | None
    stage: int | None

    @property
    def accepted(self) -> bool:
        return self.table is not None

    @classmethod
    def accept(cls, table: BinaryTable, log_q: float) -> "Draw":
        return cls(table, log_q, None)

    @classmethod
    def reject(cls, stage: int) -> "Draw":
        return cls(None, None, stage)


@dataclass
class PartialTable:
    """Raster-prefix state: cells before next_index are determined.

    The counters are maintained incrementally: placed_ones and discord restrict
    t1/t2 to the determined region, det_edges counts edges with both endpoints
    determined, and frontier_ones counts edges whose single determined endpoint
    is a one (the discord the all-zero completion would add).
    """

    rows: int
    cols: int
    cells: list[int]
    next_index: int = 0
    placed_ones: int = 0
    discord: int = 0
    det_edges: int = 0
    frontier_ones: int = 0

    @classmethod
    def empty(cls, rows: int, cols: int) -> "PartialTable":
        return cls(rows, cols, [UNKNOWN] * (rows * cols))

    @classmethod
    def from_prefix(cls, rows: int, cols: int, values) -> "PartialTable":
        state = cls.empty(rows, cols)
        for v in values:
            state.place(v)
        return state

    @property
    def prefix(self) -> tuple[int, ...]:
        return tuple(self.cells[: self.next_index])

    @property
    def n_unknown(self) -> int:
        return self.rows * self.cols - self.next_index

    def copy(self) -> "PartialTable":
        return PartialTable(
            self.rows,
            self.cols,
            list(self.cells),
            self.next_index,
            self.placed_ones,
            self.discord,
            self.det_edges,
            self.frontier_ones,
        )

    def place(self, value: int) -> None:
        if value not in (0, 1):
            raise ValueError(f"cell value must be 0 or 1, got {value}")
        idx = self.next_index
        if idx >= self.rows * self.cols:
            raise ValueError("table is already complete")
        topo = topology(self.rows, self.cols)
        for nb in (topo.up[idx], topo.left[idx]):
            if nb >= 0:
                self.det_edges += 1
                self.discord += value != self.cells[nb]
                self.frontier_ones -= self.cells[nb]
        self.frontier_ones += value * topo.fwd_degree[idx]
        self.cells[idx] = value
        self.placed_ones += value
        self.next_index = idx + 1


def _single_one_feasible(topo, cells, idx: int, v: int, f1_after: int, r2p: int) -> bool:
    """Exact check when exactly one 1 remains for the cells after idx.

    The completion is one 1 at a free cell c and zeros elsewhere; its total
    remaining discord is f1_after plus, over c's neighbors, +1 per zero-valued
    neighbor and -1 per determined one (whose frontier edge turns concordant).
    """
    for c in range(idx + 1, topo.n_cells):
        delta = 0
        for nb in topo.neighbors[c]:
            if nb < idx:
                delta += 1 if cells[nb] == 0 else -1
            elif nb == idx:
                delta += 1 if v == 0 else -1
            else:
                delta += 1
        if f1_after + delta == r2p:
            return True
    return False


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
    lp_cache=None,
    step_cache: dict | None = None,
) -> Draw:
    """One trial driven by one uniform per cell: the sampler's only step.

    At each raster cell the screens run for value 0, then for value 1. In the
    endgame one lookup per value is the whole screen: the value passes iff
    some completion places exactly the r1' remaining ones and r2' remaining
    discordant edges. The endgame is the last lp_cell_threshold cells where
    the cached endgame_table exists for the shape (cols <= endgame.MAX_COLS,
    and the last lp_cell_threshold cells carry fewer than 64 edges), and the
    last min(lp_cell_threshold, cols - 1) cells elsewhere, with a row_endgame
    table built at the first endgame cell for the ones still to place.
    Before it the screens are counting (the ones still to place fit in the
    cells after it), the discord budget (the remaining discord r2' is
    nonnegative and fits in the edges not yet determined), toggle capacity
    (r2' differs from the frontier baseline f1, the discord the all-zero
    completion would add, by at most what the r1' remaining ones can flip:
    the sum of the r1' largest free degrees), then the exact single-one check
    (r1' = 1). lp_enabled=False turns the endgame off. Naive mode keeps only
    counting. When both values pass, value 1 is taken iff the cell's uniform
    is below P[1], and the taken branch's probability enters log_q; a single
    feasible value is a forced move.

    lp_cache is accepted and ignored; bench/worker.py still passes it.
    step_cache, keyed by the exact determined prefix, memoizes each step's
    verdicts, P[1] and state updates; it pays only on small grids, where
    prefixes recur across trials (see new_step_cache).
    """
    topo = topology(rows, cols)
    capacity = topo.toggle_capacity
    naive = config.naive_proposal
    screened = config.lp_enabled and not naive
    exact = endgame_table(rows, cols, config.lp_cell_threshold) if screened else None
    # the endgame runs where rc_after <= exact_cells; -1 switches it off. A
    # row table reads only the left value, so its frontier mask is 0
    if exact is not None:
        exact_cells, wmask = config.lp_cell_threshold, (1 << cols) - 1
    elif screened:
        exact_cells, wmask = min(config.lp_cell_threshold, cols - 1), 0
    else:
        exact_cells, wmask = -1, 0
    track = step_cache is not None or exact is not None  # whether key is kept
    eps = config.rho_clamp
    one_minus_eps = 1.0 - eps
    scale = _var_scale(topo.n_edges)
    var_floor = VAR_FLOOR
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
            if rc_after <= exact_cells:
                if exact is None:
                    # the first endgame cell this trial computes: the cells
                    # after it lie below determined ones
                    ups = [cells[u] if u >= 0 else -1 for u in topo.up[idx + 1 :]]
                    exact = row_endgame(ups, r1)
                # bit r2' of the set for r1' and the frontier after the cell,
                # in place of the screens below
                level = exact[rc_after]
                w0 = (key + key) & wmask
                ok0 = r1 <= rc_after and r2p0 >= 0 and (level[w0, r1] >> r2p0) & 1
                ok1 = 0 <= r1p <= rc_after and r2p1 >= 0 and (level[w0 + 1, r1p] >> r2p1) & 1
            else:
                # value 0: r1' = r1
                if r1 > rc_after:
                    ok0 = False
                elif naive:
                    ok0 = True
                elif r2p0 < 0 or r2p0 > open_after:
                    ok0 = False
                else:
                    diff = abs(r2p0 - f1a0)
                    if diff > r1 and diff > (4 * r1 if r1 <= deg4 else capacity(idx + 1, r1)):
                        ok0 = False
                    elif r1 == 1 and rc_after <= EXACT_ONE_LIMIT:
                        ok0 = _single_one_feasible(topo, cells, idx, 0, f1a0, r2p0)
                    else:
                        ok0 = True
                # value 1: r1' = r1 - 1
                if r1p < 0 or r1p > rc_after:
                    ok1 = False
                elif naive:
                    ok1 = True
                elif r2p1 < 0 or r2p1 > open_after:
                    ok1 = False
                else:
                    diff = abs(r2p1 - f1a1)
                    if diff > r1p and diff > (4 * r1p if r1p <= deg4 else capacity(idx + 1, r1p)):
                        ok1 = False
                    elif r1p == 1 and rc_after <= EXACT_ONE_LIMIT:
                        ok1 = _single_one_feasible(topo, cells, idx, 1, f1a1, r2p1)
                    else:
                        ok1 = True

            if ok0 and ok1:
                if naive:
                    p1 = r1 / (rc_after + 1)
                else:
                    # Gaussian branch weight: the counting base (remaining-ones
                    # density) times a Gaussian likelihood of the remaining
                    # discord under independent random placement of the
                    # remaining ones, where free-free edges are discordant
                    # with rate 2p(1-p) and frontier edges with rate p or 1-p
                    # by their determined endpoint. Keep the operation order:
                    # another order changes the low bits of P[1], and with
                    # them the draws for a fixed seed.
                    mu = r1 / (rc_after + 1)
                    p = r1p / rc_after
                    omp = 1.0 - p
                    q2 = 2.0 * p * omp
                    e = eff1 * q2
                    m = e + (fro1 - f1a1) * p + f1a1 * omp
                    var = (e * (1.0 - q2) + fro1 * p * omp) * scale + var_floor
                    lw1 = log(mu) - (r2p1 - m) ** 2 / (2.0 * var) - 0.5 * log(var)
                    p = r1 / rc_after
                    omp = 1.0 - p
                    q2 = 2.0 * p * omp
                    e = eff1 * q2
                    m = e + (fro1 - f1a0) * p + f1a0 * omp
                    var = (e * (1.0 - q2) + fro1 * p * omp) * scale + var_floor
                    lw0 = log(1.0 - mu) - (r2p0 - m) ** 2 / (2.0 * var) - 0.5 * log(var)
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
                step_cache[key] = (ok0, ok1, p1, r2p0, f1a0, r2p1, f1a1)
        else:
            ok0, ok1, p1, r2p0, f1a0, r2p1, f1a1 = step

        if ok0 and ok1:
            if us[idx] < p1:
                v = 1
                log_q += log(p1)
            else:
                v = 0
                log_q += log(1.0 - p1)
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
    return Draw.accept(BinaryTable(rows, cols, tuple(cells)), log_q)


class OffFiberError(ValueError):
    """Raised when replaying a table that is not in the target fiber."""


def replay_log_q(table: BinaryTable, stats: SuffStats, config: SamplerConfig) -> float:
    """The exact log proposal probability of an on-fiber table.

    Runs run_trial with forcing uniforms, 0.0 at a one and 1.0 at a zero.
    Where both values are feasible, rho_clamp keeps P[1] inside
    [eps, 1 - eps] (and naive P[1] lies strictly between 0 and 1), so the
    uniform takes the table's value; a forced move takes the only feasible
    one. The trial therefore follows the table exactly when every one of its
    values passes the screens, and its log_q is the table's bit for bit.
    Raises OffFiberError naming the first cell the trial cannot follow.
    """
    from .grid import t1 as stat_t1, t2 as stat_t2

    if stat_t1(table) != stats.t1 or stat_t2(table) != stats.t2:
        raise OffFiberError(
            f"table has stats ({stat_t1(table)}, {stat_t2(table)}), expected {stats}"
        )
    forcing = [1.0 - v for v in table.cells]
    draw = run_trial(table.rows, table.cols, stats, config, forcing)
    if not draw.accepted:
        raise OffFiberError(f"the proposal rejects the table at cell {draw.stage}")
    if draw.table != table:
        idx = next(i for i, (a, b) in enumerate(zip(draw.table.cells, table.cells)) if a != b)
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
