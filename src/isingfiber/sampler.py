"""Sequential cell-by-cell sampling of tables with fixed (t1, t2).

Cells are filled in raster order. At each cell the candidate values are
screened by sound feasibility arguments (counting, a discord-budget window,
exact small-endgame analysis, and close to the end an LP feasibility check
over the cut-polytope relaxation); the surviving values are then weighted by a
Gaussian approximation of how many fiber completions each branch leaves open,
which keeps the remaining discord budget tracking its achievable mean. Every
conditional probability is recorded exactly, so the proposal probability of an
accepted table can be replayed bit-for-bit.

All screens are sound (they never exclude a value that still admits a fiber
completion), which makes the proposal strictly positive on the whole fiber;
rejection handles everything the screens fail to catch, and rejected trials
simply carry zero importance weight.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, log

import numpy as np

from .cutlp import state_lp_feasible
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
# cells, so it is capped; beyond the cap the LP screen takes over
EXACT_ONE_LIMIT = 128

STEP_CACHE_CELL_LIMIT = 25


@dataclass
class SamplerConfig:
    lp_cell_threshold: int = 20
    lp_ratio_threshold: float = 2.0
    rho_clamp: float = 1e-3  # floor on branch probabilities; keeps q > 0 on the fiber
    lp_enabled: bool = True
    naive_proposal: bool = False

    def __post_init__(self):
        if self.lp_cell_threshold < 0 or self.lp_ratio_threshold < 0:
            raise ValueError("LP trigger thresholds must be nonnegative")
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


def _lp_feasible_cached(
    rows: int, cols: int, cells, idx: int, v: int, r1p: int, r2p: int, lp_cache: dict | None
) -> bool:
    """LP feasibility of the prefix extended with v, memoized by the key
    (k, window, r1, r2) that state_lp_feasible takes: k = idx + 1, and the
    window holds the last cols + 1 determined values, v among them."""
    lo = idx - cols
    if lo < 0:
        lo = 0
    window = v
    for i in range(idx - 1, lo - 1, -1):
        window = (window << 1) | cells[i]
    key = (idx + 1, window, r1p, r2p)
    if lp_cache is None:
        return state_lp_feasible(rows, cols, *key)
    ok = lp_cache.get(key)
    if ok is None:
        ok = lp_cache[key] = state_lp_feasible(rows, cols, *key)
    return ok


def feasible_values(
    state: PartialTable,
    stats: SuffStats,
    config: SamplerConfig,
    lp_cache: dict | None = None,
) -> tuple[int, ...]:
    """Values at the next cell that pass every enabled screen.

    Counting: the ones still to place must fit in the remaining cells. Discord
    budget: the remaining discord r2' can differ from the frontier baseline f1
    (the discord the all-zero completion would add) by at most the number of
    edge flips the remaining ones can cause (the sum of the r1' largest free
    degrees); with r1' = 0 this forces r2' == f1 exactly, and with r1' = 1 the
    unique placement problem is solved exactly. LP: when at most
    lp_cell_threshold cells remain undetermined and r2' is small relative to
    r1', the cut-polytope relaxation of the extended state must be feasible.
    Every screen is sound, so an excluded value admits no fiber completion.
    In naive mode only the counting screen applies.
    """
    if state.next_index >= state.rows * state.cols:
        raise ValueError("state has no unknown cell")
    topo = topology(state.rows, state.cols)
    idx = state.next_index
    n = topo.n_cells
    rc_after = n - idx - 1
    up, lf = topo.up[idx], topo.left[idx]
    uv = state.cells[up] if up >= 0 else UNKNOWN
    lv = state.cells[lf] if lf >= 0 else UNKNOWN

    out = []
    for v in (0, 1):
        r1p = stats.t1 - state.placed_ones - v
        if r1p < 0 or r1p > rc_after:
            continue
        if not config.naive_proposal:
            disc_after = (
                state.discord
                + (1 if (uv != UNKNOWN and v != uv) else 0)
                + (1 if (lv != UNKNOWN and v != lv) else 0)
            )
            r2p = stats.t2 - disc_after
            det_after = state.det_edges + (up >= 0) + (lf >= 0)
            if r2p < 0 or r2p > topo.n_edges - det_after:
                continue
            f1_after = (
                state.frontier_ones
                - (1 if uv == 1 else 0)
                - (1 if lv == 1 else 0)
                + v * topo.fwd_degree[idx]
            )
            diff = abs(r2p - f1_after)
            if diff > r1p and diff > topo.toggle_capacity(idx + 1, r1p):
                continue
            exact_one = r1p == 1 and rc_after <= EXACT_ONE_LIMIT
            if exact_one:
                if not _single_one_feasible(topo, state.cells, idx, v, f1_after, r2p):
                    continue
            elif (
                r1p >= 1
                and config.lp_enabled
                and rc_after <= config.lp_cell_threshold
                and r2p <= config.lp_ratio_threshold * max(r1p, 1)
            ):
                if not _lp_feasible_cached(
                    state.rows, state.cols, state.cells, idx, v, r1p, r2p, lp_cache
                ):
                    continue
        out.append(v)
    return tuple(out)


def _branch_probs(
    r1: int,
    rc: int,
    r2p0: int,
    f1a0: int,
    r2p1: int,
    f1a1: int,
    eff1: int,
    fro1: int,
    scale: float,
    eps: float,
) -> tuple[float, float]:
    """Exact (P[0], P[1]) when both values are feasible.

    Each branch is weighted by the counting base (remaining-ones density) times
    a Gaussian likelihood of the remaining discord budget under independent
    random placement of the remaining ones: free-free edges are discordant
    with rate 2p(1-p), frontier edges with rate p or 1-p depending on their
    determined endpoint. Probabilities are floored at eps so every feasible
    branch keeps positive probability.
    """
    rc_after = rc - 1
    mu = r1 / rc

    p = (r1 - 1) / rc_after
    q2 = 2.0 * p * (1.0 - p)
    m = eff1 * q2 + (fro1 - f1a1) * p + f1a1 * (1.0 - p)
    var = (eff1 * q2 * (1.0 - q2) + fro1 * p * (1.0 - p)) * scale + VAR_FLOOR
    lw1 = log(mu) - (r2p1 - m) ** 2 / (2.0 * var) - 0.5 * log(var)

    p = r1 / rc_after
    q2 = 2.0 * p * (1.0 - p)
    m = eff1 * q2 + (fro1 - f1a0) * p + f1a0 * (1.0 - p)
    var = (eff1 * q2 * (1.0 - q2) + fro1 * p * (1.0 - p)) * scale + VAR_FLOOR
    lw0 = log(1.0 - mu) - (r2p0 - m) ** 2 / (2.0 * var) - 0.5 * log(var)

    d = lw0 - lw1
    if d > 36.0:
        p1 = eps
    elif d < -36.0:
        p1 = 1.0 - eps
    else:
        p1 = 1.0 / (1.0 + exp(d))
        p1 = min(max(p1, eps), 1.0 - eps)
    return 1.0 - p1, p1


def _after_state(state: PartialTable, v: int) -> tuple[int, int]:
    topo = topology(state.rows, state.cols)
    idx = state.next_index
    up, lf = topo.up[idx], topo.left[idx]
    uv = state.cells[up] if up >= 0 else UNKNOWN
    lv = state.cells[lf] if lf >= 0 else UNKNOWN
    disc_after = (
        state.discord
        + (1 if (uv != UNKNOWN and v != uv) else 0)
        + (1 if (lv != UNKNOWN and v != lv) else 0)
    )
    f1_after = (
        state.frontier_ones
        - (1 if uv == 1 else 0)
        - (1 if lv == 1 else 0)
        + v * topo.fwd_degree[idx]
    )
    return disc_after, f1_after


def branch_probabilities(
    state: PartialTable, stats: SuffStats, config: SamplerConfig
) -> tuple[float, float]:
    """Exact (P[0], P[1]) used when both values are feasible."""
    topo = topology(state.rows, state.cols)
    idx = state.next_index
    r1 = stats.t1 - state.placed_ones
    rc = topo.n_cells - idx
    if config.naive_proposal:
        p1 = r1 / rc
        return 1.0 - p1, p1
    d0, f0 = _after_state(state, 0)
    d1, f1 = _after_state(state, 1)
    return _branch_probs(
        r1,
        rc,
        stats.t2 - d0,
        f0,
        stats.t2 - d1,
        f1,
        topo.free_free_edges[idx + 1],
        topo.frontier_edges[idx + 1],
        _var_scale(topo.n_edges),
        config.rho_clamp,
    )


def propose_cell(
    state: PartialTable,
    stats: SuffStats,
    config: SamplerConfig,
    feasible: tuple[int, ...],
    rng: np.random.Generator,
) -> tuple[int, float]:
    """Sample the next cell value from the engineered conditional.

    Returns the value together with its exact realized probability; a
    singleton feasible set is a forced move with probability one.
    """
    if not feasible:
        raise ValueError("feasible set is empty")
    if len(feasible) == 1:
        return feasible[0], 1.0
    p0, p1 = branch_probabilities(state, stats, config)
    v = 1 if rng.random() < p1 else 0
    return v, (p1 if v else p0)


def sample_table(
    stats: SuffStats,
    rows: int,
    cols: int,
    config: SamplerConfig,
    rng: np.random.Generator,
    lp_cache: dict | None = None,
) -> Draw:
    """Run one sequential trial; each cell consumes one uniform from `rng`."""
    stats.validate_for(rows, cols)
    uniforms = rng.random(rows * cols)
    return run_trial(rows, cols, stats, config, uniforms, lp_cache)


def run_trial(
    rows: int,
    cols: int,
    stats: SuffStats,
    config: SamplerConfig,
    uniforms,
    lp_cache: dict | None = None,
    step_cache: dict | None = None,
) -> Draw:
    """One trial driven by a per-cell uniform vector (the hot path).

    Inlines the screens and proposal arithmetic of feasible_values /
    branch_probabilities; replay_log_q pins the two code paths together.
    step_cache, keyed by the exact determined prefix, memoizes per-step
    decisions; it is only worth carrying on small grids where prefixes recur
    across trials.
    """
    topo = topology(rows, cols)
    n = topo.n_cells
    t1, t2 = stats.t1, stats.t2
    ups, lefts, fwd = topo.up, topo.left, topo.fwd_degree
    capacity = topo.toggle_capacity
    eff_arr, fro_arr = topo.free_free_edges, topo.frontier_edges
    total_edges = topo.n_edges
    naive = config.naive_proposal
    lp_on = config.lp_enabled and not naive
    lp_cells = config.lp_cell_threshold
    lp_ratio = config.lp_ratio_threshold
    eps = config.rho_clamp
    scale = _var_scale(total_edges)

    cells = [0] * n
    bits = 0
    placed = disc = det_e = f1 = 0
    log_q = 0.0

    for idx in range(n):
        key = (idx, bits)
        step = step_cache.get(key) if step_cache is not None else None
        if step is None:
            rc_after = n - idx - 1
            up, lf = ups[idx], lefts[idx]
            uv = cells[up] if up >= 0 else UNKNOWN
            lv = cells[lf] if lf >= 0 else UNKNOWN
            nb_det = (up >= 0) + (lf >= 0)
            f1_base = f1 - (1 if uv == 1 else 0) - (1 if lv == 1 else 0)

            feas = 0  # bitmask over {0,1}
            upd = [None, None]
            for v in (0, 1):
                r1p = t1 - placed - v
                if r1p < 0 or r1p > rc_after:
                    continue
                d_add = (1 if (uv != UNKNOWN and v != uv) else 0) + (
                    1 if (lv != UNKNOWN and v != lv) else 0
                )
                disc_after = disc + d_add
                f1_after = f1_base + v * fwd[idx]
                if not naive:
                    r2p = t2 - disc_after
                    if r2p < 0 or r2p > total_edges - det_e - nb_det:
                        continue
                    diff = abs(r2p - f1_after)
                    if diff > r1p and diff > capacity(idx + 1, r1p):
                        continue
                    if r1p == 1 and rc_after <= EXACT_ONE_LIMIT:
                        if not _single_one_feasible(topo, cells, idx, v, f1_after, r2p):
                            continue
                    elif (
                        r1p >= 1
                        and lp_on
                        and rc_after <= lp_cells
                        and r2p <= lp_ratio * max(r1p, 1)
                    ):
                        if not _lp_feasible_cached(
                            rows, cols, cells, idx, v, r1p, r2p, lp_cache
                        ):
                            continue
                feas |= 1 << v
                upd[v] = (disc_after, f1_after)

            if feas == 3:
                r1 = t1 - placed
                rc = n - idx
                if naive:
                    p1 = r1 / rc
                    p0 = 1.0 - p1
                else:
                    p0, p1 = _branch_probs(
                        r1,
                        rc,
                        t2 - upd[0][0],
                        upd[0][1],
                        t2 - upd[1][0],
                        upd[1][1],
                        eff_arr[idx + 1],
                        fro_arr[idx + 1],
                        scale,
                        eps,
                    )
            else:
                p1 = p0 = 1.0
            step = (feas, p1, p0, nb_det, upd[0], upd[1])
            if step_cache is not None:
                step_cache[key] = step

        feas, p1, p0, nb_det, upd0, upd1 = step
        if feas == 0:
            return Draw.reject(idx)
        if feas == 3:
            if uniforms[idx] < p1:
                v = 1
                log_q += log(p1)
            else:
                v = 0
                log_q += log(p0)
        else:
            v = feas >> 1  # 1 iff only value 1 is feasible

        disc, f1 = upd1 if v else upd0
        if v:
            cells[idx] = 1
            bits |= 1 << idx
            placed += 1
        det_e += nb_det

    if placed != t1 or disc != t2:
        return Draw.reject(n)
    return Draw.accept(BinaryTable(rows, cols, tuple(cells)), log_q)


class OffFiberError(ValueError):
    """Raised when replaying a table that is not in the target fiber."""


def replay_log_q(
    table: BinaryTable, stats: SuffStats, config: SamplerConfig, lp_cache: dict | None = None
) -> float:
    """Recompute the exact log proposal probability of an on-fiber table.

    Walks the raster order through the public screening and proposal
    operations; matches the log_q of an accepted Draw bit-for-bit.
    """
    from .grid import t1 as stat_t1, t2 as stat_t2

    if stat_t1(table) != stats.t1 or stat_t2(table) != stats.t2:
        raise OffFiberError(
            f"table has stats ({stat_t1(table)}, {stat_t2(table)}), expected {stats}"
        )
    state = PartialTable.empty(table.rows, table.cols)
    log_q = 0.0
    for idx in range(table.rows * table.cols):
        v = table.cells[idx]
        feasible = feasible_values(state, stats, config, lp_cache)
        if v not in feasible:
            raise OffFiberError(f"value {v} at cell {idx} is outside the proposal support")
        if len(feasible) == 2:
            p0, p1 = branch_probabilities(state, stats, config)
            log_q += log(p1 if v else p0)
        state.place(v)
    return log_q


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
