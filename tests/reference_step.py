"""The sampler's per-cell step written as a plain loop on a PartialTable.

`PartialTable` is a raster-prefix state with counters kept one placement at
a time; it lives here because this loop is the only code that steps one.

This is the reference for `sampler.run_trial`: the screens one value at a
time (`feasible_values`, with the single-one check as a scan over every free
cell), the Gaussian branch weight one operation at a time
(`branch_probabilities`) and the trial as a loop over them
(`reference_trial`), with no caches and no shortcuts. `run_trial` must equal
`reference_trial` Draw for Draw, `log_q` bits included.

In the sampler's endgame, the reference decides a value by `completable`
and takes its P[1] from `completions`: a forward count over completions that
shares no code with either endgame table.
"""

from dataclasses import dataclass
from functools import lru_cache
from math import exp, log

from isingfiber.endgame import zone
from isingfiber.grid import BinaryTable, topology
from isingfiber.sampler import RHO_CLAMP, VAR_FLOOR, Draw, _var_scale

UNKNOWN = -1


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


def single_one_feasible(topo, cells, idx, v, f1_after, r2p):
    """Whether one 1 at some cell after idx, with zeros elsewhere, leaves
    exactly r2p discordant edges: a scan over every such cell."""
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


def after_state(state, v):
    """(discord, frontier ones) after placing v at the next cell."""
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


@lru_cache(maxsize=None)
def completions(rows, cols, k, frontier, r1, r2):
    """How many fillings of cells k.. of a rows x cols grid hold exactly r1
    ones and add exactly r2 discordant edges, given frontier = the values of
    cells k - cols .. k - 1 (cells before 0 read as 0; no edge reaches
    them)."""
    n = rows * cols
    if r1 < 0 or r2 < 0 or r1 > n - k:
        return 0
    if k == n:
        return int(r1 == 0 and r2 == 0)
    total = 0
    for v in (0, 1):
        d = 0
        if k >= cols and frontier[0] != v:
            d += 1
        if k % cols and frontier[-1] != v:
            d += 1
        total += completions(rows, cols, k + 1, frontier[1:] + (v,), r1 - v, r2 - d)
    return total


def completable(rows, cols, k, frontier, r1, r2):
    """Whether cells k.. can meet the budget (see completions)."""
    return completions(rows, cols, k, frontier, r1, r2) > 0


def frontier_of(cells, cols, k):
    """The values of cells k - cols .. k - 1, with 0 before cell 0."""
    return tuple(cells[c] if c >= 0 else 0 for c in range(k - cols, k))


def in_zone(state, stats, config):
    """Whether the next cell lies in the endgame, where a value is decided by
    `completable` and P[1] comes from completion counts: at most reach cells
    follow it and at most cap ones are left to place (endgame.zone)."""
    reach, cap, _ = zone(state.rows, state.cols, config.endgame_cells)
    rc_after = state.rows * state.cols - state.next_index - 1
    return rc_after <= reach and stats.t1 - state.placed_ones <= cap


def completions_after(state, stats, v):
    """The completions left once v is placed at the next cell."""
    idx = state.next_index
    disc_after, _ = after_state(state, v)
    r1p = stats.t1 - state.placed_ones - v
    frontier = frontier_of(state.cells[:idx] + [v], state.cols, idx + 1)
    return completions(state.rows, state.cols, idx + 1, frontier, r1p, stats.t2 - disc_after)


def feasible_values(state, stats, config, endgame=True):
    """Values at the next cell that pass every enabled screen: counting, the
    discord budget and toggle capacity, then the exact single-one check; in
    the endgame, exactly the values that admit a completion. endgame=False
    runs the screens on the endgame's cells too."""
    if state.next_index >= state.rows * state.cols:
        raise ValueError("state has no unknown cell")
    topo = topology(state.rows, state.cols)
    idx = state.next_index
    rc_after = topo.n_cells - idx - 1
    nb_det = (topo.up[idx] >= 0) + (topo.left[idx] >= 0)
    if endgame and in_zone(state, stats, config):
        return tuple(v for v in (0, 1) if completions_after(state, stats, v))
    out = []
    for v in (0, 1):
        r1p = stats.t1 - state.placed_ones - v
        if r1p < 0 or r1p > rc_after:
            continue
        disc_after, f1_after = after_state(state, v)
        r2p = stats.t2 - disc_after
        if r2p < 0 or r2p > topo.n_edges - state.det_edges - nb_det:
            continue
        diff = abs(r2p - f1_after)
        if diff > r1p and diff > topo.toggle_capacity(idx + 1, r1p):
            continue
        if r1p == 1:
            if not single_one_feasible(topo, state.cells, idx, v, f1_after, r2p):
                continue
        out.append(v)
    return tuple(out)


def branch_probabilities(state, stats, config):
    """(P[0], P[1]) at the next cell when both values are feasible."""
    topo = topology(state.rows, state.cols)
    idx = state.next_index
    r1 = stats.t1 - state.placed_ones
    rc = topo.n_cells - idx
    eps = RHO_CLAMP
    if in_zone(state, stats, config):
        n0, n1 = completions_after(state, stats, 0), completions_after(state, stats, 1)
        p1 = min(max(n1 / (n0 + n1), eps), 1.0 - eps)
        return 1.0 - p1, p1
    disc0, f1a0 = after_state(state, 0)
    disc1, f1a1 = after_state(state, 1)
    r2p0, r2p1 = stats.t2 - disc0, stats.t2 - disc1
    eff1 = topo.free_free_edges[idx + 1]
    fro1 = topo.frontier_edges[idx + 1]
    scale = _var_scale(topo.n_edges)

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


def reference_trial(rows, cols, stats, config, uniforms, branch_cells=None, endgame=True):
    """One trial: the screens, then the uniform picks 1 when it is below P[1].
    Each cell where both values pass is appended to branch_cells, if given;
    endgame=False screens every cell as feasible_values does without it."""
    state = PartialTable.empty(rows, cols)
    log_q = 0.0
    for idx in range(rows * cols):
        feasible = feasible_values(state, stats, config, endgame)
        if not feasible:
            return Draw.reject(idx)
        if len(feasible) == 2:
            if branch_cells is not None:
                branch_cells.append(idx)
            p0, p1 = branch_probabilities(state, stats, config)
            v = 1 if uniforms[idx] < p1 else 0
            log_q += log(p1 if v else p0)
        else:
            v = feasible[0]
        state.place(v)
    if state.placed_ones != stats.t1 or state.discord != stats.t2:
        return Draw.reject(rows * cols)
    return Draw.accept(BinaryTable(rows, cols, tuple(state.cells)), log_q)
