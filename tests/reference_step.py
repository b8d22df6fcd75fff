"""The sampler's per-cell step written as a plain loop on PartialTable.

This is the reference for `sampler.run_trial`: the screens one value at a
time (`feasible_values`), the Gaussian branch weight one operation at a time
(`branch_probabilities`) and the trial as a loop over them
(`reference_trial`), with no caches and no shortcuts. `run_trial` must equal
`reference_trial` Draw for Draw, `log_q` bits included.
"""

from math import exp, log

from isingfiber.grid import BinaryTable, topology
from isingfiber.sampler import (
    EXACT_ONE_LIMIT,
    UNKNOWN,
    VAR_FLOOR,
    Draw,
    PartialTable,
    _lp_feasible_cached,
    _single_one_feasible,
    _var_scale,
)


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


def feasible_values(state, stats, config, lp_cache=None):
    """Values at the next cell that pass every enabled screen: counting, the
    discord budget and toggle capacity, then the exact single-one check or
    the LP. In naive mode only the counting screen applies."""
    if state.next_index >= state.rows * state.cols:
        raise ValueError("state has no unknown cell")
    topo = topology(state.rows, state.cols)
    idx = state.next_index
    rc_after = topo.n_cells - idx - 1
    nb_det = (topo.up[idx] >= 0) + (topo.left[idx] >= 0)
    out = []
    for v in (0, 1):
        r1p = stats.t1 - state.placed_ones - v
        if r1p < 0 or r1p > rc_after:
            continue
        if not config.naive_proposal:
            disc_after, f1_after = after_state(state, v)
            r2p = stats.t2 - disc_after
            if r2p < 0 or r2p > topo.n_edges - state.det_edges - nb_det:
                continue
            diff = abs(r2p - f1_after)
            if diff > r1p and diff > topo.toggle_capacity(idx + 1, r1p):
                continue
            if r1p == 1 and rc_after <= EXACT_ONE_LIMIT:
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


def branch_probabilities(state, stats, config):
    """(P[0], P[1]) at the next cell when both values are feasible."""
    topo = topology(state.rows, state.cols)
    idx = state.next_index
    r1 = stats.t1 - state.placed_ones
    rc = topo.n_cells - idx
    if config.naive_proposal:
        p1 = r1 / rc
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

    eps = config.rho_clamp
    d = lw0 - lw1
    if d > 36.0:
        p1 = eps
    elif d < -36.0:
        p1 = 1.0 - eps
    else:
        p1 = 1.0 / (1.0 + exp(d))
        p1 = min(max(p1, eps), 1.0 - eps)
    return 1.0 - p1, p1


def reference_trial(rows, cols, stats, config, uniforms, lp_cache=None):
    """One trial: the screens, then the uniform picks 1 when it is below P[1]."""
    state = PartialTable.empty(rows, cols)
    log_q = 0.0
    for idx in range(rows * cols):
        feasible = feasible_values(state, stats, config, lp_cache)
        if not feasible:
            return Draw.reject(idx)
        if len(feasible) == 2:
            p0, p1 = branch_probabilities(state, stats, config)
            v = 1 if uniforms[idx] < p1 else 0
            log_q += log(p1 if v else p0)
        else:
            v = feasible[0]
        state.place(v)
    if state.placed_ones != stats.t1 or state.discord != stats.t2:
        return Draw.reject(rows * cols)
    return Draw.accept(BinaryTable(rows, cols, tuple(state.cells)), log_q)
