"""Gibbs samplers that generate observed tables.

Both samplers run the same full raster sweeps from the all-zero table, updating
each cell from its full conditional using the freshest neighbor values, and
return the state after `sweeps` sweeps (1001 by default, matching the burn-in
convention of taking the 1001st state as the sample). The conditional is read
from a table of P(cell = 1) that each model fills from `ising_logit` or
`autologistic_logit`, indexed by a weighted count of the neighbor ones.

A cell whose uniform lies below every entry its neighbors can select becomes
1, and one at or above every such entry becomes 0, so the sweep settles those
cells with numpy for a chunk of sweeps at once; only the cells in between are
visited one at a time, in raster order. On sparse tables that is a few
percent of the cells. The tables and the generator's state afterwards are
those of the plain cell-by-cell loop."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import exp, isnan

import numpy as np

from .grid import BinaryTable

DEFAULT_SWEEPS = 1001


@dataclass(frozen=True)
class IsingParams:
    alpha: float
    beta: float

    def __post_init__(self):
        if not (np.isfinite(self.alpha) and np.isfinite(self.beta)):
            raise ValueError(f"parameters must be finite, got {self}")


@dataclass(frozen=True)
class AutologisticParams:
    beta0: float
    beta1: float
    beta2: float
    beta3: float
    beta4: float

    def __post_init__(self):
        if not all(np.isfinite(v) for v in self.as_tuple()):
            raise ValueError(f"parameters must be finite, got {self}")

    def as_tuple(self) -> tuple[float, float, float, float, float]:
        return (self.beta0, self.beta1, self.beta2, self.beta3, self.beta4)


def bernoulli_p(logit: float) -> float:
    """P(cell = 1) from the conditional log-odds, computed overflow-safely."""
    if logit >= 0:
        return 1.0 / (1.0 + exp(-logit))
    e = exp(logit)
    return e / (1.0 + e)


def ising_logit(params: IsingParams, degree: int, neighbor_sum: int) -> float:
    """Conditional log-odds of a one: alpha + beta*degree - 2*beta*(neighbor ones).

    This is the conditional of exp(alpha*t1 + beta*t2): setting the cell to one
    adds alpha to the exponent and flips the concordance of each of `degree`
    edges, changing t2 by degree - 2*(neighbor ones).
    """
    return params.alpha + params.beta * degree - 2.0 * params.beta * neighbor_sum


def autologistic_logit(params: AutologisticParams, th, tv, td, ta) -> float:
    """Conditional log-odds from the pairwise horizontal/vertical/diagonal/
    antidiagonal neighbor sums; out-of-grid terms contribute zero."""
    return (
        params.beta0
        + params.beta1 * th
        + params.beta2 * tv
        + params.beta3 * td
        + params.beta4 * ta
    )


# (row step, column step, weight) per neighbor direction. An Ising neighbor
# weighs 1, so the code is the neighbor sum; the autologistic code is
# 27*th + 9*tv + 3*td + ta, from the four directions' neighbor sums.
_ISING_DIRECTIONS = ((-1, 0, 1), (0, -1, 1), (0, 1, 1), (1, 0, 1))
_AUTOLOGISTIC_DIRECTIONS = (
    (0, -1, 27), (0, 1, 27), (-1, 0, 9), (1, 0, 9), (-1, -1, 3), (1, 1, 3), (-1, 1, 1), (1, -1, 1)
)


# Uniforms per chunk of whole sweeps (at least one sweep): 2**13 doubles, 64 KiB.
_CHUNK_CELLS = 1 << 13


@lru_cache(maxsize=None)
def _sweep_plan(rows: int, cols: int, directions) -> tuple:
    """The shape's part of a sweep, cached per shape and direction set.

    Returns (offsets, groups). offsets[k] holds the (offset, weight) pairs of
    cell k's in-grid neighbors, where the offset leads from the cell's
    position in a flat run of consecutive sweeps to the neighbor's freshest
    value: m - k for an earlier neighbor m, which this sweep has set, and
    m - k - n for a later one, still holding the previous sweep's value.
    groups holds (degree, reachable codes, cells) for the cells that share a
    degree and the set of codes their neighbors can produce.
    """
    n = rows * cols
    offsets, groups = [], {}
    for i in range(rows):
        for j in range(cols):
            k = i * cols + j
            nb = [
                ((i + di) * cols + j + dj, w)
                for di, dj, w in directions
                if 0 <= i + di < rows and 0 <= j + dj < cols
            ]
            offsets.append(tuple((m - k if m < k else m - k - n, w) for m, w in nb))
            codes = {0}
            for _, w in nb:
                codes |= {c + w for c in codes}
            groups.setdefault((len(nb), tuple(sorted(codes))), []).append(k)
    return tuple(offsets), tuple((d, codes, tuple(ks)) for (d, codes), ks in groups.items())


def _sweep(rows, cols, directions, tables, sweeps, rng) -> BinaryTable:
    """The state after `sweeps` raster sweeps from the all-zero table: a cell
    becomes 1 iff its uniform is below entry `code` of tables[its degree],
    where code sums the weights of its neighbors that are ones.

    Each cell's entries over the codes its neighbors can produce span
    [lo, hi]. A uniform below lo makes the cell 1 and one at or above hi
    makes it 0, whatever the neighbors hold, so numpy settles those cells for
    a chunk of sweeps at once. The rest are settled in raster order, reading
    each neighbor's freshest value. The generator gives out rows * cols
    doubles per sweep, in the order of one `random(rows * cols)` per sweep.
    A NaN entry, from finite parameters that overflow, raises ValueError.
    """
    if sweeps < 1:
        raise ValueError("need at least one sweep")
    if any(isnan(p) for table in tables for p in table):
        raise ValueError("a conditional probability is NaN: the parameters overflow")
    rng = rng if rng is not None else np.random.default_rng()
    cells = list(BinaryTable(rows, cols, (0,) * (rows * cols)).cells)
    n = len(cells)
    offsets, groups = _sweep_plan(rows, cols, directions)
    lo, hi = np.empty(n), np.empty(n)
    for degree, codes, ks in groups:
        entries = [tables[degree][c] for c in codes]
        lo[list(ks)], hi[list(ks)] = min(entries), max(entries)
    steps = [(offs, tables[len(offs)]) for offs in offsets]
    chunk = max(1, _CHUNK_CELLS // n)
    while sweeps:
        uniforms = rng.random((min(chunk, sweeps), n))
        sweeps -= len(uniforms)
        # the previous state, then this chunk's sweeps, one flat run
        values = cells + (uniforms < lo).view(np.uint8).ravel().tolist()
        ambiguous = np.flatnonzero((uniforms >= lo) & (uniforms < hi))
        # the step of the cell at each position of the run
        run_steps = steps * (len(uniforms) + 1)
        for t, u in zip((ambiguous + n).tolist(), uniforms.ravel()[ambiguous].tolist()):
            offs, table = run_steps[t]
            code = 0
            for off, w in offs:
                if values[t + off]:
                    code += w
            values[t] = 1 if u < table[code] else 0
        cells = values[-n:]
    return BinaryTable(rows, cols, tuple(cells))


def gibbs_ising(
    params: IsingParams,
    rows: int,
    cols: int,
    sweeps: int = DEFAULT_SWEEPS,
    rng: np.random.Generator | None = None,
) -> BinaryTable:
    """Sample a table from the two-parameter model by single-site Gibbs sweeps."""
    tables = [[bernoulli_p(ising_logit(params, d, s)) for s in range(d + 1)] for d in range(5)]
    return _sweep(rows, cols, _ISING_DIRECTIONS, tables, sweeps, rng)


def gibbs_autologistic(
    params: AutologisticParams,
    rows: int,
    cols: int,
    sweeps: int = DEFAULT_SWEEPS,
    rng: np.random.Generator | None = None,
) -> BinaryTable:
    """Sample a table from the second-order autologistic regression model."""
    table = [bernoulli_p(autologistic_logit(params, *sums)) for sums in product(range(3), repeat=4)]
    return _sweep(rows, cols, _AUTOLOGISTIC_DIRECTIONS, [table] * 9, sweeps, rng)
