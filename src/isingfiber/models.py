"""Gibbs samplers that generate observed tables.

Both samplers run the same full raster sweeps from the all-zero table, updating
each cell from its full conditional using the freshest neighbor values, and
return the state after `sweeps` sweeps (1001 by default, matching the burn-in
convention of taking the 1001st state as the sample). The conditional is read
from a table of P(cell = 1) that each model fills from `ising_logit` or
`autologistic_logit`, indexed by a weighted count of the neighbor ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import exp

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


@lru_cache(maxsize=None)
def _weighted_neighbors(rows: int, cols: int, directions) -> tuple:
    """Per raster cell, the (neighbor, weight) pairs of its in-grid neighbors."""
    return tuple(
        tuple(
            ((i + di) * cols + j + dj, w)
            for di, dj, w in directions
            if 0 <= i + di < rows and 0 <= j + dj < cols
        )
        for i in range(rows)
        for j in range(cols)
    )


def _sweep(rows, cols, directions, tables, sweeps, rng) -> BinaryTable:
    """The state after `sweeps` raster sweeps from the all-zero table: a cell
    becomes 1 iff its uniform is below entry `code` of tables[its degree],
    where code sums the weights of its neighbors that are ones."""
    if sweeps < 1:
        raise ValueError("need at least one sweep")
    rng = rng if rng is not None else np.random.default_rng()
    neighbors = _weighted_neighbors(rows, cols, directions)
    steps = [(k, nb, tables[len(nb)]) for k, nb in enumerate(neighbors)]
    cells = [0] * len(steps)
    for _ in range(sweeps):
        for (k, nb, table), u in zip(steps, rng.random(len(cells)).tolist()):
            code = 0
            for j, w in nb:
                if cells[j]:
                    code += w
            cells[k] = 1 if u < table[code] else 0
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
