"""The Gibbs samplers as two loops, each with its conditional written inline.

This is the reference for `models.gibbs_ising` and `models.gibbs_autologistic`,
which share one sweep driven by probability tables built from `ising_logit`
and `autologistic_logit`. Both must return the tables these loops return,
bit for bit, for the same generator state.
"""

from __future__ import annotations

import numpy as np

from isingfiber.grid import BinaryTable, topology
from isingfiber.models import (
    DEFAULT_SWEEPS,
    AutologisticParams,
    IsingParams,
    bernoulli_p,
)


def gibbs_ising(
    params: IsingParams,
    rows: int,
    cols: int,
    sweeps: int = DEFAULT_SWEEPS,
    rng: np.random.Generator | None = None,
) -> BinaryTable:
    """Sample a table from the two-parameter model by single-site Gibbs sweeps."""
    if sweeps < 1:
        raise ValueError("need at least one sweep")
    rng = rng if rng is not None else np.random.default_rng()
    topo = topology(rows, cols)
    n = topo.n_cells
    nbrs = topo.neighbors
    alpha, beta = params.alpha, params.beta
    cells = [0] * n
    for _ in range(sweeps):
        uniforms = rng.random(n)
        for k in range(n):
            nb = nbrs[k]
            s = 0
            for j in nb:
                s += cells[j]
            logit = alpha + beta * len(nb) - 2.0 * beta * s
            cells[k] = 1 if uniforms[k] < bernoulli_p(logit) else 0
    return BinaryTable(rows, cols, tuple(cells))


def _autologistic_neighborhoods(rows: int, cols: int):
    horiz, vert, diag, anti = [], [], [], []
    for i in range(rows):
        for j in range(cols):
            horiz.append(tuple(i * cols + jj for jj in (j - 1, j + 1) if 0 <= jj < cols))
            vert.append(tuple(ii * cols + j for ii in (i - 1, i + 1) if 0 <= ii < rows))
            diag.append(
                tuple(
                    ii * cols + jj
                    for ii, jj in ((i - 1, j - 1), (i + 1, j + 1))
                    if 0 <= ii < rows and 0 <= jj < cols
                )
            )
            anti.append(
                tuple(
                    ii * cols + jj
                    for ii, jj in ((i - 1, j + 1), (i + 1, j - 1))
                    if 0 <= ii < rows and 0 <= jj < cols
                )
            )
    return horiz, vert, diag, anti


def gibbs_autologistic(
    params: AutologisticParams,
    rows: int,
    cols: int,
    sweeps: int = DEFAULT_SWEEPS,
    rng: np.random.Generator | None = None,
) -> BinaryTable:
    """Sample a table from the second-order autologistic regression model."""
    if sweeps < 1:
        raise ValueError("need at least one sweep")
    rng = rng if rng is not None else np.random.default_rng()
    n = rows * cols
    horiz, vert, diag, anti = _autologistic_neighborhoods(rows, cols)
    b0, b1, b2, b3, b4 = params.as_tuple()
    cells = [0] * n
    for _ in range(sweeps):
        uniforms = rng.random(n)
        for k in range(n):
            th = sum(cells[j] for j in horiz[k])
            tv = sum(cells[j] for j in vert[k])
            td = sum(cells[j] for j in diag[k])
            ta = sum(cells[j] for j in anti[k])
            logit = b0 + b1 * th + b2 * tv + b3 * td + b4 * ta
            cells[k] = 1 if uniforms[k] < bernoulli_p(logit) else 0
    return BinaryTable(rows, cols, tuple(cells))
