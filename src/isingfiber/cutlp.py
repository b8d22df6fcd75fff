"""Cut-polytope LP relaxations over the suspension of the grid graph.

The suspension adds an apex vertex w joined to every cell. Apex edges (set E1)
carry the cell values of a table, grid edges (set E2) carry adjacent-pair
discordances, and the fiber becomes the lattice points of the cut polytope cut
by the two statistic hyperplanes. The polytope is approximated from the
outside by the triangle inequalities through w over every grid edge plus the
eight square inequalities per unit square, so LP feasibility and LP cell
bounds are sound: they never exclude a genuine completion, but may fail to
exclude an impossible one.

The unit box takes no rows: two triangle rows of an edge uv sum to
0 <= x <= 1 for each of x_u, x_v and x_uv, also with u determined; every
free cell and free edge lies on a free edge's triangle rows; and a grid with
no edge has one cell, pinned by the t1 row. The solves pass x >= 0 alone.

Every LP here is posed on a raster state, a determined prefix of k cells.
The determined cells and the edges between them are not variables: rows
inside the determined region hold automatically, and every other row sees
the determined values only in its right-hand side. prefix_rows writes those
rows from the prefix on each call, and no other code builds an LP:
state_lp_feasible and cell_bounds (the min and max of one free cell) solve
over the rows of the state's prefix, and the membership check of a full cut
vector reads the rows of the empty prefix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .grid import SuffStats, check_prefix, topology
from .simplex import FEAS_TOL, solve_canonical

ROUND_TOL = 1e-6


@dataclass(frozen=True)
class CellBounds:
    status: str  # "bounded" | "infeasible"
    lo: int | None = None
    hi: int | None = None


def cut_semimetric(side, edges: Sequence[tuple]) -> list[int]:
    """Edge vector of a vertex bipartition: 1 iff the endpoints are separated.

    `side` maps each vertex to 0 or 1 (any Mapping, or a sequence when the
    vertices are integers).
    """
    lookup = side.__getitem__
    return [1 if lookup(a) != lookup(b) else 0 for a, b in edges]


def suspension_semimetric(table) -> np.ndarray:
    """The cut vector induced by a table: apex coordinates are the cell values,
    grid-edge coordinates the discordances (w on the zero side)."""
    topo = topology(table.rows, table.cols)
    e1 = np.array(table.cells, dtype=float)
    return np.concatenate([e1, np.abs(e1[topo.edge_lo] - e1[topo.edge_hi])])


# the triangle rows of edge uv as <= rows: (sign on u, sign on v, sign on uv, rhs)
_TRIANGLES = ((1, 1, 1, 2), (-1, -1, 1, 0), (-1, 1, -1, 0), (1, -1, -1, 0))


def prefix_rows(rows: int, cols: int, prefix: Sequence[int]) -> tuple[np.ndarray, np.ndarray, int]:
    """The `<=` rows (A_ub, b_ub, n_cells) of the LP of a raster prefix.

    With k = len(prefix), the variables are the apex edges of the n_cells
    free cells [k, mn), then the grid edges with a free endpoint, in edge
    order. The rows are the four triangle inequalities of each such edge, in
    edge order, then the eight inequalities of each unit square holding one.
    A determined cell, and the discord of an edge with both ends determined,
    enter as constants moved into b_ub.
    """
    topo = topology(rows, cols)
    k = len(prefix)
    n_cells = topo.n_cells - k
    # edges are stored with the lower raster index first
    free = [e for e, (_, v) in enumerate(topo.edges) if v >= k]
    var = {e: n_cells + i for i, e in enumerate(free)}
    n_vars = n_cells + len(free)
    A_ub, b_ub = [], []
    for e in free:
        u, v = topo.edges[e]
        for su, sv, se, rhs in _TRIANGLES:
            row = [0] * n_vars
            row[var[e]], row[v - k] = se, sv
            if u >= k:
                row[u - k] = su
            else:
                rhs -= su * prefix[u]
            A_ub.append(row)
            b_ub.append(rhs)
    for square in topo.squares:
        if not any(e in var for e in square):
            continue
        for minus in range(4):
            for direction, rhs in ((1, 2), (-1, 0)):
                row = [0] * n_vars
                for i, e in enumerate(square):
                    coef = -direction if i == minus else direction
                    if e in var:
                        row[var[e]] = coef
                    else:
                        a, b = topo.edges[e]
                        rhs -= coef * (prefix[a] ^ prefix[b])
                A_ub.append(row)
                b_ub.append(rhs)
    A_ub = np.array(A_ub, dtype=float).reshape(len(b_ub), n_vars)
    return A_ub, np.array(b_ub, dtype=float), n_cells


def _solve(
    rows: int, cols: int, stats: SuffStats, prefix, cell: int | None = None
) -> list[np.ndarray] | None:
    """The optimal points of the LP of the raster prefix, or None if it is
    infeasible: one feasibility solve when cell is None, else the min and then
    the max of the cell's apex variable. r1 or r2 out of range, or a complete
    prefix, answers from the counts alone. Raises ValueError on a prefix or
    cell that grid.check_prefix refuses.
    """
    check_prefix(rows, cols, prefix, cell)
    A_ub, b_ub, n_cells = prefix_rows(rows, cols, prefix)
    n_vars = A_ub.shape[1]
    k = len(prefix)
    # edges are stored with the lower raster index first
    discord = sum(prefix[a] != prefix[b] for a, b in topology(rows, cols).edges if b < k)
    r1, r2 = stats.t1 - sum(prefix), stats.t2 - discord
    if not (0 <= r1 <= n_cells and 0 <= r2 <= n_vars - n_cells):
        return None
    if n_vars == 0:
        return []  # a complete prefix with r1 = r2 = 0
    A_eq = np.zeros((2, n_vars))
    A_eq[0, :n_cells] = A_eq[1, n_cells:] = 1.0
    b_eq = np.array([float(r1), float(r2)])
    c = np.zeros(n_vars)
    if cell is not None:
        c[cell - k] = 1.0
    points = []
    for objective in [c] if cell is None else [c, -c]:
        res = solve_canonical(objective, A_ub, b_ub, A_eq, b_eq)
        if res.status != "optimal":
            return None
        points.append(res.x)
    return points


def state_lp_feasible(rows: int, cols: int, stats: SuffStats, prefix) -> bool:
    """LP feasibility of a raster state: the prefix, with r1 ones and r2
    discords left to place.

    Equivalent to the full suspension LP with the determined cells and the
    edges between them pinned: constraints entirely inside the determined
    region hold automatically, because the determined part induces a genuine
    cut semimetric, and every other row is a row of prefix_rows. A complete
    prefix is feasible iff r1 = r2 = 0.
    """
    return _solve(rows, cols, stats, prefix) is not None


def cell_bounds(rows: int, cols: int, stats: SuffStats, prefix, cell: int) -> CellBounds:
    """Integerized LP bounds for one undetermined cell after a raster prefix.

    The min and the max of the cell's apex variable over the state's rows.
    Sound for the relaxation: every fiber completion of the prefix has its
    cell value inside [lo, hi]. When the rounded interval is empty the fiber
    itself must be empty, so that case also reports infeasible. The
    arguments are those of oracle.exact_cell_bounds, and so is the check
    that refuses a bad prefix or cell with ValueError.
    """
    points = _solve(rows, cols, stats, prefix, cell)
    if points is None:
        return CellBounds("infeasible")
    k = len(prefix)
    lo = max(0, int(np.ceil(points[0][cell - k] - ROUND_TOL)))
    hi = min(1, int(np.floor(points[1][cell - k] + ROUND_TOL)))
    if lo > hi:
        return CellBounds("infeasible")
    return CellBounds("bounded", lo, hi)


def violates_cut_inequalities(vector, rows: int, cols: int) -> bool:
    """True iff a box, triangle or square constraint of the relaxation fails by
    more than FEAS_TOL at a suspension vector (apex coordinates, then grid edges)."""
    A_ub, b_ub, _ = prefix_rows(rows, cols, ())
    x = np.asarray(vector, dtype=float)
    if x.shape != (A_ub.shape[1],):
        raise ValueError(f"expected vector of length {A_ub.shape[1]}, got shape {x.shape}")
    if (x < -FEAS_TOL).any() or (x > 1.0 + FEAS_TOL).any():
        return True
    return bool((A_ub @ x > b_ub + FEAS_TOL).any())
