"""Cut-polytope LP relaxations over the suspension of the grid graph.

The suspension adds an apex vertex w joined to every cell. Apex edges (set E1)
carry the cell values of a table, grid edges (set E2) carry adjacent-pair
discordances, and the fiber becomes the lattice points of the cut polytope cut
by the two statistic hyperplanes. The polytope is approximated from the
outside by the triangle inequalities through w over every grid edge plus the
eight square inequalities per unit square, so LP feasibility and LP cell
bounds are sound: they never exclude a genuine completion, but may fail to
exclude an impossible one.

Every LP here is posed on a raster state, a determined prefix of k cells,
whose rows depend on the determined values only through their right-hand
side. state_template builds those rows once per (rows, cols, k), and it is
the only place the LP is built: the feasibility check state_lp_feasible maps
the window of the last cols + 1 determined cells to b_ub, cell_bounds minimizes
and maximizes one free cell over the same rows, and the membership check of
a full cut vector reads the rows of the empty state.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .grid import SuffStats, topology
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
    cells = table.cells
    e1 = np.array(cells, dtype=float)
    e2 = np.array([abs(cells[a] - cells[b]) for a, b in topo.edges], dtype=float)
    return np.concatenate([e1, e2])


@dataclass(frozen=True)
class StateTemplate:
    """The constraint rows of every raster state with k determined cells.

    Variables are the apex edges of the free cells [k, mn), then the grid
    edges with a free endpoint, in edge order. Rows are the four triangle
    inequalities of each free edge in edge order, then the eight inequalities
    of each unit square holding a free edge, all as `<=` rows. Only the right
    hand side depends on the determined values, and only through the window
    of cells [lo, k), lo = max(k-cols-1, 0): a triangle row sees a determined
    endpoint of a free edge, a square row the discords of its determined
    edges, and both lie inside the window. So b_ub = b0 + M @ f, where f holds
    the window values followed by the discords of the window edges (ea, eb).
    """

    width: int  # window cells, k - lo
    n_cells: int  # free cells
    n_edges: int  # grid edges with a free endpoint
    A_ub: np.ndarray
    A_eq: np.ndarray
    b0: np.ndarray
    M: np.ndarray
    ea: np.ndarray  # window-local endpoints of the window edges in M
    eb: np.ndarray
    zeros: np.ndarray  # the objective of a feasibility check
    ones: np.ndarray  # the upper bounds

    def b_ub(self, window: int) -> np.ndarray:
        """Right-hand side for a window whose bit j is the value of cell lo + j."""
        raw = np.frombuffer(window.to_bytes((self.width + 7) // 8, "little"), dtype=np.uint8)
        x = np.unpackbits(raw, count=self.width, bitorder="little")
        return self.b0 + self.M @ np.concatenate((x, x[self.ea] ^ x[self.eb]))


# the triangle rows of edge uv as <= rows: (sign on u, sign on v, sign on uv, rhs)
_TRIANGLES = ((1, 1, 1, 2.0), (-1, -1, 1, 0.0), (-1, 1, -1, 0.0), (1, -1, -1, 0.0))


@lru_cache(maxsize=128)
def state_template(rows: int, cols: int, k: int) -> StateTemplate:
    """The cached StateTemplate of the rows x cols grid with k determined cells."""
    topo = topology(rows, cols)
    n = topo.n_cells
    if not 0 <= k < n:
        raise ValueError(f"need 0 <= k < {n}, got {k}")
    lo = max(k - cols - 1, 0)
    width = k - lo
    n_cells = n - k
    # edges are stored with the lower raster index first
    free_edges = [e for e, (_, v) in enumerate(topo.edges) if v >= k]
    var = {e: n_cells + i for i, e in enumerate(free_edges)}
    nf = n_cells + len(free_edges)
    window_edges: dict[int, int] = {}

    # each row as ({variable: coef}, {window feature: coef}, rhs)
    lp_rows: list[tuple[dict, dict, float]] = []
    for e in free_edges:
        u, v = topo.edges[e]
        for su, sv, se, rhs in _TRIANGLES:
            a, m = {var[e]: se}, {}
            for cell, sign in ((u, su), (v, sv)):
                if cell >= k:
                    a[cell - k] = sign
                else:
                    m[cell - lo] = -sign
            lp_rows.append((a, m, rhs))
    for square in topo.squares:
        if not any(e in var for e in square):
            continue
        for e in square:
            if e not in var:
                window_edges.setdefault(e, len(window_edges))
        for minus in range(4):
            signs = [-1.0 if i == minus else 1.0 for i in range(4)]
            for direction, rhs in ((1.0, 2.0), (-1.0, 0.0)):
                a, m = {}, {}
                for e, sign in zip(square, signs):
                    if e in var:
                        a[var[e]] = direction * sign
                    else:
                        m[width + window_edges[e]] = -direction * sign
                lp_rows.append((a, m, rhs))

    def dense(part: int, n_cols: int) -> np.ndarray:
        out = np.zeros((len(lp_rows), n_cols))
        for i, row in enumerate(lp_rows):
            for j, coef in row[part].items():
                out[i, j] = coef
        return out

    A_eq = np.zeros((2, nf))
    A_eq[0, :n_cells] = 1.0
    A_eq[1, n_cells:] = 1.0
    ends = [topo.edges[e] for e in window_edges]
    tpl = StateTemplate(
        width=width,
        n_cells=n_cells,
        n_edges=len(free_edges),
        A_ub=dense(0, nf),
        A_eq=A_eq,
        b0=np.array([rhs for _, _, rhs in lp_rows]),
        M=dense(1, width + len(window_edges)),
        ea=np.array([a - lo for a, _ in ends], dtype=np.intp),
        eb=np.array([b - lo for _, b in ends], dtype=np.intp),
        zeros=np.zeros(nf),
        ones=np.ones(nf),
    )
    # every caller shares the cached arrays
    for arr in vars(tpl).values():
        if isinstance(arr, np.ndarray):
            arr.setflags(write=False)
    return tpl


def state_lp_feasible(rows: int, cols: int, k: int, window: int, r1: int, r2: int) -> bool:
    """LP feasibility of a raster state: k determined cells, r1 ones and r2
    discords left to place, and `window` holding the values of the cells
    [lo, k), lo = max(k-cols-1, 0), with bit j the value of cell lo + j.

    Equivalent to the full suspension LP with the determined cells and the
    edges between them pinned: constraints entirely inside the determined
    region hold automatically, because the determined part induces a genuine
    cut semimetric, and every other row is a row of state_template(rows, cols,
    k). The arguments are exactly what the LP depends on, so they are a
    complete cache key; state_key computes them from a prefix.
    """
    if k == rows * cols:
        return r1 == 0 and r2 == 0
    tpl = state_template(rows, cols, k)
    if r1 < 0 or r1 > tpl.n_cells or r2 < 0 or r2 > tpl.n_edges:
        return False
    res = solve_canonical(
        tpl.zeros,
        tpl.A_ub,
        tpl.b_ub(window),
        tpl.A_eq,
        np.array([float(r1), float(r2)]),
        tpl.ones,
    )
    return res.status == "optimal"


def state_key(
    rows: int, cols: int, prefix: Sequence[int], stats: SuffStats
) -> tuple[int, int, int, int]:
    """(k, window, r1, r2) of a raster prefix, the arguments of state_lp_feasible
    after (rows, cols): window bit j is the value of cell max(k-cols-1, 0) + j."""
    k = len(prefix)
    lo = max(k - cols - 1, 0)
    window = sum(v << j for j, v in enumerate(prefix[lo:]))
    discord = sum(prefix[a] != prefix[b] for a, b in topology(rows, cols).edges if b < k)
    return k, window, stats.t1 - sum(prefix), stats.t2 - discord


def cell_bounds(partial, stats: SuffStats, cell: int) -> CellBounds:
    """Integerized LP bounds for one undetermined cell of `partial`'s prefix.

    The min and the max of the cell's apex variable over the state's template
    rows. Sound for the relaxation: every fiber completion of the prefix has
    its cell value inside [lo, hi]. When the rounded interval is empty the
    fiber itself must be empty, so that case also reports infeasible.
    """
    rows, cols = partial.rows, partial.cols
    k, window, r1, r2 = state_key(rows, cols, partial.prefix, stats)
    if not k <= cell < rows * cols:
        raise ValueError(f"need an undetermined cell in [{k}, {rows * cols}), got {cell}")
    tpl = state_template(rows, cols, k)
    if r1 < 0 or r1 > tpl.n_cells or r2 < 0 or r2 > tpl.n_edges:
        return CellBounds("infeasible")
    b_ub = tpl.b_ub(window)
    b_eq = np.array([float(r1), float(r2)])
    c = np.zeros(tpl.ones.size)
    c[cell - k] = 1.0
    values = []
    for sign in (1.0, -1.0):
        res = solve_canonical(sign * c, tpl.A_ub, b_ub, tpl.A_eq, b_eq, tpl.ones)
        if res.status == "infeasible":
            return CellBounds("infeasible")
        values.append(res.x[cell - k])
    lo = max(0, int(np.ceil(values[0] - ROUND_TOL)))
    hi = min(1, int(np.floor(values[1] + ROUND_TOL)))
    if lo > hi:
        return CellBounds("infeasible")
    return CellBounds("bounded", lo, hi)


def violates_cut_inequalities(vector, rows: int, cols: int) -> bool:
    """True iff a box, triangle or square constraint of the relaxation fails by
    more than FEAS_TOL at a suspension vector (apex coordinates, then grid edges)."""
    tpl = state_template(rows, cols, 0)
    x = np.asarray(vector, dtype=float)
    if x.shape != tpl.ones.shape:
        raise ValueError(f"expected vector of length {tpl.ones.size}, got shape {x.shape}")
    if (x < -FEAS_TOL).any() or (x > 1.0 + FEAS_TOL).any():
        return True
    return bool((tpl.A_ub @ x > tpl.b0 + FEAS_TOL).any())
