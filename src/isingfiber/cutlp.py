"""Cut-polytope LP relaxations over the suspension of the grid graph.

The suspension adds an apex vertex w joined to every cell. Apex edges (set E1)
carry the cell values of a table, grid edges (set E2) carry adjacent-pair
discordances, and the fiber becomes the lattice points of the cut polytope cut
by the two statistic hyperplanes. The polytope is approximated from the
outside by the triangle inequalities through w over every grid edge plus the
eight square inequalities per unit square, so LP feasibility and LP cell
bounds are sound: they never exclude a genuine completion, but may fail to
exclude an impossible one.

The sampler's feasibility check runs on raster states, whose rows depend on
the determined values only through their right-hand side. Those rows are
built once per (rows, cols, k) as a StateTemplate, and each check only maps
the window of the last cols + 1 determined cells to b_ub.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np

from .grid import GridTopology, SuffStats, topology
from .simplex import FEAS_TOL, solve_canonical

ROUND_TOL = 1e-6

Row = tuple[tuple[tuple[int, float], ...], str, float]


@dataclass(frozen=True)
class SuspensionIndex:
    """Variable numbering for the suspension of the m x n grid.

    Apex edges w--v(i,j) occupy [0, mn) in raster order; grid edges occupy
    [mn, 3mn-m-n) in the shared topology order (horizontals then verticals).
    """

    rows: int
    cols: int

    @property
    def e1_count(self) -> int:
        return self.rows * self.cols

    @property
    def e2_count(self) -> int:
        return 2 * self.rows * self.cols - self.rows - self.cols

    @property
    def n_vars(self) -> int:
        return self.e1_count + self.e2_count

    def cell_var(self, cell: int) -> int:
        return cell

    def edge_var_by_ordinal(self, ordinal: int) -> int:
        return self.e1_count + ordinal

    def edge_var(self, a: int, b: int) -> int:
        return self.e1_count + topology(self.rows, self.cols).edge_index[(a, b)]


@dataclass
class LPProblem:
    n_vars: int
    lower: np.ndarray
    upper: np.ndarray
    ineqs: list[Row]
    eqs: list[Row]
    objective: np.ndarray
    sense: str  # "min" | "max"

    def to_lp_format(self, name: str = "cutlp") -> str:
        """Serialize in CPLEX LP text format for external cross-checking."""

        def term(coeffs):
            return " ".join(f"{c:+g} x{v}" for v, c in coeffs)

        out = [f"\\ {name}", "Minimize" if self.sense == "min" else "Maximize"]
        out.append(" obj: " + (term(list(enumerate(self.objective))) or "0 x0"))
        out.append("Subject To")
        for i, (coeffs, rel, rhs) in enumerate(self.ineqs):
            op = {"<=": "<=", ">=": ">="}[rel]
            out.append(f" c{i}: {term(coeffs)} {op} {rhs:g}")
        for i, (coeffs, _, rhs) in enumerate(self.eqs):
            out.append(f" e{i}: {term(coeffs)} = {rhs:g}")
        out.append("Bounds")
        for v in range(self.n_vars):
            out.append(f" {self.lower[v]:g} <= x{v} <= {self.upper[v]:g}")
        out.append("End")
        return "\n".join(out) + "\n"


@dataclass(frozen=True)
class LPOutcome:
    status: str  # "optimal" | "infeasible" | "unbounded"
    value: float | None = None
    x: np.ndarray | None = None


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


def _triangle_rows(su: SuspensionIndex, topo: GridTopology) -> Iterator[Row]:
    for ordinal, (u, v) in enumerate(topo.edges):
        a, b, c = su.cell_var(u), su.cell_var(v), su.edge_var_by_ordinal(ordinal)
        yield (((a, 1.0), (b, 1.0), (c, 1.0)), "<=", 2.0)
        yield (((a, 1.0), (b, 1.0), (c, -1.0)), ">=", 0.0)
        yield (((a, 1.0), (b, -1.0), (c, 1.0)), ">=", 0.0)
        yield (((a, -1.0), (b, 1.0), (c, 1.0)), ">=", 0.0)


def _square_rows(su: SuspensionIndex, topo: GridTopology) -> Iterator[Row]:
    for square in topo.squares:
        evars = [su.edge_var_by_ordinal(e) for e in square]
        for minus in range(4):
            coeffs = tuple(
                (evars[i], -1.0 if i == minus else 1.0) for i in range(4)
            )
            yield (coeffs, "<=", 2.0)
            yield (coeffs, ">=", 0.0)


def build_lp(partial, stats: SuffStats, objective_cell: int, sense: str) -> LPProblem:
    """Full suspension LP for one cell objective over the relaxed fiber.

    `partial` provides rows/cols and the determined raster prefix. Determined
    cells pin their apex-edge variables, and grid edges with both endpoints
    determined are pinned to the induced discordance, since the triangle
    relaxation alone does not force that equality.
    """
    rows, cols = partial.rows, partial.cols
    su = SuspensionIndex(rows, cols)
    topo = topology(rows, cols)
    prefix = partial.prefix

    ineqs = list(_triangle_rows(su, topo)) + list(_square_rows(su, topo))
    eqs: list[Row] = [
        (tuple((su.cell_var(k), 1.0) for k in range(su.e1_count)), "==", float(stats.t1)),
        (
            tuple((su.edge_var_by_ordinal(e), 1.0) for e in range(su.e2_count)),
            "==",
            float(stats.t2),
        ),
    ]
    for k, val in enumerate(prefix):
        eqs.append((((su.cell_var(k), 1.0),), "==", float(val)))
    for ordinal, (u, v) in enumerate(topo.edges):
        if u < len(prefix) and v < len(prefix):
            eqs.append(
                (((su.edge_var_by_ordinal(ordinal), 1.0),), "==", float(abs(prefix[u] - prefix[v])))
            )

    objective = np.zeros(su.n_vars)
    objective[su.cell_var(objective_cell)] = 1.0
    return LPProblem(
        n_vars=su.n_vars,
        lower=np.zeros(su.n_vars),
        upper=np.ones(su.n_vars),
        ineqs=ineqs,
        eqs=eqs,
        objective=objective,
        sense=sense,
    )


def _presolve(problem: LPProblem):
    """Pin variables forced by single-variable equalities, iterating to a fixpoint.

    Returns (pinned value array masked by NaN for free vars, reduced eq rows)
    or None when a pin or constant row is inconsistent.
    """
    pinned = np.full(problem.n_vars, np.nan)
    fixed0 = problem.upper - problem.lower <= FEAS_TOL
    pinned[fixed0] = problem.lower[fixed0]

    eq_rows = [(list(coeffs), rhs) for coeffs, _, rhs in problem.eqs]
    changed = True
    while changed:
        changed = False
        remaining = []
        for coeffs, rhs in eq_rows:
            free = [(v, c) for v, c in coeffs if np.isnan(pinned[v])]
            rhs_red = rhs - sum(c * pinned[v] for v, c in coeffs if not np.isnan(pinned[v]))
            if not free:
                if abs(rhs_red) > FEAS_TOL:
                    return None
                continue
            if len(free) == 1:
                v, c = free[0]
                val = rhs_red / c
                if val < problem.lower[v] - FEAS_TOL or val > problem.upper[v] + FEAS_TOL:
                    return None
                pinned[v] = min(max(val, problem.lower[v]), problem.upper[v])
                changed = True
                continue
            remaining.append((free, rhs_red))
        eq_rows = remaining
    return pinned, eq_rows


def solve_lp(problem: LPProblem) -> LPOutcome:
    """Deterministic solve: presolve pins, then the two-phase simplex."""
    if problem.n_vars < 1:
        raise ValueError("LP needs at least one variable")
    pre = _presolve(problem)
    if pre is None:
        return LPOutcome("infeasible")
    pinned, eq_rows = pre
    free = np.nonzero(np.isnan(pinned))[0]
    pos = {int(v): i for i, v in enumerate(free)}
    nf = free.size

    A_ub_rows, b_ub = [], []
    for coeffs, rel, rhs in problem.ineqs:
        row = np.zeros(nf)
        rhs_red = rhs
        for v, c in coeffs:
            if np.isnan(pinned[v]):
                row[pos[v]] += c
            else:
                rhs_red -= c * pinned[v]
        if rel == ">=":
            row, rhs_red = -row, -rhs_red
        if not row.any():
            if rhs_red < -FEAS_TOL:
                return LPOutcome("infeasible")
            continue
        A_ub_rows.append(row)
        b_ub.append(rhs_red)

    A_eq_rows, b_eq = [], []
    for coeffs, rhs_red in eq_rows:
        row = np.zeros(nf)
        for v, c in coeffs:
            row[pos[v]] += c
        A_eq_rows.append(row)
        b_eq.append(rhs_red)

    lb = problem.lower[free]
    ub = problem.upper[free]
    c_free = problem.objective[free].astype(float)
    sign = 1.0 if problem.sense == "min" else -1.0

    A_ub = np.array(A_ub_rows) if A_ub_rows else np.zeros((0, nf))
    b_ub_arr = np.array(b_ub) if b_ub else np.zeros(0)
    A_eq = np.array(A_eq_rows) if A_eq_rows else np.zeros((0, nf))
    b_eq_arr = np.array(b_eq) if b_eq else np.zeros(0)

    # shift to zero lower bounds
    if lb.any():
        b_ub_arr = b_ub_arr - A_ub @ lb
        b_eq_arr = b_eq_arr - A_eq @ lb

    res = solve_canonical(sign * c_free, A_ub, b_ub_arr, A_eq, b_eq_arr, ub - lb)
    if res.status != "optimal":
        return LPOutcome(res.status)

    x = pinned.copy()
    x[free] = res.x + lb
    value = float(problem.objective @ x)
    return LPOutcome("optimal", value, x)


def cell_bounds(partial, stats: SuffStats, cell: int) -> CellBounds:
    """Integerized LP bounds for one undetermined cell.

    Sound for the relaxation: every fiber completion of `partial` has its cell
    value inside [lo, hi]. When the rounded interval is empty the fiber itself
    must be empty, so that case also reports infeasible.
    """
    lo_out = solve_lp(build_lp(partial, stats, cell, "min"))
    if lo_out.status == "infeasible":
        return CellBounds("infeasible")
    hi_out = solve_lp(build_lp(partial, stats, cell, "max"))
    if hi_out.status == "infeasible":
        return CellBounds("infeasible")
    lo = max(0, int(np.ceil(lo_out.value - ROUND_TOL)))
    hi = min(1, int(np.floor(hi_out.value + ROUND_TOL)))
    if lo > hi:
        return CellBounds("infeasible")
    return CellBounds("bounded", lo, hi)


def violates_cut_inequalities(vector, rows: int, cols: int) -> bool:
    """True iff any box/triangle/square constraint of the relaxation fails by > FEAS_TOL."""
    su = SuspensionIndex(rows, cols)
    topo = topology(rows, cols)
    x = np.asarray(vector, dtype=float)
    if x.shape != (su.n_vars,):
        raise ValueError(f"expected vector of length {su.n_vars}, got shape {x.shape}")
    if (x < -FEAS_TOL).any() or (x > 1.0 + FEAS_TOL).any():
        return True
    for coeffs, rel, rhs in _triangle_rows(su, topo):
        lhs = sum(c * x[v] for v, c in coeffs)
        if rel == "<=" and lhs > rhs + FEAS_TOL:
            return True
        if rel == ">=" and lhs < rhs - FEAS_TOL:
            return True
    for coeffs, rel, rhs in _square_rows(su, topo):
        lhs = sum(c * x[v] for v, c in coeffs)
        if rel == "<=" and lhs > rhs + FEAS_TOL:
            return True
        if rel == ">=" and lhs < rhs - FEAS_TOL:
            return True
    return False


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

    Equivalent to solving the full build_lp problem: constraints entirely
    inside the determined region hold automatically, because the determined
    part induces a genuine cut semimetric, and every other row is a row of
    state_template(rows, cols, k). The arguments are exactly what the LP
    depends on, so they are a complete cache key.
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
