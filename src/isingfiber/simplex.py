"""Two-phase simplex on a condensed tableau, for the small LPs built over cut
polytopes.

Solves  minimize c.x  subject to  A_ub x <= b_ub,  A_eq x = b_eq,  x >= 0.
That is its one form: an upper bound is a row of A_ub, and the cut-polytope
LPs need none, as their triangle rows bound every variable by 1 (see cutlp).

The tableau is condensed (Tucker form): one row per constraint and one
column per nonbasic variable, with `basic` and `nonbasic` label arrays naming
the variable each row and column stands for. A pivot therefore updates rows
x nonbasic entries, not the rows x (variables + slacks + artificials) block
of a full tableau, and the entries it does compute are the ones a full
tableau would hold.

The pivot rules refer to variable labels, so they choose what a full tableau
would choose: Dantzig's entering rule with ties to the lowest label, the ratio
test with ties to the lowest basic label, and Bland's rule after STALL_LIMIT
pivots without progress, so the solver is deterministic and cannot cycle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PIVOT_TOL = 1e-9
FEAS_TOL = 1e-7
STALL_LIMIT = 100
MAX_ITER = 50_000


class SimplexIterationLimit(RuntimeError):
    """A simplex phase ran MAX_ITER pivots without reaching an optimum."""


@dataclass
class SimplexResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    value: float | None = None
    x: np.ndarray | None = None


def _pivot(T: np.ndarray, basic: np.ndarray, nonbasic: np.ndarray, row: int, col: int) -> None:
    """Exchange basic[row] and nonbasic[col]; the leaving variable takes over column col."""
    p = T[row, col]
    pivot_row = T[row] / p
    pivot_row[col] = 1.0 / p
    factors = T[:, col].copy()
    factors[row] = 0.0
    T[:, col] = 0.0
    T -= factors[:, None] * pivot_row
    T[row] = pivot_row
    basic[row], nonbasic[col] = nonbasic[col], basic[row]


def _choose_entering(z: np.ndarray, nonbasic: np.ndarray, bland: bool) -> int | None:
    if bland:
        idx = (z < -PIVOT_TOL).nonzero()[0]
        return int(idx[nonbasic[idx].argmin()]) if idx.size else None
    if not z.size:
        return None
    j = z.argmin()
    if not z[j] < -PIVOT_TOL:
        return None
    ties = (z == z[j]).nonzero()[0]
    return int(ties[nonbasic[ties].argmin()]) if ties.size > 1 else int(j)


def _choose_leaving(T: np.ndarray, basic: np.ndarray, col: int) -> int | None:
    coefs = T[:-1, col]
    eligible = (coefs > PIVOT_TOL).nonzero()[0]
    if not eligible.size:
        return None
    ratios = T[eligible, -1] / coefs[eligible]
    ties = eligible[ratios <= ratios.min() + PIVOT_TOL]
    # Bland-compatible tie-break: smallest basic variable index
    return int(ties[basic[ties].argmin()]) if ties.size > 1 else int(ties[0])


def _run_simplex(T: np.ndarray, basic: np.ndarray, nonbasic: np.ndarray) -> str:
    """Iterate to optimality over every column. Returns 'optimal' or 'unbounded'."""
    bland = False
    stall = 0
    last_obj = T[-1, -1]
    for _ in range(MAX_ITER):
        col = _choose_entering(T[-1, :-1], nonbasic, bland)
        if col is None:
            return "optimal"
        row = _choose_leaving(T, basic, col)
        if row is None:
            return "unbounded"
        _pivot(T, basic, nonbasic, row, col)
        if not bland:
            # T[-1, -1] holds minus the objective, so progress pushes it up
            if T[-1, -1] > last_obj + PIVOT_TOL:
                last_obj = T[-1, -1]
                stall = 0
            else:
                stall += 1
                if stall > STALL_LIMIT:
                    bland = True
    raise SimplexIterationLimit(f"simplex iteration limit ({MAX_ITER} pivots) exceeded")


def solve_canonical(
    c: np.ndarray,
    A_ub: np.ndarray,
    b_ub: np.ndarray,
    A_eq: np.ndarray,
    b_eq: np.ndarray,
) -> SimplexResult:
    """Minimize c.x subject to A_ub x <= b_ub, A_eq x = b_eq, x >= 0."""
    n = c.size
    # labels: x_j is j, the slack of inequality row r is n + r, and the k-th
    # artificial is n + n_ub + k
    A = np.vstack([A_ub, A_eq])
    b = np.concatenate([b_ub, b_eq])
    n_ub = A_ub.shape[0]
    m = A.shape[0]
    first_art = n + n_ub

    # flip rows to make rhs nonnegative; a flipped inequality's slack enters
    # with coefficient -1 and cannot start in the basis
    flip = b < 0
    A[flip] = -A[flip]
    b[flip] = -b[flip]
    needs_art = flip.copy()
    needs_art[n_ub:] = True
    art_rows = np.flatnonzero(needs_art)
    flipped_ineq = np.flatnonzero(flip[:n_ub])

    T = np.zeros((m + 1, n + flipped_ineq.size + 1))
    T[:m, :n] = A
    T[flipped_ineq, n + np.arange(flipped_ineq.size)] = -1.0
    T[:m, -1] = b
    nonbasic = np.concatenate([np.arange(n), n + flipped_ineq])
    basic = n + np.arange(m)
    basic[art_rows] = first_art + np.arange(art_rows.size)

    # phase 1: minimize the sum of artificials
    T[-1] = -T[art_rows].sum(axis=0)
    status = _run_simplex(T, basic, nonbasic)
    if status != "optimal" or -T[-1, -1] > FEAS_TOL:
        return SimplexResult("infeasible")

    # drive leftover artificials out of the basis, dropping redundant rows
    keep = np.ones(m + 1, dtype=bool)
    for r in range(m):
        if basic[r] >= first_art:
            cols = np.flatnonzero((np.abs(T[r, :-1]) > PIVOT_TOL) & (nonbasic < first_art))
            if cols.size:
                _pivot(T, basic, nonbasic, r, int(cols[np.argmin(nonbasic[cols])]))
            else:
                keep[r] = False
    # artificial columns are barred from phase 2, so drop them
    keep_cols = np.append(nonbasic < first_art, True)
    T = T[keep][:, keep_cols]
    basic = basic[keep[:m]]
    nonbasic = nonbasic[keep_cols[:-1]]

    # phase 2 on the true objective
    T[-1] = 0.0
    structural = nonbasic < n
    T[-1, :-1][structural] = c[nonbasic[structural]]
    for r, bv in enumerate(basic):
        if bv < n and abs(c[bv]) > 0:
            T[-1] -= c[bv] * T[r]
    status = _run_simplex(T, basic, nonbasic)
    if status == "unbounded":
        return SimplexResult("unbounded")

    x = np.zeros(n)
    structural = basic < n
    x[basic[structural]] = T[:-1, -1][structural]
    np.clip(x, 0.0, None, out=x)
    return SimplexResult("optimal", float(c @ x), x)
