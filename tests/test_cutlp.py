import ast
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

import isingfiber
from isingfiber.cutlp import (
    ROUND_TOL,
    CellBounds,
    cell_bounds,
    cut_semimetric,
    prefix_rows,
    suspension_semimetric,
    violates_cut_inequalities,
)
from isingfiber.grid import BinaryTable, SuffStats, t1, t2, topology
from isingfiber.oracle import exact_cell_bounds, fiber_members
from isingfiber.simplex import solve_canonical


def full_lp(rows, cols, prefix, stats):
    """The whole suspension LP of a raster prefix, written from the topology
    alone: apex variables in raster order, then grid edges in edge order; the
    four triangle rows of every edge, then the eight rows of every unit square;
    determined cells, and edges with both ends determined, pinned by bounds."""
    topo = topology(rows, cols)
    n, n_edges = topo.n_cells, len(topo.edges)
    A_ub, b_ub = [], []

    def row(coefs, rhs):
        dense = np.zeros(n + n_edges)
        for var, coef in coefs:
            dense[var] = coef
        A_ub.append(dense)
        b_ub.append(rhs)

    for e, (a, b) in enumerate(topo.edges):
        c = n + e
        row([(a, 1), (b, 1), (c, 1)], 2.0)  # a + b + c <= 2
        row([(a, -1), (b, -1), (c, 1)], 0.0)  # c <= a + b
        row([(a, -1), (b, 1), (c, -1)], 0.0)  # b <= a + c
        row([(a, 1), (b, -1), (c, -1)], 0.0)  # a <= b + c
    for square in topo.squares:
        for minus in range(4):
            coefs = [(n + e, -1 if i == minus else 1) for i, e in enumerate(square)]
            row(coefs, 2.0)
            row([(var, -coef) for var, coef in coefs], 0.0)
    A_eq = np.zeros((2, n + n_edges))
    A_eq[0, :n] = 1.0
    A_eq[1, n:] = 1.0
    bounds = [(prefix[i], prefix[i]) if i < len(prefix) else (0, 1) for i in range(n)]
    for a, b in topo.edges:
        pinned = b < len(prefix)
        bounds.append((abs(prefix[a] - prefix[b]),) * 2 if pinned else (0, 1))
    return np.array(A_ub), np.array(b_ub), A_eq, [stats.t1, stats.t2], bounds


def highs(lp, c):
    """scipy HiGHS on a full_lp problem with objective c."""
    A_ub, b_ub, A_eq, b_eq, bounds = lp
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, bounds=bounds, method="highs")
    assert res.status in (0, 2)
    return res


def highs_cell_bounds(rows, cols, prefix, stats, cell):
    lp = full_lp(rows, cols, prefix, stats)
    c = np.zeros(lp[0].shape[1])
    c[cell] = 1.0
    lo, hi = highs(lp, c), highs(lp, -c)
    if lo.status == 2 or hi.status == 2:
        return CellBounds("infeasible")
    lo = max(0, int(np.ceil(lo.x[cell] - ROUND_TOL)))
    hi = min(1, int(np.floor(hi.x[cell] + ROUND_TOL)))
    return CellBounds("bounded", lo, hi) if lo <= hi else CellBounds("infeasible")


def seeded_prefixes(rows, cols, count, rng):
    """(stats, prefix) pairs: prefixes of random tables of rows x cols, with up
    to two flipped values, conditioned on the statistics of the unflipped table."""
    n = rows * cols
    for _ in range(count):
        cells = [int(v) for v in rng.random(n) < rng.uniform(0.2, 0.5)]
        stats = SuffStats.of(BinaryTable(rows, cols, tuple(cells)))
        prefix = cells[: int(rng.integers(0, n + 1))]
        if prefix:
            for i in rng.integers(0, len(prefix), int(rng.integers(0, 3))):
                prefix[i] ^= 1
        yield stats, tuple(prefix)


class TestSuspensionIndex:
    def test_variable_counts(self):
        # apex edges, then grid edges: mn + (2mn - m - n)
        for rows, cols, n_vars in ((2, 2, 8), (3, 3, 21), (1, 4, 7)):
            assert prefix_rows(rows, cols, ())[0].shape[1] == n_vars
            table = BinaryTable(rows, cols, (0,) * (rows * cols))
            assert suspension_semimetric(table).shape == (n_vars,)

    def test_edge_var_lookup(self):
        # the e-th grid edge (a, b) is coordinate mn + e
        topo = topology(2, 2)
        vec = suspension_semimetric(BinaryTable(2, 2, (1, 0, 0, 0)))
        for e, (a, b) in enumerate(topo.edges):
            assert vec[4 + e] == (0 in (a, b))


class TestCutSemimetric:
    def test_figure_example(self):
        edges = [(1, 2), (2, 3), (4, 5), (5, 6), (1, 4), (2, 5), (3, 6)]
        side = {v: (0 if v in {1, 2, 5} else 1) for v in range(1, 7)}
        assert cut_semimetric(side, edges) == [0, 1, 1, 1, 1, 0, 0]

    def test_empty_cut(self):
        edges = [(0, 1), (1, 2)]
        assert cut_semimetric({0: 0, 1: 0, 2: 0}, edges) == [0, 0]

    def test_star_cut_of_triangle(self):
        edges = [(1, 2), (1, 3), (2, 3)]
        assert cut_semimetric({1: 0, 2: 1, 3: 1}, edges) == [1, 1, 0]


class TestBuildLP:
    """Shapes of the LP of the empty prefix: prefix_rows' rows, and the
    equality rows that cell_bounds passes to the solver."""

    @staticmethod
    def row_counts(rows, cols, lp_calls):
        A_ub, _, n_cells = prefix_rows(rows, cols, ())
        # triangle rows touch an apex variable, square rows only grid edges
        touches_cell = A_ub[:, :n_cells].any(axis=1)
        assert cell_bounds(rows, cols, SuffStats(1, 2), (), 0) == CellBounds("bounded", 0, 1)
        assert len(lp_calls) == 2  # the min and the max of the cell
        for _, A_ub_solved, _, A_eq, _ in lp_calls:
            assert np.array_equal(A_ub_solved, A_ub)
        return A_ub.shape, (int(touches_cell.sum()), int((~touches_cell).sum())), A_eq.shape

    def test_2x2_row_counts(self, lp_calls):
        assert self.row_counts(2, 2, lp_calls) == ((24, 8), (16, 8), (2, 8))

    def test_3x3_row_counts(self, lp_calls):
        assert self.row_counts(3, 3, lp_calls) == ((80, 21), (48, 32), (2, 21))


class TestSolveLP:
    def test_box_only_problem(self):
        # the 1x1 grid has no edges, so no inequality row: the t1 row alone
        # pins the cell, with x >= 0 the only bound the solver is given
        assert prefix_rows(1, 1, ())[0].shape == (0, 1)
        assert cell_bounds(1, 1, SuffStats(1, 0), (), 0) == CellBounds("bounded", 1, 1)
        assert cell_bounds(1, 1, SuffStats(0, 0), (), 0) == CellBounds("bounded", 0, 0)

    def test_contradictory_rows(self):
        # on 1x2, t1 = 0 zeroes both cells and the triangle c <= a + b then
        # contradicts t2 = 1; each row alone is within range
        assert cell_bounds(1, 2, SuffStats(0, 1), (), 0).status == "infeasible"
        assert cell_bounds(1, 2, SuffStats(1, 1), (), 0) == CellBounds("bounded", 0, 1)

    def test_empty_fiber_detected(self):
        # triangle rows force t2 <= 2*t1 on the 2x2 grid, so (1, 3) is infeasible
        assert cell_bounds(2, 2, SuffStats(1, 3), (), 0).status == "infeasible"
        assert sum(1 for _ in fiber_members(2, 2, SuffStats(1, 3))) == 0

    def test_optimal_solution_satisfies_all_rows(self, lp_calls):
        bounds = cell_bounds(3, 3, SuffStats(3, 8), (1, 0), 5)
        c, A_ub, b_ub, A_eq, b_eq = lp_calls[1]  # the max of cell 5
        assert c[5 - 2] == -1.0 and np.array_equal(b_eq, [3 - 1, 8 - 1])
        res = solve_canonical(c, A_ub, b_ub, A_eq, b_eq)
        assert res.status == "optimal"
        assert (A_ub @ res.x <= b_ub + 1e-7).all()
        assert A_eq @ res.x == pytest.approx(b_eq, abs=1e-7)
        assert (res.x >= -1e-7).all() and (res.x <= 1 + 1e-7).all()
        assert bounds.hi == int(res.x[5 - 2] + ROUND_TOL)

    def test_determinism(self, lp_calls):
        cell_bounds(3, 3, SuffStats(4, 8), (1, 0, 1), 7)
        args = lp_calls[0]  # the min of cell 7
        a, b = solve_canonical(*args), solve_canonical(*args)
        assert a.status == b.status and a.value == b.value
        assert np.array_equal(a.x, b.x)
        assert cell_bounds(3, 3, SuffStats(4, 8), (1, 0, 1), 7) == cell_bounds(
            3, 3, SuffStats(4, 8), (1, 0, 1), 7
        )


class TestCellBounds:
    def test_all_ones_fiber(self):
        assert cell_bounds(2, 2, SuffStats(4, 0), (), 0) == CellBounds("bounded", 1, 1)

    def test_empty_fiber(self):
        assert cell_bounds(2, 2, SuffStats(1, 3), (), 0).status == "infeasible"

    def test_corner_of_single_one_fiber(self):
        assert cell_bounds(3, 3, SuffStats(1, 2), (), 0) == CellBounds("bounded", 0, 1)

    def test_center_forced_zero(self):
        # matches the oracle: no single-one table with a center one has t2 = 2
        assert cell_bounds(3, 3, SuffStats(1, 2), (), 4) == CellBounds("bounded", 0, 0)

    def test_cell_must_be_undetermined(self):
        for prefix, cell in (((1, 0), 1), ((1, 0), 0), ((), -1), ((), 9)):
            with pytest.raises(ValueError):
                cell_bounds(3, 3, SuffStats(3, 8), prefix, cell)
        assert cell_bounds(3, 3, SuffStats(3, 8), (1, 0), 2).status == "bounded"
        assert cell_bounds(3, 3, SuffStats(3, 8), (1, 0), 8).status == "bounded"

    def test_soundness_on_random_3x3_states(self, fibers_3x3):
        rng = np.random.default_rng(5)
        keys = sorted(fibers_3x3, key=lambda s: (s.t1, s.t2))
        for _ in range(150):
            stats = keys[rng.integers(0, len(keys))]
            k = int(rng.integers(0, 9))
            prefix = tuple(int(v) for v in rng.integers(0, 2, k))
            cell = int(rng.integers(k, 9))
            got = cell_bounds(3, 3, stats, prefix, cell)
            exact = exact_cell_bounds(3, 3, stats, prefix, cell)
            if exact is None:
                continue  # relaxation may fail to detect emptiness, never the reverse
            assert got.status == "bounded", (stats, prefix, cell)
            assert got.lo <= exact[0] and exact[1] <= got.hi

    def test_monotonicity_under_conditioning(self):
        # conditioning on more cells of a genuine member never widens the bounds
        stats = SuffStats(3, 8)
        for member in list(fiber_members(3, 3, stats))[:5]:
            prev = cell_bounds(3, 3, stats, (), 8)
            for k in range(1, 6):
                got = cell_bounds(3, 3, stats, member.cells[:k], 8)
                assert got.status == "bounded"
                assert prev.lo <= got.lo and got.hi <= prev.hi
                prev = got


class TestCutVectors:
    def test_induced_semimetric_in_polytope(self):
        for cells in [(1, 0, 0, 1), (0, 1, 1, 0), (1, 1, 0, 0), (0, 0, 0, 0)]:
            table = BinaryTable(2, 2, cells)
            vec = suspension_semimetric(table)
            assert not violates_cut_inequalities(vec, 2, 2)

    def test_fiber_hyperplanes(self):
        table = BinaryTable(3, 3, (1, 0, 0, 0, 1, 0, 0, 0, 1))
        vec = suspension_semimetric(table)
        assert vec[:9].sum() == t1(table)
        assert vec[9:].sum() == t2(table)

    def test_all_zero_vector(self):
        assert not violates_cut_inequalities(np.zeros(8), 2, 2)

    def test_odd_square_violation(self):
        # e2 coordinates (0,1,1,1) on the unit square with all apex edges zero
        vec = np.zeros(8)
        vec[4:] = [0.0, 1.0, 1.0, 1.0]
        assert violates_cut_inequalities(vec, 2, 2)

    def test_square_rows_alone_cut_an_odd_cycle(self):
        # apex coordinates 1/2 satisfy every triangle row for any edge values,
        # so only a square row sees three cut edges out of four
        vec = np.array([0.5] * 4 + [0.0, 1.0, 1.0, 1.0])
        assert violates_cut_inequalities(vec, 2, 2)
        vec[4] = 1.0
        assert not violates_cut_inequalities(vec, 2, 2)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            violates_cut_inequalities(np.zeros(7), 2, 2)

    def test_random_partitions_never_violate(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            rows = int(rng.integers(1, 5))
            cols = int(rng.integers(1, 5))
            topo = topology(rows, cols)
            side = {c: int(rng.integers(0, 2)) for c in range(topo.n_cells)}
            side["w"] = int(rng.integers(0, 2))
            edges = [("w", c) for c in range(topo.n_cells)] + list(topo.edges)
            vec = np.array(cut_semimetric(side, edges), dtype=float)
            assert not violates_cut_inequalities(vec, rows, cols)


class TestStateFeasibility:
    """A state's verdict: cell_bounds reports infeasible where the LP of a
    state with a free cell has no point or its rounded interval is empty."""

    def test_matches_full_lp(self, fibers_3x3):
        # the verdict and the cell bounds equal HiGHS on the whole suspension LP
        rng = np.random.default_rng(2)
        keys = sorted(fibers_3x3, key=lambda s: (s.t1, s.t2))
        cases = []
        for _ in range(80):
            stats = keys[rng.integers(0, len(keys))]
            cases.append((3, 3, stats, tuple(int(v) for v in rng.integers(0, 2, rng.integers(0, 10)))))
        for rows, cols in ((3, 3), (4, 4), (3, 6)):
            cases += [(rows, cols, *case) for case in seeded_prefixes(rows, cols, 40, rng)]
        checked = bounded = 0
        for rows, cols, stats, prefix in cases:
            if len(prefix) == rows * cols:
                continue  # no free cell to bound
            cell = int(rng.integers(len(prefix), rows * cols))
            want = highs_cell_bounds(rows, cols, prefix, stats, cell)
            assert cell_bounds(rows, cols, stats, prefix, cell) == want, (stats, prefix, cell)
            checked += 1
            bounded += want.status == "bounded"
        assert 60 < bounded < checked

    def test_pin_argument(self):
        # the determined cell's value enters the right-hand side
        assert cell_bounds(2, 2, SuffStats(4, 0), (1,), 1) == CellBounds("bounded", 1, 1)
        assert cell_bounds(2, 2, SuffStats(4, 0), (0,), 1).status == "infeasible"


class TestStateTemplate:
    """The rows of a state, against the whole suspension LP."""

    def test_rows_of_the_empty_state(self):
        # with nothing determined the rows are the full LP's inequality block
        for rows, cols in ((3, 3), (2, 4), (1, 1)):
            A_ub, b_ub, n_cells = prefix_rows(rows, cols, ())
            full_A_ub, full_b_ub, *_ = full_lp(rows, cols, (), SuffStats(1, 2))
            assert n_cells == rows * cols
            assert np.array_equal(A_ub, full_A_ub.reshape(A_ub.shape))
            assert np.array_equal(b_ub, full_b_ub)

    def test_rows_of_a_prefix(self):
        # the full LP's rows with the pinned variables moved into the
        # right-hand side, less the rows that no free variable enters
        rng = np.random.default_rng(3)
        for rows, cols in ((3, 3), (2, 4), (4, 3)):
            n = rows * cols
            for k in range(n):
                prefix = tuple(int(v) for v in rng.integers(0, 2, k))
                full_A_ub, full_b_ub, _, _, bounds = full_lp(rows, cols, prefix, SuffStats(0, 0))
                pinned = np.array([lo == hi for lo, hi in bounds])
                values = np.array([lo for lo, _ in bounds], dtype=float) * pinned
                kept = full_A_ub[:, ~pinned].any(axis=1)
                A_ub, b_ub, n_cells = prefix_rows(rows, cols, prefix)
                assert n_cells == n - k
                assert np.array_equal(A_ub, full_A_ub[kept][:, ~pinned])
                assert np.array_equal(b_ub, (full_b_ub - full_A_ub @ values)[kept])

    def test_rows_imply_the_unit_box(self):
        # two triangle rows of an edge sum to 0 <= x <= 1 for each of its
        # variables, and on 1x1 the t1 row pins the only cell, so HiGHS with
        # x >= 0 alone keeps every variable of a state's LP inside [0, 1]
        rng = np.random.default_rng(17)
        for rows, cols in ((1, 1), (1, 5), (3, 3), (3, 6)):
            edges = topology(rows, cols).edges
            states = list(seeded_prefixes(rows, cols, 6, rng))
            solved = 0
            for stats, prefix in states + [(states[0][0], ())]:
                k = len(prefix)
                A_ub, b_ub, n_cells = prefix_rows(rows, cols, prefix)
                n_vars = A_ub.shape[1]
                if n_vars == 0:
                    continue
                discord = sum(prefix[a] != prefix[b] for a, b in edges if b < k)
                A_eq = np.zeros((2, n_vars))
                A_eq[0, :n_cells] = A_eq[1, n_cells:] = 1.0
                b_eq = [stats.t1 - sum(prefix), stats.t2 - discord]
                # the min and the max of each variable
                for c in np.vstack([np.eye(n_vars), -np.eye(n_vars)]):
                    res = linprog(
                        c,
                        A_ub=A_ub if A_ub.size else None,
                        b_ub=b_ub if A_ub.size else None,
                        A_eq=A_eq,
                        b_eq=b_eq,
                        bounds=(0, None),
                        method="highs",
                    )
                    assert res.status in (0, 2), (rows, cols, stats, prefix)
                    if res.status == 0:
                        assert (res.x >= -1e-7).all() and (res.x <= 1 + 1e-7).all()
                        solved += 1
            assert solved >= 2, (rows, cols)


class TestStateVerdictsAgainstReferences:
    """Seeded late-prefix states: the bounds of a free cell equal HiGHS on the
    whole suspension LP, and a state with a brute-force completion is never
    declared infeasible nor bounded past a value that its completions take."""

    @pytest.mark.parametrize("rows, cols", [(4, 4), (3, 6)])
    def test_late_prefix_states(self, rows, cols):
        rng = np.random.default_rng(rows * 10 + cols)
        n = rows * cols
        verdicts = []
        for _ in range(6):
            cells = tuple(int(v) for v in rng.random(n) < rng.uniform(0.2, 0.5))
            stats = SuffStats.of(BinaryTable(rows, cols, cells))
            members = [m.cells for m in fiber_members(rows, cols, stats)]
            for _ in range(30):
                k = int(rng.integers(n - 12, n))
                prefix = list(members[rng.integers(len(members))][:k])
                for i in rng.integers(0, k, int(rng.integers(0, 3))):
                    prefix[i] ^= 1
                prefix = tuple(prefix)
                cell = int(rng.integers(k, n))
                got = cell_bounds(rows, cols, stats, prefix, cell)
                values = {m[cell] for m in members if m[:k] == prefix}
                if values:
                    assert got.status == "bounded", (stats, prefix, cell)
                    assert got.lo <= min(values) and max(values) <= got.hi
                assert got == highs_cell_bounds(rows, cols, prefix, stats, cell), (stats, prefix, cell)
                verdicts.append(got.status == "bounded")
        assert len(verdicts) >= 100 and 0 < sum(verdicts) < len(verdicts)


# the modules a sampling run imports; the LP is not among them
SAMPLING_MODULES = ("grid", "endgame", "sampler", "inference")


def test_the_sampling_modules_import_no_lp():
    package = Path(isingfiber.__file__).parent
    for name in SAMPLING_MODULES:
        imported = []
        for node in ast.walk(ast.parse((package / f"{name}.py").read_text())):
            if isinstance(node, ast.Import):
                imported += [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                # `from . import cutlp` names the module as an alias
                imported += [f"{node.module or ''}.{alias.name}" for alias in node.names]
        dotted = {part for full in imported for part in full.split(".")}
        assert not dotted & {"cutlp", "simplex"}, (name, imported)
