import numpy as np
import pytest
from scipy.optimize import linprog

from isingfiber.cutlp import (
    CellBounds,
    LPProblem,
    SuspensionIndex,
    build_lp,
    cell_bounds,
    cut_semimetric,
    solve_lp,
    state_lp_feasible,
    state_template,
    suspension_semimetric,
    violates_cut_inequalities,
)
from isingfiber.grid import BinaryTable, SuffStats, t1, t2, topology
from isingfiber.oracle import exact_cell_bounds, fiber_members
from isingfiber.sampler import PartialTable


def P(rows, cols, prefix=()):
    return PartialTable.from_prefix(rows, cols, prefix)


def state_key(rows, cols, prefix, stats):
    """(k, window, r1, r2) of a raster prefix, the arguments of state_lp_feasible
    after (rows, cols): window bit j is the value of cell max(k-cols-1, 0) + j."""
    k = len(prefix)
    lo = max(k - cols - 1, 0)
    window = sum(v << (i - lo) for i, v in enumerate(prefix[lo:], start=lo))
    discord = sum(prefix[a] != prefix[b] for a, b in topology(rows, cols).edges if b < k)
    return k, window, stats.t1 - sum(prefix), stats.t2 - discord


class TestSuspensionIndex:
    def test_variable_counts(self):
        su = SuspensionIndex(2, 2)
        assert (su.e1_count, su.e2_count, su.n_vars) == (4, 4, 8)
        su = SuspensionIndex(3, 3)
        assert (su.e1_count, su.e2_count, su.n_vars) == (9, 12, 21)

    def test_edge_var_lookup(self):
        su = SuspensionIndex(2, 2)
        assert su.edge_var(0, 1) == su.edge_var(1, 0)
        assert su.edge_var(0, 2) >= su.e1_count


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
    def test_2x2_row_counts(self):
        lp = build_lp(P(2, 2), SuffStats(1, 2), 0, "min")
        triangles = [r for r in lp.ineqs if len(r[0]) == 3]
        squares = [r for r in lp.ineqs if len(r[0]) == 4]
        assert lp.n_vars == 8
        assert len(triangles) == 16
        assert len(squares) == 8
        assert len(lp.eqs) == 2

    def test_3x3_row_counts(self):
        lp = build_lp(P(3, 3), SuffStats(1, 2), 0, "min")
        triangles = [r for r in lp.ineqs if len(r[0]) == 3]
        squares = [r for r in lp.ineqs if len(r[0]) == 4]
        assert lp.n_vars == 21
        assert len(triangles) == 48
        assert len(squares) == 32
        assert len(lp.eqs) == 2

    def test_determined_cell_adds_equalities(self):
        lp = build_lp(P(2, 2, (1,)), SuffStats(2, 2), 1, "min")
        assert len(lp.eqs) == 3  # two fiber rows plus one cell pin
        lp = build_lp(P(2, 2, (1, 0)), SuffStats(2, 2), 2, "min")
        assert len(lp.eqs) == 5  # + second cell pin + the (0,1) edge pin

    def test_lp_format_dump(self):
        text = build_lp(P(2, 2), SuffStats(1, 2), 0, "min").to_lp_format()
        assert text.startswith("\\ cutlp\nMinimize")
        assert "Subject To" in text and "Bounds" in text and text.endswith("End\n")


class TestSolveLP:
    def test_box_only_problem(self):
        lp = LPProblem(
            n_vars=1,
            lower=np.array([0.3]),
            upper=np.array([1.0]),
            ineqs=[],
            eqs=[],
            objective=np.array([1.0]),
            sense="min",
        )
        out = solve_lp(lp)
        assert out.status == "optimal"
        assert out.value == pytest.approx(0.3, abs=1e-9)

    def test_contradictory_rows(self):
        lp = LPProblem(
            n_vars=1,
            lower=np.zeros(1),
            upper=np.ones(1),
            ineqs=[(((0, 1.0),), ">=", 2.0), (((0, 1.0),), "<=", 1.0)],
            eqs=[],
            objective=np.array([1.0]),
            sense="min",
        )
        assert solve_lp(lp).status == "infeasible"

    def test_empty_fiber_detected(self):
        # triangle rows force t2 <= 2*t1 on the 2x2 grid, so (1, 3) is infeasible
        out = solve_lp(build_lp(P(2, 2), SuffStats(1, 3), 0, "min"))
        assert out.status == "infeasible"
        assert sum(1 for _ in fiber_members(2, 2, SuffStats(1, 3))) == 0

    def test_optimal_solution_satisfies_all_rows(self):
        lp = build_lp(P(3, 3, (1, 0)), SuffStats(3, 8), 5, "max")
        out = solve_lp(lp)
        assert out.status == "optimal"
        for coeffs, rel, rhs in lp.ineqs:
            lhs = sum(c * out.x[v] for v, c in coeffs)
            assert (lhs <= rhs + 1e-7) if rel == "<=" else (lhs >= rhs - 1e-7)
        for coeffs, _, rhs in lp.eqs:
            assert sum(c * out.x[v] for v, c in coeffs) == pytest.approx(rhs, abs=1e-7)
        assert (out.x >= -1e-7).all() and (out.x <= 1 + 1e-7).all()

    def test_determinism(self):
        lp = build_lp(P(3, 3, (1, 0, 1)), SuffStats(4, 8), 7, "min")
        a, b = solve_lp(lp), solve_lp(lp)
        assert a.status == b.status and a.value == b.value
        assert np.array_equal(a.x, b.x)


class TestCellBounds:
    def test_all_ones_fiber(self):
        assert cell_bounds(P(2, 2), SuffStats(4, 0), 0) == CellBounds("bounded", 1, 1)

    def test_empty_fiber(self):
        assert cell_bounds(P(2, 2), SuffStats(1, 3), 0).status == "infeasible"

    def test_corner_of_single_one_fiber(self):
        assert cell_bounds(P(3, 3), SuffStats(1, 2), 0) == CellBounds("bounded", 0, 1)

    def test_center_forced_zero(self):
        # matches the oracle: no single-one table with a center one has t2 = 2
        assert cell_bounds(P(3, 3), SuffStats(1, 2), 4) == CellBounds("bounded", 0, 0)

    def test_soundness_on_random_3x3_states(self, fibers_3x3):
        rng = np.random.default_rng(5)
        keys = sorted(fibers_3x3, key=lambda s: (s.t1, s.t2))
        for _ in range(150):
            stats = keys[rng.integers(0, len(keys))]
            k = int(rng.integers(0, 9))
            prefix = tuple(int(v) for v in rng.integers(0, 2, k))
            cell = int(rng.integers(k, 9))
            got = cell_bounds(P(3, 3, prefix), stats, cell)
            exact = exact_cell_bounds(3, 3, stats, prefix, cell)
            if exact is None:
                continue  # relaxation may fail to detect emptiness, never the reverse
            assert got.status == "bounded", (stats, prefix, cell)
            assert got.lo <= exact[0] and exact[1] <= got.hi

    def test_monotonicity_under_conditioning(self):
        # conditioning on more cells of a genuine member never widens the bounds
        stats = SuffStats(3, 8)
        for member in list(fiber_members(3, 3, stats))[:5]:
            prev = cell_bounds(P(3, 3), stats, 8)
            for k in range(1, 6):
                got = cell_bounds(P(3, 3, member.cells[:k]), stats, 8)
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
    def test_matches_full_lp(self, fibers_3x3):
        rng = np.random.default_rng(2)
        keys = sorted(fibers_3x3, key=lambda s: (s.t1, s.t2))
        for _ in range(120):
            stats = keys[rng.integers(0, len(keys))]
            k = int(rng.integers(0, 10))
            prefix = tuple(int(v) for v in rng.integers(0, 2, k))
            fast = state_lp_feasible(3, 3, *state_key(3, 3, prefix, stats))
            full = solve_lp(build_lp(P(3, 3, prefix), stats, 0, "min")).status == "optimal"
            assert fast == full, (stats, prefix)

    def test_complete_state(self):
        assert state_lp_feasible(2, 2, *state_key(2, 2, (1, 0, 0, 1), SuffStats(2, 4)))
        assert not state_lp_feasible(2, 2, *state_key(2, 2, (1, 0, 0, 1), SuffStats(2, 3)))

    def test_pin_argument(self):
        # the newest determined cell is the top bit of the window
        assert state_lp_feasible(2, 2, *state_key(2, 2, (1,), SuffStats(4, 0)))
        assert not state_lp_feasible(2, 2, *state_key(2, 2, (0,), SuffStats(4, 0)))


class TestStateTemplate:
    def test_cached_per_shape(self):
        assert state_template(4, 4, 9) is state_template(4, 4, 9)
        assert state_template(4, 4, 9) is not state_template(4, 4, 10)

    def test_rows_of_the_empty_state(self):
        # with nothing determined the template is build_lp's inequality block
        tpl = state_template(3, 3, 0)
        lp = build_lp(P(3, 3), SuffStats(1, 2), 0, "min")
        assert tpl.A_ub.shape == (len(lp.ineqs), lp.n_vars)
        for row, b, (coeffs, rel, rhs) in zip(tpl.A_ub, tpl.b_ub(0), lp.ineqs):
            sign = 1.0 if rel == "<=" else -1.0
            dense = np.zeros(lp.n_vars)
            for v, c in coeffs:
                dense[v] = sign * c
            assert np.array_equal(row, dense) and b == sign * rhs

    def test_window_out_of_range(self):
        with pytest.raises(ValueError):
            state_template(2, 2, 4)


class TestStateVerdictsAgainstReferences:
    """Seeded late-prefix states: the verdict equals HiGHS on the same rows, and
    a state with a brute-force completion is never declared infeasible."""

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
                key = state_key(rows, cols, prefix, stats)
                got = state_lp_feasible(rows, cols, *key)
                if any(m[:k] == prefix for m in members):
                    assert got, (stats, prefix)
                _, window, r1, r2 = key
                tpl = state_template(rows, cols, k)
                if not (0 <= r1 <= tpl.n_cells and 0 <= r2 <= tpl.n_edges):
                    assert not got
                    continue
                ref = linprog(
                    np.zeros(tpl.A_ub.shape[1]),
                    A_ub=tpl.A_ub,
                    b_ub=tpl.b_ub(window),
                    A_eq=tpl.A_eq,
                    b_eq=[r1, r2],
                    bounds=(0, 1),
                    method="highs",
                )
                assert ref.status in (0, 2)
                assert got == (ref.status == 0), (stats, prefix)
                verdicts.append(got)
        assert len(verdicts) >= 100 and 0 < sum(verdicts) < len(verdicts)
