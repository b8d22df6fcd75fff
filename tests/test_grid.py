import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isingfiber.cutlp import cell_bounds, state_lp_feasible
from isingfiber.grid import (
    BinaryTable,
    ParseError,
    SuffStats,
    format_table,
    parse_table,
    t1,
    t2,
    topology,
    u_prime_stat,
    u_stat,
)
from isingfiber.inference import collect_trials
from isingfiber.oracle import enumerate_fiber, exact_cell_bounds, fiber_members, nonempty_fibers
from isingfiber.sampler import SamplerConfig

from conftest import naive_t1, naive_t2, naive_u, naive_u_prime, table_from_bits


def T(rows):
    return BinaryTable.from_rows(rows)


IDENTITY_3 = T([[1, 0, 0], [0, 1, 0], [0, 0, 1]])


class TestStatistics:
    def test_t1_examples(self):
        assert t1(T([[0, 0], [0, 0]])) == 0
        assert t1(T([[1, 0], [0, 0]])) == 1
        assert t1(IDENTITY_3) == 3

    def test_t2_examples(self):
        assert t2(T([[0, 0], [0, 0]])) == 0
        # a corner cell of a 2x2 grid has exactly two neighbors
        assert t2(T([[1, 0], [0, 0]])) == 2
        # the center of a 3x3 grid has four neighbors
        assert t2(T([[0, 0, 0], [0, 1, 0], [0, 0, 0]])) == 4

    def test_u_examples(self):
        assert u_stat(T([[1, 0], [0, 1]])) == 1
        assert u_stat(T([[0, 1], [1, 0]])) == 1
        assert u_stat(T([[0, 0], [0, 0]])) == 0
        # hand enumeration of the four 2x2 windows of the identity pattern
        assert u_stat(IDENTITY_3) == 2

    def test_u_prime_examples(self):
        assert u_prime_stat(T([[0, 0], [1, 1]])) == 1
        # only the literal orientation counts
        assert u_prime_stat(T([[1, 1], [0, 0]])) == 0
        assert u_prime_stat(T([[1, 1, 1], [1, 1, 1], [1, 1, 1]])) == 0

    def test_single_row_windows_are_zero(self):
        assert u_stat(T([[1, 0, 1]])) == 0
        assert u_prime_stat(T([[1, 0, 1]])) == 0

    def test_exhaustive_3x3_against_naive(self):
        for bits in range(2**9):
            table = table_from_bits(3, 3, bits)
            rows = table.to_rows()
            assert t1(table) == naive_t1(rows)
            assert t2(table) == naive_t2(rows)
            assert u_stat(table) == naive_u(rows)
            assert u_prime_stat(table) == naive_u_prime(rows)

    def test_random_4x4_against_naive(self):
        rng = np.random.default_rng(7)
        bits = rng.integers(0, 2**16, size=100_000)
        for b in bits:
            table = table_from_bits(4, 4, int(b))
            rows = table.to_rows()
            assert t2(table) == naive_t2(rows)
            assert u_stat(table) == naive_u(rows)
            assert u_prime_stat(table) == naive_u_prime(rows)
            assert t1(table) == naive_t1(rows)


@st.composite
def tables(draw, max_dim=4):
    rows = draw(st.integers(1, max_dim))
    cols = draw(st.integers(1, max_dim))
    cells = draw(st.lists(st.integers(0, 1), min_size=rows * cols, max_size=rows * cols))
    return BinaryTable(rows, cols, tuple(cells))


class TestInvariants:
    @given(tables())
    @settings(max_examples=200, deadline=None)
    def test_t2_range_and_transpose(self, table):
        m, n = table.rows, table.cols
        assert 0 <= t2(table) <= 2 * m * n - m - n
        assert t2(table) == t2(table.transpose())

    @given(tables())
    @settings(max_examples=200, deadline=None)
    def test_complement_symmetry(self, table):
        comp = table.complement()
        assert t2(table) == t2(comp)
        assert u_stat(table) == u_stat(comp)
        assert t1(comp) == table.rows * table.cols - t1(table)

    @given(tables())
    @settings(max_examples=200, deadline=None)
    def test_u_transpose(self, table):
        assert u_stat(table) == u_stat(table.transpose())


class TestTypes:
    def test_binary_table_validation(self):
        with pytest.raises(ValueError):
            BinaryTable(2, 2, (0, 1, 0))
        with pytest.raises(ValueError):
            BinaryTable(2, 2, (0, 1, 2, 0))
        with pytest.raises(ValueError):
            BinaryTable(0, 2, ())

    @pytest.mark.parametrize("bad", [2, -1, 0.5, "1", None, [1], {0: 0}, np.array([0, 1])])
    def test_binary_table_rejects_every_non_bit(self, bad):
        # unhashable values included: they raise ValueError, not TypeError
        with pytest.raises(ValueError):
            BinaryTable(2, 2, (0, 1, bad, 1))

    def test_binary_table_accepts_bits_of_any_numeric_type(self):
        for zero, one in ((0, 1), (False, True), (0.0, 1.0), (np.int8(0), np.int64(1))):
            assert BinaryTable(1, 2, (zero, one)) == BinaryTable(1, 2, (0, 1))

    def test_suffstats_validation(self):
        with pytest.raises(ValueError):
            SuffStats(-1, 0)
        SuffStats(4, 0).validate_for(2, 2)
        with pytest.raises(ValueError):
            SuffStats(5, 0).validate_for(2, 2)
        with pytest.raises(ValueError):
            SuffStats(1, 5).validate_for(2, 2)
        with pytest.raises(ValueError):
            SuffStats(4, 2).validate_for(2, 2)  # constant table forces t2 = 0
        with pytest.raises(ValueError):
            SuffStats(0, 1).validate_for(2, 2)

    def test_suffstats_of(self):
        assert SuffStats.of(T([[1, 0], [0, 1]])) == SuffStats(2, 4)

    def test_topology_counts(self):
        topo = topology(3, 4)
        assert topo.n_edges == 2 * 12 - 3 - 4
        assert len(topo.squares) == 6
        assert topo.determined_edges[topo.n_cells] == topo.n_edges
        assert topo.free_free_edges[0] == topo.n_edges

    def test_toggle_capacity(self):
        topo = topology(2, 2)
        assert topo.toggle_capacity(1, 1) == 2  # all remaining cells have degree 2
        topo33 = topology(3, 3)
        assert topo33.toggle_capacity(0, 1) == 4  # the center has degree 4
        assert topo33.toggle_capacity(0, 0) == 0


# every entry point that takes a (rows, cols) shape, called on the empty fiber
SHAPE_ENTRY_POINTS = {
    "validate_for": lambda r, c: SuffStats(0, 0).validate_for(r, c),
    "collect_trials": lambda r, c: collect_trials(r, c, SuffStats(0, 0), SamplerConfig(), 1, 10),
    "cell_bounds": lambda r, c: cell_bounds(r, c, SuffStats(0, 0), (), 0),
    "state_lp_feasible": lambda r, c: state_lp_feasible(r, c, SuffStats(0, 0), ()),
    "fiber_members": lambda r, c: list(fiber_members(r, c, SuffStats(0, 0))),
    "enumerate_fiber": lambda r, c: enumerate_fiber(r, c, SuffStats(0, 0)),
    "exact_cell_bounds": lambda r, c: exact_cell_bounds(r, c, SuffStats(0, 0), (), 0),
    "nonempty_fibers": nonempty_fibers,
}


@pytest.mark.parametrize("shape", [(0, 5), (-1, 2), (-10, -10)], ids=["0x5", "-1x2", "-10x-10"])
@pytest.mark.parametrize("entry", sorted(SHAPE_ENTRY_POINTS))
def test_bad_shape_is_refused_first(entry, shape):
    # the shape rule runs before any range, prefix or cap check
    with pytest.raises(ValueError, match="grid shape must be positive"):
        SHAPE_ENTRY_POINTS[entry](*shape)


TOPOLOGY_SHAPES = [(1, 1), (1, 7), (7, 1), (3, 3), (4, 7), (10, 10), (20, 20), (14, 179)]


@pytest.mark.parametrize(
    "rows, cols", TOPOLOGY_SHAPES, ids=[f"{r}x{c}" for r, c in TOPOLOGY_SHAPES]
)
class TestEdgeLayout:
    def test_edge_arrays_follow_edges(self, rows, cols):
        topo = topology(rows, cols)
        for ends in (topo.edge_lo, topo.edge_hi):
            assert ends.dtype == np.intp and ends.shape == (topo.n_edges,)
        assert list(zip(topo.edge_lo.tolist(), topo.edge_hi.tolist())) == topo.edges
        # horizontals row by row, then verticals row by row
        layout = [(i * cols + j, i * cols + j + 1) for i in range(rows) for j in range(cols - 1)]
        layout += [(i * cols + j, (i + 1) * cols + j) for i in range(rows - 1) for j in range(cols)]
        assert topo.edges == layout and topo.n_edges == 2 * rows * cols - rows - cols
        assert all(type(v) is int for edge in topo.edges for v in edge)

    def test_prefix_counts_match_a_direct_count(self, rows, cols):
        # at every prefix length k, count the edges with both ends before k,
        # both at or after k, and one on each side
        topo = topology(rows, cols)
        lo = np.array([a for a, _ in topo.edges], dtype=np.int64)
        hi = np.array([b for _, b in topo.edges], dtype=np.int64)
        k = np.arange(topo.n_cells + 1)[:, None]
        determined = (hi < k).sum(axis=1).tolist()
        free_free = (lo >= k).sum(axis=1).tolist()
        frontier = ((lo < k) & (hi >= k)).sum(axis=1).tolist()
        assert topo.determined_edges == determined
        assert topo.free_free_edges == free_free
        assert topo.frontier_edges == frontier
        counts = topo.determined_edges + topo.free_free_edges + topo.frontier_edges
        assert all(type(v) is int for v in counts)


class TestParsing:
    def test_parse_examples(self):
        assert parse_table("10\n01\n") == T([[1, 0], [0, 1]])
        assert parse_table("1 0\n0 1\n") == T([[1, 0], [0, 1]])

    def test_ragged_row(self):
        with pytest.raises(ParseError, match="ragged row at line 2"):
            parse_table("10\n011\n")

    def test_invalid_character(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_table("1x\n00\n")

    def test_empty(self):
        with pytest.raises(ParseError):
            parse_table("   \n")

    def test_blank_interior_line(self):
        with pytest.raises(ParseError, match="blank line"):
            parse_table("10\n\n01\n")

    def test_round_trip(self):
        text = format_table(IDENTITY_3)
        assert text == "100\n010\n001\n"
        assert parse_table(text) == IDENTITY_3

    @given(tables())
    @settings(max_examples=100, deadline=None)
    def test_round_trip_property(self, table):
        assert parse_table(format_table(table)) == table
