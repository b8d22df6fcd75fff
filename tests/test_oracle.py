from itertools import product

import pytest

from isingfiber.cutlp import cell_bounds
from isingfiber.grid import SuffStats, t1, t2, u_stat
from isingfiber.oracle import (
    CapExceededError,
    enumerate_fiber,
    exact_cell_bounds,
    exact_pvalues,
    fiber_members,
    nonempty_fibers,
)

from conftest import naive_t1, naive_t2, naive_u, naive_u_prime, table_from_bits


def scan(rows, cols):
    """Every table of the grid as (cells, t1, t2, u, uprime), counted by the
    naive references, in the order of the bits as binary numbers."""
    out = []
    for bits in range(2 ** (rows * cols)):
        table = table_from_bits(rows, cols, bits)
        grid = table.to_rows()
        out.append(
            (table.cells, naive_t1(grid), naive_t2(grid), naive_u(grid), naive_u_prime(grid))
        )
    return out


class TestEnumerateFiber:
    def test_2x2_sizes(self):
        assert enumerate_fiber(2, 2, SuffStats(1, 2)).size == 4
        assert enumerate_fiber(2, 2, SuffStats(2, 4)).size == 2
        assert enumerate_fiber(2, 2, SuffStats(1, 3)).size == 0

    def test_2x2_diagonal_fiber_members(self):
        members = {m.cells for m in fiber_members(2, 2, SuffStats(2, 4))}
        assert members == {(1, 0, 0, 1), (0, 1, 1, 0)}

    def test_histogram_sums_to_size(self):
        summary = enumerate_fiber(3, 3, SuffStats(3, 8))
        assert summary.size == sum(summary.stat_histogram.values())
        assert summary.size > 0

    def test_3x3_sizes_match_full_scan(self, fibers_3x3):
        # test-only double implementation: 2^9 scan vs combination enumeration
        for stats, size in fibers_3x3.items():
            assert enumerate_fiber(3, 3, stats).size == size
        assert sum(fibers_3x3.values()) == 2**9

    def test_members_realize_the_stats(self):
        for member in fiber_members(3, 3, SuffStats(3, 8)):
            assert t1(member) == 3
            assert t2(member) == 8

    def test_cap(self):
        with pytest.raises(CapExceededError, match="25"):
            enumerate_fiber(6, 6, SuffStats(3, 8))

    def test_unknown_statistic(self):
        with pytest.raises(KeyError):
            enumerate_fiber(3, 3, SuffStats(3, 8), stat_name="v")

    def test_3x3_members_and_histograms_match_scan(self, fibers_3x3):
        # every 3x3 fiber against the naive counts over all 2^9 tables: the
        # members in lexicographic order of their one-positions, and both
        # histograms
        tables = scan(3, 3)
        for stats in fibers_3x3:
            fiber = [t for t in tables if (t[1], t[2]) == (stats.t1, stats.t2)]
            fiber.sort(key=lambda t: [k for k, v in enumerate(t[0]) if v])
            assert [m.cells for m in fiber_members(3, 3, stats)] == [t[0] for t in fiber]
            for name, column in (("u", 3), ("uprime", 4)):
                histogram = {}
                for t in fiber:
                    histogram[t[column]] = histogram.get(t[column], 0) + 1
                summary = enumerate_fiber(3, 3, stats, name)
                assert summary.stat_histogram == dict(sorted(histogram.items()))

    def test_uprime_histogram(self):
        summary = enumerate_fiber(2, 2, SuffStats(2, 2), stat_name="uprime")
        # six two-one tables, four with t2=2: rows [[0,0],[1,1]], [[1,1],[0,0]],
        # [[1,0],[1,0]], [[0,1],[0,1]]; exactly one matches the literal window
        assert summary.size == 4
        assert summary.stat_histogram == {0: 3, 1: 1}


class TestExactPvalues:
    def test_histogram_example(self):
        summary = enumerate_fiber(2, 2, SuffStats(2, 2), stat_name="uprime")
        assert exact_pvalues(summary, 0) == (1 / 4, 1.0)

    def test_above_maximum(self):
        summary = enumerate_fiber(3, 3, SuffStats(1, 2))
        assert exact_pvalues(summary, 99) == (0.0, 0.0)

    def test_corner_fiber(self):
        # the 3x3 (1,2) fiber is the four corner tables, all with u = 0
        summary = enumerate_fiber(3, 3, SuffStats(1, 2))
        assert summary.size == 4
        assert summary.stat_histogram == {0: 4}
        assert exact_pvalues(summary, 0) == (0.0, 1.0)

    def test_empty_fiber(self):
        with pytest.raises(ValueError):
            exact_pvalues(enumerate_fiber(2, 2, SuffStats(1, 3)), 0)


class TestExactCellBounds:
    def test_center_forced_zero(self):
        assert exact_cell_bounds(3, 3, SuffStats(1, 2), (), 4) == (0, 0)

    def test_corner_free(self):
        assert exact_cell_bounds(3, 3, SuffStats(1, 2), (), 0) == (0, 1)

    def test_unique_completion(self):
        assert exact_cell_bounds(2, 2, SuffStats(4, 0), (), 3) == (1, 1)

    def test_empty(self):
        assert exact_cell_bounds(2, 2, SuffStats(1, 3), (), 0) is None

    def test_prefix_conditioning(self):
        # prefix (1,) on the (1,2) fiber forces the remaining cells to zero
        assert exact_cell_bounds(2, 2, SuffStats(1, 2), (1,), 2) == (0, 0)

    def test_2x5_fiber_matches_scan(self):
        # every prefix and every cell after it, against the values the
        # cell takes over the scanned members that begin with the prefix
        stats = SuffStats(4, 7)
        members = [t[0] for t in scan(2, 5) if (t[1], t[2]) == (4, 7)]
        assert members
        for k in range(10):
            for prefix in product((0, 1), repeat=k):
                completions = [m for m in members if m[:k] == prefix]
                for cell in range(k, 10):
                    values = {m[cell] for m in completions}
                    want = (min(values), max(values)) if values else None
                    assert exact_cell_bounds(2, 5, stats, prefix, cell) == want


# (prefix, cell) on the 3x3 (3, 8) fiber that both the oracle and the LP
# refuse through grid.check_prefix
BAD_PREFIX_CELLS = {
    "determined-cell": ((1, 0), 0),
    "negative-cell": ((), -1),
    "non-binary-prefix": ((1, 2), 5),
    "cell-past-end": ((), 9),
}


@pytest.mark.parametrize("case", sorted(BAD_PREFIX_CELLS))
@pytest.mark.parametrize("bounds", [exact_cell_bounds, cell_bounds], ids=["oracle", "lp"])
def test_bad_prefix_or_cell_is_refused(bounds, case):
    prefix, cell = BAD_PREFIX_CELLS[case]
    with pytest.raises(ValueError):
        bounds(3, 3, SuffStats(3, 8), prefix, cell)


def test_nonempty_fibers_4x4_smoke():
    sizes = nonempty_fibers(4, 4)
    assert sizes[SuffStats(0, 0)] == 1
    assert sizes[SuffStats(16, 0)] == 1
    assert sum(sizes.values()) == 2**16
    # cross-check one fiber against direct enumeration
    assert enumerate_fiber(4, 4, SuffStats(5, 6)).size == sizes[SuffStats(5, 6)]
