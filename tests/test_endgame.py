"""The exact endgame tables: their verdicts, and the proposal they make exact."""

import math
from itertools import groupby, product

import numpy as np
import pytest

from isingfiber.endgame import MAX_COLS, endgame_table, row_endgame
from isingfiber.grid import BinaryTable, SuffStats, t1, t2, topology
from isingfiber.sampler import SamplerConfig, replay_log_q, run_trial, uniform_rows

from reference_step import completable, frontier_of, reference_trial

CFG = SamplerConfig()


def fibers(rows, cols):
    """Every table of the grid, grouped by (t1, t2)."""
    out = {}
    for cells in product((0, 1), repeat=rows * cols):
        table = BinaryTable(rows, cols, cells)
        out.setdefault(SuffStats(t1(table), t2(table)), []).append(table)
    return out


def table_verdict(rows, cols, prefix, r1, r2):
    """The table's answer for a prefix and a remaining budget (r1, r2)."""
    k = len(prefix)
    if r1 < 0 or r2 < 0 or r1 > rows * cols - k:
        return False
    w = 0
    for j in range(min(cols, k)):
        w |= prefix[k - 1 - j] << j
    level = endgame_table(rows, cols, CFG.lp_cell_threshold)[rows * cols - k]
    return bool((level[w, r1] >> r2) & 1)


# all cells of these grids lie in the endgame, so every screen is exact: the
# narrow table's (n <= 20), or for 1x12 a row table's (from cell 0)
EXACT_SHAPES = [(1, 1), (1, 7), (7, 1), (2, 2), (2, 5), (5, 2), (3, 3), (3, 4), (4, 4), (1, 12)]


class TestExactProposal:
    @pytest.mark.parametrize("rows, cols", EXACT_SHAPES, ids=[f"{r}x{c}" for r, c in EXACT_SHAPES])
    def test_mass_is_one_and_nothing_is_rejected(self, rows, cols):
        # q sums to 1 over each fiber: no mass leaves it, so no trial rejects
        n = rows * cols
        by_stats = sorted(fibers(rows, cols).items(), key=lambda kv: (kv[0].t1, kv[0].t2))
        for index, (stats, members) in enumerate(by_stats):
            mass = math.fsum(math.exp(replay_log_q(m, stats, CFG)) for m in members)
            assert mass == pytest.approx(1.0, abs=1e-9), stats
            for u in uniform_rows(1000 + index, n, 0, 50):
                assert run_trial(rows, cols, stats, CFG, u).accepted, stats


class TestTableVerdicts:
    @pytest.mark.parametrize("rows, cols", [(6, 6), (5, 8)])
    def test_late_prefixes_match_a_completion_search(self, rows, cols):
        # for prefixes of random tables that reach into the table, every
        # budget near the true remainder gets the search's verdict
        rng = np.random.default_rng(rows * 100 + cols)
        topo = topology(rows, cols)
        n = rows * cols
        first = n - CFG.lp_cell_threshold
        seen = {True: 0, False: 0}
        for _ in range(60):
            cells = tuple(int(v) for v in rng.random(n) < rng.uniform(0.1, 0.6))
            k = int(rng.integers(first, n + 1))
            prefix = cells[:k]
            r1 = sum(cells[k:])
            r2 = sum(cells[a] != cells[b] for a, b in topo.edges if max(a, b) >= k)
            frontier = frontier_of(prefix, cols, k)
            for d1 in (-2, -1, 0, 1, 2):
                for d2 in range(-3, 4):
                    expected = completable(rows, cols, k, frontier, r1 + d1, r2 + d2)
                    assert table_verdict(rows, cols, prefix, r1 + d1, r2 + d2) == expected
                    seen[expected] += 1
            assert table_verdict(rows, cols, prefix, r1, r2)
        assert seen[True] > 100 and seen[False] > 100

    def test_width_and_bit_caps(self):
        assert endgame_table(10, 10, 20) is not None
        assert endgame_table(2, MAX_COLS + 2, 20) is None
        # the last 40 cells of a 10x10 grid carry up to 76 discordant edges
        assert endgame_table(10, 10, 40) is None
        # a single column carries one edge per cell: 40 cells fit
        assert endgame_table(40, 1, 40) is not None


class TestAboveTheCap:
    def test_row_table_runs_on_2x12(self, lp_calls, row_tables):
        # 12 columns: no narrow table, so a row table screens the last row's
        # last 11 cells, no LP is solved, and run_trial equals the reference
        stats = SuffStats(3, 3)
        for u in uniform_rows(7, 24, 0, 30):
            assert run_trial(2, 12, stats, CFG, u) == reference_trial(2, 12, stats, CFG, u)
        assert row_tables and not lp_calls


ROW_SHAPES = [(1, 20), (2, 12), (3, 14)]


class TestRowTable:
    @pytest.mark.parametrize("cells", [0, 5, 20])
    @pytest.mark.parametrize("rows, cols", ROW_SHAPES, ids=[f"{r}x{c}" for r, c in ROW_SHAPES])
    def test_bits_match_a_completion_search(self, rows, cols, cells):
        # for random determined rows above the zone, every level, left value
        # and budget gets the search's verdict
        n = rows * cols
        zone = min(cells, cols - 1)
        topo = topology(rows, cols)
        rng = np.random.default_rng(n * 100 + cells)
        seen = {True: 0, False: 0}
        for _ in range(4):
            table = [int(v) for v in rng.random(n) < rng.uniform(0.1, 0.6)]
            ones = int(rng.integers(0, min(zone, 3) + 1))
            ups = [table[u] if u >= 0 else -1 for u in topo.up[n - zone :]]
            levels = row_endgame(ups, ones)
            assert len(levels) == zone + 1
            for m, level in enumerate(levels):
                k = n - m
                for w in (0, 1):
                    frontier = frontier_of(table, cols, k)[:-1] + (w,)
                    for r1 in range(ones + 1):
                        for r2 in range(2 * m + 2):
                            expected = completable(rows, cols, k, frontier, r1, r2)
                            assert bool((level[w, r1] >> r2) & 1) == expected, (m, w, r1, r2)
                            seen[expected] += 1
        assert seen[True] and seen[False]


def wide_first_rows(cols):
    """For a 2 x cols grid: (t1, t2, first row, second row), one second row
    per (t1, t2, first row) that some table reaches, in that order; rows are
    bit masks with bit j at column j."""
    rows = np.arange(1 << cols)
    pop = np.array([bin(r).count("1") for r in range(1 << cols)])
    horizontal = pop[(rows ^ (rows >> 1)) & ((1 << (cols - 1)) - 1)]
    first, second = np.meshgrid(rows, rows, indexing="ij")
    stat1 = pop[first] + pop[second]
    stat2 = horizontal[first] + horizontal[second] + pop[first ^ second]
    keys = ((stat1 * 64 + stat2) << cols) + first
    _, at = np.unique(keys.ravel(), return_index=True)
    columns = (stat1, stat2, first, second)
    return zip(*(c.ravel()[at].tolist() for c in columns))


class TestRowZone:
    def test_2x11_members_replay_and_nothing_rejects_in_the_zone(self):
        # the zone is the second row (cells 11..21). A trial's path through
        # the first row depends only on that row and (t1, t2), and the zone
        # screens exactly (TestRowTable), so replaying one member per (first
        # row, fiber) covers every member of every fiber. Each replay is
        # replay_log_q's forced trial, with a step cache per fiber
        cols = 11
        by_fiber = groupby(wide_first_rows(cols), key=lambda row: row[:2])
        for index, ((s1, s2), members) in enumerate(by_fiber):
            stats = SuffStats(s1, s2)
            step_cache = {}
            for _, _, first, second in members:
                cells = tuple((first >> j) & 1 for j in range(cols))
                cells += tuple((second >> j) & 1 for j in range(cols))
                forcing = [1.0 - v for v in cells]
                draw = run_trial(2, cols, stats, CFG, forcing, step_cache=step_cache)
                assert draw.accepted and draw.table.cells == cells, (stats, cells)
            for u in uniform_rows(2200 + index, 2 * cols, 0, 20):
                draw = run_trial(2, cols, stats, CFG, u)
                assert draw.accepted or draw.stage <= cols, stats
