"""The exact endgame tables: their verdicts, and the proposal they make exact."""

import math
from itertools import groupby, product

import numpy as np
import pytest

from isingfiber.endgame import MAX_COLS, MAX_REACH, TABLE_BYTES, row_endgame, zone
from isingfiber.grid import BinaryTable, SuffStats, t1, t2, topology
from isingfiber.inference import collect_trials, report_from_batch
from isingfiber.models import IsingParams, gibbs_ising
from isingfiber.oracle import enumerate_fiber
from isingfiber.sampler import RHO_CLAMP, SamplerConfig, replay_log_q, run_trial, uniform_rows

from reference_step import completions, frontier_of, reference_trial

CFG = SamplerConfig()


def fibers(rows, cols):
    """Every table of the grid, grouped by (t1, t2)."""
    out = {}
    for cells in product((0, 1), repeat=rows * cols):
        table = BinaryTable(rows, cols, cells)
        out.setdefault(SuffStats(t1(table), t2(table)), []).append(table)
    return out


def table_count(rows, cols, prefix, r1, r2):
    """The narrow table's count for a prefix and a remaining budget (r1, r2)."""
    k = len(prefix)
    topo = topology(rows, cols)
    if r1 < 0 or r2 < 0 or r1 > rows * cols - k or r2 > topo.n_edges - topo.determined_edges[k]:
        return 0
    w = 0
    for j in range(min(cols, k)):
        w |= prefix[k - 1 - j] << j
    level = zone(rows, cols, CFG.endgame_cells)[1][rows * cols - k]
    return level[w, r1, r2]


def clamped(table, stats, count):
    """Whether some step of the table's path, where both values have a
    completion, has a count ratio N1 / (N0 + N1) that RHO_CLAMP moves;
    count(prefix, r1, r2) is the number of completions of a prefix."""
    topo = topology(table.rows, table.cols)
    cells = table.cells
    r1, r2 = stats.t1, stats.t2
    for k, v in enumerate(cells):
        adds = [sum(x != cells[nb] for nb in (topo.up[k], topo.left[k]) if nb >= 0) for x in (0, 1)]
        counts = [count(cells[:k] + (x,), r1 - x, r2 - adds[x]) for x in (0, 1)]
        if all(counts) and not RHO_CLAMP <= counts[1] / sum(counts) <= 1 - RHO_CLAMP:
            return True
        r1 -= v
        r2 -= adds[v]
    return False


# all cells of these grids lie in the endgame, so every screen is exact and
# every branch probability a count ratio: the narrow table's (at most 16
# cells), or for 1x12 a row table's (from cell 0)
EXACT_SHAPES = [(1, 1), (1, 7), (7, 1), (2, 2), (2, 5), (5, 2), (3, 3), (3, 4), (4, 4), (1, 12)]


class TestExactProposal:
    @pytest.mark.parametrize("rows, cols", EXACT_SHAPES, ids=[f"{r}x{c}" for r, c in EXACT_SHAPES])
    def test_mass_is_one_and_nothing_is_rejected(self, rows, cols):
        # q sums to 1 over each fiber: no mass leaves it, so no trial rejects.
        # A trial is uniform over the fiber wherever RHO_CLAMP does not bind,
        # so every accepted table whose path the clamp leaves alone carries
        # the weight 1 / q = the fiber's size
        n = rows * cols
        assert zone(rows, cols, CFG.endgame_cells)[0] >= n - 1
        by_stats = sorted(fibers(rows, cols).items(), key=lambda kv: (kv[0].t1, kv[0].t2))
        memo = {}  # replays of one shape share a memo
        unclamped = 0

        def count(prefix, r1, r2):
            k = len(prefix)
            return completions(rows, cols, k, frontier_of(prefix, cols, k), r1, r2)

        for index, (stats, members) in enumerate(by_stats):
            mass = math.fsum(math.exp(replay_log_q(m, stats, CFG, memo)) for m in members)
            assert mass == pytest.approx(1.0, abs=1e-9), stats
            for u in uniform_rows(1000 + index, n, 0, 50):
                draw = run_trial(rows, cols, stats, CFG, u)
                assert draw.accepted, stats
                if not clamped(draw.table, stats, count):
                    unclamped += 1
                    weight = math.exp(-draw.log_q)
                    assert math.isclose(weight, len(members), rel_tol=1e-12), (stats, draw.table)
        assert unclamped >= 25 * len(by_stats)


def table_bytes(levels):
    return sum(level.nbytes for level in levels)


class TestTableVerdicts:
    @pytest.mark.parametrize("rows, cols", [(6, 6), (5, 8)])
    def test_late_prefixes_match_a_completion_search(self, rows, cols):
        # for prefixes of random tables that reach into the table, every
        # budget near the true remainder gets the search's count
        rng = np.random.default_rng(rows * 100 + cols)
        topo = topology(rows, cols)
        n = rows * cols
        first = n - zone(rows, cols, CFG.endgame_cells)[0]
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
                    expected = completions(rows, cols, k, frontier, r1 + d1, r2 + d2)
                    assert table_count(rows, cols, prefix, r1 + d1, r2 + d2) == expected
                    seen[expected > 0] += 1
            assert table_count(rows, cols, prefix, r1, r2)
        assert seen[True] > 100 and seen[False] > 100

    @pytest.mark.parametrize("rows, cols", [(3, 3), (2, 5), (4, 4), (6, 6)])
    def test_every_count_matches_a_completion_count(self, rows, cols):
        # every entry of every level, including the zeros, is the number of
        # completions of the last m cells for its frontier and budget: the
        # whole grid on the small shapes, the 18 cells MAX_REACH allows on 6x6
        n = rows * cols
        levels = zone(rows, cols, CFG.endgame_cells)[1]
        assert len(levels) == min(n, MAX_REACH) + 1
        for m, level in enumerate(levels):
            counts = np.asarray(level)
            for w, r1, r2 in np.ndindex(counts.shape):
                frontier = tuple((w >> (cols - 1 - j)) & 1 for j in range(cols))
                expected = completions(rows, cols, n - m, frontier, r1, r2)
                assert counts[w, r1, r2] == expected, (m, w, r1, r2)
        completions.cache_clear()  # 6x6 fills it with about 440,000 entries

    def test_width_and_bit_caps(self):
        assert zone(2, MAX_COLS + 2, 20)[1] is None
        # on 10x10 the byte budget binds first: the last 13 cells take 3.84 MB
        # and the last 14 would take more than TABLE_BYTES
        assert len(zone(10, 10, 20)[1]) == 14
        assert table_bytes(zone(10, 10, 20)[1]) == 3_840_000
        assert table_bytes(zone(10, 10, 20)[1]) + (2 * 15 * 28 << 10) > TABLE_BYTES
        assert len(zone(10, 10, 40)[1]) == 14
        # a single column is small: the 16-bit bound alone trims it
        assert len(zone(40, 1, 40)[1]) == MAX_REACH + 1
        # and all of 3x3 and 4x4 fit
        assert len(zone(3, 3, 20)[1]) == 10 and len(zone(4, 4, 20)[1]) == 17

    def test_16_bit_bound_trims_5x6_and_no_count_wraps(self):
        # 5x6 at 40 cells: the 19-cell table would fit the byte budget, but
        # C(19, 9) completions do not fit in 16 bits, so the table stops at
        # MAX_REACH = 18 cells
        assert math.comb(MAX_REACH, MAX_REACH // 2) < 1 << 16 <= math.comb(19, 9)
        reach, levels = zone(5, 6, 40)
        assert reach == MAX_REACH
        topo = topology(5, 6)
        n = topo.n_cells
        longer = sum(
            2 * (n - k + 1) * (topo.n_edges - topo.determined_edges[k] + 1) << 6
            for k in range(n - MAX_REACH - 1, n + 1)
        )
        assert table_bytes(levels) <= longer <= TABLE_BYTES
        # over r2 the completions of m cells with r1 ones number C(m, r1)
        # exactly, for every frontier; a count that wrapped would lose 2^16
        for m, level in enumerate(levels):
            counts = np.asarray(level).astype(np.int64)
            totals = counts.sum(axis=2)
            assert (totals == [math.comb(m, r1) for r1 in range(m + 1)]).all(), m


class TestZone:
    def test_reach_never_falls_as_the_length_rises(self):
        # on 10x10 the narrow table covers the last L cells up to its byte
        # budget's reach, 13 cells, and past it stays there
        reaches = [zone(10, 10, cells)[0] for cells in range(61)]
        assert reaches == [min(cells, 13) for cells in range(61)]
        assert all(zone(10, 10, cells)[1] is not None for cells in (0, 13, 40, 60))
        # on 5x6 only the 16-bit bound binds
        assert [zone(5, 6, cells)[0] for cells in range(41)] == [min(c, 18) for c in range(41)]
        assert zone(2, MAX_COLS + 2, 40) == (MAX_COLS + 1, None)

    def test_lengths_past_the_reach_share_one_table(self):
        # on 10x10 every L from 13 up trims to the same first cell, so they
        # get one cached table, built once
        from isingfiber import endgame

        endgame.zone.cache_clear()
        endgame._levels.cache_clear()
        table = zone(10, 10, 13)[1]
        assert all(zone(10, 10, cells)[1] is table for cells in range(14, 61))
        assert endgame._levels.cache_info().misses == 1

    def test_trimmed_table_runs_at_40_cells(self, lp_calls, row_tables, lookups):
        # --endgame-cells 40 on 10x10 screens the last 13 cells with the
        # narrow table, builds no row table, and equals the reference
        config = SamplerConfig(endgame_cells=40)
        table = gibbs_ising(IsingParams(-2.0, 0.1), 10, 10, rng=np.random.default_rng((99, 0)))
        stats = SuffStats.of(table)
        accepted = 0
        for u in uniform_rows(1040, 100, 0, 40):
            draw = run_trial(10, 10, stats, config, u)
            expected = reference_trial(10, 10, stats, config, u)
            assert draw == expected
            if draw.accepted:
                accepted += 1
                assert draw.log_q.hex() == expected.log_q.hex()
        assert accepted and lookups and not row_tables and not lp_calls


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
    def test_digits_match_a_completion_count(self, rows, cols, cells):
        # for random determined rows above the zone, every level, left value
        # and budget gets the count's number of completions
        n = rows * cols
        zone = min(cells, cols - 1)
        topo = topology(rows, cols)
        rng = np.random.default_rng(n * 100 + cells)
        seen = {True: 0, False: 0}
        for _ in range(4):
            table = [int(v) for v in rng.random(n) < rng.uniform(0.1, 0.6)]
            ones = int(rng.integers(0, min(zone, 3) + 1))
            ups = [table[u] if u >= 0 else -1 for u in topo.up[n - zone :]]
            levels, width = row_endgame(ups, ones)
            assert len(levels) == zone + 1
            for m, level in enumerate(levels):
                k = n - m
                for w in (0, 1):
                    frontier = frontier_of(table, cols, k)[:-1] + (w,)
                    for r1 in range(ones + 1):
                        # a level holds no key for more ones than cells, and
                        # no digit past the discord its cells can carry
                        digits = level.get((w, r1), 0)
                        assert digits >> (2 * m + 1) * width == 0
                        for r2 in range(2 * m + 2):
                            expected = completions(rows, cols, k, frontier, r1, r2)
                            got = (digits >> r2 * width) & ((1 << width) - 1)
                            assert got == expected, (m, w, r1, r2)
                            seen[expected > 0] += 1
        assert seen[True] and seen[False]


def row_completions(n, k, w, r1, r2):
    """Completions of cells k.. of a 1 x n grid after the left value w: one
    row reads only the newest frontier value, so the rest is fixed at 0 and
    the reference's cache stays small."""
    return completions(1, n, k, (0,) * (n - 1) + (w,), r1, r2)


class TestCountedZone:
    @pytest.mark.parametrize("n", range(12, 21))
    def test_one_row_weights_are_uniform(self, n):
        # every cell of a 1 x n grid, n > MAX_COLS, lies in the row table's
        # zone, whose P[1] is a ratio of completion counts: each accepted
        # table unmoved by RHO_CLAMP carries the weight 1 / q = the fiber's
        # size, so in particular the tables that share cell 0's value carry
        # one weight
        rng = np.random.default_rng(n)
        stats = SuffStats.of(BinaryTable(1, n, tuple(int(v) for v in rng.random(n) < 0.35)))
        size = sum(row_completions(n, 1, v, stats.t1 - v, stats.t2) for v in (0, 1))

        def count(prefix, r1, r2):
            return row_completions(n, len(prefix), prefix[-1], r1, r2)

        unclamped = 0
        for u in uniform_rows(3000 + n, n, 0, 200):
            draw = run_trial(1, n, stats, CFG, u)
            assert draw.accepted, stats
            if not clamped(draw.table, stats, count):
                unclamped += 1
                weight = math.exp(-draw.log_q)
                assert math.isclose(weight, size, rel_tol=1e-12), (stats, draw.table)
        assert unclamped >= 100

    @pytest.mark.parametrize("stats", [SuffStats(4, 8), SuffStats(5, 11), SuffStats(6, 10)])
    def test_2x12_fiber_size_coverage(self, stats):
        # the second row lies in the zone; as in criterion 2, the estimate
        # lies within 3 standard errors of the exact size in 95 of 100 runs
        size = enumerate_fiber(2, 12, stats).size
        hits = 0
        for rep in range(100):
            seed = 12_000 + 100 * stats.t1 + rep
            report = report_from_batch(collect_trials(2, 12, stats, CFG, seed, 1000), "u", 0)
            est, se = report.fiber_size_estimate, report.fiber_size_se
            hits += abs(est - size) <= 3 * se or est == size
        assert hits >= 95, (stats, size, hits)


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
