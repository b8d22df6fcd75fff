"""The exact endgame tables: their verdicts, and the proposal they make exact."""

import math
import tracemalloc
from itertools import groupby, product

import numpy as np
import pytest

from isingfiber.endgame import FIELD, MAX_COLS, TABLE_BYTES, row_endgame, zone
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


def unpack(entry):
    """An index entry, or an int64 array of them, as (offset, lo, hi)."""
    field = (1 << FIELD) - 1
    return entry >> 2 * FIELD, entry >> FIELD & field, entry & field


def span(level, cols, w, r1):
    """The (w, r1) row's stored span of a narrow level: (offset, lo, hi)."""
    return unpack(level[0][(r1 << cols) + w])


def stored(level, cols, w, r1, r2):
    """The count a narrow level stores for (w, r1, r2), 0 outside the span."""
    offset, lo, hi = span(level, cols, w, r1)
    return level[1][offset + r2 - lo] if lo <= r2 <= hi else 0


def table_count(rows, cols, prefix, r1, r2):
    """The narrow table's count for a prefix and a remaining budget (r1, r2)
    with r1 <= cap."""
    k = len(prefix)
    m = rows * cols - k
    _, cap, levels = zone(rows, cols, CFG.endgame_cells)
    assert r1 <= cap
    if r1 < 0 or r1 > m:
        return 0
    w = 0
    for j in range(min(cols, k)):
        w |= prefix[k - 1 - j] << j
    return stored(levels[m], cols, w, r1, r2)


def frontier(w, cols):
    """The frontier values of w, oldest first, as completions takes them."""
    return tuple((w >> (cols - 1 - j)) & 1 for j in range(cols))


def dense_counts(rows, cols, reach, top):
    """Each level m = 0..reach of the narrow recursion as dense uint64 counts
    [w, r1, r2] for r1 <= min(top, m): an independent rebuild, one gather per
    (value, discord) as the dense uint16 table was built, wide enough that no
    count wraps."""
    topo = topology(rows, cols)
    n = topo.n_cells
    size = 1 << cols
    w = np.arange(size)
    after0 = (w << 1) & (size - 1)
    nxt = np.ones((size, 1, 1), dtype=np.uint64)
    yield nxt
    for m in range(1, reach + 1):
        k = n - m
        e = topo.n_edges - topo.determined_edges[k]
        closes = (k >= cols) + (k % cols != 0)
        d0 = (w >> (cols - 1)) * (k >= cols) + (w & 1) * (k % cols != 0)
        cur = np.zeros((size, min(top, m) + 1, e + 1), dtype=np.uint64)
        for v, d in ((0, d0), (1, closes - d0)):
            j = min(cur.shape[1] - v, nxt.shape[1])
            for shift in range(closes + 1):
                at = np.flatnonzero(d == shift)
                cur[at, v : v + j, shift : shift + nxt.shape[2]] += nxt[after0[at] | v, :j]
        yield cur
        nxt = cur


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
        reach, cap, _ = zone(rows, cols, CFG.endgame_cells)
        assert reach >= n - 1 and cap == n
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
    return sum(index.nbytes + counts.nbytes for index, counts in levels)


def decoded(level, cols, rows):
    """A narrow level's index as (offset, lo, hi) arrays [r1, w] for r1 < rows."""
    return unpack(np.asarray(level[0]).astype(np.int64).reshape(rows, 1 << cols))


def dense_spans(counts):
    """Whether each [r1, w] row of dense counts [r1, w, r2] has a nonzero r2,
    and the first and last such r2."""
    nonzero = counts != 0
    last = counts.shape[2] - 1 - nonzero[..., ::-1].argmax(axis=2)
    return nonzero.any(axis=2), nonzero.argmax(axis=2), last


def check_cap(rows, cols, cells, reach, cap, binds):
    """zone(rows, cols, cells) has this reach and cap, its spans are the
    nonzero spans of a uint64 rebuild and every count it stores equals the
    rebuild's, so none wrapped. Of the two rules, binds names those that one
    more r1 would break: "bits", a count of 2^16 or more, and "bytes", more
    than TABLE_BYTES."""
    got_reach, got_cap, levels = zone(rows, cols, cells)
    assert (got_reach, got_cap) == (reach, cap)
    assert table_bytes(levels) <= TABLE_BYTES
    largest = more_bytes = 0
    for m, counts in enumerate(dense_counts(rows, cols, reach, cap + 1)):
        counts = counts.transpose(1, 0, 2)  # [r1, w, r2]
        stored_rows = min(cap, m) + 1
        some, lo, hi = dense_spans(counts[:stored_rows])
        offset, got_lo, got_hi = decoded(levels[m], cols, stored_rows)
        assert (got_lo[some] == lo[some]).all() and (got_hi[some] == hi[some]).all(), m
        assert (got_lo[~some] > got_hi[~some]).all(), m
        length = np.maximum(got_hi - got_lo + 1, 0).ravel()
        assert (offset.ravel() == np.cumsum(length) - length).all(), m
        r2 = np.arange(counts.shape[2])
        keep = (got_lo[..., None] <= r2) & (r2 <= got_hi[..., None])
        assert (counts[:stored_rows][keep] == np.asarray(levels[m][1])).all(), m
        # the table one more r1 would give
        if len(counts) > cap + 1:
            largest = max(largest, int(counts[cap + 1].max()))
        some, lo, hi = dense_spans(counts[: min(cap + 1, m) + 1])
        more_bytes += 4 * some.size + 2 * int(np.where(some, hi - lo + 1, 0).sum())
    assert (largest >= 1 << 16) == ("bits" in binds)
    assert (more_bytes > TABLE_BYTES) == ("bytes" in binds)


class TestTableVerdicts:
    @pytest.mark.parametrize("rows, cols", [(6, 6), (5, 8)])
    def test_late_prefixes_match_a_completion_search(self, rows, cols):
        # for prefixes of random tables that reach into the table with at
        # most cap - 2 ones left, every budget near the true remainder gets
        # the search's count
        rng = np.random.default_rng(rows * 100 + cols)
        topo = topology(rows, cols)
        n = rows * cols
        reach, cap, _ = zone(rows, cols, CFG.endgame_cells)
        seen = {True: 0, False: 0}
        for _ in range(60):
            cells = tuple(int(v) for v in rng.random(n) < rng.uniform(0.1, 0.6))
            ones_after = np.cumsum(cells[::-1])[::-1].tolist() + [0]
            ks = [k for k in range(n - reach, n + 1) if ones_after[k] <= cap - 2]
            k = int(rng.choice(ks))
            prefix = cells[:k]
            r1 = ones_after[k]
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
        # every stored (w, r1 <= cap, r2) count is the number of completions
        # of the last m cells for its frontier and budget, and every r2
        # outside the row's span has none: the whole grid with a full cap on
        # the small shapes, 32 cells at cap 5 on 6x6
        n = rows * cols
        topo = topology(rows, cols)
        reach, cap, levels = zone(rows, cols, CFG.endgame_cells)
        assert len(levels) == reach + 1 == min(n, CFG.endgame_cells) + 1
        assert cap == (5 if n == 36 else n)
        for m, level in enumerate(levels):
            e = topo.n_edges - topo.determined_edges[n - m]
            for w, r1 in product(range(1 << cols), range(min(cap, m) + 1)):
                for r2 in range(e + 1):
                    expected = completions(rows, cols, n - m, frontier(w, cols), r1, r2)
                    assert stored(level, cols, w, r1, r2) == expected, (m, w, r1, r2)
        completions.cache_clear()  # 6x6 fills it with several 100,000 entries

    def test_random_10x10_rows_match_a_completion_count(self):
        # 200 seeded (m, w, r1 <= cap) rows of levels 14-32 on 10x10, where
        # the old dense table did not reach: every r2 gets the count's number
        # of completions
        rng = np.random.default_rng(1010)
        topo = topology(10, 10)
        reach, cap, levels = zone(10, 10, CFG.endgame_cells)
        seen = {True: 0, False: 0}
        for _ in range(200):
            m = int(rng.integers(14, reach + 1))
            w = int(rng.integers(0, 1 << 10))
            r1 = int(rng.integers(0, cap + 1))
            for r2 in range(topo.n_edges - topo.determined_edges[100 - m] + 1):
                expected = completions(10, 10, 100 - m, frontier(w, 10), r1, r2)
                assert stored(levels[m], 10, w, r1, r2) == expected, (m, w, r1, r2)
                seen[expected > 0] += 1
        completions.cache_clear()
        assert seen[True] > 1000 and seen[False] > 1000

    def test_width_and_bit_caps(self):
        assert zone(2, MAX_COLS + 2, 20) == (MAX_COLS + 1, 2 * (MAX_COLS + 2), None)
        # on 10x10 the 32 cells asked for hold r1 <= 5 in 3.78 MB; r1 <= 6
        # would hold a count past 16 bits, and take 4.89 MB too
        assert table_bytes(zone(10, 10, 32)[2]) == 3_784_044
        check_cap(10, 10, 32, 32, 5, ("bits", "bytes"))
        # at 40 cells both rules keep r1 = 5 out, and the cap is 4 (3.58 MB);
        # at 20 cells only the byte budget binds: r1 <= 10 would take more
        # than TABLE_BYTES, with every count inside 16 bits
        assert table_bytes(zone(10, 10, 40)[2]) == 3_581_234
        check_cap(10, 10, 40, 40, 4, ("bits", "bytes"))
        check_cap(10, 10, 20, 20, 9, ("bytes",))
        # and all of 3x3 and 4x4 fit with every r1
        assert zone(3, 3, 32)[:2] == (9, 9) and zone(4, 4, 32)[:2] == (16, 16)
        assert len(zone(3, 3, 32)[2]) == 10 and len(zone(4, 4, 32)[2]) == 17

    def test_16_bit_bound_trims_5x6_and_no_count_wraps(self):
        # 5x6 and 6x6 at 32 cells: the whole table would fit the byte budget
        # many times over, but r1 = 6 would hold a count past 16 bits, so the
        # cap is 5; every stored count equals a uint64 rebuild's
        for rows, cols in ((5, 6), (6, 6)):
            check_cap(rows, cols, 32, min(rows * cols, 32), 5, ("bits",))
            _, cap, levels = zone(rows, cols, 32)
            assert table_bytes(levels) < TABLE_BYTES // 16
            # over r2 the completions of m cells with r1 ones number C(m, r1)
            # exactly, for every frontier; a count that wrapped would lose 2^16
            for m, level in enumerate(levels):
                for w, r1 in product(range(1 << cols), range(min(cap, m) + 1)):
                    offset, lo, hi = span(level, cols, w, r1)
                    assert sum(level[1][offset : offset + hi - lo + 1]) == math.comb(m, r1), m


class TestZone:
    def test_reach_never_falls_as_the_length_rises(self):
        # on 10x10 the narrow table covers the last L cells; every r1 fits up
        # to 17 cells, and past them the cap falls as L rises
        assert [zone(10, 10, cells)[0] for cells in range(61)] == list(range(61))
        caps = [zone(10, 10, cells)[1] for cells in range(61)]
        assert caps[:18] == [100] * 18 and caps[18:21] == [13, 10, 9]
        assert caps[32] == 5 and caps[40] == 4 and caps[60] == 3
        assert all(a >= b for a, b in zip(caps, caps[1:]))
        # on 5x6 only the 16-bit bound binds, from 22 cells on
        reach_cap = [zone(5, 6, cells)[:2] for cells in range(41)]
        assert reach_cap[:22] == [(c, 30) for c in range(22)]
        assert reach_cap[22] == (22, 8) and reach_cap[40] == (30, 5)
        assert zone(2, MAX_COLS + 2, 40) == (MAX_COLS + 1, 24, None)
        # where not even r1 = 0 fits, the zone is empty: 700 levels of 6 KB
        assert zone(70, 10, 700) == (-1, -1, None)

    def test_a_cold_build_fits_its_memory_bound(self):
        # the build loop's first pass chooses the cap holding no table, and
        # its second pass, at that cap, holds the table and two levels of
        # counts: a cold zone(10, 10, 32) peaks at most 1.5 MB above what it
        # keeps
        from isingfiber import endgame

        topology(10, 10)
        endgame.zone.cache_clear()
        endgame._narrow.cache_clear()
        tracemalloc.start()
        try:
            table = zone(10, 10, 32)[2]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = table_bytes(table)
        assert held <= TABLE_BYTES and peak <= held + 1_500_000, (held, peak)
        assert zone(10, 10, 32)[2] is table

    def test_lengths_past_the_grid_share_one_table(self):
        # the table is cached by its reach, min(cells, n), so every length
        # of at least n cells hands out one object
        full = zone(10, 10, 100)
        assert full[0] == 100 and zone(10, 10, 120)[:2] == full[:2]
        assert zone(10, 10, 120)[2] is full[2]
        assert zone(3, 3, 9)[2] is zone(3, 3, 32)[2]

    def test_a_trial_in_the_zone_stays_there_and_dies_only_on_entry(self, monkeypatch):
        # on criterion 3's tables, a trial's first lookup marks the cell
        # where it enters the zone. It looks up a count at every later cell
        # it reaches, so it never leaves, and it is rejected there or not at
        # all: every later state has a completion. Each accepted trial enters
        # by the cell where rc_after = cap - 1, where r1 <= cap must hold
        import isingfiber.sampler as sampler

        reach, cap, levels = zone(10, 10, CFG.endgame_cells)
        looked = []

        class Recorded:
            def __init__(self, m, index):
                self.m, self.index = m, index

            def __getitem__(self, at):
                looked.append(self.m)
                return self.index[at]

        recorded = tuple((Recorded(m, index), counts) for m, (index, counts) in enumerate(levels))
        monkeypatch.setattr(sampler, "zone", lambda *args: (reach, cap, recorded))
        entered = at_entry = 0
        for i in range(10):
            rng = np.random.default_rng((99, i))
            stats = SuffStats.of(gibbs_ising(IsingParams(-2.0, 0.1), 10, 10, 1001, rng))
            for u in uniform_rows(7000 + i, 100, 0, 300):
                looked.clear()
                draw = run_trial(10, 10, stats, CFG, u)
                if draw.accepted:
                    assert looked and max(looked) >= cap - 1
                if looked:
                    entered += 1
                    entry = 99 - max(looked)
                    last = 99 if draw.accepted else draw.stage
                    assert sorted(set(looked)) == list(range(99 - last, 100 - entry))
                    at_entry += not draw.accepted
                    assert draw.accepted or draw.stage == entry, (i, entry, draw.stage)
        assert entered > 2500 and at_entry < entered // 100

    def test_trimmed_table_runs_at_40_cells(self, lp_calls, row_tables, lookups):
        # --endgame-cells 40 on 10x10 screens the last 40 cells at cap 4 with
        # the narrow table, builds no row table, and equals the reference
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
