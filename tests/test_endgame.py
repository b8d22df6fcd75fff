"""The exact endgame table: its verdicts, and the proposal it makes exact."""

import math
from itertools import product

import numpy as np
import pytest

from isingfiber.endgame import MAX_COLS, endgame_table
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
    return bool((endgame_table(rows, cols, CFG.lp_cell_threshold)[k][w, r1] >> r2) & 1)


# all cells of these grids lie in the table (n <= 20), so every screen is exact
EXACT_SHAPES = [(1, 1), (1, 7), (7, 1), (2, 2), (2, 5), (5, 2), (3, 3), (3, 4), (4, 4)]


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
    def test_lp_path_runs_on_2x12(self, monkeypatch):
        # 12 columns: no table, the LP screen runs, and run_trial still
        # equals the reference step's LP path
        import isingfiber.sampler as sampler

        calls = []
        solve = sampler.state_lp_feasible
        monkeypatch.setattr(
            sampler, "state_lp_feasible", lambda *key: calls.append(key) or solve(*key)
        )
        stats = SuffStats(3, 3)
        for u in uniform_rows(7, 24, 0, 30):
            assert run_trial(2, 12, stats, CFG, u, {}) == reference_trial(2, 12, stats, CFG, u)
        assert calls
