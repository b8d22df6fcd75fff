import math

import numpy as np
import pytest

from isingfiber.grid import BinaryTable, SuffStats, t1, t2, topology
from isingfiber.inference import collect_trials
from isingfiber.models import IsingParams, gibbs_ising
from isingfiber.oracle import fiber_members
from isingfiber.sampler import (
    STEP_CACHE_ENTRIES,
    Draw,
    OffFiberError,
    SamplerConfig,
    _single_one_feasible,
    new_step_cache,
    replay_log_q,
    run_trial,
    uniform_rows,
)

from reference_step import PartialTable, branch_probabilities, reference_trial

CFG = SamplerConfig()


def P(rows, cols, prefix=()):
    return PartialTable.from_prefix(rows, cols, prefix)


def trial(rows, cols, stats, seed, config=CFG, step_cache=None):
    """run_trial on one generator draw of uniforms per cell."""
    uniforms = np.random.default_rng(seed).random(rows * cols)
    return run_trial(rows, cols, stats, config, uniforms, step_cache=step_cache)


class TestPartialTable:
    def test_counters_track_definitions(self):
        rng = np.random.default_rng(0)
        for _ in range(60):
            rows, cols = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            k = int(rng.integers(0, rows * cols + 1))
            values = [int(v) for v in rng.integers(0, 2, k)]
            state = P(rows, cols, values)
            from isingfiber.grid import topology

            topo = topology(rows, cols)
            det = [(a, b) for a, b in topo.edges if a < k and b < k]
            frontier = [
                (a, b) for a, b in topo.edges if (a < k) != (b < k)
            ]
            assert state.placed_ones == sum(values)
            assert state.discord == sum(values[a] != values[b] for a, b in det)
            assert state.det_edges == len(det)
            assert state.frontier_ones == sum(values[min(a, b)] for a, b in frontier)

    def test_place_validation(self):
        state = P(1, 1)
        with pytest.raises(ValueError):
            state.place(2)
        state.place(1)
        with pytest.raises(ValueError):
            state.place(0)


class TestFeasibleValues:
    """Which values a cell may take, seen through run_trial and replay_log_q."""

    def test_forced_all_ones(self):
        for u in (0.0, 0.5, 0.999):
            draw = run_trial(2, 2, SuffStats(4, 0), CFG, [u] * 4)
            assert draw == Draw.accept(BinaryTable(2, 2, (1, 1, 1, 1)), 0.0)

    def test_empty_fiber_screened_out(self):
        for u in (0.0, 0.5, 0.999):
            assert run_trial(2, 2, SuffStats(1, 3), CFG, [u] * 4) == Draw.reject(0)

    def test_both_values_possible(self):
        # the first cell's uniform decides; the second cell is then forced
        stats = SuffStats(1, 1)
        one = run_trial(1, 2, stats, CFG, [0.0, 0.5])
        zero = run_trial(1, 2, stats, CFG, [0.999999, 0.5])
        assert one.table.cells == (1, 0) and zero.table.cells == (0, 1)
        assert one.log_q < 0.0 and zero.log_q < 0.0

    def test_screens_are_sound_on_3x3(self, fibers_3x3):
        # a value leading to at least one completion is never excluded: a
        # member of the fiber that takes it replays through every screen
        rng = np.random.default_rng(4)
        keys = sorted(fibers_3x3, key=lambda s: (s.t1, s.t2))
        from isingfiber.oracle import exact_cell_bounds

        for _ in range(200):
            stats = keys[rng.integers(0, len(keys))]
            k = int(rng.integers(0, 9))
            prefix = tuple(int(v) for v in rng.integers(0, 2, k))
            exact = exact_cell_bounds(3, 3, stats, prefix, k)
            achievable = () if exact is None else tuple(sorted({exact[0], exact[1]}))
            for v in achievable:
                member = next(
                    m for m in fiber_members(3, 3, stats) if m.cells[: k + 1] == prefix + (v,)
                )
                assert math.isfinite(replay_log_q(member, stats, CFG)), (stats, prefix, v)


class TestProposeCell:
    """Branch probabilities and forced moves, seen through run_trial and replay_log_q."""

    def test_singleton_is_forced(self):
        # a forced move ignores its uniform and adds nothing to log_q
        for stats, rows, cols in ((SuffStats(4, 0), 2, 2), (SuffStats(0, 0), 3, 3)):
            for u in (0.0, 0.999):
                draw = run_trial(rows, cols, stats, CFG, [u] * (rows * cols))
                assert draw.accepted and draw.log_q == 0.0

    def test_no_ones_left_forces_zero(self):
        stats = SuffStats(1, 2)
        first = run_trial(2, 2, stats, CFG, [0.0, 0.0, 0.0, 0.0])
        assert first.table.cells == (1, 0, 0, 0)
        for rest in ((0.3, 0.6, 0.9), (0.999, 0.5, 0.0)):
            assert run_trial(2, 2, stats, CFG, [0.0, *rest]) == first
        assert replay_log_q(first.table, stats, CFG) == first.log_q

    def test_symmetric_first_cell_is_a_coin_flip(self):
        stats = SuffStats(2, 4)
        q = [math.exp(replay_log_q(BinaryTable(2, 2, cells), stats, CFG)) for cells in ((1, 0, 0, 1), (0, 1, 1, 0))]
        assert q[0] == pytest.approx(0.5)
        assert q[0] + q[1] == pytest.approx(1.0)

    def test_probabilities_normalized_and_positive(self, fibers_3x3):
        # q is positive on the fiber and its mass there is at most one
        for stats in list(fibers_3x3)[:20]:
            q = [math.exp(replay_log_q(m, stats, CFG)) for m in fiber_members(3, 3, stats)]
            assert min(q) > 0.0
            assert sum(q) <= 1.0 + 1e-12

    def test_empty_feasible_rejected(self, fibers_3x3):
        # with the screens on, no value passes at some cell of an empty fiber,
        # and the trial ends there, before the final check at cell 9
        empty = [
            SuffStats(a, b)
            for a in range(1, 9)
            for b in range(1, 13)
            if SuffStats(a, b) not in fibers_3x3
        ]
        assert empty
        for stats in empty:
            for seed in range(5):
                draw = trial(3, 3, stats, seed)
                assert not draw.accepted and draw.stage < 9, stats


class TestSampleTable:
    """Whole trials driven by a generator's uniforms."""

    def test_forced_fiber_gives_certain_table(self):
        draw = trial(2, 2, SuffStats(4, 0), 0)
        assert draw.accepted
        assert draw.table.cells == (1, 1, 1, 1)
        assert draw.log_q == 0.0

    def test_empty_fiber_always_rejects_at_stage_zero_or_one(self):
        for seed in range(10):
            draw = trial(2, 2, SuffStats(1, 3), seed)
            assert not draw.accepted
            assert draw.stage == 0

    def test_diagonal_fiber(self):
        seen = set()
        for seed in range(30):
            draw = trial(2, 2, SuffStats(2, 4), seed, step_cache={})
            assert draw.accepted
            seen.add(draw.table.cells)
        assert seen == {(1, 0, 0, 1), (0, 1, 1, 0)}

    def test_accepted_draws_hit_stats_exactly(self, fibers_3x3):
        for stats in list(fibers_3x3)[::5]:
            step_cache = {}
            for seed in range(40):
                draw = trial(3, 3, stats, (1, seed), step_cache=step_cache)
                if draw.accepted:
                    assert t1(draw.table) == stats.t1
                    assert t2(draw.table) == stats.t2

    def test_seed_determinism(self):
        # the same uniforms give the same draw, whether steps come from the
        # cache or are computed
        stats = SuffStats(3, 8)
        step_cache = {}
        draws = [trial(3, 3, stats, 77, step_cache=step_cache) for _ in range(2)]
        assert draws[0] == draws[1] == trial(3, 3, stats, 77)
        assert step_cache

    def test_validates_stats_range(self):
        with pytest.raises(ValueError):
            collect_trials(2, 2, SuffStats(5, 0), CFG, seed=0, n_trials=1)


def _reference_grids():
    """(rows, cols, stats, trials, step cache?) for the reference comparison."""
    grids = [(1, 5, SuffStats(2, 3), 300, True), (1, 5, SuffStats(2, 2), 300, True)]
    grids += [(3, 3, s, 150, True) for s in (SuffStats(3, 8), SuffStats(4, 10), SuffStats(5, 6))]
    grids += [(4, 4, s, 150, True) for s in (SuffStats(5, 6), SuffStats(6, 16))]
    for size, alpha, trials in ((6, -1.0, 200), (10, -2.0, 100), (20, -3.0, 40)):
        table = gibbs_ising(IsingParams(alpha, 0.1), size, size, rng=np.random.default_rng((99, 0)))
        grids.append((size, size, SuffStats.of(table), trials, False))
    return [
        pytest.param(*g, id=f"{g[0]}x{g[1]}-t{g[2].t1}-{g[2].t2}{'-cached' if g[4] else ''}")
        for g in grids
    ]


# name: (run_trial's config, whether the reference runs its endgame).
# "endgame-cells-0" checks endgame_cells=0 against the reference with its
# endgame on: the zone then reaches no cell but the last, which alone is
# decided by completable. "endgame-0-screens" runs the same config with the
# reference's screens on every cell, endgame included: the last cell's
# lookup must decide as the screens do there
REFERENCE_CONFIGS = {
    "default": (SamplerConfig(), True),
    "endgame-0-screens": (SamplerConfig(endgame_cells=0), False),
    "endgame-cells-0": (SamplerConfig(endgame_cells=0), True),
}


class TestReferenceStep:
    @pytest.mark.parametrize("config_name", sorted(REFERENCE_CONFIGS))
    @pytest.mark.parametrize("rows, cols, stats, trials, cached", _reference_grids())
    def test_run_trial_equals_reference(
        self, rows, cols, stats, trials, cached, config_name, lp_calls, row_tables, lookups
    ):
        # run_trial, with its caches, equals the plain per-cell loop Draw for
        # Draw; log_q is compared bit for bit
        config, endgame = REFERENCE_CONFIGS[config_name]
        uniforms = uniform_rows(rows * cols + trials, rows * cols, 0, trials)
        step_cache = {} if cached else None
        memo = {}  # one memo for all trials, as in a trial range
        accepted = 0
        for u in uniforms:
            draw = run_trial(rows, cols, stats, config, u, memo, step_cache=step_cache)
            expected = reference_trial(rows, cols, stats, config, u, endgame=endgame)
            assert draw == expected
            if draw.accepted:
                accepted += 1
                assert draw.log_q.hex() == expected.log_q.hex()
        assert accepted > 0
        assert not lp_calls  # the sampler solves no LP
        if config_name == "default" and 6 <= rows < 20:
            # the narrow endgame table is on the path compared
            assert lookups and not row_tables
        if rows == 20:
            # 20 columns: above the narrow table's width cap, so the last
            # row's cells are screened by row tables
            assert not lookups and row_tables

    @pytest.mark.parametrize("size, alpha, trials", [(10, -2.0, 60), (20, -3.0, 20)])
    def test_one_memo_serves_two_fibers_of_a_shape(self, size, alpha, trials):
        # a memo's terms depend on the cell and the ones to place only, so
        # one memo serves every (t1, t2) on the shape, trials interleaved
        n = size * size
        params = IsingParams(alpha, 0.1)
        fibers = [
            SuffStats.of(gibbs_ising(params, size, size, rng=np.random.default_rng((99, i))))
            for i in (0, 1)
        ]
        assert fibers[0] != fibers[1]
        memo = {}
        uniforms = uniform_rows(n + 7, n, 0, trials)
        for u in uniforms:
            for stats in fibers:
                draw = run_trial(size, size, stats, CFG, u, memo)
                expected = reference_trial(size, size, stats, CFG, u)
                assert draw == expected
                if draw.accepted:
                    assert draw.log_q.hex() == expected.log_q.hex()
        assert list(memo) == [(size, size)]


class TestBranchMemo:
    @staticmethod
    def gibbs_stats():
        """(t1, t2) of criterion 4's 20x20 table 4, the densest of the eight."""
        table = gibbs_ising(IsingParams(-3.0, 0.1), 20, 20, rng=np.random.default_rng((99, 4)))
        return SuffStats.of(table)

    def test_shared_fresh_and_absent_memos_agree(self):
        # the batch's trials share one memo; the benchmark's positional call
        # hands in a fresh {}, None makes a fresh memo, and the replays share
        # one of their own
        stats, n, seed = self.gibbs_stats(), 400, 31
        batch = collect_trials(20, 20, stats, CFG, seed, 40)
        assert batch.n_accepted
        replay_memo = {}
        for i in range(40):
            u = uniform_rows(seed, n, i, 1)[0]
            fresh = run_trial(20, 20, stats, CFG, u, {}, None)
            absent = run_trial(20, 20, stats, CFG, u)
            assert fresh == absent
            assert fresh.accepted == batch.accepted[i]
            if fresh.accepted:
                assert fresh.log_q.hex() == batch.log_q[i].hex()
                replayed = replay_log_q(fresh.table, stats, CFG, replay_memo)
                assert replayed.hex() == fresh.log_q.hex()
            else:
                assert fresh.stage == batch.stage[i]

    def test_memo_spares_the_logs(self, monkeypatch):
        # a step where both values pass calls log once, for the branch taken:
        # with the memo before the endgame, and in the row table's zone,
        # whose P[1] is a ratio of counts. Each memo entry costs four more:
        # log(var) for either value, log(mu) and log(1 - mu); the zone adds
        # none
        import isingfiber.inference as inference
        import isingfiber.sampler as sampler

        stats, n, seed, trials = self.gibbs_stats(), 400, 8, 30
        memos = []
        run = inference.run_trial

        def spy(*args, **kwargs):
            memos.append(args[5])
            return run(*args, **kwargs)

        calls = []
        monkeypatch.setattr(inference, "run_trial", spy)
        monkeypatch.setattr(sampler, "log", lambda x: calls.append(x) or math.log(x))
        collect_trials(20, 20, stats, CFG, seed, trials)
        monkeypatch.undo()

        assert len(memos) == trials and all(m is memos[0] for m in memos)
        entries = sum(len(cell) for cell in memos[0][20, 20])
        branch_cells = []
        for u in uniform_rows(seed, n, 0, trials):
            reference_trial(20, 20, stats, CFG, u, branch_cells)
        assert 0 < entries < len(branch_cells)
        assert any(idx >= n - 20 for idx in branch_cells)  # some in the zone
        assert len(calls) == len(branch_cells) + 4 * entries


class TestStepCache:
    @pytest.mark.parametrize("size, stats", [(3, SuffStats(4, 6)), (4, SuffStats(6, 16))])
    def test_hits_spare_the_logs(self, size, stats, monkeypatch):
        # an entry keeps the logs of both branch probabilities, so a second
        # pass over the same uniforms calls no log, and its log_q are those
        # of a run without the cache, bit for bit
        import isingfiber.sampler as sampler

        n, trials = size * size, 200
        uniforms = uniform_rows(n + 3, n, 0, trials)
        cold = [run_trial(size, size, stats, CFG, u, {}, None) for u in uniforms]
        cache = new_step_cache(size, size)
        memo = {}
        first = [run_trial(size, size, stats, CFG, u, memo, cache) for u in uniforms]
        calls = []
        monkeypatch.setattr(sampler, "log", lambda x: calls.append(x) or math.log(x))
        warm = [run_trial(size, size, stats, CFG, u, memo, cache) for u in uniforms]
        monkeypatch.undo()
        assert not calls
        assert cold == first == warm
        assert all(d.accepted for d in cold) and any(d.log_q < 0.0 for d in cold)
        assert [d.log_q.hex() for d in warm] == [d.log_q.hex() for d in cold]

    def test_entries_stop_at_the_bound(self, monkeypatch):
        # past 16 cells the prefixes keep growing: 20,000 trials on a 5x5
        # fiber reach about 200,000 of them. The cache stops taking entries
        # at STEP_CACHE_ENTRIES, and the outcome arrays are those of a run
        # without it
        import isingfiber.inference as inference

        caches = []

        def recorded(rows, cols):
            caches.append(new_step_cache(rows, cols))
            return caches[-1]

        monkeypatch.setattr(inference, "new_step_cache", recorded)
        stats = SuffStats(12, 20)
        cached = collect_trials(5, 5, stats, CFG, seed=3, n_trials=20_000)
        monkeypatch.setattr(inference, "new_step_cache", lambda r, c: None)
        cold = collect_trials(5, 5, stats, CFG, seed=3, n_trials=20_000)
        assert len(caches[0]) == STEP_CACHE_ENTRIES and cold.n_accepted > 0
        for name in ("accepted", "log_q", "stage", "stat_u", "stat_uprime"):
            assert getattr(cached, name).tobytes() == getattr(cold, name).tobytes(), name


class TestSingleOne:
    @pytest.mark.parametrize("rows, cols", [(1, 7), (3, 3), (4, 5), (6, 7), (2, 12), (9, 4)])
    def test_band_and_degree_counts_match_the_full_scan(self, rows, cols):
        # the sampler's check against the reference's scan over every free
        # cell, on random determined prefixes, both values and every budget
        from reference_step import single_one_feasible

        topo = topology(rows, cols)
        rng = np.random.default_rng(rows * 100 + cols)
        seen = set()
        for _ in range(6):
            cells = [int(v) for v in rng.random(topo.n_cells) < 0.4]
            for idx in range(topo.n_cells - 1):
                for v in (0, 1):
                    for f1_after in (0, 3, 7):
                        for r2p in range(-1, 10):
                            expected = single_one_feasible(topo, cells, idx, v, f1_after, r2p)
                            got = _single_one_feasible(topo, cells, idx, v, f1_after, r2p)
                            assert got == expected, (idx, v, f1_after, r2p)
                            seen.add(expected)
        assert seen == {True, False}

    @pytest.mark.parametrize("stats", [SuffStats(2, 3), SuffStats(2, 4)])
    def test_check_runs_with_more_than_128_cells_after(self, stats, monkeypatch):
        # on 3x60 with two ones, the check for the last one runs at cells
        # that more than 128 cells follow, passes and fails there, and
        # run_trial equals the reference, which scans every free cell
        import isingfiber.sampler as sampler

        far = set()  # the check's verdicts where more than 128 cells follow
        check = sampler._single_one_feasible

        def recorded(topo, cells, idx, *args):
            ok = check(topo, cells, idx, *args)
            if topo.n_cells - idx - 1 > 128:
                far.add(ok)
            return ok

        monkeypatch.setattr(sampler, "_single_one_feasible", recorded)
        accepted = 0
        for u in uniform_rows(60 + stats.t2, 180, 0, 30):
            draw = run_trial(3, 60, stats, CFG, u)
            expected = reference_trial(3, 60, stats, CFG, u)
            assert draw == expected
            if draw.accepted:
                accepted += 1
                assert draw.log_q.hex() == expected.log_q.hex()
        assert accepted and far == {True, False}


class TestSupport:
    def test_every_3x3_fiber_member_reachable(self, fibers_3x3):
        memo = {}  # replays of one shape share a memo
        for stats in fibers_3x3:
            for member in fiber_members(3, 3, stats):
                assert math.isfinite(replay_log_q(member, stats, CFG, memo))

    @pytest.mark.parametrize("stats", [SuffStats(5, 6), SuffStats(4, 12), SuffStats(6, 16)])
    def test_4x4_fiber_members_reachable(self, stats):
        memo = {}
        for member in fiber_members(4, 4, stats):
            assert math.isfinite(replay_log_q(member, stats, CFG, memo))

    def test_support_at_endgame_cells_0(self):
        stats = SuffStats(3, 8)
        cfg = SamplerConfig(endgame_cells=0)
        memo = {}
        for member in fiber_members(3, 3, stats):
            assert math.isfinite(replay_log_q(member, stats, cfg, memo))

    def test_replay_names_the_first_cell_it_cannot_follow(self, monkeypatch):
        # with an unsound single-one screen patched in, value 0 at cell 0 is
        # excluded: (0, 0, 1) is drawn as (1, 0, 0), and (0, 1, 0) is
        # rejected. The screen runs outside the endgame, so --endgame-cells 0.
        import isingfiber.sampler as sampler

        monkeypatch.setattr(sampler, "_single_one_feasible", lambda *args: False)
        cfg = SamplerConfig(endgame_cells=0)
        with pytest.raises(OffFiberError, match="value 0 at cell 0 is outside"):
            replay_log_q(BinaryTable(1, 3, (0, 0, 1)), SuffStats(1, 1), cfg)
        with pytest.raises(OffFiberError, match="rejects the table at cell 0"):
            replay_log_q(BinaryTable(1, 3, (0, 1, 0)), SuffStats(1, 2), cfg)

    def test_replay_rejects_off_fiber_table(self):
        with pytest.raises(OffFiberError):
            replay_log_q(BinaryTable(2, 2, (1, 1, 0, 0)), SuffStats(1, 2), CFG)


class TestReplayEquality:
    @pytest.mark.parametrize("config", [SamplerConfig(), SamplerConfig(endgame_cells=0)])
    def test_replay_matches_draw_bit_for_bit(self, config, fibers_3x3):
        memo = {}  # replays of one shape share a memo
        for stats in list(fibers_3x3)[::6]:
            step_cache = {}
            uniforms = uniform_rows(99, 9, 0, 120)
            for i in range(120):
                draw = run_trial(3, 3, stats, config, uniforms[i], step_cache=step_cache)
                if draw.accepted:
                    assert replay_log_q(draw.table, stats, config, memo) == draw.log_q

    def test_replay_of_forced_path_is_zero(self):
        table = BinaryTable(2, 2, (1, 1, 1, 1))
        assert replay_log_q(table, SuffStats(4, 0), CFG) == 0.0

    def test_1x2_first_cell_probability(self):
        # log_q of (1, 0) is the first-cell branch probability; the second is forced
        stats = SuffStats(1, 1)
        p0, p1 = branch_probabilities(P(1, 2), stats, CFG)  # the reference step's
        assert replay_log_q(BinaryTable(1, 2, (1, 0)), stats, CFG) == math.log(p1)
        assert replay_log_q(BinaryTable(1, 2, (0, 1)), stats, CFG) == math.log(p0)


class TestTrialStreams:
    def test_uniform_rows_match_master_stream(self):
        master = np.random.Generator(np.random.PCG64(123)).random((40, 9))
        for start, count in ((0, 5), (7, 3), (39, 1)):
            block = uniform_rows(123, 9, start, count)
            assert np.array_equal(block, master[start : start + count])

    def test_chunking_invariance(self):
        whole = uniform_rows(5, 12, 0, 20)
        parts = np.vstack([uniform_rows(5, 12, 0, 7), uniform_rows(5, 12, 7, 13)])
        assert np.array_equal(whole, parts)

    def test_run_trial_consumes_by_cell_position(self):
        # the trial outcome is a function of the per-cell uniforms only
        stats = SuffStats(3, 8)
        uniforms = uniform_rows(3, 9, 0, 1)[0]
        a = run_trial(3, 3, stats, CFG, uniforms)
        b = run_trial(3, 3, stats, CFG, uniforms.copy())
        assert a == b


class TestLPPruningNeutrality:
    def test_lp_only_removes_offfiber_continuations(self, fibers_3x3):
        # estimates with and without LP agree within Monte-Carlo error
        from isingfiber.inference import collect_trials, report_from_batch
        from isingfiber.oracle import enumerate_fiber, exact_pvalues

        stats = SuffStats(4, 10)
        summary = enumerate_fiber(3, 3, stats)
        exact_p1, exact_p2 = exact_pvalues(summary, 1)
        for cfg in (SamplerConfig(), SamplerConfig(endgame_cells=0)):
            batch = collect_trials(3, 3, stats, cfg, seed=21, n_trials=6000)
            report = report_from_batch(batch, "u", 1)
            assert report.p1 == pytest.approx(exact_p1, abs=0.02)
            assert report.p2 == pytest.approx(exact_p2, abs=0.02)

