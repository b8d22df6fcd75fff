import math

import numpy as np
import pytest

from isingfiber.grid import BinaryTable, SuffStats, t1, t2
from isingfiber.oracle import fiber_members, nonempty_fibers
from isingfiber.sampler import (
    Draw,
    OffFiberError,
    PartialTable,
    SamplerConfig,
    branch_probabilities,
    feasible_values,
    propose_cell,
    replay_log_q,
    run_trial,
    sample_table,
    uniform_rows,
)

CFG = SamplerConfig()


def P(rows, cols, prefix=()):
    return PartialTable.from_prefix(rows, cols, prefix)


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

    def test_copy_is_independent(self):
        state = P(2, 2, (1,))
        other = state.copy()
        other.place(0)
        assert state.next_index == 1 and other.next_index == 2


class TestFeasibleValues:
    def test_forced_all_ones(self):
        assert feasible_values(P(2, 2), SuffStats(4, 0), CFG) == (1,)

    def test_empty_fiber_screened_out(self):
        assert feasible_values(P(2, 2), SuffStats(1, 3), CFG) == ()

    def test_both_values_possible(self):
        assert feasible_values(P(1, 2), SuffStats(1, 1), CFG) == (0, 1)

    def test_no_unknown_cell(self):
        with pytest.raises(ValueError):
            feasible_values(P(1, 1, (1,)), SuffStats(1, 0), CFG)

    def test_screens_are_sound_on_3x3(self, fibers_3x3):
        # a value leading to at least one completion is never excluded
        rng = np.random.default_rng(4)
        keys = sorted(fibers_3x3, key=lambda s: (s.t1, s.t2))
        from isingfiber.oracle import exact_cell_bounds

        for _ in range(200):
            stats = keys[rng.integers(0, len(keys))]
            k = int(rng.integers(0, 9))
            prefix = tuple(int(v) for v in rng.integers(0, 2, k))
            feas = feasible_values(P(3, 3, prefix), stats, CFG)
            exact = exact_cell_bounds(3, 3, stats, prefix, k)
            achievable = () if exact is None else tuple(sorted({exact[0], exact[1]}))
            for v in achievable:
                assert v in feas, (stats, prefix, v)

    def test_naive_mode_keeps_only_counting(self):
        cfg = SamplerConfig(naive_proposal=True)
        assert feasible_values(P(2, 2), SuffStats(1, 3), cfg) == (0, 1)


class TestProposeCell:
    def test_singleton_is_forced(self):
        rng = np.random.default_rng(0)
        assert propose_cell(P(2, 2), SuffStats(4, 0), CFG, (1,), rng) == (1, 1.0)

    def test_no_ones_left_forces_zero(self):
        state = P(2, 2, (1,))
        feas = feasible_values(state, SuffStats(1, 2), CFG)
        assert feas == (0,)
        assert propose_cell(state, SuffStats(1, 2), CFG, feas, np.random.default_rng(0)) == (0, 1.0)

    def test_symmetric_first_cell_is_a_coin_flip(self):
        p0, p1 = branch_probabilities(P(2, 2), SuffStats(2, 4), CFG)
        assert p1 == pytest.approx(0.5)
        assert p0 + p1 == pytest.approx(1.0)

    def test_probabilities_normalized_and_positive(self, fibers_3x3):
        rng = np.random.default_rng(9)
        for stats in list(fibers_3x3)[:20]:
            state = P(3, 3)
            for _ in range(9):
                feas = feasible_values(state, stats, CFG)
                if not feas:
                    break
                v, p = propose_cell(state, stats, CFG, feas, rng)
                assert 0.0 < p <= 1.0
                if len(feas) == 2:
                    p0, p1 = branch_probabilities(state, stats, CFG)
                    assert p0 + p1 == pytest.approx(1.0)
                    assert p0 > 0 and p1 > 0
                state.place(v)

    def test_empty_feasible_rejected(self):
        with pytest.raises(ValueError):
            propose_cell(P(2, 2), SuffStats(1, 2), CFG, (), np.random.default_rng(0))


class TestSampleTable:
    def test_forced_fiber_gives_certain_table(self):
        draw = sample_table(SuffStats(4, 0), 2, 2, CFG, np.random.default_rng(0))
        assert draw.accepted
        assert draw.table.cells == (1, 1, 1, 1)
        assert draw.log_q == 0.0

    def test_empty_fiber_always_rejects_at_stage_zero_or_one(self):
        for seed in range(10):
            draw = sample_table(SuffStats(1, 3), 2, 2, CFG, np.random.default_rng(seed))
            assert not draw.accepted
            assert draw.stage == 0

    def test_diagonal_fiber(self):
        seen = set()
        cache = {}
        for seed in range(30):
            draw = sample_table(SuffStats(2, 4), 2, 2, CFG, np.random.default_rng(seed), cache)
            assert draw.accepted
            seen.add(draw.table.cells)
        assert seen == {(1, 0, 0, 1), (0, 1, 1, 0)}

    def test_accepted_draws_hit_stats_exactly(self, fibers_3x3):
        for stats in list(fibers_3x3)[::5]:
            cache = {}
            for seed in range(40):
                draw = sample_table(stats, 3, 3, CFG, np.random.default_rng((1, seed)), cache)
                if draw.accepted:
                    assert t1(draw.table) == stats.t1
                    assert t2(draw.table) == stats.t2

    def test_seed_determinism(self):
        stats = SuffStats(3, 8)
        draws = [
            sample_table(stats, 3, 3, CFG, np.random.default_rng(77)) for _ in range(2)
        ]
        assert draws[0] == draws[1]

    def test_naive_mode_rejects_only_at_completion(self):
        cfg = SamplerConfig(naive_proposal=True)
        stats = SuffStats(3, 8)
        stages = set()
        for seed in range(200):
            draw = sample_table(stats, 3, 3, cfg, np.random.default_rng(seed))
            if not draw.accepted:
                stages.add(draw.stage)
        assert stages <= {9}

    def test_validates_stats_range(self):
        with pytest.raises(ValueError):
            sample_table(SuffStats(5, 0), 2, 2, CFG, np.random.default_rng(0))


class TestSupport:
    def test_every_3x3_fiber_member_reachable(self, fibers_3x3):
        for stats in fibers_3x3:
            cache = {}
            for member in fiber_members(3, 3, stats):
                assert math.isfinite(replay_log_q(member, stats, CFG, cache))

    @pytest.mark.parametrize("stats", [SuffStats(5, 6), SuffStats(4, 12), SuffStats(6, 16)])
    def test_4x4_fiber_members_reachable(self, stats):
        cache = {}
        for member in fiber_members(4, 4, stats):
            assert math.isfinite(replay_log_q(member, stats, CFG, cache))

    def test_support_without_lp_and_naive(self):
        stats = SuffStats(3, 8)
        for cfg in (SamplerConfig(lp_enabled=False), SamplerConfig(naive_proposal=True)):
            for member in fiber_members(3, 3, stats):
                assert math.isfinite(replay_log_q(member, stats, cfg))

    def test_replay_rejects_off_fiber_table(self):
        with pytest.raises(OffFiberError):
            replay_log_q(BinaryTable(2, 2, (1, 1, 0, 0)), SuffStats(1, 2), CFG)


class TestReplayEquality:
    @pytest.mark.parametrize(
        "config",
        [SamplerConfig(), SamplerConfig(lp_enabled=False), SamplerConfig(naive_proposal=True)],
    )
    def test_replay_matches_draw_bit_for_bit(self, config, fibers_3x3):
        for stats in list(fibers_3x3)[::6]:
            lp_cache = {}
            step_cache = {}
            uniforms = uniform_rows(99, 9, 0, 120)
            for i in range(120):
                draw = run_trial(3, 3, stats, config, uniforms[i], lp_cache, step_cache)
                if draw.accepted:
                    assert replay_log_q(draw.table, stats, config, lp_cache) == draw.log_q

    def test_replay_of_forced_path_is_zero(self):
        table = BinaryTable(2, 2, (1, 1, 1, 1))
        assert replay_log_q(table, SuffStats(4, 0), CFG) == 0.0

    def test_1x2_first_cell_probability(self):
        # log_q of (1, 0) is the first-cell branch probability; the second is forced
        stats = SuffStats(1, 1)
        p0, p1 = branch_probabilities(P(1, 2), stats, CFG)
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
        for cfg in (SamplerConfig(), SamplerConfig(lp_enabled=False)):
            batch = collect_trials(3, 3, stats, cfg, seed=21, n_trials=6000)
            report = report_from_batch(batch, "u", 1)
            assert report.p1 == pytest.approx(exact_p1, abs=0.02)
            assert report.p2 == pytest.approx(exact_p2, abs=0.02)


class TestLPCacheKey:
    @pytest.mark.parametrize("rows, cols", [(4, 4), (6, 6)])
    def test_cached_and_uncached_trials_agree(self, rows, cols, monkeypatch):
        # the LP cache key (k, window, r1, r2) is complete: reusing a cached
        # verdict never changes a trial
        import isingfiber.sampler as sampler

        calls = []
        solve = sampler.state_lp_feasible
        monkeypatch.setattr(sampler, "state_lp_feasible", lambda *key: calls.append(key) or solve(*key))
        rng = np.random.default_rng(rows * cols)
        n = rows * cols
        cached_calls = uncached_calls = 0
        for seed in range(4):
            cells = tuple(int(v) for v in rng.random(n) < 0.3)
            stats = SuffStats.of(BinaryTable(rows, cols, cells))
            uniforms = uniform_rows(seed, n, 0, 60)
            lp_cache = {}
            for i in range(60):
                calls.clear()
                cached = run_trial(rows, cols, stats, CFG, uniforms[i], lp_cache)
                cached_calls += len(calls)
                calls.clear()
                assert run_trial(rows, cols, stats, CFG, uniforms[i], None) == cached
                uncached_calls += len(calls)
        assert 0 < cached_calls < uncached_calls
