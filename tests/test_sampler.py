import math

import numpy as np
import pytest

from isingfiber.grid import BinaryTable, SuffStats, t1, t2
from isingfiber.inference import collect_trials
from isingfiber.models import IsingParams, gibbs_ising
from isingfiber.oracle import fiber_members
from isingfiber.sampler import (
    Draw,
    OffFiberError,
    PartialTable,
    SamplerConfig,
    replay_log_q,
    run_trial,
    uniform_rows,
)

from reference_step import branch_probabilities, reference_trial

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

    def test_copy_is_independent(self):
        state = P(2, 2, (1,))
        other = state.copy()
        other.place(0)
        assert state.next_index == 1 and other.next_index == 2


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

    def test_naive_mode_keeps_only_counting(self):
        # the empty fiber (1, 3) passes counting at every cell, so naive
        # trials run to the final check
        cfg = SamplerConfig(naive_proposal=True)
        for seed in range(20):
            assert trial(2, 2, SuffStats(1, 3), seed, cfg) == Draw.reject(4)


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

    def test_naive_mode_rejects_only_at_completion(self):
        cfg = SamplerConfig(naive_proposal=True)
        stats = SuffStats(3, 8)
        stages = set()
        for seed in range(200):
            draw = trial(3, 3, stats, seed, cfg)
            if not draw.accepted:
                stages.add(draw.stage)
        assert stages <= {9}

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


REFERENCE_CONFIGS = {
    "default": SamplerConfig(),
    "naive": SamplerConfig(naive_proposal=True),
    "no-lp": SamplerConfig(lp_enabled=False),
    "lp-cells-0": SamplerConfig(lp_cell_threshold=0),
}


class _CountedLevel:
    """An endgame level that records each lookup."""

    def __init__(self, level, lookups):
        self.level, self.lookups = level, lookups

    def __getitem__(self, index):
        self.lookups.append(index)
        return self.level[index]


def count_endgame_lookups(monkeypatch):
    """Route run_trial's endgame tables through _CountedLevel; returns the
    list the lookups go to."""
    import isingfiber.sampler as sampler

    lookups = []
    table_of = sampler.endgame_table

    def counted(*args):
        levels = table_of(*args)
        if levels is None:
            return None
        return tuple(None if lv is None else _CountedLevel(lv, lookups) for lv in levels)

    monkeypatch.setattr(sampler, "endgame_table", counted)
    return lookups


class TestReferenceStep:
    @pytest.mark.parametrize("config_name", sorted(REFERENCE_CONFIGS))
    @pytest.mark.parametrize("rows, cols, stats, trials, cached", _reference_grids())
    def test_run_trial_equals_reference(
        self, rows, cols, stats, trials, cached, config_name, monkeypatch, lp_calls, row_tables
    ):
        # run_trial, with its caches, equals the plain per-cell loop Draw for
        # Draw; log_q is compared bit for bit
        lookups = count_endgame_lookups(monkeypatch)
        config = REFERENCE_CONFIGS[config_name]
        uniforms = uniform_rows(rows * cols + trials, rows * cols, 0, trials)
        step_cache = {} if cached else None
        accepted = 0
        for u in uniforms:
            draw = run_trial(rows, cols, stats, config, u, step_cache=step_cache)
            expected = reference_trial(rows, cols, stats, config, u)
            assert draw == expected
            if draw.accepted:
                accepted += 1
                assert draw.log_q.hex() == expected.log_q.hex()
        # naive trials on large grids almost never land on the fiber
        assert accepted > 0 or (config_name == "naive" and rows * cols > 25)
        assert not lp_calls  # the sampler solves no LP
        if config_name == "default" and 6 <= rows < 20:
            # the narrow endgame table is on the path compared
            assert lookups and not row_tables
        if rows == 20:
            # 20 columns: above the narrow table's width cap, so the last
            # row's cells are screened by row tables
            assert not lookups
            assert bool(row_tables) == (config_name in ("default", "lp-cells-0"))


class TestSupport:
    def test_every_3x3_fiber_member_reachable(self, fibers_3x3):
        for stats in fibers_3x3:
            for member in fiber_members(3, 3, stats):
                assert math.isfinite(replay_log_q(member, stats, CFG))

    @pytest.mark.parametrize("stats", [SuffStats(5, 6), SuffStats(4, 12), SuffStats(6, 16)])
    def test_4x4_fiber_members_reachable(self, stats):
        for member in fiber_members(4, 4, stats):
            assert math.isfinite(replay_log_q(member, stats, CFG))

    def test_support_without_lp_and_naive(self):
        stats = SuffStats(3, 8)
        for cfg in (SamplerConfig(lp_enabled=False), SamplerConfig(naive_proposal=True)):
            for member in fiber_members(3, 3, stats):
                assert math.isfinite(replay_log_q(member, stats, cfg))

    def test_replay_names_the_first_cell_it_cannot_follow(self, monkeypatch):
        # with an unsound single-one screen patched in, value 0 at cell 0 is
        # excluded: (0, 0, 1) is drawn as (1, 0, 0), and (0, 1, 0) is
        # rejected. The screen runs without the endgame table, so --no-lp.
        import isingfiber.sampler as sampler

        monkeypatch.setattr(sampler, "_single_one_feasible", lambda *args: False)
        cfg = SamplerConfig(lp_enabled=False)
        with pytest.raises(OffFiberError, match="value 0 at cell 0 is outside"):
            replay_log_q(BinaryTable(1, 3, (0, 0, 1)), SuffStats(1, 1), cfg)
        with pytest.raises(OffFiberError, match="rejects the table at cell 0"):
            replay_log_q(BinaryTable(1, 3, (0, 1, 0)), SuffStats(1, 2), cfg)

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
            step_cache = {}
            uniforms = uniform_rows(99, 9, 0, 120)
            for i in range(120):
                draw = run_trial(3, 3, stats, config, uniforms[i], step_cache=step_cache)
                if draw.accepted:
                    assert replay_log_q(draw.table, stats, config) == draw.log_q

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
        for cfg in (SamplerConfig(), SamplerConfig(lp_enabled=False)):
            batch = collect_trials(3, 3, stats, cfg, seed=21, n_trials=6000)
            report = report_from_batch(batch, "u", 1)
            assert report.p1 == pytest.approx(exact_p1, abs=0.02)
            assert report.p2 == pytest.approx(exact_p2, abs=0.02)

