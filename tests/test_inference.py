import concurrent.futures
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from isingfiber import inference
from isingfiber.grid import BinaryTable, SuffStats, window_stats
from isingfiber.inference import (
    EmptyFiberSampleError,
    TestReport,
    _cv2_arrays,
    _fiber_size_arrays,
    _pvalues_arrays,
    _shifted_raw,
    collect_trials,
    ess,
    report_from_batch,
    run_exact_test,
)
from isingfiber.models import IsingParams, gibbs_ising
from isingfiber.sampler import Draw, SamplerConfig, run_trial, uniform_rows

from conftest import naive_u, naive_u_prime


def arrays(*log_q):
    """(accepted, log_q) outcome arrays of a batch; None marks a rejected trial."""
    accepted = np.array([v is not None for v in log_q], dtype=bool)
    return accepted, np.array([np.nan if v is None else v for v in log_q])


def shifted(*log_q):
    """_shifted_raw's (shifted raw weights, shift) of the outcome arrays."""
    return _shifted_raw(*arrays(*log_q))


def weights(*log_q):
    """The standardized weights: the shifted raw weights over their sum."""
    s, _ = shifted(*log_q)
    return s / s.sum()


def pvalues(log_q, stat_values, observed):
    accepted, log_q = arrays(*log_q)
    s, _ = _shifted_raw(accepted, log_q)
    return _pvalues_arrays(s, accepted, np.asarray(stat_values), observed)


def cv2(*log_q):
    return _cv2_arrays(shifted(*log_q)[0])


def fiber_size(*log_q, n_cells=9):
    return _fiber_size_arrays(*shifted(*log_q), n_cells)


class TestStandardizedWeights:
    def test_equal_weights(self):
        w = weights(0.0, 0.0)
        assert np.array_equal(w, [0.5, 0.5])

    def test_rejection_gets_zero(self):
        w = weights(0.0, None, 0.0)
        assert np.array_equal(w, [0.5, 0.0, 0.5])

    def test_unequal_weights(self):
        w = weights(math.log(0.25), math.log(0.5))
        assert w[0] == pytest.approx(2 / 3)
        assert w[1] == pytest.approx(1 / 3)

    def test_empty_sample(self):
        with pytest.raises(EmptyFiberSampleError, match="empty fiber sample"):
            weights(None, None)

    def test_sum_to_one(self):
        rng = np.random.default_rng(0)
        log_q = [float(-rng.exponential(5)) if rng.random() < 0.7 else None for _ in range(500)]
        if all(v is None for v in log_q):
            log_q.append(-1.0)
        assert weights(*log_q).sum() == pytest.approx(1.0)


class TestPvalues:
    def test_three_equal_draws(self):
        p1, p2 = pvalues([0.0] * 3, [0, 1, 2], 1)
        assert p1 == pytest.approx(1 / 3)
        assert p2 == pytest.approx(2 / 3)

    def test_all_ties(self):
        p1, p2 = pvalues([0.0] * 4, [3, 3, 3, 3], 3)
        assert p1 == 0.0
        assert p2 == pytest.approx(1.0)

    def test_p2_minus_p1_is_tie_mass(self):
        rng = np.random.default_rng(1)
        log_q = [float(-rng.exponential()) for _ in range(200)]
        stats = rng.integers(0, 4, 200)
        w = weights(*log_q)
        p1, p2 = pvalues(log_q, stats, 2)
        assert p1 <= p2
        assert p2 - p1 == pytest.approx(float(w[stats == 2].sum()), abs=1e-12)

    def test_p2_is_one_when_no_draw_lies_below(self):
        # no table of these 3x3 fibers has u < 0, so the exact p2 is 1; summing
        # normalized weights above and at the observed value gave 1 - 2**-52
        for stats, seed in ((SuffStats(1, 4), 0), (SuffStats(1, 2), 1), (SuffStats(2, 4), 1)):
            batch = collect_trials(3, 3, stats, SamplerConfig(), seed=seed, n_trials=200)
            report = report_from_batch(batch, "u", 0)
            assert report.p2 == 1.0
            assert report.p1 <= report.p2

    def test_p1_is_one_when_every_draw_lies_above(self):
        # the smallest u on the 3x3 fiber (4, 10) is 3, so observed u = 2 puts
        # the whole mass above; summing normalized weights gave 1 - 2**-52
        batch = collect_trials(3, 3, SuffStats(4, 10), SamplerConfig(), seed=2, n_trials=200)
        assert (batch.stat_for_accepted("u") > 2).all()
        report = report_from_batch(batch, "u", 2)
        assert report.p1 == 1.0
        assert report.p2 == 1.0


class TestCv2AndEss:
    def test_constant_weights(self):
        assert cv2(*[math.log(0.5)] * 4) == pytest.approx(0.0)

    def test_one_three_example(self):
        # raw weights (1, 3): mean 2, sample variance 2, cv2 = 0.5
        assert cv2(0.0, math.log(1 / 3)) == pytest.approx(0.5)

    def test_all_zero_error(self):
        with pytest.raises(EmptyFiberSampleError):
            cv2(None, None)

    def test_ess_examples(self):
        assert ess(5000, 0.0) == 5000.0
        assert ess(1, 3.0) == 0.25
        # published diagnostic row: ESS 235.6 at 5000 trials implies cv2 about 20.22
        implied_cv2 = 5000 / 235.6 - 1
        assert ess(5000, implied_cv2) == pytest.approx(235.6)
        assert implied_cv2 == pytest.approx(20.22, abs=0.01)

    def test_ess_validation(self):
        with pytest.raises(ValueError):
            ess(0, 1.0)
        with pytest.raises(ValueError):
            ess(10, -0.5)


class TestFiberSize:
    def test_constant_quarter_proposal(self):
        est, se, _, _ = fiber_size(*[math.log(0.25)] * 8)
        assert est == pytest.approx(4.0)
        assert se == pytest.approx(0.0, abs=1e-12)

    def test_all_rejected(self):
        with pytest.raises(EmptyFiberSampleError):
            fiber_size(None, None)

    def test_mix(self):
        est, se, _, _ = fiber_size(math.log(0.5), None)
        assert est == pytest.approx(1.0)  # mean of (2, 0)
        assert se == pytest.approx(np.std([2.0, 0.0], ddof=1) / math.sqrt(2))

    def test_huge_logq_does_not_overflow(self):
        # the se's rounding floor overflows with the estimate; the logs stay finite
        est, se, log_est, log_se = fiber_size(-800.0, -800.0)
        assert est == math.inf and se == math.inf
        assert log_est == 800.0 and 0.0 < log_se < 1e-10

    @pytest.mark.parametrize("size", [3, 10, 127, 4871, 20_000])
    def test_equal_weights_get_a_rounding_floor(self, size):
        # every trial uniform over the fiber gives log_q = -log N, and
        # exp(log N) != N: the se must cover that rounding, not read 0
        assert math.exp(math.log(size)) != size
        for n_cells in (9, 16):
            est, se, _, log_se = fiber_size(*[-math.log(size)] * 50, n_cells=n_cells)
            assert est != size and 0.0 < abs(est - size) <= se < 1e-11 * size
            assert log_se == pytest.approx(se / est)

    def test_floor_leaves_a_larger_monte_carlo_se_alone(self):
        rng = np.random.default_rng(4)
        log_q = [float(-rng.exponential(2.0)) for _ in range(200)]
        s, shift = shifted(*log_q)
        est, se, log_est, log_se = _fiber_size_arrays(s, shift, 9)
        log_mc = shift + math.log(float(s.std(ddof=1))) - 0.5 * math.log(s.size)
        assert se == math.exp(log_mc)
        assert log_se == math.exp(log_mc - log_est)


class TestLogSpaceSafety:
    def test_invariance_to_common_scaling(self):
        # scaling every raw weight by exp(250) leaves the normalized quantities
        # unchanged up to floating rounding of the shifted inputs
        rng = np.random.default_rng(2)
        logqs = [float(-rng.exponential(3)) for _ in range(100)]
        shifted_logqs = [lq - 250.0 for lq in logqs]
        assert np.allclose(weights(*logqs), weights(*shifted_logqs), rtol=1e-12, atol=0)
        assert cv2(*logqs) == pytest.approx(cv2(*shifted_logqs), rel=1e-10)
        p = pvalues(logqs, range(100), 50)
        ps = pvalues(shifted_logqs, range(100), 50)
        assert p[0] == pytest.approx(ps[0], rel=1e-10)
        assert p[1] == pytest.approx(ps[1], rel=1e-10)


class TestWindowStats:
    @pytest.mark.parametrize("rows, cols", [(1, 1), (1, 6), (6, 1), (2, 2), (3, 5), (7, 4)])
    def test_equals_the_table_by_table_counts(self, rows, cols):
        rng = np.random.default_rng(rows * 10 + cols)
        cells = (rng.random((200, rows, cols)) < rng.uniform(0.2, 0.8, (200, 1, 1))).astype(np.int8)
        u, uprime = window_stats(cells)
        for x, got_u, got_up in zip(cells, u, uprime):
            table = x.tolist()
            assert (got_u, got_up) == (naive_u(table), naive_u_prime(table))

    def test_batch_statistics_of_accepted_trials(self):
        # without the endgame screen some trials reject, across three blocks
        stats, cfg = SuffStats(5, 6), SamplerConfig(endgame_cells=0)
        batch = collect_trials(4, 4, stats, cfg, seed=3, n_trials=600)
        assert 0 < batch.n_accepted < 600
        assert (batch.stat_u[~batch.accepted] == -1).all()
        assert (batch.stat_uprime[~batch.accepted] == -1).all()
        # each accepted trial's statistics equal the naive counts of its table
        uniforms = uniform_rows(3, 16, 0, 600)
        for i in np.flatnonzero(batch.accepted)[::3]:
            table = run_trial(4, 4, stats, cfg, uniforms[i]).table.to_rows()
            assert batch.stat_u[i] == naive_u(table)
            assert batch.stat_uprime[i] == naive_u_prime(table)


class TestBatchDriver:
    def test_collect_matches_fiber(self):
        stats = SuffStats(3, 8)
        batch = collect_trials(3, 3, stats, SamplerConfig(), seed=3, n_trials=500)
        assert batch.n_trials == 500
        assert 0 < batch.n_accepted <= 500
        acc = batch.accepted
        assert (batch.stat_u[acc] >= 0).all()
        assert (batch.stage[~acc] >= 0).all()
        assert np.isfinite(batch.log_q[acc]).all()

    def test_the_trial_loop_builds_no_table(self, monkeypatch):
        # a Draw carries its cells, and the batch reads them: no BinaryTable
        # is made per trial, on a 3x3 fiber or on criterion 4's 20x20 table 0.
        # An accepted Draw's table is built when read
        ising = gibbs_ising(IsingParams(-3.0, 0.1), 20, 20, rng=np.random.default_rng((99, 0)))
        shapes = [(3, 3, SuffStats(4, 6), 300), (20, 20, SuffStats.of(ising), 12)]
        built = []
        post_init = BinaryTable.__post_init__
        monkeypatch.setattr(
            BinaryTable, "__post_init__", lambda self: built.append(self) or post_init(self)
        )
        for rows, cols, stats, trials in shapes:
            assert collect_trials(rows, cols, stats, SamplerConfig(), 4, trials).n_accepted
        assert not built
        for rows, cols, stats, _ in shapes:
            u = uniform_rows(4, rows * cols, 0, 1)[0]
            draw = run_trial(rows, cols, stats, SamplerConfig(), u)
            assert draw.accepted and not built
            assert draw.table == BinaryTable(rows, cols, draw.cells) and len(built) == 2
            assert draw.table.cells is draw.cells
            built.clear()
        monkeypatch.undo()
        forced = run_trial(2, 2, SuffStats(4, 0), SamplerConfig(), [0.5] * 4)
        assert forced == Draw.accept(BinaryTable(2, 2, (1, 1, 1, 1)), 0.0)
        assert Draw.reject(3) == Draw.reject(3) != Draw.reject(4)
        assert Draw.reject(3).table is None and not Draw.reject(3).accepted

    def test_a_block_of_wide_trials_keeps_its_memory(self):
        # a block's accepted cells are kept one byte each in one buffer: one
        # 256-trial batch on criterion 4's 20x20 table 0 peaks at 1.75 MB
        # (the uniforms, the memo and the buffer). Kept as a list of cell
        # tuples, a block reads 2.63 MB; with its uniforms as Python floats,
        # 4.22 MB
        import tracemalloc

        ising = gibbs_ising(IsingParams(-3.0, 0.1), 20, 20, rng=np.random.default_rng((99, 0)))
        stats = SuffStats.of(ising)
        collect_trials(20, 20, stats, SamplerConfig(), 1, 16)
        tracemalloc.start()
        try:
            collect_trials(20, 20, stats, SamplerConfig(), 2, 256)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2_000_000, peak

    def test_worker_count_does_not_change_results(self):
        stats = SuffStats(3, 8)
        one = collect_trials(3, 3, stats, SamplerConfig(), seed=5, n_trials=300, workers=1)
        three = collect_trials(3, 3, stats, SamplerConfig(), seed=5, n_trials=300, workers=3)
        assert np.array_equal(one.accepted, three.accepted)
        assert np.array_equal(one.log_q[one.accepted], three.log_q[three.accepted])
        assert np.array_equal(one.stat_u, three.stat_u)
        assert np.array_equal(one.stat_uprime, three.stat_uprime)
        assert np.array_equal(one.stage, three.stage)

    def test_serial_import_loads_no_process_pool(self):
        # the pool is imported where a run asks for workers, so importing the
        # package loads neither concurrent.futures nor multiprocessing
        code = (
            "import sys, isingfiber; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('concurrent', 'multiprocessing')))"
        )
        src = str(Path(inference.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert out.stdout.strip() == "[]"

    def test_worker_processes_are_capped_by_cores_and_jobs(self, monkeypatch):
        # the pool forks max_workers processes up front; a serial stand-in
        # records the request without starting any
        requested = []

        class SerialPool:
            def __init__(self, max_workers):
                requested.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        stats = SuffStats(3, 8)
        serial = collect_trials(3, 3, stats, SamplerConfig(), seed=5, n_trials=10)
        for cores, want in ((None, 1), (2, 2), (64, 10)):  # 10 trials make 10 jobs
            monkeypatch.setattr(inference.os, "cpu_count", lambda: cores)
            batch = collect_trials(
                3, 3, stats, SamplerConfig(), seed=5, n_trials=10, workers=100_000
            )
            assert requested[-1] == want
            for name in ("accepted", "stage", "stat_u", "stat_uprime"):
                assert np.array_equal(getattr(batch, name), getattr(serial, name))
            assert np.array_equal(batch.log_q, serial.log_q, equal_nan=True)
        assert len(requested) == 3

    def test_report_invariants(self):
        stats = SuffStats(3, 8)
        batch = collect_trials(3, 3, stats, SamplerConfig(), seed=7, n_trials=800)
        report = report_from_batch(batch, "u", 1)
        assert report.n_trials == 800
        assert report.delta == report.n_accepted / 800
        assert report.ess == pytest.approx(800 / (1 + report.cv2))
        assert 0.0 <= report.p1 <= report.p2 <= 1.0

    def test_empty_fiber_raises(self):
        batch = collect_trials(2, 2, SuffStats(1, 3), SamplerConfig(), seed=1, n_trials=50)
        assert batch.n_accepted == 0
        with pytest.raises(EmptyFiberSampleError):
            report_from_batch(batch, "u", 0)

    def test_fiber_size_within_three_se(self):
        # oracle count of the 3x3 single-corner fiber is 4
        stats = SuffStats(1, 2)
        batch = collect_trials(3, 3, stats, SamplerConfig(), seed=11, n_trials=5000)
        est, se = (
            report_from_batch(batch, "u", 0).fiber_size_estimate,
            report_from_batch(batch, "u", 0).fiber_size_se,
        )
        assert abs(est - 4.0) <= 3 * max(se, 1e-12)

    def test_log_fiber_size_fields(self):
        batch = collect_trials(3, 3, SuffStats(1, 2), SamplerConfig(), seed=11, n_trials=500)
        report = report_from_batch(batch, "u", 0)
        assert report.log_fiber_size_estimate == pytest.approx(math.log(report.fiber_size_estimate))
        assert report.log_fiber_size_se == pytest.approx(
            report.fiber_size_se / report.fiber_size_estimate
        )

    def test_log_fiber_size_fields_stay_finite_on_overflow(self):
        # a 40x40 fiber at a quarter density has about e**970 members
        table = gibbs_ising(IsingParams(-1.0, 0.1), 40, 40, rng=np.random.default_rng(3))
        report = run_exact_test(table, n_samples=10, seed=1)
        assert report.fiber_size_estimate == math.inf
        assert 709.0 < report.log_fiber_size_estimate < math.inf
        assert 0.0 < report.log_fiber_size_se < math.inf
        payload = report.json_payload(seed=1, config={})
        assert math.isfinite(payload["log_fiber_size_estimate"])
        assert math.isfinite(payload["log_fiber_size_se"])
        # JSON has no Infinity: the overflowing fields are null
        assert payload["fiber_size_estimate"] is None and payload["fiber_size_se"] is None
        json.dumps(payload, allow_nan=False)

    def test_run_exact_test_overrides(self):
        table = BinaryTable(2, 2, (1, 0, 0, 0))
        with pytest.raises(EmptyFiberSampleError):
            run_exact_test(table, n_samples=50, seed=0, t1_override=1, t2_override=3)

    def test_run_exact_test_report(self):
        table = BinaryTable(2, 2, (1, 0, 0, 0))
        report = run_exact_test(table, stat_name="u", n_samples=400, seed=2)
        assert report.delta == 1.0  # every path through this fiber is completable
        assert report.p1 == 0.0
        assert report.p2 == pytest.approx(1.0)
        assert report.observed_stat == 0

    def test_json_payload_fields(self):
        report = TestReport(10, 8, 0.8, 0.1, 0.2, 0.5, 10 / 1.5, 4.0, 0.3, math.log(4.0), 0.075, 1, "u")
        payload = report.json_payload(seed=9, config={"rows": 2})
        assert payload["schema"] == 6
        assert payload["seed"] == 9
        # the keys, in the order the JSON report writes them
        assert list(payload) == [
            "schema",
            "n_trials",
            "n_accepted",
            "delta",
            "p1",
            "p2",
            "cv2",
            "ess",
            "fiber_size_estimate",
            "fiber_size_se",
            "log_fiber_size_estimate",
            "log_fiber_size_se",
            "observed_stat",
            "stat_name",
            "seed",
            "config",
        ]
