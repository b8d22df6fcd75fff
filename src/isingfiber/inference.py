"""Importance-weighted estimates from a batch of sequential trials.

Rejected trials stay in the batch with raw weight exactly zero, which is what
makes the ratio estimator unbiased for expectations under the uniform fiber
distribution: the proposal is normalized over a superset of the fiber and the
indicator of landing on-fiber rides along in the numerator. All weight
arithmetic is done in log space with a max shift; the standardized weights,
cv2 and the p-values are invariant to that shift by construction.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

# u_stat and u_prime_stat are not called here (window_stats counts both over
# a block of tables); they stay module attributes, which bench/tracer.py wraps
from .grid import BinaryTable, SuffStats, u_prime_stat, u_stat  # noqa: F401
from .sampler import SamplerConfig, new_step_cache, run_trial, uniform_rows


class EmptyFiberSampleError(RuntimeError):
    """No trial was accepted: the sample carries no information about the fiber."""


@dataclass(frozen=True)
class TestReport:
    __test__ = False  # not a pytest class, despite the name

    n_trials: int
    n_accepted: int
    delta: float
    p1: float
    p2: float
    cv2: float
    ess: float
    fiber_size_estimate: float
    fiber_size_se: float
    log_fiber_size_estimate: float  # natural log; finite where the estimate is inf
    log_fiber_size_se: float  # delta-method SE of the log: fiber_size_se / fiber_size_estimate
    observed_stat: int
    stat_name: str

    def json_payload(self, seed: int, config: dict) -> dict:
        """The report as JSON values. JSON (RFC 8259) has no Infinity, so a
        non-finite float (a fiber-size estimate past the double range)
        becomes None, JSON's null; schema 2 is the first to do so. Schema 3
        drops lp_ratio_threshold from the config echo."""
        payload = {
            "schema": 3,
            "n_trials": self.n_trials,
            "n_accepted": self.n_accepted,
            "delta": self.delta,
            "p1": self.p1,
            "p2": self.p2,
            "cv2": self.cv2,
            "ess": self.ess,
            "fiber_size_estimate": self.fiber_size_estimate,
            "fiber_size_se": self.fiber_size_se,
            "log_fiber_size_estimate": self.log_fiber_size_estimate,
            "log_fiber_size_se": self.log_fiber_size_se,
            "observed_stat": self.observed_stat,
            "stat_name": self.stat_name,
            "seed": seed,
            "config": config,
        }
        return {
            k: None if isinstance(v, float) and not math.isfinite(v) else v
            for k, v in payload.items()
        }


# ---------------------------------------------------------------------------
# weight reductions over the outcome arrays of a batch


def _shifted_raw(accepted: np.ndarray, log_q: np.ndarray) -> tuple[np.ndarray, float]:
    """(raw weights 1/q rescaled by exp(-shift), shift = max(-log_q)); rejections
    are exact zeros."""
    if not accepted.any():
        raise EmptyFiberSampleError("empty fiber sample")
    neg = -log_q[accepted]
    shift = neg.max()
    out = np.zeros(accepted.size)
    out[accepted] = np.exp(neg - shift)
    return out, float(shift)


def _weights_arrays(accepted: np.ndarray, log_q: np.ndarray) -> np.ndarray:
    s, _ = _shifted_raw(accepted, log_q)
    return s / s.sum()


def _pvalues_arrays(
    accepted: np.ndarray, log_q: np.ndarray, stat_acc: np.ndarray, observed: int
) -> tuple[float, float]:
    w = _weights_arrays(accepted, log_q)[accepted]
    above = stat_acc > observed
    # the whole mass is 1 exactly; the normalized weights sum to it only up to rounding
    if above.all():
        return 1.0, 1.0
    p1 = min(max(float(w[above].sum()), 0.0), 1.0)
    if not (stat_acc < observed).any():
        return p1, 1.0
    # p2 = p1 + tie mass keeps p1 <= p2 exact under floating rounding
    p2 = min(p1 + float(w[stat_acc == observed].sum()), 1.0)
    return p1, p2


def _cv2_arrays(accepted: np.ndarray, log_q: np.ndarray) -> float:
    if accepted.size < 2:
        raise ValueError("cv2 needs at least two trials")
    s, _ = _shifted_raw(accepted, log_q)
    mean = s.mean()
    return float(s.var(ddof=1) / mean**2)


def _fiber_size_arrays(
    accepted: np.ndarray, log_q: np.ndarray
) -> tuple[float, float, float, float]:
    """(estimate, se, log estimate, se of the log). The logs are computed from
    the shifted weights, so they stay finite where the estimate overflows."""
    n = accepted.size
    if n < 2:
        raise ValueError("fiber-size estimate needs at least two trials")
    s, shift = _shifted_raw(accepted, log_q)
    mean = float(s.mean())
    sd = float(s.std(ddof=1))
    log_est = shift + math.log(mean)
    estimate = math.exp(log_est) if log_est <= 709.0 else math.inf
    se = se_of_log = 0.0
    if sd > 0:
        log_se = shift + math.log(sd) - 0.5 * math.log(n)
        se = math.exp(log_se) if log_se <= 709.0 else math.inf
        se_of_log = math.exp(log_se - log_est)
    return estimate, se, log_est, se_of_log


def ess(n: int, cv2_value: float) -> float:
    """Effective sample size n / (1 + cv2)."""
    if n < 1 or cv2_value < 0:
        raise ValueError("need n >= 1 and cv2 >= 0")
    return n / (1.0 + cv2_value)


# ---------------------------------------------------------------------------
# batch driver


@dataclass
class TrialBatch:
    """Per-trial outcome arrays, ordered by trial index.

    stat_u / stat_uprime hold both window statistics for accepted trials and
    -1 for rejections; stage is the rejection cell index and -1 for accepts.
    """

    rows: int
    cols: int
    stats: SuffStats
    accepted: np.ndarray
    log_q: np.ndarray
    stage: np.ndarray
    stat_u: np.ndarray
    stat_uprime: np.ndarray

    @property
    def n_trials(self) -> int:
        return self.accepted.size

    @property
    def n_accepted(self) -> int:
        return int(self.accepted.sum())

    def stat_for_accepted(self, stat_name: str) -> np.ndarray:
        arr = {"u": self.stat_u, "uprime": self.stat_uprime}[stat_name]
        return arr[self.accepted]


_SUB_BLOCK = 256


def window_stats(tables: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """u and uprime (see grid.u_stat and grid.u_prime_stat) of each table in
    a (count, rows, cols) 0-1 array, counted over all 2x2 windows at once."""
    a, b = tables[:, :-1, :-1], tables[:, :-1, 1:]
    c, d = tables[:, 1:, :-1], tables[:, 1:, 1:]
    u = ((a != b) & (a == d) & (b == c)).sum(axis=(1, 2))
    # [[0,0],[1,1]]: c & d is 1 exactly where a | b is 0
    uprime = ((c & d) > (a | b)).sum(axis=(1, 2))
    return u, uprime


def _run_range(rows, cols, stats, config, seed, start, stop, step_cache):
    n_cells = rows * cols
    count = stop - start
    accepted = np.zeros(count, dtype=bool)
    log_q = np.full(count, np.nan)
    stage = np.full(count, -1, dtype=np.int32)
    stat_u = np.full(count, -1, dtype=np.int32)
    stat_up = np.full(count, -1, dtype=np.int32)
    tables = np.empty((_SUB_BLOCK, n_cells), dtype=np.int8)  # a block's accepted tables
    for block in range(start, stop, _SUB_BLOCK):
        block_stop = min(block + _SUB_BLOCK, stop)
        uniforms = uniform_rows(seed, n_cells, block, block_stop - block)
        n_acc = 0
        for i in range(block, block_stop):
            draw = run_trial(rows, cols, stats, config, uniforms[i - block], step_cache=step_cache)
            k = i - start
            if draw.accepted:
                accepted[k] = True
                log_q[k] = draw.log_q
                tables[n_acc] = draw.table.cells
                n_acc += 1
            else:
                stage[k] = draw.stage
        if n_acc:
            at = np.flatnonzero(accepted[block - start : block_stop - start]) + (block - start)
            stat_u[at], stat_up[at] = window_stats(tables[:n_acc].reshape(-1, rows, cols))
    return accepted, log_q, stage, stat_u, stat_up


def _worker(args):
    rows, cols, t1, t2, config_kwargs, seed, start, stop = args
    stats = SuffStats(t1, t2)
    config = SamplerConfig(**config_kwargs)
    step_cache = new_step_cache(rows, cols)
    return start, _run_range(rows, cols, stats, config, seed, start, stop, step_cache)


def collect_trials(
    rows: int,
    cols: int,
    stats: SuffStats,
    config: SamplerConfig,
    seed: int,
    n_trials: int,
    workers: int = 1,
) -> TrialBatch:
    """Run n_trials sequential trials with per-trial uniform streams.

    Trial i always consumes stream positions [i*mn, (i+1)*mn) of the
    seed-keyed generator, so the outcome arrays are byte-identical for any
    worker count; workers only change the wall clock. At most os.cpu_count()
    worker processes run.
    """
    if n_trials < 1:
        raise ValueError("need at least one trial")
    stats.validate_for(rows, cols)
    accepted = np.zeros(n_trials, dtype=bool)
    log_q = np.full(n_trials, np.nan)
    stage = np.full(n_trials, -1, dtype=np.int32)
    stat_u = np.full(n_trials, -1, dtype=np.int32)
    stat_up = np.full(n_trials, -1, dtype=np.int32)

    if workers <= 1:
        step_cache = new_step_cache(rows, cols)
        parts = [(0, _run_range(rows, cols, stats, config, seed, 0, n_trials, step_cache))]
    else:
        chunk = max(1, -(-n_trials // (workers * 4)))
        jobs = [
            (rows, cols, stats.t1, stats.t2, config.__dict__.copy(), seed, s, min(s + chunk, n_trials))
            for s in range(0, n_trials, chunk)
        ]
        # the pool forks all max_workers processes at once, so never ask for
        # more than there are cores or jobs
        n_procs = min(workers, os.cpu_count() or 1, len(jobs))
        with ProcessPoolExecutor(max_workers=n_procs) as pool:
            parts = list(pool.map(_worker, jobs))

    for start, (acc, lq, st, su, sup) in parts:
        stop = start + acc.size
        accepted[start:stop] = acc
        log_q[start:stop] = lq
        stage[start:stop] = st
        stat_u[start:stop] = su
        stat_up[start:stop] = sup
    return TrialBatch(rows, cols, stats, accepted, log_q, stage, stat_u, stat_up)


def report_from_batch(batch: TrialBatch, stat_name: str, observed: int) -> TestReport:
    """Assemble the full diagnostic report; raises EmptyFiberSampleError when
    no trial was accepted."""
    if batch.n_accepted == 0:
        raise EmptyFiberSampleError("empty fiber sample")
    p1, p2 = _pvalues_arrays(
        batch.accepted, batch.log_q, batch.stat_for_accepted(stat_name), observed
    )
    c2 = _cv2_arrays(batch.accepted, batch.log_q)
    size_est, size_se, log_size, log_size_se = _fiber_size_arrays(batch.accepted, batch.log_q)
    n = batch.n_trials
    return TestReport(
        n_trials=n,
        n_accepted=batch.n_accepted,
        delta=batch.n_accepted / n,
        p1=p1,
        p2=p2,
        cv2=c2,
        ess=ess(n, c2),
        fiber_size_estimate=size_est,
        fiber_size_se=size_se,
        log_fiber_size_estimate=log_size,
        log_fiber_size_se=log_size_se,
        observed_stat=observed,
        stat_name=stat_name,
    )


def run_exact_test(
    table: BinaryTable,
    stat_name: str = "u",
    n_samples: int = 5000,
    seed: int = 0,
    config: SamplerConfig | None = None,
    workers: int = 1,
    t1_override: int | None = None,
    t2_override: int | None = None,
) -> TestReport:
    """Conditional exact test of the observed table.

    Conditions on the observed (t1, t2) unless overridden, samples the fiber
    sequentially, and reports the importance-weighted p-value bracket for the
    chosen window statistic.
    """
    from .grid import STATISTICS, t1 as calc_t1, t2 as calc_t2

    config = config or SamplerConfig()
    stats = SuffStats(
        calc_t1(table) if t1_override is None else t1_override,
        calc_t2(table) if t2_override is None else t2_override,
    )
    observed = STATISTICS[stat_name](table)
    batch = collect_trials(table.rows, table.cols, stats, config, seed, n_samples, workers)
    return report_from_batch(batch, stat_name, observed)
