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
from dataclasses import asdict, dataclass

import numpy as np

from .grid import STATISTICS, BinaryTable, SuffStats, t1, t2, window_stats
# u_stat and u_prime_stat are not called here (window_stats counts both over
# a block of tables); they stay module attributes, which bench/tracer.py wraps
from .grid import u_prime_stat, u_stat  # noqa: F401
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
        drops lp_ratio_threshold from the config echo, schema 4 lp_enabled,
        schema 5 renames lp_cell_threshold to endgame_cells, and schema 6
        keeps endgame_cells alone of the sampler's options. The fields come
        in their declared order."""
        payload = {"schema": 6, **asdict(self), "seed": seed, "config": config}
        return {
            k: None if isinstance(v, float) and not math.isfinite(v) else v
            for k, v in payload.items()
        }


# ---------------------------------------------------------------------------
# weight reductions over the outcome arrays of a batch: _shifted_raw computes
# the shifted raw weights once, and each reduction reads them


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


def _pvalues_arrays(
    s: np.ndarray, accepted: np.ndarray, stat_acc: np.ndarray, observed: int
) -> tuple[float, float]:
    """(p1, p2) from the shifted raw weights s, normalized here."""
    w = (s / s.sum())[accepted]
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


def _cv2_arrays(s: np.ndarray) -> float:
    if s.size < 2:
        raise ValueError("cv2 needs at least two trials")
    mean = s.mean()
    return float(s.var(ddof=1) / mean**2)


def _fiber_size_arrays(
    s: np.ndarray, shift: float, n_cells: int
) -> tuple[float, float, float, float]:
    """(estimate, se, log estimate, se of the log). The logs are computed from
    the shifted weights, so they stay finite where the estimate overflows.

    Each se is at least the floating-point error bound of the estimate, which
    is what is left when the weights are all equal (a fiber wholly in the
    exact endgame, for one): log_q sums up to n_cells logs, each rounded
    twice, and the shift, exp and mean round a few times more, each by at
    most 2^-52 of a magnitude up to max(1, |shift|). Where the Monte Carlo se
    is larger, both are as before, bit for bit."""
    n = s.size
    if n < 2:
        raise ValueError("fiber-size estimate needs at least two trials")
    mean = float(s.mean())
    sd = float(s.std(ddof=1))
    log_est = shift + math.log(mean)
    estimate = math.exp(log_est) if log_est <= 709.0 else math.inf
    rel_floor = 2.0**-52 * (2 * n_cells + 4) * max(1.0, abs(shift))
    log_floor = log_est + math.log(rel_floor)
    se = math.exp(log_floor) if log_floor <= 709.0 else math.inf
    se_of_log = rel_floor
    if sd > 0:
        log_se = shift + math.log(sd) - 0.5 * math.log(n)
        se = max(se, math.exp(log_se) if log_se <= 709.0 else math.inf)
        se_of_log = max(se_of_log, math.exp(log_se - log_est))
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


def _run_range(rows, cols, stats, config, seed, start, stop):
    """The outcome arrays of trials start..stop. A block keeps its accepted
    cells in one buffer, one byte each: no BinaryTable is made per trial."""
    n_cells = rows * cols
    count = stop - start
    accepted = np.zeros(count, dtype=bool)
    log_q = np.full(count, np.nan)
    stage = np.full(count, -1, dtype=np.int32)
    stat_u = np.full(count, -1, dtype=np.int32)
    stat_up = np.full(count, -1, dtype=np.int32)
    tables = bytearray(_SUB_BLOCK * n_cells)  # a block's accepted cells, one byte each
    memo = {}  # run_trial's branch-weight terms, shared by the range's trials
    step_cache = new_step_cache(rows, cols)
    for block in range(start, stop, _SUB_BLOCK):
        block_stop = min(block + _SUB_BLOCK, stop)
        uniforms = uniform_rows(seed, n_cells, block, block_stop - block)
        n_acc = 0
        for i in range(block, block_stop):
            draw = run_trial(
                rows, cols, stats, config, uniforms[i - block], memo, step_cache=step_cache
            )
            k = i - start
            if draw.cells is None:
                stage[k] = draw.stage
            else:
                accepted[k] = True
                log_q[k] = draw.log_q
                tables[n_acc * n_cells : (n_acc + 1) * n_cells] = draw.cells
                n_acc += 1
        if n_acc:
            at = np.flatnonzero(accepted[block - start : block_stop - start]) + (block - start)
            block_tables = np.frombuffer(tables, np.int8, n_acc * n_cells)
            stat_u[at], stat_up[at] = window_stats(block_tables.reshape(-1, rows, cols))
    return accepted, log_q, stage, stat_u, stat_up


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
    if workers <= 1:
        parts = [_run_range(rows, cols, stats, config, seed, 0, n_trials)]
    else:
        chunk = max(1, -(-n_trials // (workers * 4)))
        jobs = [
            (rows, cols, stats, config, seed, s, min(s + chunk, n_trials))
            for s in range(0, n_trials, chunk)
        ]
        # imported here: a serial run never loads the process machinery
        from concurrent.futures import ProcessPoolExecutor

        # the pool forks all max_workers processes at once, so never ask for
        # more than there are cores or jobs
        n_procs = min(workers, os.cpu_count() or 1, len(jobs))
        with ProcessPoolExecutor(max_workers=n_procs) as pool:
            parts = list(pool.map(_run_range, *zip(*jobs)))
    # the parts come in job order, so joining them lays trial i at index i
    accepted, log_q, stage, stat_u, stat_up = (np.concatenate(arrays) for arrays in zip(*parts))
    return TrialBatch(rows, cols, stats, accepted, log_q, stage, stat_u, stat_up)


def report_from_batch(batch: TrialBatch, stat_name: str, observed: int) -> TestReport:
    """Assemble the full diagnostic report; raises EmptyFiberSampleError when
    no trial was accepted."""
    s, shift = _shifted_raw(batch.accepted, batch.log_q)
    p1, p2 = _pvalues_arrays(s, batch.accepted, batch.stat_for_accepted(stat_name), observed)
    c2 = _cv2_arrays(s)
    size_est, size_se, log_size, log_size_se = _fiber_size_arrays(
        s, shift, batch.rows * batch.cols
    )
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
    if n_samples < 2:
        raise ValueError(f"a test needs at least two samples, got {n_samples}")
    config = config or SamplerConfig()
    stats = SuffStats(
        t1(table) if t1_override is None else t1_override,
        t2(table) if t2_override is None else t2_override,
    )
    observed = STATISTICS[stat_name](table)
    batch = collect_trials(table.rows, table.cols, stats, config, seed, n_samples, workers)
    return report_from_batch(batch, stat_name, observed)
