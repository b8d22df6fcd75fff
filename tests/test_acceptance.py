"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines as they complete. Every tolerance is fixed here; the random seeds are
fixed so the whole suite is reproducible bit for bit.
"""

import math
import time
from itertools import product

import numpy as np
import pytest
from scipy.stats import chi2

from isingfiber.cutlp import cell_bounds, cut_semimetric, suspension_semimetric, violates_cut_inequalities
from isingfiber.grid import BinaryTable, SuffStats, t1, t2, topology, u_prime_stat, u_stat
from isingfiber.inference import collect_trials, report_from_batch, run_exact_test
from isingfiber.models import AutologisticParams, IsingParams, gibbs_autologistic, gibbs_ising
from isingfiber.oracle import (
    enumerate_fiber,
    exact_cell_bounds,
    exact_pvalues,
    fiber_members,
    nonempty_fibers,
)
from isingfiber.sampler import PartialTable, SamplerConfig, run_trial, uniform_rows

FIBERS_4X4 = [
    SuffStats(3, 10),
    SuffStats(4, 12),
    SuffStats(5, 14),
    SuffStats(6, 16),
    SuffStats(5, 6),  # crowded: exercises the LP pruning hard
]


def _verdict(number, name, ok, detail=""):
    line = f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" — {detail}"
    print(line, flush=True)
    assert ok, line


def _acceptance_fibers():
    fibers = [(3, 3, stats) for stats in sorted(nonempty_fibers(3, 3), key=lambda s: (s.t1, s.t2))]
    fibers += [(4, 4, stats) for stats in FIBERS_4X4]
    return fibers


def test_criterion_1_oracle_pvalue_agreement():
    worst = 0.0
    checked = 0
    for index, (rows, cols, stats) in enumerate(_acceptance_fibers()):
        observed_table = next(iter(fiber_members(rows, cols, stats)))
        batch = collect_trials(rows, cols, stats, SamplerConfig(), seed=1000 + index, n_trials=20000)
        for stat_name in ("u", "uprime"):
            summary = enumerate_fiber(rows, cols, stats, stat_name=stat_name)
            observed = {"u": u_stat, "uprime": u_prime_stat}[stat_name](observed_table)
            exact_p1, exact_p2 = exact_pvalues(summary, observed)
            report = report_from_batch(batch, stat_name, observed)
            worst = max(worst, abs(report.p1 - exact_p1), abs(report.p2 - exact_p2))
            checked += 2
        assert worst <= 0.02, (rows, cols, stats, worst)
    _verdict(
        1,
        "oracle p-value agreement",
        worst <= 0.02,
        f"{checked} comparisons over {len(_acceptance_fibers())} fibers, max |err| = {worst:.4f}",
    )


def test_criterion_2_fiber_size_unbiasedness():
    n_seeds = 100
    worst_cover = n_seeds
    worst_fiber = None
    for index, (rows, cols, stats) in enumerate(_acceptance_fibers()):
        size = enumerate_fiber(rows, cols, stats).size
        hits = 0
        for rep in range(n_seeds):
            batch = collect_trials(
                rows, cols, stats, SamplerConfig(), seed=50_000 + 1000 * index + rep, n_trials=5000
            )
            report = report_from_batch(batch, "u", 0)
            est, se = report.fiber_size_estimate, report.fiber_size_se
            hits += abs(est - size) <= 3 * se or est == size
        if hits < worst_cover:
            worst_cover, worst_fiber = hits, (rows, cols, stats)
        assert hits >= 95, (rows, cols, stats, hits)
    _verdict(
        2,
        "fiber-size unbiasedness",
        worst_cover >= 95,
        f"worst coverage {worst_cover}/100 at {worst_fiber}",
    )


def _acceptance_rate_run(number, name, alpha, beta, size, floor):
    deltas = []
    for i in range(10):
        table = gibbs_ising(IsingParams(alpha, beta), size, size, 1001, np.random.default_rng((99, i)))
        report = run_exact_test(table, stat_name="u", n_samples=5000, seed=7000 + i)
        deltas.append(report.delta)
    ok = min(deltas) >= floor
    _verdict(
        number,
        name,
        ok,
        f"deltas in [{min(deltas):.3f}, {max(deltas):.3f}] vs floor {floor}",
    )


def test_criterion_3_acceptance_rate_10x10():
    _acceptance_rate_run(3, "acceptance rate 10x10 (alpha=-2, beta=0.1)", -2.0, 0.1, 10, 0.80)


def test_criterion_4_acceptance_rate_20x20():
    _acceptance_rate_run(4, "acceptance rate 20x20 (alpha=-3, beta=0.1)", -3.0, 0.1, 20, 0.88)


def test_criterion_5_lp_soundness():
    rng = np.random.default_rng(31)
    false_exclusions = 0
    false_infeasible = 0
    checked = 0
    for _ in range(1000):
        rows = cols = 3 if rng.random() < 0.5 else 4
        n = rows * cols
        n_edges = 2 * rows * cols - rows - cols
        while True:
            stats = SuffStats(int(rng.integers(0, n + 1)), int(rng.integers(0, n_edges + 1)))
            try:
                stats.validate_for(rows, cols)
                break
            except ValueError:
                continue
        k = int(rng.integers(0, n))
        prefix = tuple(int(v) for v in rng.integers(0, 2, k))
        cell = int(rng.integers(k, n))
        got = cell_bounds(PartialTable.from_prefix(rows, cols, prefix), stats, cell)
        exact = exact_cell_bounds(rows, cols, stats, prefix, cell)
        checked += 1
        if exact is None:
            continue  # sound relaxations may miss emptiness; nothing to verify
        if got.status != "bounded":
            false_infeasible += 1
        elif not (got.lo <= exact[0] and exact[1] <= got.hi):
            false_exclusions += 1
    specific_ok = (
        cell_bounds(PartialTable.empty(2, 2), SuffStats(1, 3), 0).status == "infeasible"
        and cell_bounds(PartialTable.empty(2, 2), SuffStats(4, 0), 0).lo == 1
        and cell_bounds(PartialTable.empty(2, 2), SuffStats(4, 0), 0).hi == 1
    )
    ok = false_exclusions == 0 and false_infeasible == 0 and specific_ok
    _verdict(
        5,
        "LP cell-bound soundness",
        ok,
        f"{checked} random triples, {false_exclusions} exclusions, "
        f"{false_infeasible} false infeasibles, specific instances {'ok' if specific_ok else 'BAD'}",
    )


def test_criterion_6_cut_polytope_membership():
    rng = np.random.default_rng(17)
    violations = 0
    mismatches = 0
    for _ in range(1000):
        rows = int(rng.integers(1, 6))
        cols = int(rng.integers(1, 6))
        topo = topology(rows, cols)
        side = {c: int(rng.integers(0, 2)) for c in range(topo.n_cells)}
        side["w"] = int(rng.integers(0, 2))
        edges = [("w", c) for c in range(topo.n_cells)] + list(topo.edges)
        vec = np.array(cut_semimetric(side, edges), dtype=float)
        if violates_cut_inequalities(vec, rows, cols):
            violations += 1
        # partition -> table direction: apex coordinates are the induced table,
        # whose statistics sit exactly on the two fiber hyperplanes
        induced = BinaryTable(rows, cols, tuple(int(v) for v in vec[: topo.n_cells]))
        if vec[: topo.n_cells].sum() != t1(induced) or vec[topo.n_cells :].sum() != t2(induced):
            mismatches += 1
        # table -> partition direction: the induced table's own cut vector
        if not np.array_equal(suspension_semimetric(induced), vec):
            mismatches += 1
    ok = violations == 0 and mismatches == 0
    _verdict(
        6,
        "cut-polytope membership and statistic correspondence",
        ok,
        f"1000 partitions, {violations} violations, {mismatches} correspondence mismatches",
    )


def test_criterion_7_gibbs_correctness():
    alpha, beta = -1.0, 0.3
    weights = {}
    for bits in range(16):
        cells = tuple((bits >> k) & 1 for k in range(4))
        table = BinaryTable(2, 2, cells)
        weights[cells] = math.exp(alpha * t1(table) + beta * t2(table))
    z = sum(weights.values())
    exact = {cells: w / z for cells, w in weights.items()}

    n = 100_000
    counts = dict.fromkeys(exact, 0)
    for seed in range(n):
        table = gibbs_ising(IsingParams(alpha, beta), 2, 2, 64, np.random.default_rng((701, seed)))
        counts[table.cells] += 1
    stat = sum((counts[c] - n * p) ** 2 / (n * p) for c, p in exact.items())
    p_chi = chi2.sf(stat, df=15)

    # beta = 0: cells are exactly independent after one full sweep
    a0 = -1.0
    want = math.exp(a0) / (1 + math.exp(a0))
    ones = 0
    cells_total = 100_000
    for seed in range(10):
        table = gibbs_ising(IsingParams(a0, 0.0), 100, 100, 1, np.random.default_rng((702, seed)))
        ones += t1(table)
    se = math.sqrt(want * (1 - want) / cells_total)
    mean_ok = abs(ones / cells_total - want) <= 3 * se

    ok = p_chi > 0.01 and mean_ok
    _verdict(
        7,
        "Gibbs sampler correctness",
        ok,
        f"chi-square p = {p_chi:.4f} over 16 tables at n={n}; "
        f"beta=0 mean {ones / cells_total:.4f} vs {want:.4f} (3se = {3 * se:.4f})",
    )


def test_criterion_8_power_direction():
    params = AutologisticParams(-2.0, 0.2, -0.2, 0.2, -0.2)
    sig_u = sig_uprime = 0
    for i in range(20):
        table = gibbs_autologistic(params, 20, 20, 1001, np.random.default_rng((801, i)))
        stats = SuffStats(t1(table), t2(table))
        batch = collect_trials(20, 20, stats, SamplerConfig(), seed=9000 + i, n_trials=3000)
        p2_u = report_from_batch(batch, "u", u_stat(table)).p2
        p2_uprime = report_from_batch(batch, "uprime", u_prime_stat(table)).p2
        sig_u += p2_u < 0.05
        sig_uprime += p2_uprime < 0.05
    ok = sig_uprime >= sig_u
    _verdict(
        8,
        "power direction (adjacent-pair window vs diagonal window)",
        ok,
        f"rejections at 0.05: uprime {sig_uprime} >= u {sig_u} over 20 tables",
    )


def test_criterion_9_large_sparse_table():
    # the real 14x179 dataset is not available, so draw a synthetic table with
    # the same sufficient statistics from the fiber itself
    stats = SuffStats(385, 1108)
    config = SamplerConfig()
    synthetic = None
    for i in range(50):
        draw = run_trial(14, 179, stats, config, uniform_rows(424242, 2506, i, 1)[0])
        if draw.accepted:
            synthetic = draw.table
            break
    assert synthetic is not None, "could not synthesize a 14x179 table"
    assert (t1(synthetic), t2(synthetic)) == (385, 1108)

    start = time.monotonic()
    report = run_exact_test(synthetic, stat_name="u", n_samples=10_000, seed=90210)
    elapsed = time.monotonic() - start
    ok = report.delta >= 0.90 and elapsed < 3600
    _verdict(
        9,
        "14x179 sparse run (t1=385, t2=1108)",
        ok,
        f"delta = {report.delta:.4f}, p in [{report.p1:.4g}, {report.p2:.4g}], "
        f"ess = {report.ess:.1f}, {elapsed:.0f}s for 10000 trials",
    )
