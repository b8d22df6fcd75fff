"""One workload in one process: set-up, timed rounds of tests, checks.

Started by run.py, which owns the command line a user types; this process
prints one JSON line for it on standard output. With --setup-only it only
times the set-up and exits.

A test is one `inference.run_exact_test` call on one observed table. A round
is the workload's fixed list of tests; round r gives test i the sampler seed
derived from (workload seed, r, i). Rounds repeat until the time spent inside
`run_exact_test` reaches --seconds. Checks run between rounds, outside the
timed region.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import random
import resource
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import reference
from tracer import Tracer

# numpy and the package are imported inside set_up(), whose time counts them;
# the functions below receive them as arguments.

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = Path(__file__).resolve().parent / "results"

GIBBS_SEED = 99  # the acceptance criteria draw table i with default_rng((99, i))
ISING_TABLES = 8
SMALL_TRIALS = 40000  # LP solves saturate per fiber; see README
SAMPLED_TRIALS = 4  # trials per test regenerated with run_trial, first round only
PREFIX_TRIALS = 32  # trials per test rerun with workers=2, first round only
# Tolerances of the brute-force checks. Over 12 x 51 fibers at 40,000 trials the
# worst deviations seen were 4.75 ESS standard errors for a p-value (|err| =
# 0.008) and 2.99 reported standard errors for a fiber size.
P_SIGMAS = 10.0
SIZE_SIGMAS = 8.0


@dataclass(frozen=True)
class IsingWorkload:
    size: int
    alpha: float
    beta: float
    trials: int
    delta_floor: float  # acceptance floor of criteria 3 and 4


ISING = {
    "ising-20x20": IsingWorkload(20, -3.0, 0.1, 1000, 0.88),
    "ising-10x10": IsingWorkload(10, -2.0, 0.1, 1000, 0.80),
}
SMALL = "small-fibers"
WORKLOADS = (*ISING, SMALL)
SMALL_4X4 = ((3, 10), (4, 12), (5, 14), (6, 16), (5, 6))  # the fibers of criterion 1


@dataclass
class Test:
    rows: int
    cols: int
    stat_name: str
    trials: int
    fiber: reference.Fiber | None = None  # brute-force truth, small grids only
    observed_mask: int | None = None  # set before set-up on small grids
    table: object = None  # isingfiber BinaryTable, made at set-up
    t1: int = 0  # conditioning, counted by reference
    t2: int = 0
    delta_floor: float = 0.0


def sampler_seed(seed: int, round_index: int, test_index: int) -> int:
    return random.Random(f"{seed}/{round_index}/{test_index}").getrandbits(63)


def make_tests(workload: str, seed: int) -> list[Test]:
    """The round's tests. Small grids get their observed tables here, from the
    workload seed and the brute-force enumeration, before set-up is timed."""
    if workload in ISING:
        w = ISING[workload]
        return [
            Test(w.size, w.size, ("u", "uprime")[i % 2], w.trials, delta_floor=w.delta_floor)
            for i in range(ISING_TABLES)
        ]
    rng = random.Random(f"{seed}/observed")
    fibers3 = reference.enumerate_fibers(3, 3)
    fibers4 = reference.enumerate_fibers(4, 4)
    chosen = [fibers3[key] for key in sorted(fibers3)] + [fibers4[key] for key in SMALL_4X4]
    tests = []
    for i, fiber in enumerate(chosen):
        tests.append(
            Test(
                fiber.grid.rows,
                fiber.grid.cols,
                ("u", "uprime")[i % 2],
                SMALL_TRIALS,
                fiber=fiber,
                observed_mask=rng.choice(fiber.members),
            )
        )
    return tests


def set_up(workload: str, tests: list[Test], tracer: Tracer | None):
    """Import the package, build the grid topologies and make the observed
    tables; returns (package, seconds)."""
    start = perf_counter()
    sys.path.insert(0, str(SRC))
    import isingfiber
    import numpy as np

    if not Path(isingfiber.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"imported isingfiber from {isingfiber.__file__}, not {SRC}")
    with tracer.installed(isingfiber) if tracer else contextlib.nullcontext():
        for shape in sorted({(t.rows, t.cols) for t in tests}):
            isingfiber.grid.topology(*shape)
        if workload in ISING:
            w = ISING[workload]
            params = isingfiber.models.IsingParams(w.alpha, w.beta)
            for i, test in enumerate(tests):
                test.table = isingfiber.models.gibbs_ising(
                    params, w.size, w.size, rng=np.random.default_rng((GIBBS_SEED, i))
                )
        else:
            for test in tests:
                cells = tuple((test.observed_mask >> k) & 1 for k in range(test.rows * test.cols))
                test.table = isingfiber.grid.BinaryTable(test.rows, test.cols, cells)
    elapsed = perf_counter() - start
    for test in tests:
        grid = reference.Grid(test.rows, test.cols)
        mask = reference.to_mask(test.table.cells)
        test.t1, test.t2 = grid.t1(mask), grid.t2(mask)
    return isingfiber, elapsed


class Capture:
    """Keeps the TrialBatch of each test, by wrapping the attribute that
    run_exact_test looks up; one extra call per test."""

    def __init__(self, inference):
        self.inference = inference
        self.batch = None

    def __enter__(self):
        original = self.original = self.inference.collect_trials

        def collect(*args, **kwargs):
            self.batch = original(*args, **kwargs)
            return self.batch

        self.inference.collect_trials = collect
        return self

    def __exit__(self, *exc):
        self.inference.collect_trials = self.original
        return False


# ---------------------------------------------------------------------------
# checks


class CheckFailed(Exception):
    pass


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def check_report(test: Test, report, batch, np) -> None:
    """Invariants of every report, and the reduction redone from the batch."""
    n = test.trials
    expect(report.n_trials == n and batch.accepted.size == n, "trial count")
    expect(report.n_accepted == int(batch.accepted.sum()) >= 1, "accepted count")
    expect(report.delta == report.n_accepted / n, "delta is the accepted share")
    expect(0.0 <= report.p1 <= report.p2 <= 1.0, f"0 <= p1 <= p2 <= 1: {report.p1}, {report.p2}")
    expect(0.0 < report.ess <= n, f"0 < ess <= n: {report.ess}")
    expect(report.delta >= test.delta_floor, f"delta {report.delta} below floor {test.delta_floor}")
    acc = batch.accepted
    neg = -batch.log_q[acc]
    raw = np.exp(neg - neg.max())
    w = raw / raw.sum()
    stat = (batch.stat_u if test.stat_name == "u" else batch.stat_uprime)[acc]
    p1 = float(w[stat > report.observed_stat].sum())
    p2 = float(w[stat >= report.observed_stat].sum())
    expect(abs(report.p1 - p1) <= 1e-9 and abs(report.p2 - p2) <= 1e-9, "p-values from the batch")
    full = np.zeros(n)
    full[acc] = raw
    cv2 = float(full.var(ddof=1) / full.mean() ** 2)
    expect(math.isclose(report.cv2, cv2, rel_tol=1e-9, abs_tol=1e-12), "cv2 from the batch")
    expect(math.isclose(report.ess, n / (1.0 + cv2), rel_tol=1e-9), "ess = n / (1 + cv2)")


def check_truth(test: Test, report) -> None:
    """Against the brute-force fiber: p-values within a Monte-Carlo tolerance
    for the test's ESS, fiber size within SIZE_SIGMAS standard errors."""
    fiber = test.fiber
    grid = fiber.grid
    observed = grid.stat(test.stat_name, test.observed_mask)
    expect(report.observed_stat == observed, "observed statistic")
    for got, exact in zip((report.p1, report.p2), fiber.exact_pvalues(test.stat_name, observed)):
        tol = P_SIGMAS * math.sqrt(exact * (1.0 - exact) / report.ess) + 1e-9
        expect(abs(got - exact) <= tol, f"p-value {got} vs exact {exact} (tol {tol:.3g})")
    est, se = report.fiber_size_estimate, report.fiber_size_se
    expect(
        abs(est - fiber.size) <= SIZE_SIGMAS * se + 1e-9 * fiber.size,
        f"fiber size {est} +- {se} vs exact {fiber.size}",
    )


def check_trials(test: Test, batch, seed: int, pkg, rng: random.Random) -> None:
    """Regenerate sampled trials with run_trial + uniform_rows: on-fiber
    draws, recounted statistics, and log_q equal to the batch and to replay."""
    sampler = pkg.sampler
    grid = reference.Grid(test.rows, test.cols)
    stats = pkg.grid.SuffStats(test.t1, test.t2)
    config = sampler.SamplerConfig()
    for i in rng.sample(range(test.trials), SAMPLED_TRIALS):
        uniforms = sampler.uniform_rows(seed, grid.n_cells, i, 1)[0]
        draw = sampler.run_trial(test.rows, test.cols, stats, config, uniforms, {}, None)
        expect(draw.accepted == bool(batch.accepted[i]), f"trial {i} accept verdict")
        if not draw.accepted:
            expect(draw.stage == batch.stage[i], f"trial {i} rejection stage")
            continue
        x = reference.to_mask(draw.table.cells)
        expect((grid.t1(x), grid.t2(x)) == (test.t1, test.t2), f"trial {i} is off the fiber")
        expect(grid.u(x) == batch.stat_u[i], f"trial {i} u")
        expect(grid.uprime(x) == batch.stat_uprime[i], f"trial {i} uprime")
        expect(draw.log_q == batch.log_q[i], f"trial {i} log_q differs from the batch")
        replayed = sampler.replay_log_q(draw.table, stats, config)
        expect(replayed == batch.log_q[i], f"trial {i} replay_log_q {replayed} != {batch.log_q[i]}")


def check_workers(test: Test, batch, seed: int, pkg, np) -> None:
    """A prefix rerun with two worker processes gives the same arrays."""
    stats = pkg.grid.SuffStats(test.t1, test.t2)
    config = pkg.sampler.SamplerConfig()
    two = pkg.inference.collect_trials(
        test.rows, test.cols, stats, config, seed, PREFIX_TRIALS, workers=2
    )
    for name in ("accepted", "log_q", "stage", "stat_u", "stat_uprime"):
        mine, theirs = getattr(batch, name)[:PREFIX_TRIALS], getattr(two, name)
        expect(np.array_equal(mine, theirs, equal_nan=(name == "log_q")), f"workers=2 {name}")


# ---------------------------------------------------------------------------
# rounds


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    correct: bool = True
    seconds: float = 0.0  # inside run_exact_test
    round_seconds: list = field(default_factory=list)
    trials: int = 0
    ess: float = 0.0
    cv2: list = field(default_factory=list)
    errors: list = field(default_factory=list)


def run_round(pkg, np, tests, seed, round_index, tally: Tally, check: bool, tracer=None):
    """One round; returns its reports, None for a test that raised."""
    inference = pkg.inference
    rng = random.Random(f"{seed}/{round_index}/checks")
    reports = []
    for i, test in enumerate(tests):
        s = sampler_seed(seed, round_index, i)
        tally.attempted += 1
        traced = tracer.test(pkg, [round_index, i]) if tracer else contextlib.nullcontext()
        try:
            with Capture(inference) as capture, traced:
                start = perf_counter()
                try:
                    report = inference.run_exact_test(test.table, test.stat_name, test.trials, s)
                finally:
                    tally.seconds += perf_counter() - start
        except Exception as exc:  # the operation failed; count it and go on
            tally.failed += 1
            tally.errors.append(f"test {i} round {round_index}: {type(exc).__name__}: {exc}")
            reports.append(None)
            continue
        tally.trials += report.n_trials
        tally.ess += report.ess
        tally.cv2.append(report.cv2)
        reports.append(report)
        if not check:
            continue
        try:
            check_report(test, report, capture.batch, np)
            if test.fiber is not None:
                check_truth(test, report)
            if round_index == 0:
                check_trials(test, capture.batch, s, pkg, rng)
                if test.fiber is None:
                    check_workers(test, capture.batch, s, pkg, np)
        except Exception as exc:  # CheckFailed, or a check's own call raised
            tally.failed += 1
            tally.correct = False
            tally.errors.append(f"test {i} round {round_index}: check failed: {exc!r}")
    return reports


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # kB on Linux


def measure(seed, seconds, tests, pkg, np):
    tally = Tally()
    r = 0
    while True:
        before = tally.seconds
        run_round(pkg, np, tests, seed, r, tally, check=True)
        tally.round_seconds.append(tally.seconds - before)
        r += 1
        if tally.seconds >= seconds:
            break
    return {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "correct": tally.correct,
        "errors": tally.errors,
        "rounds": r,
        "timed_s": tally.seconds,
        "round_seconds": tally.round_seconds,
        "trials": tally.trials,
        "ess": tally.ess,
        "trials_per_s": tally.trials / tally.seconds,
        "ess_per_s": tally.ess / tally.seconds,
        "peak_rss_mb": peak_rss_mb(),
    }


def measure_traced(workload, seed, seconds, tests, pkg, np, tracer: Tracer):
    """Pairs of rounds, the same round untraced then traced, until both
    together reach `seconds`; per-layer figures are per traced round."""
    plain, traced = Tally(), Tally()
    r = 0
    while True:
        untraced_reports = run_round(pkg, np, tests, seed, r, plain, check=True)
        traced_reports = run_round(pkg, np, tests, seed, r, traced, check=False, tracer=tracer)
        if traced_reports != untraced_reports:
            traced.correct = False
            traced.errors.append(f"round {r}: traced reports differ from untraced")
        r += 1
        if plain.seconds + traced.seconds >= seconds:
            break
    t = tracer
    lp_calls = t.count("cutlp.state_lp_feasible")
    lp_s = t.total("cutlp.state_lp_feasible")
    per_round = {
        "sampler.run_trial.calls": (t.count("sampler.run_trial") / r, "count"),
        "sampler.run_trial.s": (t.total("sampler.run_trial") / r, "s"),
        "sampler.run_trial.self_s": ((t.total("sampler.run_trial") - lp_s) / r, "s"),
        "sampler.uniform_rows.s": (t.total("sampler.uniform_rows") / r, "s"),
        "grid.window_stats.calls": (t.count("grid.window_stats") / r, "count"),
        "grid.window_stats.s": (t.total("grid.window_stats") / r, "s"),
        "cutlp.state_lp_feasible.calls": (lp_calls / r, "count"),
        "cutlp.state_lp_feasible.s": (lp_s / r, "s"),
        "cutlp.assembly_s": ((lp_s - t.total("simplex.solve_canonical")) / r, "s"),
        "simplex.solve_canonical.calls": (t.count("simplex.solve_canonical") / r, "count"),
        "simplex.solve_canonical.s": (t.total("simplex.solve_canonical") / r, "s"),
        "cutlp.prune_ratio": (t.lp_infeasible / lp_calls if lp_calls else 0.0, "ratio"),
        "sampler.accept_ratio": (t.accepted / t.trials, "ratio"),
        "sampler.wasted_cells": (t.wasted_cells / r, "count"),
        "inference.cv2": (sum(traced.cv2) / len(traced.cv2), "ratio"),
        "inference.ess": (traced.ess / r, "trials"),
        "inference.collect_trials.s": (t.total("inference.collect_trials") / r, "s"),
        "inference.report_from_batch.s": (t.total("inference.report_from_batch") / r, "s"),
        "models.gibbs.calls": (t.count("models.gibbs"), "count"),
        "models.gibbs.s": (t.total("models.gibbs"), "s"),
        "grid.topology.s": (t.total("grid.topology"), "s"),
        "trace.untraced_trials_per_s": (plain.trials / plain.seconds, "1/s"),
        "trace.traced_trials_per_s": (traced.trials / traced.seconds, "1/s"),
        "trace.overhead": (
            (plain.trials / plain.seconds) / (traced.trials / traced.seconds) - 1.0,
            "ratio",
        ),
    }
    RESULTS.mkdir(exist_ok=True)
    trace_path = RESULTS / f"trace-{workload}-seed{seed}.json"
    t.write(trace_path)
    return {
        "attempted": plain.attempted + traced.attempted,
        "failed": plain.failed + traced.failed,
        "correct": plain.correct and traced.correct,
        "errors": plain.errors + traced.errors,
        "rounds": r,
        "trace_file": str(trace_path.relative_to(ROOT)),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in per_round.items()},
        "peak_rss_mb": peak_rss_mb(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    tests = make_tests(args.workload, args.seed)
    tracer = Tracer() if args.trace else None
    pkg, setup_s = set_up(args.workload, tests, tracer)
    if args.setup_only:
        out = {"setup_s": setup_s}
    else:
        import numpy as np

        if tracer:
            out = measure_traced(args.workload, args.seed, args.seconds, tests, pkg, np, tracer)
        else:
            out = measure(args.seed, args.seconds, tests, pkg, np)
        out["setup_s"] = setup_s
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
