"""Command-line front end: simulate | stats | test | enumerate.

Standard output carries exactly one JSON document or one table; progress and
wall-clock notes go to standard error. Exit codes: 0 success, 1 usage or parse
failure, 2 degenerate outcome (no accepted trial).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np

from .grid import (
    STATISTICS,
    BinaryTable,
    ParseError,
    SuffStats,
    format_table,
    parse_table,
    t1,
    t2,
    u_prime_stat,
    u_stat,
)
from .inference import EmptyFiberSampleError, run_exact_test
from .models import DEFAULT_SWEEPS, AutologisticParams, IsingParams, gibbs_autologistic, gibbs_ising
from .oracle import CapExceededError, enumerate_fiber, exact_pvalues
from .sampler import SamplerConfig

USAGE_EXIT = 1
DEGENERATE_EXIT = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(USAGE_EXIT)


def _emit_json(payload: dict) -> None:
    # JSON (RFC 8259) has no Infinity or NaN; payloads write null instead
    sys.stdout.write(json.dumps(payload, allow_nan=False) + "\n")


def _read_table(path: str) -> BinaryTable:
    text = sys.stdin.read() if path == "-" else Path(path).read_text(encoding="utf-8")
    return parse_table(text)


def _log(msg: str) -> None:
    sys.stderr.write(msg + "\n")


def cmd_simulate(args) -> int:
    rng = np.random.default_rng(args.seed)
    if args.model == "ising":
        table = gibbs_ising(IsingParams(args.alpha, args.beta), args.rows, args.cols, args.sweeps, rng)
    else:
        params = AutologisticParams(args.b0, args.b1, args.b2, args.b3, args.b4)
        table = gibbs_autologistic(params, args.rows, args.cols, args.sweeps, rng)
    text = format_table(table)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    _log(
        f"simulated {args.rows}x{args.cols} table: t1={t1(table)} t2={t2(table)} "
        f"u={u_stat(table)} uprime={u_prime_stat(table)}"
    )
    return 0


def cmd_stats(args) -> int:
    table = _read_table(args.table)
    _emit_json(
        {
            "schema": 1,
            "t1": t1(table),
            "t2": t2(table),
            "u": u_stat(table),
            "uprime": u_prime_stat(table),
            "rows": table.rows,
            "cols": table.cols,
        }
    )
    return 0


def cmd_test(args) -> int:
    table = _read_table(args.table)
    config = SamplerConfig(endgame_cells=args.endgame_cells)
    start = time.monotonic()
    report = run_exact_test(
        table,
        stat_name=args.stat,
        n_samples=args.samples,
        seed=args.seed,
        config=config,
        workers=args.threads,
        t1_override=args.t1,
        t2_override=args.t2,
    )
    elapsed = time.monotonic() - start
    # the statistical parameters are echoed; worker count is scheduling only
    config_echo = {
        "rows": table.rows,
        "cols": table.cols,
        "t1": args.t1 if args.t1 is not None else t1(table),
        "t2": args.t2 if args.t2 is not None else t2(table),
        "n_samples": args.samples,
        "stat": args.stat,
        **dataclasses.asdict(config),
    }
    _emit_json(report.json_payload(args.seed, config_echo))
    _log(
        f"test finished in {elapsed:.1f}s: delta={report.delta:.4f} "
        f"p1={report.p1:.6g} p2={report.p2:.6g} ess={report.ess:.1f}"
    )
    return 0


def cmd_enumerate(args) -> int:
    stats = SuffStats(args.t1, args.t2)
    summary = enumerate_fiber(args.rows, args.cols, stats, stat_name=args.stat)
    payload = {
        "schema": 1,
        "rows": args.rows,
        "cols": args.cols,
        "t1": args.t1,
        "t2": args.t2,
        "stat": args.stat,
        "size": summary.size,
        "histogram": {str(k): v for k, v in summary.stat_histogram.items()},
    }
    if args.observed is not None:
        p1, p2 = exact_pvalues(summary, args.observed)
        payload["observed"] = args.observed
        payload["p1"] = p1
        payload["p2"] = p2
    _emit_json(payload)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="isingfiber", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="draw an observed table by Gibbs sampling")
    sim_sub = sim.add_subparsers(dest="model", required=True)
    for name in ("ising", "autologistic"):
        p = sim_sub.add_parser(name)
        p.add_argument("--rows", type=int, required=True)
        p.add_argument("--cols", type=int, required=True)
        p.add_argument("--sweeps", type=int, default=DEFAULT_SWEEPS)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("-o", "--output", default=None)
        if name == "ising":
            p.add_argument("--alpha", type=float, required=True)
            p.add_argument("--beta", type=float, required=True)
        else:
            for b in range(5):
                p.add_argument(f"--b{b}", type=float, required=True)
        p.set_defaults(func=cmd_simulate)

    st = sub.add_parser("stats", help="window statistics of a table file")
    st.add_argument("table")
    st.set_defaults(func=cmd_stats)

    ts = sub.add_parser("test", help="sequential importance-sampling exact test")
    ts.add_argument("table")
    ts.add_argument("-n", "--samples", type=int, default=5000)
    ts.add_argument("--seed", type=int, default=0)
    ts.add_argument("--threads", type=int, default=1)
    ts.add_argument("--stat", choices=sorted(STATISTICS), default="u")
    ts.add_argument(
        "--endgame-cells",
        type=int,
        default=SamplerConfig.endgame_cells,
        help="endgame length: a cell followed by at most this many cells is screened "
        "exactly and weighted by completion counts where endgame.zone's table holds its "
        "state, with at most the zone's cap of ones left (default %(default)s); "
        "0 turns the endgame off",
    )
    ts.add_argument("--t1", type=int, default=None, help="override the conditioning t1")
    ts.add_argument("--t2", type=int, default=None, help="override the conditioning t2")
    ts.set_defaults(func=cmd_test)

    en = sub.add_parser("enumerate", help="exhaustive fiber count on small grids")
    en.add_argument("--rows", type=int, required=True)
    en.add_argument("--cols", type=int, required=True)
    en.add_argument("--t1", type=int, required=True)
    en.add_argument("--t2", type=int, required=True)
    en.add_argument("--stat", choices=sorted(STATISTICS), default="u")
    en.add_argument("--observed", type=int, default=None)
    en.set_defaults(func=cmd_enumerate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, CapExceededError, ValueError, OSError) as exc:
        _log(f"error: {exc}")
        return USAGE_EXIT
    except EmptyFiberSampleError as exc:
        _log(f"error: {exc}")
        return DEGENERATE_EXIT


if __name__ == "__main__":
    sys.exit(main())
