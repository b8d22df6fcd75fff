"""Exact conditional tests for 2-D Ising models via sequential importance sampling."""

from .grid import (
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
from .cutlp import CellBounds, cell_bounds
from .inference import TestReport, run_exact_test
from .models import AutologisticParams, IsingParams, gibbs_autologistic, gibbs_ising
from .oracle import FiberSummary, enumerate_fiber, exact_pvalues
from .sampler import Draw, SamplerConfig, replay_log_q

__version__ = "0.1.0"

__all__ = [
    "AutologisticParams",
    "BinaryTable",
    "CellBounds",
    "Draw",
    "FiberSummary",
    "IsingParams",
    "ParseError",
    "SamplerConfig",
    "SuffStats",
    "TestReport",
    "cell_bounds",
    "enumerate_fiber",
    "exact_pvalues",
    "format_table",
    "gibbs_autologistic",
    "gibbs_ising",
    "parse_table",
    "replay_log_q",
    "run_exact_test",
    "t1",
    "t2",
    "u_prime_stat",
    "u_stat",
]
