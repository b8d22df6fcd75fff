"""Shared helpers: naive reference implementations and small-fiber utilities.

The reference statistics deliberately use direct quadruple loops over (i, j)
positions so they stay independent of the production code paths.
"""

import numpy as np
import pytest

from isingfiber.grid import BinaryTable


def naive_t1(rows):
    return sum(v for row in rows for v in row)


def naive_t2(rows):
    m, n = len(rows), len(rows[0])
    count = 0
    for i in range(m):
        for j in range(n):
            if j + 1 < n and rows[i][j] != rows[i][j + 1]:
                count += 1
            if i + 1 < m and rows[i][j] != rows[i + 1][j]:
                count += 1
    return count


def naive_u(rows):
    m, n = len(rows), len(rows[0])
    count = 0
    for i in range(m - 1):
        for j in range(n - 1):
            w = (rows[i][j], rows[i][j + 1], rows[i + 1][j], rows[i + 1][j + 1])
            if w == (1, 0, 0, 1) or w == (0, 1, 1, 0):
                count += 1
    return count


def naive_u_prime(rows):
    m, n = len(rows), len(rows[0])
    count = 0
    for i in range(m - 1):
        for j in range(n - 1):
            if (rows[i][j], rows[i][j + 1], rows[i + 1][j], rows[i + 1][j + 1]) == (0, 0, 1, 1):
                count += 1
    return count


def table_from_bits(rows, cols, bits):
    return BinaryTable(rows, cols, tuple((bits >> k) & 1 for k in range(rows * cols)))


def random_tables(rows, cols, count, seed):
    rng = np.random.default_rng(seed)
    draws = rng.integers(0, 2, size=(count, rows * cols))
    return [BinaryTable(rows, cols, tuple(int(v) for v in row)) for row in draws]


@pytest.fixture(scope="session")
def fibers_3x3():
    from isingfiber.oracle import nonempty_fibers

    return nonempty_fibers(3, 3)


@pytest.fixture
def lp_calls(monkeypatch):
    """Every state_lp_feasible call, made through the sampler's attribute or
    cutlp's."""
    import isingfiber.cutlp as cutlp
    import isingfiber.sampler as sampler

    calls = []
    for module in (sampler, cutlp):
        solve = module.state_lp_feasible
        monkeypatch.setattr(
            module, "state_lp_feasible", lambda *key, solve=solve: calls.append(key) or solve(*key)
        )
    return calls


@pytest.fixture
def row_tables(monkeypatch):
    """The arguments of every row table run_trial builds."""
    import isingfiber.sampler as sampler

    builds = []
    build = sampler.row_endgame
    monkeypatch.setattr(sampler, "row_endgame", lambda *args: builds.append(args) or build(*args))
    return builds
