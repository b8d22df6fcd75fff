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
    """The arguments of every simplex solve the LP makes, (c, A_ub, b_ub,
    A_eq, b_eq): each cutlp entry solves through cutlp's solve_canonical."""
    import isingfiber.cutlp as cutlp

    calls = []
    solve = cutlp.solve_canonical
    monkeypatch.setattr(cutlp, "solve_canonical", lambda *args: calls.append(args) or solve(*args))
    return calls


@pytest.fixture
def row_tables(monkeypatch):
    """The arguments of every row table run_trial builds."""
    import isingfiber.sampler as sampler

    builds = []
    build = sampler.row_endgame
    monkeypatch.setattr(sampler, "row_endgame", lambda *args: builds.append(args) or build(*args))
    return builds


class _CountedLevel:
    """An endgame level's index that records each lookup."""

    def __init__(self, level, lookups):
        self.level, self.lookups = level, lookups

    def __getitem__(self, index):
        self.lookups.append(index)
        return self.level[index]


@pytest.fixture
def lookups(monkeypatch):
    """Every lookup run_trial makes in a narrow endgame table."""
    import isingfiber.sampler as sampler

    made = []
    zone = sampler.zone

    def counted(*args):
        reach, cap, levels = zone(*args)
        if levels is None:
            return reach, cap, None
        return reach, cap, tuple((_CountedLevel(index, made), counts) for index, counts in levels)

    monkeypatch.setattr(sampler, "zone", counted)
    return made
