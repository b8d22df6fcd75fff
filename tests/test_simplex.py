import numpy as np
import pytest
from scipy.optimize import linprog

from isingfiber.simplex import solve_canonical


def with_upper_bounds(A_ub, b_ub, ub):
    """A_ub and b_ub with a row x_j <= ub_j appended for each variable."""
    return np.vstack([A_ub, np.eye(len(ub))]), np.concatenate([b_ub, ub])


def _solve(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None, ub=None):
    n = len(c)
    A_ub = np.zeros((0, n)) if A_ub is None else np.asarray(A_ub, dtype=float)
    b_ub = np.zeros(0) if b_ub is None else np.asarray(b_ub, dtype=float)
    A_eq = np.zeros((0, n)) if A_eq is None else np.asarray(A_eq, dtype=float)
    b_eq = np.zeros(0) if b_eq is None else np.asarray(b_eq, dtype=float)
    if ub is not None:
        A_ub, b_ub = with_upper_bounds(A_ub, b_ub, np.asarray(ub, dtype=float))
    return solve_canonical(np.asarray(c, dtype=float), A_ub, b_ub, A_eq, b_eq)


def test_box_only():
    res = _solve([1.0], ub=[1.0])
    assert res.status == "optimal"
    assert res.value == pytest.approx(0.0, abs=1e-9)


def test_lower_bounded_interval():
    # min x subject to x >= 0.3, x <= 1
    res = _solve([1.0], A_ub=[[-1.0]], b_ub=[-0.3], ub=[1.0])
    assert res.status == "optimal"
    assert res.value == pytest.approx(0.3, abs=1e-9)


def test_infeasible():
    res = _solve([1.0], A_ub=[[-1.0], [1.0]], b_ub=[-2.0, 1.0])
    assert res.status == "infeasible"


def test_unbounded():
    res = _solve([-1.0])
    assert res.status == "unbounded"


def test_equality_and_solution_vector():
    # min x0 + x1 st x0 + x1 = 1, x0 - x1 <= 0, 0 <= x <= 1
    res = _solve([1.0, 2.0], A_ub=[[1.0, -1.0]], b_ub=[0.0], A_eq=[[1.0, 1.0]], b_eq=[1.0], ub=[1, 1])
    assert res.status == "optimal"
    assert res.x @ np.ones(2) == pytest.approx(1.0, abs=1e-9)
    assert res.value == pytest.approx(1.5, abs=1e-9)


def test_degenerate_cycling_guard():
    # Beale's classic cycling example for steepest-descent pivoting
    c = [-0.75, 150.0, -0.02, 6.0]
    A_ub = [
        [0.25, -60.0, -0.04, 9.0],
        [0.5, -90.0, -0.02, 3.0],
        [0.0, 0.0, 1.0, 0.0],
    ]
    b_ub = [0.0, 0.0, 1.0]
    res = _solve(c, A_ub=A_ub, b_ub=b_ub)
    assert res.status == "optimal"
    assert res.value == pytest.approx(-0.05, abs=1e-9)


def test_determinism():
    rng = np.random.default_rng(3)
    c = rng.normal(size=6)
    A = rng.integers(-2, 3, size=(5, 6)).astype(float)
    b = rng.integers(0, 5, size=5).astype(float)
    first = _solve(c, A_ub=A, b_ub=b, ub=np.ones(6))
    second = _solve(c, A_ub=A, b_ub=b, ub=np.ones(6))
    assert first.status == second.status
    assert first.value == second.value
    assert np.array_equal(first.x, second.x)


def test_random_against_scipy():
    rng = np.random.default_rng(0)
    status_names = {0: "optimal", 2: "infeasible", 3: "unbounded"}
    for _ in range(150):
        n = int(rng.integers(1, 8))
        m_ub = int(rng.integers(0, 6))
        m_eq = int(rng.integers(0, 3))
        A_ub = rng.integers(-3, 4, (m_ub, n)).astype(float)
        b_ub = rng.integers(-2, 6, m_ub).astype(float)
        A_eq = rng.integers(-3, 4, (m_eq, n)).astype(float)
        b_eq = rng.integers(-2, 4, m_eq).astype(float)
        ub = rng.choice([0.5, 1.0, 2.0], n)
        c = rng.integers(-4, 5, n).astype(float)
        res = solve_canonical(c, *with_upper_bounds(A_ub, b_ub, ub), A_eq, b_eq)
        ref = linprog(
            c,
            A_ub=A_ub if m_ub else None,
            b_ub=b_ub if m_ub else None,
            A_eq=A_eq if m_eq else None,
            b_eq=b_eq if m_eq else None,
            bounds=[(0, u) for u in ub],
            method="highs",
        )
        assert res.status == status_names.get(ref.status), (res.status, ref.status)
        if res.status == "optimal":
            assert res.value == pytest.approx(ref.fun, abs=1e-7)
            # the returned point must itself be feasible
            assert (A_ub @ res.x <= b_ub + 1e-7).all()
            assert np.allclose(A_eq @ res.x, b_eq, atol=1e-7)
            assert (res.x >= -1e-9).all() and (res.x <= ub + 1e-7).all()
