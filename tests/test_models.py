import math
from itertools import product

import numpy as np
import pytest
from scipy.stats import chi2

from isingfiber.grid import BinaryTable, t1, t2, topology
from isingfiber.models import (
    AutologisticParams,
    IsingParams,
    autologistic_logit,
    bernoulli_p,
    gibbs_autologistic,
    gibbs_ising,
    ising_logit,
)
from reference_gibbs import gibbs_autologistic as reference_autologistic
from reference_gibbs import gibbs_ising as reference_ising


def exact_ising_distribution(rows, cols, alpha, beta):
    """Brute-force table probabilities including the normalizing constant."""
    topo = topology(rows, cols)
    n = topo.n_cells
    weights = {}
    for bits in range(2**n):
        cells = tuple((bits >> k) & 1 for k in range(n))
        table = BinaryTable(rows, cols, cells)
        weights[cells] = math.exp(alpha * t1(table) + beta * t2(table))
    z = sum(weights.values())
    return {cells: w / z for cells, w in weights.items()}


class TestConditionals:
    def test_interior_logit_value(self):
        # alpha=-2, beta=0.1, interior cell with all four neighbors zero
        logit = ising_logit(IsingParams(-2.0, 0.1), 4, 0)
        assert logit == pytest.approx(-1.6)
        assert bernoulli_p(logit) == pytest.approx(0.1680, abs=5e-5)

    def test_logit_cross_derived_from_joint(self):
        # the conditional log-odds must match the joint probability ratio for
        # every configuration and cell on small grids
        for rows, cols in ((2, 2), (2, 3)):
            alpha, beta = -1.3, 0.4
            dist = exact_ising_distribution(rows, cols, alpha, beta)
            topo = topology(rows, cols)
            for cells in dist:
                for k in range(rows * cols):
                    on = tuple(1 if i == k else v for i, v in enumerate(cells))
                    off = tuple(0 if i == k else v for i, v in enumerate(cells))
                    s = sum(cells[j] for j in topo.neighbors[k])
                    expected = math.log(dist[on] / dist[off])
                    got = ising_logit(IsingParams(alpha, beta), len(topo.neighbors[k]), s)
                    assert got == pytest.approx(expected, abs=1e-12)

    def test_autologistic_example(self):
        # all eight surrounding cells equal to one
        params = AutologisticParams(-2.0, 0.2, -0.2, 0.2, -0.2)
        assert autologistic_logit(params, 2, 2, 2, 2) == pytest.approx(-2.0)

    def test_interior_ising_is_autologistic_special_case(self):
        # for an interior cell: alpha + 4*beta - 2*beta*(th + tv)
        alpha, beta = -1.1, 0.27
        params = AutologisticParams(alpha + 4 * beta, -2 * beta, -2 * beta, 0.0, 0.0)
        for th, tv in product((0, 1, 2), repeat=2):
            assert autologistic_logit(params, th, tv, 0, 0) == pytest.approx(
                ising_logit(IsingParams(alpha, beta), 4, th + tv)
            )

    def test_bernoulli_p_stability(self):
        assert bernoulli_p(800.0) == 1.0
        assert bernoulli_p(-800.0) == pytest.approx(0.0, abs=1e-300)
        assert bernoulli_p(0.0) == 0.5


class TestGibbsIsing:
    def test_seed_determinism(self):
        a = gibbs_ising(IsingParams(-2, 0.1), 5, 5, 50, np.random.default_rng(3))
        b = gibbs_ising(IsingParams(-2, 0.1), 5, 5, 50, np.random.default_rng(3))
        assert a == b

    def test_zero_parameters_give_fair_coins(self):
        # c = 0 for every cell, so each update is Bernoulli(1/2); with beta = 0
        # a single sweep already draws cells independently
        total = ones = 0
        for seed in range(400):
            table = gibbs_ising(IsingParams(0, 0), 5, 5, 1, np.random.default_rng((5, seed)))
            ones += t1(table)
            total += 25
        assert ones / total == pytest.approx(0.5, abs=0.01)

    def test_independent_cell_mean_matches_logistic(self):
        # beta = 0 reduces to iid Bernoulli(e^a / (1 + e^a))
        alpha = -1.2
        want = math.exp(alpha) / (1 + math.exp(alpha))
        total = ones = 0
        for seed in range(40):
            table = gibbs_ising(IsingParams(alpha, 0.0), 50, 50, 1, np.random.default_rng((6, seed)))
            ones += t1(table)
            total += 2500
        se = math.sqrt(want * (1 - want) / total)
        assert abs(ones / total - want) <= 3 * se

    def test_2x2_long_run_matches_exact_distribution(self):
        alpha, beta = -1.0, 0.3
        dist = exact_ising_distribution(2, 2, alpha, beta)
        counts = {cells: 0 for cells in dist}
        n = 12_000
        for seed in range(n):
            table = gibbs_ising(IsingParams(alpha, beta), 2, 2, 48, np.random.default_rng((7, seed)))
            counts[table.cells] += 1
        stat = sum(
            (counts[c] - n * p) ** 2 / (n * p) for c, p in dist.items()
        )
        assert chi2.sf(stat, df=len(dist) - 1) > 0.01

    def test_10x10_regime_sanity_band(self):
        # alpha=-2, beta=0.1 simulations land around 10-25 ones most of the time
        hits = 0
        for seed in range(10):
            table = gibbs_ising(IsingParams(-2, 0.1), 10, 10, 1001, np.random.default_rng((8, seed)))
            hits += 8 <= t1(table) <= 30
        assert hits >= 6

    def test_sweep_validation(self):
        with pytest.raises(ValueError):
            gibbs_ising(IsingParams(0, 0), 2, 2, 0, np.random.default_rng(0))

    def test_overflowing_parameters_raise(self):
        # finite parameters whose logits overflow: 2 * beta is inf and inf * 0
        # is NaN, which no uniform is below
        with pytest.raises(ValueError, match="NaN"):
            gibbs_ising(IsingParams(1e308, 1e308), 2, 2, 5, np.random.default_rng(0))
        # a logit of inf alone is a certain one, not an error
        table = gibbs_ising(IsingParams(1e308, 0.0), 2, 2, 5, np.random.default_rng(0))
        assert table.cells == (1, 1, 1, 1)


class TestGibbsAutologistic:
    def test_seed_determinism(self):
        p = AutologisticParams(-2, 0.2, -0.2, 0.2, -0.2)
        a = gibbs_autologistic(p, 5, 5, 50, np.random.default_rng(3))
        b = gibbs_autologistic(p, 5, 5, 50, np.random.default_rng(3))
        assert a == b

    def test_no_interactions_reduce_to_bernoulli(self):
        b0 = -0.7
        want = math.exp(b0) / (1 + math.exp(b0))
        total = ones = 0
        for seed in range(40):
            table = gibbs_autologistic(
                AutologisticParams(b0, 0, 0, 0, 0), 40, 40, 1, np.random.default_rng((9, seed))
            )
            ones += t1(table)
            total += 1600
        se = math.sqrt(want * (1 - want) / total)
        assert abs(ones / total - want) <= 3 * se

    def test_2x2_matches_ising_special_case(self):
        # on the 2x2 grid every cell has degree 2, so conditioning matches the
        # two-parameter model exactly with b0 = alpha + 2*beta, b1 = b2 = -2*beta
        alpha, beta = -0.6, 0.25
        params = AutologisticParams(alpha + 2 * beta, -2 * beta, -2 * beta, 0.0, 0.0)
        dist = exact_ising_distribution(2, 2, alpha, beta)
        counts = {cells: 0 for cells in dist}
        n = 12_000
        for seed in range(n):
            table = gibbs_autologistic(params, 2, 2, 48, np.random.default_rng((10, seed)))
            counts[table.cells] += 1
        stat = sum((counts[c] - n * p) ** 2 / (n * p) for c, p in dist.items())
        assert chi2.sf(stat, df=len(dist) - 1) > 0.01

    def test_overflowing_parameters_raise(self):
        # th * b1 + tv * b2 is inf - inf wherever both sums are positive
        params = AutologisticParams(0.0, 1e308, -1e308, 0.0, 0.0)
        with pytest.raises(ValueError, match="NaN"):
            gibbs_autologistic(params, 3, 3, 5, np.random.default_rng(0))

    def test_validation(self):
        with pytest.raises(ValueError):
            AutologisticParams(float("nan"), 0, 0, 0, 0)
        with pytest.raises(ValueError):
            IsingParams(float("inf"), 0)


class TestReferenceGibbs:
    """The shared sweep returns the tables of the two inline loops kept in
    reference_gibbs.py, bit for bit, for the same generator state."""

    @staticmethod
    def assert_same(sample, reference, params, rows, cols, sweeps, seed):
        # the same table, and the generator left where the reference leaves it
        rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        assert sample(params, rows, cols, sweeps, rng) == reference(
            params, rows, cols, sweeps, reference_rng
        )
        assert rng.random() == reference_rng.random()

    @pytest.mark.parametrize(
        "size, alpha, draws", [(10, -2.0, range(8)), (20, -3.0, range(3))], ids=["10x10", "20x20"]
    )
    def test_bench_tables(self, size, alpha, draws):
        for i in draws:
            self.assert_same(
                gibbs_ising, reference_ising, IsingParams(alpha, 0.1), size, size, 1001, (99, i)
            )

    @pytest.mark.parametrize("rows, cols", [(1, 1), (1, 7), (7, 1), (2, 2), (3, 5)])
    @pytest.mark.parametrize("sweeps", [1, 64])
    def test_small_shapes(self, rows, cols, sweeps):
        ising = [IsingParams(-2.0, 0.1), IsingParams(0.3, -0.45)]
        # logits of +-800 take bernoulli_p's overflow-safe branch; 200*4 = 800
        ising += [IsingParams(800.0, 0.0), IsingParams(-800.0, 0.0), IsingParams(0.0, 200.0)]
        for params in ising:
            self.assert_same(gibbs_ising, reference_ising, params, rows, cols, sweeps, (11, rows, cols))
        autologistic = [AutologisticParams(-2.0, 0.2, -0.2, 0.2, -0.2), AutologisticParams(0.1, 1.3, -0.7, 0.4, 2.2)]
        autologistic += [AutologisticParams(-800.0, 0, 0, 0, 0), AutologisticParams(0.0, 400.0, -400.0, 200.0, -200.0)]
        for params in autologistic:
            self.assert_same(
                gibbs_autologistic, reference_autologistic, params, rows, cols, sweeps, (12, rows, cols)
            )

    def test_criterion_8_tables(self):
        params = AutologisticParams(-2.0, 0.2, -0.2, 0.2, -0.2)
        for i in range(2):
            self.assert_same(gibbs_autologistic, reference_autologistic, params, 20, 20, 1001, (801, i))

    @pytest.mark.parametrize("sweeps", [1, 40, 301])
    def test_dense_parameters(self, sweeps):
        # strong coupling puts most cells' uniforms between their lowest and
        # highest conditional, so the raster order settles most of them
        cases = [(IsingParams(0.0, 0.5), 8, 8), (IsingParams(0.3, -0.4), 6, 6), (IsingParams(-1.0, 0.8), 5, 9)]
        for params, rows, cols in cases:
            self.assert_same(gibbs_ising, reference_ising, params, rows, cols, sweeps, (13, rows, sweeps))
        for params in (AutologisticParams(0.0, 0.6, -0.6, 0.5, -0.5), AutologisticParams(-0.4, 1.0, 1.0, -0.8, 0.3)):
            self.assert_same(
                gibbs_autologistic, reference_autologistic, params, 7, 6, sweeps, (14, sweeps)
            )

    @pytest.mark.parametrize("rows, cols", [(20, 20), (8, 8), (7, 9), (1, 200)])
    def test_sweep_counts_around_a_chunk(self, rows, cols):
        # the uniforms come in chunks of whole sweeps; a run that ends one
        # sweep before, at or after a chunk boundary draws the same stream
        import isingfiber.models as models

        chunk = models._CHUNK_CELLS // (rows * cols)
        assert chunk > 1
        for sweeps in (chunk - 1, chunk, chunk + 1, 2 * chunk + 1):
            self.assert_same(
                gibbs_ising, reference_ising, IsingParams(-0.5, 0.4), rows, cols, sweeps, (15, sweeps)
            )
            self.assert_same(
                gibbs_autologistic,
                reference_autologistic,
                AutologisticParams(-0.5, 0.4, 0.3, -0.3, 0.2),
                rows,
                cols,
                sweeps,
                (16, sweeps),
            )

    def test_the_checked_conditionals_drive_the_sweep(self, monkeypatch):
        # with each helper's log-odds negated, the drawn tables change: the
        # helpers checked against the joint distribution above are the code
        # that runs
        import isingfiber.models as models

        ising, autologistic = IsingParams(-2.0, 0.1), AutologisticParams(-2.0, 0.2, -0.2, 0.2, -0.2)
        before = [
            gibbs_ising(ising, 5, 5, 3, np.random.default_rng(1)),
            gibbs_autologistic(autologistic, 5, 5, 3, np.random.default_rng(1)),
        ]
        logit, auto_logit = models.ising_logit, models.autologistic_logit
        monkeypatch.setattr(models, "ising_logit", lambda *args: -logit(*args))
        monkeypatch.setattr(models, "autologistic_logit", lambda *args: -auto_logit(*args))
        after = [
            gibbs_ising(ising, 5, 5, 3, np.random.default_rng(1)),
            gibbs_autologistic(autologistic, 5, 5, 3, np.random.default_rng(1)),
        ]
        assert t1(after[0]) > t1(before[0]) and t1(after[1]) > t1(before[1])
