"""The package surface that the benchmark harness under bench/ relies on.

bench/tracer.py replaces package attributes by name while a test runs and
counts trials through inference.run_trial, and bench/worker.py regenerates
single trials with the sampler's positional call forms. Both read the Draw
a trial returns: the tracer its `accepted` bool and a rejection's `stage`,
an int it adds to the wasted cells, and the worker `table.cells`, a tuple
of 0/1, and the float `log_q`. A change that drops one of those attributes,
changes what the Draw holds, or stops calling inference.run_trial once per
trial, breaks the traced benchmark run; these tests catch it here. They load
the tracer from bench/ and only read it.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

import isingfiber
from isingfiber import inference, sampler
from isingfiber.grid import BinaryTable, SuffStats, t1, t2
from isingfiber.models import IsingParams, gibbs_ising

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"

# the (module, attribute) pairs that Tracer.installed replaces
TRACED = [
    ("inference", "collect_trials"),
    ("inference", "report_from_batch"),
    ("inference", "run_trial"),
    ("inference", "uniform_rows"),
    ("inference", "u_stat"),
    ("inference", "u_prime_stat"),
    ("sampler", "state_lp_feasible"),  # a None placeholder that nothing calls
    ("cutlp", "solve_canonical"),
    ("models", "gibbs_ising"),
    ("grid", "topology"),
]


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


def attributes():
    return {(mod, attr): getattr(getattr(isingfiber, mod), attr) for mod, attr in TRACED}


@pytest.fixture(scope="module")
def tables():
    # 20 columns take the row endgame; 3x3 the narrow table and the step cache
    ising = gibbs_ising(IsingParams(-3.0, 0.1), 20, 20, rng=np.random.default_rng((99, 0)))
    return {"20x20": ising, "3x3": BinaryTable(3, 3, (1, 0, 0, 0, 1, 1, 0, 1, 0))}


@pytest.mark.parametrize("shape, trials", [("20x20", 30), ("3x3", 48)])
def test_traced_run_counts_every_trial(tables, shape, trials):
    table = tables[shape]
    untraced = inference.run_exact_test(table, "u", trials, 7)
    originals = attributes()
    tracer = load_tracer()()
    with tracer.test(isingfiber, [0, 0]):
        assert all(attributes()[key] is not fn for key, fn in originals.items())
        traced = inference.run_exact_test(table, "u", trials, 7)
    assert attributes() == originals
    assert tracer.trials == trials
    assert tracer.accepted == traced.n_accepted
    assert repr(traced) == repr(untraced)


@pytest.mark.parametrize("shape", ["20x20", "3x3"])
def test_worker_call_forms(tables, shape):
    table = tables[shape]
    rows, cols, n_cells = table.rows, table.cols, table.rows * table.cols
    stats, config, seed = SuffStats(t1(table), t2(table)), sampler.SamplerConfig(), 5
    batch = inference.collect_trials(rows, cols, stats, config, seed, 6)
    accepted = 0
    memo = {}  # one memo for every replay of the shape
    for i in range(6):
        uniforms = sampler.uniform_rows(seed, n_cells, i, 1)[0]
        draw = sampler.run_trial(rows, cols, stats, config, uniforms, {}, None)
        assert type(draw.accepted) is bool and draw.accepted == batch.accepted[i]
        if draw.accepted:
            accepted += 1
            cells = draw.table.cells
            assert type(cells) is tuple and len(cells) == n_cells and set(cells) <= {0, 1}
            assert type(draw.log_q) is float and draw.log_q == batch.log_q[i]
            # the worker's 3-positional call, and the call that shares a memo
            assert sampler.replay_log_q(draw.table, stats, config) == draw.log_q
            assert sampler.replay_log_q(draw.table, stats, config, memo).hex() == draw.log_q.hex()
        else:
            assert type(draw.stage) is int and draw.stage == batch.stage[i]
    assert accepted
    assert list(memo) == [(rows, cols)]
    # no (2, 2) table exists, so the trial rejects; the tracer's wrapper adds
    # its stage, the cell where it died, to the wasted cells
    tracer = load_tracer()()
    traced = tracer._run_trial(sampler.run_trial)
    draw = traced(rows, cols, SuffStats(2, 2), config, uniforms, {}, None)
    assert draw.accepted is False and draw.log_q is None and draw.table is None
    assert type(draw.stage) is int and 0 <= draw.stage <= n_cells
    assert (tracer.trials, tracer.accepted, tracer.wasted_cells) == (1, 0, draw.stage)


def test_traced_gibbs_set_up(tables):
    # bench/worker.py draws its Ising tables through the traced attribute,
    # with this call form, while the tracer is installed
    tracer = load_tracer()()
    with tracer.installed(isingfiber):
        traced = isingfiber.models.gibbs_ising(
            IsingParams(-3.0, 0.1), 20, 20, rng=np.random.default_rng((99, 0))
        )
    assert traced == tables["20x20"]
    assert tracer.count("models.gibbs") == 1
