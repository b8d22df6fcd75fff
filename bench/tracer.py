"""Per-layer tracing from outside the package.

Each traced function is replaced on the module whose global the caller looks
up (for example `isingfiber.inference.run_trial`, which `_run_range` calls),
and put back when the `installed` context ends. Tests and LP solves are
recorded as spans, held in memory and written out at the end; the per-trial
calls (run_trial, uniform_rows, the window statistics) are only aggregated
into call counts and summed seconds, so no per-cell span is ever made.
"""

from __future__ import annotations

import contextlib
import json
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.calls: dict[str, int] = {}
        self.seconds: dict[str, float] = {}
        self.trials = 0
        self.accepted = 0
        self.wasted_cells = 0
        self.lp_infeasible = 0
        self._stack: list[int] = []
        self.test_id = None  # [round, test index] while a test runs

    # -- recording

    def _add(self, name: str, dt: float) -> None:
        self.calls[name] = self.calls.get(name, 0) + 1
        self.seconds[name] = self.seconds.get(name, 0.0) + dt

    @contextlib.contextmanager
    def span(self, name: str):
        span_id = len(self.spans)
        record = {
            "id": span_id,
            "parent": self._stack[-1] if self._stack else None,
            "test": self.test_id,
            "name": name,
        }
        self.spans.append(record)
        self._stack.append(span_id)
        start = perf_counter()
        try:
            yield record
        finally:
            end = perf_counter()
            self._stack.pop()
            record["start"], record["end"] = start, end
            self._add(name, end - start)

    def counted(self, name: str, fn):
        """Wrap fn so each call adds to the layer's call count and seconds."""

        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._add(name, perf_counter() - start)

        return wrapper

    def spanned(self, name: str, fn):
        """Wrap fn so each call is one span."""

        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    # -- the package's layers

    def _run_trial(self, fn):
        counted = self.counted("sampler.run_trial", fn)

        def wrapper(*args, **kwargs):
            draw = counted(*args, **kwargs)
            self.trials += 1
            if draw.accepted:
                self.accepted += 1
            else:
                self.wasted_cells += draw.stage
            return draw

        return wrapper

    def _lp(self, fn):
        def wrapper(*args, **kwargs):
            with self.span("cutlp.state_lp_feasible") as record:
                ok = fn(*args, **kwargs)
                record["feasible"] = ok
            if not ok:
                self.lp_infeasible += 1
            return ok

        return wrapper

    @contextlib.contextmanager
    def installed(self, isingfiber):
        """Replace the traced attributes for the duration of the block."""
        inference, sampler, cutlp = isingfiber.inference, isingfiber.sampler, isingfiber.cutlp
        patches = [
            (inference, "collect_trials", lambda f: self.spanned("inference.collect_trials", f)),
            (inference, "report_from_batch", lambda f: self.spanned("inference.report_from_batch", f)),
            (inference, "run_trial", self._run_trial),
            (inference, "uniform_rows", lambda f: self.counted("sampler.uniform_rows", f)),
            (inference, "u_stat", lambda f: self.counted("grid.window_stats", f)),
            (inference, "u_prime_stat", lambda f: self.counted("grid.window_stats", f)),
            (sampler, "state_lp_feasible", self._lp),
            (cutlp, "solve_canonical", lambda f: self.spanned("simplex.solve_canonical", f)),
            (isingfiber.models, "gibbs_ising", lambda f: self.counted("models.gibbs", f)),
            (isingfiber.grid, "topology", lambda f: self.counted("grid.topology", f)),
        ]
        originals = [(module, attr, getattr(module, attr)) for module, attr, _ in patches]
        try:
            for module, attr, wrap in patches:
                setattr(module, attr, wrap(getattr(module, attr)))
            yield self
        finally:
            for module, attr, original in originals:
                setattr(module, attr, original)

    @contextlib.contextmanager
    def test(self, isingfiber, test_id):
        """Trace one test: wrappers installed, one span around it."""
        self.test_id = test_id
        with self.installed(isingfiber), self.span("test"):
            yield

    # -- reporting

    def total(self, name: str) -> float:
        return self.seconds.get(name, 0.0)

    def count(self, name: str) -> int:
        return self.calls.get(name, 0)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {"spans": self.spans, "calls": self.calls, "seconds": self.seconds},
                fh,
            )
