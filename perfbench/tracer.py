"""Spans around the program's public functions, for the traced run.

The tracer replaces each target function, under every ``kanbench`` module
that binds it, with a wrapper that records a span: name, start, end, parent
span and a work count. Each thread keeps its own parent stack, so calls made
by ``run_matrix``'s worker threads nest under their own experiment. Spans
stay in memory until :meth:`Tracer.write` and are aggregated afterwards:
a span's self time is its duration minus the time its child spans cover.
"""

import contextlib
import functools
import gzip
import sys
import threading
import time
from collections import defaultdict

import numpy as np


def _rows(args, kwargs, result):
    return len(args[1] if len(args) > 1 else kwargs["inputs"])


def _size(args, kwargs, result):
    return int(np.size(result))


def _len(args, kwargs, result):
    return len(result)


def _horizon(args, kwargs, result):
    return int(result.horizon)


# (span name, home module, function, work count or "cpu")
TARGETS = (
    ("numcore.sigmoid", "kanbench.numcore", "sigmoid", _size),
    ("bspline.basis_matrix", "kanbench.bspline", "basis_matrix", _len),
    ("bspline.basis_grad_matrix", "kanbench.bspline", "basis_grad_matrix", _len),
    ("kan.kan_backward", "kanbench.kan", "kan_backward", _rows),
    ("kan.kan_forward_batch", "kanbench.kan", "kan_forward_batch", _size),
    ("lstm.lstm_loss_and_grad", "kanbench.lstm", "lstm_loss_and_grad", _rows),
    ("lstm.lstm_forward_batch", "kanbench.lstm", "lstm_forward_batch", _size),
    ("optim.train", "kanbench.optim", "train", None),
    ("optim.lbfgs_step", "kanbench.optim", "lbfgs_step", None),
    ("optim.adam_step", "kanbench.optim", "adam_step", None),
    ("forecast.iterative_forecast_batch", "kanbench.forecast", "iterative_forecast_batch", _size),
    ("forecast.iterative_forecast", "kanbench.forecast", "iterative_forecast", _horizon),
    ("data.gen_synthetic", "kanbench.data", "gen_synthetic", _len),
    ("data.load_csv", "kanbench.data", "load_csv", _len),
    ("bench.prepare", "kanbench.bench", "prepare", None),
    ("bench.run_experiment", "kanbench.bench", "run_experiment", None),
    ("bench.run_matrix", "kanbench.bench", "run_matrix", "cpu"),
)

LOSS_AND_GRAD = ("kan.kan_backward", "lstm.lstm_loss_and_grad")

# Per-layer metrics, each "<span>.<quantity>"; their order is the output order.
PER_LAYER = (
    ("numcore.sigmoid.calls", "count"), ("numcore.sigmoid.elements", "count"),
    ("numcore.sigmoid.self_s", "s"),
    ("bspline.basis_matrix.calls", "count"), ("bspline.basis_matrix.points", "count"),
    ("bspline.basis_matrix.self_s", "s"),
    ("bspline.basis_grad_matrix.calls", "count"), ("bspline.basis_grad_matrix.points", "count"),
    ("bspline.basis_grad_matrix.self_s", "s"),
    ("kan.kan_backward.calls", "count"), ("kan.kan_backward.rows", "count"),
    ("kan.kan_backward.self_s", "s"),
    ("kan.kan_forward_batch.calls", "count"), ("kan.kan_forward_batch.rows", "count"),
    ("kan.kan_forward_batch.self_s", "s"),
    ("lstm.lstm_loss_and_grad.calls", "count"), ("lstm.lstm_loss_and_grad.rows", "count"),
    ("lstm.lstm_loss_and_grad.self_s", "s"),
    ("lstm.lstm_forward_batch.calls", "count"), ("lstm.lstm_forward_batch.rows", "count"),
    ("lstm.lstm_forward_batch.self_s", "s"),
    ("optim.train.calls", "count"), ("optim.train.total_s", "s"),
    ("optim.lbfgs_step.calls", "count"), ("optim.lbfgs.evals", "count"),
    ("optim.adam_step.calls", "count"), ("optim.adam_step.self_s", "s"),
    ("forecast.iterative_forecast_batch.calls", "count"),
    ("forecast.iterative_forecast_batch.window_steps", "count"),
    ("forecast.iterative_forecast_batch.total_s", "s"),
    ("forecast.iterative_forecast.calls", "count"), ("forecast.iterative_forecast.steps", "count"),
    ("forecast.iterative_forecast.total_s", "s"),
    ("data.gen_synthetic.self_s", "s"),
    ("data.load_csv.rows", "count"), ("data.load_csv.self_s", "s"),
    ("bench.prepare.total_s", "s"),
    ("bench.run_experiment.calls", "count"), ("bench.run_experiment.total_s", "s"),
    ("bench.run_matrix.wall_s", "s"), ("bench.run_matrix.cpu_s", "s"),
    ("bench.run_matrix.parallelism", "ratio"),
    ("cli.startup_s", "s"),
    ("cli.gen-data.total_s", "s"), ("cli.train.total_s", "s"), ("cli.benchmark.total_s", "s"),
    ("cli.forecast.total_s", "s"), ("cli.report.total_s", "s"),
    ("trace.untraced_run_s", "s"), ("trace.traced_run_s", "s"), ("trace.overhead_s", "s"),
)


class Tracer:
    def __init__(self):
        # Each span is [name, start, end, parent span or None, work, child seconds, thread].
        self.spans = []
        self.missing = set()  # targets that no longer exist in the program
        self._local = threading.local()
        self._patched = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name):
        stack = self._stack()
        parent = stack[-1] if stack else None
        rec = [name, time.perf_counter(), 0.0, parent, 0, 0.0, threading.get_ident()]
        self.spans.append(rec)
        stack.append(rec)
        return rec

    def _close(self, rec):
        rec[2] = time.perf_counter()
        self._stack().pop()
        if rec[3] is not None:
            rec[3][5] += rec[2] - rec[1]

    @contextlib.contextmanager
    def span(self, name):
        """A span around the benchmark's own code, such as one CLI command."""
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    def wrap(self, name, fn, work):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name)
            cpu0 = time.process_time() if work == "cpu" else 0.0
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if work == "cpu":
                rec[4] = time.process_time() - cpu0
            elif work is not None:
                rec[4] = work(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Patch every target under every kanbench module that binds it."""
        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "kanbench"]
        for name, home, attr, work in TARGETS:
            original = getattr(sys.modules.get(home), attr, None)
            if not callable(original):
                self.missing.add(name)
                continue
            traced = self.wrap(name, original, work)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)
                        self._patched.append((module, key, original))

    def uninstall(self):
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def aggregate(self) -> dict:
        """name -> {calls, total_s, self_s, work}; plus L-BFGS evaluations."""
        agg = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": 0})
        lbfgs_evals = 0
        for name, start, end, parent, work, child_s, _ in self.spans:
            a = agg[name]
            a["calls"] += 1
            a["total_s"] += end - start
            a["self_s"] += end - start - child_s
            a["work"] += work
            if name in LOSS_AND_GRAD and parent is not None and parent[0] == "optim.lbfgs_step":
                lbfgs_evals += 1
        agg["optim.lbfgs"]["calls"] = agg["optim.lbfgs_step"]["calls"]
        agg["optim.lbfgs"]["work"] = lbfgs_evals
        return dict(agg)

    def metrics(self, expected, extra) -> dict:
        """Every PER_LAYER metric, as {"value", "unit"}.

        `extra` holds the metrics measured outside the spans. A span in
        `expected` (the workload drives it) with no call, or a target missing
        from the program, is reported as unobserved: its calls happened where
        the tracer could not see them, so zero would be false.
        """
        agg = self.aggregate()
        empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": 0}
        out = {}
        for name, unit in PER_LAYER:
            if name in extra:
                out[name] = {"value": extra[name], "unit": unit}
                continue
            span, quantity = name.rsplit(".", 1)
            a = agg.get(span, empty)
            source = "optim.lbfgs_step" if span == "optim.lbfgs" else span
            unseen = source in expected and agg.get(source, empty)["calls"] == 0
            if source in self.missing or unseen:
                out[name] = {"value": None, "unit": unit, "status": "unobserved"}
            elif quantity in ("calls", "self_s", "total_s"):
                out[name] = {"value": a[quantity], "unit": unit}
            elif quantity == "wall_s":
                out[name] = {"value": a["total_s"], "unit": unit}
            elif quantity == "parallelism":  # CPU seconds over wall seconds
                value = a["work"] / a["total_s"] if a["total_s"] else 0.0
                out[name] = {"value": value, "unit": unit}
            else:  # cpu_s, evals and the work counts
                out[name] = {"value": a["work"], "unit": unit}
        return out

    def write(self, path) -> None:
        """All spans as gzipped TSV: id, name, start, end, parent id, thread."""
        ids = {id(rec): i for i, rec in enumerate(self.spans)}
        t0 = min((rec[1] for rec in self.spans), default=0.0)
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("id\tname\tstart_s\tend_s\tparent\tthread\n")
            for i, (name, start, end, parent, _, _, tid) in enumerate(self.spans):
                pid = ids[id(parent)] if parent is not None else -1
                fh.write(f"{i}\t{name}\t{start - t0:.9f}\t{end - t0:.9f}\t{pid}\t{tid}\n")
