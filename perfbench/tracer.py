"""Per-module spans recorded from outside the package.

A traced pass replaces chosen public functions of each ``glohage`` module
with a timing shim and puts the originals back afterwards. Inside the
package every caller looks these functions up as module attributes at
call time (``mtl.fit_for_budget`` calls ``solve``, ``pipeline.evaluate_lopo``
calls ``ridge.fit_model``), so the shims see every call and the package
itself stays untouched.

Spans are kept in memory: name, start, end, parent span, and the time its
direct children covered. Bookkeeping that is not the program's work (the
duality gap the benchmark computes after each ``fit_for_budget``) runs
with the clock paused, so it shows in no span and not in the traced wall
time.
"""

import functools
import importlib
import os
import time
from collections import defaultdict

import numpy as np

# The functions the per-layer metrics need, plus every package function the
# CLI calls directly, so that cli.self_s is the CLI's own time. Functions
# called once per solver iteration (mtl.penalty, mtl.objective) are not
# wrapped: the shim would cost more than the work it times.
TRACED = {
    "pgm": ("load_pgm",),
    "gloh": ("extract_gloh", "compute_gradients", "patch_grid"),
    "featfile": ("read_features", "write_features"),
    "dataset": ("parse_manifest", "partition_by_task"),
    "mtl": ("lambda_max", "fit_for_budget", "solve", "read_selection",
            "write_selection"),
    "ridge": ("fit_model", "select_alpha", "fit_ridge", "read_model",
              "write_model"),
    "pipeline": ("extract_features", "select_bins", "train_model",
                 "predict_rows", "evaluate_lopo"),
    "metrics": ("aggregate", "write_report"),
    "cli": ("main",),
}

SUPPORT_EPS = 1e-8  # fit_for_budget's default row-norm threshold


class Span:
    __slots__ = ("name", "parent", "start", "end", "child", "items", "arg")

    def __init__(self, name, parent, start):
        self.name, self.parent, self.start = name, parent, start
        self.end = start
        self.child = 0.0  # time covered by direct child spans
        self.items = 0  # bytes or rows handled, where a hook counts them
        self.arg = None

    @property
    def dur(self):
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans = []
        self.fits = []  # one (solves run, useful solves, support, rel gap) per fit
        self._stack = []
        self._paused = 0.0
        self._saved = []
        self._hooks = {
            "featfile.read_features": self._file_bytes,
            "featfile.write_features": self._file_bytes,
            "pipeline.predict_rows": self._rows_predicted,
            "mtl.solve": self._solve_support,
            "mtl.fit_for_budget": self._fit_stats,
        }

    def now(self):
        return time.perf_counter() - self._paused

    def install(self):
        for mod_name, names in TRACED.items():
            mod = importlib.import_module(f"glohage.{mod_name}")
            for fn_name in names:
                fn = getattr(mod, fn_name, None)
                if fn is None:
                    continue
                self._saved.append((mod, fn_name, fn))
                setattr(mod, fn_name, self._wrap(f"{mod_name}.{fn_name}", fn))

    def restore(self):
        for mod, fn_name, fn in reversed(self._saved):
            setattr(mod, fn_name, fn)
        self._saved.clear()

    def _wrap(self, name, fn):
        hook = self._hooks.get(name)

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            span = Span(name, parent, self.now())
            self._stack.append(index)
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span.end = self.now()
                if parent >= 0:
                    self.spans[parent].child += span.dur
            if hook is not None:
                t0 = time.perf_counter()
                hook(index, args, kwargs, result)
                self._paused += time.perf_counter() - t0
            return result

        return shim

    def _fit_stats(self, index, args, kwargs, result):
        # a solve is useful up to the first one that already finds the
        # support the search returns; later solves only confirm it
        found = np.asarray(result.selected, dtype=np.intp).tobytes()
        supports = [s.arg for s in self.spans[index + 1:]
                    if s.parent == index and s.name == "mtl.solve"]
        useful = supports.index(found) + 1 if found in supports else 0
        opts = args[2] if len(args) > 2 else kwargs.get("opts")
        mode = getattr(opts, "mode", "mtl")
        gap = rel_duality_gap(args[0], result.W, result.lam, mode)
        self.fits.append((len(supports), useful, len(result.selected), gap))

    def _file_bytes(self, index, args, kwargs, result):
        self.spans[index].items = os.path.getsize(args[0])

    def _rows_predicted(self, index, args, kwargs, result):
        self.spans[index].items = len(result)

    def _solve_support(self, index, args, kwargs, result):
        norms = np.linalg.norm(np.atleast_2d(result), axis=1)
        self.spans[index].arg = np.flatnonzero(norms > SUPPORT_EPS).tobytes()


def rel_duality_gap(data, W, lam, mode="mtl"):
    """(P(W) - D(theta)) / P(W) for the selection problem at ``lam``.

    P(W) = sum_l ||y_l - X_l w_l||^2 / N_l + lam * R(W). The dual point is
    the rescaled residual u_l = s * (2 / N_l) r_l, with s the largest
    factor <= 1 that keeps every row of [X_l^T u_l]_l inside the dual-norm
    ball of radius lam (row l2 norm in mtl mode, max abs in stl mode).
    """
    W = np.asarray(W, dtype=np.float64)
    rows = np.flatnonzero(np.any(W != 0, axis=1))
    loss, ry, rr, grads = 0.0, [], [], []
    for l, d in enumerate(data):
        y = np.asarray(d.y, dtype=np.float64)
        r = y - np.asarray(d.X[:, rows], dtype=np.float64) @ W[rows, l]
        n = len(y)
        loss += float(r @ r) / n
        u = (2.0 / n) * r
        grads.append((d.X.T @ u.astype(d.X.dtype)).astype(np.float64))
        ry.append(float(u @ y))
        rr.append(n / 4.0 * float(u @ u))
    G = np.column_stack(grads)
    if mode == "mtl":
        penalty = float(np.sum(np.linalg.norm(W, axis=1)))
        dual_norm = float(np.max(np.linalg.norm(G, axis=1)))
    else:
        penalty = float(np.sum(np.abs(W)))
        dual_norm = float(np.max(np.abs(G)))
    s = min(1.0, lam / dual_norm) if dual_norm > 0 else 1.0
    primal = loss + lam * penalty
    dual = sum(s * a - s * s * b for a, b in zip(ry, rr))
    return (primal - dual) / primal if primal > 0 else 0.0


def _pct(values, q):
    return float(np.percentile(values, q)) if values else 0.0


def _fold_seconds(spans):
    # a LOPO fold runs from its train_model call to the end of the
    # predict_rows call that follows it under the same evaluate_lopo
    folds = []
    for i, s in enumerate(spans):
        if s.name != "pipeline.evaluate_lopo":
            continue
        start = None
        for c in spans[i + 1:]:
            if c.parent != i:
                continue
            if c.name == "pipeline.train_model":
                start = c.start
            elif c.name == "pipeline.predict_rows" and start is not None:
                folds.append(c.end - start)
                start = None
    return folds


def per_layer_metrics(tracer):
    """Name -> value for every per-layer metric but trace.overhead_ratio."""
    by = defaultdict(list)
    for s in tracer.spans:
        by[s.name].append(s)

    def secs(name):
        return float(sum(s.dur for s in by[name]))

    def ms(name, q):
        return 1e3 * _pct([s.dur for s in by[name]], q)

    def self_secs(name):
        return float(sum(s.dur - s.child for s in by[name]))

    def rate(name, scale):
        t = secs(name)
        return sum(s.items for s in by[name]) / scale / t if t > 0 else 0.0

    folds = _fold_seconds(tracer.spans)
    fits = tracer.fits
    run = sum(f[0] for f in fits)
    return {
        "pgm.load_pgm.ms_p50": ms("pgm.load_pgm", 50),
        "pgm.load_pgm.ms_p99": ms("pgm.load_pgm", 99),
        "gloh.extract_gloh.ms_p50": ms("gloh.extract_gloh", 50),
        "gloh.extract_gloh.ms_p99": ms("gloh.extract_gloh", 99),
        "gloh.extract_gloh.self_s": self_secs("gloh.extract_gloh"),
        "pipeline.extract_features.s": secs("pipeline.extract_features"),
        "featfile.write_features.s": secs("featfile.write_features"),
        "featfile.write_features.MBps": rate("featfile.write_features", 1e6),
        "featfile.read_features.s": secs("featfile.read_features"),
        "featfile.read_features.MBps": rate("featfile.read_features", 1e6),
        "dataset.parse_manifest.s": secs("dataset.parse_manifest"),
        "dataset.partition_by_task.calls": len(by["dataset.partition_by_task"]),
        "dataset.partition_by_task.s": secs("dataset.partition_by_task"),
        "mtl.lambda_max.s": secs("mtl.lambda_max"),
        "mtl.fit_for_budget.calls": len(by["mtl.fit_for_budget"]),
        "mtl.fit_for_budget.s": secs("mtl.fit_for_budget"),
        "mtl.solve.calls": len(by["mtl.solve"]),
        "mtl.solve.s": secs("mtl.solve"),
        "mtl.solve.ms_p50": ms("mtl.solve", 50),
        "mtl.solve.ms_p90": ms("mtl.solve", 90),
        "mtl.useful_solve_ratio": sum(f[1] for f in fits) / run if run else 0.0,
        "mtl.support_size": _pct([f[2] for f in fits], 50),
        "mtl.rel_gap": max((f[3] for f in fits), default=0.0),
        "ridge.fit_model.calls": len(by["ridge.fit_model"]),
        "ridge.fit_model.s": secs("ridge.fit_model"),
        "ridge.select_alpha.s": secs("ridge.select_alpha"),
        "ridge.fit_ridge.calls": len(by["ridge.fit_ridge"]),
        "pipeline.fold.s_p50": _pct(folds, 50),
        "pipeline.fold.s_p75": _pct(folds, 75),
        "pipeline.train_model.s": secs("pipeline.train_model"),
        "pipeline.select_bins.s": secs("pipeline.select_bins"),
        "pipeline.predict_rows.s": secs("pipeline.predict_rows"),
        "pipeline.predict_rows.rows_per_s": rate("pipeline.predict_rows", 1.0),
        "metrics.aggregate.s": secs("metrics.aggregate"),
        "cli.self_s": self_secs("cli.main"),
    }
