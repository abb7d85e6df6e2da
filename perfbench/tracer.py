"""Per-layer spans and counts for the traced run.

Each hook replaces a function at the name its caller looks up, for example
``ppdecomp.bootstrap.truncate``, which ``estimate_epsilon1`` calls. A hooked
call made inside an operation records a span (name, start, end, parent,
operation id); outside an operation it passes straight through. numpy.linalg
calls made inside an operation are counted, not recorded as spans, so they
do not take self time from the layer that made them. Everything stays in
memory until :meth:`Tracer.dump`.

A hook whose target no longer exists is listed in ``absent``; its metrics
then read 0.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# (module, attribute, span name). Several names may share one span name.
HOOKS = [
    ("ppdecomp.simulate", "generate", "simulate.generate"),
    ("ppdecomp.simulate", "decompose_multiview", "decomposition"),
    ("ppdecomp.cli", "decompose_multiview", "decomposition"),
    ("ppdecomp.cli", "read_matrix_csv", "matrixio.read"),
    ("ppdecomp.cli", "atomic_write_text", "matrixio.write"),
    ("ppdecomp.cli", "build_report", "diagnostics.report"),
    ("ppdecomp.cli", "render_svg", "diagnostics.report"),
    ("ppdecomp.cli", "export_json", "diagnostics.report"),
    ("ppdecomp.diagnostics", "density_sv_scale", "noise.density"),
    ("ppdecomp.decomposition", "estimate_epsilon1", "bootstrap"),
    ("ppdecomp.decomposition", "individual_basis", "decomposition.individual"),
    ("ppdecomp.ranksel", "mp_median_sv", "ranksel.mp_median"),
    ("ppdecomp.bootstrap", "_haar_pair_rng", "bootstrap.haar_pair"),
    ("ppdecomp.bootstrap", "haar_basis", "bootstrap.row_frames"),
    ("ppdecomp.bootstrap", "principal_spectrum", "bootstrap.align"),
    ("ppdecomp.bootstrap", "rotate_align", "bootstrap.align"),
    ("ppdecomp.bootstrap", "truncate", "bootstrap.retruncate"),
    ("ppdecomp.bootstrap", "epsilon_pair", "bootstrap.eps_eval"),
    ("ppdecomp.bootstrap", "_noise_replicate_rng", "bootstrap.noise_imputation"),
]

# numpy.linalg functions, hooked both where the package calls them and
# where numpy's own helpers (norm(a, 2) calls svd) look them up.
LINALG = {"svd": "svd", "qr": "qr", "eigh": "eig", "eigvalsh": "eig"}
LINALG_MODULES = ["numpy.linalg", "numpy.linalg._linalg"]

# Metric name -> (span name, "self" or "inclusive"). Self times of all
# span names add up to the operation time.
SPAN_METRICS = {
    "bootstrap.epsilon1_s": ("bootstrap", "inclusive"),
    "bootstrap.self_s": ("bootstrap", "self"),
    "bootstrap.haar_pair_s": ("bootstrap.haar_pair", "self"),
    "bootstrap.retruncate_s": ("bootstrap.retruncate", "self"),
    "bootstrap.eps_eval_s": ("bootstrap.eps_eval", "self"),
    "bootstrap.row_frames_s": ("bootstrap.row_frames", "self"),
    "bootstrap.align_s": ("bootstrap.align", "self"),
    "bootstrap.noise_imputation_s": ("bootstrap.noise_imputation", "self"),
    "ranksel.mp_median_s": ("ranksel.mp_median", "self"),
    "decomposition.decompose_s": ("decomposition", "inclusive"),
    "decomposition.self_s": ("decomposition", "self"),
    "decomposition.individual_s": ("decomposition.individual", "self"),
    "matrixio.read_s": ("matrixio.read", "self"),
    "matrixio.write_s": ("matrixio.write", "self"),
    "diagnostics.report_s": ("diagnostics.report", "self"),
    "noise.density_s": ("noise.density", "self"),
    "cli.self_s": ("cli", "self"),
    "simulate.generate_s": ("simulate.generate", "self"),
    "simulate.self_s": ("simulate", "self"),
}
# Metric name -> span name whose calls it counts.
CALL_METRICS = {
    "ranksel.mp_median_calls": "ranksel.mp_median",
    "decomposition.pairs": "bootstrap",
}


def svd_flops(shape, compute_uv=True, full_matrices=True) -> float:
    """Nominal Golub-Reinsch flop count of one (possibly stacked) SVD.

    With l = max(m, n) and k = min(m, n): values only 4 l k^2 - 4 k^3 / 3;
    thin factors 14 l k^2 + 8 k^3; full factors 4 l^2 k + 8 l k^2 + 9 k^3
    (Golub and Van Loan, Matrix Computations, Sec. 5.4.5).
    """
    m, n = shape[-2], shape[-1]
    big, k = max(m, n), min(m, n)
    if not compute_uv:
        flops = 4 * big * k * k - 4 * k ** 3 / 3
    elif not full_matrices:
        flops = 14 * big * k * k + 8 * k ** 3
    else:
        flops = 4 * big * big * k + 8 * big * k * k + 9 * k ** 3
    return flops * math.prod(shape[:-2])


class Tracer:
    """Spans and counts for one traced run; install, run operations, dump."""

    def __init__(self):
        self.spans = []          # [name, start_ns, end_ns, parent index, op id]
        self.counts = defaultdict(float)
        self.absent = []
        self._stack = []
        self._op = None
        self._undo = []

    def install(self) -> None:
        for modname, attr, span in HOOKS:
            self._patch(modname, attr, lambda fn, span=span: self._span_wrapper(fn, span))
        for modname in LINALG_MODULES:
            for attr, kind in LINALG.items():
                self._patch(modname, attr, lambda fn, kind=kind: self._linalg_wrapper(fn, kind))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._undo):
            setattr(mod, attr, orig)
        self._undo.clear()

    def _patch(self, modname, attr, make):
        try:
            mod = importlib.import_module(modname)
        except ImportError:
            mod = None
        orig = getattr(mod, attr, None)
        if orig is None:
            self.absent.append(f"{modname}.{attr}")
            return
        setattr(mod, attr, make(orig))
        self._undo.append((mod, attr, orig))

    def _open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self._op])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter_ns()
        self._stack.pop()

    def _span_wrapper(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            if name == "bootstrap":   # replicates per call, from its BootstrapConfig
                cfg = next((a for a in (*args, *kwargs.values()) if hasattr(a, "replicates")), None)
                self.counts["bootstrap.replicates"] += getattr(cfg, "replicates", 0)
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        return wrapper

    def _linalg_wrapper(self, fn, kind):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            t0 = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                self.counts[f"linalg.{kind}_ns"] += time.perf_counter_ns() - t0
                self.counts[f"linalg.{kind}_calls"] += 1
                if kind == "svd":
                    full = kwargs.get("full_matrices", args[1] if len(args) > 1 else True)
                    uv = kwargs.get("compute_uv", args[2] if len(args) > 2 else True)
                    self.counts["linalg.svd_flop"] += svd_flops(np.shape(args[0]), uv, full)
        return wrapper

    @contextmanager
    def operation(self, op_id, name):
        """Root span of one operation; yields its index into ``spans``."""
        self._op = op_id
        idx = self._open(name)
        try:
            yield idx
        finally:
            self._close(idx)
            self._op = None

    def self_times(self) -> list:
        """Self time of each span: its duration minus its children's durations."""
        out = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                out[parent] -= end - start
        return out

    def metrics(self, ops: int) -> dict:
        """Per-operation means of every per-layer metric."""
        selfs = self.self_times()
        inclusive = defaultdict(int)
        own = defaultdict(int)
        calls = defaultdict(int)
        for (name, start, end, _, _), s in zip(self.spans, selfs):
            inclusive[name] += end - start
            own[name] += s
            calls[name] += 1
        out = {}
        for metric, (span, kind) in SPAN_METRICS.items():
            out[metric] = (inclusive if kind == "inclusive" else own)[span] / 1e9 / ops
        for metric, span in CALL_METRICS.items():
            out[metric] = calls[span] / ops
        out["bootstrap.replicates"] = self.counts["bootstrap.replicates"] / ops
        for kind in ("svd", "qr", "eig"):
            out[f"linalg.{kind}_calls"] = self.counts[f"linalg.{kind}_calls"] / ops
            out[f"linalg.{kind}_s"] = self.counts[f"linalg.{kind}_ns"] / 1e9 / ops
        out["linalg.svd_gflop"] = self.counts["linalg.svd_flop"] / 1e9 / ops
        return out

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"absent": self.absent, "counts": dict(self.counts),
                       "fields": ["name", "start_ns", "end_ns", "parent", "op"],
                       "spans": self.spans}, fh)
