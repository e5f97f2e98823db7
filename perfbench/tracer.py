"""Spans around the package's layers, recorded from outside the package.

``Tracer.install`` replaces public functions and methods of ``bardina_strip``
(and the numpy transforms and SuperLU factorization it calls) with wrappers
that record one span per call: name, start, end, parent span, and the
repetition it belongs to.  Spans stay in memory and are written out once,
by ``dump``.  ``rep_metrics`` turns the spans of one repetition into the
per-layer metrics; a layer's self time is its spans' duration minus the
part covered by their child spans.
"""

from __future__ import annotations

import functools
import importlib.abc
import importlib.machinery
import json
import statistics
import sys
import time
from pathlib import Path

PACKAGE = "bardina_strip"

# (module, class or None for a module function, attribute, span name)
TARGETS = [
    ("solver", "ImexStepper", "__init__", "solver.setup"),
    ("solver", "ImexStepper", "step", "solver.step"),
    ("operators", None, "d2_values", "operators.d2_values"),
    ("operators", None, "d2sq_values", "operators.d2sq_values"),
    ("operators", "OperatorSet", "laplacian_modal", "operators.laplacian_modal"),
    ("operators", "OperatorSet", "dealias_modal", "operators.dealias_modal"),
    ("operators", "OperatorSet", "d1", "operators.d1"),
    ("operators", "OperatorSet", "d2", "operators.d2"),
    ("operators", "OperatorSet", "laplacian", "operators.laplacian"),
    ("operators", "OperatorSet", "biharmonic", "operators.biharmonic"),
    ("operators", "OperatorSet", "dealias_field", "operators.dealias_field"),
    ("operators", "OperatorSet", "product", "operators.product"),
    ("operators", "OperatorSet", "bilinear_B", "operators.bilinear_B"),
    ("operators", "OperatorSet", "bilinear_B_conservative",
     "operators.bilinear_B_conservative"),
    ("diagnostics", "DiagnosticsCollector", "__init__", "diagnostics.collector_init"),
    ("diagnostics", "DiagnosticsCollector", "record", "diagnostics.record"),
    ("diagnostics", "StreamingTranslationModulus", "add", "diagnostics.modulus_add"),
    ("weights", None, "make_weight_field", "weights.make_weight_field"),
    ("mms", "ManufacturedReference", "__init__", "mms.derive"),
    ("mms", "ManufacturedReference", "forcing_field", "mms.forcing_eval"),
    ("runio", None, "load_config", "runio.load_config"),
    ("runio", None, "write_timeseries", "runio.write_timeseries"),
    ("runio", None, "write_snapshot", "runio.write_snapshot"),
]

LAYERS = ("solver", "fft", "operators", "diagnostics", "weights", "mms", "runio")


class _TracedLU:
    """SuperLU stand-in whose ``solve`` records a span."""

    def __init__(self, lu, tracer: "Tracer"):
        self._lu = lu
        self.solve = tracer.wrap("solver.lu_solve", lu.solve)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class _PatchOnImport(importlib.abc.MetaPathFinder):
    """Wraps package modules imported after ``install`` (e.g. a lazy ``mms``)."""

    def __init__(self, tracer: "Tracer"):
        self.tracer = tracer

    def find_spec(self, name, path, target=None):
        if not name.startswith(PACKAGE + "."):
            return None
        spec = importlib.machinery.PathFinder.find_spec(name, path)
        if spec is None or spec.loader is None:
            return None
        exec_module = spec.loader.exec_module

        def exec_and_patch(module):
            exec_module(module)
            self.tracer.patch_module(module)

        spec.loader.exec_module = exec_and_patch
        return spec


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.rep: list[int] = []
        self.extra: dict[int, dict] = {}
        self.rep_id = 0
        self._stack: list[int] = []
        self._wrapped: dict[int, tuple] = {}
        self._pending_lu: list[tuple[int, object]] = []

    # -- recording ------------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.rep.append(self.rep_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if on_result is not None:
                result = on_result(idx, args, result)
            return result
        return traced

    def _wrap_fft(self, name: str, fn):
        traced = self.wrap(name, fn)

        @functools.wraps(fn)
        def dispatch(*args, **kwargs):
            # Only the transforms the package makes belong to the fft layer.
            caller = sys._getframe(1).f_globals.get("__name__", "")
            return (traced if caller.startswith(PACKAGE) else fn)(*args, **kwargs)
        return dispatch

    def _on_splu(self, idx, _args, lu):
        self._pending_lu.append((idx, lu))
        return _TracedLU(lu, self)

    def _on_write(self, idx, args, result):
        self.extra[idx] = {"bytes": Path(args[0]).stat().st_size}
        return result

    def finish_rep(self):
        """Count factor nonzeros outside the timed spans and drop the factors."""
        for idx, lu in self._pending_lu:
            self.extra[idx] = {"nnz": int(lu.L.nnz + lu.U.nnz)}
        self._pending_lu.clear()

    # -- installing the wrappers ----------------------------------------------

    def install(self):
        import numpy as np
        import scipy.sparse.linalg as spla

        for name in ("rfft", "irfft"):
            setattr(np.fft, name, self._wrap_fft(f"fft.{name}", getattr(np.fft, name)))
        spla.splu = self.wrap("solver.factorize", spla.splu, on_result=self._on_splu)
        for mod_name, module in list(sys.modules.items()):
            if mod_name.startswith(PACKAGE + ".") and module is not None:
                self.patch_module(module)
        sys.meta_path.insert(0, _PatchOnImport(self))

    def patch_module(self, module):
        short = module.__name__.rsplit(".", 1)[-1]
        for mod, cls, attr, span in TARGETS:
            owner = getattr(module, cls, None) if cls else module
            if mod != short or owner is None or not hasattr(owner, attr):
                continue  # another module, or an entry point the layer no longer has
            fn = getattr(owner, attr)
            on_result = self._on_write if attr.startswith("write_") else None
            wrapped = self.wrap(span, fn, on_result=on_result)
            self._wrapped[id(fn)] = (fn, wrapped)
            setattr(owner, attr, wrapped)
        # Package modules that imported a wrapped function by name.
        for mod_name, other in list(sys.modules.items()):
            if not mod_name.startswith(PACKAGE) or other is None:
                continue
            for attr, value in list(vars(other).items()):
                hit = self._wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(other, attr, hit[1])

    # -- output -----------------------------------------------------------------

    def dump(self, path):
        self.finish_rep()
        table = sorted(set(self.names))
        index = {n: i for i, n in enumerate(table)}
        data = {"names": table, "name": [index[n] for n in self.names],
                "start": self.start, "end": self.end, "parent": self.parent,
                "rep": self.rep, "extra": {str(k): v for k, v in self.extra.items()}}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)


# ---------------------------------------------------------------------------
# Per-layer metrics from a span dump
# ---------------------------------------------------------------------------

def load_spans(path) -> dict[int, list[dict]]:
    """Spans grouped by repetition, each with its self time."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    n = len(data["name"])
    child = [0.0] * n
    for i in range(n):
        p = data["parent"][i]
        if p >= 0:
            child[p] += data["end"][i] - data["start"][i]
    reps: dict[int, list[dict]] = {}
    for i in range(n):
        dur = data["end"][i] - data["start"][i]
        reps.setdefault(data["rep"][i], []).append({
            "name": data["names"][data["name"][i]],
            "start": data["start"][i], "dur": dur, "self": dur - child[i],
            **data["extra"].get(str(i), {})})
    return reps


def _mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def rep_metrics(spans: list[dict], n_steps: int) -> dict[str, float]:
    """Per-layer metrics of one repetition (one run of ``n_steps`` steps).

    Counts and times "per step" cover the calls made from the first step on,
    so set-up work is not spread over the steps.
    """
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def durs(name):
        return [s["dur"] for s in by_name.get(name, [])]

    steps = by_name.get("solver.step", [])
    t_first = min((s["start"] for s in steps), default=float("inf"))
    stepping = [s for s in spans if s["start"] >= t_first]
    per_step = max(n_steps, 1)

    def layer_calls(layer):
        return [s for s in stepping if s["name"].startswith(layer + ".")]

    fft, ops = layer_calls("fft"), layer_calls("operators")
    return {
        "solver.setup_s": sum(durs("solver.setup"), 0.0),
        "solver.factorize_s": sum(durs("solver.factorize"), 0.0),
        "solver.lu_nnz": sum(s.get("nnz", 0) for s in by_name.get("solver.factorize", [])),
        "solver.step_ms": 1e3 * _mean(durs("solver.step")),
        "solver.lu_solve_ms": 1e3 * _mean(durs("solver.lu_solve")),
        "fft.transforms_per_step": len(fft) / per_step,
        "fft.ms_per_step": 1e3 * sum(s["self"] for s in fft) / per_step,
        "operators.calls_per_step": len(ops) / per_step,
        "operators.ms_per_step": 1e3 * sum(s["self"] for s in ops) / per_step,
        "diagnostics.record_ms": 1e3 * _mean(durs("diagnostics.record")),
        "diagnostics.modulus_add_ms": 1e3 * _mean(durs("diagnostics.modulus_add")),
        "diagnostics.collector_init_ms": 1e3 * _mean(durs("diagnostics.collector_init")),
        "weights.make_weight_field_ms": 1e3 * _mean(durs("weights.make_weight_field")),
        "mms.derive_s": sum(durs("mms.derive"), 0.0),
        "mms.forcing_eval_ms": 1e3 * _mean(durs("mms.forcing_eval")),
        "mms.forcing_evals": len(durs("mms.forcing_eval")),
        "runio.load_config_ms": 1e3 * _mean(durs("runio.load_config")),
        "runio.write_timeseries_ms": 1e3 * _mean(durs("runio.write_timeseries")),
        "runio.write_snapshot_ms": 1e3 * _mean(durs("runio.write_snapshot")),
        "runio.bytes_written": sum(s.get("bytes", 0) for s in spans
                                   if s["name"].startswith("runio.write_")),
    }


def layer_self_times(spans: list[dict]) -> dict[str, float]:
    """Seconds of self time per layer over one repetition."""
    out = {layer: 0.0 for layer in LAYERS}
    for s in spans:
        layer = s["name"].split(".", 1)[0]
        out[layer] += s["self"]
    return out


def parse_importtime(stderr: str, begin: str, end: str) -> tuple[float, float]:
    """``(package import seconds, sympy import seconds)`` from ``-X importtime``.

    The package import is the cumulative time of the top-level imports
    between the ``begin`` and ``end`` marker lines; sympy's is its
    cumulative time wherever it was first imported (0 if it never was).
    """
    package = sympy_s = 0.0
    inside = False
    for line in stderr.splitlines():
        if line == begin:
            inside = True
            continue
        if line == end:
            inside = False
            continue
        if not line.startswith("import time:") or "|" not in line:
            continue
        parts = line.split("|")
        try:
            cumulative = int(parts[1]) * 1e-6
        except ValueError:
            continue  # the column header
        name = parts[2].rstrip()
        if inside and not name.startswith("  "):
            package += cumulative
        if name.strip() == "sympy" and sympy_s == 0.0:
            sympy_s = cumulative
    return package, sympy_s
