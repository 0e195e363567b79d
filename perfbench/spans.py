"""Span recorder that wraps cyflab's public functions from outside the package.

Modules bind the names they import, so a function is replaced in every
cyflab module that holds it, not only in the module that defines it.  The
FFT layer is counted by wrapping ``numpy.fft.fftn``/``ifftn`` themselves,
which every cyflab module reaches through the ``np.fft`` attribute.

Spans are kept in memory as ``[name, layer, start, end, parent, workload]``
and reduced to per-layer metrics when the traced command has finished.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import os
import statistics
import threading
import time
from collections import Counter

import numpy as np
from scipy.sparse.linalg import LinearOperator

# (module, public name, layer).  The layer is the module that owns the code.
TARGETS = (
    ("geometry", "ddc_fiber", "geometry"),
    ("geometry", "fiber_derivative", "geometry"),
    ("geometry", "laplace_beltrami", "geometry"),
    ("models", "make_family", "models"),
    ("masolver", "solve_ma", "masolver"),
    ("masolver", "linearized_solve", "masolver"),
    ("masolver", "solve_stencil", "masolver"),
    ("masolver", "fiberwise_ricci_flat", "masolver"),
    ("masolver", "epsilon_continuation", "masolver"),
    ("familygeom", "curvature_report", "familygeom"),
    ("familygeom", "dbar_vertical", "familygeom"),
    ("familygeom", "theta_E", "familygeom"),
    ("familygeom", "vphi_cross_check", "familygeom"),
    ("green", "build_green", "green"),
    ("green", "k_bound", "green"),
    ("cli", "sample_report", "cli"),
    ("cli", "write_json", "cli"),
    ("cli", "write_family_csv", "cli"),
    ("cli", "write_phi_csv", "cli"),
)
MODULES = ("geometry", "models", "masolver", "familygeom", "green", "cli")
WRITERS = ("write_json", "write_family_csv", "write_phi_csv")
ROOT = "main"

# Per-layer metric names and units, in the order they are reported.
LAYER_METRICS = (
    ("ddc_fiber.calls", "count"), ("ddc_fiber.self_s", "s"),
    ("fiber_derivative.calls", "count"), ("fiber_derivative.self_s", "s"),
    ("laplace_beltrami.calls", "count"), ("laplace_beltrami.self_s", "s"),
    ("fft.calls", "count"), ("fft.self_s", "s"), ("fft.bytes_computed", "B"),
    ("geometry.self_s", "s"),
    ("omega.calls", "count"), ("omega.self_s", "s"), ("models.self_s", "s"),
    ("lgmres.calls", "count"), ("lgmres.matvecs", "count"),
    ("lgmres.unconverged", "count"), ("lgmres.converged_ratio", "ratio"),
    ("lgmres.self_s", "s"), ("matvecs_per_newton_step", "ratio"),
    ("solve_ma.calls", "count"), ("solve_ma.self_s", "s"),
    ("newton_steps", "count"), ("solves_per_point", "ratio"),
    ("solve_ma.unique_ratio", "ratio"),
    ("fiberwise_ricci_flat.calls", "count"), ("fiberwise_ricci_flat.self_s", "s"),
    ("masolver.self_s", "s"),
    ("curvature_report.self_s", "s"), ("dbar_vertical.calls", "count"),
    ("vphi_cross_check.calls", "count"), ("vphi_cross_check.self_s", "s"),
    ("theta_E.self_s", "s"), ("familygeom.self_s", "s"),
    ("k_bound.calls", "count"), ("k_bound.self_s", "s"),
    ("build_green.self_s", "s"), ("green.self_s", "s"),
    ("sample_report.p50_s", "s"), ("sample_report.tail_s", "s"),
    ("write.self_s", "s"), ("write.bytes", "B"), ("cli.self_s", "s"),
    ("trace.explained_frac", "ratio"),
)


def tail(values):
    """(percentile, value) of the highest percentile with >= 10 samples beyond it.

    None when fewer than 11 samples exist.
    """
    n = len(values)
    if n < 11:
        return None
    ordered = sorted(values)
    return 100.0 * (n - 10) / n, ordered[n - 11]


class Recorder:
    """In-memory spans and counters; one parent stack per thread."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans = []
        self.counts = Counter()
        self.solve_keys = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def open(self, name: str, layer: str) -> int:
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        with self._lock:
            idx = len(self.spans)
            self.spans.append([name, layer, time.perf_counter(), None, parent,
                               self.workload])
        stack.append(idx)
        return idx

    def close(self, idx: int):
        self.spans[idx][3] = time.perf_counter()
        self._local.stack.pop()

    def add(self, key: str, amount=1):
        with self._lock:
            self.counts[key] += amount

    def add_solve(self, key: tuple):
        with self._lock:
            self.solve_keys.append(key)

    # -- reduction -------------------------------------------------------------

    def self_times(self) -> list:
        """Span duration minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for name, layer, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [(s[3] - s[2]) - child[i] for i, s in enumerate(self.spans)]

    def durations(self, name: str) -> list:
        return [s[3] - s[2] for s in self.spans if s[0] == name]

    def metrics(self, points: int) -> dict:
        selfs = self.self_times()
        by_name, by_layer = Counter(), Counter()
        calls = Counter()
        root_self = 0.0
        for span, own in zip(self.spans, selfs):
            name, layer = span[0], span[1]
            calls[name] += 1
            by_name[name] += own
            by_layer[layer] += own
            if name == ROOT:
                root_self += own
        root_wall = sum(self.durations(ROOT))
        sample_latency = self.durations("sample_report")
        c = self.counts
        newton = c["newton_steps"]
        lg_calls = calls["lgmres"]
        tail_point = tail(sample_latency)
        values = {
            "ddc_fiber.calls": calls["ddc_fiber"],
            "ddc_fiber.self_s": by_name["ddc_fiber"],
            "fiber_derivative.calls": calls["fiber_derivative"],
            "fiber_derivative.self_s": by_name["fiber_derivative"],
            "laplace_beltrami.calls": calls["laplace_beltrami"],
            "laplace_beltrami.self_s": by_name["laplace_beltrami"],
            "fft.calls": calls["fft"],
            "fft.self_s": by_name["fft"],
            "fft.bytes_computed": c["fft.bytes"],
            "geometry.self_s": by_layer["geometry"],
            "omega.calls": calls["omega"],
            "omega.self_s": by_name["omega"],
            "models.self_s": by_layer["models"],
            "lgmres.calls": lg_calls,
            "lgmres.matvecs": c["lgmres.matvecs"],
            "lgmres.unconverged": c["lgmres.unconverged"],
            "lgmres.converged_ratio":
                (lg_calls - c["lgmres.unconverged"]) / lg_calls if lg_calls else 0.0,
            "lgmres.self_s": by_name["lgmres"],
            "matvecs_per_newton_step": c["lgmres.matvecs"] / newton if newton else 0.0,
            "solve_ma.calls": calls["solve_ma"],
            "solve_ma.self_s": by_name["solve_ma"],
            "newton_steps": newton,
            "solves_per_point": calls["solve_ma"] / points,
            "solve_ma.unique_ratio":
                len(set(self.solve_keys)) / len(self.solve_keys) if self.solve_keys else 0.0,
            "fiberwise_ricci_flat.calls": calls["fiberwise_ricci_flat"],
            "fiberwise_ricci_flat.self_s": by_name["fiberwise_ricci_flat"],
            "masolver.self_s": by_layer["masolver"],
            "curvature_report.self_s": by_name["curvature_report"],
            "dbar_vertical.calls": calls["dbar_vertical"],
            "vphi_cross_check.calls": calls["vphi_cross_check"],
            "vphi_cross_check.self_s": by_name["vphi_cross_check"],
            "theta_E.self_s": by_name["theta_E"],
            "familygeom.self_s": by_layer["familygeom"],
            "k_bound.calls": calls["k_bound"],
            "k_bound.self_s": by_name["k_bound"],
            "build_green.self_s": by_name["build_green"],
            "green.self_s": by_layer["green"],
            "sample_report.p50_s":
                statistics.median(sample_latency) if sample_latency else 0.0,
            # with fewer than 11 points the tail is the slowest point
            "sample_report.tail_s": tail_point[1] if tail_point else
                (max(sample_latency) if sample_latency else 0.0),
            "write.self_s": sum(by_name[w] for w in WRITERS),
            "write.bytes": c["write.bytes"],
            "cli.self_s": by_layer["cli"],
            # share of the command's wall time that lands in a named layer
            # span rather than in the command's own unwrapped code
            "trace.explained_frac":
                (sum(selfs) - root_self) / root_wall if root_wall else 0.0,
        }
        return values


def _span_wrapper(rec: Recorder, fn, name: str, layer: str, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec.open(name, layer)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if after is not None:
            after(args, kwargs, out)
        return out
    return wrapper


def _digest(arr) -> str:
    return hashlib.sha1(np.ascontiguousarray(arr).tobytes()).hexdigest()


class Tracer:
    """Installs span wrappers into the cyflab modules and removes them again."""

    def __init__(self, rec: Recorder):
        self.rec = rec
        self._undo = []

    def _replace(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        rec = self.rec
        mods = [importlib.import_module(m) for m in ("cyflab",) + tuple(
            f"cyflab.{m}" for m in MODULES)]
        masolver = importlib.import_module("cyflab.masolver")
        solve_sig = inspect.signature(masolver.solve_ma)

        def after_solve(args, kwargs, out):
            bound = solve_sig.bind(*args, **kwargs)
            bound.apply_defaults()
            problem = bound.arguments["problem"]
            rec.add("newton_steps", out.newton_iters)
            rec.add_solve((_digest(problem.chart.omega_matrix), problem.epsilon,
                           bound.arguments["normalization"], _digest(problem.gab)))

        def after_write(args, kwargs, out):
            rec.add("write.bytes", os.path.getsize(args[0]))

        hooks = {"solve_ma": after_solve}
        hooks.update({w: after_write for w in WRITERS})

        for modname, attr, layer in TARGETS:
            orig = getattr(importlib.import_module(f"cyflab.{modname}"), attr)
            wrapped = _span_wrapper(rec, orig, attr, layer, hooks.get(attr))
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._replace(mod, key, wrapped)

        family_cls = importlib.import_module("cyflab.models").Family
        self._replace(family_cls, "omega",
                      _span_wrapper(rec, family_cls.omega, "omega", "models"))

        # lgmres: count matvecs of the system operator and nonzero info
        orig_lgmres = masolver.lgmres

        def lgmres(A, b, *args, **kwargs):
            def matvec(v):
                rec.add("lgmres.matvecs")
                return A.matvec(v)
            counted = LinearOperator(A.shape, matvec=matvec, dtype=A.dtype)
            idx = rec.open("lgmres", "masolver")
            try:
                out = orig_lgmres(counted, b, *args, **kwargs)
            finally:
                rec.close(idx)
            if out[1] != 0:
                rec.add("lgmres.unconverged")
            return out

        for mod in mods:
            if getattr(mod, "lgmres", None) is orig_lgmres:
                self._replace(mod, "lgmres", lgmres)

        def after_fft(args, kwargs, out):
            rec.add("fft.bytes", np.asarray(args[0]).nbytes + out.nbytes)

        for attr in ("fftn", "ifftn"):
            self._replace(np.fft, attr, _span_wrapper(rec, getattr(np.fft, attr),
                                                      "fft", "geometry", after_fft))
        return self

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
