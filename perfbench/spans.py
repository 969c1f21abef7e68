"""Spans around the calls one talbot_sim module makes into another.

Tracer.install() replaces each wrap target (module attribute) with a
wrapper that records a span: name, start, end, parent and the work counts
of that call.  Spans stay in memory; layer_metrics() turns them into the
per-layer metrics.  restore() puts the original functions back.  A target
that no longer exists is skipped and listed in Tracer.skipped.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import math
import os
import threading
import time

import numpy as np


def _orders(grating) -> int:
    return 2 * int(grating.trunc) + 1


def _positions(x) -> int:
    return int(np.size(x))


def _engine_counts(args, kwargs, result):
    """slit_rate and intensity: (x, lam, source, grating, ...)."""
    return {"positions": _positions(args[0]), "orders": _orders(args[3])}


def _table_counts(args, kwargs, result):
    return {"orders": _orders(args[0])}


def _transmission_counts(args, kwargs, result):
    return {"positions": _positions(args[0]), "orders": _orders(args[1])}


def _grid_counts(args, kwargs, result):
    return {"wavelengths": len(result)}


def _mc_counts(args, kwargs, result):
    return {"points": int(result.positions.size)}


def open_windows(grating, half_width: float) -> int:
    """Open grating windows that overlap the aperture [-W, W]."""
    if grating.f == 1.0:
        return 1
    half_open = grating.f * grating.d / 2.0
    k_lo = math.floor((-half_width - half_open) / grating.d)
    k_hi = math.ceil((half_width + half_open) / grating.d)
    return sum(1 for k in range(k_lo, k_hi + 1)
               if min(k * grating.d + half_open, half_width)
               > max(k * grating.d - half_open, -half_width))


def _oracle_counts(args, kwargs, result):
    source, grating = args[2], args[3]
    return {"probes": _positions(args[0]),
            "windows": open_windows(grating, source.delta)}


def _csv_counts(columns):
    def counts(args, kwargs, result):
        return {"values": columns(*args[1:3]), "bytes": os.path.getsize(args[0])}
    return counts


# (module, attribute, span name, work counter).  The same function imported
# by two modules is wrapped at each import site; a call goes through one.
WRAP_TARGETS = (
    ("cli", "scan", "propagation.scan", None),
    ("cli", "carpet", "propagation.carpet", None),
    ("cli", "intensity", "propagation.intensity", _engine_counts),
    ("cli", "simulate_scan", "montecarlo.simulate_scan", _mc_counts),
    ("cli", "revival_distance", "analysis.revival_distance", None),
    ("cli", "fresnel_intensity", "oracle.fresnel_intensity", _oracle_counts),
    ("cli", "write_scan_csv", "csvio.write_scan_csv",
     _csv_counts(lambda pattern, _: 4 * pattern.positions.size)),
    ("cli", "write_carpet_csv", "csvio.write_carpet_csv",
     _csv_counts(lambda carp, _: carp.values.size + carp.x_axis.size
                 + carp.z_axis.size)),
    ("cli", "write_mc_csv", "csvio.write_mc_csv",
     _csv_counts(lambda pattern, _: 3 * pattern.positions.size)),
    ("cli", "write_oracle_csv", "csvio.write_oracle_csv",
     _csv_counts(lambda xs, _: 4 * np.size(xs))),
    ("analysis", "intensity", "propagation.intensity", _engine_counts),
    ("analysis", "truncated_transmission", "grating.truncated_transmission",
     _transmission_counts),
    ("montecarlo", "polychromatic_rate", "propagation.polychromatic_rate", None),
    ("propagation", "polychromatic_rate", "propagation.polychromatic_rate", None),
    ("propagation", "slit_rate", "propagation.slit_rate", _engine_counts),
    ("propagation", "intensity", "propagation.intensity", _engine_counts),
    ("propagation", "coefficient_table", "grating.coefficient_table",
     _table_counts),
    ("propagation", "spectral_grid", "model.spectral_grid", _grid_counts),
    ("grating", "coefficient_table", "grating.coefficient_table",
     _table_counts),
)


class Tracer:
    """Records spans around the wrap targets between install() and restore()."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.skipped: list[str] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._restore: list[tuple] = []

    def _stack(self) -> list:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _parent(self, stack: list):
        if stack:
            return stack[-1]
        # a pool thread's first span belongs to the main-thread span that
        # is waiting on the pool
        if stack is not self._main_stack and self._main_stack:
            return self._main_stack[-1]
        return None

    def call(self, name: str, fn, args=(), kwargs=None, counter=None):
        """Run fn(*args, **kwargs) inside a span called name."""
        kwargs = kwargs or {}
        stack = self._stack()
        with self._lock:
            span_id = next(self._ids)
        parent = self._parent(stack)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
        counts = {}
        if counter is not None:
            try:
                counts = counter(args, kwargs, result)
            except (AttributeError, IndexError, TypeError, OSError):
                counts = {}
        with self._lock:
            self.spans.append({"id": span_id, "name": name, "start": start,
                               "end": end, "parent": parent,
                               "counts": counts})
        return result

    def install(self) -> None:
        self.skipped = []
        for module_name, attr, name, counter in WRAP_TARGETS:
            target = f"talbot_sim.{module_name}.{attr}"
            try:
                module = importlib.import_module(f"talbot_sim.{module_name}")
                original = getattr(module, attr)
            except (ImportError, AttributeError):
                self.skipped.append(target)
                continue

            @functools.wraps(original)
            def wrapper(*args, _fn=original, _name=name, _counter=counter,
                        **kwargs):
                return self.call(_name, _fn, args, kwargs, _counter)

            setattr(module, attr, wrapper)
            self._restore.append((module, attr, original))

    def restore(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()


def self_time(span: dict, children: list) -> float:
    """Span duration minus the part of it that its children cover."""
    intervals = sorted((max(c["start"], span["start"]), min(c["end"], span["end"]))
                       for c in children)
    covered, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in intervals:
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        covered += cur_hi - cur_lo
    return (span["end"] - span["start"]) - covered


def layer_metrics(spans: list) -> dict:
    """Per-layer times (busy seconds, summed over calls), self times and
    work counts from one traced run."""
    by_name: dict[str, list] = {}
    children: dict[int, list] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)

    def busy(name):
        return sum(s["end"] - s["start"] for s in by_name.get(name, ()))

    def calls(name):
        return len(by_name.get(name, ()))

    def own(name):
        return sum(self_time(s, children.get(s["id"], ()))
                   for s in by_name.get(name, ()))

    def count(name, key):
        return sum(s["counts"].get(key, 0) for s in by_name.get(name, ()))

    engine = ("propagation.slit_rate", "propagation.intensity")
    engine_work = sum(s["counts"].get("orders", 0) * s["counts"].get("positions", 0)
                      for name in engine for s in by_name.get(name, ()))
    revival_ids = {s["id"] for s in by_name.get("analysis.revival_distance", ())}
    csv = [n for n in by_name if n.startswith("csvio.")]
    probes = count("oracle.fresnel_intensity", "probes")
    oracle_s = busy("oracle.fresnel_intensity")
    return {
        "propagation.slit_rate_s": busy("propagation.slit_rate"),
        "propagation.slit_rate_calls": calls("propagation.slit_rate"),
        "propagation.polychromatic_rate_self_s": own("propagation.polychromatic_rate"),
        "propagation.intensity_s": busy("propagation.intensity"),
        "propagation.intensity_calls": calls("propagation.intensity"),
        "propagation.carpet_self_s": own("propagation.carpet"),
        "propagation.ns_per_order_position":
            1e9 * sum(busy(n) for n in engine) / engine_work if engine_work else 0.0,
        "grating.coefficient_table_calls": calls("grating.coefficient_table"),
        "grating.coefficient_table_s": busy("grating.coefficient_table"),
        "grating.truncated_transmission_s": busy("grating.truncated_transmission"),
        "grating.truncated_transmission_calls": calls("grating.truncated_transmission"),
        "grating.orders": count("grating.coefficient_table", "orders"),
        "model.spectral_grid_s": busy("model.spectral_grid"),
        "model.wavelengths": count("model.spectral_grid", "wavelengths"),
        "montecarlo.simulate_scan_s": busy("montecarlo.simulate_scan"),
        "montecarlo.sampling_s": own("montecarlo.simulate_scan"),
        "montecarlo.points": count("montecarlo.simulate_scan", "points"),
        "analysis.revival_distance_s": busy("analysis.revival_distance"),
        "analysis.revival_self_s": own("analysis.revival_distance"),
        "analysis.planes_scored": sum(1 for s in by_name.get("propagation.intensity", ())
                                      if s["parent"] in revival_ids),
        "oracle.fresnel_intensity_s": oracle_s,
        "oracle.probes": probes,
        "oracle.windows": count("oracle.fresnel_intensity", "windows"),
        "oracle.ms_per_probe": 1e3 * oracle_s / probes if probes else 0.0,
        "csvio.write_s": sum(busy(n) for n in csv),
        "csvio.values": sum(count(n, "values") for n in csv),
        "csvio.bytes": sum(count(n, "bytes") for n in csv),
    }
