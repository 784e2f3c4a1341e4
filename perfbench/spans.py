"""Span recorder for the traced benchmark run, and the per-layer metrics.

The recorder wraps each module's public functions where the calling module
binds them (``experiments.digits`` and ``martingale.digits`` are two bindings
of ``sampling.digits``; ``Ball.mul`` is patched on the class), records one
span per call and restores the originals afterwards.  A span is (id, name,
start, end, parent, op id, info); spans stay in memory until the run ends.
Spans started on a pool worker thread take the main thread's innermost open
span as parent, which is the ``experiments.run_*`` call that submitted them.

A span's self time is its duration minus the union of its children's
intervals, so children that overlap on two worker threads count once.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, NamedTuple, Optional


class Span(NamedTuple):
    id: int
    name: str
    start: int           # perf_counter_ns
    end: int
    parent: Optional[int]
    op: Optional[int]
    info: Optional[dict]


class Recorder:
    """Keeps the spans of wrapped calls; `op` tags the spans of the op that
    is running."""

    def __init__(self):
        self.spans: list = []
        self.op: Optional[int] = None
        self._ids = itertools.count(1)
        self._main = threading.main_thread()
        self._main_stack: list = []
        self._local = threading.local()
        self._patches: list = []

    def _stack(self) -> list:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable,
             info: Optional[Callable] = None) -> Callable:
        """`fn` recording a span per call; `info(args, kwargs, result)`
        runs after the span closes and returns the span's info dict."""
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = rec._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = rec._main_stack[-1] if rec._main_stack else None
            sid = next(rec._ids)
            stack.append(sid)
            ok = False
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                extra = info(args, kwargs, result) if ok and info else None
                rec.spans.append(Span(sid, name, start, end, parent, rec.op,
                                      extra))
        return traced

    def patch(self, owner, attr: str, name: str,
              info: Optional[Callable] = None) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, info))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s._asdict(), default=repr) + "\n")


# ------------------------------------------------------------ patch table

def _digits_info(args, kwargs, ds):
    stream = args[1]
    count = args[3] if len(args) > 3 else kwargs["count"]
    return {"depth": ds.depth, "certified": ds.certified_length,
            "count": count, "stream": (stream.system, stream.seed,
                                       stream.spawn_key)}


def _fourier_info(args, kwargs, fv):
    cache = kwargs.get("cache")
    entries = len(cache) if cache is not None else fv.nodes
    return {"nodes": fv.nodes, "budget": fv.budget_exceeded,
            "entries": entries}


def _orbit_meta_info(args, kwargs, sample):
    meta = sample.metadata
    return {"precision_bits": meta.get("precision_bits", 0),
            "restarts": meta.get("restarts", 0)}


def _points_info(args, kwargs, result):
    return {"points": len(args[0])}


def _kcorr_info(args, kwargs, result):
    return {"points": len(args[0]), "k": args[1]}


def install(rec: Recorder) -> None:
    """Wrap the public functions of every layer at their binding sites."""
    from normality_lab import (algebra, balls, cli, experiments, fourier,
                               martingale, sampling)

    rec.patch(cli, "load_system", "ifs.load_system")
    for attr in dir(experiments):
        if attr.startswith("run_"):
            rec.patch(experiments, attr, f"experiments.{attr}")
    for owner in (experiments, martingale):
        rec.patch(owner, "digits", "sampling.digits", _digits_info)
        rec.patch(owner, "orbit_sequence", "sampling.orbit_sequence")
        rec.patch(owner, "fourier_exact", "fourier.fourier_exact",
                  _fourier_info)
    rec.patch(fourier, "fourier_exact", "fourier.fourier_exact", _fourier_info)
    rec.patch(experiments, "decay_profile", "fourier.decay_profile")
    rec.patch(experiments, "sampled_point", "sampling.sampled_point")
    rec.patch(experiments, "beta_orbit", "sampling.beta_orbit",
              _orbit_meta_info)
    rec.patch(experiments, "power_orbit", "sampling.power_orbit",
              _orbit_meta_info)
    rec.patch(experiments, "martingale_gaps", "martingale.martingale_gaps")
    rec.patch(martingale, "stopping_records", "martingale.stopping_records",
              lambda a, k, r: {"records": len(r)})
    rec.patch(martingale, "cylinder_mode", "martingale.cylinder_mode")
    rec.patch(sampling, "compose", "ifs.compose",
              lambda a, k, r: {"symbols": len(a[1])})
    for attr in ("discrepancy", "digit_frequencies", "weyl_report",
                 "level_spacings"):
        rec.patch(experiments, attr, f"stats.{attr}", _points_info)
    rec.patch(experiments, "k_level_correlation", "stats.k_level_correlation",
              _kcorr_info)
    rec.patch(balls.Ball, "mul", "balls.Ball.mul",
              lambda a, k, r: {"prec": a[0].prec})
    rec.patch(algebra.AlgebraicReal, "refine", "algebra.AlgebraicReal.refine")


# ---------------------------------------------------------- span analysis

def _union_ns(intervals) -> int:
    total, cur_start, cur_end = 0, None, None
    for a, b in sorted(intervals):
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_ns(span: Span, children: list,
            counts: Callable[[Span], bool] = lambda c: True) -> int:
    """Duration minus the union of the (selected) children's intervals."""
    covered = [(max(c.start, span.start), min(c.end, span.end))
               for c in children if counts(c)]
    return (span.end - span.start) - _union_ns(
        (a, b) for a, b in covered if b > a)


# --------------------------------------------------------- per-layer table

def _s(ns: float) -> float:
    return ns / 1e9


def layer_metrics(spans: list) -> dict:
    """Per-layer metrics of the traced ops, from their spans alone."""
    by_name = defaultdict(list)
    children = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
        if s.parent is not None:
            children[s.parent].append(s)

    def busy(name):
        return _s(sum(s.end - s.start for s in by_name[name]))

    def self_s(name, counts=lambda c: True):
        return _s(sum(self_ns(s, children[s.id], counts)
                      for s in by_name[name]))

    def info_sum(name, key):
        return sum(s.info[key] for s in by_name[name] if s.info)

    runs = [n for n in by_name if n.startswith("experiments.run_")]
    fx = by_name["fourier.fourier_exact"]
    fx_calls = len(fx)
    fx_nodes = info_sum("fourier.fourier_exact", "nodes")
    fx_s = busy("fourier.fourier_exact")
    cyl = by_name["martingale.cylinder_mode"]
    cyl_exact = sum(1 for s in cyl if any(
        c.name == "fourier.fourier_exact" for c in children[s.id]))
    kcorr = by_name["stats.k_level_correlation"]
    stats_names = ("stats.discrepancy", "stats.weyl_report",
                   "stats.digit_frequencies", "stats.k_level_correlation",
                   "stats.level_spacings")
    out = {
        "cli.main.s": busy("cli.main"),
        "cli.main.self_s": self_s(
            "cli.main", lambda c: c.name.startswith("experiments.run_")),
        "experiments.run.s": sum(busy(n) for n in runs),
        "experiments.run.self_s": sum(self_s(n) for n in runs),
        "ifs.load_system.s": busy("ifs.load_system"),
        "ifs.compose.s": busy("ifs.compose"),
        "ifs.compose.symbols": info_sum("ifs.compose", "symbols"),
        "sampling.digits.s": busy("sampling.digits"),
        "sampling.digits.self_s": self_s("sampling.digits"),
        "sampling.digits.calls": len(by_name["sampling.digits"]),
        "sampling.digits.certified": info_sum("sampling.digits", "certified"),
        "sampling.digits.depth": info_sum("sampling.digits", "depth"),
        "sampling.orbit_sequence.s": busy("sampling.orbit_sequence"),
        "sampling.sampled_point.s": busy("sampling.sampled_point"),
        "sampling.beta_orbit.s": busy("sampling.beta_orbit"),
        "sampling.beta_orbit.self_s": self_s("sampling.beta_orbit"),
        "sampling.beta_orbit.precision_bits": max(
            (s.info["precision_bits"] for s in by_name["sampling.beta_orbit"]
             if s.info), default=0),
        "sampling.beta_orbit.restarts": info_sum("sampling.beta_orbit",
                                                 "restarts"),
        "sampling.power_orbit.s": busy("sampling.power_orbit"),
        "balls.Ball.mul.s": busy("balls.Ball.mul"),
        "balls.Ball.mul.calls": len(by_name["balls.Ball.mul"]),
        "balls.bits_computed": info_sum("balls.Ball.mul", "prec"),
        "algebra.AlgebraicReal.refine.s": busy("algebra.AlgebraicReal.refine"),
        "algebra.AlgebraicReal.refine.calls": len(
            by_name["algebra.AlgebraicReal.refine"]),
        "fourier.fourier_exact.s": fx_s,
        "fourier.fourier_exact.calls": fx_calls,
        "fourier.decay_profile.s": busy("fourier.decay_profile"),
        "fourier.nodes": fx_nodes,
        "fourier.nodes_per_s": fx_nodes / fx_s if fx_s else 0.0,
        "fourier.full_hit_share": (sum(1 for s in fx if s.info
                                       and s.info["nodes"] == 0) / fx_calls
                                   if fx_calls else 0.0),
        "fourier.budget_hits": sum(1 for s in fx if s.info
                                   and s.info["budget"]),
        "fourier.cache_entries": max((s.info["entries"] for s in fx
                                      if s.info), default=0),
        "martingale.martingale_gaps.s": busy("martingale.martingale_gaps"),
        "martingale.martingale_gaps.self_s": self_s(
            "martingale.martingale_gaps"),
        "martingale.stopping_records.s": busy("martingale.stopping_records"),
        "martingale.records": info_sum("martingale.stopping_records",
                                       "records"),
        "martingale.cylinder_mode.s": busy("martingale.cylinder_mode"),
        "martingale.cylinder_mode.calls": len(cyl),
        "martingale.cylinder_mode.exact_share": (cyl_exact / len(cyl)
                                                 if cyl else 0.0),
        "stats.points": sum(info_sum(n, "points") for n in stats_names),
    }
    for name in stats_names:
        out[f"{name}.s"] = busy(name)
    for k in (2, 3, 4):
        out[f"stats.k_level_correlation.k{k}.s"] = _s(sum(
            s.end - s.start for s in kcorr if s.info and s.info["k"] == k))
    return out


def digits_violations(spans: list) -> list:
    """Digit streams whose certified length differs from the count asked."""
    return [s.info for s in spans if s.name == "sampling.digits" and s.info
            and s.info["certified"] != s.info["count"]]


def word_streams(spans: list) -> list:
    """(system, seed, spawn_key, depth) of every traced digits call."""
    return [(*s.info["stream"], s.info["depth"]) for s in spans
            if s.name == "sampling.digits" and s.info]
