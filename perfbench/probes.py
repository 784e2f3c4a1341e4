"""Measurements outside the op loop: set-up time, import costs and scaling.

Child interpreters run from the checkout root with ``PYTHONPATH=src``, the
set-up the tier-1 tests use, since the package is not installed.
"""

from __future__ import annotations

import math
import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

_CHILD_TIMEOUT = 60


def _child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def _run_child(root: Path, args: list) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=root,
                          env=_child_env(root), capture_output=True,
                          text=True, timeout=_CHILD_TIMEOUT, check=True)


def setup_seconds(root: Path) -> float:
    """CPU seconds the main thread of a fresh interpreter spends from its
    start to `import normality_lab.cli` being done, read in the child.

    The main thread does the whole import; the threads numpy's BLAS starts
    meanwhile run beside it and are left out."""
    # the clock is read before teardown, which os._exit then skips to keep
    # each sample short
    code = ("import os, time, normality_lab.cli; "
            "print(time.thread_time_ns(), flush=True); os._exit(0)")
    return int(_run_child(root, ["-c", code]).stdout.split()[-1]) / 1e9


def import_seconds(root: Path, repeats: int = 3) -> dict:
    """Cumulative import time of numpy, sympy and normality_lab, from
    ``-X importtime`` in child interpreters (median over `repeats`).

    numpy and sympy are read where they are first imported, inside
    normality_lab, so normality_lab's figure includes them; a module that is
    not imported reads 0.
    """
    samples = {"numpy": [], "sympy": [], "normality_lab": []}
    for _ in range(repeats):
        err = _run_child(root, ["-X", "importtime", "-c",
                                "import normality_lab.cli"]).stderr
        found = {"numpy": 0, "sympy": 0, "normality_lab": 0}
        seen = set()
        for line in err.splitlines():
            if not line.startswith("import time:"):
                continue
            parts = line.split("|")
            try:
                cumulative = int(parts[1])
            except ValueError:       # the header line
                continue
            raw = parts[2][1:]
            name = raw.strip()
            if name in ("numpy", "sympy") and name not in seen:
                seen.add(name)
                found[name] = cumulative
            top_level = raw == name
            if top_level and name.split(".")[0] == "normality_lab":
                found["normality_lab"] += cumulative
        for key, us in found.items():
            samples[key].append(us / 1e6)
    return {key: statistics.median(v) for key, v in samples.items()}


# -------------------------------------------------------- scaling exponents

def fit_exponent(sizes, seconds) -> float:
    """Least-squares slope of log(seconds) against log(size)."""
    xs = [math.log(n) for n in sizes]
    ys = [math.log(t) for t in seconds]
    xm, ym = statistics.fmean(xs), statistics.fmean(ys)
    sxx = sum((x - xm) ** 2 for x in xs)
    return sum((x - xm) * (y - ym) for x, y in zip(xs, ys)) / sxx


def _timed(fn, *args) -> float:
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


def scaling_exponents(seed: int) -> dict:
    """Fitted time exponents of the super-linear loops, three sizes each."""
    from normality_lab import (AlgebraicReal, WordStream, beta_orbit,
                               cantor_system, digits, power_orbit,
                               stopping_records)

    cantor = cantor_system()
    golden = AlgebraicReal((1, -1, -1), Fraction(1), Fraction(2))
    x0 = Fraction(seed % 997 + 1, 1009)
    cases = {
        "sampling.digits.exponent": (
            (20000, 40000, 80000),
            lambda n: digits(cantor, WordStream(cantor, seed), 2, n)),
        "martingale.stopping_records.exponent": (
            (2000, 4000, 8000),
            lambda n: stopping_records(cantor, WordStream(cantor, seed), n, 2)),
        "sampling.beta_orbit.exponent": (
            (750, 1500, 3000), lambda n: beta_orbit(x0, golden, n)),
        "sampling.power_orbit.exponent": (
            (2000, 4000, 8000), lambda n: power_orbit(Fraction(3, 2), n)),
    }
    return {name: fit_exponent(sizes, [_timed(fn, n) for n in sizes])
            for name, (sizes, fn) in cases.items()}


def word_seconds(streams: list) -> float:
    """Time to redraw each traced digit stream's word prefix at the depth
    the digits call consumed."""
    from normality_lab import WordStream

    total = 0.0
    for system, seed, spawn_key, depth in streams:
        stream = WordStream(system, seed, spawn_key=spawn_key)
        total += _timed(stream.prefix, depth)
    return total
