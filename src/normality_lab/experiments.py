"""Experiment orchestration shared by the CLI and the demo scripts.

Each runner returns (table, results): `table` maps each CSV column name, in
order, to its column (a numpy array, range or list; all of one length), and
`results` is a JSON-ready summary.  Multi-sample experiments derive per-task
seeds through SeedSequence spawn keys, so output is deterministic for a
fixed (config, seed).  Samples run one after another: the work is GIL-bound
big-integer arithmetic, which a thread pool only slows down.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .algebra import AlgebraicReal, classify_obstruction
from .errors import ConfigParseError, InsufficientBands
from .fourier import decay_fit, decay_profile, del_criterion_check, fourier_exact
from .ifs import (
    SelfSimilarSystem,
    as_fraction,
    frac_str,
    system_to_dict,
    validate,
)
from .martingale import martingale_gaps
from .sampling import (
    DigitStream,
    SequenceSample,
    WordStream,
    _log2,
    _multiplier_enclosure,
    _tail_digit_count,
    ball_precision,
    beta_orbit,
    digits,
    orbit_sequence,
    power_orbit,
    sampled_point,
    uniform_sample,
)
from .stats import (
    TestFunction,
    digit_frequencies,
    discrepancy,
    k_level_correlation,
    level_spacings,
    weyl_report,
)

def pool_size() -> int:
    """Number of workers a runner uses: always 1, the runners are sequential.

    Kept because the benchmark's `experiments.pool_workers` metric reads it.
    """
    return 1


def system_hash(system: SelfSimilarSystem) -> str:
    canon = json.dumps(system_to_dict(system), sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _orbit(system: SelfSimilarSystem, base: int, length: int, seed: int,
           task: int = 0, guard: int = 16
           ) -> tuple[DigitStream, SequenceSample]:
    """One sample's certified digits and its first `length` orbit values."""
    stream = WordStream(system, seed, spawn_key=(task,) if task else ())
    ds = digits(system, stream, base, length + _tail_digit_count(base) + 1,
                guard=guard)
    return ds, orbit_sequence(ds, length, seed=seed)


def _records(table: dict) -> list:
    """The rows of a table of list columns as dicts, for JSON summaries."""
    return [dict(zip(table, row)) for row in zip(*table.values())]


# ------------------------------------------------------------------ runners

def run_validate(system: SelfSimilarSystem):
    report = validate(system)
    table = {"ok": [report.ok],
             "failures": [";".join(type(f).__name__ for f in report.failures)]}
    results = {"ok": report.ok,
               "failures": [{"kind": type(f).__name__, "detail": str(f)}
                            for f in report.failures]}
    return table, results


def run_classify(system: SelfSimilarSystem, base: int):
    report = classify_obstruction(system, base)
    # slopes survive the conjugation: the first map failing item 1 witnesses
    witness = next((mo.index for mo in report.per_map
                    if not mo.commensurability.commensurable), None)
    maps = report.per_map
    table = {
        "map": [mo.index for mo in maps],
        "slope": [frac_str(mo.slope) for mo in maps],
        "offset": [frac_str(mo.offset) for mo in maps],
        "commensurable": [mo.commensurability.commensurable for mo in maps],
        "log_ratio": [frac_str(mo.commensurability.ratio)
                      if mo.commensurability.ratio is not None else ""
                      for mo in maps],
        "translation_form": [mo.translation_form for mo in maps],
        "translation_exponent": [mo.translation_exponent
                                 if mo.translation_exponent is not None else ""
                                 for mo in maps],
    }
    results = {
        "verdict": report.verdict.value,
        "base": base,
        "conjugator": {"slope": frac_str(report.conjugator.slope),
                       "offset": frac_str(report.conjugator.offset)},
        "normality_witness": {"found": witness is not None, "map": witness},
        "per_map": _records(table),
    }
    return table, results


def run_fourier(system: SelfSimilarSystem, q, tol: float, budget: int):
    fv = fourier_exact(system, as_fraction(q), tol=tol, budget=budget)
    table = {"q": [frac_str(fv.frequency)], "re": [fv.real], "im": [fv.imag],
             "modulus": [fv.modulus], "error_bound": [fv.error_bound],
             "nodes": [fv.nodes], "budget_exceeded": [fv.budget_exceeded]}
    return table, _records(table)[0]


def run_decay(system: SelfSimilarSystem, j_max: int, per_band: int,
              tol: float, budget: int):
    profile = decay_profile(system, j_max, per_band=per_band, tol=tol,
                            budget=budget)
    bands = profile.bands
    table = {"band": [b.index for b in bands],
             "q_lo": [1 << b.index for b in bands],
             "q_hi": [1 << (b.index + 1) for b in bands],
             "sup_modulus": [b.sup_modulus for b in bands],
             "argmax_q": [frac_str(b.argmax_q) for b in bands],
             "samples": [b.samples for b in bands],
             "budget_exceeded": [b.budget_exceeded for b in bands]}
    results: dict = {"bands": _records(table)}
    try:
        fit = decay_fit(profile)
    except InsufficientBands as exc:
        results["fit"] = {"regime": "unavailable", "reason": str(exc)}
        return table, results
    results["fit"] = {
        "regime": fit.regime, "alpha": fit.alpha,
        "alpha_ci": list(fit.alpha_ci) if fit.alpha_ci else None,
        "r_squared": fit.r_squared,
    }
    if fit.alpha is not None:
        results["loglog_envelope_consistent"] = del_criterion_check(
            profile, fit.alpha)
    return table, results


def run_orbit(system: SelfSimilarSystem, base: int, length: int,
              samples: int, seed: int, guard: int):
    sams = [_orbit(system, base, length, seed, task, guard)[1]
            for task in range(samples)]
    table = {"sample": np.repeat(np.arange(samples), length),
             "n": np.tile(np.arange(length), samples),
             "value": np.concatenate([s.values for s in sams])}
    results = {"samples": samples, "length": length, "base": base,
               "discrepancy": [discrepancy(s) for s in sams],
               "accuracy": max(s.accuracy for s in sams)}
    return table, results


def run_digits(system: SelfSimilarSystem, base: int, count: int,
               guard: int, seed: int):
    stream = WordStream(system, seed)
    ds = digits(system, stream, base, count, guard=guard)
    table = {"n": range(len(ds.digits)), "digit": ds.digits}
    freqs = digit_frequencies(ds, 1)
    results = {"base": base, "certified_length": ds.certified_length,
               "word_depth": ds.depth,
               "digit_frequencies": {str(k[0]): v / freqs.total
                                     for k, v in freqs.counts.items()}}
    return table, results


def parse_beta(beta: Optional[str], beta_poly: Optional[str],
               beta_lo: Optional[str], beta_hi: Optional[str]):
    if beta is not None:
        return as_fraction(beta)
    if beta_poly is None:
        raise ConfigParseError("need --beta or --beta-poly")
    try:
        coeffs = tuple(int(c) for c in beta_poly.split(","))
    except ValueError as exc:
        raise ConfigParseError(f"bad polynomial {beta_poly!r}") from exc
    lo = as_fraction(beta_lo) if beta_lo is not None else Fraction(1)
    hi = as_fraction(beta_hi) if beta_hi is not None else Fraction(2) ** 16
    return AlgebraicReal(coeffs, lo, hi)


def run_beta_orbit(system: Optional[SelfSimilarSystem], beta_spec,
                   x: Optional[str], length: int, seed: int,
                   precision_bits: Optional[int] = None):
    beta = beta_spec
    if x is not None:
        point = as_fraction(x)
    elif system is not None:
        # the caps of the ball loop are checked before the point is sampled
        ball_precision(length, _multiplier_enclosure(beta)[1], precision_bits)
        hi = beta.hi if isinstance(beta, AlgebraicReal) else beta
        bits = math.ceil(length * _log2(hi)) + 80
        point = sampled_point(system, WordStream(system, seed),
                              Fraction(1, 2) ** bits)
    else:
        raise ConfigParseError("need --x or --system to choose the point")
    sam = beta_orbit(point, beta, length, seed=seed,
                     min_prec=precision_bits)
    start = sam.metadata.get("start_index", 1)
    table = {"n": range(start, start + len(sam)), "value": sam.values}
    results = {"length": len(sam), "metadata": sam.metadata,
               "discrepancy": discrepancy(sam) if len(sam) else None}
    return table, results


def run_power_orbit(x: str, length: int, seed: int,
                    precision_bits: Optional[int] = None):
    sam = power_orbit(as_fraction(x), length, seed=seed,
                      min_prec=precision_bits)
    table = {"n": range(1, len(sam) + 1), "value": sam.values}
    results = {"length": len(sam), "metadata": sam.metadata,
               "discrepancy": discrepancy(sam)}
    return table, results


def run_normality(system: SelfSimilarSystem, base: int, length: int,
                  q_max: int, samples: int, seed: int, guard: int,
                  disc_threshold: float, weyl_threshold: float):
    stats = []
    for task in range(samples):
        ds, sam = _orbit(system, base, length, seed, task, guard)
        # the first digits of the orbit's own certified stream
        head = dataclasses.replace(ds, certified_length=min(length, 4096))
        freq = digit_frequencies(head, 1)
        wr = weyl_report(sam, q_max, threshold=weyl_threshold)
        stats.append({
            "sample": task,
            "discrepancy": discrepancy(sam),
            "max_weyl_modulus": float(wr.moduli.max()),
            "weyl_flagged": len(wr.flagged),
            "digit_freqs": {str(k[0]): c / freq.total
                            for k, c in freq.counts.items()},
        })
    table = {key: [s[key] for s in stats] for key in
             ("sample", "discrepancy", "max_weyl_modulus", "weyl_flagged")}
    disc_pass = sum(1 for s in stats if s["discrepancy"] <= disc_threshold)
    weyl_pass = sum(1 for s in stats if s["max_weyl_modulus"] <= weyl_threshold)
    results = {
        "base": base, "length": length, "q_max": q_max, "samples": samples,
        "thresholds": {"discrepancy": disc_threshold, "weyl": weyl_threshold},
        "passes": {"discrepancy": disc_pass, "weyl": weyl_pass},
        "per_sample": stats,
    }
    return table, results


def _sequence_source(source: str, system: Optional[SelfSimilarSystem],
                     base: Optional[int], x: Optional[str], length: int,
                     seed: int, task: int = 0) -> SequenceSample:
    if source == "orbit":
        if system is None or base is None:
            raise ConfigParseError("orbit source needs --system and --base")
        return _orbit(system, base, length, seed, task)[1]
    if source == "power":
        if x is None:
            raise ConfigParseError("power source needs --x")
        return power_orbit(as_fraction(x), length, seed=seed)
    if source == "uniform":
        return uniform_sample(length, seed, (task,) if task else ())
    raise ConfigParseError(f"unknown source {source!r}")


def _per_sample(source: str, samples: int, stat) -> list:
    """`stat(task)` for each sample.  The power source draws nothing at
    random, so its samples are equal: it runs once and the result repeats."""
    if source == "power":
        return [stat(0)] * samples
    return [stat(task) for task in range(samples)]


def run_correlations(source: str, system, base, x, length: int, k: int,
                     test_fn: TestFunction, samples: int, seed: int):
    res = _per_sample(source, samples, lambda task: k_level_correlation(
        _sequence_source(source, system, base, x, length, seed, task),
        k, test_fn))
    table = {"sample": range(len(res)), "k": [r.k for r in res],
             "value": [r.value for r in res],
             "integral": [float(r.integral) for r in res],
             "deviation": [r.deviation for r in res]}
    results = {"k": k, "test_function": test_fn.describe(), "length": length,
               "integral": float(res[0].integral),
               "values": [r.value for r in res],
               "mean_value": float(np.mean([r.value for r in res]))}
    return table, results


def _parse_grid(spec: str) -> np.ndarray:
    try:
        lo, hi, step = (float(t) for t in spec.split(":"))
        if not step > 0:
            raise ValueError("step must be > 0")
        return np.arange(lo, hi + step / 2, step)
    except ValueError as exc:
        raise ConfigParseError(
            f"bad grid {spec!r}; use lo:hi:step with step > 0") from exc


def run_spacings(source: str, system, base, x, length: int, s_grid: str,
                 samples: int, seed: int):
    grid = _parse_grid(s_grid)
    reps = _per_sample(source, samples, lambda task: level_spacings(
        _sequence_source(source, system, base, x, length, seed, task),
        s_grid=grid))
    s = np.concatenate([rep.s_grid for rep in reps])
    table = {"sample": np.repeat(np.arange(len(reps)), len(grid)), "s": s,
             "G": np.concatenate([rep.g_empirical for rep in reps]),
             "poisson": [1.0 - float(np.exp(-v)) for v in s]}
    results = {"length": length, "samples": samples,
               "sup_distances": [r.sup_distance for r in reps]}
    return table, results


def run_martingale(system: SelfSimilarSystem, p: int, qs: Sequence[int],
                   n_list: Sequence[int], samples: int, seed: int,
                   tol: float, budget: int):
    runs = []
    for task in range(samples):
        task_seed = seed if samples == 1 else int(
            np.random.SeedSequence(seed, spawn_key=(task,)).generate_state(1)[0])
        runs += [(task_seed, gs) for gs in martingale_gaps(
            system, task_seed, qs, n_list, p, tol=tol, budget=budget)]
    table = {"seed": [s for s, gs in runs for _ in gs.n_values],
             "q": [gs.q for _, gs in runs for _ in gs.n_values],
             "N": [n for _, gs in runs for n in gs.n_values],
             "empirical_re": [e.real for _, gs in runs for e in gs.empirical],
             "empirical_im": [e.imag for _, gs in runs for e in gs.empirical],
             "cylinder_re": [c.real for _, gs in runs for c in gs.cylinder],
             "cylinder_im": [c.imag for _, gs in runs for c in gs.cylinder],
             "gap": [g for _, gs in runs for g in gs.gaps]}
    medians = {}
    for q in qs:
        for n in sorted(set(int(v) for v in n_list)):
            gaps = [gs.gaps[gs.n_values.index(n)] for _, gs in runs
                    if gs.q == q]
            medians[f"q={q},N={n}"] = float(np.median(gaps))
    results = {"p": p, "qs": list(qs), "n_list": [int(v) for v in n_list],
               "samples": samples, "median_gaps": medians}
    return table, results
