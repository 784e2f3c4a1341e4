"""Experiment orchestration shared by the CLI and the demo scripts.

Each runner returns (rows, results): `rows` is a list of flat dicts destined
for CSV, `results` a JSON-ready summary.  Multi-sample experiments derive
per-task seeds through SeedSequence spawn keys, so output is deterministic
for a fixed (config, seed).  Samples run one after another: the work is
GIL-bound big-integer arithmetic, which a thread pool only slows down.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .algebra import (
    AlgebraicReal,
    classify_obstruction,
    incommensurable_slope_witness,
)
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
    _tail_digit_count,
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


# ------------------------------------------------------------------ runners

def run_validate(system: SelfSimilarSystem):
    report = validate(system)
    rows = [{"ok": report.ok,
             "failures": ";".join(type(f).__name__ for f in report.failures)}]
    results = {"ok": report.ok,
               "failures": [{"kind": type(f).__name__, "detail": str(f)}
                            for f in report.failures]}
    return rows, results


def run_classify(system: SelfSimilarSystem, base: int):
    report = classify_obstruction(system, base)
    witness_found, witness = incommensurable_slope_witness(system, base)
    rows = []
    for mo in report.per_map:
        rows.append({
            "map": mo.index,
            "slope": frac_str(mo.slope),
            "offset": frac_str(mo.offset),
            "commensurable": mo.commensurability.commensurable,
            "log_ratio": (frac_str(mo.commensurability.ratio)
                          if mo.commensurability.ratio is not None else ""),
            "translation_form": mo.translation_form,
            "translation_exponent": (mo.translation_exponent
                                     if mo.translation_exponent is not None else ""),
        })
    results = {
        "verdict": report.verdict.value,
        "base": base,
        "conjugator": {"slope": frac_str(report.conjugator.slope),
                       "offset": frac_str(report.conjugator.offset)},
        "normality_witness": {"found": witness_found, "map": witness},
        "per_map": rows,
    }
    return rows, results


def run_fourier(system: SelfSimilarSystem, q, tol: float, budget: int):
    fv = fourier_exact(system, as_fraction(q), tol=tol, budget=budget)
    row = {"q": frac_str(fv.frequency), "re": fv.real, "im": fv.imag,
           "modulus": fv.modulus, "error_bound": fv.error_bound,
           "nodes": fv.nodes, "budget_exceeded": fv.budget_exceeded}
    return [row], dict(row)


def run_decay(system: SelfSimilarSystem, j_max: int, per_band: int,
              tol: float, budget: int):
    profile = decay_profile(system, j_max, per_band=per_band, tol=tol,
                            budget=budget)
    rows = []
    for b in profile.bands:
        rows.append({"band": b.index, "q_lo": 1 << b.index,
                     "q_hi": 1 << (b.index + 1), "sup_modulus": b.sup_modulus,
                     "argmax_q": frac_str(b.argmax_q), "samples": b.samples,
                     "budget_exceeded": b.budget_exceeded})
    results: dict = {"bands": rows}
    try:
        fit = decay_fit(profile)
    except InsufficientBands as exc:
        results["fit"] = {"regime": "unavailable", "reason": str(exc)}
        return rows, results
    results["fit"] = {
        "regime": fit.regime, "alpha": fit.alpha,
        "alpha_ci": list(fit.alpha_ci) if fit.alpha_ci else None,
        "r_squared": fit.r_squared,
    }
    if fit.alpha is not None:
        results["loglog_envelope_consistent"] = del_criterion_check(
            profile, fit.alpha)
    return rows, results


def run_orbit(system: SelfSimilarSystem, base: int, length: int,
              samples: int, seed: int, guard: int):
    sams = [_orbit(system, base, length, seed, task, guard)[1]
            for task in range(samples)]
    rows = []
    for i, sam in enumerate(sams):
        for n, v in enumerate(sam.values):
            rows.append({"sample": i, "n": n, "value": float(v)})
    results = {"samples": samples, "length": length, "base": base,
               "discrepancy": [discrepancy(s) for s in sams],
               "accuracy": max(s.accuracy for s in sams)}
    return rows, results


def run_digits(system: SelfSimilarSystem, base: int, count: int,
               guard: int, seed: int):
    stream = WordStream(system, seed)
    ds = digits(system, stream, base, count, guard=guard)
    rows = [{"n": i, "digit": int(d)} for i, d in enumerate(ds.digits)]
    freqs = digit_frequencies(ds, 1)
    results = {"base": base, "certified_length": ds.certified_length,
               "word_depth": ds.depth,
               "digit_frequencies": {str(k[0]): v / freqs.total
                                     for k, v in freqs.counts.items()}}
    return rows, results


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
        hi = beta.hi if isinstance(beta, AlgebraicReal) else beta
        bits = math.ceil(length * math.log2(float(hi))) + 80
        point = sampled_point(system, WordStream(system, seed),
                              Fraction(1, 2) ** bits)
    else:
        raise ConfigParseError("need --x or --system to choose the point")
    sam = beta_orbit(point, beta, length, seed=seed,
                     min_prec=precision_bits)
    rows = [{"n": n + sam.metadata.get("start_index", 1), "value": float(v)}
            for n, v in enumerate(sam.values)]
    results = {"length": len(sam), "metadata": sam.metadata,
               "discrepancy": discrepancy(sam) if len(sam) else None}
    return rows, results


def run_power_orbit(x: str, length: int, seed: int,
                    precision_bits: Optional[int] = None):
    sam = power_orbit(as_fraction(x), length, seed=seed,
                      min_prec=precision_bits)
    rows = [{"n": n + 1, "value": float(v)} for n, v in enumerate(sam.values)]
    results = {"length": len(sam), "metadata": sam.metadata,
               "discrepancy": discrepancy(sam)}
    return rows, results


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
    rows = [{"sample": s["sample"], "discrepancy": s["discrepancy"],
             "max_weyl_modulus": s["max_weyl_modulus"],
             "weyl_flagged": s["weyl_flagged"]} for s in stats]
    disc_pass = sum(1 for s in stats if s["discrepancy"] <= disc_threshold)
    weyl_pass = sum(1 for s in stats if s["max_weyl_modulus"] <= weyl_threshold)
    results = {
        "base": base, "length": length, "q_max": q_max, "samples": samples,
        "thresholds": {"discrepancy": disc_threshold, "weyl": weyl_threshold},
        "passes": {"discrepancy": disc_pass, "weyl": weyl_pass},
        "per_sample": stats,
    }
    return rows, results


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


def run_correlations(source: str, system, base, x, length: int, k: int,
                     test_fn: TestFunction, samples: int, seed: int):
    res = [k_level_correlation(
               _sequence_source(source, system, base, x, length, seed, task),
               k, test_fn)
           for task in range(samples)]
    rows = [{"sample": i, "k": r.k, "value": r.value,
             "integral": float(r.integral), "deviation": r.deviation}
            for i, r in enumerate(res)]
    results = {"k": k, "test_function": test_fn.describe(), "length": length,
               "integral": float(res[0].integral),
               "values": [r.value for r in res],
               "mean_value": float(np.mean([r.value for r in res]))}
    return rows, results


def _parse_grid(spec: str) -> np.ndarray:
    try:
        lo, hi, step = (float(t) for t in spec.split(":"))
        return np.arange(lo, hi + step / 2, step)
    except ValueError as exc:
        raise ConfigParseError(f"bad grid {spec!r}; use lo:hi:step") from exc


def run_spacings(source: str, system, base, x, length: int, s_grid: str,
                 samples: int, seed: int):
    grid = _parse_grid(s_grid)

    reps = [level_spacings(
                _sequence_source(source, system, base, x, length, seed, task),
                s_grid=grid)
            for task in range(samples)]
    rows = []
    for i, rep in enumerate(reps):
        for s, g in zip(rep.s_grid, rep.g_empirical):
            rows.append({"sample": i, "s": float(s), "G": float(g),
                         "poisson": 1.0 - float(np.exp(-s))})
    results = {"length": length, "samples": samples,
               "sup_distances": [r.sup_distance for r in reps]}
    return rows, results


def run_martingale(system: SelfSimilarSystem, p: int, qs: Sequence[int],
                   n_list: Sequence[int], samples: int, seed: int,
                   tol: float):
    rows = []
    for task in range(samples):
        task_seed = seed if samples == 1 else int(
            np.random.SeedSequence(seed, spawn_key=(task,)).generate_state(1)[0])
        for gs in martingale_gaps(system, task_seed, qs, n_list, p, tol=tol):
            for n, e, c, g in zip(gs.n_values, gs.empirical, gs.cylinder,
                                  gs.gaps):
                rows.append({"seed": task_seed, "q": gs.q, "N": n,
                             "empirical_re": e.real, "empirical_im": e.imag,
                             "cylinder_re": c.real, "cylinder_im": c.imag,
                             "gap": g})
    medians = {}
    for q in qs:
        for n in sorted(set(int(v) for v in n_list)):
            gaps = [r["gap"] for r in rows if r["q"] == q and r["N"] == n]
            medians[f"q={q},N={n}"] = float(np.median(gaps))
    results = {"p": p, "qs": list(qs), "n_list": [int(v) for v in n_list],
               "samples": samples, "median_gaps": medians}
    return rows, results
