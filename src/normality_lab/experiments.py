"""Experiment runners, one per CLI subcommand.

`run_<subcommand>(args, system)` (hyphens as underscores) reads and
interprets its own parsed arguments, raising ConfigParseError (exit 4) for a
bad value, and returns (table, results): `table` maps each CSV column name,
in order, to its column (a numpy array, range or list; all of one length),
and `results` is a JSON-ready summary.  Multi-sample experiments derive
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
from typing import Iterator, Optional

import numpy as np

from .algebra import AlgebraicReal, classify_obstruction
from .errors import ConfigParseError
from .fourier import MIN_TOL, decay_profile, fourier_exact
from .ifs import (
    SelfSimilarSystem,
    as_fraction,
    frac_str,
    system_to_dict,
    validate,
)
from .martingale import check_stopping_size, martingale_gaps
from .sampling import (
    MAX_DIGITS,
    DigitStream,
    SequenceSample,
    WordStream,
    ball_start_radius,
    beta_orbit,
    check_digit_bits,
    digits,
    orbit_digit_count,
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


def _orbits(system: SelfSimilarSystem, base: int, length: int, seed: int,
            samples: int, guard: int = 16
            ) -> Iterator[tuple[DigitStream, SequenceSample]]:
    """Each sample's certified digits and its first `length` orbit values.
    ConfigParseError (exit 4), before any sample is drawn, when the digits
    of all samples hold more than MAX_DIGITS bits."""
    count = orbit_digit_count(base, length)
    check_digit_bits(system, base, count, guard, samples)
    for task in range(samples):
        stream = WordStream(system, seed, spawn_key=(task,) if task else ())
        ds = digits(system, stream, base, count, guard=guard)
        yield ds, orbit_sequence(ds, length)


def _check_tol(tol: float) -> None:
    """ConfigParseError (exit 4) for a --tol below fourier.MIN_TOL."""
    if tol < MIN_TOL:
        raise ConfigParseError(f"--tol must be >= {MIN_TOL}, got {tol}")


def _records(table: dict) -> list:
    """The rows of a table of list columns as dicts, for JSON summaries."""
    return [dict(zip(table, row)) for row in zip(*table.values())]


# ------------------------------------------------------------------ runners

def run_validate(args, system: SelfSimilarSystem):
    report = validate(system)
    table = {"ok": [report.ok],
             "failures": [";".join(type(f).__name__ for f in report.failures)]}
    results = {"ok": report.ok,
               "failures": [{"kind": type(f).__name__, "detail": str(f)}
                            for f in report.failures]}
    return table, results


def run_classify(args, system: SelfSimilarSystem):
    report = classify_obstruction(system, args.base)
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
        "base": args.base,
        "conjugator": {"slope": frac_str(report.conjugator.slope),
                       "offset": frac_str(report.conjugator.offset)},
        "normality_witness": {"found": witness is not None, "map": witness},
        "per_map": _records(table),
    }
    return table, results


def run_fourier(args, system: SelfSimilarSystem):
    _check_tol(args.tol)
    fv = fourier_exact(system, as_fraction(args.q), tol=args.tol,
                       budget=args.budget)
    table = {"q": [frac_str(fv.frequency)], "re": [fv.real], "im": [fv.imag],
             "modulus": [fv.modulus], "error_bound": [fv.error_bound],
             "nodes": [fv.nodes], "budget_exceeded": [fv.budget_exceeded]}
    return table, _records(table)[0]


# A grid point is one CSV row per sample of `spacings` (the default --s-grid
# has 51) and one transform value of `decay` (the default bands hold 4,607)
MAX_GRID_POINTS = 1 << 16


def run_decay(args, system: SelfSimilarSystem):
    _check_tol(args.tol)
    # band j holds min(per_band, 2^j) leading integers and at most one power
    # of each slope denominator: counted before any band is built
    points = sum(min(args.per_band, 1 << j) + len(system.maps)
                 for j in range(args.j_max + 1))
    if points > MAX_GRID_POINTS:
        raise ConfigParseError(f"decay grid of up to {points} points is over "
                               f"the cap of {MAX_GRID_POINTS}")
    bands = decay_profile(system, args.j_max, per_band=args.per_band,
                          tol=args.tol, budget=args.budget).bands
    table = {"band": [b.index for b in bands],
             "q_lo": [1 << b.index for b in bands],
             "q_hi": [1 << (b.index + 1) for b in bands],
             "sup_modulus": [b.sup_modulus for b in bands],
             "argmax_q": [frac_str(b.argmax_q) for b in bands],
             "samples": [b.samples for b in bands],
             "budget_exceeded": [b.budget_exceeded for b in bands]}
    return table, {"bands": _records(table)}


def run_orbit(args, system: SelfSimilarSystem):
    base, length, samples = args.base, args.length, args.samples
    sams = [sam for _, sam in _orbits(system, base, length, args.seed,
                                      samples, args.guard)]
    table = {"sample": np.repeat(np.arange(samples), length),
             "n": np.tile(np.arange(length), samples),
             "value": np.concatenate([s.values for s in sams])}
    results = {"samples": samples, "length": length, "base": base,
               "discrepancy": [discrepancy(s) for s in sams],
               "accuracy": max(s.accuracy for s in sams)}
    return table, results


def run_digits(args, system: SelfSimilarSystem):
    stream = WordStream(system, args.seed)
    ds = digits(system, stream, args.base, args.count, guard=args.guard)
    table = {"n": range(len(ds.digits)), "digit": ds.digits}
    freqs = digit_frequencies(ds, 1)
    results = {"base": args.base, "certified_length": ds.certified_length,
               "word_depth": ds.depth,
               "digit_frequencies": {str(k[0]): v / freqs.total
                                     for k, v in freqs.counts.items()}}
    return table, results


# The Sturm chain of a degree-d polynomial with b-bit coefficients holds
# integers of about B = 2 d (b + log2(d) / 2) bits (Hadamard's bound on its
# subresultants), and building it takes about 1.4e-11 d^2.1 B^(5/3) s of
# CPU, a least-squares fit on log time over d = 5..320 and b = 1..16000
# (2-core x86-64, Python 3.11): the slowest chain at the cap takes about 2 s
MAX_CHAIN_WORK = 10 ** 11


def chain_work(degree: int, bits: int) -> float:
    """d^2.1 B^(5/3) for the Sturm chain of a degree-d polynomial with b-bit
    coefficients, the price that MAX_CHAIN_WORK caps."""
    chain_bits = 2 * degree * (bits + math.log2(max(degree, 1)) / 2)
    return degree ** 2.1 * chain_bits ** (5 / 3)


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
    degree = len(coeffs) - 1
    bits = max(abs(c).bit_length() for c in coeffs)
    if chain_work(degree, bits) > MAX_CHAIN_WORK:
        raise ConfigParseError(
            f"--beta-poly of degree {degree} with {bits}-bit coefficients is "
            f"over the Sturm-chain work cap of {MAX_CHAIN_WORK}")
    lo = as_fraction(beta_lo) if beta_lo is not None else Fraction(1)
    hi = as_fraction(beta_hi) if beta_hi is not None else Fraction(2) ** 16
    return AlgebraicReal(coeffs, lo, hi)


def run_beta_orbit(args, system: Optional[SelfSimilarSystem]):
    beta_spec = parse_beta(args.beta, args.beta_poly, args.beta_lo,
                           args.beta_hi)
    if args.x is not None:
        point = as_fraction(args.x)
    elif system is not None:
        radius = ball_start_radius(beta_spec, args.length, args.precision_bits)
        point = sampled_point(system, WordStream(system, args.seed), radius)
    else:
        raise ConfigParseError("need --x or --system to choose the point")
    sam = beta_orbit(point, beta_spec, args.length,
                     min_prec=args.precision_bits)
    start = sam.metadata.get("start_index", 1)
    table = {"n": range(start, start + len(sam)), "value": sam.values}
    results = {"length": len(sam), "metadata": sam.metadata,
               "discrepancy": discrepancy(sam) if len(sam) else None}
    return table, results


def run_power_orbit(args, system: Optional[SelfSimilarSystem]):
    sam = power_orbit(as_fraction(args.x), args.length,
                      min_prec=args.precision_bits)
    table = {"n": range(1, len(sam) + 1), "value": sam.values}
    results = {"length": len(sam), "metadata": sam.metadata,
               "discrepancy": discrepancy(sam)}
    return table, results


# Each Weyl sum adds one phase per orbit value, so a normality run makes
# samples x length x q_max of them; at the cap it takes about 12 s wall
MAX_WEYL_TERMS = 2 * 10 ** 8


def run_normality(args, system: SelfSimilarSystem):
    base, length, q_max, samples = (args.base, args.length, args.q_max,
                                    args.samples)
    if samples * length * q_max > MAX_WEYL_TERMS:
        raise ConfigParseError(
            f"{samples} samples x length {length} x q-max {q_max} Weyl "
            f"terms are over the cap of {MAX_WEYL_TERMS}")
    stats = []
    for task, (ds, sam) in enumerate(_orbits(system, base, length, args.seed,
                                             samples, args.guard)):
        # the first digits of the orbit's own certified stream
        head = dataclasses.replace(ds, certified_length=min(length, 4096))
        freq = digit_frequencies(head, 1)
        wr = weyl_report(sam, q_max, threshold=args.weyl_threshold)
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
    disc_pass = sum(1 for s in stats
                    if s["discrepancy"] <= args.disc_threshold)
    weyl_pass = sum(1 for s in stats
                    if s["max_weyl_modulus"] <= args.weyl_threshold)
    results = {
        "base": base, "length": length, "q_max": q_max, "samples": samples,
        "thresholds": {"discrepancy": args.disc_threshold,
                       "weyl": args.weyl_threshold},
        "passes": {"discrepancy": disc_pass, "weyl": weyl_pass},
        "per_sample": stats,
    }
    return table, results


def _per_sample(args, system, stat) -> list:
    """`stat(sequence)` for each sample of the --source sequence.  Before
    any sample is drawn, --samples times one sample's size is checked
    against MAX_DIGITS (exit 4): its digit bits for the orbit source, its
    values (at least one) for the others.  The power source draws nothing
    at random, so its samples are equal: it runs once and the result
    repeats."""
    if args.source == "orbit":
        if system is None or args.base is None:
            raise ConfigParseError("orbit source needs --system and --base")
        return [stat(sam) for _, sam in _orbits(
            system, args.base, args.length, args.seed, args.samples)]
    if args.samples * max(args.length, 1) > MAX_DIGITS:
        raise ConfigParseError(
            f"{args.samples} samples x length {args.length} are over the "
            f"cap of {MAX_DIGITS} values")
    if args.source == "power":
        if args.x is None:
            raise ConfigParseError("power source needs --x")
        sam = power_orbit(as_fraction(args.x), args.length)
        return [stat(sam)] * args.samples
    if args.source == "uniform":
        return [stat(uniform_sample(args.length, args.seed,
                                    (task,) if task else ()))
                for task in range(args.samples)]
    raise ConfigParseError(f"unknown source {args.source!r}")


def _test_function(args) -> TestFunction:
    """The --box or --triangle test function; a box of half-width 1/2 when
    neither is given."""
    if args.box is not None and args.triangle is not None:
        raise ConfigParseError("choose one of --box / --triangle")
    if args.triangle is not None:
        return TestFunction.triangle(as_fraction(args.triangle))
    width = args.box if args.box is not None else "1/2"
    return TestFunction.box(as_fraction(width))


def run_correlations(args, system: Optional[SelfSimilarSystem]):
    test_fn = _test_function(args)
    res = _per_sample(args, system, lambda seq: k_level_correlation(
        seq, args.k, test_fn))
    table = {"sample": range(len(res)), "k": [r.k for r in res],
             "value": [r.value for r in res],
             "integral": [float(r.integral) for r in res],
             "deviation": [r.deviation for r in res]}
    results = {"k": args.k, "test_function": test_fn.describe(),
               "length": args.length, "integral": float(res[0].integral),
               "values": [r.value for r in res],
               "mean_value": float(np.mean([r.value for r in res]))}
    return table, results


def _parse_grid(spec: str) -> np.ndarray:
    """lo, lo + step, ... up to hi; ConfigParseError (exit 4) for a bad
    spec or one of more than MAX_GRID_POINTS points, counted before the
    grid is made."""
    try:
        lo, hi, step = (float(t) for t in spec.split(":"))
        if not step > 0:
            raise ValueError("step must be > 0")
        points = (hi + step / 2 - lo) / step
        if points > MAX_GRID_POINTS:
            raise ConfigParseError(
                f"grid {spec!r} has more than {MAX_GRID_POINTS} points")
        return np.arange(lo, hi + step / 2, step)
    except ValueError as exc:
        raise ConfigParseError(
            f"bad grid {spec!r}; use lo:hi:step with step > 0") from exc


def run_spacings(args, system: Optional[SelfSimilarSystem]):
    grid = _parse_grid(args.s_grid)
    if args.samples * len(grid) > MAX_GRID_POINTS:
        raise ConfigParseError(
            f"{args.samples} samples x {len(grid)} grid points are over the "
            f"cap of {MAX_GRID_POINTS} rows")
    reps = _per_sample(args, system, lambda seq: level_spacings(
        seq, s_grid=grid))
    s = np.concatenate([rep.s_grid for rep in reps])
    table = {"sample": np.repeat(np.arange(len(reps)), len(grid)), "s": s,
             "G": np.concatenate([rep.g_empirical for rep in reps]),
             "poisson": [1.0 - float(np.exp(-v)) for v in s]}
    results = {"length": args.length, "samples": args.samples,
               "sup_distances": [r.sup_distance for r in reps]}
    return table, results


def _int_list(spec: str) -> list:
    """A comma-separated list of integers, at least one."""
    try:
        values = [int(t) for t in str(spec).split(",") if t != ""]
    except ValueError as exc:
        raise ConfigParseError(f"bad integer list {spec!r}") from exc
    if not values:
        raise ConfigParseError(f"integer list {spec!r} is empty")
    return values


def run_martingale(args, system: SelfSimilarSystem):
    _check_tol(args.tol)
    qs, n_list = _int_list(args.q), _int_list(args.n_list)
    p, samples, seed = args.base, args.samples, args.seed
    # each sample walks to the largest N - 1
    check_stopping_size(system, max(n_list) - 1, p, samples)
    runs = []
    for task in range(samples):
        task_seed = seed if samples == 1 else int(
            np.random.SeedSequence(seed, spawn_key=(task,)).generate_state(1)[0])
        runs += [(task_seed, gs) for gs in martingale_gaps(
            system, task_seed, qs, n_list, p, tol=args.tol,
            budget=args.budget)]
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
        for n in sorted(set(n_list)):
            gaps = [gs.gaps[gs.n_values.index(n)] for _, gs in runs
                    if gs.q == q]
            medians[f"q={q},N={n}"] = float(np.median(gaps))
    results = {"p": p, "qs": qs, "n_list": n_list,
               "samples": samples, "median_gaps": medians}
    return table, results
