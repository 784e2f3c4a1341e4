"""Acceptance gate: nine criteria, each printing one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Tolerances and sample sizes are pinned here, not configurable.
"""

import json
import time
from fractions import Fraction

import numpy as np

from normality_lab import (
    WordStream,
    digit_frequencies,
    digits,
    discrepancy,
    fourier_exact,
    is_pisot,
    level_spacings,
    log_commensurable,
    k_level_correlation,
    orbit_sequence,
    save_system,
    stopping_records,
    uniform_sample,
    weyl_report,
)
from normality_lab.cli import main as cli_main
from normality_lab.martingale import martingale_gaps, min_stopping_depth
from normality_lab.sampling import orbit_digit_count
from normality_lab.stats import TestFunction as TFn

from oracles import naive_k_level_correlation

F = Fraction


def _report(num: int, ok: bool, detail: str, t0: float):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {num}] {status} ({time.time() - t0:.1f}s): {detail}")
    assert ok, f"criterion {num}: {detail}"


def _orbit(system, base, length, seed, task=0):
    stream = WordStream(system, seed, spawn_key=(task,) if task else ())
    ds = digits(system, stream, base, orbit_digit_count(base, length))
    return orbit_sequence(ds, length)


class TestAcceptance:
    def test_c1_cantor_obstruction(self, cantor, tmp_path, capsys):
        t0 = time.time()
        bad_digit_hits = 0
        for seed in range(20):
            ds = digits(cantor, WordStream(cantor, seed), 3, 1000)
            table = digit_frequencies(ds, 1)
            if table.frequency(1) != 0.0:
                bad_digit_hits += 1
        path = tmp_path / "cantor.json"
        save_system(cantor, path)
        code = cli_main(["classify", "--system", str(path), "--base", "3",
                         "--format", "json"])
        out = capsys.readouterr().out
        verdict = json.loads(out)["results"]["verdict"]
        elapsed = time.time() - t0
        ok = (bad_digit_hits == 0
              and verdict == "MatchesObstructionForm"
              and code == 0 and elapsed < 10.0)
        _report(1, ok, f"digit-1 frequency 0 on 20 seeds x 1000 digits; "
                f"classify={verdict}", t0)

    def test_c2_base2_equidistribution(self, cantor):
        t0 = time.time()
        disc_pass = weyl_pass = 0
        for seed in range(20):
            orb = _orbit(cantor, 2, 10_000, seed)
            if discrepancy(orb) <= 0.05:
                disc_pass += 1
            rep = weyl_report(orb, 10)
            if rep.moduli.max() <= 0.05:
                weyl_pass += 1
        elapsed = time.time() - t0
        ok = disc_pass >= 18 and weyl_pass >= 18 and elapsed < 120.0
        _report(2, ok, f"discrepancy<=0.05 on {disc_pass}/20, "
                f"weyl<=0.05 on {weyl_pass}/20 seeds", t0)

    def test_c3_fourier_exactness(self, cantor, half, three_systems):
        t0 = time.time()
        mass_ok = all(fourier_exact(s, 0).value == 1.0
                      and fourier_exact(s, 0).error_bound == 0.0
                      for s in three_systems.values())
        odd_ok = all(fourier_exact(half, q, tol=1e-9).modulus <= 1e-9
                     for q in range(1, 1001, 2))
        f1 = fourier_exact(cantor, 1, tol=1e-9).modulus
        res_ok = all(abs(fourier_exact(cantor, 3 ** m, tol=1e-9).modulus - f1)
                     <= 2e-9 for m in range(1, 9))
        elapsed = time.time() - t0
        ok = mass_ok and odd_ok and res_ok and elapsed < 60.0
        _report(3, ok, "F_0=1 exact; odd-q moduli <= 1e-9; "
                "Cantor 3^m resonance within 2e-9", t0)

    def test_c4_monte_carlo_equivalence(self, three_systems):
        t0 = time.time()
        tol = 1e-6
        rng = np.random.default_rng(2024)
        qs = [F(int(rng.integers(-100, 101)) or 7, int(rng.integers(1, 8)))
              for _ in range(20)]
        seeds = {"cantor": 11, "half": 22, "mixed": 33}
        worst = 0.0
        for name, system in three_systems.items():
            pts = _measure_points(system, 10 ** 6, seed=seeds[name])
            for q in qs:
                exact = fourier_exact(system, q, tol=tol).value
                mc = complex(np.exp(2j * np.pi * float(q) * pts).mean())
                worst = max(worst, abs(exact - mc))
        elapsed = time.time() - t0
        ok = worst <= 3e-3 + tol and elapsed < 300.0
        _report(4, ok, f"max |exact - MC(1e6)| = {worst:.2e} <= 3e-3+tol "
                f"over 20 q x 3 systems", t0)

    def test_c5_stopping_time_exactness(self, three_systems):
        t0 = time.time()
        rng = np.random.default_rng(99)
        violations = 0
        checked = 0
        for system in three_systems.values():
            smin = system.min_slope
            for p in (2, 3, 5):
                n_values = sorted(int(v) for v in rng.integers(0, 120, 112))
                recs = stopping_records(system, WordStream(system, p),
                                        max(n_values), p)
                for n in n_values:
                    rec = recs[n]
                    checked += 1
                    threshold = F(1, p) ** n
                    if not rec.derivative_magnitude < threshold:
                        violations += 1
                    if not abs(rec.prev_derivative) >= threshold:
                        violations += 1  # minimality, exactly
                    if rec.beta < min_stopping_depth(system, n, p):
                        violations += 1
                    if not (smin <= abs(rec.r) < 1):
                        violations += 1
        elapsed = time.time() - t0
        ok = violations == 0 and checked >= 1000
        _report(5, ok, f"{checked} records on 3 systems x p in {{2,3,5}}: "
                f"{violations} violations", t0)

    def test_c6_martingale_gap(self, cantor):
        t0 = time.time()
        gaps_small = {q: [] for q in (1, 2, 3)}
        gaps_large = {q: [] for q in (1, 2, 3)}
        for seed in range(10):
            series = martingale_gaps(cantor, seed, [1, 2, 3],
                                     [100, 10_000], 2, tol=1e-6)
            for gs in series:
                gaps_small[gs.q].append(gs.gaps[0])
                gaps_large[gs.q].append(gs.gaps[1])
        ok = True
        detail = []
        for q in (1, 2, 3):
            med_small = float(np.median(gaps_small[q]))
            med_large = float(np.median(gaps_large[q]))
            detail.append(f"q={q}: median gap 1e2={med_small:.3f} "
                          f"1e4={med_large:.4f}")
            ok = ok and med_large <= 0.1 and med_large <= med_small
        elapsed = time.time() - t0
        ok = ok and elapsed < 600.0
        _report(6, ok, "; ".join(detail), t0)

    def test_c7_correlation_oracle_and_poisson(self):
        t0 = time.time()
        rng = np.random.default_rng(7)
        mismatches = 0
        for i in range(200):
            k = 2 if i % 2 == 0 else 3
            n = int(rng.integers(max(5, k + 1), 31))
            xs = rng.random(n)
            w = F(int(rng.integers(1, 1 + n // 2)), 2)
            got = k_level_correlation(xs, k, TFn.box(w)).value
            want = naive_k_level_correlation(xs, k, "box", w)
            if got != want:
                mismatches += 1
        r2_pass = spacing_pass = 0
        for seed in range(20):
            sam = uniform_sample(10_000, seed=seed)
            r2 = k_level_correlation(sam, 2, TFn.box(F(1, 2))).value
            if abs(r2 - 1.0) <= 0.1:
                r2_pass += 1
            if level_spacings(sam).sup_distance <= 0.03:
                spacing_pass += 1
        ok = mismatches == 0 and r2_pass >= 18 and spacing_pass >= 18
        _report(7, ok, f"oracle mismatches={mismatches}/200; R2 within 10% on "
                f"{r2_pass}/20; spacing KS<=0.03 on {spacing_pass}/20", t0)

    def test_c8_classifier_ground_truth(self):
        t0 = time.time()
        checks = [
            log_commensurable(F(1, 3), 3).ratio == F(-1),
            log_commensurable(F(1, 2), 8).ratio == F(-1, 3),
            log_commensurable(F(2, 3), 6).commensurable is False,
            all(is_pisot([1, -m]).is_pisot for m in range(2, 101)),
            is_pisot([1, -1, -1]).is_pisot is True,
            is_pisot([1, 0, -3]).is_pisot is False,
        ]
        elapsed = time.time() - t0
        ok = all(checks) and elapsed < 10.0
        _report(8, ok, f"6/6 exact classifier checks in {elapsed:.2f}s", t0)

    def test_c9_digit_certificate_stability(self, three_systems):
        t0 = time.time()
        mismatches = 0
        points = 0
        for system in three_systems.values():
            for base in (2, 3, 10):
                for seed in range(12):
                    points += 1
                    d1 = digits(system, WordStream(system, seed), base, 400,
                                guard=16)
                    d2 = digits(system, WordStream(system, seed), base, 400,
                                guard=26)
                    prefix = d1.certified_length
                    if list(d1.digits[:prefix]) != list(d2.digits[:prefix]):
                        mismatches += 1
        ok = mismatches == 0 and points >= 100
        _report(9, ok, f"{points} points x (+10 guard re-extraction): "
                f"{mismatches} mismatches", t0)


def _measure_points(system, n_samples, seed):
    """Float samples of the self-similar measure (word depth to 1e-9)."""
    import math
    rho = float(system.contraction)
    width = float(system.hull_width)
    depth = max(1, math.ceil(math.log(1e-9 / max(width, 1e-30))
                             / math.log(rho)) + 1)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    cum = np.cumsum([float(w) for w in system.weights])
    cum[-1] = 1.0
    words = np.searchsorted(cum, rng.random((n_samples, depth)), side="right")
    slopes = np.array([float(m.slope) for m in system.maps])
    offsets = np.array([float(m.offset) for m in system.maps])
    x = np.full(n_samples, float(system.hull[0] + system.hull[1]) / 2.0)
    for j in range(depth - 1, -1, -1):
        w = words[:, j]
        x = slopes[w] * x + offsets[w]
    return x
