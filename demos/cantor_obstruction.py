#!/usr/bin/env python3
"""The middle-thirds Cantor measure: obstructed in base 3, equidistributed in base 2.

A point sampled from the Cantor measure has base-3 digits in {0, 2} only, so
its T_3 orbit can never equidistribute.  Base 2 is a different story: the
classifier finds an incommensurable contraction ratio, and the certified
orbit statistics at desk scale look exactly like a normal number's.
"""

from normality_lab import (
    WordStream,
    cantor_system,
    classify_obstruction,
    digit_frequencies,
    digits,
    discrepancy,
    incommensurable_slope_witness,
    orbit_digit_count,
    orbit_sequence,
    weyl_report,
)

system = cantor_system()
print("system: maps x/3 and (x+2)/3, weights (1/2, 1/2), hull [0, 1]\n")

for base in (3, 2):
    report = classify_obstruction(system, base)
    found, idx = incommensurable_slope_witness(system, base)
    print(f"base {base}: classifier verdict = {report.verdict.value}")
    if found:
        print(f"        map {idx} has slope incommensurable with {base} "
              f"-> almost every point is normal to base {base}")
    else:
        ratios = [str(mo.commensurability.ratio) for mo in report.per_map]
        print(f"        log-slope ratios {ratios}; translations "
              f"{[str(mo.offset) for mo in report.per_map]}")
print()

# Certified digits of one sampled point in both bases.
for base in (3, 2):
    stream = WordStream(system, seed=7)
    ds = digits(system, stream, base, 2000)
    table = digit_frequencies(ds, 1)
    freqs = {d: round(table.frequency(d), 4) for d in range(base)}
    print(f"base {base}: first 30 certified digits "
          f"{[int(d) for d in ds.digits[:30]]}")
    print(f"        digit frequencies over 2000 digits: {freqs}")
print()

# Orbit statistics under T_2 for a handful of seeds.
print("T_2 orbit statistics, N = 10000 points per seed:")
print("seed  discrepancy  max |F_q| (q <= 10)")
for seed in range(5):
    stream = WordStream(system, seed)
    ds = digits(system, stream, 2, orbit_digit_count(2, 10_000))
    orbit = orbit_sequence(ds, 10_000)
    rep = weyl_report(orbit, 10)
    print(f"{seed:4d}  {discrepancy(orbit):11.4f}  {rep.moduli.max():.4f}")
print("\nSmall discrepancy and Weyl sums: the base-2 orbit of a Cantor point")
print("equidistributes at desk scale, while base 3 is structurally blocked.")
