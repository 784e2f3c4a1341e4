#!/usr/bin/env python3
"""Fine-scale statistics of mod-1 sequences: correlations and level spacings.

Uniform distribution says how often a sequence visits an interval; pair
correlations and nearest-neighbour spacings look at the scale of the mean gap
1/N.  A unit-intensity Poisson process has R_2(box of half-width w) -> 2w and
spacing law 1 - e^{-s}; i.i.d. uniform points match it, lattices do not, and
sequences like (3/2)^n mod 1 or T_2 orbits of Cantor points sit in between,
which is exactly what makes them interesting.
"""

from fractions import Fraction

import numpy as np

from normality_lab import (
    WordStream,
    cantor_system,
    digits,
    discrepancy,
    k_level_correlation,
    level_spacings,
    orbit_sequence,
    power_orbit,
    uniform_sample,
)
from normality_lab.stats import TestFunction

N = 10_000
box = TestFunction.box(Fraction(1, 2))
tri = TestFunction.triangle(Fraction(1))

print(f"N = {N} points per sequence; box half-width 1/2 (integral 1), "
      f"triangle half-width 1 (integral 1)\n")

sequences = {}
sequences["i.i.d. uniform"] = uniform_sample(N, seed=1)
sequences["lattice i/N"] = np.arange(N) / N
sequences["(3/2)^n mod 1"] = power_orbit(Fraction(3, 2), N)

cantor = cantor_system()
stream = WordStream(cantor, seed=5)
ds = digits(cantor, stream, 2, N + 100)
sequences["T_2 orbit, Cantor point"] = orbit_sequence(ds, N)

print(f"{'sequence':26s} {'D*_N':>8s} {'R_2(box)':>9s} {'R_2(tri)':>9s} "
      f"{'KS to 1-e^-s':>13s}")
for name, sam in sequences.items():
    d = discrepancy(sam)
    r2b = k_level_correlation(sam, 2, box).value
    r2t = k_level_correlation(sam, 2, tri).value
    ks = level_spacings(sam).sup_distance
    print(f"{name:26s} {d:8.4f} {r2b:9.4f} {r2t:9.4f} {ks:13.4f}")

print("""
Poisson reference: R_2 = integral of the test function (1 for both columns)
and KS distance near 0.  The lattice shows the opposite extreme: empty
correlations below the gap scale and a spacing law concentrated at s = 1.
""")

print("triple correlations (R_3, box 1/2 per coordinate, integral 1):")
for name in ("i.i.d. uniform", "(3/2)^n mod 1", "T_2 orbit, Cantor point"):
    r3 = k_level_correlation(sequences[name], 3, box)
    print(f"  {name:26s} R_3 = {r3.value:.4f}  (deviation {r3.deviation:.4f})")
