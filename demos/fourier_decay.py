#!/usr/bin/env python3
"""Fourier transform of self-similar measures: resonances vs decay.

The transform of the Cantor measure does not vanish along q = 3^m (the
classic non-Rajchman resonance), while the uniform measure written as the
self-similar system {x/2, (x+1)/2} has transform 0 at every nonzero integer.
Band-by-band sups over a stated grid make the contrast quantitative; no
decay rate is fitted to them, since the normality criterion asks only
whether the transform tends to 0.
"""

from normality_lab import (
    bernoulli_half_system,
    cantor_system,
    decay_profile,
    fourier_exact,
)

cantor = cantor_system()
half = bernoulli_half_system()

print("exact transform values (tolerance 1e-9):")
print(" q        |F_q| Cantor    |F_q| uniform")
for q in (1, 2, 3, 9, 27, 81, 729, 6561):
    fc = fourier_exact(cantor, q, tol=1e-9)
    fh = fourier_exact(half, q, tol=1e-9)
    print(f"{q:6d}   {fc.modulus:12.9f}   {fh.modulus:12.2e}")
print("|F_{3^m}| never decays for the Cantor measure: the same value")
print("returns at every power of 3, so the measure is not Rajchman.\n")

print("dyadic band sups (grid: leading integers + slope-denominator powers):")
profile_c = decay_profile(cantor, 14, per_band=64, tol=1e-8)
profile_h = decay_profile(half, 14, per_band=64, tol=1e-8)
print("band   frequency range        Cantor sup   at q      uniform sup")
for bc, bh in zip(profile_c.bands, profile_h.bands):
    rng = f"[{1 << bc.index}, {1 << (bc.index + 1)})"
    print(f"{bc.index:4d}   {rng:18s} {bc.sup_modulus:12.6f}   "
          f"{str(bc.argmax_q):8s} {bh.sup_modulus:12.2e}")
print("\nThe Cantor sup in every band holding a power of 3 is |F_1|, taken")
print("at that power: the sups do not tend to 0.")
