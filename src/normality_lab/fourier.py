"""Fourier transform of a self-similar measure, exactly and empirically.

The transform F_q = integral of e^{2 pi i q x} against the measure satisfies

    F_q = sum_i p_i * e^{2 pi i q t_i} * F_{q * s_i},

which this module expands as a memoized tree over exact rational frequencies.
A branch at reduced frequency u stops once 2 pi |u| * (hull width / 2) falls
below the tolerance; the sub-measure is then replaced by a point mass at the
hull midpoint, an elementary mean-value bound that keeps every reported error
rigorous.  One depth-first walk, `fourier_tree`, expands each node once and
takes a batch of roots; `fourier_exact` is its one-root call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .errors import InsufficientBands, InvalidInput
from .ifs import SelfSimilarSystem
from .sampling import SequenceSample

DEFAULT_TOL = 1e-9
DEFAULT_NODE_BUDGET = 10 ** 7


def ratio_phase(num: int, den: int) -> complex:
    """e^{2 pi i num/den} for integers num and den > 0, reduced mod 1 exactly.

    The ratio need not be in lowest terms: the special angles are tested on
    num mod den against den, and int/int true division is correctly rounded,
    so every representative of a rational gives the same float.  Exact
    reduction keeps the phase accurate for astronomically large arguments
    (q * p^n * offsets) and makes half and quarter phases exact.
    """
    r = num % den
    if r == 0:
        return complex(1.0, 0.0)
    if not den & 1 and 2 * r == den:  # a half turn needs an even den
        return complex(-1.0, 0.0)
    if not den & 3:  # and a quarter turn 4 | den
        if 4 * r == den:
            return complex(0.0, 1.0)
        if 4 * r == 3 * den:
            return complex(0.0, -1.0)
    arg = math.tau * (r / den)
    return complex(math.cos(arg), math.sin(arg))


def unit_phase(x) -> complex:
    """e^{2 pi i x} for rational x (see :func:`ratio_phase`)."""
    x = Fraction(x)
    return ratio_phase(x.numerator, x.denominator)


@dataclass(frozen=True)
class FourierValue:
    """A complex transform value with a rigorous error bound."""

    real: float
    imag: float
    error_bound: float
    frequency: Fraction
    nodes: int = 0
    budget_exceeded: bool = False

    @property
    def value(self) -> complex:
        return complex(self.real, self.imag)

    @property
    def modulus(self) -> float:
        return abs(self.value)


def fourier_exact(system: SelfSimilarSystem, q, tol: float = DEFAULT_TOL,
                  budget: int = DEFAULT_NODE_BUDGET,
                  cache: Optional[dict] = None) -> FourierValue:
    """Evaluate F_q with truncation error at most `tol`: the one-root call
    of :func:`fourier_tree`.

    Parameters
    ----------
    q : rational frequency (Fraction, int, or "num/den" string)
    tol : branch-termination tolerance; the returned error bound never
        exceeds it unless the node budget was hit
    budget : cap on distinct expanded frequencies; once exceeded, pending
        branches are closed with their coarse mean-value bound and the
        result is flagged, never silently truncated
    cache : optional dict shared between calls, keyed by the exact frequency
        as a reduced ``(numerator, denominator)`` pair of ints.  The entries
        depend on the system (and on `tol` and `budget`), so a cache may only
        be shared between calls on one system.
    """
    q = Fraction(q)
    (val, err, nodes, hit), = fourier_tree(
        system, [(q.numerator, q.denominator)], tol, budget, cache)
    return FourierValue(val.real, val.imag, err, q, nodes=nodes,
                        budget_exceeded=hit)


def fourier_tree(system: SelfSimilarSystem, roots, tol: float = DEFAULT_TOL,
                 budget: int = DEFAULT_NODE_BUDGET,
                 cache: Optional[dict] = None) -> list:
    """F_u for each reduced ``(num, den)`` root in turn, in one walk that
    builds the per-system integer data once; returns one ``(value, error
    bound, nodes, budget hit)`` tuple per root.

    Each root has its own node count and budget, as one
    :func:`fourier_exact` call; `cache` is shared by all roots, and None
    gives every root a fresh memo.  Tree frequencies u * s_{w_1} * ... are
    carried as reduced integer pairs, so memo hits are exact and no Fraction
    is normalised per node.  An interior node is expanded once, its
    children computed once per distinct slope: it goes back on the stack
    with its children and bound, above which the children are pushed (those
    already memoised are skipped when popped), and once they are done the
    budget is tested again before the combine.
    """
    if not tol > 0:
        raise InvalidInput("tol must be positive")
    # per-system data as integers: no Fraction arithmetic per node
    lo, hi = system.hull
    lo_num, hi_num = lo.numerator * hi.denominator, hi.numerator * lo.denominator
    hull_den = lo.denominator * hi.denominator
    cnum, cden = lo_num + hi_num, 2 * hull_den   # hull midpoint, unreduced
    half_width = ((hi_num - lo_num) / hull_den) / 2.0
    per_map = [(m.slope.numerator, m.slope.denominator) for m in system.maps]
    slopes = list(dict.fromkeys(per_map))
    pick = [slopes.index(s) for s in per_map] if slopes != per_map else None
    terms = [(w.numerator / w.denominator, m.offset.numerator,
              m.offset.denominator)
             for w, m in zip(system.weights, system.maps)]

    out = []
    for root in roots:
        memo = cache if cache is not None else {}
        budget_hit = False
        new_nodes = 0
        stack = [root]
        while stack:
            entry = stack.pop()
            if len(entry) == 3:  # an expanded node whose children are done
                u, children, bound = entry
                num, den = u
            else:
                if entry in memo:
                    continue
                u = num, den = entry
                children = None
                try:
                    bound = math.tau * abs(num / den) * half_width
                except OverflowError:  # |u| past the float range: never a leaf
                    bound = math.inf
                if bound <= tol:
                    memo[u] = (ratio_phase(num * cnum, den * cden), bound)
                    new_nodes += 1
                    continue
            if new_nodes >= budget:
                budget_hit = True
                memo[u] = (ratio_phase(num * cnum, den * cden),
                           min(bound, 2.0))
                new_nodes += 1
                continue
            if children is None:
                # u * s in lowest terms: both factors are reduced, so only
                # the cross gcds can cancel
                kids = []
                for snum, sden in slopes:
                    g1, g2 = math.gcd(num, sden), math.gcd(snum, den)
                    kids.append(((num // g1) * (snum // g2),
                                 (den // g2) * (sden // g1)))
                children = [kids[i] for i in pick] if pick else kids
                stack.append((u, children, bound))
                stack.extend(children)
                continue
            val = complex(0.0, 0.0)
            err = 0.0
            for (p, tnum, tden), v in zip(terms, children):
                cv, ce = memo[v]
                if tnum:
                    val += p * ratio_phase(num * tnum, den * tden) * cv
                else:  # phase 1: p * cv rounds as p * 1 * cv
                    val += p * cv
                err += p * ce
            memo[u] = (val, err)
            new_nodes += 1
        val, err = memo[root]
        out.append((val, err, new_nodes, budget_hit))
    return out


def fourier_empirical(sample, q: int) -> FourierValue:
    """Empirical mode (1/N) sum of e^{2 pi i q x_n} over the sample.

    Plain arrays are accepted and treated as exact; a SequenceSample
    contributes its accuracy certificate to the error bound (one factor
    2 pi |q| per unit of per-value error).
    """
    if isinstance(sample, SequenceSample):
        values, accuracy = sample.values, sample.accuracy
    else:
        values, accuracy = np.asarray(sample, dtype=np.float64), 0.0
    if len(values) == 0:
        raise InvalidInput("sample must be nonempty")
    phases = np.exp((math.tau * q * 1j) * values)
    val = complex(phases.mean())
    err = math.tau * abs(q) * accuracy
    return FourierValue(val.real, val.imag, err, Fraction(q))


# -------------------------------------------------------------- decay bands

@dataclass(frozen=True)
class DecayBand:
    index: int                   # band j covers [2^j, 2^{j+1})
    sup_modulus: float
    argmax_q: Fraction
    samples: int
    budget_exceeded: bool = False


@dataclass(frozen=True)
class DecayProfile:
    bands: tuple
    tol: float

    def successful(self) -> list:
        return [b for b in self.bands if not b.budget_exceeded]


MAX_BANDS = 40


def band_grid(system: SelfSimilarSystem, j: int, per_band: int) -> list:
    """Sampling grid for band [2^j, 2^{j+1}): leading integers plus the
    slope-denominator powers inside the band (where the known non-Rajchman
    resonances live)."""
    lo, hi = 1 << j, 1 << (j + 1)
    qs = set(range(lo, min(lo + per_band, hi)))
    for m in system.maps:
        d = m.slope.denominator
        if d < 2:
            continue
        power = 1
        while power < hi:
            if power >= lo:
                qs.add(power)
            power *= d
    return sorted(qs)


def decay_profile(system: SelfSimilarSystem, j_max: int,
                  per_band: int = 512, tol: float = 1e-6,
                  budget: int = DEFAULT_NODE_BUDGET) -> DecayProfile:
    """Sup of |F_q| over a documented grid in each dyadic band j <= j_max."""
    if j_max > MAX_BANDS:
        raise InvalidInput(f"j_max capped at {MAX_BANDS}")
    if j_max < 0:
        raise InvalidInput("j_max must be >= 0")
    cache: dict = {}
    bands = []
    for j in range(j_max + 1):
        sup, arg, hit = -1.0, None, False
        grid = band_grid(system, j, per_band)
        for q in grid:
            fv = fourier_exact(system, q, tol=tol, budget=budget, cache=cache)
            hit = hit or fv.budget_exceeded
            if fv.modulus > sup:
                sup, arg = fv.modulus, fv.frequency
        bands.append(DecayBand(j, sup, arg, len(grid), budget_exceeded=hit))
    return DecayProfile(tuple(bands), tol)


# ---------------------------------------------------------------- regime fit

@dataclass(frozen=True)
class DecayFit:
    regime: str                       # polynomial | logarithmic | loglog | none
    alpha: Optional[float]
    alpha_ci: Optional[tuple]
    r_squared: Optional[float]


_MIN_BANDS_FOR_FIT = 8


def _ols(x: np.ndarray, y: np.ndarray):
    """Least squares y = c - alpha * x; returns (alpha, rss, se_alpha)."""
    n = len(x)
    xm, ym = x.mean(), y.mean()
    sxx = float(((x - xm) ** 2).sum())
    if sxx == 0:
        return None
    slope = float(((x - xm) * (y - ym)).sum()) / sxx
    resid = y - (ym + slope * (x - xm))
    rss = float((resid ** 2).sum())
    dof = max(n - 2, 1)
    se = math.sqrt(rss / dof / sxx)
    return -slope, rss, se


def decay_fit(profile: DecayProfile) -> DecayFit:
    """Pick the decay regime whose regressor best explains log sup_j.

    Regressors per regime: log q for polynomial decay q^-alpha, log log q for
    1 / (log q)^alpha, and log log log q for the doubly logarithmic rate.
    Regime "none" when the best fit explains under half the variance or the
    band sups do not actually decrease.
    """
    bands = [b for b in profile.successful() if b.sup_modulus > 0]
    if len(bands) < _MIN_BANDS_FOR_FIT:
        raise InsufficientBands(
            f"need {_MIN_BANDS_FOR_FIT} successful bands, have {len(bands)}")
    ln2 = math.log(2.0)
    j = np.array([b.index for b in bands], dtype=float)
    sup = np.array([max(b.sup_modulus, 1e-300) for b in bands])
    y = np.log(sup)

    regressors = {}
    regressors["polynomial"] = (j * ln2, j >= 0)
    with np.errstate(invalid="ignore", divide="ignore"):
        x_log = np.log(j * ln2)
        regressors["logarithmic"] = (x_log, j >= 1)
        x_loglog = np.log(x_log)
        regressors["loglog"] = (x_loglog, j * ln2 > 1.0)

    best = None
    for name, (x, mask) in regressors.items():
        mask = mask & np.isfinite(x)
        if mask.sum() < _MIN_BANDS_FOR_FIT - 2:
            continue
        fit = _ols(x[mask], y[mask])
        if fit is None:
            continue
        alpha, rss, se = fit
        tss = float(((y[mask] - y[mask].mean()) ** 2).sum())
        if alpha <= 0:
            continue
        if best is None or rss < best[1]:
            best = (name, rss, alpha, se, tss)

    decreasing = _sups_decrease(sup)
    if best is None or not decreasing:
        return DecayFit("none", None, None, None)
    name, rss, alpha, se, tss = best
    r2 = 1.0 - rss / tss if tss > 0 else 1.0
    if r2 < 0.5:
        return DecayFit("none", None, None, r2)
    ci = (alpha - 2 * se, alpha + 2 * se)
    return DecayFit(name, alpha, ci, r2)


def _sups_decrease(sup: np.ndarray, factor: float = 0.9) -> bool:
    head = np.median(sup[:3])
    tail = np.median(sup[-3:])
    return tail < factor * head


def del_criterion_check(profile: DecayProfile, alpha: float) -> Optional[bool]:
    """Consistency of the observed envelope with a doubly-logarithmic decay
    law sup_j <= C / (log log 2^j)^(1 + alpha).

    The constant is fitted on the first half of the usable bands and tested
    on the rest; returns None (indeterminate) when fewer than six bands reach
    past the point where log log 2^j is positive.  Diagnostic only: a True
    answer is evidence, not a proof of the decay law.
    """
    if alpha <= 0:
        raise InvalidInput("alpha must be positive")
    usable = [(b.index, b.sup_modulus) for b in profile.successful()
              if b.index >= 2]
    if len(usable) < 6:
        return None
    ln2 = math.log(2.0)
    weights = [(j, s, math.log(j * ln2) ** (1.0 + alpha)) for j, s in usable]
    half = len(weights) // 2
    c_fit = max(s * w for _, s, w in weights[:half])
    return all(s * w <= c_fit * (1 + 1e-9) for _, s, w in weights[half:])
