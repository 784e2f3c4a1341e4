"""Fourier transform of a self-similar measure, exactly and empirically.

The transform F_q = integral of e^{2 pi i q x} against the measure satisfies

    F_q = sum_i p_i * e^{2 pi i q t_i} * F_{q * s_i},

which this module expands as a memoized tree over exact rational frequencies.
A branch at reduced frequency u stops once 2 pi |u| * (hull width / 2) falls
below the tolerance; the sub-measure is then replaced by a point mass at the
hull midpoint, an elementary mean-value bound that keeps every reported error
rigorous.  One depth-first walk, `fourier_tree`, expands each node once and
takes a batch of roots; it is compiled once per system shape, its per-map
work unrolled.  `fourier_exact` is its one-root call.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .errors import InvalidInput
from .ifs import SelfSimilarSystem
from .sampling import SequenceSample

DEFAULT_TOL = 1e-9
DEFAULT_NODE_BUDGET = 10 ** 7
# The returned bound covers truncation, not float rounding: against a
# 60-digit product for Cantor, error / bound reached 6e-3 at tol 1e-13 but
# 4.3 at 1e-16 and 320 at 1e-18, so no smaller tol is accepted
MIN_TOL = 1e-13


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
    """F_u for each reduced ``(num, den)`` root in turn, in one walk;
    returns one ``(value, error bound, nodes, budget hit)`` tuple per root.

    Each root has its own node count and budget, as one
    :func:`fourier_exact` call; `cache` is shared by all roots, and None
    gives every root a fresh memo.  Tree frequencies u * s_{w_1} * ... are
    carried as reduced integer pairs, so memo hits are exact and no Fraction
    is normalised per node.

    The walk runs in this order, which ``reference_fourier_tree`` in the
    tests pins (values, bounds, node counts and budget flags):

    - a popped frequency already in the memo is skipped;
    - a leaf (bound <= tol) is counted without a budget test;
    - any other node tests the budget on entry, then goes back on the stack
      as ``(u, k0, ..., bound)``, one child per distinct slope, above which
      the children are pushed so that the last map's child is popped first;
      a child shared by several maps is pushed once, at its last map;
    - once its children are done, the budget is tested again, and the
      combine sums value and error in map order from ``0j`` and ``0.0``.

    The walk is compiled once per system shape (see :func:`_walker`); only
    names and indices derived from the shape enter its source, and every
    number of the system is passed in as an argument.
    """
    if not tol >= MIN_TOL:  # NaN fails too
        raise InvalidInput(f"tol must be >= {MIN_TOL}")
    kernel, constants = _system_kernel(system)
    return kernel(roots, cache, tol, budget, constants)


# The last system walked, as one (system, kernel, constants) triple: it is
# tested with `is` and rebound whole, so a thread never pairs one system's
# kernel with another's constants.  decay_profile calls fourier_exact on one
# system once per grid point, and this keeps the set-up out of those calls.
_last_system = (None, None, None)


def _system_kernel(system: SelfSimilarSystem):
    """The compiled walk for `system`'s shape, and the system's numbers as
    ints and floats for it to take as an argument."""
    global _last_system
    last = _last_system
    if last[0] is system:
        return last[1], last[2]
    lo, hi = system.hull
    lo_num, hi_num = lo.numerator * hi.denominator, hi.numerator * lo.denominator
    hull_den = lo.denominator * hi.denominator
    per_map = [(m.slope.numerator, m.slope.denominator) for m in system.maps]
    # the walk pops the last map's child first, so distinct slopes are
    # numbered from the last map backwards
    slopes = list(dict.fromkeys(reversed(per_map)))
    index = {s: j for j, s in enumerate(slopes)}
    shape = tuple((index[s], m.offset != 0)
                  for s, m in zip(per_map, system.maps))
    constants = (lo_num + hi_num, 2 * hull_den,   # hull midpoint, unreduced
                 ((hi_num - lo_num) / hull_den) / 2.0, tuple(slopes),
                 tuple((w.numerator / w.denominator, m.offset.numerator,
                        m.offset.denominator)
                       for w, m in zip(system.weights, system.maps)))
    kernel = _walker(shape)
    _last_system = (system, kernel, constants)
    return kernel, constants


_WALK = """\
def walk(roots, cache, tol, budget, constants):
    cnum, cden, half_width, slopes, terms = constants
    {unpack}
    gcd, phase, tau, inf = _gcd, _phase, _tau, _inf
    out = []
    for root in roots:
        memo = cache if cache is not None else {{}}
        hit, nodes = False, 0
        stack = [root]
        pop, push = stack.pop, stack.append
        while stack:
            entry = pop()
            if len(entry) == 2:
                if entry in memo:
                    continue
                num, den = u = entry
                try:
                    bound = tau * abs(num / den) * half_width
                except OverflowError:  # |u| past the float range: never a leaf
                    bound = inf
                if bound <= tol:
                    memo[u] = (phase(num * cnum, den * cden), bound)
                    nodes += 1
                    continue
                if nodes < budget:
                    {children}
                    continue
            else:
                {expanded} = entry
                num, den = u
                if nodes < budget:
                    {combine}
                    memo[u] = (val, err)
                    nodes += 1
                    continue
            hit = True
            memo[u] = (phase(num * cnum, den * cden), min(bound, 2.0))
            nodes += 1
        val, err = memo[root]
        out.append((val, err, nodes, hit))
    return out
"""


@functools.cache
def _walker(shape):
    """The walk of :func:`fourier_tree` specialised to one system shape and
    compiled once per shape, the per-map loops unrolled.

    `shape` holds, per map, the index of its distinct slope (numbered in
    the order the walk first visits its child) and whether its offset is
    nonzero.  The source holds only names and indices derived from it; one
    statement per map keeps its size linear and its expressions shallow for
    any map count.
    """
    kids = [f"k{j}" for j in range(1 + max(j for j, _ in shape))]
    unpack, children, combine = [], [], []
    for j in range(len(kids)):
        unpack.append(f"s{j}n, s{j}d = slopes[{j}]")
        # u * s in lowest terms: only the cross gcds can cancel
        children += [f"g1, g2 = gcd(num, s{j}d), gcd(s{j}n, den)",
                     f"k{j} = ((num // g1) * (s{j}n // g2), "
                     f"(den // g2) * (s{j}d // g1))"]
        combine.append(f"c{j}v, c{j}e = memo[k{j}]")
    children.append(f"push((u, {', '.join(kids)}, bound))")
    children += [f"push({k})" for k in reversed(kids)]
    combine.append("val = 0j")
    for i, (j, offset) in enumerate(shape):
        unpack.append(f"p{i}, t{i}n, t{i}d = terms[{i}]")
        if offset:
            combine.append(
                f"val += p{i} * phase(num * t{i}n, den * t{i}d) * c{j}v")
        else:  # phase 1: p * cv rounds as p * 1 * cv
            combine.append(f"val += p{i} * c{j}v")
    combine.append("err = 0.0")
    combine += [f"err += p{i} * c{j}e" for i, (j, _) in enumerate(shape)]
    source = _WALK.format(
        unpack="\n    ".join(unpack),
        children="\n                    ".join(children),
        expanded=f"u, {', '.join(kids)}, bound",
        combine="\n                    ".join(combine))
    namespace = dict(_gcd=math.gcd, _phase=ratio_phase, _tau=math.tau,
                     _inf=math.inf)
    exec(compile(source, f"<fourier walk {len(kids)}/{len(shape)}>", "exec"),
         namespace)
    return namespace["walk"]


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
    if not 0 <= j_max <= MAX_BANDS:
        raise InvalidInput(f"j_max must be between 0 and {MAX_BANDS}")
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
    return DecayProfile(tuple(bands))
