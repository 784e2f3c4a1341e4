"""Stopping times, cylinder pushforward modes, and the orbit/cylinder gap.

For a sampled word w and integer base p, the stopping time beta_n is the
first prefix length whose composed slope magnitude drops below p^-n; the
rescaling factor r = p^n * slope(beta_n prefix) then sits in [min |s_i|, 1).
The Fourier mode of the pushforward T_p^n f_{w|beta_n} measure factors in
closed form as a unit phase times the transform at the rescaled frequency
q * r, which is what lets the orbit average be compared against cylinder
averages without ever sampling the pushforward.

No Fraction is normalised in the hot loops.  One walk over the word yields
every stopping record as three raw integers of the composed prefix map
x -> (A x + B) / C (uncancelled): C and the phase numerators p^n A and
p^n B mod C, which the walk carries in steps linear in the size of C.
`cylinder_modes` then evaluates all records at all q in one call:
every q reads the record's numerators, the float product chain of a
homogeneous system runs for all small frequencies at once in numpy, and the
remaining modes go through one batch walk of the exact transform
(`fourier_tree`), whose memo is keyed by reduced integer pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigParseError, InvalidInput
from .fourier import (
    DEFAULT_NODE_BUDGET,
    FourierValue,
    fourier_exact,  # unused here, but the benchmark's tracer patches it
    fourier_tree,
    ratio_phase,
)
from .ifs import SelfSimilarSystem, integer_growth, integer_triples
from .sampling import (
    FixedWord,
    WordStream,
    digits,
    orbit_digit_count,
    orbit_sequence,
)


@dataclass(frozen=True)
class StoppingRecord:
    """Exact data at the stopping time n -> beta_n, as the raw integers of
    the walk.

    The beta_n-prefix composes to x -> (A x + B) / C with C > 0; the record
    keeps C and the phase numerators P = p^n A and X = p^n B mod C
    (0 <= X < C): r = P / C, and the mode's phase is e^{2 pi i q X / C}.
    `last_slope`, the slope of the prefix's last map, makes minimality
    checkable exactly.  The Fraction views are built on demand."""

    n: int
    beta: int
    p: int
    C: int
    P: int
    X: int
    last_slope: Fraction

    @property
    def r(self) -> Fraction:
        """The rescaling factor p^n * derivative."""
        return Fraction(self.P, self.C)

    @property
    def derivative(self) -> Fraction:
        """Signed slope product at depth beta_n."""
        return Fraction(self.P, self.C * self.p ** self.n)

    @property
    def prev_derivative(self) -> Fraction:
        """Signed slope product at depth beta_n - 1."""
        return self.derivative / self.last_slope

    @property
    def derivative_magnitude(self) -> Fraction:
        return abs(self.derivative)


# The records of a walk to n_max keep, for every n, three integers of about
# n log2(p) r bits (r the system's :func:`ifs.integer_growth`), some
# 1.5 n_max^2 log2(p) r bits in all: n_max^2 log2(p) r is capped so that
# they stay below about 200 MB
MAX_STOPPING_SIZE = 1 << 30


def check_stopping_size(system: SelfSimilarSystem, n_max: int, p: int,
                        samples: int = 1) -> None:
    """ConfigParseError (exit 4) when `samples` walks on `system` to n_max
    in base p are over MAX_STOPPING_SIZE in all; InvalidInput (exit 2) for
    p < 2 or n_max < 0."""
    if not isinstance(p, int) or p < 2:
        raise InvalidInput("p must be an integer >= 2")
    if n_max < 0:
        raise InvalidInput("n_max must be >= 0")
    r = integer_growth(system)
    size = samples * n_max * n_max * math.log2(p) * r
    if size > MAX_STOPPING_SIZE:
        each = f"{samples} samples x " if samples > 1 else ""
        cap = f"n^2 log2(p) <= {MAX_STOPPING_SIZE}"
        if r > 1:
            cap = f"n^2 log2(p) r <= {MAX_STOPPING_SIZE}, r = {r:.4g}"
        raise ConfigParseError(
            f"{each}stopping records to n = {n_max} in base {p} hold about "
            f"{1.5 * size:.3g} bits, over the cap of {each}{cap}")


def stopping_records(system: SelfSimilarSystem, stream, n_max: int,
                     p: int) -> list:
    """Stopping records for every n = 0..n_max in one pass over the word.

    beta_n is nondecreasing in n, so a single walk over the composed map
    serves all n.  It carries only C and P = p^n A, X = p^n B mod C of the
    uncancelled triple (A, B, C): a symbol step (a, b, c) sets C <- cC, then
    X <- (P b + c X) mod C and P <- a P; an n step sets P <- p P and
    X <- p X mod C, so each step divides by C with a small quotient.  The
    comparison |slope| < p^-n is |P| < C on integers, never floats, and
    each record keeps the integers as they stand: no gcd in the walk.
    ConfigParseError (exit 4), before the walk, when n_max^2 log2(p) r is
    over MAX_STOPPING_SIZE.
    """
    check_stopping_size(system, n_max, p)
    if isinstance(stream, (tuple, list)):
        stream = FixedWord(stream)
    triples = integer_triples(system)
    slopes = [m.slope for m in system.maps]
    n_maps = len(triples)
    records = []
    C, P, X = 1, 1, 0  # P = p^n A and X = p^n B mod C for the n sought
    depth = 0
    for n in range(n_max + 1):
        # |P| = C = 1 at n = 0: the walk takes a step before any record
        while abs(P) >= C:
            s = stream.symbol(depth)
            if not 0 < s <= n_maps:
                raise InvalidInput(
                    f"symbol {s} outside alphabet 1..{n_maps}")
            a, b, c = triples[s - 1]
            C *= c
            P, X = P * a, (P * b + c * X) % C
            depth += 1
        records.append(StoppingRecord(n, depth, p, C, P, X, slopes[s - 1]))
        P, X = P * p, X * p % C
    return records


def r_factor(record: StoppingRecord) -> Fraction:
    """The rescaling factor r, re-validated against its exact bounds.

    |r| < 1 restates the stopping rule; |r| >= |last slope| restates
    minimality: r is p^n times the previous prefix product, which was still
    >= p^-n in magnitude, times the last slope.
    """
    r = record.r
    if not abs(r) < 1:
        raise InvalidInput("record violates the stopping rule: |r| >= 1")
    if not abs(r) >= abs(record.last_slope):
        raise InvalidInput("record violates minimality: |r| < |s_last|")
    return r


def min_stopping_depth(system: SelfSimilarSystem, n: int, p: int) -> int:
    """Smallest L with (min |s_i|)^L <= p^-n: the exact c*n lower bound."""
    smin = system.min_slope
    if n == 0:
        return 0
    num, den = smin.numerator, smin.denominator
    target = p ** n
    L = max(0, math.floor(n * math.log(p) / math.log(1.0 / float(smin))) - 2)
    while abs(num) ** L * target > den ** L:
        L += 1
    while L > 0 and abs(num) ** (L - 1) * target <= den ** (L - 1):
        L -= 1
    return L


_FREQ_ROUND_BITS = 48

# Float product-chain shortcut: only for homogeneous systems (one common
# slope, so the recursion is a single frequency chain even in floats) and
# small frequencies, where phase arguments stay far from the float cliff.
_FLOAT_CHAIN_MAX_FREQ = 1024.0
_FLOAT_CHAIN_SLACK = 1e-8
_FLOAT_CHAIN_MAX_STEPS = 4000


def _homogeneous_slope(system: SelfSimilarSystem):
    slopes = {m.slope for m in system.maps}
    return slopes.pop() if len(slopes) == 1 else None


def _float_chains(system: SelfSimilarSystem, slope: Fraction,
                  u: Sequence[float], tol: float):
    """F_u for a homogeneous system by the truncated product, in floats, for
    every frequency in `u` at once; returns arrays (re, im, error bound)
    and the indices of the chains left unfinished.

    Valid for |u| <= _FLOAT_CHAIN_MAX_FREQ: phase arguments never exceed a
    few thousand radians, so accumulated rounding stays below the
    _FLOAT_CHAIN_SLACK allowance added to the error bound.  A chain leaves
    the batch once its truncation bound is within `tol`, or is left
    unfinished after _FLOAT_CHAIN_MAX_STEPS steps (a slope near 1).  The
    complex products are written out in real arithmetic in the order
    Python's complex type rounds them (a float weight times a phase is
    (p + 0j) * phase, and a sum starts from 0), so each value is the one a
    scalar loop over Python complex numbers gives, bit for bit.
    """
    s = float(slope)
    lo, hi = float(system.hull[0]), float(system.hull[1])
    half = (hi - lo) / 2.0
    center = (lo + hi) / 2.0
    terms = [(float(w), float(m.offset))
             for w, m in zip(system.weights, system.maps)]
    u = np.array(u, dtype=np.float64)
    re = np.ones_like(u)
    im = np.zeros_like(u)
    live = np.flatnonzero(math.tau * np.abs(u) * half > tol)
    for _ in range(_FLOAT_CHAIN_MAX_STEPS):
        if not live.size:
            break
        ul = u[live]
        w = math.tau * ul
        tr = ti = 0.0
        for p, t in terms:
            c, sn = np.cos(w * t), np.sin(w * t)
            tr = tr + (p * c - 0.0 * sn)
            ti = ti + (p * sn + 0.0 * c)
        xr, xi = re[live], im[live]
        re[live] = xr * tr - xi * ti
        im[live] = xr * ti + xi * tr
        ul = ul * s
        u[live] = ul
        live = live[math.tau * np.abs(ul) * half > tol]
    trunc = math.tau * np.abs(u) * half
    w = math.tau * u * center
    c, sn = np.cos(w), np.sin(w)
    return re * c - im * sn, re * sn + im * c, trunc + _FLOAT_CHAIN_SLACK, live


def _round_frequency(num: int, den: int):
    """num/den (den > 0) in lowest terms, dyadically rounded when huge;
    returns (u', extra error) with u' a reduced (num, den) pair.

    |F_u - F_u'| <= 2 pi |u - u'| sup|x| over the support, and rounding to
    the 2^-48 grid keeps |u - u'| below 2^-49; only applied when the exact
    denominator is too large to be worth carrying through the recursion.
    The rounded pair is reduced by stripping its common powers of two.
    """
    g = math.gcd(num, den)
    num, den = num // g, den // g
    if den.bit_length() <= 64:
        return (num, den), 0.0
    q, rem = divmod(num << _FREQ_ROUND_BITS, den)
    if 2 * rem >= den:
        q += 1
    low = q | 1 << _FREQ_ROUND_BITS  # caps the shared twos, also at q = 0
    twos = (low & -low).bit_length() - 1
    return ((q >> twos, 1 << (_FREQ_ROUND_BITS - twos)),
            2.0 * math.pi * 2.0 ** -(_FREQ_ROUND_BITS + 1))


@dataclass(frozen=True)
class CylinderModes:
    """Cylinder modes of several stopping records at several integer q.

    Entry [k, j] of each array belongs to the k-th q and the j-th record;
    `nodes` counts the transform nodes the exact path expanded (0 where the
    float chain ran)."""

    values: np.ndarray           # complex128
    error_bounds: np.ndarray     # float64
    nodes: np.ndarray            # int64
    budget_exceeded: np.ndarray  # bool


def cylinder_modes(system: SelfSimilarSystem, records: Sequence, qs: Sequence,
                   tol: float = 1e-6, cache: Optional[dict] = None,
                   budget: int = DEFAULT_NODE_BUDGET) -> CylinderModes:
    """Fourier modes of the cylinder pushforwards T_p^n f_{w|beta_n} measure.

    For integer q the mod-1 shifts drop out of the exponential, leaving the
    closed form e^{2 pi i q p^n f(0)} * F_{q r}.  The phase argument
    q p^n B / C is reduced mod 1 with exact integer arithmetic, so n in the
    tens of thousands costs nothing in accuracy; the stopping walk carries
    its numerator X = p^n B mod C and the frequency numerator P = p^n A,
    so every q reads them off the record.  Homogeneous systems
    at |q r| <= _FLOAT_CHAIN_MAX_FREQ take the float product chain, run for
    all those modes at once; every other mode is a root of one fourier_tree
    walk at q r (dyadically rounded when its reduced denominator is huge),
    q outer and records inner, with `cache` and `budget` passed through.
    A chain the float product cannot finish within _FLOAT_CHAIN_MAX_STEPS
    is one more root of that walk, after all the others.
    """
    qs = tuple(qs)
    if not all(isinstance(q, int) for q in qs):
        raise InvalidInput("cylinder modes are defined for integer q")
    for q in qs:
        try:
            float(q)
        except OverflowError:
            raise InvalidInput("q must lie within the float range") from None
    slope = _homogeneous_slope(system)
    support = max(abs(float(system.hull[0])), abs(float(system.hull[1])), 1.0)
    shape = (len(qs), len(records))
    values = np.empty(shape, dtype=np.complex128)
    error_bounds = np.empty(shape)
    nodes = np.zeros(shape, dtype=np.int64)
    budget_exceeded = np.zeros(shape, dtype=bool)

    r_float = [rec.P / rec.C for rec in records]
    chain_at, chain_u, chain_phase, exact_at = [], [], [], []
    for k, q in enumerate(qs):
        for j, rec in enumerate(records):
            phase = ratio_phase(q * rec.X, rec.C)
            u_float = q * r_float[j]
            if slope is not None and abs(u_float) <= _FLOAT_CHAIN_MAX_FREQ:
                chain_at.append((k, j))
                chain_u.append(u_float)
                chain_phase.append(phase)
            else:
                exact_at.append((k, j, phase))

    if chain_at:
        cr, ci, cerr, left = _float_chains(system, slope, chain_u, tol)
        pr = np.array([ph.real for ph in chain_phase])
        pi = np.array([ph.imag for ph in chain_phase])
        rows, cols = np.array(chain_at).T
        values.real[rows, cols] = pr * cr - pi * ci
        values.imag[rows, cols] = pr * ci + pi * cr
        error_bounds[rows, cols] = cerr
        # the chains left at the step cap are overwritten by the walk
        exact_at += [(*chain_at[i], chain_phase[i]) for i in left]

    rounded = [_round_frequency(qs[k] * records[j].P, records[j].C)
               for k, j, _ in exact_at]
    walked = fourier_tree(system, [u for u, _ in rounded], tol=tol,
                          budget=budget, cache=cache)
    for (k, j, phase), (_, extra), (val, err, n, hit) in zip(
            exact_at, rounded, walked):
        values[k, j] = phase * val
        error_bounds[k, j] = err + extra * support
        nodes[k, j] = n
        budget_exceeded[k, j] = hit
    return CylinderModes(values, error_bounds, nodes, budget_exceeded)


def cylinder_mode(system: SelfSimilarSystem, record: StoppingRecord, q: int,
                  tol: float = 1e-6, cache: Optional[dict] = None,
                  budget: int = DEFAULT_NODE_BUDGET) -> FourierValue:
    """Fourier mode of one cylinder pushforward: the one-record, one-q case
    of :func:`cylinder_modes`."""
    modes = cylinder_modes(system, [record], [q], tol=tol, cache=cache,
                           budget=budget)
    val = complex(modes.values[0, 0])
    return FourierValue(val.real, val.imag, float(modes.error_bounds[0, 0]),
                        Fraction(q), nodes=int(modes.nodes[0, 0]),
                        budget_exceeded=bool(modes.budget_exceeded[0, 0]))


@dataclass(frozen=True)
class GapSeries:
    """|empirical mode - cylinder-average mode| along a schedule of N."""

    q: int
    n_values: tuple
    empirical: tuple        # complex empirical modes per N
    cylinder: tuple         # complex cylinder-average modes per N
    gaps: tuple


def martingale_gaps(system: SelfSimilarSystem, seed: int, qs: Sequence[int],
                    n_list: Sequence[int], p: int, tol: float = 1e-6,
                    budget: int = DEFAULT_NODE_BUDGET) -> list:
    """Both sides of the orbit-vs-cylinder comparison on one sampled word,
    one GapSeries per q: for each N of the schedule, the mean over n < N of
    e(q T_p^n x_w), read off one certified digit stream, against the mean of
    the closed-form modes of T_p^n f_{w|beta_n}.  The stopping records and
    digits are computed once for all q."""
    n_list = sorted(set(int(n) for n in n_list))
    if not n_list or n_list[0] < 1:
        raise InvalidInput("N list must contain positive integers")
    n_max = n_list[-1]
    stream = WordStream(system, seed)

    records = stopping_records(system, stream, n_max - 1, p)
    ds = digits(system, stream, p, orbit_digit_count(p, n_max))
    orbit = orbit_sequence(ds, n_max)
    cyl = cylinder_modes(system, records, qs, tol=tol, cache={},
                         budget=budget).values

    out = []
    for q, cyl_q in zip(qs, cyl):
        phases = np.exp((2.0j * math.pi * q) * orbit.values)
        emp_cum = np.cumsum(phases)
        cyl_cum = np.cumsum(cyl_q)
        empirical, cylinder, gaps = [], [], []
        for n in n_list:
            e = complex(emp_cum[n - 1] / n)
            c = complex(cyl_cum[n - 1] / n)
            empirical.append(e)
            cylinder.append(c)
            gaps.append(abs(e - c))
        out.append(GapSeries(q, tuple(n_list), tuple(empirical),
                             tuple(cylinder), tuple(gaps)))
    return out
