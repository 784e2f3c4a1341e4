"""Exact affine iterated function systems on the line.

All parameters are rationals (`fractions.Fraction`), so every statement made
here — hull invariance, word composition, conjugation — is checked with exact
arithmetic, never floating point.  A word composes as one uncancelled integer
triple: leaves of symbols short enough for int64 fold at once as numpy
vectors, and a balanced product tree joins the leaves.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .errors import (
    ConfigParseError,
    DegenerateFixedPoints,
    DegenerateHull,
    HullNotInvariant,
    NonContractingMap,
    NonConvergence,
    SymbolOutOfRange,
    WeightSumError,
)

RationalLike = Union[Fraction, int, str]

#: A finite word over the alphabet {1, ..., n}; symbol i selects the i-th map.
Word = tuple


def as_fraction(x: RationalLike) -> Fraction:
    """Coerce ints, Fractions and "num/den" strings to an exact Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigParseError(f"bad rational literal {x!r}: {exc}") from exc
    if isinstance(x, float):
        raise ConfigParseError(
            f"refusing float {x!r}; pass an exact rational like '1/3'"
        )
    raise ConfigParseError(f"cannot interpret {x!r} as a rational")


def frac_str(x: Fraction) -> str:
    """Serialize a Fraction losslessly ("2/3", "-1/9", "4")."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


@dataclass(frozen=True)
class AffineMap:
    """x -> slope * x + offset with exact rational coefficients."""

    slope: Fraction
    offset: Fraction

    def __call__(self, x: Fraction) -> Fraction:
        return self.slope * x + self.offset

    def after(self, other: "AffineMap") -> "AffineMap":
        """Composition self o other (apply `other` first)."""
        return AffineMap(self.slope * other.slope,
                         self.slope * other.offset + self.offset)

    def fixed_point(self) -> Fraction:
        if self.slope == 1:
            raise DegenerateHull("slope-1 map has no unique fixed point")
        return self.offset / (1 - self.slope)

    def image(self, lo: Fraction, hi: Fraction) -> tuple:
        """Exact image interval of [lo, hi]; handles orientation reversal."""
        a, b = self(lo), self(hi)
        return (a, b) if a <= b else (b, a)

    def __repr__(self):
        return f"AffineMap({frac_str(self.slope)}, {frac_str(self.offset)})"


IDENTITY = AffineMap(Fraction(1), Fraction(0))


@dataclass(frozen=True)
class SelfSimilarSystem:
    """Contracting affine maps with a probability vector and an invariant hull.

    `maps` are 1-indexed by word symbols, matching the alphabet {1, ..., n}.
    The hull is the convex hull [a, b] of the attractor; validity (each map
    sending the hull into itself, weights summing to one, ...) is checked by
    :func:`validate`, not by the constructor.
    """

    maps: tuple
    weights: tuple
    hull: tuple

    @property
    def n(self) -> int:
        return len(self.maps)

    @property
    def hull_width(self) -> Fraction:
        return self.hull[1] - self.hull[0]

    @property
    def contraction(self) -> Fraction:
        """rho = max |slope|."""
        return max(abs(m.slope) for m in self.maps)

    @property
    def min_slope(self) -> Fraction:
        return min(abs(m.slope) for m in self.maps)

    def __repr__(self):
        return (f"SelfSimilarSystem(n={self.n}, "
                f"hull=[{frac_str(self.hull[0])}, {frac_str(self.hull[1])}])")


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    failures: tuple

    def raise_first(self):
        if not self.ok:
            raise self.failures[0]


def make_system(maps: Iterable, weights: Optional[Iterable] = None,
                hull: Optional[tuple] = None,
                check: bool = True) -> SelfSimilarSystem:
    """Build a system from (slope, offset) pairs; raises on invalid input
    unless `check` is False (used to report all failures on raw input).

    `weights` defaults to the uniform vector. `hull` is computed exactly from
    the maps when omitted.
    """
    amaps = tuple(
        m if isinstance(m, AffineMap) else AffineMap(as_fraction(m[0]), as_fraction(m[1]))
        for m in maps
    )
    if weights is None:
        n = max(len(amaps), 1)
        w = tuple(Fraction(1, n) for _ in amaps)
    else:
        w = tuple(as_fraction(x) for x in weights)
    if hull is None:
        try:
            hull = attractor_hull(amaps)
        except NonContractingMap:
            if check:
                raise
            hull = (Fraction(0), Fraction(0))
    else:
        hull = (as_fraction(hull[0]), as_fraction(hull[1]))
    system = SelfSimilarSystem(amaps, w, hull)
    if check:
        validate(system).raise_first()
    return system


def validate(system: SelfSimilarSystem) -> ValidationReport:
    """Check every type invariant exactly; collects all failures."""
    failures = []
    if len(system.maps) < 2:
        failures.append(DegenerateFixedPoints("need at least two maps"))
    for i, m in enumerate(system.maps, start=1):
        if m.slope == 0 or abs(m.slope) >= 1:
            failures.append(NonContractingMap(
                f"map {i} slope {frac_str(m.slope)} not in (0,1) by modulus"))
    if len(system.weights) != len(system.maps):
        failures.append(WeightSumError(
            f"{len(system.weights)} weights for {len(system.maps)} maps"))
    else:
        if any(w <= 0 for w in system.weights):
            failures.append(WeightSumError("weights must be strictly positive"))
        total = sum(system.weights, Fraction(0))
        if total != 1:
            failures.append(WeightSumError(f"weights sum to {frac_str(total)}, not 1"))
    lo, hi = system.hull
    if lo > hi:
        failures.append(HullNotInvariant("hull endpoints out of order"))
    elif not any(isinstance(f, NonContractingMap) for f in failures):
        for i, m in enumerate(system.maps, start=1):
            ilo, ihi = m.image(lo, hi)
            if ilo < lo or ihi > hi:
                failures.append(HullNotInvariant(
                    f"map {i} sends hull to [{frac_str(ilo)}, {frac_str(ihi)}]"))
        fps = {m.fixed_point() for m in system.maps}
        if len(fps) < 2:
            failures.append(DegenerateFixedPoints(
                "all maps share a fixed point; attractor is a single point"))
    return ValidationReport(ok=not failures, failures=tuple(failures))


def compose(system: SelfSimilarSystem, word: Sequence) -> AffineMap:
    """Exact composition f_{w_1} o f_{w_2} o ... o f_{w_m}.

    The empty word gives the identity.  The map is built as an integer
    triple by :func:`compose_triples` (no gcd until the final Fractions, and
    a balanced product tree instead of one big-integer step per symbol).
    """
    A, B, C = compose_triples(integer_triples(system), word)
    return AffineMap(Fraction(A, C), Fraction(B, C))


def join_triples(left: tuple, right: tuple) -> tuple:
    """Triple of left o right, each (A, B, C) meaning x -> (A x + B) / C."""
    A1, B1, C1 = left
    A2, B2, C2 = right
    return A1 * A2, A1 * B2 + B1 * C2, C1 * C2


def _leaf_length(triples: Sequence) -> tuple:
    """(L, dtype) of the leaves of :func:`compose_triples`: L the largest
    length with K^L < 2^63, K = max over maps of max(|a|, |b| + c), and
    int64; (1, object) when K itself is past int64."""
    K = max(max(abs(a), abs(b) + c) for a, b, c in triples)
    L, power = 0, K
    while power < (1 << 63):
        L, power = L + 1, power * K
    return (L, np.int64) if L else (1, object)


def compose_triples(triples: Sequence, word: Sequence) -> tuple:
    """Uncancelled integer triple (A, B, C) of f_{w_1} o ... o f_{w_m}.

    `triples[s - 1]` is the triple of map s (see :func:`integer_triples`);
    `word` is a sequence or an integer array of symbols, and a symbol that
    is not an integer in 1..len(triples) raises SymbolOutOfRange.  The word
    is cut into leaves of L symbols (:func:`_leaf_length`) and all leaves
    fold at once as numpy vectors: a leaf's A and C are the products of its
    a's and c's, and B = sum_j a_1 ... a_{j-1} b_j c_{j+1} ... c_L, from two
    cumulative products.  Folding a symbol multiplies max(|A|, |B|, C) by
    at most K, and the terms of B in absolute value sum to at most that
    bound, so no product or partial sum leaves int64.  The leaf triples are
    then joined pairwise in a balanced tree (binary splitting), so the big
    products pair operands of similar size and the cost is a few
    multiplications of the final size rather than one per symbol, which is
    quadratic in the word length.  Integer products are exact and
    associative, so the triple equals the one-symbol-at-a-time fold's.
    """
    m = len(word)
    if not m:
        return 1, 0, 1
    word = np.asarray(word)
    if word.dtype.kind not in "iu":
        raise SymbolOutOfRange(f"symbols must be integers: {word.dtype}")
    L, dtype = _leaf_length(triples)
    n = -(-m // L)
    # symbol 0, the identity triple, pads the last leaf
    symbols = np.zeros(n * L, dtype=np.intp)
    symbols[:m] = word
    lo, hi = symbols[:m].min(), symbols[:m].max()
    if lo < 1 or hi > len(triples):
        raise SymbolOutOfRange(f"symbol {lo if lo < 1 else hi} outside "
                               f"alphabet 1..{len(triples)}")
    symbols = symbols.reshape(n, L)
    table = np.array([(1, 0, 1), *triples], dtype=dtype)
    a, b, c = (table[:, i][symbols] for i in range(3))
    # prefix products a_1 ... a_j and suffix products c_j ... c_L
    a = np.cumprod(a, axis=1)
    c = np.cumprod(c[:, ::-1], axis=1)[:, ::-1]
    b[:, 1:] *= a[:, :-1]
    b[:, :-1] *= c[:, 1:]
    level = list(zip(a[:, -1].tolist(), b.sum(axis=1).tolist(),
                     c[:, 0].tolist()))
    while len(level) > 1:
        paired = [join_triples(level[j], level[j + 1])
                  for j in range(0, len(level) - 1, 2)]
        if len(level) % 2:
            paired.append(level[-1])
        level = paired
    return level[0]


def integer_triples(system: SelfSimilarSystem):
    """Per-map (a, b, c) with f(x) = (a x + b)/c, c > 0 the least common
    denominator of slope and offset."""
    out = []
    for m in system.maps:
        c = math.lcm(m.slope.denominator, m.offset.denominator)
        a = m.slope.numerator * (c // m.slope.denominator)
        b = m.offset.numerator * (c // m.offset.denominator)
        out.append((a, b, c))
    return out


def _interval_map(maps: Sequence, lo: Fraction, hi: Fraction) -> tuple:
    """I -> convex hull of the union of map images of I, exactly."""
    los, his = [], []
    for m in maps:
        a, b = m.image(lo, hi)
        los.append(a)
        his.append(b)
    return min(los), max(his)


def attractor_hull(maps: Sequence) -> tuple:
    """Smallest interval [a, b] with f_i([a, b]) inside [a, b] for every map.

    The hull endpoints satisfy a = f_i(a or b) and b = f_j(b or a) for some
    maps i, j (side chosen by slope sign), and the induced endpoint map is a
    contraction, so the fixed interval is unique.  We solve every (i, j)
    candidate pair exactly and certify the solution by an exact fixed-interval
    check.
    """
    maps = tuple(maps)
    for m in maps:
        if m.slope == 0 or abs(m.slope) >= 1:
            raise NonContractingMap(f"slope {frac_str(m.slope)} not contracting")
    for fi in maps:
        for fj in maps:
            cand = _solve_endpoints(fi, fj)
            if cand is None:
                continue
            a, b = cand
            if a > b:
                continue
            if _interval_map(maps, a, b) == (a, b):
                return (a, b)
    raise NonConvergence("no exact fixed interval found for the given maps")


def _solve_endpoints(fi: AffineMap, fj: AffineMap):
    """Solve a = fi(a if slope>0 else b), b = fj(b if slope>0 else a)."""
    si, ti = fi.slope, fi.offset
    sj, tj = fj.slope, fj.offset
    if si > 0 and sj > 0:
        return fi.fixed_point(), fj.fixed_point()
    if si > 0 and sj < 0:
        a = fi.fixed_point()
        return a, sj * a + tj
    if si < 0 and sj > 0:
        b = fj.fixed_point()
        return si * b + ti, b
    det = 1 - si * sj
    if det == 0:
        return None
    a = (si * tj + ti) / det
    return a, sj * a + tj


def normalize(system: SelfSimilarSystem):
    """Conjugate so that the hull becomes exactly [0, 1].

    Returns (normalized system, g) where g maps [0, 1] onto the original hull
    and the new maps are g^-1 o f_i o g.  Weights and slopes are unchanged.
    """
    a, b = system.hull
    w = b - a
    if w == 0:
        raise DegenerateHull("hull is a single point")
    g = AffineMap(w, a)
    if g == IDENTITY:
        return system, g
    new_maps = tuple(
        AffineMap(m.slope, (m.slope * a + m.offset - a) / w) for m in system.maps
    )
    conj = SelfSimilarSystem(new_maps, system.weights,
                             (Fraction(0), Fraction(1)))
    return conj, g


# ------------------------------------------------------------------- file IO

def system_to_dict(system: SelfSimilarSystem) -> dict:
    return {
        "maps": [{"s": frac_str(m.slope), "t": frac_str(m.offset)}
                 for m in system.maps],
        "weights": [frac_str(w) for w in system.weights],
        "hull": [frac_str(system.hull[0]), frac_str(system.hull[1])],
    }


def system_from_dict(data: dict, check: bool = True) -> SelfSimilarSystem:
    """The system of a JSON definition.  ConfigParseError (exit 4) names a
    field of the wrong shape: `maps` must be a list of objects with keys s
    and t, `weights` (when given) a list and `hull` (when given) a list of
    two entries."""
    if not isinstance(data, dict):
        raise ConfigParseError("malformed system definition: not an object")
    maps, weights, hull = (data.get(k) for k in ("maps", "weights", "hull"))
    if not (isinstance(maps, list) and all(
            isinstance(d, dict) and "s" in d and "t" in d for d in maps)):
        raise ConfigParseError("malformed system definition: 'maps' must be "
                               "a list of objects with keys s and t")
    if weights is not None and not isinstance(weights, list):
        raise ConfigParseError(
            "malformed system definition: 'weights' must be a list")
    if hull is not None and not (isinstance(hull, list) and len(hull) == 2):
        raise ConfigParseError("malformed system definition: 'hull' must be "
                               "a list of two entries")
    return make_system([(d["s"], d["t"]) for d in maps], weights, hull,
                       check=check)


def save_system(system: SelfSimilarSystem, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(system_to_dict(system), fh, indent=2)
        fh.write("\n")


def load_system(path, check: bool = True) -> SelfSimilarSystem:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigParseError(f"cannot read system file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigParseError(f"{path}: invalid JSON: {exc}") from exc
    return system_from_dict(data, check=check)


# ------------------------------------------------------------ stock examples

def cantor_system() -> SelfSimilarSystem:
    """Middle-thirds Cantor measure: {x/3, (x+2)/3}, weights (1/2, 1/2)."""
    return make_system([("1/3", "0"), ("1/3", "2/3")], ["1/2", "1/2"])


def bernoulli_half_system() -> SelfSimilarSystem:
    """{x/2, (x+1)/2} with equal weights: Lebesgue measure on [0, 1]."""
    return make_system([("1/2", "0"), ("1/2", "1/2")], ["1/2", "1/2"])


def beta_pair_system(beta: RationalLike) -> SelfSimilarSystem:
    """{x/beta, (x+1)/beta} with equal weights, for rational beta > 2."""
    b = as_fraction(beta)
    if b <= 1:
        raise NonContractingMap("beta must exceed 1")
    return make_system([(1 / b, Fraction(0)), (1 / b, 1 / b)], ["1/2", "1/2"])
