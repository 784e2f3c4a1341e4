"""Sampling from the coding space and certified orbit machinery.

Points are produced as exact rational enclosures of x_w = lim f_{w|m}(x0) for
lazily sampled words w.  The word prefix is composed into one integer triple
by a balanced product tree over 32-symbol leaves (:func:`ifs.compose_triples`),
so a certified digit stream costs a few big-integer products of its final
size instead of one product per symbol; a deeper word only composes the new
segment and joins it on the right.  Digits come out of that integer in
machine-word chunks split by one numpy broadcast, and integer-base orbits are
read off the digit stream as shifted tail windows, one vector step per tail
digit, rather than by repeated big-rational multiplication.  Non-integer
bases go through ball arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from .algebra import AlgebraicReal
from .balls import Ball
from .errors import (
    BallStraddlesCut,
    BasePointOutsideHull,
    InsufficientDigits,
    InvalidInput,
    PrecisionExhausted,
    StreamExhausted,
)
from .ifs import (
    SelfSimilarSystem,
    _integer_triples,
    compose,
    compose_triples,
    join_triples,
)

GENERATOR_ID = "philox"

# Tail digits are chosen so that the truncation error b**-K is at most 2**-60,
# keeping every emitted float certified well below the 2**-50 contract.
_TAIL_BITS = 60
_FLOAT_SLACK = 2.0 ** -52
_VALUE_TARGET = 2.0 ** -50


class WordStream:
    """Lazily sampled infinite word with i.i.d. symbols, Bernoulli(p).

    Prefixes are stable under extension: asking for more symbols never changes
    the ones already drawn, so re-runs with a larger guard reproduce digits.
    """

    def __init__(self, system: SelfSimilarSystem, seed: int,
                 spawn_key: tuple = ()):
        self.system = system
        self.seed = int(seed)
        self.spawn_key = tuple(spawn_key)
        ss = np.random.SeedSequence(self.seed, spawn_key=self.spawn_key)
        self._rng = np.random.Generator(np.random.Philox(ss))
        cum = np.cumsum([float(w) for w in system.weights])
        cum[-1] = 1.0
        self._cum = cum
        self._symbols: list = []

    def describe(self) -> str:
        key = f", task={self.spawn_key}" if self.spawn_key else ""
        return f"{GENERATOR_ID}(seed={self.seed}{key})"

    def _extend_to(self, m: int) -> None:
        while len(self._symbols) < m:
            k = max(256, m - len(self._symbols))
            u = self._rng.random(k)
            syms = np.searchsorted(self._cum, u, side="right") + 1
            self._symbols.extend(syms.tolist())

    def symbol(self, i: int) -> int:
        self._extend_to(i + 1)
        return self._symbols[i]

    def prefix(self, m: int) -> tuple:
        self._extend_to(m)
        return tuple(self._symbols[:m])


class FixedWord:
    """Adapter giving a finite word the stream interface; refuses extension."""

    def __init__(self, word: Sequence[int]):
        self._word = tuple(word)

    def describe(self) -> str:
        return f"fixed-word(len={len(self._word)})"

    def symbol(self, i: int) -> int:
        if i >= len(self._word):
            raise StreamExhausted(
                f"word of length {len(self._word)} cannot be extended")
        return self._word[i]

    def prefix(self, m: int) -> tuple:
        if m > len(self._word):
            raise StreamExhausted(
                f"word of length {len(self._word)} cannot be extended")
        return self._word[:m]


def sample_word(system: SelfSimilarSystem, m: int, seed: int) -> tuple:
    """First m symbols of the seeded Bernoulli(p) word; reproducible."""
    if m < 0:
        raise InvalidInput("word length must be >= 0")
    if m == 0:
        return ()
    return WordStream(system, seed).prefix(m)


@dataclass(frozen=True)
class PointApproximation:
    """Exact rational enclosure of a coded point x_w.

    `center` is f_w(x0) and `radius` = |f_w'| * hull width, so the true point
    lies in [center - radius, center + radius].  `lo`/`hi` give the exact
    image interval f_w(hull), a nested (in word depth) and generally tighter
    enclosure.
    """

    center: Fraction
    radius: Fraction
    lo: Fraction
    hi: Fraction
    word: tuple
    x0: Fraction

    def interval(self) -> tuple:
        return self.lo, self.hi


def point_of_word(system: SelfSimilarSystem, word: Sequence[int],
                  x0: Optional[Fraction] = None) -> PointApproximation:
    """Certified enclosure of x_w from a finite word prefix."""
    if x0 is None:
        x0 = (system.hull[0] + system.hull[1]) / 2
    x0 = Fraction(x0)
    if not (system.hull[0] <= x0 <= system.hull[1]):
        raise BasePointOutsideHull(f"x0 = {x0} outside hull")
    comp = compose(system, word)
    lo, hi = comp.image(*system.hull)
    return PointApproximation(
        center=comp(x0),
        radius=abs(comp.slope) * system.hull_width,
        lo=lo, hi=hi, word=tuple(word), x0=x0,
    )


def exact_point(x) -> PointApproximation:
    """Wrap an exactly known rational as a zero-radius point."""
    x = Fraction(x)
    return PointApproximation(x, Fraction(0), x, x, (), x)


@dataclass(frozen=True)
class DigitStream:
    """Certified base-b digits of x mod 1 under the floor expansion.

    The first `certified_length` entries equal the true digits of the coded
    point; boundary rationals get the terminating expansion (trailing zeros),
    matching d_n = floor(b^n x) mod b.
    """

    base: int
    digits: np.ndarray
    certified_length: int
    point: PointApproximation
    source: str = ""
    guard: int = 0
    depth: int = 0

    def __len__(self) -> int:
        return self.certified_length


def _chunk_digits(base: int) -> int:
    """Largest k >= 1 with base**k < 2**62 (1 for larger bases), so that a
    chunk of k digits is an int64."""
    k = 1
    while base ** (k + 1) < (1 << 62):
        k += 1
    return k


_SPLIT_LEAF_CHUNKS = 32


def _split_chunks(m: int, big: int, n: int, powers: dict) -> list:
    """The n lowest base-`big` limbs of m, least significant first.

    Halving keeps the two sides of each big division of similar size, which
    CPython divides several times faster than peeling one limb at a time.
    """
    if n <= _SPLIT_LEAF_CHUNKS:
        out = []
        for _ in range(n):
            m, rem = divmod(m, big)
            out.append(rem)
        return out
    half = n // 2
    if half not in powers:
        powers[half] = big ** half
    hi, lo = divmod(m, powers[half])
    return (_split_chunks(lo, big, half, powers)
            + _split_chunks(hi, big, n - half, powers))


def _int_to_digits(m: int, base: int, count: int) -> np.ndarray:
    """The last `count` base-b digits of m >= 0, most significant first."""
    k = _chunk_digits(base)
    n_chunks = -(-count // k)
    chunks = _split_chunks(m, base ** k, n_chunks, {})
    col = np.array(chunks[::-1], dtype=np.int64)[:, None]
    powers = base ** np.arange(k - 1, -1, -1, dtype=np.int64)
    return (col // powers % base).ravel()[n_chunks * k - count:]


def digits_of_rational(x, base: int, count: int) -> DigitStream:
    """Exact digit stream of a rational point; always fully certified."""
    if base < 2:
        raise InvalidInput("base must be >= 2")
    x = Fraction(x)
    frac = x - (x.numerator // x.denominator)
    scaled = frac * Fraction(base) ** count
    m = scaled.numerator // scaled.denominator
    return DigitStream(base, _int_to_digits(m, base, count), count,
                       exact_point(x), source=f"rational({x})")


_MAX_DEPTH_DOUBLINGS = 8


def digits(system: SelfSimilarSystem, stream, base: int, count: int,
           guard: int = 16, x0: Optional[Fraction] = None) -> DigitStream:
    """Certified base-b digits of the sampled point x_w mod 1.

    Consumes a word prefix long enough that the exact enclosure f_w(hull)
    fits strictly inside one cell of width base**-count; a straddling
    enclosure doubles the word depth (up to a cap) before giving up.  Sampled
    words hit cell boundaries with probability zero; exactly known boundary
    rationals should go through :func:`digits_of_rational` instead.
    """
    if base < 2:
        raise InvalidInput("base must be >= 2")
    if count < 1:
        raise InvalidInput("need count >= 1")
    if isinstance(stream, (tuple, list)):
        stream = FixedWord(stream)
    rho = float(system.contraction)
    width = float(system.hull_width)
    need = (count + guard) * math.log(base) + max(math.log(width), 0.0)
    depth = max(1, math.ceil(need / math.log(1.0 / rho)) + 1)
    cap = depth << _MAX_DEPTH_DOUBLINGS

    triples = _integer_triples(system)
    h_lo, h_hi = system.hull
    b_pow = base ** count

    word: tuple = ()
    A, B, C = 1, 0, 1
    while True:
        try:
            segment = stream.prefix(depth)[len(word):]
        except StreamExhausted as exc:
            raise PrecisionExhausted(
                "word stream refused extension at depth "
                f"{_reach(stream, len(word))}") from exc
        word += segment
        A, B, C = join_triples((A, B, C), compose_triples(triples, segment))
        e0 = Fraction(A * h_lo.numerator + B * h_lo.denominator,
                      C * h_lo.denominator)
        e1 = Fraction(A * h_hi.numerator + B * h_hi.denominator,
                      C * h_hi.denominator)
        lo, hi = (e0, e1) if e0 <= e1 else (e1, e0)
        k_lo = (lo.numerator * b_pow) // lo.denominator
        k_hi = (hi.numerator * b_pow) // hi.denominator
        if k_lo == k_hi:
            break
        if depth >= cap:
            raise PrecisionExhausted(
                f"enclosure still straddles a base-{base} cell at depth "
                f"{depth}; the point may be a cell-boundary rational")
        depth = min(2 * depth, cap)

    m_digits = k_lo - (lo.numerator // lo.denominator) * b_pow
    comp_slope = Fraction(A, C)
    x0 = (h_lo + h_hi) / 2 if x0 is None else Fraction(x0)
    center = Fraction(A * x0.numerator + B * x0.denominator,
                      C * x0.denominator)
    point = PointApproximation(center, abs(comp_slope) * system.hull_width,
                               lo, hi, word, x0)
    return DigitStream(base, _int_to_digits(m_digits, base, count), count,
                       point, source=stream.describe(), guard=guard,
                       depth=len(word))


def _reach(stream, start: int) -> int:
    """Number of symbols a finite stream yields, counting on from `start`."""
    try:
        while True:
            stream.symbol(start)
            start += 1
    except StreamExhausted:
        return start


@dataclass(frozen=True)
class SequenceSample:
    """A finite mod-1 sequence with its provenance and accuracy certificate.

    Every value lies in [0, 1) and is within `accuracy` of the true sequence
    member; all producers in this package keep accuracy below 2**-50.
    """

    values: np.ndarray
    accuracy: float
    source: str
    seed: Optional[int] = None
    metadata: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.values)

    @property
    def n(self) -> int:
        return len(self.values)


def _tail_digit_count(base: int) -> int:
    """Length of an orbit value's digit tail: least k with base**k >= 2**60."""
    if base < 2:
        raise InvalidInput("base must be >= 2")
    k, power = 0, 1
    while power < (1 << _TAIL_BITS):
        power *= base
        k += 1
    return k


def orbit_sequence(digit_stream: DigitStream, n_points: int,
                   seed: Optional[int] = None) -> SequenceSample:
    """Orbit values b^n x mod 1 for n = 0..N-1, read as shifted digit tails."""
    base = digit_stream.base
    k_tail = _tail_digit_count(base)
    if digit_stream.certified_length < n_points + k_tail:
        raise InsufficientDigits(
            f"need {n_points + k_tail} certified digits, have "
            f"{digit_stream.certified_length}")
    ds = digit_stream.digits
    b_tail = base ** k_tail
    b_tail_f = float(b_tail)
    below_one = math.nextafter(1.0, 0.0)
    if b_tail < (1 << 64):
        # window n holds digits n .. n+k_tail-1 as one machine integer
        tail = ds[:n_points + k_tail - 1].astype(np.uint64)
        windows = np.zeros(n_points, dtype=np.uint64)
        for j in range(k_tail):
            windows *= np.uint64(base)
            windows += tail[j:j + n_points]
        values = np.minimum(windows / b_tail_f, below_one)
    else:
        m = 0
        for d in ds[:k_tail]:
            m = m * base + int(d)
        cut = base ** (k_tail - 1)
        values = np.empty(n_points, dtype=np.float64)
        for n in range(n_points):
            v = m / b_tail_f
            values[n] = v if v < 1.0 else below_one
            if n + 1 < n_points:
                m = (m % cut) * base + int(ds[n + k_tail])
    acc = base ** -float(k_tail) + _FLOAT_SLACK
    return SequenceSample(values, acc,
                          source=f"orbit(base={base}, {digit_stream.source})",
                          seed=seed,
                          metadata={"base": base, "generator": GENERATOR_ID,
                                    "tail_digits": k_tail,
                                    "depth": digit_stream.depth})


# ----------------------------------------------------------- ball-based orbits

BetaLike = Union[Fraction, int, AlgebraicReal]


def _beta_bounds(beta: BetaLike) -> tuple:
    if isinstance(beta, AlgebraicReal):
        lo, hi = beta.refine(Fraction(1, 1 << 16))
        if lo <= 1:
            raise InvalidInput("beta enclosure must certify beta > 1")
        return lo, hi
    b = Fraction(beta)
    if b <= 1:
        raise InvalidInput("beta must exceed 1")
    return b, b


def _beta_ball(beta: BetaLike, prec: int) -> Ball:
    if isinstance(beta, AlgebraicReal):
        lo, hi = beta.refine(Fraction(1, 1 << (prec + 2)))
        return Ball.from_interval(lo, hi, prec)
    return Ball.from_fraction(Fraction(beta), prec)


def _point_ball(x, prec: int) -> Ball:
    if isinstance(x, PointApproximation):
        return Ball.from_interval(x.lo, x.hi, prec)
    return Ball.from_fraction(Fraction(x), prec)


def _point_radius_log2(x) -> float:
    if isinstance(x, PointApproximation) and x.radius > 0:
        # logs of the integers: float(radius) underflows below ~2^-1075
        r = x.radius
        return math.log2(r.numerator) - math.log2(r.denominator)
    return -math.inf


_MAX_RESTARTS = 4


def _is_exact_rational_point(x) -> bool:
    if isinstance(x, (Fraction, int, str)):
        return True
    return isinstance(x, PointApproximation) and x.radius == 0


def _as_exact_fraction(x) -> Fraction:
    if isinstance(x, PointApproximation):
        return x.center
    return Fraction(x)


def beta_orbit(x, beta: BetaLike, n_points: int,
               seed: Optional[int] = None,
               min_prec: Optional[int] = None) -> SequenceSample:
    """Orbit of the beta-transformation x -> beta * x mod 1, certified.

    Values are T^n(x) for n = 1..N, applied to the unreduced x: the map does
    not commute with reduction mod 1 for non-integer beta, so the first
    multiplication must see x itself.  Rational beta with an exactly known x
    is iterated with exact integer arithmetic; anything else goes through
    ball iteration with adaptive precision, where a ball straddling an
    integer cut triggers precision doubling and a persistent straddle (the
    orbit meeting a discontinuity closer than the input's own radius)
    truncates the sample and records the fact in metadata.
    """
    if n_points < 1:
        raise InvalidInput("need n_points >= 1")
    if not isinstance(beta, AlgebraicReal) and _is_exact_rational_point(x):
        return _beta_orbit_exact(_as_exact_fraction(x), Fraction(beta),
                                 n_points, seed)
    lo_b, hi_b = _beta_bounds(beta)
    log2_beta = math.log2(float(hi_b))
    prec = math.ceil(n_points * log2_beta) + 64 + (n_points + 1).bit_length()
    prec = max(prec, min_prec or 0)
    needed_log2 = -(n_points * log2_beta + 54)
    if _point_radius_log2(x) > needed_log2:
        raise PrecisionExhausted(
            f"input radius 2^{_point_radius_log2(x):.0f} too coarse; need "
            f"<= 2^{needed_log2:.0f} (deepen the word prefix)")

    for attempt in range(_MAX_RESTARTS + 1):
        bb = _beta_ball(beta, prec)
        cur = _point_ball(x, prec)
        values = []
        straddle_at = None
        retry = False
        for n in range(1, n_points + 1):
            try:
                _, frac = bb.mul(cur).floor_split()
            except BallStraddlesCut:
                if attempt < _MAX_RESTARTS:
                    retry = True
                else:
                    straddle_at = n
                break
            if float(frac.radius()) + _FLOAT_SLACK > _VALUE_TARGET:
                retry = True
                break
            values.append(frac.to_float())
            cur = frac
        if not retry:
            break
        prec *= 2
    else:
        raise PrecisionExhausted("ball iteration failed to stabilize")
    meta = {"beta": str(beta), "precision_bits": prec, "restarts": attempt,
            "start_index": 1}
    if straddle_at is not None:
        meta["straddled_at"] = straddle_at
    return SequenceSample(np.asarray(values, dtype=np.float64),
                          _VALUE_TARGET, source=f"beta-orbit({beta})",
                          seed=seed, metadata=meta)


def _beta_orbit_exact(x: Fraction, beta: Fraction, n_points: int,
                      seed: Optional[int]) -> SequenceSample:
    """Exact orbit for rational beta and x; uncancelled integer pairs."""
    if beta <= 1:
        raise InvalidInput("beta must exceed 1")
    p, q = beta.numerator, beta.denominator
    u, v = x.numerator, x.denominator
    shift = 1 << 64
    values = np.empty(n_points, dtype=np.float64)
    for n in range(n_points):
        u, v = p * u, q * v
        u -= (u // v) * v
        values[n] = ((u * shift) // v) / float(shift)
    acc = 2.0 ** -64 + _FLOAT_SLACK
    return SequenceSample(values, acc, source=f"beta-orbit({beta})",
                          seed=seed,
                          metadata={"beta": str(beta), "exact": True,
                                    "start_index": 1})


def power_orbit(x, n_points: int, seed: Optional[int] = None,
                min_prec: Optional[int] = None) -> SequenceSample:
    """The sequence x^n mod 1 for n = 1..N, certified to 2**-50.

    Exact rationals use modular powering (exact digits at every n); certified
    enclosures go through ball powering with precision linear in N.
    """
    if n_points < 1:
        raise InvalidInput("need n_points >= 1")
    if isinstance(x, (Fraction, int, str)):
        xf = Fraction(x)
        if xf <= 1:
            raise InvalidInput("x must exceed 1")
        return _power_orbit_rational(xf, n_points, seed)
    return _power_orbit_enclosure(x, n_points, seed, min_prec=min_prec)


def _power_orbit_rational(x: Fraction, n_points: int,
                          seed: Optional[int]) -> SequenceSample:
    num, den = x.numerator, x.denominator
    values = np.empty(n_points, dtype=np.float64)
    den_pow = 1
    shift = 1 << 64
    for n in range(1, n_points + 1):
        den_pow *= den
        if den == 1:
            values[n - 1] = 0.0
            continue
        m = pow(num, n, den_pow)
        values[n - 1] = ((m * shift) // den_pow) / float(shift)
    acc = 2.0 ** -64 + _FLOAT_SLACK
    return SequenceSample(values, acc, source=f"power({x})", seed=seed,
                          metadata={"x": str(x), "exact": True,
                                    "start_index": 1})


def _power_orbit_enclosure(x, n_points: int, seed: Optional[int],
                           min_prec: Optional[int] = None) -> SequenceSample:
    if isinstance(x, AlgebraicReal):
        lo, hi = x.refine(Fraction(1, 1 << 16))
    else:
        lo, hi = Fraction(x[0]), Fraction(x[1])
    if lo <= 1:
        raise InvalidInput("enclosure must certify x > 1")
    log2_x = math.log2(float(hi))
    prec = math.ceil(n_points * log2_x) + 64 + (n_points + 1).bit_length()
    prec = max(prec, min_prec or 0)
    for attempt in range(_MAX_RESTARTS + 1):
        if isinstance(x, AlgebraicReal):
            lo, hi = x.refine(Fraction(1, 1 << (prec + 2)))
        base = Ball.from_interval(lo, hi, prec)
        cur = base
        values = []
        straddle_at = None
        retry = False
        for n in range(1, n_points + 1):
            try:
                _, frac = cur.floor_split()
            except BallStraddlesCut:
                if attempt < _MAX_RESTARTS:
                    retry = True
                else:
                    straddle_at = n
                break
            if float(frac.radius()) + _FLOAT_SLACK > _VALUE_TARGET:
                retry = True
                break
            values.append(frac.to_float())
            if n < n_points:
                cur = cur.mul(base)
        if not retry:
            break
        prec *= 2
    else:
        raise PrecisionExhausted("ball powering failed to stabilize")
    meta = {"x": str(x), "precision_bits": prec, "restarts": attempt,
            "start_index": 1}
    if straddle_at is not None:
        meta["straddled_at"] = straddle_at
    return SequenceSample(np.asarray(values, dtype=np.float64),
                          _VALUE_TARGET, source=f"power({x})", seed=seed,
                          metadata=meta)


def sampled_point(system: SelfSimilarSystem, stream, target_radius) -> PointApproximation:
    """Extend a word stream until the enclosure radius drops to the target."""
    target = Fraction(target_radius)
    if target <= 0:
        raise InvalidInput("target radius must be positive")
    rho = float(system.contraction)
    width = float(system.hull_width)
    # logs of the integers: float(target) underflows below ~2^-1075
    log_target = math.log(target.numerator) - math.log(target.denominator)
    depth = max(1, math.ceil((log_target - math.log(width))
                             / math.log(rho)) + 1)
    while True:
        point = point_of_word(system, stream.prefix(depth))
        if point.radius <= target:
            return point
        depth *= 2


def uniform_sample(n_points: int, seed: int,
                   spawn_key: tuple = ()) -> SequenceSample:
    """I.i.d. uniform values on [0, 1); the Poissonian reference ensemble.

    `spawn_key` selects an independent stream of the same seed, one per
    sample of a multi-sample run.
    """
    ss = np.random.SeedSequence(seed, spawn_key=spawn_key)
    rng = np.random.Generator(np.random.Philox(ss))
    values = rng.random(n_points)
    return SequenceSample(values, _FLOAT_SLACK, source="uniform", seed=seed,
                          metadata={"generator": GENERATOR_ID})
