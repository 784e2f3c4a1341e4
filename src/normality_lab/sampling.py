"""Sampling from the coding space and certified orbit machinery.

Points are produced as exact rational enclosures of x_w = lim f_{w|m}(x0) for
lazily sampled words w.  The word prefix is composed into one integer triple
by a balanced product tree over 32-symbol leaves (:func:`ifs.compose_triples`),
so a certified digit stream costs a few big-integer products of its final
size instead of one product per symbol; a deeper word only composes the new
segment and joins it on the right.  The digit cell of the enclosure is an
integer floor at each hull end (no gcd); its digits come out of that integer
in machine-word chunks split by one numpy broadcast.  Integer-base orbits are
read off the digit stream as shifted tail windows, one vector step per tail
digit, rather than by repeated big-rational multiplication.  Orbits of the
beta-transformation and powers x^n are one recurrence y_n = factor y_{n-1}
behind one dispatcher: an exact integer carry for rationals (one masked
integer when every denominator is a power of two, y_n = k + m / D
otherwise), one ball-iteration loop otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from .algebra import AlgebraicReal, poly_eval
from .balls import Ball, floor_int, mul_ints
from .errors import (
    BallStraddlesCut,
    BasePointOutsideHull,
    ConfigParseError,
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


@dataclass(frozen=True)
class DigitStream:
    """Certified base-b digits of x mod 1 under the floor expansion.

    The first `certified_length` entries equal the true digits of the coded
    point; boundary rationals get the terminating expansion (trailing zeros),
    matching d_n = floor(b^n x) mod b.  The digits are read with integer
    floors of the exact enclosure, never through a rational point, and
    `depth` is the length of the word prefix they come from.
    """

    base: int
    digits: np.ndarray
    certified_length: int
    source: str = ""
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


def _check_base(base: int) -> None:
    """Digits are stored as int64, so a base must lie in [2, 2**63)."""
    if not 2 <= base < (1 << 63):
        raise InvalidInput("base must be >= 2 and below 2**63")


def digits_of_rational(x, base: int, count: int) -> DigitStream:
    """Exact digit stream of a rational point x (an int or a Fraction);
    always fully certified."""
    _check_base(base)
    b_pow = base ** count
    m = x.numerator * b_pow // x.denominator % b_pow
    return DigitStream(base, _int_to_digits(m, base, count), count,
                       source=f"rational({x})")


_MAX_DEPTH_DOUBLINGS = 8


def digits(system: SelfSimilarSystem, stream, base: int, count: int,
           guard: int = 16) -> DigitStream:
    """Certified base-b digits of the sampled point x_w mod 1.

    Consumes a word prefix long enough that the exact enclosure f_w(hull)
    fits strictly inside one cell of width base**-count; a straddling
    enclosure doubles the word depth (up to a cap) before giving up.  With
    f_w(x) = (A x + B) / C, C > 0, each hull end num/den lies in cell
    k = floor(base**count (A num + B den) / (C den)); the enclosure fits one
    cell exactly when both ends give the same k, and the digits are then
    k mod base**count.  These integer floors need no gcd.  Sampled words hit
    cell boundaries with probability zero; exactly known boundary rationals
    should go through :func:`digits_of_rational` instead.
    """
    _check_base(base)
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
    ends = [(h.numerator, h.denominator) for h in system.hull]
    b_pow = base ** count

    done = 0  # symbols composed into (A, B, C)
    A, B, C = 1, 0, 1
    while True:
        try:
            segment = stream.prefix(depth)[done:]
        except StreamExhausted as exc:
            raise PrecisionExhausted(
                "word stream refused extension at depth "
                f"{_reach(stream, done)}") from exc
        A, B, C = join_triples((A, B, C), compose_triples(triples, segment))
        done = depth
        k_lo, k_hi = (b_pow * (A * num + B * den) // (C * den)
                      for num, den in ends)
        if k_lo == k_hi:
            break
        if depth >= cap:
            raise PrecisionExhausted(
                f"enclosure still straddles a base-{base} cell at depth "
                f"{depth}; the point may be a cell-boundary rational")
        depth = min(2 * depth, cap)

    return DigitStream(base, _int_to_digits(k_lo % b_pow, base, count), count,
                       source=stream.describe(), depth=done)


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
    _check_base(base)
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
    b_tail = base ** k_tail
    # window n holds digits n .. n+k_tail-1 as one integer: a machine word,
    # or a Python int when base^k_tail reaches 2^64
    dtype = np.uint64 if b_tail < (1 << 64) else object
    tail = digit_stream.digits[:n_points + k_tail - 1].astype(dtype)
    windows = np.zeros(n_points, dtype=dtype)
    for j in range(k_tail):
        windows *= base
        windows += tail[j:j + n_points]
    values = np.minimum(windows / float(b_tail), math.nextafter(1.0, 0.0))
    values = values.astype(np.float64, copy=False)
    acc = base ** -float(k_tail) + _FLOAT_SLACK
    return SequenceSample(values, acc,
                          source=f"orbit(base={base}, {digit_stream.source})",
                          seed=seed,
                          metadata={"base": base, "generator": GENERATOR_ID,
                                    "tail_digits": k_tail,
                                    "depth": digit_stream.depth})


# ----------------------------------------------------------- ball-based orbits

BetaLike = Union[Fraction, int, AlgebraicReal]


def _enclosure(x, prec: int) -> tuple:
    """Exact rational (lo, hi) around x: an algebraic number refined to
    width 2^-(prec+2), a point's image interval, a given (lo, hi) pair, or
    (x, x) for a rational."""
    if isinstance(x, AlgebraicReal):
        return x.refine(Fraction(1, 1 << (prec + 2)))
    if isinstance(x, PointApproximation):
        return x.lo, x.hi
    if isinstance(x, (tuple, list)):
        return Fraction(x[0]), Fraction(x[1])
    return Fraction(x), Fraction(x)


def _log2(x: Fraction) -> float:
    """log2(float(x)), from the integers' logs where float(x) overflows."""
    try:
        return math.log2(float(x))
    except OverflowError:
        return math.log2(x.numerator) - math.log2(x.denominator)


def _point_radius_log2(x) -> float:
    if isinstance(x, PointApproximation) and x.radius > 0:
        # logs of the integers: float(radius) underflows below ~2^-1075
        r = x.radius
        return math.log2(r.numerator) - math.log2(r.denominator)
    return -math.inf


def _multiplier_enclosure(factor) -> tuple:
    """Enclosure (lo, hi) of the multiplier with lo > 1, of width 2^-16 or
    narrower ((f, f) for a rational f); InvalidInput unless the multiplier is
    certified > 1.

    An algebraic root whose 2^-16 enclosure holds 1 is decided exactly: it
    exceeds 1 when p(1) != 0 has the sign of p(lo), as there is then no sign
    change in [lo, 1].  It is then refined until lo > 1.
    """
    bits = 14
    lo, hi = _enclosure(factor, bits)
    if lo <= 1 < hi and isinstance(factor, AlgebraicReal):
        p_one = sum(factor.coeffs)
        if p_one != 0 and (p_one > 0) == (poly_eval(factor.coeffs, lo) > 0):
            while lo <= 1:
                bits *= 2
                lo, hi = _enclosure(factor, bits)
    if lo <= 1:
        raise InvalidInput(f"need a multiplier certified > 1, got {factor}")
    return lo, hi


_M64 = (1 << 64) - 1


def _exact_orbit(factor: Fraction, start: Fraction, n_points: int,
                 reduce: bool) -> np.ndarray:
    """Exact y_n mod 1 (n = 1..N) of y_n = factor * y_{n-1}, y_0 = start.

    With factor = p / q, y_n = k + m / D is carried in integers, D =
    den(start) q^n, and the value is floor(2^64 m / D) / 2^64.  When q and
    den(start) are both powers of two (integer factors included) the
    dyadic carry of :func:`_dyadic_orbit` reads the same floats from one
    integer; any odd factor in q or den(start) takes the carry below: p k =
    a q + r gives y_{n+1} = a + (r D + p m) / (q D), whose numerator splits
    into the new k and m by one small-quotient division.  The start enters
    unreduced as (0, num, den).  k reaches m only through p k mod q, so it
    is dropped for the beta map (`reduce`) and for q = 1.
    """
    p, q = factor.numerator, factor.denominator
    k, m, den = 0, start.numerator, start.denominator
    if q & (q - 1) == 0 and den & (den - 1) == 0:
        return _dyadic_orbit(p, q.bit_length() - 1, m, den.bit_length() - 1,
                             n_points, reduce)
    p_k = p if q > 1 and not reduce else 0
    shift = float(1 << 64)
    values = np.empty(n_points, dtype=np.float64)
    for n in range(n_points):
        a, r = divmod(p_k * k, q)
        s = r * den + p * m
        den *= q
        c, m = divmod(s, den)
        k = a + c
        values[n] = ((m << 64) // den) / shift
    return values


def _dyadic_orbit(p: int, e: int, z: int, b: int, n_points: int,
                  reduce: bool) -> np.ndarray:
    """:func:`_exact_orbit` for factor p / 2^e and start z / 2^b.

    y_n = p^n z / 2^(b + e n) is one integer over a power of two, so its
    fractional numerator m is the low b + e n bits of p^n z, and the value
    floor(2^64 m / 2^(b + e n)) / 2^64 is the 64 bits just below bit
    b + e n.  Each step multiplies by p and clears the bits at and above a
    cut: the beta map (`reduce`) keeps m itself, cut b + e n; a power keeps
    p^n z mod 2^(b + e N), all the integer-part bits a later value still
    reads.  No division is made.
    """
    shift = float(1 << 64)
    top = b + e * n_points
    bits = b
    values = []
    for _ in range(n_points):
        bits += e
        cut = bits if reduce else top
        z *= p
        z ^= z >> cut << cut  # z mod 2^cut, also for a negative start
        lead = z >> (bits - 64) if bits >= 64 else z << (64 - bits)
        values.append((lead & _M64) / shift)
    return np.array(values, dtype=np.float64)


_MAX_RESTARTS = 4
# Resource caps of the ball loop, checked for every attempt: an attempt of
# N steps at working precision P multiplies P-bit integers N times and
# refines an algebraic factor to P bits
MAX_PRECISION_BITS = 1 << 16
MAX_BALL_WORK = 1 << 26  # N * P


def _within_caps(n_points: int, prec: int) -> bool:
    return prec <= MAX_PRECISION_BITS and n_points * prec <= MAX_BALL_WORK


def ball_precision(n_points: int, factor_hi: Fraction,
                   min_prec: Optional[int]) -> int:
    """Working precision of the ball loop for N values under a multiplier
    bounded by `factor_hi`: ceil(N log2 factor_hi) + 64 + bitlen(N + 1) bits,
    at least `min_prec`.  ConfigParseError (exit 4) when it is over
    MAX_PRECISION_BITS or N times it is over MAX_BALL_WORK."""
    prec = (math.ceil(n_points * _log2(factor_hi)) + 64
            + (n_points + 1).bit_length())
    prec = max(prec, min_prec or 0)
    if not _within_caps(n_points, prec):
        raise ConfigParseError(
            f"ball iteration of length {n_points} at {prec} bits is over the "
            f"caps: at most {MAX_PRECISION_BITS} bits and length x bits at "
            f"most {MAX_BALL_WORK}")
    return prec


def _ball_orbit(factor, start, n_points: int, reduce: bool,
                min_prec: Optional[int], factor_hi: Fraction) -> tuple:
    """Values y_n mod 1 for n = 1..N of y_n = factor * y_{n-1}, y_0 = start,
    from ball enclosures; `factor_hi` bounds the multiplier from above.

    With `reduce` the next step multiplies y_n mod 1 (the beta map), else
    the unreduced y_n (powers).  Both enclosures become balls at the working
    precision of :func:`ball_precision`, linear in N; a ball straddling an
    integer cut, or a value radius above 2^-50, restarts at doubled
    precision, at most _MAX_RESTARTS times and only within the caps.  A
    straddle that survives the last attempt (the orbit meeting a cut closer
    than the input's own radius) truncates the values and sets
    `straddled_at` in the returned metadata.  Each step is bare (mid, rad)
    integers through the kernels :func:`mul_ints` and :func:`floor_int`,
    with no `Ball` per step.
    """
    prec = ball_precision(n_points, factor_hi, min_prec)
    needed_log2 = -(n_points * _log2(factor_hi) + 54)
    if _point_radius_log2(start) > needed_log2:
        raise PrecisionExhausted(
            f"input radius 2^{_point_radius_log2(start):.0f} too coarse; need "
            f"<= 2^{needed_log2:.0f} (deepen the word prefix)")

    for attempt in range(_MAX_RESTARTS + 1):
        last = (attempt == _MAX_RESTARTS
                or not _within_caps(n_points, 2 * prec))
        step = Ball.from_interval(*_enclosure(factor, prec), prec)
        cur = Ball.from_interval(*_enclosure(start, prec), prec)
        step_mid, step_rad = step.mid, step.rad
        mid, rad = cur.mid, cur.rad
        scale = 1 << prec
        values = []
        straddle_at = None
        retry = False
        for n in range(1, n_points + 1):
            mid, rad = mul_ints(step_mid, step_rad, mid, rad, prec)
            try:
                k = floor_int(mid, rad, prec)
            except BallStraddlesCut:
                if last:
                    straddle_at = n
                else:
                    retry = True
                break
            if rad / scale + _FLOAT_SLACK > _VALUE_TARGET:
                retry = True
                break
            frac = mid - (k << prec)
            values.append(frac / scale)
            if reduce:
                mid = frac
        if not retry:
            break
        if last:
            raise PrecisionExhausted("ball iteration failed to stabilize")
        prec *= 2
    meta = {"precision_bits": prec, "restarts": attempt, "start_index": 1}
    if straddle_at is not None:
        meta["straddled_at"] = straddle_at
    return np.asarray(values, dtype=np.float64), meta


_EXACT = (Fraction, int, str)


def _multiply_orbit(factor, start, n_points: int, reduce: bool,
                    min_prec: Optional[int]) -> tuple:
    """(values, accuracy, metadata) of y_n mod 1 for n = 1..N, where
    y_n = factor * y_{n-1}, y_0 = start and the factor is certified > 1: the
    exact carry when factor and start are Fractions, else the ball loop."""
    if n_points < 1:
        raise InvalidInput("need n_points >= 1")
    factor_hi = _multiplier_enclosure(factor)[1]
    if isinstance(factor, Fraction) and isinstance(start, Fraction):
        values = _exact_orbit(factor, start, n_points, reduce)
        return values, 2.0 ** -64 + _FLOAT_SLACK, {"exact": True,
                                                   "start_index": 1}
    values, meta = _ball_orbit(factor, start, n_points, reduce, min_prec,
                               factor_hi)
    return values, _VALUE_TARGET, meta


def beta_orbit(x, beta: BetaLike, n_points: int,
               seed: Optional[int] = None,
               min_prec: Optional[int] = None) -> SequenceSample:
    """Orbit of the beta-transformation x -> beta * x mod 1, certified.

    Values are T^n(x) for n = 1..N, applied to the unreduced x: the map does
    not commute with reduction mod 1 for non-integer beta, so the first
    multiplication must see x itself.  Each later step multiplies the
    reduced value (:func:`_multiply_orbit`): a rational beta with an exactly
    known x takes the exact integer carry (the dyadic one when den(beta)
    and den(x) are powers of two), anything else (an algebraic beta, a
    sampled point with a radius) the ball loop, where a persistent straddle
    of an integer cut truncates the sample and records `straddled_at`.
    """
    if not isinstance(beta, AlgebraicReal) and isinstance(x, _EXACT):
        x, beta = Fraction(x), Fraction(beta)
    values, acc, meta = _multiply_orbit(beta, x, n_points, True, min_prec)
    return SequenceSample(values, acc, source=f"beta-orbit({beta})",
                          seed=seed, metadata={"beta": str(beta), **meta})


def power_orbit(x, n_points: int, seed: Optional[int] = None,
                min_prec: Optional[int] = None) -> SequenceSample:
    """The sequence x^n mod 1 for n = 1..N, certified to 2**-50.

    The orbit of :func:`_multiply_orbit` from y_0 = 1 multiplying the
    unreduced power by x: an exact rational x takes the exact integer carry
    (x = p / 2^e: p^n mod 2^(eN) in one masked integer; any other x:
    x^n = k + m / den^n), an enclosure of x (an :class:`AlgebraicReal` or a
    rational `(lo, hi)` pair) the ball loop at precision linear in N.
    """
    if isinstance(x, _EXACT):
        x = Fraction(x)
    values, acc, meta = _multiply_orbit(x, Fraction(1), n_points, False,
                                        min_prec)
    return SequenceSample(values, acc, source=f"power({x})", seed=seed,
                          metadata={"x": str(x), **meta})


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
