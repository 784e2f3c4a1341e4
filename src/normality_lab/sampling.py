"""Sampling from the coding space and certified orbit machinery.

Points are produced as exact rational enclosures of x_w = lim f_{w|m}(x) for
lazily sampled words w.  The word prefix is composed into one integer triple
(:func:`ifs.compose_triples`): its leaves fold at once as int64 vectors and
a balanced product tree joins them, so a certified digit stream costs a few
big-integer products of its final size instead of one product per symbol; a
word stream hands the fold each new segment as an integer array, and a
deeper word only composes that segment and joins it on the right.  One
integer floor per depth decides the digit cell of the enclosure (no gcd),
with the powers of two of base**count and of the denominator moved into a
shift, and big floors go through one recursive division
(:func:`int_divmod`), so no big division is quadratic.  The digits of a
power-of-two base are read from the bytes of that integer; other bases split
it into machine-word chunks by the same division.  Integer-base orbits are
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

from .algebra import AlgebraicReal, poly_sign
from .balls import floor_int, interval_ints, mul_ints
from .errors import (
    BallStraddlesCut,
    ConfigParseError,
    InvalidInput,
    PrecisionExhausted,
    StreamExhausted,
)
from .ifs import (
    SelfSimilarSystem,
    compose,
    compose_triples,
    integer_growth,
    integer_triples,
    join_triples,
)

GENERATOR_ID = "philox"

# Tail digits are chosen so that the truncation error b**-K is at most 2**-60,
# keeping every emitted float certified well below the 2**-50 contract.
_TAIL_BITS = 60
_FLOAT_SLACK = 2.0 ** -52
_VALUE_TARGET = 2.0 ** -50
# the largest float below 1: a value that rounds up to 1.0 is clamped to it
_BELOW_ONE = math.nextafter(1.0, 0.0)


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
        # symbols 0 .. _n - 1 of the word, in a buffer that doubles as it grows
        self._buf = np.empty(0, dtype=np.intp)
        self._n = 0

    def describe(self) -> str:
        key = f", task={self.spawn_key}" if self.spawn_key else ""
        return f"{GENERATOR_ID}(seed={self.seed}{key})"

    def _extend_to(self, m: int) -> None:
        n = self._n
        if m <= n:
            return
        k = max(256, m - n)
        syms = np.searchsorted(self._cum, self._rng.random(k), side="right")
        if n + k > len(self._buf):
            buf = np.empty(max(2 * len(self._buf), n + k), dtype=np.intp)
            buf[:n] = self._buf[:n]
            self._buf = buf
        self._buf[n:n + k] = syms + 1
        self._n = n + k

    def symbol(self, i: int) -> int:
        self._extend_to(i + 1)
        return self._buf.item(i)

    def prefix(self, m: int) -> tuple:
        self._extend_to(m)
        return tuple(self._buf[:m].tolist())

    def segment(self, start: int, stop: int) -> np.ndarray:
        """Symbols start .. stop - 1 as a read-only integer array."""
        self._extend_to(stop)
        view = self._buf[start:stop]
        view.flags.writeable = False
        return view


class FixedWord(WordStream):
    """A finite word as a stream: the buffer is the word itself, and asking
    for a symbol past its end raises StreamExhausted."""

    def __init__(self, word: Sequence[int]):
        buf = np.asarray(word)
        if buf.size and buf.dtype.kind not in "iu":
            raise InvalidInput(f"symbols must be integers: {buf.dtype}")
        self._buf = buf.astype(np.intp)
        self._n = len(self._buf)

    def describe(self) -> str:
        return f"fixed-word(len={self._n})"

    def _extend_to(self, m: int) -> None:
        if m > self._n:
            raise StreamExhausted(
                f"word of length {self._n} cannot be extended")


def sample_word(system: SelfSimilarSystem, m: int, seed: int) -> tuple:
    """First m symbols of the seeded Bernoulli(p) word; reproducible."""
    if m < 0:
        raise InvalidInput("word length must be >= 0")
    return WordStream(system, seed).prefix(m)


@dataclass(frozen=True)
class PointApproximation:
    """Exact rational enclosure of a coded point x_w.

    `center` is f_w at the hull midpoint and `radius` = |f_w'| * hull width,
    so the true point lies in [center - radius, center + radius].  `lo`/`hi`
    give the exact image interval f_w(hull), a nested (in word depth) and
    generally tighter enclosure.
    """

    center: Fraction
    radius: Fraction
    lo: Fraction
    hi: Fraction


def point_of_word(system: SelfSimilarSystem,
                  word: Sequence[int]) -> PointApproximation:
    """Certified enclosure of x_w from a finite word prefix."""
    comp = compose(system, word)
    lo, hi = comp.image(*system.hull)
    return PointApproximation(
        center=comp((system.hull[0] + system.hull[1]) / 2),
        radius=abs(comp.slope) * system.hull_width, lo=lo, hi=hi)


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


# Divisors up to this many bits go to CPython's own divmod, which is as fast
# there; past it the recursion of :func:`int_divmod` wins.
_DIV_CUTOFF = 2000


def int_divmod(a: int, b: int) -> tuple:
    """divmod(a, b) for b > 0, by Burnikel-Ziegler recursive division.

    CPython 3.11 divides big integers in quadratic time.  Past _DIV_CUTOFF
    bits, a is split into blocks of n = bitlen(b) bits from the top, and
    each step divides a 2n-bit remainder by b in two halves, each a
    division by the top half of b corrected by at most two subtractions
    (C. Burnikel and J. Ziegler, "Fast recursive division",
    MPI-I-98-1-022, 1998): the products run at Karatsuba speed.  The blocks
    are joined one by one, so the quotient should be at most a few times
    longer than b, as it is for every caller here.
    """
    if a < 0:
        q, r = int_divmod(~a, b)  # a = -1 - ~a
        return ~q, b + ~r
    n = b.bit_length()
    if n <= _DIV_CUTOFF or a.bit_length() - n <= _DIV_CUTOFF:
        return divmod(a, b)
    mask = (1 << n) - 1
    q = r = 0
    for shift in range((a.bit_length() - 1) // n * n, -1, -n):
        digit, r = _div_2n_by_n(r << n | (a >> shift & mask), b, n)
        q = q << n | digit
    return q, r


def _div_2n_by_n(a: int, b: int, n: int) -> tuple:
    """divmod(a, b) for b of n bits and 0 <= a < b * 2^n."""
    if n <= _DIV_CUTOFF:
        return divmod(a, b)
    odd = n & 1
    if odd:  # halves of an even length
        a, b, n = a << 1, b << 1, n + 1
    h = n >> 1
    mask = (1 << h) - 1
    b_hi, b_lo = b >> h, b & mask
    q_hi, r = _div_3h_by_2h(a >> n, a >> h & mask, b, b_hi, b_lo, h)
    q_lo, r = _div_3h_by_2h(r, a & mask, b, b_hi, b_lo, h)
    return q_hi << h | q_lo, r >> odd


def _div_3h_by_2h(a_top: int, a_low: int, b: int, b_hi: int, b_lo: int,
                  h: int) -> tuple:
    """divmod(a_top * 2^h + a_low, b) for b = b_hi * 2^h + b_lo of 2h bits
    and a quotient below 2^h: estimate from b_hi, then correct."""
    if a_top >> h == b_hi:
        q, r = (1 << h) - 1, a_top - (b_hi << h) + b_hi
    else:
        q, r = _div_2n_by_n(a_top, b_hi, h)
    r = (r << h | a_low) - q * b_lo
    while r < 0:
        q -= 1
        r += b
    return q, r


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

    Halving keeps the two sides of each big division of similar size, the
    case :func:`int_divmod` divides fastest.
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
    hi, lo = int_divmod(m, powers[half])
    return (_split_chunks(lo, big, half, powers)
            + _split_chunks(hi, big, n - half, powers))


def _int_to_digits(m: int, base: int, count: int) -> np.ndarray:
    """The last `count` base-b digits of m >= 0, most significant first.

    A base 2^t reads the bits of m from its bytes, t bits a digit; any
    other base splits m into machine-word chunks of digits.
    """
    t = base.bit_length() - 1
    if base == 1 << t:
        n_bits = t * count
        raw = (m & ((1 << n_bits) - 1)).to_bytes(-(-n_bits // 8), "big")
        bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8))
        weights = 1 << np.arange(t - 1, -1, -1, dtype=np.int64)
        return bits[bits.size - n_bits:].reshape(count, t) @ weights
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
    m = int_divmod(x.numerator * b_pow, x.denominator)[0] % b_pow
    return DigitStream(base, _int_to_digits(m, base, count), count,
                       source=f"rational({x})")


_MAX_DEPTH_DOUBLINGS = 8
# The integers of a digit stream hold at most MAX_DIGITS bits: count + guard
# digits of base b take (count + guard) log2(b) r bits, r the system's
# :func:`ifs.integer_growth`.  The command line caps a sequence that need
# not come from digits at MAX_DIGITS values.
MAX_DIGITS = 1 << 22


def check_digit_bits(system: SelfSimilarSystem, base: int, count: int,
                     guard: int, samples: int = 1) -> None:
    """ConfigParseError (exit 4) when `samples` streams of count + guard
    base-b digits (a base >= 2) of a point of `system` hold more than
    MAX_DIGITS bits in all."""
    r = integer_growth(system)
    bits = samples * (count + guard) * math.log2(base) * r
    if bits > MAX_DIGITS:
        each = f"{samples} samples x " if samples > 1 else ""
        at_r = f" at r = {r:.4g} word bits per digit bit" if r > 1 else ""
        raise ConfigParseError(
            f"{each}{count} base-{base} digits with guard {guard} need "
            f"{bits:.0f} bits{at_r}, over the cap of {MAX_DIGITS}")


def digits(system: SelfSimilarSystem, stream, base: int, count: int,
           guard: int = 16) -> DigitStream:
    """Certified base-b digits of the sampled point x_w mod 1.

    Consumes a word prefix long enough that the exact enclosure f_w(hull)
    fits strictly inside one cell of width base**-count; a straddling
    enclosure doubles the word depth (up to a cap) before giving up.  With
    f_w(x) = (A x + B) / C, C > 0, and both hull ends written as num / den
    over one denominator, an end lies in cell floor(N / D), N = base**count
    (A num + B den) and D = C den.  One floor decides the enclosure: with
    k, r = divmod(N_lo, D), the high end shares the cell k exactly when
    0 <= r + N_hi - N_lo < D, and the digits are then k mod base**count.
    The powers of two of base**count and of D cancel into one shift, as
    floor(x / (2^s d)) = floor(floor(x / 2^s) / d), so a power-of-two C
    (slopes 1/2 and 1/4) leaves no division, and the one floor left goes
    through :func:`int_divmod`.  No gcd is taken.
    Sampled words hit cell boundaries with probability zero; exactly known
    boundary rationals should go through :func:`digits_of_rational`
    instead.  ConfigParseError (exit 4), before any big integer is built,
    when the count + guard digits hold more than MAX_DIGITS bits.
    """
    _check_base(base)
    if count < 1:
        raise InvalidInput("need count >= 1")
    check_digit_bits(system, base, count, guard)
    if isinstance(stream, (tuple, list)):
        stream = FixedWord(stream)
    rho = float(system.contraction)
    width = float(system.hull_width)
    need = (count + guard) * math.log(base) + max(math.log(width), 0.0)
    depth = max(1, math.ceil(need / math.log(1.0 / rho)) + 1)
    cap = depth << _MAX_DEPTH_DOUBLINGS

    triples = integer_triples(system)
    # the hull ends as num / den over one denominator
    den = math.lcm(*(h.denominator for h in system.hull))
    nums = [h.numerator * (den // h.denominator) for h in system.hull]
    twos = (base & -base).bit_length() - 1
    odd_pow, shift = (base >> twos) ** count, twos * count

    done = 0  # symbols composed into (A, B, C)
    A, B, C = 1, 0, 1
    while True:
        try:
            segment = stream.segment(done, depth)
        except StreamExhausted as exc:
            raise PrecisionExhausted(
                f"word stream refused extension at depth {stream._n}"
            ) from exc
        A, B, C = join_triples((A, B, C), compose_triples(triples, segment))
        done = depth
        # the cell of each hull end is floor(x / d), with d the odd part of
        # C den and its powers of two moved into the shift of x
        D = C * den
        twos_d = (D & -D).bit_length() - 1
        d, s = D >> twos_d, shift - twos_d
        x_lo, x_hi = (odd_pow * (A * num + B * den) for num in nums)
        if s >= 0:
            x_lo, x_hi = x_lo << s, x_hi << s
        else:
            x_lo, x_hi = x_lo >> -s, x_hi >> -s
        k, r = int_divmod(x_lo, d)
        if 0 <= r + x_hi - x_lo < d:  # floor(x_hi / d) == k
            break
        if depth >= cap:
            raise PrecisionExhausted(
                f"enclosure still straddles a base-{base} cell at depth "
                f"{depth}; the point may be a cell-boundary rational")
        depth = min(2 * depth, cap)

    m = k % (odd_pow << shift)
    return DigitStream(base, _int_to_digits(m, base, count), count,
                       source=stream.describe(), depth=done)


@dataclass(frozen=True)
class SequenceSample:
    """A finite mod-1 sequence with its provenance and accuracy certificate.

    Every value lies in [0, 1) and is within `accuracy` of the true sequence
    member; all producers in this package keep accuracy below 2**-50.
    """

    values: np.ndarray
    accuracy: float
    source: str
    metadata: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.values)


def _tail_digit_count(base: int) -> int:
    """Length of an orbit value's digit tail: least k with base**k >= 2**60."""
    _check_base(base)
    k, power = 0, 1
    while power < (1 << _TAIL_BITS):
        power *= base
        k += 1
    return k


def orbit_digit_count(base: int, n_points: int) -> int:
    """Certified base-b digits to ask :func:`digits` for so that
    :func:`orbit_sequence` reads `n_points` values: one digit tail of
    k (base**k >= 2**60) past the last value, and one digit more."""
    return n_points + _tail_digit_count(base) + 1


def orbit_sequence(digit_stream: DigitStream, n_points: int) -> SequenceSample:
    """Orbit values b^n x mod 1 for n = 0..N-1, read as shifted digit tails."""
    base = digit_stream.base
    k_tail = _tail_digit_count(base)
    if digit_stream.certified_length < n_points + k_tail:
        raise PrecisionExhausted(
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
    values = np.minimum(windows / float(b_tail), _BELOW_ONE)
    values = values.astype(np.float64, copy=False)
    acc = base ** -float(k_tail) + _FLOAT_SLACK
    return SequenceSample(values, acc,
                          source=f"orbit(base={base}, {digit_stream.source})",
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
        if p_one != 0 and (p_one > 0) == (poly_sign(factor.coeffs, lo) > 0):
            while lo <= 1:
                bits *= 2
                lo, hi = _enclosure(factor, bits)
    if lo <= 1:
        raise InvalidInput(f"need a multiplier certified > 1, got {factor}")
    return lo, hi


_M64 = (1 << 64) - 1
# Work cap of the exact carries: N steps, each on integers of up to B bits
# and a multiplier p of w = ceil(bitlen(p) / 32) words, cost about N B w; at
# the cap the slowest input known takes about 10 s wall
MAX_CARRY_WORK = 25 * 10 ** 9


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
    is dropped for the beta map (`reduce`) and for q = 1.  ConfigParseError
    (exit 4), before the loop, when its work is over MAX_CARRY_WORK.
    """
    p, q = factor.numerator, factor.denominator
    k, m, den = 0, start.numerator, start.denominator
    dyadic = q & (q - 1) == 0 and den & (den - 1) == 0
    p_k = p if q > 1 and not (reduce or dyadic) else 0
    # a step multiplies by p, and divides with small quotients, integers of
    # up to `bits` bits: D = den(start) q^n (on the dyadic path, the low bits
    # of p^n z) and a carried k, n log2(p / q) bits more
    bits = (n_points * math.log2(p if p_k else q) + den.bit_length()
            + m.bit_length() + p.bit_length())
    work = n_points * bits * -(-p.bit_length() // 32)
    if work > MAX_CARRY_WORK:
        raise ConfigParseError(
            f"exact orbit of length {n_points} on integers of up to "
            f"{bits:.0f} bits, times {p.bit_length()}-bit multipliers, is "
            f"over the cap of {MAX_CARRY_WORK}")
    if dyadic:
        return _dyadic_orbit(p, q.bit_length() - 1, m, den.bit_length() - 1,
                             n_points, reduce)
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


def ball_start_radius(factor, n_points: int,
                      min_prec: Optional[int]) -> Fraction:
    """Radius to sample the start of an N-value ball orbit to:
    2^-(ceil(N log2 hi) + 80), hi the multiplier's certified upper bound,
    26 bits inside the 2^-(N log2 hi + 54) that :func:`_ball_orbit`
    requires.  Raises before any point is sampled: InvalidInput unless the
    multiplier is certified > 1, ConfigParseError (exit 4) when the loop is
    over the caps of :func:`ball_precision`."""
    factor_hi = _multiplier_enclosure(factor)[1]
    ball_precision(n_points, factor_hi, min_prec)
    return Fraction(1, 1 << (math.ceil(n_points * _log2(factor_hi)) + 80))


def _ball_orbit(factor, start, n_points: int, reduce: bool,
                min_prec: Optional[int], factor_hi: Fraction) -> tuple:
    """Values y_n mod 1 for n = 1..N of y_n = factor * y_{n-1}, y_0 = start,
    from ball enclosures; `factor_hi` bounds the multiplier from above.

    With `reduce` the next step multiplies y_n mod 1 (the beta map), else
    the unreduced y_n (powers).  Both enclosures become (mid, rad) balls by
    :func:`interval_ints` at the working precision of
    :func:`ball_precision`, linear in N; a ball straddling an
    integer cut, or a value radius above 2^-50, restarts at doubled
    precision, at most _MAX_RESTARTS times and only within the caps.  A
    straddle that survives the last attempt (the orbit meeting a cut closer
    than the input's own radius) truncates the values and sets
    `straddled_at` in the returned metadata.  Each step is bare (mid, rad)
    integers through the kernels :func:`mul_ints` and :func:`floor_int`, and
    a value is the fractional midpoint over 2^prec, one int / int division.
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
        step_mid, step_rad = interval_ints(*_enclosure(factor, prec), prec)
        mid, rad = interval_ints(*_enclosure(start, prec), prec)
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
    exact carry when factor and start are Fractions, else the ball loop.

    A value within 2^-54 of 1 can round up to 1.0 on either path; it is
    clamped to the float below 1, a move of at most 2^-53 that each path's
    accuracy covers."""
    if n_points < 1:
        raise InvalidInput("need n_points >= 1")
    factor_hi = _multiplier_enclosure(factor)[1]
    if isinstance(factor, Fraction) and isinstance(start, Fraction):
        values = _exact_orbit(factor, start, n_points, reduce)
        acc, meta = 2.0 ** -64 + _FLOAT_SLACK, {"exact": True,
                                                "start_index": 1}
    else:
        values, meta = _ball_orbit(factor, start, n_points, reduce,
                                   min_prec, factor_hi)
        acc = _VALUE_TARGET
    return np.minimum(values, _BELOW_ONE), acc, meta


def beta_orbit(x, beta: BetaLike, n_points: int,
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
                          metadata={"beta": str(beta), **meta})


def power_orbit(x, n_points: int,
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
    return SequenceSample(values, acc, source=f"power({x})",
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
    return SequenceSample(values, _FLOAT_SLACK, source="uniform",
                          metadata={"generator": GENERATOR_ID})
