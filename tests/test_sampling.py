import hashlib
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from normality_lab import (
    WordStream,
    beta_orbit,
    cantor_system,
    compose,
    digits,
    digits_of_rational,
    make_system,
    orbit_sequence,
    point_of_word,
    power_orbit,
    sample_word,
    uniform_sample,
)
from normality_lab.algebra import AlgebraicReal
from normality_lab.balls import floor_int, interval_ints, mul_ints
from normality_lab.errors import (
    BallStraddlesCut,
    BasePointOutsideHull,
    ConfigParseError,
    InsufficientDigits,
    InvalidInput,
    PrecisionExhausted,
    StreamExhausted,
    SymbolOutOfRange,
)
from normality_lab.sampling import (
    _DIV_CUTOFF,
    MAX_DIGITS,
    DigitStream,
    FixedWord,
    PointApproximation,
    _ball_orbit,
    _int_to_digits,
    _multiplier_enclosure,
    _point_radius_log2,
    _tail_digit_count,
    ball_precision,
    int_divmod,
    sampled_point,
)

from oracles import (hull_image_cell_digits, modpow_power_orbit,
                     pair_beta_orbit, rational_ball_orbit)

F = Fraction


class TestWordSampling:
    def test_empty_word(self, cantor):
        assert sample_word(cantor, 0, seed=1) == ()

    def test_reproducible_and_prefix_stable(self, cantor):
        w1 = sample_word(cantor, 500, seed=42)
        w2 = sample_word(cantor, 500, seed=42)
        assert w1 == w2
        stream = WordStream(cantor, 42)
        assert stream.prefix(100) == w1[:100]
        assert stream.prefix(500) == w1  # extension kept the prefix

    def test_segment_is_the_prefix_and_survives_growth(self, cantor):
        stream = WordStream(cantor, 42)
        seg = stream.segment(100, 400)
        assert seg.dtype == np.intp and not seg.flags.writeable
        # growing the buffer far past its size leaves the segment as it was
        word = stream.prefix(100_000)
        assert type(word) is tuple and type(word[0]) is int
        assert seg.tolist() == list(word[100:400])
        assert stream.segment(99_000, 100_000).tolist() == list(word[99_000:])
        assert type(stream.symbol(5)) is int and stream.symbol(5) == word[5]
        with pytest.raises(ValueError):
            seg[0] = 1

    def test_fixed_word_segment(self):
        word = FixedWord((1, 2, 2, 1))
        assert word.segment(1, 3).tolist() == [2, 2]
        with pytest.raises(StreamExhausted):
            word.segment(2, 5)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(1, 600),
           base=st.sampled_from([2, 3, 10]), count=st.integers(1, 200),
           data=st.data())
    def test_fixed_word_reads_as_its_stream(self, seed, m, base, count,
                                            data):
        cantor = cantor_system()
        stream = WordStream(cantor, seed)
        word = FixedWord(stream.prefix(m))
        i = data.draw(st.integers(0, m - 1))
        start, stop = sorted(data.draw(st.integers(0, m)) for _ in "ab")
        assert word.symbol(i) == stream.symbol(i)
        assert word.prefix(stop) == stream.prefix(stop)
        assert (word.segment(start, stop).tolist()
                == stream.segment(start, stop).tolist())
        ds = digits(cantor, stream, base, count)
        if ds.depth > m:
            # the finite word runs out where the stream reads on
            with pytest.raises(PrecisionExhausted):
                digits(cantor, word, base, count)
        else:
            fixed = digits(cantor, word, base, count)
            assert fixed.digits.tolist() == ds.digits.tolist()
            assert fixed.depth == ds.depth

    def test_fixed_word_refuses_non_integer_symbols(self):
        for word in [(1, 1.5), ("1", 2), (1, 2 ** 70)]:
            with pytest.raises(SymbolOutOfRange):
                FixedWord(word)

    def test_symbol_range(self, mixed):
        word = sample_word(mixed, 1000, seed=3)
        assert set(word) <= {1, 2}

    def test_symbol_frequencies(self, mixed):
        # weights (2/3, 1/3)
        word = np.array(sample_word(mixed, 100_000, seed=11))
        f1 = np.mean(word == 1)
        assert abs(f1 - 2 / 3) < 0.01

    def test_chi_square_bernoulli(self, cantor):
        n = 10 ** 6
        word = np.array(sample_word(cantor, n, seed=2024))
        counts = np.bincount(word, minlength=3)[1:]
        expected = n / 2
        stat = float(((counts - expected) ** 2 / expected).sum())
        assert stat < chi2.ppf(0.999, df=1)


class TestPointOfWord:
    def test_tail_of_twos(self, cantor):
        for m in (1, 5, 20):
            pt = point_of_word(cantor, (2,) * m, x0=F(0))
            assert pt.center == 1 - F(1, 3) ** m
            assert pt.radius == F(1, 3) ** m

    def test_periodic_word_limit(self, cantor):
        fp = compose(cantor, (1, 2)).fixed_point()
        assert fp == F(1, 4)
        pt = point_of_word(cantor, (1, 2) * 15)
        assert pt.lo <= F(1, 4) <= pt.hi

    def test_empty_word(self, cantor):
        pt = point_of_word(cantor, ())
        assert pt.center == F(1, 2) and pt.radius == 1

    def test_base_point_outside_hull(self, cantor):
        with pytest.raises(BasePointOutsideHull):
            point_of_word(cantor, (1,), x0=F(2))

    def test_enclosure_nesting(self, mixed):
        word = sample_word(mixed, 40, seed=9)
        intervals = [point_of_word(mixed, word[:m]).interval()
                     for m in range(len(word) + 1)]
        for (lo1, hi1), (lo2, hi2) in zip(intervals, intervals[1:]):
            assert lo1 <= lo2 and hi2 <= hi1


class TestDigits:
    def test_quarter_base3(self):
        ds = digits_of_rational(F(1, 4), 3, 12)
        assert list(ds.digits) == [0, 2] * 6

    def test_half_base2_terminating(self):
        ds = digits_of_rational(F(1, 2), 2, 6)
        assert list(ds.digits) == [1, 0, 0, 0, 0, 0]

    def test_one_maps_to_zero(self):
        ds = digits_of_rational(F(1), 10, 4)
        assert list(ds.digits) == [0, 0, 0, 0]

    def test_cantor_never_digit_one(self, cantor):
        ds = digits(cantor, WordStream(cantor, 5), 3, 800)
        assert 1 not in set(np.unique(ds.digits))

    def test_matches_rational_expansion(self, cantor):
        # finite word then exact center: digit machinery against long division
        word = sample_word(cantor, 220, seed=13)
        pt = point_of_word(cantor, word)
        ds = digits(cantor, FixedWord(word + (1, 1)), 3, 80)
        exact = digits_of_rational(pt.center, 3, 80)
        # both enclose the same point to 3^-220, so 80 digits agree
        assert list(ds.digits) == list(exact.digits)

    @pytest.mark.parametrize("base", [2, 3, 10])
    def test_guard_stability(self, three_systems, base):
        for name, system in three_systems.items():
            for seed in range(4):
                d1 = digits(system, WordStream(system, seed), base, 300,
                            guard=16)
                d2 = digits(system, WordStream(system, seed), base, 300,
                            guard=26)
                assert list(d1.digits) == list(d2.digits)

    def test_finite_word_exhaustion(self, cantor):
        with pytest.raises(PrecisionExhausted):
            digits(cantor, (1, 2, 1), 2, 50)

    @pytest.mark.parametrize("word,depth", [
        ((1, 2, 1), 3),
        ((1, 2) * 50 + (1,), 101),
    ])
    def test_finite_word_exhaustion_message(self, cantor, word, depth):
        # x_{(12)^inf} = 1/4 is a base-2 cell boundary, so the longer word
        # straddles at depth 43 and 86 and runs out while doubling to 172
        with pytest.raises(PrecisionExhausted) as info:
            digits(cantor, FixedWord(word), 2, 50)
        assert str(info.value) == (
            f"word stream refused extension at depth {depth}")

    @pytest.mark.parametrize("bad", [0, -1, 3])
    @pytest.mark.parametrize("wrap", [tuple, FixedWord])
    def test_symbols_outside_the_alphabet_are_refused(self, cantor, bad,
                                                      wrap):
        # symbol 0 read as the identity map, -1 as map 2, and 3 failed
        # with an IndexError; a bad symbol after the digits' depth is
        # never read
        word = (1, 2, 2, 1, 2) * 40
        with pytest.raises(SymbolOutOfRange):
            digits(cantor, wrap((bad,) + word), 3, 10)
        with pytest.raises(SymbolOutOfRange):
            digits(cantor, wrap(word[:20] + (bad,) + word), 3, 10)
        unread = digits(cantor, wrap(word[:60] + (bad,)), 3, 10)
        assert list(unread.digits) == list(digits(cantor, word, 3, 10).digits)

    def test_depth_doubling_matches_long_division(self, cantor):
        # (12)^22 pins the point within 3^-44 of the cell boundary 1/4:
        # depth 43 straddles, and the doubled depth composes only the new
        # segment onto the first one
        word = (1, 2) * 22 + sample_word(cantor, 200, seed=3)
        ds = digits(cantor, FixedWord(word), 2, 50)
        assert ds.depth == 86
        exact = digits_of_rational(point_of_word(cantor, word).center, 2, 50)
        assert list(ds.digits) == list(exact.digits)

    def test_digit_cap_is_checked_before_the_word(self, cantor):
        # 2^22 - 15 digits and a guard of 16 are one bit over the cap; an
        # empty word would fail only once it is read
        with pytest.raises(ConfigParseError):
            digits(cantor, FixedWord(()), 2, MAX_DIGITS - 15)
        with pytest.raises(ConfigParseError):
            digits(cantor, FixedWord(()), 10, MAX_DIGITS // 3)
        with pytest.raises(PrecisionExhausted):
            digits(cantor, FixedWord(()), 2, MAX_DIGITS - 16)

    def test_negative_rational_wraps(self):
        ds = digits_of_rational(F(-1, 4), 2, 5)
        assert list(ds.digits) == [1, 1, 0, 0, 0]  # -1/4 mod 1 = 3/4

    def test_negative_slope_system(self):
        # orientation-reversing maps: hull [-1/3, 2/3], values wrap mod 1
        system = make_system([("-1/2", "0"), ("-1/2", "1/2")])
        assert system.hull == (F(-1, 3), F(2, 3))
        stream = WordStream(system, 31)
        ds = digits(system, stream, 2, 300)
        orb = orbit_sequence(ds, 150)
        assert (orb.values >= 0).all() and (orb.values < 1).all()
        # certified digits match the long division of a deep exact center
        word = stream.prefix(ds.depth + 40)
        deep = point_of_word(system, word)
        exact = digits_of_rational(deep.center, 2, 100)
        assert list(ds.digits[:100]) == list(exact.digits)


# orientation-reversing maps, hull [-1/3, 2/3]
_FLIP = make_system([("-1/2", "0"), ("-1/2", "1/2")])


class TestDigitCellAgainstReference:
    @given(name=st.sampled_from(["cantor", "mixed", "flip"]),
           base=st.sampled_from([2, 3, 10, 17, 100, 2 ** 62]),
           count=st.integers(1, 300), seed=st.integers(0, 2 ** 32 - 1),
           guard=st.sampled_from([0, 1, 16]))
    @settings(max_examples=60, deadline=None)
    def test_digits_are_the_cell_of_the_hull_image(self, cantor, mixed, name,
                                                   base, count, seed, guard):
        # a small guard makes the first depth straddle often, so the depth
        # doubling is exercised too
        system = {"cantor": cantor, "mixed": mixed, "flip": _FLIP}[name]
        stream = WordStream(system, seed)
        ds = digits(system, stream, base, count, guard=guard)
        ref = hull_image_cell_digits(system, stream.prefix(ds.depth), base,
                                     count)
        assert ref is not None  # the enclosure fits one cell at ds.depth
        assert ds.digits.tolist() == ref


# divisor sizes on both sides of the cutoff, odd lengths among them
_DIVISOR_BITS = [1, 2, 63, 64, _DIV_CUTOFF - 1, _DIV_CUTOFF, _DIV_CUTOFF + 1,
                 2 * _DIV_CUTOFF + 1, 4 * _DIV_CUTOFF + 3, 9 * _DIV_CUTOFF]


class TestIntDivmod:
    @given(b_bits=st.sampled_from(_DIVISOR_BITS),
           b_form=st.sampled_from(["random", "ones", "power"]),
           a_form=st.sampled_from(["random", "multiple", "below", "zero"]),
           extra=st.integers(0, 5 * _DIV_CUTOFF),
           seed=st.integers(0, 2 ** 32 - 1), negative=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_matches_divmod(self, b_bits, b_form, a_form, extra, seed,
                            negative):
        rng = random.Random(seed)
        b = {"random": rng.getrandbits(b_bits) | 1 << (b_bits - 1),
             "ones": (1 << b_bits) - 1, "power": 1 << (b_bits - 1)}[b_form]
        a = {"random": rng.getrandbits(b_bits + extra),
             "multiple": b * rng.getrandbits(extra + 1),
             "below": (b << extra) - 1,  # just below b * 2^extra
             "zero": 0}[a_form]
        if negative:
            a = -a
        assert int_divmod(a, b) == divmod(a, b)

    @pytest.mark.parametrize("b_bits", [3 * _DIV_CUTOFF + 1,
                                        8 * _DIV_CUTOFF + 5])
    def test_quotients_on_both_sides_of_b(self, b_bits):
        # quotients as long as b and twice as long, through the recursion
        rng = random.Random(b_bits)
        b = rng.getrandbits(b_bits) | 1 << (b_bits - 1)
        for a in (rng.getrandbits(2 * b_bits), rng.getrandbits(3 * b_bits),
                  (b << b_bits) - 1, b << b_bits, b * b):
            assert int_divmod(a, b) == divmod(a, b)
            assert int_divmod(-a, b) == divmod(-a, b)


def _reference_digits(m, base, count):
    """Last `count` digits of m by long division, one digit at a time."""
    out = []
    for _ in range(count):
        m, d = divmod(m, base)
        out.append(d)
    return out[::-1]


def _reference_orbit(digit_list, base, n_points):
    """Each orbit value from its own window of tail digits."""
    k = _tail_digit_count(base)
    scale = float(base ** k)
    values = []
    for n in range(n_points):
        m = 0
        for d in digit_list[n:n + k]:
            m = m * base + d
        values.append(min(m / scale, math.nextafter(1.0, 0.0)))
    return values


# 17 and 36 still fit their tail window in 64 bits; 100 and 1000 do not
# and read their windows as Python integers.  Powers of two read their
# digits from the bytes of the integer.
READ_OFF_BASES = [2, 3, 4, 8, 10, 16, 17, 32, 36, 100, 1000]


class TestReadOffAgainstReference:
    @pytest.mark.parametrize("base", READ_OFF_BASES)
    def test_int_to_digits(self, base):
        rng = random.Random(base)
        for count in (1, 5, 17, 61, 62, 200, 2000, 5003):
            top = base ** count
            for m in (0, 1, top - 1, top, rng.randrange(top),
                      rng.randrange(top, 5 * top)):
                got = _int_to_digits(m, base, count)
                assert len(got) == count
                assert got.tolist() == _reference_digits(m, base, count)

    @pytest.mark.parametrize("base", READ_OFF_BASES)
    def test_orbit_sequence(self, base):
        rng = random.Random(1000 + base)
        k = _tail_digit_count(base)
        n_points = 700
        digit_list = [rng.randrange(base) for _ in range(n_points + k)]
        # a run of top digits makes windows round up to 1.0 (the clamp)
        digit_list[300:300 + 3 * k] = [base - 1] * (3 * k)
        ds = DigitStream(base, np.array(digit_list, dtype=np.int64),
                         len(digit_list))
        values = orbit_sequence(ds, n_points).values
        assert values.tolist() == _reference_orbit(digit_list, base,
                                                   n_points)
        assert values.max() == math.nextafter(1.0, 0.0)


class TestOrbitSequence:
    def test_period_two_point(self):
        ds = digits_of_rational(F(1, 4), 3, 100)
        orb = orbit_sequence(ds, 6)
        assert np.allclose(orb.values, [0.25, 0.75] * 3, atol=1e-12)

    def test_needs_tail_digits(self):
        ds = digits_of_rational(F(1, 4), 3, 40)
        with pytest.raises(InsufficientDigits):
            orbit_sequence(ds, 10)

    @pytest.mark.parametrize("base", [2, 3, 10])
    def test_orbit_digit_consistency(self, cantor, base):
        stream = WordStream(cantor, 21)
        ds = digits(cantor, stream, base, 300)
        orb = orbit_sequence(ds, 200)
        v = orb.values
        step = (base * v[:-1]) % 1.0
        diff = np.abs(step - v[1:])
        circ = np.minimum(diff, 1.0 - diff)
        assert circ.max() <= 2.0 ** -49

    def test_values_in_unit_interval(self, mixed):
        ds = digits(mixed, WordStream(mixed, 2), 2, 400)
        orb = orbit_sequence(ds, 300)
        assert (orb.values >= 0).all() and (orb.values < 1).all()
        assert orb.accuracy <= 2.0 ** -50


class TestTailDigitCount:
    @pytest.mark.parametrize("base", [2, 3, 7, 10, 17, 36, 100, 2 ** 60,
                                      2 ** 60 + 1])
    def test_least_power_reaching_two_to_the_sixty(self, base):
        k = _tail_digit_count(base)
        assert base ** k >= 2 ** 60
        assert base ** (k - 1) < 2 ** 60

    @pytest.mark.parametrize("base", [1, 0, -1, -2])
    def test_base_below_two_rejected(self, base):
        with pytest.raises(InvalidInput, match="base must be >= 2"):
            _tail_digit_count(base)


class TestUniformSample:
    def test_empty_spawn_key_is_the_plain_seed(self):
        a = uniform_sample(500, seed=3)
        b = uniform_sample(500, seed=3, spawn_key=())
        assert np.array_equal(a.values, b.values)
        assert a.accuracy == b.accuracy == 2.0 ** -52

    def test_spawn_key_selects_the_philox_substream(self):
        ss = np.random.SeedSequence(3, spawn_key=(2,))
        ref = np.random.Generator(np.random.Philox(ss)).random(500)
        sam = uniform_sample(500, seed=3, spawn_key=(2,))
        assert np.array_equal(sam.values, ref)
        assert not np.array_equal(sam.values, uniform_sample(500, 3).values)


class TestBetaOrbit:
    def test_golden_first_value(self):
        golden = AlgebraicReal((1, -1, -1), F(1), F(2))
        sam = beta_orbit(F(1), golden, 1)
        assert abs(sam.values[0] - 0.6180339887498949) < 1e-12

    def test_golden_hits_cut_flagged(self):
        # T^2(1) = beta*(beta-1) = 1 exactly: orbit meets the discontinuity
        golden = AlgebraicReal((1, -1, -1), F(1), F(2))
        sam = beta_orbit(F(1), golden, 5)
        assert sam.metadata.get("straddled_at") == 2
        assert len(sam) == 1

    def test_zero_orbit(self):
        golden = AlgebraicReal((1, -1, -1), F(1), F(2))
        assert list(beta_orbit(F(0), golden, 4).values) == [0.0] * 4

    def test_rational_beta_exact(self):
        sam = beta_orbit(F(1, 2), F(5, 2), 4)
        assert np.allclose(sam.values, [0.25, 0.625, 0.5625, 0.40625],
                           atol=1e-15)

    def test_rational_vs_ball_paths_agree(self):
        enclosure = AlgebraicReal((2, -5), F(2), F(3))  # 2x - 5: root 5/2
        ball_path = beta_orbit(F(1, 3), enclosure, 40)
        exact_path = beta_orbit(F(1, 3), F(5, 2), 40)
        assert np.allclose(ball_path.values, exact_path.values, atol=1e-14)

    def test_sampled_point_stays_in_attractor(self, beta_52):
        pt = sampled_point(beta_52, WordStream(beta_52, 17), F(1, 2) ** 200)
        sam = beta_orbit(pt, F(5, 2), 100)
        assert len(sam) == 100
        assert sam.values.min() >= 0.0
        assert sam.values.max() <= 2 / 3 + 1e-12

    def test_radius_below_float_range(self):
        # 2^-1100 converts to 0.0 as a float; the log comes from the integers
        for bits in (30, 1100, 5000):
            pt = PointApproximation(F(1, 3), F(1, 2) ** bits, F(0), F(1),
                                    (), F(0))
            assert _point_radius_log2(pt) == pytest.approx(-bits, abs=1e-9)
        pt = PointApproximation(F(1, 3), 3 * F(1, 2) ** 1100, F(0), F(1),
                                (), F(0))
        assert _point_radius_log2(pt) == pytest.approx(
            math.log2(3) - 1100, abs=1e-9)
        assert _point_radius_log2(F(1, 3)) == -math.inf

    def test_sampled_point_below_float_range(self, cantor):
        target = F(1, 2) ** 1200
        pt = sampled_point(cantor, WordStream(cantor, 5), target)
        assert 0 < pt.radius <= target

    def test_coarse_point_rejected(self, beta_52):
        pt = point_of_word(beta_52, sample_word(beta_52, 5, seed=1))
        with pytest.raises(PrecisionExhausted):
            beta_orbit(pt, F(5, 2), 200)

    def test_beta_must_exceed_one(self):
        with pytest.raises(InvalidInput):
            beta_orbit(F(1, 2), F(1, 2), 3)

    def test_algebraic_beta_just_above_one(self):
        # the root 1 + 2^-20 lies inside a 2^-16 enclosure of 1
        beta = AlgebraicReal((2 ** 20, -(2 ** 20 + 1)), F(1), F(2))
        ball_path = beta_orbit(F(1, 3), beta, 5)
        exact_path = beta_orbit(F(1, 3), F(2 ** 20 + 1, 2 ** 20), 5)
        assert len(ball_path) == 5
        assert np.max(np.abs(ball_path.values - exact_path.values)) <= 2.0 ** -49

    @pytest.mark.parametrize("x, beta", [
        (F(2 ** 64 - 1, 2 ** 64), F(2)),                      # dyadic carry
        (F(6148914691236517205, 6148914691236517206), F(3)),  # (k, m, D)
        ((F(2 ** 65 - 1, 2 ** 66),) * 2, F(2)),               # ball loop
    ])
    def test_values_within_2_54_of_one_stay_below_one(self, x, beta):
        assert beta_orbit(x, beta, 2).values.tolist() == [
            math.nextafter(1.0, 0.0)] * 2

    @pytest.mark.parametrize("beta", [
        AlgebraicReal((1, -1), F(1, 2), F(3)),   # 1 inside the enclosure
        AlgebraicReal((1, -1), F(0), F(2)),      # 1 on the first midpoint
        AlgebraicReal((1, -1), F(1), F(2)),      # 1 at the low endpoint
        AlgebraicReal((1, 0, -2), F(-2), F(0)),  # -sqrt(2)
        AlgebraicReal((4, -3), F(1, 2), F(2)),   # 3/4, enclosure around 1
    ])
    def test_algebraic_beta_at_or_below_one_rejected(self, beta):
        with pytest.raises(InvalidInput, match="certified > 1"):
            beta_orbit(F(1, 3), beta, 5)


_EXACT_BETAS = st.one_of(
    st.integers(2, 60).map(F),
    st.builds(lambda den, extra: F(den + extra, den),
              st.sampled_from([2, 3, 7, 10, 1024, 2 ** 20]),
              st.integers(1, 3000)),
    st.just(F(1025, 1024)))
_EXACT_STARTS = st.one_of(
    st.just(F(0)),
    st.integers(-5, 5).map(F),
    st.fractions(min_value=-3, max_value=3, max_denominator=10 ** 9))


# power-of-two denominators, which take the dyadic carry: p / 2^e > 1 with
# e = 0..5, and starts 0 or a / 2^b, a odd, b on both sides of 64
_DYADIC_FACTORS = st.builds(lambda e, p: F(p, 2 ** e), st.integers(0, 5),
                            st.integers(2, 2 ** 40)).filter(lambda f: f > 1)
_DYADIC_STARTS = st.one_of(
    st.just(F(0)),
    st.builds(lambda a, b: F(2 * a + 1, 2 ** b), st.integers(-2 ** 70, 2 ** 70),
              st.sampled_from([0, 1, 63, 64, 65, 200])))


class TestBetaOrbitAgainstPairOracle:
    """The exact beta orbit gives the floats of uncancelled (u, v) pairs."""

    @staticmethod
    def _check(x, beta, n):
        sam = beta_orbit(x, beta, n)
        assert ([v.hex() for v in sam.values]
                == [v.hex() for v in pair_beta_orbit(x, beta, n)])
        assert sam.accuracy == 2.0 ** -64 + 2.0 ** -52
        assert sam.source == f"beta-orbit({beta})"
        assert sam.metadata == {"beta": str(beta), "exact": True,
                                "start_index": 1}

    @given(beta=_EXACT_BETAS, x=_EXACT_STARTS, n=st.integers(1, 400))
    @settings(max_examples=80, deadline=None)
    def test_matches_oracle(self, beta, x, n):
        self._check(x, beta, n)

    @given(beta=_DYADIC_FACTORS, x=_DYADIC_STARTS, n=st.integers(1, 400))
    @settings(max_examples=80, deadline=None)
    def test_matches_oracle_dyadic(self, beta, x, n):
        self._check(x, beta, n)

    @pytest.mark.parametrize("x, beta", [
        (F(7, 5), F(3)), (F(-2, 5), F(7, 3)), (F(1, 7), F(1025, 1024)),
        (F(0), F(5, 2)), (F(9, 2), F(5, 2)), (F(-7), F(2)),
        # dyadic: one integer z carries the fractional numerator
        (F(3, 1024), F(5, 2)), (F(-7, 2 ** 65), F(2 ** 40 - 1, 32)),
        (F(1, 2 ** 200), F(7)), (F(-3, 2), F(3, 2)), (F(5, 2 ** 63), F(3))])
    def test_matches_oracle_on_cases(self, x, beta):
        got = [v.hex() for v in beta_orbit(x, beta, 500).values]
        assert got == [v.hex() for v in pair_beta_orbit(x, beta, 500)]


_GOLDEN = AlgebraicReal((1, -1, -1), F(1), F(2))
_BALL_FACTORS = st.one_of(
    st.sampled_from([
        _GOLDEN,
        AlgebraicReal((1, 0, -2), F(4, 3), F(3, 2)),    # sqrt(2)
        AlgebraicReal((1, 0, -1, -1), F(1), F(2)),      # the plastic number
        AlgebraicReal((2, -5), F(2), F(3)),             # 5/2
    ]),
    st.builds(lambda den, extra: F(den + extra, den),
              st.integers(1, 12), st.integers(1, 30)))
# a rational, a (lo, hi) pair of radius 2^-bits, or a point sampled from a
# system to radius 2^-bits
_BALL_STARTS = st.one_of(
    st.fractions(min_value=-3, max_value=3, max_denominator=10 ** 6),
    st.tuples(st.just("pair"),
              st.fractions(min_value=0, max_value=2, max_denominator=10 ** 4),
              st.integers(40, 3000)),
    st.tuples(st.sampled_from(["cantor", "beta_52"]), st.integers(0, 50),
              st.integers(40, 2000)))


def _ball_orbit_or_error(orbit, factor, start, n, reduce, min_prec):
    try:
        values, meta = orbit(factor, start, n, reduce, min_prec,
                             _multiplier_enclosure(factor)[1])
    except PrecisionExhausted:
        return "exhausted"
    return [v.hex() for v in values], meta


class TestBallOrbitAgainstObjectOracle:
    """The bare-integer ball loop gives the floats and metadata of the loop
    with every ball a pair of Fractions and every rounding decided on them."""

    @staticmethod
    def _check(factor, start, n, reduce, min_prec=None):
        got = _ball_orbit_or_error(_ball_orbit, factor, start, n, reduce,
                                   min_prec)
        want = _ball_orbit_or_error(rational_ball_orbit, factor, start, n,
                                    reduce, min_prec)
        assert got == want
        return got

    @given(factor=_BALL_FACTORS, start=_BALL_STARTS, n=st.integers(1, 300),
           reduce=st.booleans(),
           min_prec=st.one_of(st.none(), st.integers(0, 4000)))
    @settings(max_examples=60, deadline=None)
    def test_matches_oracle(self, factor, start, n, reduce, min_prec,
                            cantor, beta_52):
        if isinstance(start, tuple) and start[0] == "pair":
            _, x, bits = start
            start = (x - F(1, 2 ** bits), x + F(1, 2 ** bits))
        elif isinstance(start, tuple):
            name, seed, bits = start
            system = {"cantor": cantor, "beta_52": beta_52}[name]
            start = sampled_point(system, WordStream(system, seed),
                                  F(1, 2 ** bits))
        self._check(factor, start, n, reduce, min_prec)

    def test_golden_straddle(self):
        _, meta = self._check(_GOLDEN, F(1), 5, True)
        assert meta["straddled_at"] == 2 and meta["restarts"] == 4

    def test_pair_start_straddles_first_step(self):
        half = (F(1, 2) - F(1, 2 ** 100), F(1, 2) + F(1, 2 ** 100))
        _, meta = self._check(F(2), half, 10, True)
        assert meta["straddled_at"] == 1

    @pytest.mark.parametrize("factor, start, n, reduce", [
        (_GOLDEN, F(1234, 56789), 1800, True),
        (_GOLDEN, F(5, 11), 150, True),
        (AlgebraicReal((2, -3), F(1), F(2)), F(1), 300, False),
        ((F(7, 5) - F(1, 2 ** 700), F(7, 5) + F(1, 2 ** 700)), F(1), 250,
         False),
        (F(5, 2), (F(1, 3) - F(1, 2 ** 500), F(1, 3) + F(1, 2 ** 500)), 300,
         True),
    ])
    def test_matches_oracle_on_cases(self, factor, start, n, reduce):
        self._check(factor, start, n, reduce)

    def test_sampled_point_start(self, beta_52):
        pt = sampled_point(beta_52, WordStream(beta_52, 17), F(1, 2) ** 600)
        self._check(F(5, 2), pt, 300, True)


class TestPowerOrbit:
    def test_three_halves(self):
        sam = power_orbit(F(3, 2), 3)
        assert np.allclose(sam.values, [0.5, 0.25, 0.375], atol=1e-15)

    def test_integer_x_all_zero(self):
        assert list(power_orbit(2, 5).values) == [0.0] * 5

    def test_enclosure_path_matches_exact(self):
        enclosure = AlgebraicReal((2, -3), F(1), F(2))  # root 3/2
        a = power_orbit(enclosure, 50)
        b = power_orbit(F(3, 2), 50)
        assert np.allclose(a.values, b.values, atol=1e-14)

    def test_three_halves_equidistributes(self):
        from normality_lab import discrepancy
        sam = power_orbit(F(3, 2), 1000)
        assert discrepancy(sam) < 0.1

    def test_x_must_exceed_one(self):
        with pytest.raises(InvalidInput):
            power_orbit(F(1, 2), 3)

    # No CLI command reaches the enclosure path (the CLI passes exact
    # rationals), so its values and metadata are pinned here; recorded
    # before beta and power orbits shared one ball-iteration loop.
    _TUPLE = (F(7, 5) - F(1, 2 ** 700), F(7, 5) + F(1, 2 ** 700))

    @pytest.mark.parametrize("x, n, digest, prec", [
        (AlgebraicReal((2, -3), F(1), F(2)), 300,
         "10ef6305772276d5de8519e7fb0c1677aaccae05a111ee0adce213a707aae075",
         249),
        (_TUPLE, 250,
         "cd3c447b4784784002222ddfdccc044f2be78392b4140ed67effad39e64972f3",
         194),
    ])
    def test_enclosure_path_pinned(self, x, n, digest, prec):
        sam = power_orbit(x, n)
        assert hashlib.sha256(sam.values.tobytes()).hexdigest() == digest
        assert sam.metadata == {"x": str(x), "precision_bits": prec,
                                "restarts": 0, "start_index": 1}
        assert sam.accuracy == 2.0 ** -50
        assert sam.source == f"power({x})"

    def test_coarse_enclosure_exhausts_precision(self):
        x = (F(7, 5) - F(1, 2 ** 100), F(7, 5) + F(1, 2 ** 100))
        with pytest.raises(PrecisionExhausted):
            power_orbit(x, 250)


class TestPowerOrbitAgainstModularPowering:
    """The carried (k, m) step gives the floats of pow(num, n, den^n)."""

    @staticmethod
    def _check(x, n):
        got = [v.hex() for v in power_orbit(x, n).values]
        assert got == [v.hex() for v in modpow_power_orbit(x, n)]

    @given(den=st.sampled_from([1, 2, 3, 7, 10, 2 ** 20]),
           extra=st.integers(1, 3000), n=st.integers(1, 700))
    @settings(max_examples=40, deadline=None)
    def test_matches_oracle(self, den, extra, n):
        num = den + extra
        assume(math.gcd(num, den) == 1)
        self._check(F(num, den), n)

    @given(x=_DYADIC_FACTORS, n=st.integers(1, 300))
    @settings(max_examples=60, deadline=None)
    def test_matches_oracle_dyadic(self, x, n):
        self._check(x, n)

    @pytest.mark.parametrize("x", [F(101, 100), F(1023, 2), F(2 ** 20 + 1,
                                                              2 ** 20),
                                   F(7, 3), F(5), F(3, 2), F(1025, 1024),
                                   F(2 ** 40 - 1, 32), F(2 ** 40 + 1)])
    def test_matches_oracle_on_cases(self, x):
        self._check(x, 700)


class TestBallCaps:
    def test_caps_are_inclusive(self):
        # 1024 x 2^16 = 2^26 values x bits
        assert ball_precision(1024, F(3, 2), 2 ** 16) == 2 ** 16
        for n, min_prec in ((1025, 2 ** 16), (1, 2 ** 16 + 1)):
            with pytest.raises(ConfigParseError, match="over the caps"):
                ball_precision(n, F(3, 2), min_prec)

    def test_restarts_stop_at_the_caps(self):
        # T^2(1) = 1 straddles at every precision; from 2^15 bits one
        # doubling reaches MAX_PRECISION_BITS, and that attempt is the last
        values, meta = _ball_orbit(_GOLDEN, F(1), 5, True, 2 ** 15,
                                   _multiplier_enclosure(_GOLDEN)[1])
        assert meta == {"precision_bits": 2 ** 16, "restarts": 1,
                        "start_index": 1, "straddled_at": 2}
        assert len(values) == 1

    def test_exact_orbits_are_not_capped(self):
        # 12000 values of 3/2 would need 7,000-bit balls, over the work cap
        sam = power_orbit(F(3, 2), 12000, min_prec=2 ** 16)
        assert len(sam) == 12000 and sam.metadata["exact"]


class TestBalls:
    """The integer kernels against exact Fraction definitions, and the
    loop's read-off mid / 2^prec."""

    @given(mid=st.integers(-(2 ** 2200), 2 ** 2200), prec=st.integers(0, 2000))
    @settings(max_examples=300, deadline=None)
    def test_to_float_matches_fraction(self, mid, prec):
        mid >>= max(0, mid.bit_length() - prec - 1000)  # keep it below 2^1000
        got = mid / (1 << prec)
        assert got.hex() == float(F(mid, 1 << prec)).hex()

    @pytest.mark.parametrize("mid, prec", [
        (-1, 1100), (1, 1074), (1, 1075), (3, 1076), (-(2 ** 60 + 1), 1130),
        ((1 << 1200) - 1, 1200), (-((1 << 53) + 1), 53), (0, 1500)])
    def test_to_float_edges(self, mid, prec):
        assert (mid / (1 << prec)).hex() == float(F(mid, 1 << prec)).hex()

    @given(a=st.integers(-(2 ** 3000), 2 ** 3000),
           b=st.integers(-(2 ** 3000), 2 ** 3000),
           ra=st.integers(0, 2 ** 40), rb=st.integers(0, 2 ** 40),
           prec=st.integers(1, 3000))
    @settings(max_examples=200, deadline=None)
    def test_mul_rounds_mid_to_nearest(self, a, b, ra, rb, prec):
        mid, rad = mul_ints(a, ra, b, rb, prec)
        exact = F(a * b, 1 << prec)
        assert mid == math.floor(exact + F(1, 2))
        assert rad == math.ceil(F(abs(a) * rb + abs(b) * ra + ra * rb,
                                  1 << prec)) + (exact.denominator != 1)

    @given(lo=st.fractions(min_value=-10 ** 6, max_value=10 ** 6,
                           max_denominator=10 ** 40),
           width=st.one_of(st.just(F(0)),
                           st.fractions(min_value=0, max_value=10,
                                        max_denominator=10 ** 40)),
           prec=st.integers(0, 300))
    @settings(max_examples=300, deadline=None)
    def test_interval_matches_definition(self, lo, width, prec):
        hi = lo + width
        mid, rad = interval_ints(lo, hi, prec)
        center = (lo + hi) / 2 * 2 ** prec
        assert mid == math.floor(center + F(1, 2))
        assert rad == math.ceil((hi - lo) / 2 * 2 ** prec) + (
            center.denominator != 1)
        assert F(mid - rad, 2 ** prec) <= lo and hi <= F(mid + rad, 2 ** prec)

    def test_exact_roundtrip(self):
        assert interval_ints(F(3, 8), F(3, 8), 20) == (3 << 17, 0)
        assert interval_ints(F(-5, 4), F(3, 4), 2) == (-1, 4)

    def test_rounding_is_enclosed(self):
        mid, rad = interval_ints(F(1, 3), F(1, 3), 30)
        assert rad == 1 and abs(F(mid, 2 ** 30) - F(1, 3)) <= F(rad, 2 ** 30)

    def test_interval_out_of_order_raises(self):
        with pytest.raises(InvalidInput, match="out of order"):
            interval_ints(F(1, 3), F(1, 4), 10)

    def test_mul_soundness(self):
        x = interval_ints(F(1, 3), F(1, 3), 40)
        y = interval_ints(F(7, 5), F(7, 5), 40)
        mid, rad = mul_ints(*x, *y, 40)
        assert abs(F(mid, 2 ** 40) - F(7, 15)) <= F(rad, 2 ** 40)

    def test_floor_split_exact_integer(self):
        mid, rad = interval_ints(F(3), F(3), 16)
        k = floor_int(mid, rad, 16)
        assert k == 3 and mid - (k << 16) == 0 and rad == 0

    def test_floor_straddle_raises(self):
        # [3 - 2^-16, 3 + 2^-16] holds the cut 3
        with pytest.raises(BallStraddlesCut):
            floor_int(3 << 16, 1, 16)
        assert floor_int((3 << 16) + 1, 1, 16) == 3
