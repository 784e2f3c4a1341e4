import math
import random
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import chi2

from normality_lab import (
    WordStream,
    beta_orbit,
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
from normality_lab.balls import Ball
from normality_lab.errors import (
    BasePointOutsideHull,
    InsufficientDigits,
    InvalidInput,
    PrecisionExhausted,
)
from normality_lab.sampling import (
    DigitStream,
    FixedWord,
    PointApproximation,
    _int_to_digits,
    _point_radius_log2,
    _tail_digit_count,
    exact_point,
    sampled_point,
)

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

    def test_depth_doubling_matches_long_division(self, cantor):
        # (12)^22 pins the point within 3^-44 of the cell boundary 1/4:
        # depth 43 straddles, and the doubled depth composes only the new
        # segment onto the first one
        word = (1, 2) * 22 + sample_word(cantor, 200, seed=3)
        ds = digits(cantor, FixedWord(word), 2, 50)
        assert ds.depth == 86
        assert ds.point.word == word[:86]
        exact = digits_of_rational(point_of_word(cantor, word).center, 2, 50)
        assert list(ds.digits) == list(exact.digits)

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
# and take the scalar orbit loop.
READ_OFF_BASES = [2, 3, 10, 16, 17, 36, 100, 1000]


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
                         len(digit_list), exact_point(0))
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
        ball_path = beta_orbit(exact_point(F(1, 3)), enclosure, 40)
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
        assert _point_radius_log2(exact_point(F(1, 3))) == -math.inf

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


class TestBalls:
    def test_exact_roundtrip(self):
        b = Ball.from_fraction(F(3, 8), 20)
        assert b.rad == 0 and b.value() == F(3, 8)

    def test_rounding_is_enclosed(self):
        b = Ball.from_fraction(F(1, 3), 30)
        assert abs(b.value() - F(1, 3)) <= b.radius()

    def test_mul_soundness(self):
        x = Ball.from_fraction(F(1, 3), 40)
        y = Ball.from_fraction(F(7, 5), 40)
        z = x.mul(y)
        assert abs(z.value() - F(7, 15)) <= z.radius()

    def test_floor_split_exact_integer(self):
        b = Ball.from_fraction(F(3), 16)
        k, frac = b.floor_split()
        assert k == 3 and frac.mid == 0 and frac.rad == 0
