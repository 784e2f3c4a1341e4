import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from normality_lab import (
    digit_frequencies,
    digits,
    digits_of_rational,
    discrepancy,
    k_level_correlation,
    level_spacings,
    uniform_sample,
    weyl_report,
    WordStream,
)
from normality_lab.errors import (
    BlockLongerThanStream,
    InvalidInput,
    KOutOfRange,
    SupportTooWide,
)
from normality_lab.sampling import DigitStream
from normality_lab.stats import TestFunction as TFn

from oracles import (
    naive_k_level_correlation,
    naive_star_discrepancy,
    windowed_k_level_correlation,
)

F = Fraction


class TestDiscrepancy:
    def test_pair(self):
        assert discrepancy([0.25, 0.75]) == 0.25

    def test_single_zero(self):
        assert discrepancy([0.0]) == 1.0

    def test_midpoint_lattice(self):
        n = 100
        xs = [(2 * i + 1) / (2 * n) for i in range(n)]
        assert abs(discrepancy(xs) - 1 / 200) < 1e-15

    def test_range_and_grid_lower_bound(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            xs = rng.random(rng.integers(1, 200))
            d = discrepancy(xs)
            assert 1 / (2 * len(xs)) - 1e-15 <= d <= 1.0
            assert d >= naive_star_discrepancy(xs) - 1e-12

    def test_mod_one_wrapping(self):
        xs = np.array([0.25, 0.75])
        assert discrepancy(xs + 3.0) == discrepancy(xs)


class TestDigitFrequencies:
    def test_cantor_digit_one_absent(self, cantor):
        ds = digits(cantor, WordStream(cantor, 3), 3, 1000)
        table = digit_frequencies(ds, 1)
        assert table.frequency(1) == 0.0
        assert table.frequency(0) + table.frequency(2) == 1.0

    def test_alternating_stream(self):
        ds = digits_of_rational(F(1, 3), 2, 100)  # 0.010101... in base 2
        table = digit_frequencies(ds, 1)
        assert table.frequency(0) == 0.5 and table.frequency(1) == 0.5

    def test_cantor_base2_balanced(self, cantor):
        ds = digits(cantor, WordStream(cantor, 8), 2, 10_000)
        table = digit_frequencies(ds, 1)
        assert abs(table.frequency(0) - 0.5) < 0.02

    def test_block_counts(self):
        ds = digits_of_rational(F(1, 3), 2, 9)  # digits 010101010
        table = digit_frequencies(ds, 2)
        assert table.counts[(0, 1)] == 4
        assert table.counts[(1, 0)] == 4
        assert table.total == 8

    def test_block_too_long(self):
        ds = digits_of_rational(F(1, 3), 2, 5)
        with pytest.raises(BlockLongerThanStream):
            digit_frequencies(ds, 6)

    @pytest.mark.parametrize("base", [2, 10, 2 ** 40, 2 ** 62])
    def test_counts_match_window_tuples(self, base):
        rng = random.Random(base)
        # large bases draw from their extremes, so blocks repeat and the
        # largest codes are reached
        pool = list(range(base)) if base <= 10 else [0, 1, base - 2, base - 1]
        digit_list = [rng.choice(pool) for _ in range(3000)]
        ds = DigitStream(base, np.array(digit_list, dtype=np.int64),
                         len(digit_list))
        for k in (1, 2, 3):
            if base ** k > 2 ** 63:
                continue
            table = digit_frequencies(ds, k)
            ref = Counter(tuple(digit_list[i:i + k])
                          for i in range(len(digit_list) - k + 1))
            assert table.counts == ref
            assert table.total == len(digit_list) - k + 1

    def test_block_codes_past_int64_rejected(self):
        ds = DigitStream(10 ** 10, np.array([1, 2, 3], dtype=np.int64), 3)
        assert digit_frequencies(ds, 1).counts == {(1,): 1, (2,): 1, (3,): 1}
        with pytest.raises(InvalidInput):
            digit_frequencies(ds, 2)


def _same_as_windowed_loop(xs, k, f):
    """The library value equals the per-point loop's, bit for bit."""
    got = k_level_correlation(xs, k, f).value
    want = windowed_k_level_correlation(
        xs, k, f.kind, None if f.breakpoints else f.halfwidth, f.breakpoints)
    assert float(got).hex() == float(want).hex()
    return got


@st.composite
def _correlation_cases(draw):
    """(values, k, test function) with the half-width below N/2."""
    k = draw(st.sampled_from([2, 3, 4]))
    n = draw(st.integers(1, 120 if k < 4 else 60))
    pool = draw(st.sampled_from(["floats", "ties", "equal"]))
    if pool == "floats":
        xs = draw(st.lists(st.floats(0.0, 1.0, exclude_max=True),
                           min_size=n, max_size=n))
    elif pool == "ties":
        # eighths: exact differences, points exactly half a circle apart
        xs = [i / 8 for i in draw(st.lists(st.integers(0, 7),
                                           min_size=n, max_size=n))]
    else:
        xs = [draw(st.floats(0.0, 1.0, exclude_max=True))] * n
    if draw(st.booleans()):
        # radius past 1/2: a window can hold one index twice
        w = F(n, 2) - F(1, draw(st.integers(3, 10 ** 12)))
    else:
        w = F(draw(st.integers(1, 4 * n - 1)), 8)
    kind = draw(st.sampled_from(["box", "triangle", "piecewise-linear"]))
    if kind == "box":
        return xs, k, TFn.box(w)
    if kind == "triangle":
        return xs, k, TFn.triangle(w)
    offsets = sorted(draw(st.sets(st.integers(-12, 12), min_size=2,
                                  max_size=5)))
    heights = draw(st.lists(st.integers(-4, 8), min_size=len(offsets),
                            max_size=len(offsets)))
    return xs, k, TFn.piecewise_linear(
        [(w * x / 12, F(v, 4)) for x, v in zip(offsets, heights)])


class TestKLevelCorrelation:
    def test_small_example_exact(self):
        r = k_level_correlation([0.0, 0.1, 0.5], 2, TFn.box(F(1, 2)))
        assert r.value == pytest.approx(2 / 3, abs=1e-15)
        assert r.integral == 1

    def test_lattice_vanishes(self):
        xs = [i / 50 for i in range(50)]
        r = k_level_correlation(xs, 2, TFn.box(F(2, 5)))
        assert r.value == 0.0

    def test_poisson_baseline(self):
        sam = uniform_sample(10_000, seed=12)
        r = k_level_correlation(sam, 2, TFn.box(F(1, 2)))
        assert abs(r.value - 1.0) < 0.1

    def test_triangle_integral(self):
        f = TFn.triangle(F(3, 4))
        assert f.integral(2) == F(9, 16)

    def test_piecewise_linear(self):
        f = TFn.piecewise_linear([("-1", "0"), ("0", "1"), ("1", "0")])
        assert f.profile_integral() == 1
        assert f.profile(np.array([0.0]))[0] == 1.0
        assert f.profile(np.array([2.0]))[0] == 0.0

    def test_guards(self):
        xs = [0.1, 0.2, 0.3]
        with pytest.raises(KOutOfRange):
            k_level_correlation(xs, 5, TFn.box(F(1, 2)))
        with pytest.raises(SupportTooWide):
            k_level_correlation(xs, 2, TFn.box(F(3, 2)))

    @pytest.mark.parametrize("k", [2, 3])
    def test_windowed_equals_bruteforce_box(self, k):
        rng = np.random.default_rng(100 + k)
        for _ in range(25):
            n = int(rng.integers(max(5, k + 1), 31))
            xs = rng.random(n)
            w = F(int(rng.integers(1, 1 + n // 2)), 2)
            got = k_level_correlation(xs, k, TFn.box(w))
            want = naive_k_level_correlation(xs, k, "box", w)
            assert got.value == want  # integer counts: exact float equality

    @pytest.mark.parametrize("k", [2, 3])
    def test_windowed_equals_bruteforce_triangle(self, k):
        rng = np.random.default_rng(200 + k)
        for _ in range(10):
            n = int(rng.integers(max(5, k + 1), 25))
            xs = rng.random(n)
            w = F(int(rng.integers(1, 1 + n // 2)), 2)
            got = k_level_correlation(xs, k, TFn.triangle(w))
            want = naive_k_level_correlation(xs, k, "triangle", w)
            assert got.value == pytest.approx(want, abs=1e-9)

    def test_k4_against_bruteforce(self):
        rng = np.random.default_rng(400)
        for _ in range(6):
            n = int(rng.integers(6, 14))
            xs = rng.random(n)
            w = F(int(rng.integers(1, 1 + n // 2)), 2)
            got = k_level_correlation(xs, 4, TFn.box(w))
            want = naive_k_level_correlation(xs, 4, "box", w)
            assert got.value == pytest.approx(want, abs=1e-12)

    def test_k4_triangle_against_bruteforce(self):
        rng = np.random.default_rng(401)
        for _ in range(5):
            n = int(rng.integers(6, 13))
            xs = rng.random(n)
            w = F(int(rng.integers(1, 1 + n // 2)), 2)
            got = k_level_correlation(xs, 4, TFn.triangle(w))
            want = naive_k_level_correlation(xs, 4, "triangle", w)
            assert got.value == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_piecewise_linear_against_bruteforce(self, k):
        rng = np.random.default_rng(500 + k)
        for _ in range(5):
            n = int(rng.integers(k + 2, 25 if k < 4 else 12))
            xs = rng.random(n)
            # asymmetric, negative in places, nonzero at its left end
            w = F(int(rng.integers(1, n)), 2)
            bps = [(-w, F(1, 2)), (-w / 3, F(-1)), (w / 5, F(2)), (w / 2, F(0))]
            got = k_level_correlation(xs, k, TFn.piecewise_linear(bps))
            want = naive_k_level_correlation(xs, k, "piecewise-linear",
                                             breakpoints=bps)
            assert got.value == pytest.approx(want, abs=1e-9)

    def test_nonnegative(self):
        rng = np.random.default_rng(9)
        xs = rng.random(60)
        for k in (2, 3, 4):
            r = k_level_correlation(xs, k, TFn.triangle(F(2)))
            assert r.value >= 0.0

    @given(case=_correlation_cases())
    @example(case=([0.0, 0.5, 0.25, 0.5], 4, TFn.box(F(2) - F(1, 10 ** 12))))
    @settings(max_examples=150, deadline=None)
    def test_bitwise_equal_to_windowed_loop(self, case):
        _same_as_windowed_loop(*case)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_single_point(self, k):
        assert _same_as_windowed_loop([0.3], k, TFn.box(F(1, 4))) == 0.0
        with pytest.raises(SupportTooWide):
            k_level_correlation([0.3], k, TFn.box(F(1, 2)))

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_two_points(self, k):
        value = _same_as_windowed_loop([0.1, 0.3], k, TFn.triangle(F(3, 4)))
        # one ordered pair each way, each at scaled gap 0.4 of width 0.75
        assert value == pytest.approx(1 - 0.4 / 0.75 if k == 2 else 0.0)
        with pytest.raises(SupportTooWide):
            k_level_correlation([0.1, 0.3], k, TFn.triangle(F(1)))

    def test_empty_sample_rejected(self):
        with pytest.raises(SupportTooWide):
            k_level_correlation([], 2, TFn.box(F(1, 4)))

    @pytest.mark.parametrize("k, count", [(2, 6), (3, 30), (4, 120)])
    def test_all_points_equal(self, k, count):
        # every ordered k-tuple of 7 equal points has g = 1 per coordinate
        value = _same_as_windowed_loop([0.3] * 7, k, TFn.box(F(1, 2)))
        assert value == count

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_no_pair_survives_zero_profile(self, k):
        # neighbours sit exactly on the triangle's zero, so for k = 4 every
        # g_mid is 0 and no pair is visited
        xs = [i / 8 for i in range(8)]
        assert _same_as_windowed_loop(xs, k, TFn.triangle(F(1))) == 0.0

    @pytest.mark.parametrize("k, n, halfwidth", [
        (2, 4000, F(1999)), (4, 100, F(99, 2))])
    def test_wide_window_memory_bounded(self, k, n, halfwidth):
        # unchunked, the flat pair arrays here would take well over 100 MB
        xs = np.random.default_rng(k).random(n)
        tracemalloc.start()
        try:
            got = k_level_correlation(xs, k, TFn.box(halfwidth)).value
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20
        want = windowed_k_level_correlation(xs, k, "box", halfwidth)
        assert float(got).hex() == float(want).hex()

    @pytest.mark.parametrize("halfwidth", [F(1, 4), F(1, 2), F(1)])
    def test_r2_converges_to_box_mass(self, halfwidth):
        # Poisson limit: mean R_2 over seeds approaches 2 * halfwidth
        values = [k_level_correlation(uniform_sample(10_000, seed=s), 2,
                                      TFn.box(halfwidth)).value
                  for s in range(20)]
        mean = float(np.mean(values))
        target = 2 * float(halfwidth)
        assert abs(mean - target) <= 0.05 * target


class TestLevelSpacings:
    def test_hand_example(self):
        rep = level_spacings([0.1, 0.4, 0.7], s_grid=[1.0])
        assert sorted(np.round(rep.scaled_gaps, 12)) == [0.9, 0.9, 1.2]
        assert rep.g_empirical[0] == pytest.approx(2 / 3)

    def test_equidistant(self):
        # dyadic lattice keeps every gap exactly representable
        xs = [i / 32 for i in range(32)]
        rep = level_spacings(xs, s_grid=[0.5, 0.999, 1.0, 2.0])
        assert list(rep.scaled_gaps) == [1.0] * 32
        assert list(rep.g_empirical) == [0.0, 0.0, 1.0, 1.0]

    def test_poisson_baseline(self):
        rep = level_spacings(uniform_sample(10_000, seed=3))
        assert rep.sup_distance <= 0.03

    def test_cdf_valid_and_gaps_sum(self):
        rng = np.random.default_rng(4)
        xs = rng.random(500)
        rep = level_spacings(xs)
        g = rep.g_empirical
        assert (np.diff(g) >= -1e-15).all()
        assert g.min() >= 0.0 and g.max() <= 1.0
        assert rep.scaled_gaps.sum() == pytest.approx(len(xs), abs=1e-6)


class TestWeylReport:
    def test_lattice_resonance(self):
        xs = [i / 64 for i in range(64)]
        rep = weyl_report(xs, 64)
        assert rep.modulus(64) == pytest.approx(1.0, abs=1e-12)
        assert rep.moduli[:-1].max() <= 1e-12
        assert rep.flagged == (64,)

    def test_uniform_small(self):
        rep = weyl_report(uniform_sample(10_000, seed=44), 20)
        assert rep.moduli.max() <= 0.05
        assert rep.flagged == ()
