import random
import time
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from normality_lab import (
    classify_obstruction,
    incommensurable_slope_witness,
    is_pisot,
    log_commensurable,
    make_system,
)
from normality_lab.algebra import (
    AlgebraicReal,
    ObstructionVerdict,
    count_real_roots,
    count_roots_in_disk,
    isolate_real_roots,
    refine_real_root,
)
from normality_lab.errors import InvalidInput
from oracles import (
    distinct_real_roots,
    factored_log_ratio,
    fraction_bisection,
    root_moduli,
)

F = Fraction


class TestLogCommensurable:
    @pytest.mark.parametrize("s,b,ratio", [
        (F(1, 3), 3, F(-1)),
        (F(1, 2), 8, F(-1, 3)),
        (F(9), 3, F(2)),
        (F(8, 27), 2, None),
        (F(2, 3), 6, None),
        (F(4, 9), 27, None),
    ])
    def test_examples(self, s, b, ratio):
        res = log_commensurable(s, b)
        assert res.commensurable is (ratio is not None)
        assert res.ratio == ratio

    @given(m=st.integers(2, 50), u=st.sampled_from([-3, -2, -1, 1, 2, 3]),
           c=st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_constructed_powers(self, m, u, c):
        # s = m^u against b = m^c must give ratio u/c exactly
        s = F(m) ** u
        res = log_commensurable(s, m ** c)
        assert res.commensurable is True
        assert res.ratio == F(u, c)
        assert abs(s) ** res.ratio.denominator == F(m ** c) ** res.ratio.numerator

    def test_invalid_inputs(self):
        with pytest.raises(InvalidInput):
            log_commensurable(F(0), 2)
        with pytest.raises(InvalidInput):
            log_commensurable(F(-1), 2)
        with pytest.raises(InvalidInput):
            log_commensurable(F(1, 2), 1)

    @given(m=st.integers(2, 60), u=st.integers(-6, 6).filter(bool),
           c=st.integers(1, 4),
           r=st.sampled_from([F(1), F(1), F(2), F(1, 3), F(5, 4), F(7, 36)]),
           t=st.sampled_from([1, 1, 2, 3, 4, 6]),
           sign=st.sampled_from([1, -1]),
           free=st.none() | st.tuples(st.integers(1, 10 ** 6),
                                      st.integers(1, 10 ** 6),
                                      st.integers(2, 10 ** 6)))
    @settings(max_examples=300, deadline=None)
    def test_matches_factoring_oracle(self, m, u, c, r, t, sign, free):
        # near-powers m^u * r against m^c * t hit both answers often; the
        # free draws cover unrelated numerators, denominators and bases
        if free is None:
            s, b = sign * F(m) ** u * r, m ** c * t
        else:
            s, b = sign * F(free[0], free[1]), free[2]
        assume(abs(s) != 1)
        res = log_commensurable(s, b)
        expected = factored_log_ratio(s, b)
        assert res.commensurable is (expected is not None)
        assert res.ratio == expected
        if expected is not None:
            assert abs(s) ** expected.denominator == F(b) ** expected.numerator

    def test_semiprime_denominator_without_factoring(self):
        # P and Q are the first primes after 10^45 and 10^46: factoring P Q
        # is slow, yet 2 does not divide it, which settles the question
        pq = (10 ** 45 + 9) * (10 ** 46 + 121)
        start = time.perf_counter()
        res = log_commensurable(F(1, pq), 2)
        assert time.perf_counter() - start < 0.5
        assert res.commensurable is False and res.ratio is None

    def test_huge_power_of_the_base_root(self):
        start = time.perf_counter()
        res = log_commensurable(F(1, 3 ** 50000), 9)
        assert time.perf_counter() - start < 1.0
        assert res.commensurable is True and res.ratio == F(-25000)


class TestRootIsolation:
    def test_count_and_isolate(self):
        # x^2 - x - 1: roots at golden ratio and its conjugate
        coeffs = (1, -1, -1)
        assert count_real_roots(coeffs, F(-10), F(10)) == 2
        assert count_real_roots(coeffs, F(1), F(2)) == 1
        ivs = isolate_real_roots(coeffs)
        assert len(ivs) == 2

    def test_refine(self):
        lo, hi = refine_real_root((1, -1, -1), F(1), F(2), F(1, 10 ** 12))
        # golden ratio = 1.618033988749894848...
        assert lo <= F("1.61803398874989") <= hi
        assert hi - lo <= F(1, 10 ** 12)

    @given(coeffs=st.lists(st.integers(-20, 20), min_size=2, max_size=13)
           .filter(lambda c: c[0] != 0),
           ends=st.lists(st.builds(F, st.integers(-60, 60), st.integers(1, 8)),
                         min_size=2, max_size=2, unique=True).map(sorted))
    @settings(max_examples=200, deadline=None)
    def test_count_matches_numeric_roots(self, coeffs, ends):
        lo, hi = ends
        roots = distinct_real_roots(coeffs)
        near = F(1, 10 ** 20)
        assume(all(abs(x - end) > near for x in roots for end in ends))
        assert count_real_roots(coeffs, lo, hi) == sum(1 for x in roots
                                                       if lo < x <= hi)

    def test_degree_60_chain_is_fast(self):
        rng = random.Random(60)
        coeffs = [1] + [rng.randint(-10 ** 6, 10 ** 6) for _ in range(60)]
        start = time.process_time()
        count_real_roots(coeffs, F(-1), F(1))
        assert time.process_time() - start < 1.0

    def test_algebraic_real_refine(self):
        golden = AlgebraicReal((1, -1, -1), F(1), F(2))
        lo, hi = golden.refine(F(1, 2 ** 80))
        assert hi - lo <= F(1, 2 ** 80)

    @pytest.mark.parametrize("coeffs, lo, hi", [
        ((1, -9, 26, -24), F(1), F(2 ** 16)),  # roots 2, 3 and 4
        ((1, -1, -1), F(2), F(3)),             # no root
        ((1, -1, -1), F(2), F(1)),             # empty enclosure
        ((0, 1, -2), F(1), F(3)),              # leading zero
        ((5,), F(1), F(3)),                    # constant
    ])
    def test_enclosure_must_hold_one_root(self, coeffs, lo, hi):
        with pytest.raises(InvalidInput):
            AlgebraicReal(coeffs, lo, hi)

    def test_root_at_an_endpoint_is_held(self):
        assert AlgebraicReal((1, -2), F(2), F(3)).refine(F(1, 8)) == (2, 2)
        assert AlgebraicReal((1, -9, 26, -24), F(3, 2), F(2)).refine(
            F(1, 8)) == (2, 2)


def _refine_or_error(refine, coeffs, lo, hi, eps, error):
    try:
        return refine(coeffs, lo, hi, eps)
    except error:
        return "no sign change"


def _from_factors(factors):
    """Coefficients of prod (a x - b), leading term first."""
    coeffs = [1]
    for a, b in factors:
        coeffs = [a * u - b * v for u, v in zip(coeffs + [0], [0] + coeffs)]
    return coeffs


_small_fracs = st.builds(F, st.integers(-12, 12), st.integers(1, 9))
_coeff = st.one_of(st.integers(-20, 20), _small_fracs)
# random coefficients, or a product of linear factors so that dyadic roots
# land on endpoints and bisection midpoints
_poly = st.one_of(
    st.lists(_coeff, min_size=2, max_size=5).filter(lambda c: c[0] != 0),
    st.lists(st.tuples(st.integers(1, 8), st.integers(-24, 24)),
             min_size=1, max_size=4).map(_from_factors),
)
_eps = st.one_of(st.integers(0, 300).map(lambda k: F(1, 2 ** k)),
                 st.builds(F, st.integers(1, 7), st.integers(1, 10 ** 40)))
_offset = st.builds(F, st.integers(0, 10), st.integers(1, 9))


@st.composite
def _bracket(draw):
    """A polynomial with an interval [lo, hi]: around one of its rational
    roots (an endpoint may be the root) or anywhere (often no sign
    change)."""
    coeffs = draw(_poly)
    if draw(st.booleans()):
        lo = draw(_small_fracs)
        return coeffs, lo, lo + draw(_offset) + F(1, 9)
    a, b = draw(st.tuples(st.integers(1, 8), st.integers(-24, 24)))
    root = F(b, a)
    coeffs = [u - root * v for u, v in zip(coeffs + [0], [0] + coeffs)]
    return coeffs, root - draw(_offset), root + draw(_offset) + F(1, 9)


_DEEP_DYADIC = ((1 << 20), (1 << 20) - 12345, (1 << 20) - 12345, -12345)


class TestRefineAgainstFractionBisection:
    """Integer bisection returns the Fraction bisection's tuple exactly."""

    @given(case=_bracket(), eps=_eps)
    @settings(max_examples=300, deadline=None)
    def test_matches_oracle(self, case, eps):
        coeffs, lo, hi = case
        got = _refine_or_error(refine_real_root, coeffs, lo, hi, eps,
                               InvalidInput)
        want = _refine_or_error(fraction_bisection, coeffs, lo, hi, eps,
                                ValueError)
        assert got == want

    @pytest.mark.parametrize("coeffs, lo, hi, eps", [
        ((2, -3), F(1), F(2), F(1, 2 ** 40)),          # root on first midpoint
        ((1, 0, -2), F(4, 3), F(3, 2), F(1, 2 ** 200)),
        ((1, 0, -2), F(4, 3), F(3, 2), F(1, 3 ** 90)),
        ((F(1, 3), F(-1, 7), F(-5, 2)), F(-4), F(5, 3), F(1, 10 ** 30)),
        ((1, -1, -1), F(1), F(2), F(1, 2 ** 1300)),
        ((1, -2, 1), F(0), F(3), F(1, 2 ** 10)),       # double root: error
        ((1, -1, -1), F(2), F(3), F(1, 2 ** 10)),      # no root: error
        ((1, -2), F(2), F(3), F(1, 8)),                # root at lo
        ((1, -3), F(2), F(3), F(1, 8)),                # root at hi
        ((1, -1, -1), F(1), F(2), F(2)),               # already narrow
    ])
    def test_matches_oracle_on_cases(self, coeffs, lo, hi, eps):
        assert (_refine_or_error(refine_real_root, coeffs, lo, hi, eps,
                                 InvalidInput)
                == _refine_or_error(fraction_bisection, coeffs, lo, hi, eps,
                                    ValueError))

    def test_midpoint_root_is_exact(self):
        assert refine_real_root((2, -3), F(1), F(2), F(1, 2 ** 40)) == (
            F(3, 2), F(3, 2))

    # brackets that hold one root take the Newton path down to eps
    @given(coeffs=st.lists(st.integers(-20, 20), min_size=3, max_size=6)
           .filter(lambda c: c[0] != 0),
           pick=st.integers(0, 5),
           eps=st.one_of(st.integers(0, 700).map(lambda k: F(1, 2 ** k)),
                         st.builds(F, st.integers(1, 7),
                                   st.integers(1, 10 ** 200))))
    @settings(max_examples=100, deadline=None)
    def test_single_root_brackets_match_oracle(self, coeffs, pick, eps):
        brackets = isolate_real_roots(coeffs)
        assume(brackets)
        lo, hi = brackets[pick % len(brackets)]
        # a root of even multiplicity has no sign change: both raise
        assert (_refine_or_error(refine_real_root, coeffs, lo, hi, eps,
                                 InvalidInput)
                == _refine_or_error(fraction_bisection, coeffs, lo, hi, eps,
                                    ValueError))

    @pytest.mark.parametrize("coeffs, lo, hi, eps", [
        # one root of odd multiplicity: p' vanishes at the root
        (_from_factors([(7, 3)] * 3), F(0), F(1), F(1, 2 ** 300)),
        (_from_factors([(7, 3)] * 3 + [(1, 5)]), F(-1), F(2), F(1, 2 ** 200)),
        (_from_factors([(2, 1)] * 5), F(0), F(1), F(1, 2 ** 100)),
        # rational roots on grid points that a Newton jump lands on
        # (8x - 5)(x^2 + 1), (2^20 x - 12345)(x^2 + x + 1), (3x - 4)(x^2 + 1)
        ((8, -5, 8, -5), F(0), F(1), F(1, 2 ** 64)),
        (_DEEP_DYADIC, F(0), F(1), F(1, 2 ** 700)),
        (_DEEP_DYADIC, F(0), F(1), F(1, 2 ** 19)),
        ((3, -4, 3, -4), F(1, 3), F(5, 3), F(1, 2 ** 500)),
        # degree >= 3
        ((1, 0, -1, -1), F(1), F(2), F(1, 2 ** 700)),
        ((1, 0, 0, 0, -1, -1), F(1), F(2), F(1, 2 ** 650)),
        ((F(1, 3), 0, -2, F(5, 7)), F(2), F(3), F(1, 10 ** 200)),
        # several roots in the bracket: bisection picks among them
        (_from_factors([(3, 1), (2, 1), (3, 2)]), F(0), F(1),
         F(1, 2 ** 300)),
        (_from_factors([(3, 1), (5, 2), (7, 4)]), F(0), F(1),
         F(1, 2 ** 300)),
        # (x^2 - 2)(x^2 - 3)(2x - 3): sqrt(2), 3/2 and sqrt(3)
        ((2, -3, -10, 15, 12, -18), F(1), F(2), F(1, 2 ** 400)),
    ])
    def test_newton_cases_match_oracle(self, coeffs, lo, hi, eps):
        assert (refine_real_root(coeffs, lo, hi, eps)
                == fraction_bisection(coeffs, lo, hi, eps))


class TestIsPisot:
    @pytest.mark.parametrize("m", list(range(2, 101)))
    def test_integers_are_pisot(self, m):
        assert is_pisot([1, -m]).is_pisot is True

    @pytest.mark.parametrize("m", [-3, 0, 1])
    def test_small_integers_are_not(self, m):
        assert is_pisot([1, -m]).is_pisot is False

    def test_golden_ratio(self):
        rep = is_pisot([1, -1, -1])
        assert rep.is_pisot is True
        lo, hi = rep.dominant_root
        assert lo <= hi and float(lo) == pytest.approx(1.6180339887498949,
                                                       abs=1e-12)
        assert all(b < 1 for _, b in rep.conjugate_moduli)

    def test_sqrt3_not_pisot(self):
        rep = is_pisot([1, 0, -3])
        assert rep.is_pisot is False
        assert any(a > 1 for a, _ in rep.conjugate_moduli)

    def test_reciprocal_quadratic_pisot(self):
        # x^2 - 3x + 1: roots (3 +- sqrt5)/2, the larger is Pisot
        rep = is_pisot([1, -3, 1])
        assert rep.is_pisot is True and rep.reciprocal

    def test_plastic_number_complex_conjugates(self):
        rep = is_pisot([1, 0, -1, -1])
        assert rep.is_pisot is True
        assert len(rep.conjugate_moduli) == 2
        for lo, hi in rep.conjugate_moduli:
            assert hi < 1

    def test_salem_degree_four(self):
        # reciprocal with conjugates on the unit circle: never Pisot
        rep = is_pisot([1, -1, -1, -1, 1])
        assert rep.is_pisot is False and rep.reciprocal

    def test_cyclotomic_not_pisot(self):
        assert is_pisot([1, -1, 1]).is_pisot is False

    def test_reducible_rejected(self):
        # x^2 - 1, (x - 1)(x^2 - x - 1), (x^2 - x - 1)^2 and x^2 - 2x: a root
        # at +-1, a repeated root, and p(0) = 0, the only test that stops
        # x^2 - 2x, whose roots 2 and 0 meet the root condition
        for coeffs in ([1, 0, -1], [1, -2, 0, 1], [1, -2, -1, 2, 1],
                       [1, -2, 0]):
            rep = is_pisot(coeffs)
            assert rep.is_pisot is False
            assert rep.dominant_root is None and rep.conjugate_moduli == ()
        # (x^2 - x - 1)(x + 2) passes the gate; its root -2 breaks the root
        # condition
        assert is_pisot([1, 1, -3, -2]).is_pisot is False

    def test_non_monic_rejected(self):
        with pytest.raises(InvalidInput, match="must be monic"):
            is_pisot([2, -3])


# a root within this distance of a circle is taken to lie on it: the oracle
# is accurate to about 1e-45 at 50 digits
_ON_CIRCLE = F(1, 10 ** 20)


class TestDiskCount:
    @given(coeffs=st.lists(st.integers(-20, 20), min_size=2, max_size=11)
           .filter(lambda c: c[0] != 0),
           r=st.builds(F, st.integers(1, 24), st.integers(1, 8)))
    @settings(max_examples=300, deadline=None)
    def test_matches_numeric_roots(self, coeffs, r):
        moduli = [m for m, _ in root_moduli(coeffs)]
        assume(all(abs(m - r) > _ON_CIRCLE for m in moduli))
        assert count_roots_in_disk(coeffs, r) == sum(1 for m in moduli
                                                     if m < r)

    @pytest.mark.parametrize("coeffs, r", [
        ((1, 0, 1), 1),             # +-i on the circle
        ((1, 2), 2),                # z = -r: deg h drops
        ((1, -2), 2),               # z = r
        ((1, -1, -1, -1, 1), 1),    # Salem: a pair on the unit circle
        ((4, 0, -1), F(1, 2)),      # +-1/2
    ])
    def test_a_root_on_the_circle_gives_none(self, coeffs, r):
        assert count_roots_in_disk(coeffs, r) is None

    @pytest.mark.parametrize("coeffs, r, count", [
        ((1, -3, 1), 1, 1),         # reciprocal: 0.38 and 2.62
        ((1, 0, -1, 0, 0, 0, 1), 2, 6),
        ((1, 0, 0, 0, 1), 2, 4),
        ((1, 5, 6), F(5, 2), 1),    # -2 and -3
        ((1, 0, 0), 1, 2),          # a double root at 0
        ((7,), 3, 0),
    ])
    def test_examples(self, coeffs, r, count):
        assert count_roots_in_disk(coeffs, r) == count


_PISOT = [(1, 0, -1, -1), (1, -1, 0, 0, -1), (1, -1, -1, 1, 0, -1),
          (1, -1, -1, -1)]
_NOT_PISOT = [
    (1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1),  # Lehmer's polynomial
    (1, 0, 0, 0, 0, 0, 0, -1, -1),           # x^8 - x - 1
    # x^2 + 1 and x^2 -+ 2x + 2: an exact |z|^2 or a root hit exactly
    (1, 0, 1), (1, -2, 2), (1, 2, 2),
]


class TestIsPisotByRootCounts:
    @pytest.mark.parametrize("coeffs", _PISOT + _NOT_PISOT)
    def test_known_verdicts(self, coeffs):
        assert is_pisot(coeffs).is_pisot is (coeffs in _PISOT)

    @given(tail=st.lists(st.integers(-3, 3), min_size=2, max_size=7))
    @settings(max_examples=150, deadline=None)
    def test_enclosures_hold_the_numeric_moduli(self, tail):
        coeffs = (1, *tail)
        rep = is_pisot(coeffs)
        if not sympy.Poly(coeffs, sympy.Symbol("x")).is_irreducible:
            assert rep.is_pisot is False
            assume(False)
        roots = root_moduli(coeffs)
        pairs = sorted(m for m, im in roots if abs(im) > _ON_CIRCLE)
        reals = sorted(m for m, im in roots if abs(im) <= _ON_CIRCLE)
        if rep.dominant_root is not None:
            lo, hi = rep.dominant_root
            dominant = min(reals, key=lambda m: abs(m - (lo + hi) / 2))
            reals.remove(dominant)
            assert lo - _ON_CIRCLE <= dominant <= hi + _ON_CIRCLE
        # complex pairs, twice each, then the real conjugates
        encl = rep.conjugate_moduli
        assert len(encl) == len(pairs) + len(reals)
        for group, moduli in ((encl[:len(pairs)], pairs),
                              (encl[len(pairs):], reals)):
            for (lo, hi), m in zip(sorted(group), moduli):
                assert lo - _ON_CIRCLE <= m <= hi + _ON_CIRCLE
                assert not lo <= 1 <= hi or abs(m - 1) <= _ON_CIRCLE
        # a conjugate on the circle is not below 1
        numeric = (rep.dominant_root is not None
                   and all(m < 1 - _ON_CIRCLE for m in pairs + reals))
        assert rep.is_pisot is numeric


class TestObstruction:
    def test_cantor_base3_matches(self, cantor):
        rep = classify_obstruction(cantor, 3)
        assert rep.verdict is ObstructionVerdict.MATCHES_OBSTRUCTION_FORM
        assert all(mo.commensurability.ratio == F(-1) for mo in rep.per_map)
        assert {mo.offset for mo in rep.per_map} == {F(0), F(2, 3)}

    def test_cantor_base2_fails_item1(self, cantor):
        rep = classify_obstruction(cantor, 2)
        assert rep.verdict is ObstructionVerdict.FAILS_ITEM1

    def test_half_base2_matches(self, half):
        rep = classify_obstruction(half, 2)
        assert rep.verdict is ObstructionVerdict.MATCHES_OBSTRUCTION_FORM

    def test_fails_item2(self):
        system = make_system([("1/3", "0"), ("1/3", "1/5"), ("1/3", "2/3")],
                             ["1/3", "1/3", "1/3"])
        rep = classify_obstruction(system, 3)
        assert rep.verdict is ObstructionVerdict.FAILS_ITEM2

    def test_applies_to_normalized_system(self):
        shifted = make_system([("1/3", "1"), ("1/3", "5/3")])
        rep = classify_obstruction(shifted, 3)
        assert rep.verdict is ObstructionVerdict.MATCHES_OBSTRUCTION_FORM

    def test_permutation_invariance(self, mixed):
        baseline = classify_obstruction(mixed, 2).verdict
        permuted = make_system([("1/4", "3/4"), ("1/2", "0")],
                               ["1/3", "2/3"])
        assert classify_obstruction(permuted, 2).verdict is baseline

    @pytest.mark.parametrize("b,expected,witness", [
        (2, True, 1), (9, False, None), (3, False, None),
    ])
    def test_witness_examples(self, cantor, b, expected, witness):
        found, idx = incommensurable_slope_witness(cantor, b)
        assert found is expected and idx == witness

    @pytest.mark.parametrize("b", [2, 3, 4, 5, 6, 9, 10])
    def test_witness_matches_item1(self, three_systems, b):
        for system in three_systems.values():
            found, _ = incommensurable_slope_witness(system, b)
            rep = classify_obstruction(system, b)
            any_fail = any(mo.commensurability.commensurable is False
                           for mo in rep.per_map)
            assert found == any_fail
