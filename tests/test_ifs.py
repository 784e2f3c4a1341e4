import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normality_lab import (
    AffineMap,
    attractor_hull,
    cantor_system,
    compose,
    make_system,
    normalize,
    validate,
)
from normality_lab.errors import (
    ConfigParseError,
    DegenerateFixedPoints,
    HullNotInvariant,
    NonContractingMap,
    SymbolOutOfRange,
    WeightSumError,
)
from normality_lab.ifs import (
    _leaf_length,
    as_fraction,
    compose_triples,
    frac_str,
    integer_triples,
    system_from_dict,
    system_to_dict,
)
from normality_lab.sampling import digits

from oracles import iterated_hull

F = Fraction


class TestValidate:
    def test_cantor_valid(self, cantor):
        assert validate(cantor).ok

    def test_weight_sum_error(self):
        bad = make_system([("1/3", "0"), ("1/3", "2/3")], ["1/2", "1/3"],
                          hull=("0", "1"), check=False)
        rep = validate(bad)
        assert not rep.ok
        assert any(isinstance(f, WeightSumError) for f in rep.failures)

    def test_non_contracting(self):
        bad = make_system([("3/2", "0"), ("1/3", "2/3")], ["1/2", "1/2"],
                          hull=("0", "1"), check=False)
        rep = validate(bad)
        assert any(isinstance(f, NonContractingMap) for f in rep.failures)

    def test_hull_not_invariant(self):
        bad = make_system([("1/3", "0"), ("1/3", "2/3")], ["1/2", "1/2"],
                          hull=("0", "1/2"), check=False)
        rep = validate(bad)
        assert any(isinstance(f, HullNotInvariant) for f in rep.failures)

    def test_degenerate_fixed_points(self):
        bad = make_system([("1/3", "0"), ("1/2", "0")], ["1/2", "1/2"],
                          hull=("0", "0"), check=False)
        rep = validate(bad)
        assert any(isinstance(f, DegenerateFixedPoints) for f in rep.failures)

    def test_zero_weight_rejected(self):
        with pytest.raises(WeightSumError):
            make_system([("1/3", "0"), ("1/3", "2/3")], ["1", "0"])


class TestCompose:
    def test_empty_word_is_identity(self, cantor):
        m = compose(cantor, ())
        assert m.slope == 1 and m.offset == 0

    def test_cantor_12(self, cantor):
        m = compose(cantor, (1, 2))
        assert (m.slope, m.offset) == (F(1, 9), F(2, 9))

    def test_cantor_21(self, cantor):
        m = compose(cantor, (2, 1))
        assert (m.slope, m.offset) == (F(1, 9), F(2, 3))

    def test_symbol_out_of_range(self, cantor):
        with pytest.raises(SymbolOutOfRange):
            compose(cantor, (1, 3))

    @pytest.mark.parametrize("dtype", [np.int8, np.uint16, np.int64])
    def test_integer_arrays_compose_like_tuples(self, cantor, dtype):
        # numpy integers were refused as symbols by an isinstance check
        word = (1, 2, 2, 1, 2) * 20
        assert compose(cantor, np.array(word, dtype=dtype)) \
            == compose(cantor, word)
        assert compose(cantor, np.array([1, 2], dtype=dtype)) \
            == AffineMap(F(1, 9), F(2, 9))

    @pytest.mark.parametrize("word", [(1.7, 2), [1.0, 2.0], ("1", "2"),
                                      np.array([2.0, 1.0])])
    def test_non_integer_symbols_are_refused(self, cantor, word):
        # compose_triples truncated 1.7 to symbol 1
        with pytest.raises(SymbolOutOfRange):
            compose(cantor, word)
        with pytest.raises(SymbolOutOfRange):
            compose_triples(integer_triples(cantor), word)
        with pytest.raises(SymbolOutOfRange):
            digits(cantor, list(word), 2, 5)

    @given(w1=st.lists(st.integers(1, 2), max_size=8),
           w2=st.lists(st.integers(1, 2), max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_concatenation_homomorphism(self, w1, w2):
        system = cantor_system()
        lhs = compose(system, tuple(w1) + tuple(w2))
        rhs = compose(system, w1).after(compose(system, w2))
        assert lhs == rhs

    @given(word=st.lists(st.integers(1, 2), min_size=1, max_size=20))
    @settings(max_examples=40, deadline=None)
    def test_slope_product_and_monotonicity(self, word):
        system = make_system([("1/2", "0"), ("-1/4", "3/4")], ["1/2", "1/2"],
                             hull=("-1", "1"), check=False)
        prod = F(1)
        for s in word:
            prod *= abs(system.maps[s - 1].slope)
        m = compose(system, word)
        assert abs(m.slope) == prod
        shorter = compose(system, word[:-1])
        assert abs(m.slope) < abs(shorter.slope)


def _sequential_fold(triples, word):
    A, B, C = 1, 0, 1
    for s in word:
        a, b, c = triples[s - 1]
        A, B, C = A * a, A * b + B * c, C * c
    return A, B, C


def _triple_within(K):
    """A triple (a, b, c) with |a| <= K, c >= 1 and |b| + c <= K."""
    return st.integers(1, K).flatmap(lambda c: st.tuples(
        st.integers(-K, K), st.integers(c - K, K - c), st.just(c)))


TRIPLE_SYSTEMS = [
    make_system([("1/3", "0"), ("1/3", "2/3")]),
    make_system([("-1/2", "0"), ("-1/2", "1/2")]),
    make_system([("2/5", "1/7"), ("-3/11", "5/6"), ("1/4", "-2/9")],
                ["1/2", "1/3", "1/6"]),
]


class TestComposeTriples:
    @given(data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_equals_sequential_fold(self, data):
        system = data.draw(st.sampled_from(TRIPLE_SYSTEMS))
        word = tuple(data.draw(st.lists(st.integers(1, system.n),
                                        max_size=300)))
        triples = integer_triples(system)
        assert compose_triples(triples, word) == _sequential_fold(triples,
                                                                  word)

    # this system's leaves hold 9 symbols: K = 121 and 121^9 < 2^63
    @pytest.mark.parametrize("length", [0, 1, 31, 32, 33, 64, 65, 97, 300,
                                        8, 9, 10, 18, 19])
    def test_leaf_boundaries(self, length):
        system = TRIPLE_SYSTEMS[2]
        word = tuple(1 + (7 * i * i + i) % 3 for i in range(length))
        triples = integer_triples(system)
        assert compose_triples(triples, word) == _sequential_fold(triples,
                                                                  word)
        # and compose() agrees with the Fraction-level fold
        expected = AffineMap(F(1), F(0))
        for s in word:
            expected = expected.after(system.maps[s - 1])
        assert compose(system, word) == expected

    def test_leaf_length(self):
        assert _leaf_length(integer_triples(TRIPLE_SYSTEMS[2])) == (
            9, np.int64)
        assert _leaf_length(integer_triples(cantor_system())) == (
            27, np.int64)  # K = 5

    # K = 2^21 - 1 gives leaves of three symbols with K^3 just below 2^63,
    # and K = 3037000499 leaves of two with K^2 just below 2^63; the
    # extreme triples reach the bound at every step.  A triple past int64
    # folds as Python integers through the same code.
    @given(data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_equals_sequential_fold_at_the_int64_bound(self, data):
        K = data.draw(st.sampled_from([2 ** 21 - 1, 3037000499, 2 ** 63 - 1,
                                       2 ** 63, 2 ** 100 + 7]))
        c = data.draw(st.integers(1, K))
        extreme = [(-K, K - c, c), (K, c - K, c), (K - 1, 0, K)]
        n = data.draw(st.integers(1, 3))
        triples = (extreme + [data.draw(_triple_within(K))
                              for _ in range(2)])[:n + 2]
        word = data.draw(st.lists(st.integers(1, len(triples)),
                                  max_size=120))
        L, dtype = _leaf_length(triples)
        if K < 2 ** 63:
            assert dtype is np.int64 and K ** L < 2 ** 63 <= K ** (L + 1)
        else:
            assert (L, dtype) == (1, object)
        want = _sequential_fold(triples, word)
        assert compose_triples(triples, word) == want
        assert compose_triples(triples, np.array(word, dtype=np.intp)) == want

    def test_integer_triples_use_the_least_common_denominator(
            self, three_systems):
        assert integer_triples(three_systems["cantor"])[1] == (1, 2, 3)
        assert integer_triples(three_systems["mixed"])[1] == (1, 3, 4)
        for system in [*TRIPLE_SYSTEMS, *three_systems.values()]:
            for m, (a, b, c) in zip(system.maps, integer_triples(system)):
                assert (F(a, c), F(b, c)) == (m.slope, m.offset)
                assert c == math.lcm(m.slope.denominator,
                                     m.offset.denominator)


class TestAttractorHull:
    @pytest.mark.parametrize("maps,expected", [
        ([("1/3", "0"), ("1/3", "2/3")], (F(0), F(1))),
        ([("1/2", "0"), ("1/2", "1/2")], (F(0), F(1))),
        ([("2/5", "0"), ("2/5", "2/5")], (F(0), F(2, 3))),
    ])
    def test_known_hulls(self, maps, expected):
        amaps = [AffineMap(as_fraction(s), as_fraction(t)) for s, t in maps]
        assert attractor_hull(amaps) == expected

    def test_negative_slopes(self):
        maps = [AffineMap(F(-1, 2), F(0)), AffineMap(F(-1, 2), F(1, 2))]
        lo, hi = attractor_hull(maps)
        # endpoints solve a = f1(b), b = f2(a)
        assert (lo, hi) == (F(-1, 3), F(2, 3))
        it_lo, it_hi = iterated_hull(maps)
        assert lo <= it_lo and it_hi <= hi
        assert abs(it_lo - lo) < F(1, 10**30) and abs(it_hi - hi) < F(1, 10**30)

    def test_invariance_exact(self, three_systems):
        for system in three_systems.values():
            lo, hi = system.hull
            for m in system.maps:
                a, b = m.image(lo, hi)
                assert lo <= a and b <= hi

    def test_non_contracting_rejected(self):
        with pytest.raises(NonContractingMap):
            attractor_hull([AffineMap(F(1), F(0)), AffineMap(F(1, 2), F(1))])


class TestNormalize:
    def test_identity_on_unit_hull(self, cantor):
        norm, g = normalize(cantor)
        assert g.slope == 1 and g.offset == 0
        assert norm is cantor

    def test_shifted_cantor(self):
        shifted = make_system([("1/3", "1"), ("1/3", "5/3")])
        assert shifted.hull == (F(3, 2), F(5, 2))
        norm, g = normalize(shifted)
        assert (g.slope, g.offset) == (F(1), F(3, 2))
        assert [(m.slope, m.offset) for m in norm.maps] == \
            [(F(1, 3), F(0)), (F(1, 3), F(2, 3))]

    def test_scaled_pair(self, beta_52):
        norm, g = normalize(beta_52)
        assert (g.slope, g.offset) == (F(2, 3), F(0))
        assert norm.hull == (F(0), F(1))

    def test_idempotent_and_preserving(self, three_systems):
        for system in three_systems.values():
            norm, _ = normalize(system)
            again, g2 = normalize(norm)
            assert g2.slope == 1 and g2.offset == 0
            assert again.weights == system.weights
            assert sorted(m.slope for m in again.maps) == \
                sorted(m.slope for m in system.maps)


class TestSerialization:
    def test_round_trip_bit_exact(self, three_systems):
        for system in three_systems.values():
            data = system_to_dict(system)
            back = system_from_dict(data)
            assert back == system

    @given(num=st.integers(-10**12, 10**12),
           den=st.integers(1, 10**12))
    @settings(max_examples=80, deadline=None)
    def test_fraction_codec(self, num, den):
        x = F(num, den)
        assert as_fraction(frac_str(x)) == x

    def test_bad_rational_rejected(self):
        with pytest.raises(ConfigParseError):
            as_fraction("1/0")
        with pytest.raises(ConfigParseError):
            as_fraction(0.5)

    def test_missing_fields_rejected(self):
        with pytest.raises(ConfigParseError):
            system_from_dict({"weights": ["1"]})
