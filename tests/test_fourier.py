import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normality_lab import (
    decay_profile,
    fourier_empirical,
    fourier_exact,
    make_system,
    uniform_sample,
)
from normality_lab.errors import InvalidInput
from normality_lab.fourier import (
    MIN_TOL,
    fourier_tree,
    ratio_phase,
    unit_phase,
)

from oracles import (
    cantor_product_fourier,
    homogeneous_product_fourier,
    lebesgue_transform,
    monte_carlo_fourier,
    reference_fourier_tree,
    reference_phase,
)

F = Fraction

TREE_SYSTEMS = {
    "cantor": make_system([("1/3", "0"), ("1/3", "2/3")]),
    "mixed": make_system([("1/2", "0"), ("1/4", "3/4")], ["2/3", "1/3"]),
    "inh": make_system([("1/3", "0"), ("1/2", "1/2")]),
    "flip": make_system([("-1/2", "0"), ("-1/2", "1/2")]),
    "shifted": make_system([("-2/5", "7/5"), ("1/3", "-1/3")],
                           ["3/7", "4/7"]),
    # three maps: one slope on the first and last map, a zero offset in the
    # middle, and a slope numerator other than 1
    "three": make_system([("1/3", "1/3"), ("2/5", "0"), ("1/3", "2/3")],
                         ["1/4", "1/2", "1/4"]),
}

rationals = st.builds(F, st.integers(-10 ** 7, 10 ** 7),
                      st.integers(1, 10 ** 4))


def _bits(z: complex) -> tuple:
    return (float(z.real).hex(), float(z.imag).hex())


class TestUnitPhase:
    def test_special_angles_exact(self):
        assert unit_phase(F(0)) == 1.0
        assert unit_phase(F(1, 2)) == -1.0
        assert unit_phase(F(1, 4)) == 1.0j
        assert unit_phase(F(3, 4)) == -1.0j
        assert unit_phase(F(7)) == 1.0
        assert unit_phase(F(-9, 2)) == -1.0

    def test_huge_argument_reduced_exactly(self):
        x = F(2 ** 400 * 3 + 1, 4)  # frac = 1/4
        assert unit_phase(x) == 1.0j

    @given(x=rationals, scale=st.integers(1, 10 ** 30))
    @settings(max_examples=200, deadline=None)
    def test_any_representative_gives_the_reference_phase(self, x, scale):
        want = _bits(reference_phase(x))
        assert _bits(unit_phase(x)) == want
        num, den = x.numerator * scale, x.denominator * scale
        assert _bits(ratio_phase(num, den)) == want

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_every_denominator_class_gives_the_reference_phase(self, data):
        # the half and quarter angles are only tested for even and 4 | den:
        # every den mod 4, negative numerators and 3,000-bit integers must
        # still give the reference bits
        size = data.draw(st.sampled_from([10 ** 4, 2 ** 3000]))
        den = 4 * data.draw(st.integers(1, size)) + data.draw(
            st.integers(-3, 0))
        turns = data.draw(st.integers(-size, size))
        quarter = data.draw(st.integers(0, 3))
        near = turns * den + quarter * den // 4 + data.draw(
            st.sampled_from([0, 0, 0, -1, 1]))
        num = data.draw(st.one_of(st.just(near),
                                  st.integers(-size * size, size * size)))
        assert _bits(ratio_phase(num, den)) == _bits(
            reference_phase(F(num, den)))

    @pytest.mark.parametrize("den_mod_4", range(4))
    def test_quarter_turns_at_3000_bits(self, den_mod_4):
        den = 2 ** 3000 + den_mod_4
        for quarter in range(4):
            for num in (quarter * den // 4, -(3 ** 1800) * den
                        + quarter * den // 4):
                assert _bits(ratio_phase(num, den)) == _bits(
                    reference_phase(F(num, den)))


class TestFourierExact:
    def test_total_mass(self, three_systems):
        for system in three_systems.values():
            fv = fourier_exact(system, 0)
            assert fv.value == 1.0 and fv.error_bound == 0.0

    def test_lebesgue_vanishes_at_integers(self, half):
        for q in range(1, 25):
            fv = fourier_exact(half, q, tol=1e-9)
            assert fv.modulus <= 1e-12
            assert fv.error_bound <= 1e-9

    def test_lebesgue_closed_form_rational_q(self, half):
        for q in (F(1, 3), F(7, 2), F(-5, 4), F(99, 7)):
            fv = fourier_exact(half, q, tol=1e-10)
            assert abs(fv.value - lebesgue_transform(q)) <= 1e-10 + 1e-12

    def test_cantor_resonance_along_powers(self, cantor):
        f1 = fourier_exact(cantor, 1, tol=1e-9)
        for m in range(1, 9):
            fm = fourier_exact(cantor, 3 ** m, tol=1e-9)
            assert abs(fm.modulus - f1.modulus) <= 2e-9

    def test_product_oracle_homogeneous(self, cantor, half):
        for system in (cantor, half):
            for q in (1, 2, F(7, 3), 100, 729):
                fv = fourier_exact(system, q, tol=1e-9)
                oracle = homogeneous_product_fourier(system, q)
                assert abs(fv.value - oracle) <= 2e-9 + 1e-10

    def test_conjugate_symmetry(self, three_systems):
        rng = np.random.default_rng(7)
        for system in three_systems.values():
            for _ in range(8):
                q = F(int(rng.integers(1, 500)), int(rng.integers(1, 9)))
                a = fourier_exact(system, q, tol=1e-9)
                b = fourier_exact(system, -q, tol=1e-9)
                assert abs(a.value.conjugate() - b.value) <= 2e-9

    def test_self_similarity_residual(self, three_systems):
        rng = np.random.default_rng(19)
        tol = 1e-9
        for system in three_systems.values():
            n = system.n
            for _ in range(20):
                q = F(int(rng.integers(-300, 300)), int(rng.integers(1, 7)))
                lhs = fourier_exact(system, q, tol=tol).value
                rhs = 0j
                for m, p in zip(system.maps, system.weights):
                    rhs += (float(p) * unit_phase(q * m.offset)
                            * fourier_exact(system, q * m.slope, tol=tol).value)
                assert abs(lhs - rhs) <= (n + 1) * tol + 1e-12

    def test_modulus_bounded(self, mixed):
        rng = np.random.default_rng(3)
        for _ in range(20):
            q = F(int(rng.integers(-10**6, 10**6)), int(rng.integers(1, 100)))
            fv = fourier_exact(mixed, q, tol=1e-6)
            assert fv.modulus <= 1.0 + fv.error_bound + 1e-12

    def test_budget_flag_honest(self, mixed):
        fv = fourier_exact(mixed, 10 ** 6 + 1, tol=1e-12, budget=50)
        assert fv.budget_exceeded
        assert fv.error_bound > 1e-12
        assert fv.modulus <= 1.0 + fv.error_bound

    def test_memo_cache_reused(self, cantor):
        cache = {}
        fv1 = fourier_exact(cantor, 9, tol=1e-9, cache=cache)
        n_first = len(cache)
        fv2 = fourier_exact(cantor, 3, tol=1e-9, cache=cache)
        assert len(cache) == n_first  # the 3-chain is a suffix of the 9-chain
        assert fv2.nodes == 0

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_integer_pair_tree_equals_fraction_tree(self, data):
        system = TREE_SYSTEMS[data.draw(st.sampled_from(sorted(TREE_SYSTEMS)))]
        tol = data.draw(st.sampled_from([1e-4, 1e-7, 1e-10]))
        budget = data.draw(st.sampled_from([3, 40, 10 ** 7]))
        qs = data.draw(st.lists(rationals, min_size=1, max_size=5))
        cache, ref_cache = {}, {}
        for q in qs:
            for shared in (None, cache):
                fv = fourier_exact(system, q, tol=tol, budget=budget,
                                   cache=shared)
                val, err, nodes, hit = reference_fourier_tree(
                    system, q, tol, budget,
                    cache=ref_cache if shared is not None else None)
                assert _bits(fv.value) == _bits(val)
                assert fv.error_bound == err
                assert fv.nodes == nodes
                assert fv.budget_exceeded == hit
                assert fv.frequency == q
        # the memo holds one reduced (num, den) pair per Fraction frequency
        assert {F(*k) for k in cache} == set(ref_cache)
        assert all(F(*k).denominator == k[1] for k in cache)

    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_batch_walk_equals_fraction_tree_root_by_root(self, data):
        name = data.draw(st.sampled_from(sorted(TREE_SYSTEMS)))
        system = TREE_SYSTEMS[name]
        tol = data.draw(st.sampled_from([1e-4, 1e-7, 1e-10]))
        budget = data.draw(st.sampled_from([1, 2, 3, 40, 10 ** 7]))
        slopes = [m.slope for m in system.maps]
        roots = []
        for q in data.draw(st.lists(rationals, min_size=1, max_size=3)):
            roots.append(q)
            if data.draw(st.booleans()):  # a descendant after its ancestor
                roots.append(q * data.draw(st.sampled_from(slopes)))
        roots += [data.draw(st.sampled_from(roots)), -roots[0]]
        if budget <= 40 or name in ("cantor", "mixed"):
            # below 10^-400 the inhomogeneous trees hold ~10^5 frequencies
            roots.append(F(10) ** 400)
        pairs = [(q.numerator, q.denominator) for q in roots]
        for cache, ref_cache in ((None, None), ({}, {})):
            got = fourier_tree(system, pairs, tol=tol, budget=budget,
                               cache=cache)
            assert len(got) == len(roots)
            for q, (val, err, nodes, hit) in zip(roots, got):
                want = reference_fourier_tree(system, q, tol, budget,
                                              cache=ref_cache)
                assert _bits(val) == _bits(want[0])
                assert (err, nodes, hit) == want[1:]
        assert {F(*k): (_bits(v), e) for k, (v, e) in cache.items()} == {
            k: (_bits(v), e) for k, (v, e) in ref_cache.items()}

    def test_many_maps_equal_fraction_tree(self):
        # 258 maps: the walk's source grows by one statement per map
        maps = [(F(1, 256), F(i, 256)) for i in range(256)]
        maps += [("1/3", "1/3"), ("1/3", "2/3")]
        system = make_system(maps, [F(1, 512)] * 256 + ["1/4", "1/4"])
        for q, budget in ((1, 10 ** 7), (12345, 10 ** 7), (-7, 10 ** 7),
                          (12345, 3)):
            fv = fourier_exact(system, q, tol=1e-9, budget=budget)
            val, err, nodes, hit = reference_fourier_tree(system, q, 1e-9,
                                                          budget)
            assert _bits(fv.value) == _bits(val)
            assert (fv.error_bound, fv.nodes, fv.budget_exceeded) == (
                err, nodes, hit)

    def test_systems_of_one_shape_keep_their_own_constants(self, cantor):
        # {x/3, x/3 + 1/3} has Cantor's shape (one slope 1/3, offsets zero
        # then nonzero) but other offsets and weights; alternating the two
        # must not reuse one system's constants for the other
        other = make_system([("1/3", "0"), ("1/3", "1/3")], ["1/3", "2/3"])
        caches = {id(cantor): ({}, {}), id(other): ({}, {})}
        for q in (1, 5, F(7, 2), 1, 5, F(7, 2)):
            for system in (cantor, other, cantor, other):
                cache, ref_cache = caches[id(system)]
                for shared, ref_shared in ((None, None), (cache, ref_cache)):
                    fv = fourier_exact(system, q, tol=1e-10, cache=shared)
                    val, err, nodes, hit = reference_fourier_tree(
                        system, q, 1e-10, 10 ** 7, cache=ref_shared)
                    assert _bits(fv.value) == _bits(val)
                    assert (fv.error_bound, fv.nodes, fv.budget_exceeded) == (
                        err, nodes, hit)

    def test_resonance_equals_fraction_tree(self, cantor):
        for q in (3 ** 8, 3 ** 40 + 1, F(-(3 ** 25), 7)):
            fv = fourier_exact(cantor, q, tol=1e-12)
            val, err, nodes, hit = reference_fourier_tree(cantor, q, 1e-12,
                                                          10 ** 7)
            assert _bits(fv.value) == _bits(val)
            assert (fv.error_bound, fv.nodes) == (err, nodes) and not hit

    @pytest.mark.parametrize("name, bound, nodes", [
        ("cantor", 4.467e-10, 860), ("mixed", 5.462e-10, 1363)])
    def test_frequency_beyond_the_float_range(self, name, bound, nodes):
        # 10^400 overflows a float: such a node is never a leaf, and its
        # children shrink back into range
        fv = fourier_exact(TREE_SYSTEMS[name], F(10) ** 400)
        assert not fv.budget_exceeded and fv.nodes == nodes
        assert fv.error_bound == pytest.approx(bound, rel=1e-3)
        assert fv.modulus <= 1.0

    def test_invalid_tol(self, cantor):
        with pytest.raises(InvalidInput):
            fourier_exact(cantor, 1, tol=0.0)

    def test_nan_tol_rejected(self, cantor):
        # NaN fails every comparison, so `tol <= 0` alone would let it in
        with pytest.raises(InvalidInput):
            fourier_exact(cantor, 1, tol=math.nan)

    def test_tol_below_the_rounding_floor_rejected(self, cantor):
        fourier_exact(cantor, 1, tol=MIN_TOL)
        with pytest.raises(InvalidInput):
            fourier_exact(cantor, 1, tol=MIN_TOL / 2)

    # frequencies where phases land near half-integers or resonances 3^m
    @given(q=st.sampled_from([1, 2, 5, 7, 3 ** 10 + 1, 3 ** 20 + 5,
                              123456789, 10 ** 15 + 7, 3 ** 30,
                              F(3 ** 25, 2), 10 ** 40 + 1, F(1, 7)]),
           log_tol=st.floats(-13, -9))
    @settings(max_examples=60, deadline=None)
    def test_bound_holds_against_the_product(self, cantor, q, log_tol):
        fv = fourier_exact(cantor, q, tol=max(MIN_TOL, 10 ** log_tol))
        assert abs(fv.value - cantor_product_fourier(q)) <= fv.error_bound

    def test_monte_carlo_agreement(self, three_systems):
        rng = np.random.default_rng(101)
        tol = 1e-6
        for name, system in three_systems.items():
            for _ in range(4):
                q = F(int(rng.integers(-100, 101)) or 1,
                      int(rng.integers(1, 10)))
                fv = fourier_exact(system, q, tol=tol)
                mc = monte_carlo_fourier(system, q, 200_000,
                                         seed=int(rng.integers(2**31)))
                assert abs(fv.value - mc) <= 7e-3 + tol


class TestFourierEmpirical:
    def test_single_point_at_zero(self):
        fv = fourier_empirical([0.0], 5)
        assert fv.value == 1.0

    def test_two_point_cancellation(self):
        fv = fourier_empirical([0.0, 0.5], 1)
        assert abs(fv.value) <= 1e-15

    def test_uniform_sample_small_modes(self):
        sam = uniform_sample(10_000, seed=6)
        fv = fourier_empirical(sam, 1)
        assert fv.modulus <= 0.05
        assert fv.error_bound <= 2 * math.pi * sam.accuracy


class TestDecay:
    def test_cantor_profile_resonant_bands(self, cantor):
        profile = decay_profile(cantor, 12, per_band=64, tol=1e-8)
        f1 = fourier_exact(cantor, 1, tol=1e-8).modulus
        powers = {3 ** m for m in range(1, 13)}
        for band in profile.bands:
            lo, hi = 1 << band.index, 1 << (band.index + 1)
            if any(lo <= p < hi for p in powers):
                assert band.sup_modulus >= f1 - 2e-8

    def test_lebesgue_profile_integer_grid_zero(self, half):
        profile = decay_profile(half, 8, per_band=32, tol=1e-8)
        for band in profile.bands:
            assert band.sup_modulus <= 1e-10

    def test_band_zero_contains_q1(self, cantor):
        profile = decay_profile(cantor, 0, per_band=8, tol=1e-8)
        assert profile.bands[0].sup_modulus >= 0.2  # |F_1| = 0.3714...

    def test_jmax_guard(self, cantor):
        with pytest.raises(InvalidInput):
            decay_profile(cantor, 41)
