import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normality_lab import (
    StoppingRecord,
    WordStream,
    compose,
    cylinder_mode,
    fourier_exact,
    make_system,
    r_factor,
    stopping_records,
)
from normality_lab.errors import (
    ConfigParseError,
    InvalidInput,
    StreamExhausted,
)
from normality_lab.fourier import ratio_phase
from normality_lab.martingale import (
    cylinder_modes,
    martingale_gaps,
    min_stopping_depth,
)
from normality_lab.sampling import FixedWord

from oracles import scalar_chain_mode

F = Fraction

# homogeneous systems for the float chain: positive and negative slopes
CHAIN_SYSTEMS = {
    "cantor": make_system([("1/3", "0"), ("1/3", "2/3")]),
    "flip": make_system([("-1/2", "0"), ("-1/2", "1/2")]),
    "thirds": make_system([("1/3", "0"), ("1/3", "1/3"), ("1/3", "2/3")],
                          ["1/2", "1/3", "1/6"]),
}

# inhomogeneous systems, where every cylinder mode takes the exact
# transform, with a record count whose last denominators pass 2^64
EXACT_SYSTEMS = {
    "inh": (make_system([("1/3", "0"), ("1/2", "1/2")]), 130),
    "shifted": (make_system([("-2/5", "7/5"), ("1/3", "-1/3")],
                            ["3/7", "4/7"]), 60),
}


def _bits(z: complex) -> tuple:
    """Exact bit pattern of both parts (float.hex keeps the sign of 0)."""
    return (float(z.real).hex(), float(z.imag).hex())


@pytest.fixture(scope="module")
def cantor_records(cantor):
    return stopping_records(cantor, WordStream(cantor, 9), 100, 2)


class TestStoppingTime:
    def test_homogeneous_third_base3(self, cantor):
        recs = stopping_records(cantor, WordStream(cantor, 1), 30, 3)
        assert [r.beta for r in recs] == list(range(1, 32))
        assert all(r.r == F(1, 3) for r in recs)

    def test_homogeneous_third_base2(self, cantor):
        rec = stopping_records(cantor, WordStream(cantor, 1), 1, 2)[1]
        assert rec.beta == 1 and rec.r == F(2, 3)

    def test_n_zero(self, three_systems):
        for system in three_systems.values():
            rec = stopping_records(system, WordStream(system, 5), 0, 2)[0]
            assert rec.beta == 1

    def test_mixed_explicit_word(self, mixed):
        rec = stopping_records(mixed, (2, 2, 2, 2), 1, 2)[1]
        assert rec.beta == 1 and rec.r == F(1, 2)

    def test_nondecreasing_and_minimal(self, cantor_records):
        betas = [r.beta for r in cantor_records]
        assert all(b1 <= b2 for b1, b2 in zip(betas, betas[1:]))
        for rec in cantor_records:
            assert rec.derivative_magnitude < F(1, 2) ** rec.n
            if rec.beta >= 2:
                # product one step earlier was still >= p^-n
                assert rec.derivative_magnitude / F(1, 3) >= F(1, 2) ** rec.n

    def test_lower_bound(self, cantor, cantor_records):
        for rec in cantor_records:
            assert rec.beta >= min_stopping_depth(cantor, rec.n, 2)

    def test_r_bounds(self, three_systems):
        for system in three_systems.values():
            smin = system.min_slope
            recs = stopping_records(system, WordStream(system, 13), 60, 3)
            for rec in recs:
                r = r_factor(rec)
                assert smin <= abs(r) < 1

    def test_min_depth_exactness(self, three_systems):
        import math
        for system in three_systems.values():
            smin = float(system.min_slope)
            for p in (2, 3, 5):
                for n in (0, 1, 7, 40):
                    lhs = min_stopping_depth(system, n, p)
                    want = math.ceil(n * math.log(p) / math.log(1 / smin))
                    assert abs(lhs - want) <= 1  # float ceiling ties only

    def test_invalid_p(self, cantor):
        with pytest.raises(InvalidInput):
            stopping_records(cantor, WordStream(cantor, 1), 3, 1)

    def test_short_word_exhausts(self, cantor):
        with pytest.raises(StreamExhausted):
            stopping_records(cantor, (1, 2), 50, 2)

    @pytest.mark.parametrize("bad", [0, -1, 3])
    @pytest.mark.parametrize("wrap", [tuple, FixedWord])
    def test_symbols_outside_the_alphabet_are_refused(self, cantor, bad,
                                                      wrap):
        # symbol 0 and -1 were both read as map 2, through triples[-1]
        word = (1, 2, 2, 1, 2) * 40
        for bad_word in [(bad,) + word, word[:2] + (bad,) + word]:
            with pytest.raises(InvalidInput, match="outside alphabet"):
                stopping_records(cantor, wrap(bad_word), 3, 3)

    def test_walk_cap_is_checked_before_the_walk(self, cantor):
        # n_max^2 log2(p) at most 2^30: the cap itself, and martingale's
        # default N-list in base 10 (a walk to 9999), pass the check and
        # then run out of the empty word
        with pytest.raises(StreamExhausted):
            stopping_records(cantor, (), 2 ** 15, 2)
        with pytest.raises(StreamExhausted):
            stopping_records(cantor, (), 2 ** 14, 16)
        with pytest.raises(StreamExhausted):
            stopping_records(cantor, (), 9999, 10)
        with pytest.raises(ConfigParseError):
            stopping_records(cantor, (), 2 ** 15 + 1, 2)
        with pytest.raises(ConfigParseError):
            stopping_records(cantor, (), 2 ** 14 + 1, 16)
        with pytest.raises(ConfigParseError):
            stopping_records(cantor, (), 10 ** 12, 10)

    def test_walk_cap_counts_the_bits_a_symbol_adds(self, slow):
        # a symbol of `slow` adds log2(1000) bits to C while the slope
        # shrinks by 999/1000, r = 6,904: a walk to n = 160 held 31.8 MB
        # and one to 32,768 was accepted
        with pytest.raises(StreamExhausted):
            stopping_records(slow, (), 394, 2)
        with pytest.raises(ConfigParseError, match="r <= .*, r = 6904"):
            stopping_records(slow, (), 395, 2)


class TestStoppingRecordFields:
    @pytest.mark.parametrize("name", ["cantor", "half", "mixed"])
    def test_properties_are_the_reduced_prefix_fractions(self, name,
                                                         three_systems):
        system = three_systems[name]
        stream = WordStream(system, 21)
        for p in (2, 3, 10):
            recs = stopping_records(system, stream, 40, p)
            word = stream.prefix(recs[-1].beta)
            for rec in recs:
                full = compose(system, word[:rec.beta])
                prev = compose(system, word[:rec.beta - 1])
                last = compose(system, word[rec.beta - 1:rec.beta])
                assert rec.derivative == full.slope
                assert rec.prev_derivative == prev.slope
                assert rec.last_slope == last.slope
                assert rec.r == p ** rec.n * full.slope
                assert rec.derivative_magnitude == abs(full.slope)
                for f in (rec.derivative, rec.prev_derivative, rec.r):
                    assert type(f) is Fraction
                # the phase numerator is p^n times the prefix offset, mod 1
                assert F(rec.X, rec.C) == p ** rec.n * full.offset % 1
                assert rec.C > 0

    def test_r_factor_rejects_bad_records(self, cantor, cantor_records):
        good = cantor_records[7]
        assert r_factor(good) == good.r
        # |r| >= 1: the stopping rule does not hold
        too_big = StoppingRecord(good.n, good.beta, good.p, good.C,
                                 3 * good.P, good.X, good.last_slope)
        with pytest.raises(InvalidInput, match="stopping rule"):
            r_factor(too_big)
        # the previous slope product already below p^-n: not minimal
        not_minimal = StoppingRecord(good.n, good.beta, good.p, good.C,
                                     good.P, good.X, F(1))
        with pytest.raises(InvalidInput, match="minimality"):
            r_factor(not_minimal)

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_walk_carries_the_phase_numerators(self, three_systems, data):
        systems = {**CHAIN_SYSTEMS, **three_systems}
        system = systems[data.draw(st.sampled_from(sorted(systems)))]
        p = data.draw(st.sampled_from([2, 3, 5, 10]))
        seed = data.draw(st.integers(0, 10 ** 6))
        n_max = data.draw(st.integers(0, 150))
        stream = WordStream(system, seed)
        records = stopping_records(system, stream, n_max, p)
        word = stream.prefix(records[-1].beta)
        # C is the uncancelled denominator: the product of each map's least
        # common denominator of slope and offset
        dens = [math.lcm(m.slope.denominator, m.offset.denominator)
                for m in system.maps]
        for rec in records:
            full = compose(system, word[:rec.beta])
            assert rec.C == math.prod(dens[s - 1] for s in word[:rec.beta])
            assert F(rec.P, rec.C) == p ** rec.n * full.slope
            assert F(rec.X, rec.C) == p ** rec.n * full.offset % 1
            assert 0 <= rec.X < rec.C


class TestCylinderMode:
    def test_q_zero_is_one(self, cantor, cantor_records):
        fv = cylinder_mode(cantor, cantor_records[5], 0)
        assert fv.value == 1.0

    def test_modulus_identity(self, cantor, cantor_records):
        for rec in cantor_records[:50]:
            for q in (1, 2, 3):
                cm = cylinder_mode(cantor, rec, q, tol=1e-8)
                fv = fourier_exact(cantor, q * rec.r, tol=1e-8)
                assert abs(cm.modulus - fv.modulus) <= 2e-8

    def test_half_system_closed_form(self, half):
        # slopes 1/2, p=2: r = 1/2 always, so the mode modulus is
        # |F_{q/2}| = |sin(pi q / 2)| / (pi q / 2); for odd q: 2 / (pi q)
        recs = stopping_records(half, WordStream(half, 3), 20, 2)
        for rec in recs[:10]:
            for q in (1, 3, 5):
                cm = cylinder_mode(half, rec, q, tol=1e-9)
                expected = 2.0 / (np.pi * q)
                assert cm.modulus == pytest.approx(expected, abs=1e-7)

    def test_mixed_system_exact_path(self, mixed):
        recs = stopping_records(mixed, WordStream(mixed, 30), 25, 2)
        for rec in recs[::5]:
            cm = cylinder_mode(mixed, rec, 2, tol=1e-7)
            fv = fourier_exact(mixed, 2 * rec.r, tol=1e-7)
            assert abs(cm.modulus - fv.modulus) <= 2e-7

    def test_non_integer_q_rejected(self, cantor, cantor_records):
        with pytest.raises(InvalidInput):
            cylinder_mode(cantor, cantor_records[0], 1.5)
        with pytest.raises(InvalidInput):
            cylinder_modes(cantor, cantor_records, [1, F(1, 2)])


class TestCylinderModesBatch:
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_float_chain_equals_scalar_chain_bit_for_bit(self, data):
        name = data.draw(st.sampled_from(sorted(CHAIN_SYSTEMS)))
        system = CHAIN_SYSTEMS[name]
        p = data.draw(st.sampled_from([2, 3, 5, 10]))
        seed = data.draw(st.integers(0, 10 ** 6))
        n_max = data.draw(st.integers(0, 120))
        stream = WordStream(system, seed)
        records = stopping_records(system, stream, n_max, p)
        word = stream.prefix(records[-1].beta)
        picks = data.draw(st.lists(st.integers(0, n_max), min_size=1,
                                   max_size=12))
        records = [records[i] for i in picks]
        qs = data.draw(st.lists(st.integers(-1100, 1100), min_size=1,
                                max_size=4))
        tol = data.draw(st.sampled_from([1e-3, 1e-6, 1e-9, 1e-12]))
        modes = cylinder_modes(system, records, qs, tol=tol)
        for k, q in enumerate(qs):
            for j, rec in enumerate(records):
                if abs(q * float(rec.r)) > 1024.0:
                    continue   # past the chain cutoff: exact path
                offset = compose(system, word[:rec.beta]).offset
                want, bound = scalar_chain_mode(system, rec.n, p,
                                                rec.derivative, offset, q,
                                                tol)
                assert _bits(modes.values[k, j]) == _bits(want)
                assert modes.error_bounds[k, j] == bound
                assert modes.nodes[k, j] == 0
                assert not modes.budget_exceeded[k, j]

    def test_signed_zeros_match(self):
        # q = 0 and quarter phases produce exact zeros in the products
        system = CHAIN_SYSTEMS["flip"]
        stream = WordStream(system, 4)
        records = stopping_records(system, stream, 30, 2)
        word = stream.prefix(records[-1].beta)
        qs = [0, 1, -1, 2, 4]
        modes = cylinder_modes(system, records, qs, tol=1e-9)
        for k, q in enumerate(qs):
            for j, rec in enumerate(records):
                offset = compose(system, word[:rec.beta]).offset
                want, _ = scalar_chain_mode(system, rec.n, 2, rec.derivative,
                                            offset, q, 1e-9)
                assert _bits(modes.values[k, j]) == _bits(want)

    def test_one_record_case_is_cylinder_mode(self, cantor, mixed):
        for system in (cantor, mixed):
            records = stopping_records(system, WordStream(system, 3), 25, 2)
            qs = [0, 1, 3, 5000]
            modes = cylinder_modes(system, records, qs, tol=1e-7)
            for k, q in enumerate(qs):
                for j, rec in enumerate(records):
                    fv = cylinder_mode(system, rec, q, tol=1e-7)
                    assert _bits(fv.value) == _bits(modes.values[k, j])
                    assert fv.error_bound == modes.error_bounds[k, j]
                    assert fv.frequency == q
                    assert type(fv.real) is float

    def test_exact_path_uses_fourier_exact(self, mixed):
        records = stopping_records(mixed, WordStream(mixed, 8), 12, 3)
        cache: dict = {}
        modes = cylinder_modes(mixed, records, [2], tol=1e-8, cache=cache)
        assert cache and all(type(k) is tuple for k in cache)
        for j, rec in enumerate(records):
            fv = fourier_exact(mixed, 2 * rec.r, tol=1e-8)
            assert abs(abs(modes.values[0, j]) - fv.modulus) <= 2e-8
            assert modes.error_bounds[0, j] <= 1e-8
        assert modes.nodes.sum() == len(cache)

    @pytest.mark.parametrize("budget", [5, 10 ** 7])
    @pytest.mark.parametrize("name", sorted(EXACT_SYSTEMS))
    def test_exact_modes_equal_the_per_mode_loop(self, name, budget):
        # the per-mode reference: one ratio_phase and one fourier_exact per
        # (q, record), q outer, with the dyadic rounding of huge denominators
        system, n_max = EXACT_SYSTEMS[name]
        records = stopping_records(system, WordStream(system, 4), n_max, 2)
        qs = [1, -3, 7]
        support = max(abs(float(system.hull[0])), abs(float(system.hull[1])),
                      1.0)
        rounded = 0
        for cache, loop_cache in ((None, None), ({}, {})):
            modes = cylinder_modes(system, records, qs, tol=1e-6, cache=cache,
                                   budget=budget)
            for k, q in enumerate(qs):
                for j, rec in enumerate(records):
                    u, extra = F(q * rec.P, rec.C), 0.0
                    if u.denominator.bit_length() > 64:
                        top, rem = divmod(u.numerator << 48, u.denominator)
                        u = F(top + (2 * rem >= u.denominator), 1 << 48)
                        extra = 2.0 * math.pi * 2.0 ** -49
                        rounded += 1
                    fv = fourier_exact(system, u, tol=1e-6, budget=budget,
                                       cache=loop_cache)
                    want = ratio_phase(q * rec.X, rec.C) * fv.value
                    assert _bits(modes.values[k, j]) == _bits(want)
                    assert modes.error_bounds[k, j] == (fv.error_bound
                                                        + extra * support)
                    assert modes.nodes[k, j] == fv.nodes
                    assert modes.budget_exceeded[k, j] == fv.budget_exceeded
        assert rounded
        assert {F(*k) for k in cache} == {F(*k) for k in loop_cache}

    def test_budget_flag_passes_through(self, mixed):
        records = stopping_records(mixed, WordStream(mixed, 8), 6, 2)
        modes = cylinder_modes(mixed, records, [10 ** 5], tol=1e-12,
                               budget=5)
        assert modes.budget_exceeded.all()
        assert (modes.nodes > 0).all()
        assert (modes.error_bounds > 1e-12).all()

    def test_chains_past_the_step_cap_take_the_exact_path(self):
        # slope 999/1000: at tol 1e-2 a chain at |u| near 1 needs about 5,750
        # steps, past the float chain's 4,000; q = 0 is done at once
        system = make_system([("999/1000", "0"), ("999/1000", "1/1000")])
        records = stopping_records(system, WordStream(system, 0), 1, 2)
        modes = cylinder_modes(system, records, [0, 1], tol=1e-2)
        assert modes.values[0].tolist() == [1, 1]
        assert (modes.nodes[0] == 0).all() and (modes.nodes[1] > 4000).all()
        for j, rec in enumerate(records):
            u, extra = F(rec.P, rec.C), 0.0
            if u.denominator.bit_length() > 64:   # the record at n = 1
                top, rem = divmod(u.numerator << 48, u.denominator)
                u = F(top + (2 * rem >= u.denominator), 1 << 48)
                extra = 2.0 * math.pi * 2.0 ** -49
            fv = fourier_exact(system, u, tol=1e-2)
            want = ratio_phase(rec.X, rec.C) * fv.value
            assert _bits(modes.values[1, j]) == _bits(want)
            assert modes.error_bounds[1, j] == fv.error_bound + extra
            assert modes.nodes[1, j] == fv.nodes

    @pytest.mark.parametrize("tol", [0.0, -1e-6, math.nan])
    def test_invalid_tol_rejected(self, cantor, cantor_records, tol):
        with pytest.raises(InvalidInput):
            cylinder_modes(cantor, cantor_records, [1], tol=tol)

    def test_empty_batches(self, cantor, cantor_records):
        assert cylinder_modes(cantor, [], [1, 2]).values.shape == (2, 0)
        assert cylinder_modes(cantor, cantor_records, []).values.shape == (
            0, len(cantor_records))


class TestMartingaleGap:
    def test_q_zero_gap_vanishes(self, cantor):
        gs = martingale_gaps(cantor, seed=2, qs=[0], n_list=[10, 100], p=2)[0]
        assert all(g == 0.0 for g in gs.gaps)

    def test_gap_bounded(self, cantor):
        gs = martingale_gaps(cantor, seed=5, qs=[3], n_list=[50, 200], p=2)[0]
        assert all(0.0 <= g <= 2.0 for g in gs.gaps)

    def test_cantor_gap_shrinks(self, cantor):
        gs = martingale_gaps(cantor, seed=1, qs=[1],
                             n_list=[100, 2000], p=2)[0]
        assert gs.gaps[-1] <= 0.25
        assert gs.gaps[-1] <= gs.gaps[0] + 0.05

    def test_lebesgue_case(self, half):
        gs = martingale_gaps(half, seed=6, qs=[1], n_list=[1000], p=2)[0]
        assert gs.gaps[0] <= 0.1

    def test_batched_matches_single(self, cantor):
        pair = martingale_gaps(cantor, seed=8, qs=[1, 2], n_list=[200], p=2)
        single = martingale_gaps(cantor, seed=8, qs=[2], n_list=[200], p=2)[0]
        assert pair[1].gaps == single.gaps

    def test_same_word_drives_both_sides(self, cantor):
        # the record walk and the digit stream must consume one stream:
        # a reseeded run reproduces everything bit for bit
        a = martingale_gaps(cantor, seed=11, qs=[1], n_list=[500], p=2)[0]
        b = martingale_gaps(cantor, seed=11, qs=[1], n_list=[500], p=2)[0]
        assert a.empirical == b.empirical and a.cylinder == b.cylinder

    def test_bad_n_list(self, cantor):
        with pytest.raises(InvalidInput):
            martingale_gaps(cantor, seed=1, qs=[1], n_list=[], p=2)
