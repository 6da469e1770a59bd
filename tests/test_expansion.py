import pytest
from math import gcd

from hypothesis import given, strategies as st

from quadclass import expansion
from quadclass.arith import euler_phi, multiplicative_order
from quadclass.discriminant import MAX_N, from_discriminant, quad_char
from quadclass.errors import (
    InvalidModulusError,
    ModulusTooLargeError,
    NormalizationUndefinedError,
    NotCoprimeError,
)
from quadclass.expansion import (
    all_cycles,
    digit_closed_form,
    expand,
    normalize_cycle,
)

from helpers import digits_until_repeat


class TestExpand:
    def test_one_seventh_base_ten(self):
        per = expand(1, 10, 7)
        assert per.digits == (1, 4, 2, 8, 5, 7)
        assert per.cycle == (1, 3, 2, 6, 4, 5)
        assert per.e == 6
        assert str(per) == "0.(1 4 2 8 5 7)_10"

    def test_one_fifteenth_base_seven(self):
        per = expand(1, 7, 15)
        assert per.digits == (0, 3, 1, 6)
        assert per.cycle == (1, 7, 4, 13)

    def test_period_is_multiplicative_order(self):
        for n in (7, 15, 41, 56):
            for base in range(2, 14):
                if gcd(base, n) != 1:
                    continue
                assert expand(1, base, n).e == multiplicative_order(base, n)

    def test_matches_repeat_detection(self):
        for n in (7, 15, 40, 43, 56, 163):
            for base in range(2, 14):
                if gcd(base, n) != 1:
                    continue
                for x in range(1, n):
                    if gcd(x, n) != 1:
                        continue
                    per = expand(x, base, n)
                    digits, cycle = digits_until_repeat(x, base, n)
                    assert per.digits == tuple(digits)
                    assert per.cycle == tuple(cycle)

    def test_digits_in_range(self):
        for n in (7, 15, 56):
            for base in (2, 3, 13):
                if gcd(base, n) != 1:
                    continue
                per = expand(1, base, n)
                assert all(0 <= a < base for a in per.digits)

    @given(st.integers(2, 13), st.integers(3, 400), st.integers(1, 400))
    def test_cycle_members_expand_to_rotations(self, base, n, i):
        if gcd(base, n) != 1:
            return
        per = expand(1, base, n)
        i %= per.e
        other = expand(per.cycle[i], base, n)
        assert other.digits == per.digits[i:] + per.digits[:i]
        assert other.cycle == per.cycle[i:] + per.cycle[:i]


class TestDigitClosedForm:
    def test_matches_expand_exhaustive_small(self):
        for n in (7, 15, 40, 43):
            for base in range(2, 14):
                if gcd(base, n) != 1:
                    continue
                for x in range(1, n):
                    if gcd(x, n) != 1:
                        continue
                    per = expand(x, base, n)
                    got = [digit_closed_form(x, i, base, n) for i in range(1, per.e + 1)]
                    assert tuple(got) == per.digits

    def test_periodic_in_i(self):
        per = expand(1, 10, 7)
        for i in range(1, 7):
            assert digit_closed_form(1, i + per.e, 10, 7) == digit_closed_form(1, i, 10, 7)
            assert digit_closed_form(1, i + 5 * per.e, 10, 7) == digit_closed_form(1, i, 10, 7)

    def test_errors(self):
        with pytest.raises(ValueError):
            digit_closed_form(1, 0, 10, 7)
        with pytest.raises(NotCoprimeError):
            digit_closed_form(3, 1, 10, 15)
        with pytest.raises(InvalidModulusError):
            expand(1, 10, 1)
        with pytest.raises(ValueError, match="at least 2"):
            expand(1, 1, 7)
        with pytest.raises(ValueError, match=r"numerator 0 outside \[1, 7\]"):
            expand(0, 10, 7)
        with pytest.raises(ValueError, match=r"numerator 8 outside \[1, 7\]"):
            digit_closed_form(8, 1, 10, 7)


class TestAllCycles:
    def test_partition_small(self):
        cs = all_cycles(4, 15)
        assert cs.f == 4 and cs.e == 2
        assert [c.cycle for c in cs.cycles] == [(1, 4), (2, 8), (7, 13), (11, 14)]

    def test_partition_properties(self):
        for n in (7, 15, 40, 43, 56, 105):
            for base in range(2, 14):
                if gcd(base, n) != 1:
                    continue
                cs = all_cycles(base, n)
                members = [y for c in cs.cycles for y in c.cycle]
                assert len(members) == len(set(members)) == euler_phi(n)
                assert set(members) == {x for x in range(1, n) if gcd(x, n) == 1}
                assert cs.f * cs.e == euler_phi(n)
                for c in cs.cycles:
                    assert c.e == cs.e
                    assert c.x1 == min(c.cycle)

    def test_representatives_ascend(self):
        cs = all_cycles(7, 15)
        reps = [c.x1 for c in cs.cycles]
        assert reps == sorted(reps)


class TestSizeLimit:
    def test_modulus_above_max_n_refused_first(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("reached past the size check")

        # Neither call may find an order, allocate its N + 1 marks or expand a cycle.
        monkeypatch.setattr(expansion, "multiplicative_order", refuse)
        monkeypatch.setattr(expansion, "bytearray", refuse, raising=False)
        with pytest.raises(ModulusTooLargeError, match=f"MAX_N={MAX_N}"):
            expand(1, 10, MAX_N + 1)
        monkeypatch.setattr(expansion, "expand", refuse)
        with pytest.raises(ModulusTooLargeError, match=f"MAX_N={MAX_N}"):
            all_cycles(10, MAX_N + 1)


class TestNormalizeCycle:
    def test_example(self):
        d = from_discriminant(-15)
        char = quad_char(d)
        per = expand(7, 7, 15)  # starts at a chi = -1 element
        norm = normalize_cycle(per, char)
        assert norm.x1 == 1
        assert norm.digits == (0, 3, 1, 6)
        assert char.eval(norm.x1) == 1

    def test_rotation_invariance(self):
        # Same normalized cycle from any starting member.
        for D in (-15, -23, -40, -43):
            d = from_discriminant(D)
            char = quad_char(d)
            for base in range(2, 14):
                if gcd(base, d.N) != 1 or char.eval(base) != -1:
                    continue
                for c in all_cycles(base, d.N).cycles:
                    norms = {normalize_cycle(expand(y, base, d.N), char) for y in c.cycle}
                    assert len(norms) == 1

    def test_starts_at_smallest_plus_member(self):
        for D in (-15, -43, -56):
            d = from_discriminant(D)
            char = quad_char(d)
            for base in range(2, 14):
                if gcd(base, d.N) != 1 or char.eval(base) != -1:
                    continue
                for c in all_cycles(base, d.N).cycles:
                    norm = normalize_cycle(c, char)
                    plus = [y for y in c.cycle if char.eval(y) == 1]
                    assert norm.x1 == min(plus)
                    assert sorted(norm.cycle) == sorted(c.cycle)

    def test_undefined_when_chi_positive(self):
        d = from_discriminant(-15)
        per = expand(1, 4, 15)  # chi(4) = +1
        with pytest.raises(NormalizationUndefinedError):
            normalize_cycle(per, quad_char(d))

    def test_modulus_mismatch(self):
        per = expand(1, 10, 7)
        with pytest.raises(ValueError):
            normalize_cycle(per, quad_char(from_discriminant(-15)))
