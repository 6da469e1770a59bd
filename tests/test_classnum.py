import pytest
from fractions import Fraction
from math import gcd

from quadclass.classnum import (
    alternating_digit_sum,
    ek_table,
    eta,
    h_cycle_contribution,
    h_dirichlet,
    h_floor_formula,
    h_from_ek,
    h_from_ek_factored,
    h_girstmair,
    h_theorem1,
    lambda_map,
    xi,
)
from quadclass.discriminant import from_discriminant, quad_char
from quadclass.errors import (
    ExcludedDiscriminantError,
    InvalidFactorizationError,
    NotCoprimeError,
    WrongParityError,
)
from quadclass.expansion import ExpansionPeriod, all_cycles, expand

from helpers import ek_by_binning, fundamentals_with_n_up_to, h_by_reduced_forms

GOLDEN_H = {-7: 1, -8: 1, -11: 1, -15: 2, -23: 3, -39: 4, -40: 2, -43: 1, -56: 4}


class TestDirichlet:
    def test_golden_values(self):
        for D, h in GOLDEN_H.items():
            result = h_dirichlet(from_discriminant(D))
            assert result.h == h, D
            assert result.method == "dirichlet"

    def test_raw_sums(self):
        # sum chi(x) x is -N h.
        assert h_dirichlet(from_discriminant(-23)).raw_sum == -69
        assert h_dirichlet(from_discriminant(-11)).raw_sum == -11
        assert h_dirichlet(from_discriminant(-15)).raw_sum == -30

    def test_matches_reduced_forms(self):
        for disc in fundamentals_with_n_up_to(700):
            assert h_dirichlet(disc).h == h_by_reduced_forms(disc.D), disc.D


class TestCycleContributions:
    def test_plus_case_exact_fractions(self):
        d = from_discriminant(-15)
        char = quad_char(d)
        contributions = [h_cycle_contribution(c, char) for c in all_cycles(4, 15).cycles]
        assert contributions == [
            Fraction(-1, 3),  # cycle (1, 4), chi(C) = +1, digit sum 1
            Fraction(-2, 3),  # cycle (2, 8), chi(C) = +1, digit sum 2
            Fraction(4, 3),  # cycle (7, 13), chi(C) = -1, digit sum 4
            Fraction(5, 3),  # cycle (11, 14), chi(C) = -1, digit sum 5
        ]
        assert sum(contributions) == 2

    def test_minus_case_normalizes_internally(self):
        d = from_discriminant(-15)
        char = quad_char(d)
        for start in (1, 7, 4, 13):
            per = expand(start, 7, 15)
            assert h_cycle_contribution(per, char) == 1

    def test_modulus_mismatch(self):
        per = expand(1, 10, 7)
        with pytest.raises(ValueError):
            h_cycle_contribution(per, quad_char(from_discriminant(-15)))

    def test_shared_factor(self):
        # expand refuses a base that shares a factor with N, so the period is built by
        # hand: 1/15 = 0.0(13)_5 is not purely periodic, and chi_{-15}(5) = 0.
        per = ExpansionPeriod(x1=1, base=5, n=15, digits=(1, 3), cycle=(1, 5))
        with pytest.raises(NotCoprimeError, match=r"gcd\(5, 15\) > 1"):
            h_cycle_contribution(per, quad_char(from_discriminant(-15)))


class TestTheorem1:
    def test_raw_sums_frozen(self):
        d = from_discriminant(-15)
        minus = h_theorem1(d, 7)  # chi(7) = -1: (B + 1) h = 16
        assert (minus.h, minus.raw_sum) == (2, 16)
        plus = h_theorem1(d, 4)  # chi(4) = +1: (B - 1) h = 6
        assert (plus.h, plus.raw_sum) == (2, 6)

    def test_golden_all_bases(self):
        for D, h in GOLDEN_H.items():
            d = from_discriminant(D)
            for base in range(2, 14):
                if gcd(base, d.N) == 1:
                    assert h_theorem1(d, base).h == h, (D, base)

    def test_rejects_shared_factor(self):
        with pytest.raises(NotCoprimeError):
            h_theorem1(from_discriminant(-15), 5)


class TestFloorFormula:
    def test_small_frozen(self):
        result = h_floor_formula(from_discriminant(-7), 2)
        assert (result.h, result.raw_sum) == (1, 1)  # (B - chi(B)) h = (2 - 1) 1

    def test_golden_all_bases(self):
        for D, h in GOLDEN_H.items():
            d = from_discriminant(D)
            for base in range(2, 14):
                if gcd(base, d.N) == 1:
                    result = h_floor_formula(d, base)
                    assert result.h == h, (D, base)
                    s = quad_char(d).eval(base)
                    assert result.raw_sum == (base - s) * h


class TestEkTable:
    def test_base6_for_minus_43(self):
        t = ek_table(from_discriminant(-43), 6)
        assert t.entries == (-1, 3, 1, -1, -3, 1)
        assert t.pos_counts == (3, 5, 4, 3, 2, 4)
        assert t.neg_counts == (4, 2, 3, 4, 5, 3)
        assert t.boundaries == tuple(Fraction(43 * k, 6) for k in range(7))

    def test_base12_for_minus_43(self):
        t = ek_table(from_discriminant(-43), 12)
        assert t.entries == (-1, 0, 1, 2, 3, -2, 2, -3, -2, -1, 0, 1)

    def test_matches_direct_binning(self):
        for disc in fundamentals_with_n_up_to(400):
            vals = quad_char(disc).values()
            for base in range(2, 14):
                if gcd(base, disc.N) != 1:
                    continue
                t = ek_table(disc, base)
                entries, pos, neg = ek_by_binning(vals, disc.N, base)
                assert t.entries == tuple(entries), (disc.D, base)
                assert t.pos_counts == tuple(pos)
                assert t.neg_counts == tuple(neg)

    def test_counts_are_consistent(self):
        t = ek_table(from_discriminant(-40), 7)
        for k in range(7):
            assert t.entries[k] == t.pos_counts[k] - t.neg_counts[k]

    def test_rejects_shared_factor(self):
        with pytest.raises(NotCoprimeError):
            ek_table(from_discriminant(-40), 4)


class TestHFromEk:
    def test_small_frozen(self):
        result = h_from_ek(from_discriminant(-43), 6)
        assert (result.h, result.raw_sum) == (1, 5)  # 5*(-1) + 3*3 + 1*1 = 5 = (6 - 1) h

    def test_golden_all_bases(self):
        for D, h in GOLDEN_H.items():
            d = from_discriminant(D)
            for base in range(2, 14):
                if gcd(base, d.N) == 1:
                    assert h_from_ek(d, base).h == h, (D, base)


class TestHFromEkFactored:
    def test_regrouping_matches_coarse_table(self):
        # Block sums of the fine table are the coarse table entries.
        for D in (-15, -40, -43, -56):
            d = from_discriminant(D)
            for base in (4, 6, 8, 9, 10, 12):
                if gcd(base, d.N) != 1:
                    continue
                fine = ek_table(d, base).entries
                for b1 in range(2, base):
                    if base % b1:
                        continue
                    b2 = base // b1
                    coarse = ek_table(d, b1).entries
                    blocks = tuple(sum(fine[j * b2 : (j + 1) * b2]) for j in range(b1))
                    assert blocks == coarse, (D, base, b1)

    def test_small_frozen(self):
        result = h_from_ek_factored(from_discriminant(-43), 12, 2)
        assert (result.h, result.raw_sum) == (1, 3)  # chi(2) = -1: (2 + 1) h = 3

    def test_degenerate_b1_equals_b(self):
        d = from_discriminant(-43)
        assert h_from_ek_factored(d, 6, 6).raw_sum == h_from_ek(d, 6).raw_sum

    def test_golden_all_divisor_pairs(self):
        for D, h in GOLDEN_H.items():
            d = from_discriminant(D)
            for base in range(2, 14):
                if gcd(base, d.N) != 1:
                    continue
                for b1 in range(2, base + 1):
                    if base % b1 == 0:
                        assert h_from_ek_factored(d, base, b1).h == h, (D, base, b1)

    def test_invalid_factorizations(self):
        d = from_discriminant(-43)
        for b1 in (1, 0, -2, 5, 7, 24):
            with pytest.raises(InvalidFactorizationError):
                h_from_ek_factored(d, 12, b1)


class TestGirstmair:
    def test_p7_base10(self):
        result = h_girstmair(7, 10)
        assert result.h == 1
        assert result.raw_sum == 11  # -1+4-2+8-5+7 over digits 142857
        assert result.disc.D == -7

    def test_p11_base2(self):
        result = h_girstmair(11, 2)
        assert (result.h, result.raw_sum) == (1, 3)
        assert expand(1, 2, 11).digits == (0, 0, 0, 1, 0, 1, 1, 1, 0, 1)

    def test_default_base_is_least_primitive_root(self):
        assert h_girstmair(7).h == h_girstmair(7, 3).h == 1

    def test_matches_dirichlet(self):
        for p in (7, 11, 19, 23, 31, 43, 47, 59):
            assert h_girstmair(p).h == h_dirichlet(from_discriminant(-p)).h

    def test_errors(self):
        with pytest.raises(ValueError):
            h_girstmair(9)  # not prime
        with pytest.raises(ValueError):
            h_girstmair(5)  # wrong class mod 4
        with pytest.raises(ExcludedDiscriminantError):
            h_girstmair(3)
        with pytest.raises(ValueError):
            h_girstmair(7, 2)  # order(2 mod 7) = 3, not primitive


class TestAlternatingDigitSum:
    def test_convention(self):
        # Indexing starts at 1, so the first digit enters negatively.
        assert alternating_digit_sum((1, 4, 2, 8, 5, 7)) == 11
        assert alternating_digit_sum(()) == 0
        assert alternating_digit_sum((3,)) == -3


class TestInvolutions:
    def test_frozen_examples(self):
        assert eta(1, 40) == 21
        assert eta(39, 40) == 19
        assert lambda_map(1, 40) == 19
        assert lambda_map(21, 40) == 39
        assert xi(1, 40) == 39
        assert xi(4, 15) == 11

    def test_xi_involution_all_n(self):
        for n in (7, 15, 40, 56):
            for x in range(1, n):
                if gcd(x, n) == 1:
                    y = xi(x, n)
                    assert gcd(y, n) == 1 and 1 <= y < n
                    assert xi(y, n) == x

    def test_eta_lambda_involutions(self):
        for n in (8, 40, 56, 84):
            for x in range(1, n):
                if gcd(x, n) == 1:
                    assert eta(eta(x, n), n) == x
                    assert lambda_map(lambda_map(x, n), n) == x
                    assert lambda_map(x, n) == xi(eta(x, n), n) == eta(xi(x, n), n)

    def test_lambda_preserves_halves(self):
        for n in (40, 56):
            for x in range(1, n):
                if gcd(x, n) == 1:
                    assert (x < n // 2) == (lambda_map(x, n) < n // 2)

    def test_parity_errors(self):
        with pytest.raises(WrongParityError):
            eta(1, 15)
        with pytest.raises(WrongParityError):
            lambda_map(1, 15)
        with pytest.raises(NotCoprimeError):
            xi(5, 15)
