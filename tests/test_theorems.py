import pytest

from quadclass.classnum import ek_table, h_dirichlet
from quadclass.discriminant import from_discriminant, quad_char
from quadclass.errors import DivisibleByThreeError, WrongParityError
from quadclass.theorems import (
    check_b2,
    check_b4,
    check_b6,
    check_b12,
    check_s1_s2,
    classify,
    h_abs_sixth,
    h_quarter_sum,
)

from helpers import fundamentals_with_n_up_to


class TestClassify:
    def test_residue_table(self):
        for D, residue, chi2, chi3 in [
            (-23, 23, 1, 1),
            (-11, 11, -1, 1),
            (-7, 7, 1, -1),
            (-43, 19, -1, -1),
        ]:
            cls = classify(from_discriminant(D))
            assert (cls.residue, cls.chi2, cls.chi3) == (residue, chi2, chi3)

    def test_tabled_values_match_character(self):
        for disc in fundamentals_with_n_up_to(1000):
            if disc.N % 2 == 0 or disc.N % 3 == 0:
                continue
            cls = classify(disc)
            char = quad_char(disc)
            assert cls.chi2 == char.eval(2)
            assert cls.chi3 == char.eval(3)
            assert cls.chi2 * cls.chi3 == char.eval(6)

    def test_errors(self):
        with pytest.raises(WrongParityError):
            classify(from_discriminant(-40))
        with pytest.raises(DivisibleByThreeError):
            classify(from_discriminant(-15))


class TestOddTables:
    def test_b2_golden(self):
        c = check_b2(from_discriminant(-39))  # N = 39 = 7 (mod 8): E0 = h
        assert c.passed and c.observed == {"E0": 4}
        c = check_b2(from_discriminant(-43))  # N = 43 = 3 (mod 8): E0 = 3h
        assert c.passed and c.observed == {"E0": 3}

    def test_b4_golden(self):
        c = check_b4(from_discriminant(-39))
        assert c.passed and c.observed == {"E0": 4, "E1": 0}
        c = check_b4(from_discriminant(-43))
        assert c.passed and c.observed == {"E0": 0, "E1": 3}

    def test_b6_golden(self):
        c = check_b6(from_discriminant(-43))
        assert c.passed and c.observed == {"E0": -1, "E1": 3, "E2": 1}

    def test_b6_applies_to_multiple_of_three_never(self):
        with pytest.raises(DivisibleByThreeError):
            check_b6(from_discriminant(-15))

    def test_sixth_golden(self):
        assert h_abs_sixth(from_discriminant(-43)).h == 1
        assert h_abs_sixth(from_discriminant(-7)).h == 1
        assert h_abs_sixth(from_discriminant(-23)).h == 3

    def test_b12_golden(self):
        d = from_discriminant(-43)
        e0 = ek_table(d, 12).entries[0]
        assert e0 == -1
        c = check_b12(d, 1, e0)
        assert c.passed
        assert c.observed == {"E1": 0, "E2": 1, "E3": 2, "E4": 3, "E5": -2}

    def test_b12_detects_wrong_h(self):
        d = from_discriminant(-43)
        assert not check_b12(d, 2, -1).passed

    def test_parity_errors(self):
        even = from_discriminant(-40)
        with pytest.raises(WrongParityError):
            check_b2(even)
        with pytest.raises(WrongParityError):
            check_b4(even)
        with pytest.raises(WrongParityError):
            h_abs_sixth(even)
        with pytest.raises(WrongParityError):
            check_b12(even, 2, 0)


class TestEvenTables:
    def test_quarter_golden(self):
        assert h_quarter_sum(from_discriminant(-40)).h == 2
        assert h_quarter_sum(from_discriminant(-56)).h == 4
        assert h_quarter_sum(from_discriminant(-8)).h == 1

    def test_s1_s2_golden(self):
        c = check_s1_s2(from_discriminant(-40))  # D = 2 (mod 3): (0, h)
        assert c.passed and c.observed == {"S1": 0, "S2": 2}
        c = check_s1_s2(from_discriminant(-56))  # D = 1 (mod 3): (h, 0)
        assert c.passed and c.observed == {"S1": 4, "S2": 0}

    def test_chi3_decides_which_side(self):
        for disc in fundamentals_with_n_up_to(600):
            if disc.case.value == "Odd" or disc.N % 3 == 0:
                continue
            assert (quad_char(disc).eval(3) == 1) == (disc.D % 3 == 1)

    def test_errors(self):
        with pytest.raises(WrongParityError):
            h_quarter_sum(from_discriminant(-7))
        with pytest.raises(WrongParityError):
            check_s1_s2(from_discriminant(-7))
        with pytest.raises(DivisibleByThreeError):
            check_s1_s2(from_discriminant(-24))


class TestSmallSweep:
    def test_all_checks_up_to_500(self):
        for disc in fundamentals_with_n_up_to(500):
            h = h_dirichlet(disc).h
            if disc.case.value == "Odd":
                assert check_b2(disc).passed, disc
                assert check_b4(disc).passed, disc
                if disc.N % 3:
                    assert check_b6(disc).passed, disc
                    assert h_abs_sixth(disc).h == h, disc
                    e0 = ek_table(disc, 12).entries[0]
                    assert check_b12(disc, h, e0).passed, disc
            else:
                assert h_quarter_sum(disc).h == h, disc
                if disc.N % 3:
                    assert check_s1_s2(disc).passed, disc
