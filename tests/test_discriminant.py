import builtins
import pytest
import sys
import tracemalloc
from math import gcd, isqrt

from sympy import primepi, primerange, totient

from quadclass import discriminant
from quadclass.discriminant import (
    MAX_N,
    Case,
    QuadChar,
    from_discriminant,
    quad_char,
)
from quadclass.errors import (
    ExcludedDiscriminantError,
    InternalError,
    ModulusTooLargeError,
    NotFundamentalError,
)

from helpers import (
    chi4,
    chi8,
    chi_by_reciprocity,
    chi_kronecker,
    fundamentals_with_n_up_to,
    is_fundamental,
    legendre_by_squares,
)


class TestFromDiscriminant:
    def test_case_classification(self):
        for D, n, m, case in [
            (-7, 7, -7, Case.ODD),
            (-15, 15, -15, Case.ODD),
            (-43, 43, -43, Case.ODD),
            (-20, 20, -5, Case.D1),
            (-8, 8, -2, Case.D3),
            (-24, 24, -6, Case.D2),
            (-40, 40, -10, Case.D3),
            (-56, 56, -14, Case.D2),
            (-84, 84, -21, Case.D1),
        ]:
            disc = from_discriminant(D)
            assert (disc.D, disc.N, disc.m, disc.case) == (D, n, m, case)

    def test_excluded(self):
        with pytest.raises(ExcludedDiscriminantError):
            from_discriminant(-3)
        with pytest.raises(ExcludedDiscriminantError):
            from_discriminant(-4)

    def test_not_fundamental(self):
        for D in (-12, -9, -45, -75, -32, -27, -18, -1, -2, 0, 5, -100):
            with pytest.raises(NotFundamentalError):
                from_discriminant(D)

    def test_matches_independent_filter(self):
        for D in range(-1, -2001, -1):
            try:
                from_discriminant(D)
                ok = True
            except (NotFundamentalError, ExcludedDiscriminantError):
                ok = False
            assert ok == is_fundamental(D), D


class TestSizeLimit:
    def test_limit_is_on_n_and_comes_first(self):
        assert MAX_N == 10**7
        assert from_discriminant(-1000003).N == 1000003
        # -(MAX_N + 1) = 3 (mod 4) is no discriminant, but the size is checked first.
        with pytest.raises(ModulusTooLargeError, match="MAX_N"):
            from_discriminant(-MAX_N - 1)
        assert issubclass(ModulusTooLargeError, ValueError)


class TestChi4Chi8:
    # The factors of the reciprocity oracle in tests/helpers.py.
    def test_tables(self):
        assert [chi4(x) for x in (1, 3, 5, 7)] == [1, -1, 1, -1]
        assert [chi8(x) for x in (1, 3, 5, 7)] == [1, -1, -1, 1]
        assert chi4(-3) == chi4(1) == 1
        assert chi8(9) == 1 and chi8(-1) == 1

    def test_period(self):
        for x in range(-20, 21):
            if x % 2:
                assert chi4(x) == chi4(x + 4)
                assert chi8(x) == chi8(x + 8)

    def test_even_argument_rejected(self):
        with pytest.raises(ValueError):
            chi4(2)
        with pytest.raises(ValueError):
            chi8(0)


class TestLegendreRow:
    def test_matches_squares_below_5000(self):
        for p in primerange(3, 5000):
            assert discriminant._legendre_row(p) == legendre_by_squares(p), p

    @pytest.mark.parametrize("p", [250013, 1000033, 9999973, 300007, 1000003, 2499997])
    def test_matches_squares_at_large_p(self, p):
        # p = 1 and 3 (mod 4): the base extends to [-m, 0) with chi(-1) = +1 and -1;
        # 2499997 = 5 (mod 8) has (2/p) = -1.
        assert discriminant._legendre_row(p) == legendre_by_squares(p)

    @pytest.mark.parametrize("p", [300007, 1000003])
    def test_euler_criterion_only_below_sqrt_p(self, monkeypatch, p):
        # Above isqrt(p) chi(q) is read off the row, so the only powers left are the
        # reciprocity steps mod the odd q <= sqrt(p): at most pi(isqrt(p)) of them.
        calls = []
        monkeypatch.setattr(
            discriminant, "pow", lambda *a: calls.append(a) or builtins.pow(*a), raising=False
        )
        assert discriminant._legendre_row(p) == legendre_by_squares(p)
        assert 0 < len(calls) <= primepi(isqrt(p))

    @pytest.mark.parametrize(
        "skipped",
        [
            pytest.param(lambda k, b: b, id="every-interval"),  # only [0, m] and [p - m, p)
            pytest.param(lambda k, b: b if b == 2 else 1, id="around-p/2"),
        ],
    )
    def test_gap_in_cover_is_caught(self, monkeypatch, skipped):
        # An interval around kp/b is copied only when gcd(k, b) = 1; a gcd that says
        # otherwise leaves x uncovered, 0 in the row, and the certificate must see it.
        monkeypatch.setattr(discriminant, "gcd", skipped)
        with pytest.raises(InternalError, match="p=1019 "):
            discriminant._legendre_row(1019)
        with pytest.raises(InternalError, match="p=1019 "):
            QuadChar(from_discriminant(-1019)).values()

    def test_short_row_is_caught(self, monkeypatch):
        real = discriminant._legendre_row
        monkeypatch.setattr(discriminant, "_legendre_row", lambda p, tail=0: real(p, tail)[:-1])
        with pytest.raises(InternalError, match=r"^character row of period 6 at D=-7$"):
            QuadChar(from_discriminant(-7)).values()


class TestCharacter:
    def test_known_values(self):
        d40 = from_discriminant(-40)
        d56 = from_discriminant(-56)
        d43 = from_discriminant(-43)
        assert quad_char(d40).eval(3) == -1
        assert quad_char(d56).eval(11) == -1
        assert quad_char(d43).eval(2) == -1  # N = 43 = 3 (mod 8)
        assert quad_char(from_discriminant(-7)).eval(2) == 1  # N = 7 (mod 8)

    def test_row_for_minus_40(self):
        char = quad_char(from_discriminant(-40))
        row = tuple(char.eval(x) for x in range(1, 40) if gcd(x, 40) == 1)
        assert row == (1, -1, 1, 1, 1, 1, -1, 1, -1, 1, -1, -1, -1, -1, 1, -1)

    def test_zero_iff_common_factor(self):
        for disc in fundamentals_with_n_up_to(100):
            char = quad_char(disc)
            for x in range(0, disc.N + 1):
                assert (char.eval(x) == 0) == (gcd(x, disc.N) > 1)

    def test_matches_kronecker_symbol(self):
        for disc in fundamentals_with_n_up_to(400):
            char = quad_char(disc)
            for x in range(1, disc.N + 1):
                assert char.eval(x) == chi_kronecker(disc.D, x), (disc.D, x)

    def test_matches_kronecker_symbol_larger_sampled(self):
        for disc in fundamentals_with_n_up_to(3000)[::19]:
            char = quad_char(disc)
            for x in range(1, disc.N, 13):
                assert char.eval(x) == chi_kronecker(disc.D, x), (disc.D, x)

    def test_table_matches_pointwise_eval(self):
        # The row-product table against the reciprocity oracle, in every Case.
        cases = set()
        for disc in fundamentals_with_n_up_to(3000):
            vals = quad_char(disc).values()
            assert len(vals) == disc.N + 1
            assert vals[0] == 0 and vals[disc.N] == 0
            for x in range(disc.N + 1):
                assert vals[x] == chi_by_reciprocity(disc, x), (disc.D, x)
            cases.add(disc.case)
        assert cases == set(Case)

    @pytest.mark.parametrize(
        "D, peak_per_entry",
        [
            pytest.param(-9988440, 1.5, id="even"),  # 2^3 * 3*5*7*11*23*47, close to MAX_N
            # 3*5*7*11*13*17: its last product, by the q = 3 row, peaks at 2 N bytes
            pytest.param(-255255, None, id="odd"),
        ],
    )
    def test_product_rows_at_large_composite_n(self, D, peak_per_entry):
        # Six and seven prime rows multiply here, each product taken by slices
        # over the shorter period, in place on the repeated longer row: the build
        # holds no second buffer of N bytes.  A QuadChar of its own keeps the
        # table out of the quad_char cache.
        disc = from_discriminant(D)
        n = disc.N
        tracemalloc.start()
        try:
            vals = QuadChar(disc).values()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        if peak_per_entry is not None:
            assert peak < peak_per_entry * n
        assert len(vals) == n + 1
        for x in [*range(3000), *(i * n // 3000 for i in range(3000))]:
            assert vals[x] == chi_by_reciprocity(disc, x), (D, x)
        assert vals.tobytes().count(0) == n + 1 - totient(n)

    def test_table_is_a_writable_view_over_its_own_buffer(self):
        # The table is the bytearray its row product built, seen as signed bytes: a
        # write lands in the one buffer the counts read, and no other QuadChar or the
        # shared chi4/chi8 rows see it.  At D = -8 that row is the only one.
        two_rows = {case: bytes(row) for case, row in discriminant._TWO_ROWS.items()}
        for D in (-8, -24, -40, -4004, -23, -3315):
            disc = from_discriminant(D)
            vals = QuadChar(disc).values()
            assert isinstance(vals, memoryview) and not vals.readonly, D
            assert vals.format == "b" and len(vals) == disc.N + 1, D
            assert type(vals.obj) is bytearray, D
            vals[1] = -1
            assert vals.obj[1] == 255 and QuadChar(disc).eval(1) == 1, D
        assert discriminant._TWO_ROWS == two_rows

    @pytest.mark.parametrize("D", [-1000003, -255255])
    def test_table_is_allocated_at_its_length(self, D):
        # chi(N) comes with the last row or product: an append would grow the N-byte
        # buffer by CPython's over-allocation, 1/8 of it, held and never written.
        disc = from_discriminant(D)
        vals = QuadChar(disc).values()
        assert len(vals) == disc.N + 1 and vals[disc.N] == 0
        assert sys.getsizeof(vals.obj) <= disc.N + 1 + 64

    def test_chi_at_minus_one(self):
        for disc in fundamentals_with_n_up_to(500):
            char = quad_char(disc)
            assert char.eval(-1) == -1
            assert char.eval(disc.N - 1) == -1

    def test_periodicity(self):
        for disc in fundamentals_with_n_up_to(200)[::5]:
            char = quad_char(disc)
            for x in range(-disc.N, disc.N):
                assert char.eval(x) == char.eval(x + disc.N)

    def test_quad_char_is_cached(self):
        d = from_discriminant(-15)
        assert quad_char(d) is quad_char(from_discriminant(-15))
