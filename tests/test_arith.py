import pytest
from math import gcd

from hypothesis import given, strategies as st
from sympy import isprime as sympy_isprime, totient
from sympy.functions.combinatorial.numbers import jacobi_symbol
from sympy.ntheory import n_order, primitive_root

import quadclass.arith as arith
from quadclass.arith import (
    euler_phi,
    is_prime,
    is_primitive_root,
    is_squarefree,
    least_primitive_root,
    multiplicative_order,
)
from quadclass.errors import InvalidModulusError, NotCoprimeError

from helpers import _squarefree, jacobi


class TestMultiplicativeOrder:
    def test_known_values(self):
        assert multiplicative_order(10, 7) == 6
        assert multiplicative_order(7, 15) == 4
        assert multiplicative_order(4, 15) == 2
        assert multiplicative_order(2, 11) == 10
        assert multiplicative_order(1, 5) == 1

    def test_matches_sympy_small(self):
        for n in range(2, 250):
            for b in range(1, n):
                if gcd(b, n) == 1:
                    assert multiplicative_order(b, n) == n_order(b, n), (b, n)

    def test_is_least_annihilating_exponent(self):
        for n in range(2, 120):
            for b in range(2, n):
                if gcd(b, n) != 1:
                    continue
                e = multiplicative_order(b, n)
                assert pow(b, e, n) == 1
                assert all(pow(b, k, n) != 1 for k in range(1, e))

    def test_divides_phi_full_range(self):
        # Spot base set, full modulus range.
        for n in range(2, 10001):
            for b in (2, 3, 5, 7, 11, 13):
                if gcd(b, n) == 1:
                    assert euler_phi(n) % multiplicative_order(b, n) == 0

    def test_errors(self):
        with pytest.raises(NotCoprimeError):
            multiplicative_order(6, 15)
        with pytest.raises(InvalidModulusError):
            multiplicative_order(2, 1)


class TestJacobi:
    # The reciprocity oracle of tests/helpers.py, itself checked against sympy.
    def test_known_values(self):
        assert jacobi(2, 15) == 1
        assert jacobi(7, 15) == -1
        assert jacobi(2, 7) == 1
        assert jacobi(3, 7) == -1
        assert jacobi(0, 3) == 0
        assert jacobi(5, 1) == 1  # (a / 1) = 1

    def test_matches_sympy_exhaustive(self):
        for n in range(1, 100, 2):
            for a in range(-n, 2 * n + 1):
                assert jacobi(a, n) == jacobi_symbol(a, n), (a, n)

    def test_zero_iff_common_factor(self):
        for n in range(3, 200, 2):
            for a in range(0, n):
                assert (jacobi(a, n) == 0) == (gcd(a, n) > 1)

    @given(st.integers(-10**6, 10**6), st.integers(1, 10**4))
    def test_matches_sympy_random(self, a, half):
        n = 2 * half + 1
        assert jacobi(a, n) == jacobi_symbol(a, n)

    @given(st.integers(0, 10**4), st.integers(0, 10**4), st.integers(1, 3000))
    def test_completely_multiplicative(self, a, b, half):
        n = 2 * half + 1
        assert jacobi(a * b, n) == jacobi(a, n) * jacobi(b, n)

    def test_bad_modulus(self):
        for n in (0, -3, 2, 10):
            with pytest.raises(InvalidModulusError):
                jacobi(3, n)


class TestSquarefreePhiPrime:
    def test_is_squarefree_matches_factorization(self):
        for n in range(1, 2000):
            assert is_squarefree(n) == _squarefree(n), n

    def test_is_squarefree_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            is_squarefree(0)
        with pytest.raises(ValueError):
            is_squarefree(-4)

    def test_euler_phi_matches_sympy(self):
        for n in range(1, 2000):
            assert euler_phi(n) == totient(n)

    def test_euler_phi_rejects_nonpositive(self):
        for n in (0, -1):
            with pytest.raises(ValueError, match=f"need n >= 1, got {n}"):
                euler_phi(n)

    def test_is_prime_matches_sympy(self):
        for n in range(-5, 5000):
            assert is_prime(n) == (n >= 2 and sympy_isprime(n))
        # 9999991 is prime; 3137**2 and 3121 * 3137 have their least prime
        # factor just below sqrt(MAX_N) = 3162.
        for n in (104729, 104730, 999983, 1000003, 9999991, 3137**2, 3121 * 3137):
            assert is_prime(n) == sympy_isprime(n)


class TestPrimitiveRoots:
    def test_least_matches_sympy(self):
        for p in range(3, 600, 2):
            if is_prime(p):
                assert least_primitive_root(p) == primitive_root(p), p

    def test_is_primitive_root_counts(self):
        # Exactly phi(p - 1) primitive roots mod p.
        for p in (7, 11, 23, 43):
            found = sum(1 for b in range(1, p) if is_primitive_root(b, p))
            assert found == euler_phi(p - 1)

    def test_p_minus_1_is_factored_once_per_prime(self, monkeypatch):
        # The candidates least_primitive_root tries share one factoring of p - 1:
        # 191 tries 2..19, 11 succeeds at 2.
        calls = []
        real = arith.distinct_prime_factors
        monkeypatch.setattr(arith, "distinct_prime_factors", lambda n: calls.append(n) or real(n))
        counts = []
        for p in (11, 191):
            arith.phi_with_primes.cache_clear()
            arith.multiplicative_order.cache_clear()
            arith.least_primitive_root.cache_clear()
            calls.clear()
            least_primitive_root(p)
            counts.append(len(calls))
        assert counts[0] == counts[1]

    def test_primality_tested_once_per_call(self, monkeypatch):
        # 191 tries the candidates 2..19; only the modulus is tested for primality.
        calls = []
        real = arith.is_prime
        monkeypatch.setattr(arith, "is_prime", lambda n: calls.append(n) or real(n))
        arith.least_primitive_root.cache_clear()
        assert least_primitive_root(191) == 19
        assert calls == [191]

    def test_order_of_least_root_is_full(self):
        for p in (7, 11, 43, 163, 1999):
            g = least_primitive_root(p)
            assert multiplicative_order(g, p) == p - 1

    def test_errors(self):
        with pytest.raises(ValueError):
            least_primitive_root(15)
        with pytest.raises(ValueError):
            least_primitive_root(2)
        with pytest.raises(ValueError):
            is_primitive_root(3, 15)
        # b = 0 mod p: every power is 0, so without the gcd check b would pass.
        assert not is_primitive_root(7, 7) and not is_primitive_root(14, 7)
