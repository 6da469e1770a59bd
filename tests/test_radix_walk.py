"""One quotient per walk at B = 2, 4, 8 and 10, and the class starts.

h_theorem1 reads a walk off one quotient floor(B^w x/N) where B has a C
radix (classnum._radix_walk), and starts its walks at products of kernel
generators (the powers of a primitive root for prime N) instead of scanning
marks.  Each is diffed here against routes that share none of that code:
per-digit long division, the per-cycle reference h_cycle_contribution over
all_cycles, and raw_sum = (B - chi(B)) h with h from h_dirichlet.  Walks
shorter than MIN_QUOTIENT_STEPS step instead, so every diff also runs with
that bound at 0, where every walk is a quotient.
"""

import decimal
from fractions import Fraction
from math import gcd

import pytest

import quadclass.classnum as classnum
from quadclass.arith import is_prime, is_primitive_root, least_primitive_root, multiplicative_order
from quadclass.classnum import (
    all_cycles,
    alternating_digit_sum,
    expand,
    h_cycle_contribution,
    h_dirichlet,
    h_girstmair,
    h_theorem1,
)
from quadclass.discriminant import from_discriminant, quad_char
from quadclass.errors import InternalError
from quadclass.verify import verify_discriminant

from helpers import fundamentals_with_n_up_to

RADIX_BASES = (2, 4, 8, 10)
MIN_STEPS = (0, classnum.MIN_QUOTIENT_STEPS)


def _count_quotients(monkeypatch):
    """A list that gets one counter per quotient walker h_theorem1 makes; the
    counter's one entry is how many walks that walker took."""
    made = []
    real = classnum._radix_walk

    def radix_walk(*args):
        walk = real(*args)
        if walk is None:
            return None
        made.append([0])
        calls = made[-1]

        def counted(x):
            calls[0] += 1
            return walk(x)

        return counted

    monkeypatch.setattr(classnum, "_radix_walk", radix_walk)
    return made


def _walks(disc, base, cycles):
    """(W, whether -C = C): the classes h_theorem1 walks."""
    self_paired = disc.N - 1 in next(c for c in cycles if 1 in c.cycle).cycle
    return (len(cycles) if self_paired else len(cycles) // 2), self_paired


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("base", RADIX_BASES)
def test_radix_walk_matches_long_division(base, sign):
    n = 1009
    for w in (1, 2, 3, 7, 8, 40, 41, 400):
        walk = classnum._radix_walk(base, n, w, sign, "test")
        for x in (1, 2, 500, 1008):
            y, want = x, 0
            for i in range(w):
                d, y = divmod(base * y, n)
                want += sign**i * d
            assert walk(x) == (want, y), (base, sign, w, x)
    assert classnum._radix_walk(3, n, 5, 1, "test") is None


def test_quotient_walks_match_cycle_contributions(monkeypatch):
    made = _count_quotients(monkeypatch)
    shapes = set()  # (kind of N, chi(B), whether -C = C) of the walks taken by quotient
    for disc in fundamentals_with_n_up_to(2000):
        char = quad_char(disc)
        h = h_dirichlet(disc).h
        for base in RADIX_BASES:
            if gcd(base, disc.N) > 1:
                continue
            cycles = all_cycles(base, disc.N).cycles
            total = sum((h_cycle_contribution(c, char) for c in cycles), Fraction(0))
            s = char.eval(base)
            walks, self_paired = _walks(disc, base, cycles)
            for min_steps in MIN_STEPS:
                monkeypatch.setattr(classnum, "MIN_QUOTIENT_STEPS", min_steps)
                made.clear()
                got = h_theorem1(disc, base)
                assert got.raw_sum == total * (base - s) == h * (base - s), (disc.D, base)
                quotients = sum(calls for (calls,) in made)
                if walks == 1:
                    kind = "W = 1"
                elif is_prime(disc.N):
                    kind = "W > 1, N prime"
                else:
                    kind = "W > 1, N composite"
                if min_steps == 0:
                    assert quotients == walks, (disc.D, base)  # no walk marks, so each is a quotient
                    shapes.add((kind, s, self_paired))
                else:
                    assert quotients in (0, walks), (disc.D, base)
    signs = ((1, False), (-1, False), (-1, True))
    assert shapes == {
        (kind, s, self_paired)
        for kind in ("W = 1", "W > 1, N prime", "W > 1, N composite")
        for s, self_paired in signs
        # For prime N, chi(B) = -1 makes B^((N-1)/2) = -1, so -C = C.
        if (kind, s, self_paired) != ("W > 1, N prime", -1, False)
    }


def test_girstmair_primes_at_the_radix_bases(monkeypatch):
    for p in filter(is_prime, range(7, 2000, 4)):  # the primes 3 (mod 4), p > 3
        disc = from_discriminant(-p)
        h = h_dirichlet(disc).h
        for base in RADIX_BASES:
            want = (base - quad_char(disc).eval(base)) * h
            for min_steps in MIN_STEPS:
                monkeypatch.setattr(classnum, "MIN_QUOTIENT_STEPS", min_steps)
                assert h_theorem1(disc, base).raw_sum == want, (p, base)
                if is_primitive_root(base, p):
                    period = expand(1, base, p).digits
                    assert h_girstmair(p, base).raw_sum == alternating_digit_sum(period), (p, base)


@pytest.mark.parametrize(
    "N, base, walks",
    [
        (8191, 2, 315),  # 2^13 = 1: W = 8190 / 26
        (131071, 2, 3855),  # 2^17 = 1: W = 131070 / 34
        (9091, 10, 909),  # 10^5 = -1, so -C = C: W = 9090 / 10 walks of 5 digits
    ],
)
def test_small_order_primes(monkeypatch, N, base, walks):
    disc = from_discriminant(-N)
    char = quad_char(disc)
    cycles = all_cycles(base, N).cycles
    assert _walks(disc, base, cycles)[0] == walks
    total = sum((h_cycle_contribution(c, char) for c in cycles), Fraction(0))
    want = (base - char.eval(base)) * h_dirichlet(disc).h
    assert total * (base - char.eval(base)) == want
    made = _count_quotients(monkeypatch)
    for min_steps in MIN_STEPS:
        monkeypatch.setattr(classnum, "MIN_QUOTIENT_STEPS", min_steps)
        made.clear()
        assert h_theorem1(disc, base).raw_sum == want, min_steps
        # Each walk is a few steps long: it steps unless the bound is 0.
        assert sum(calls for (calls,) in made) == (walks if min_steps == 0 else 0)


@pytest.mark.parametrize(
    "D, base, power, bad",
    [
        # chi(5) = +1 with 5 of order 5 mod 71: W = 70 / 10 = 7 classes.
        (-71, 5, 5, [7]),
        # chi(8) = +1 with 8 of order 5 mod 151: W = 150 / 10 = 15 classes.
        (-151, 8, 2, [3, 5]),
    ],
)
def test_start_certificate(monkeypatch, D, base, power, bad):
    disc = from_discriminant(D)
    n = disc.N
    want = h_theorem1(disc, base).raw_sum
    g = least_primitive_root(n)
    # g^power is no primitive root, but its classes g^(power j) H are still
    # all W cosets: power is prime to W, and the certificate accepts it.
    monkeypatch.setattr(classnum, "least_primitive_root", lambda p, primes: pow(g, power, p))
    assert h_theorem1(disc, base).raw_sum == want
    # g^q for a prime q | W reaches only W/q of the cosets, and B only H.
    for start in [pow(g, q, n) for q in bad] + [base]:
        monkeypatch.setattr(classnum, "least_primitive_root", lambda p, primes: start)
        with pytest.raises(InternalError, match=rf"cycle\[B={base}\] at D={D}: start {start} misses classes"):
            h_theorem1(disc, base)


def test_decimal_context_one_digit_short_is_an_internal_error(monkeypatch):
    # 10 is a primitive root mod 1019 with 10^509 = -1: one walk of 509
    # digits from 1, whose quotient floor(10^509 / 1019) has 506.
    disc = from_discriminant(-1019)
    digits = len(str(10**509 // 1019))
    want = (10 - quad_char(disc).eval(10)) * h_dirichlet(disc).h
    real = decimal.Context
    monkeypatch.setattr(classnum, "Context", lambda **kw: real(**{**kw, "prec": digits}))
    assert h_theorem1(disc, 10).raw_sum == want
    monkeypatch.setattr(classnum, "Context", lambda **kw: real(**{**kw, "prec": digits - 1}))
    with pytest.raises(InternalError, match=r"cycle\[B=10\] at D=-1019: decimal .*InvalidOperation"):
        h_theorem1(disc, 10)
    record = verify_discriminant(-1019)
    assert not record.passed
    assert "cycle[B=10] at D=-1019: decimal" in record.error


def test_base_10_walk_longer_than_the_default_emax():
    # chi(10) = +1 and 10 has order w = 1666665 mod 9999991: W = 3 walks of
    # w digits each, so x 10^w needs an exponent past decimal's default Emax.
    disc = from_discriminant(-9999991)
    w = multiplicative_order(10, disc.N)
    assert w == 1666665 > decimal.DefaultContext.Emax
    default = decimal.Context(prec=w + 2, traps=[decimal.Inexact, decimal.Rounded, decimal.InvalidOperation])
    with pytest.raises(decimal.DecimalException):
        default.scaleb(decimal.Decimal(1), w)
    assert quad_char(disc).eval(10) == 1
    assert h_theorem1(disc, 10).raw_sum == 9 * h_dirichlet(disc).h == 9 * 1715
