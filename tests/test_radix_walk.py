"""One division per (D, B) at B = 2, 4, 8 and 10, and the class starts.

h_theorem1 reads every walk of a (D, B) at a radix base off one quotient
Q = (B^w - c)/N, with B^w = c = +/-1 (mod N): the walk from x has the digits
of x Q - [c = -1], packed into the slots of one int per sign of chi(x)
(classnum._radix_sum).  It starts its walks at products of kernel generators
(the powers of a primitive root for prime N) instead of scanning marks.  Each
is diffed here against routes that share none of that code: per-digit long
division, the per-cycle reference h_cycle_contribution over all_cycles, and
raw_sum = (B - chi(B)) h with h from h_dirichlet.
"""

import builtins
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


def _count_divisions(monkeypatch):
    """A list that gets one entry per _radix_sum call: how many divisions it made.

    Every division by N in _radix_sum is a divmod, the builtin in binary and
    Context.divmod in decimal; both are counted while it runs.  The digit
    tables of the stepped walk must not be asked for at a radix base."""
    made = []
    inside = []
    real_sum = classnum._radix_sum
    real_table = classnum._digit_table

    def counting(a, b):
        if inside:
            made[-1] += 1
        return builtins.divmod(a, b)

    class Context(decimal.Context):
        def divmod(self, a, b):
            made[-1] += 1
            return super().divmod(a, b)

    def radix_sum(*args):
        made.append(0)
        inside.append(True)
        try:
            return real_sum(*args)
        finally:
            inside.clear()

    def digit_table(base, s):
        assert base not in RADIX_BASES, base
        return real_table(base, s)

    monkeypatch.setattr(classnum, "_radix_sum", radix_sum)
    monkeypatch.setattr(classnum, "divmod", counting, raising=False)
    monkeypatch.setattr(classnum, "Context", Context)
    monkeypatch.setattr(classnum, "_digit_table", digit_table)
    return made


def _walks(disc, base, cycles):
    """(W, whether -C = C): the classes h_theorem1 walks."""
    self_paired = disc.N - 1 in next(c for c in cycles if 1 in c.cycle).cycle
    return (len(cycles) if self_paired else len(cycles) // 2), self_paired


def _closing_lengths(base, n):
    """(w, paired) with B^w = -1 (mod N) when paired and +1 otherwise, some of each
    that exist: the order e, its multiples, and the odd multiples of e/2 when
    B^(e/2) = -1."""
    e = multiplicative_order(base, n)
    out = [(e, False), (2 * e, False), (3 * e, False)]
    if e % 2 == 0 and pow(base, e // 2, n) == n - 1:
        out += [(e // 2, True), (3 * e // 2, True)]
    return out


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("base", RADIX_BASES)
def test_radix_walk_matches_long_division(base, sign):
    # Any units, split into any two groups: the digits are plain arithmetic.
    for n in (7, 11, 13, 101, 1009, 1019, 9091):
        if gcd(base, n) > 1:
            continue
        xs = [x for x in (1, 2, 5, 500, n // 2, n - 2, n - 1) if 0 < x < n and gcd(x, n) == 1]
        groups = {1: xs[::2], -1: xs[1::2]}
        for w, paired in _closing_lengths(base, n):
            want = 0
            for chi, starts in groups.items():
                for x in starts:
                    y, t = x, 0
                    for i in range(w):
                        d, y = divmod(base * y, n)
                        t += sign**i * d
                    assert y == (n - x if paired else x)
                    want += chi * t
            got = classnum._radix_sum(base, n, w, sign, paired, groups, "test")
            assert got == want, (n, base, sign, w, paired)
        # A length that does not close the orbits leaves a remainder.
        e = multiplicative_order(base, n)
        if e > 1:
            with pytest.raises(InternalError, match=r"test: the orbits do not close"):
                classnum._radix_sum(base, n, e - 1, sign, False, groups, "test")


def test_quotient_walks_match_cycle_contributions(monkeypatch):
    made = _count_divisions(monkeypatch)
    shapes = set()  # (kind of N, chi(B), whether -C = C) of the radix (D, B)
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
            made.clear()
            got = h_theorem1(disc, base)
            assert got.raw_sum == total * (base - s) == h * (base - s), (disc.D, base)
            assert len(made) == 1 and 1 <= made[0] <= 2, (disc.D, base, made)
            if walks == 1:
                kind = "W = 1"
            elif is_prime(disc.N):
                kind = "W > 1, N prime"
            else:
                kind = "W > 1, N composite"
            shapes.add((kind, s, self_paired))
    signs = ((1, False), (-1, False), (-1, True))
    assert shapes == {
        (kind, s, self_paired)
        for kind in ("W = 1", "W > 1, N prime", "W > 1, N composite")
        for s, self_paired in signs
        # For prime N, chi(B) = -1 makes B^((N-1)/2) = -1, so -C = C.
        if (kind, s, self_paired) != ("W > 1, N prime", -1, False)
    }


def test_girstmair_primes_at_the_radix_bases():
    for p in filter(is_prime, range(7, 2000, 4)):  # the primes 3 (mod 4), p > 3
        disc = from_discriminant(-p)
        h = h_dirichlet(disc).h
        for base in RADIX_BASES:
            want = (base - quad_char(disc).eval(base)) * h
            assert h_theorem1(disc, base).raw_sum == want, (p, base)
            if is_primitive_root(base, p):
                period = expand(1, base, p).digits
                assert h_girstmair(p, base).raw_sum == alternating_digit_sum(period), (p, base)


def test_lone_groups_at_the_girstmair_primes(monkeypatch):
    # A chi group of one start is packed like any other, into one slot: the
    # one walk of a primitive root B, or the lone chi(x) = -1 start when W = 3.
    real = classnum._radix_sum
    sizes = []

    def radix_sum(base, n, w, s, paired, groups, where):
        sizes.append((len(groups[1]), len(groups[-1])))
        return real(base, n, w, s, paired, groups, where)

    monkeypatch.setattr(classnum, "_radix_sum", radix_sum)
    seen = set()
    for p in filter(is_prime, range(7, 8000, 4)):  # the girstmair primes
        disc = from_discriminant(-p)
        char = quad_char(disc)
        for base in (2, 8):
            cycles = all_cycles(base, p).cycles
            total = sum((h_cycle_contribution(c, char) for c in cycles), Fraction(0))
            sizes.clear()
            assert h_theorem1(disc, base).raw_sum == total * (base - char.eval(base)), (p, base)
            if sizes[0] == (1, 0):
                seen.add((base, "one start"))
            elif min(sizes[0]) == 1:
                seen.add((base, "a lone group beside another"))
            else:
                seen.add((base, "both groups packed"))
    kinds = ("one start", "a lone group beside another", "both groups packed")
    assert seen == {(base, kind) for base in (2, 8) for kind in kinds}


@pytest.mark.parametrize(
    "N, base, walks",
    [
        (8191, 2, 315),  # 2^13 = 1: W = 8190 / 26
        (131071, 2, 3855),  # 2^17 = 1: W = 131070 / 34
        (524287, 2, 13797),  # 2^19 = 1: W = 524286 / 38
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
    made = _count_divisions(monkeypatch)
    assert h_theorem1(disc, base).raw_sum == want
    # Thousands of walks a few digits long, and still at most two divisions.
    assert len(made) == 1 and 1 <= made[0] <= 2, made


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
    monkeypatch.setattr(classnum, "least_primitive_root", lambda p: pow(g, power, p))
    assert h_theorem1(disc, base).raw_sum == want
    # g^q for a prime q | W reaches only W/q of the cosets, and B only H.
    for start in [pow(g, q, n) for q in bad] + [base]:
        monkeypatch.setattr(classnum, "least_primitive_root", lambda p: start)
        with pytest.raises(InternalError, match=rf"cycle\[B={base}\] at D={D}: start {start} misses classes"):
            h_theorem1(disc, base)


def test_decimal_context_one_digit_short_is_an_internal_error(monkeypatch):
    # 10 is a primitive root mod 1019 with 10^509 = -1: one walk of 509
    # digits from 1, read off Q = (10^509 + 1) / 1019.  The context must hold
    # the 510 digits of 10^509 + 1, and that is all it is given.
    disc = from_discriminant(-1019)
    digits = len(str(10**509 + 1))
    want = (10 - quad_char(disc).eval(10)) * h_dirichlet(disc).h
    real = decimal.Context
    asked = []
    monkeypatch.setattr(classnum, "Context", lambda **kw: asked.append(kw["prec"]) or real(**kw))
    assert h_theorem1(disc, 10).raw_sum == want
    assert asked == [digits]
    monkeypatch.setattr(classnum, "Context", lambda **kw: real(**{**kw, "prec": digits - 1}))
    with pytest.raises(InternalError, match=r"cycle\[B=10\] at D=-1019: decimal .*Inexact"):
        h_theorem1(disc, 10)
    record = verify_discriminant(-1019)
    assert not record.passed
    assert "cycle[B=10] at D=-1019: decimal" in record.error


def test_base_10_walk_longer_than_the_default_emax():
    # chi(10) = +1 and 10 has order w = 1666665 mod 9999991: W = 3 walks of
    # w digits each, so 10^w - 1 needs an exponent past decimal's default Emax.
    disc = from_discriminant(-9999991)
    w = multiplicative_order(10, disc.N)
    assert w == 1666665 > decimal.DefaultContext.Emax
    default = decimal.Context(prec=w + 2, traps=[decimal.Inexact, decimal.Rounded, decimal.InvalidOperation])
    with pytest.raises(decimal.DecimalException):
        default.scaleb(decimal.Decimal(1), w)
    assert quad_char(disc).eval(10) == 1
    assert h_theorem1(disc, 10).raw_sum == 9 * h_dirichlet(disc).h == 9 * 1715
