"""The shared kernel against independent oracles, and its guards under faults.

h_theorem1 walks half of every orbit in place and the interval routes read
prefix sums at cut points; here each is diffed against a route that shares
none of that code: the per-cycle reference h_cycle_contribution over
all_cycles, the full period of expand, and the per-x oracles in helpers
(direct binning and the floor sum term by term).
"""

from fractions import Fraction
from math import gcd

import pytest

import quadclass.classnum as classnum
from quadclass.arith import is_prime, is_primitive_root, least_primitive_root
from quadclass.classnum import (
    all_cycles,
    alternating_digit_sum,
    ek_table,
    expand,
    h_cycle_contribution,
    h_dirichlet,
    h_floor_formula,
    h_from_ek,
    h_from_ek_factored,
    h_girstmair,
    h_theorem1,
)
from quadclass.discriminant import from_discriminant, quad_char
from quadclass.errors import InternalError

from helpers import ek_by_binning, floor_sum_by_x, fundamentals_with_n_up_to

BASES = range(2, 14)


def _coprime_bases(n):
    return [b for b in BASES if gcd(b, n) == 1]


def test_orbit_walk_matches_cycle_contributions():
    branches = set()  # (chi(B), whether -1 is a power of B)
    for disc in fundamentals_with_n_up_to(2000):
        char = quad_char(disc)
        for base in _coprime_bases(disc.N):
            cycles = all_cycles(base, disc.N).cycles
            total = sum((h_cycle_contribution(c, char) for c in cycles), Fraction(0))
            got = h_theorem1(disc, base)
            assert total.denominator == 1, (disc.D, base)
            assert got.h == total, (disc.D, base)
            assert got.raw_sum == total * (base - char.eval(base)), (disc.D, base)
            one = next(c for c in cycles if 1 in c.cycle)
            branches.add((char.eval(base), disc.N - 1 in one.cycle))
    # chi(B) = +1 with -1 a power of B would force chi(-1) = +1.
    assert branches == {(1, False), (-1, False), (-1, True)}


def test_girstmair_matches_full_period():
    for p in filter(is_prime, range(7, 2000, 4)):  # the primes 3 (mod 4), p > 3
        least = least_primitive_root(p)
        other = next(g for g in range(least + 1, p) if is_primitive_root(g, p))
        for base in (least, other):
            got = h_girstmair(p, base)
            assert got.method == f"girstmair[B={base}]"
            assert got.raw_sum == alternating_digit_sum(expand(1, base, p).digits), (p, base)


def test_girstmair_builds_no_expansion(monkeypatch):
    def refuse(*args):
        raise AssertionError("expand called")

    monkeypatch.setattr(classnum, "expand", refuse)
    assert h_girstmair(43).h == 1


def test_interval_routes_match_per_x_oracles():
    for disc in fundamentals_with_n_up_to(5000):
        n = disc.N
        char = quad_char(disc)
        vals = char.values()
        for base in _coprime_bases(n):
            floor_raw = floor_sum_by_x(vals, n, base)
            entries, pos, neg = ek_by_binning(vals, n, base)
            assert floor_raw == -sum(k * e for k, e in enumerate(entries)), (disc.D, base)
            assert h_floor_formula(disc, base).raw_sum == floor_raw, (disc.D, base)

            table = ek_table(disc, base)
            assert table.entries == tuple(entries), (disc.D, base)
            assert table.pos_counts == tuple(pos), (disc.D, base)
            assert table.neg_counts == tuple(neg), (disc.D, base)
            assert table.boundaries == tuple(Fraction(k * n, base) for k in range(base + 1))

            half = sum((base - 1 - 2 * k) * e for k, e in enumerate(entries[: base // 2]))
            assert h_from_ek(disc, base).raw_sum == half, (disc.D, base)
            for b1 in range(2, base + 1):
                if base % b1:
                    continue
                b2 = base // b1
                blocks = [sum(entries[j * b2 : (j + 1) * b2]) for j in range(b1)]
                raw = sum((b1 - 1 - 2 * j) * e for j, e in enumerate(blocks[: b1 // 2]))
                assert h_from_ek_factored(disc, base, b1).raw_sum == raw, (disc.D, base, b1)


# One (D, B) per branch of the walk: chi(2 mod 47) = +1 with order 23;
# chi(5 mod 47) = -1 with 5^23 = -1; chi(2 mod 35) = -1 with order 12 and
# 2^6 = 29, so -1 is no power of 2 mod 35.
BRANCHES = [(-47, 2), (-47, 5), (-35, 2)]


@pytest.mark.parametrize("wrong", [lambda e: e + 1, lambda e: 2 * e, lambda e: e - 1])
def test_wrong_period_is_caught(monkeypatch, wrong):
    real = classnum.multiplicative_order
    monkeypatch.setattr(classnum, "multiplicative_order", lambda b, n: wrong(real(b, n)))
    for D, base in BRANCHES:
        with pytest.raises(InternalError, match=rf"cycle\[B={base}\] at D={D}"):
            h_theorem1(from_discriminant(D), base)


@pytest.mark.parametrize(
    "D, base, power, message",
    [
        # Claimed -1 = B^(e/2) where it is not:
        pytest.param(-15, 2, -1, r"with chi\(B\) = \+1", id="chi+1"),  # e = 4
        pytest.param(-35, 2, -1, "needs 6 odd", id="half-even"),  # chi(2) = -1, e = 12
        pytest.param(-8, 5, -1, "did not close", id="no-reflection"),  # chi(5) = -1, e = 2
        # Denied -1 = B^(e/2) where it is:
        pytest.param(-47, 5, 1, "cycle count", id="missed-reflection"),  # chi(5) = -1, e = 46
    ],
)
def test_wrong_reflection_decision_is_caught(monkeypatch, D, base, power, message):
    # classnum decides whether -1 is a power of B by pow(B, e/2, N) == N - 1.
    monkeypatch.setattr(classnum, "pow", lambda b, k, n: power % n, raising=False)
    with pytest.raises(InternalError, match=rf"cycle\[B={base}\] at D={D}: .*{message}"):
        h_theorem1(from_discriminant(D), base)


def test_non_integral_or_non_positive_h_is_caught():
    disc = from_discriminant(-23)
    with pytest.raises(InternalError, match="not divisible"):
        classnum._exact_h(disc, 7, 2, "cycle[B=3]", 7)
    with pytest.raises(InternalError, match="<= 0"):
        classnum._exact_h(disc, -6, 2, "cycle[B=3]", -6)


def test_integral_endpoint_is_caught(monkeypatch):
    # Past the coprimality check, base 14 cuts (0, 7) at the unit x = 1.
    monkeypatch.setattr(classnum, "_check_coprime_base", lambda disc, base: None)
    disc = from_discriminant(-7)
    for route in (ek_table, h_floor_formula, h_from_ek):
        with pytest.raises(InternalError, match="integral endpoint"):
            route(disc, 14)


def test_prefix_is_built_on_first_interval_query():
    quad_char.cache_clear()
    disc = from_discriminant(-4004)
    char = quad_char(disc)
    char.values()
    h_dirichlet(disc)
    assert char._prefix is None
    h_from_ek(disc, 3)
    assert char._prefix is not None
