"""The shared kernel against independent oracles, and its guards under faults.

h_theorem1 walks the orbits in place and the interval routes read prefix
sums at cut points; here each is diffed against a route that shares none of
that code: the per-cycle reference h_cycle_contribution over all_cycles, and
the per-x oracles in helpers (direct binning and the floor sum term by term).
"""

from fractions import Fraction
from math import gcd

import pytest

import quadclass.classnum as classnum
from quadclass.classnum import (
    all_cycles,
    ek_table,
    h_cycle_contribution,
    h_dirichlet,
    h_floor_formula,
    h_from_ek,
    h_from_ek_factored,
    h_theorem1,
)
from quadclass.discriminant import from_discriminant, quad_char
from quadclass.errors import InternalError

from helpers import ek_by_binning, floor_sum_by_x, fundamentals_with_n_up_to

BASES = range(2, 14)


def _coprime_bases(n):
    return [b for b in BASES if gcd(b, n) == 1]


def test_orbit_walk_matches_cycle_contributions():
    for disc in fundamentals_with_n_up_to(2000):
        char = quad_char(disc)
        for base in _coprime_bases(disc.N):
            total = sum(
                (h_cycle_contribution(c, char) for c in all_cycles(base, disc.N).cycles),
                Fraction(0),
            )
            got = h_theorem1(disc, base)
            assert total.denominator == 1, (disc.D, base)
            assert got.h == total, (disc.D, base)
            assert got.raw_sum == total * (base - char.eval(base)), (disc.D, base)


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


@pytest.mark.parametrize("wrong", [lambda e: e + 1, lambda e: 2 * e, lambda e: e - 1])
def test_wrong_period_is_caught(monkeypatch, wrong):
    real = classnum.multiplicative_order
    monkeypatch.setattr(classnum, "multiplicative_order", lambda b, n: wrong(real(b, n)))
    disc = from_discriminant(-47)  # order(2 mod 47) = 23, order(5 mod 47) = 46
    for base in (2, 5):
        with pytest.raises(InternalError, match=rf"cycle\[B={base}\] at D=-47"):
            h_theorem1(disc, base)


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
