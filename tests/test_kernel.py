"""The shared kernel against independent oracles, and its guards under faults.

h_theorem1 walks half of every orbit in place, k digits per step, and the
interval routes and closed forms read the EkTable QuadChar.ek_table keeps
per (D, B); here each is diffed against a route that shares none of
that code: the per-cycle reference h_cycle_contribution over all_cycles, the
full period of expand, per-digit long division for the digit tables, and
the oracles in helpers (direct binning, the every-k scan for integral cuts,
and the floor and Dirichlet sums term by term).
"""

import random
import re
import sys
import tracemalloc
from fractions import Fraction
from math import gcd, isqrt

import pytest

import quadclass.arith as arith
import quadclass.classnum as classnum
import quadclass.discriminant as discriminant
import quadclass.theorems as theorems
from quadclass.arith import (
    distinct_prime_factors,
    is_prime,
    is_primitive_root,
    least_primitive_root,
    multiplicative_order,
)
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
from quadclass.discriminant import Case, QuadChar, from_discriminant, quad_char
from quadclass.errors import InternalError, ModulusTooLargeError
from quadclass.verify import DEFAULT_BASES, verify_discriminant, verify_range

from helpers import (
    dirichlet_sum_by_x,
    ek_by_binning,
    first_integral_unit_cut,
    floor_sum_by_x,
    fundamentals_with_n_up_to,
)

BASES = range(2, 14)


def _coprime_bases(n):
    return [b for b in BASES if gcd(b, n) == 1]


def _walk_shape(disc, base, cycles):
    """(W, steps, k): classes, long-division steps per walk, digits per block."""
    s = quad_char(disc).eval(base)
    one = next(c for c in cycles if 1 in c.cycle)
    self_paired = disc.N - 1 in one.cycle
    walks = len(cycles) if self_paired else len(cycles) // 2
    steps = one.e // 2 if self_paired else one.e
    k, _ = classnum._digit_table(base, s)
    return walks, steps, k


def test_orbit_walk_matches_cycle_contributions():
    branches = set()  # (chi(B), whether -1 is a power of B)
    shapes = set()  # (chi(B), shape)
    for disc in fundamentals_with_n_up_to(2000):
        char = quad_char(disc)
        for base in _coprime_bases(disc.N):
            cycles = all_cycles(base, disc.N).cycles
            total = sum((h_cycle_contribution(c, char) for c in cycles), Fraction(0))
            got = h_theorem1(disc, base)
            assert total.denominator == 1, (disc.D, base)
            assert got.h == total, (disc.D, base)
            assert got.raw_sum == total * (base - char.eval(base)), (disc.D, base)
            s = char.eval(base)
            one = next(c for c in cycles if 1 in c.cycle)
            branches.add((s, disc.N - 1 in one.cycle))
            walks, steps, k = _walk_shape(disc, base, cycles)
            if walks == 1:
                shapes.add((s, "W = 1"))
            elif is_prime(disc.N):
                shapes.add((s, "W > 1, N prime"))
            else:
                shapes.add((s, "W > 1, N composite"))
            if base in (2, 4, 8):  # one division, no digit table
                continue
            # A walk shorter than k, and the digits a longer one leaves over,
            # are one short block.
            if steps < k:
                shapes.add((s, "steps < k"))
            elif steps % k:
                shapes.add((s, "steps % k != 0"))
    # chi(B) = +1 with -1 a power of B would force chi(-1) = +1.
    assert branches == {(1, False), (-1, False), (-1, True)}
    kinds = {"W = 1", "W > 1, N prime", "W > 1, N composite", "steps < k", "steps % k != 0"}
    assert shapes == {(s, kind) for s in (1, -1) for kind in kinds}


def test_orbit_walk_without_digit_tables():
    # B^2 > MAX_BLOCK: B = 67, 101 and 4099 step one digit a block at either
    # sign, read from range(B), which stores nothing.
    for s in (1, -1):
        assert classnum._digit_table(4099, s) == (1, range(4099))
        assert classnum._digit_table(67, s) == (1, range(67))
    kinds = set()
    for disc in fundamentals_with_n_up_to(500):
        char = quad_char(disc)
        for base in (67, 101, 4099):
            if gcd(base, disc.N) > 1:
                continue
            cycles = all_cycles(base, disc.N).cycles
            total = sum((h_cycle_contribution(c, char) for c in cycles), Fraction(0))
            assert h_theorem1(disc, base).raw_sum == total * (base - char.eval(base)), (disc.D, base)
            walks, _, k = _walk_shape(disc, base, cycles)
            assert k == 1, (disc.D, base)
            kinds.add((base, char.eval(base), walks > 1))
    for base in (67, 101, 4099):
        assert {(base, 1, True), (base, -1, True), (base, -1, False)} <= kinds


def _odd_block_walk(disc, base, h):
    """Check h_theorem1 at chi(B) = -1 and odd k; return the walk's shape."""
    char = quad_char(disc)
    cycles = all_cycles(base, disc.N).cycles
    total = sum((h_cycle_contribution(c, char) for c in cycles), Fraction(0))
    assert h_theorem1(disc, base).raw_sum == total * (base + 1) == h * (base + 1), (disc.D, base)
    walks, steps, k = _walk_shape(disc, base, cycles)
    assert k % 2 == 1, (base, k)
    blocks, rest = divmod(steps, k)
    return (
        "no block" if blocks == 0 else f"blocks {('even', 'odd')[blocks % 2]}",
        "rest > 0" if rest else "rest = 0",
        "W = 1" if walks == 1 else "W > 1",
        "-C = C" if disc.N - 1 in next(c for c in cycles if 1 in c.cycle).cycle else "-C != C",
    )


def test_odd_blocks_at_chi_minus_one_match_cycle_contributions():
    # k = 7, 5, 3, 3 and 3 digits a block: with chi(B) = -1 the blocks start
    # on the signs +1, -1, +1, ..., and the digits left over on (-1)^(k blocks).
    shapes = set()
    for disc in fundamentals_with_n_up_to(2000):
        h = h_dirichlet(disc).h
        for base in (3, 5, 11, 12, 13):
            if gcd(base, disc.N) == 1 and quad_char(disc).eval(base) == -1:
                shapes.add(_odd_block_walk(disc, base, h))
    for i, kinds in enumerate([
        {"no block", "blocks even", "blocks odd"},
        {"rest = 0", "rest > 0"},
        {"W = 1", "W > 1"},
        {"-C = C", "-C != C"},
    ]):
        assert {shape[i] for shape in shapes} == kinds
    # D = -300007: one walk of 50 001 blocks at B = 11, seven of 7 143 at
    # B = 13, and nine of 5 555 blocks and 2 digits at B = 12.
    disc = from_discriminant(-300007)
    h = h_dirichlet(disc).h
    assert _odd_block_walk(disc, 11, h) == ("blocks odd", "rest = 0", "W = 1", "-C = C")
    assert _odd_block_walk(disc, 12, h) == ("blocks odd", "rest > 0", "W > 1", "-C = C")
    assert _odd_block_walk(disc, 13, h) == ("blocks odd", "rest = 0", "W > 1", "-C = C")


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("base", [*range(2, 14), 17, 19])
def test_digit_tables_match_long_division(base, sign):
    k, tab = classnum._digit_table(base, sign)
    bk = base**k
    assert len(tab) == bk <= classnum.MAX_BLOCK < bk * base
    # Entry A is the signed digit sum of A / B^k, found one digit at a time.
    for a, total in enumerate(tab):
        y, want = a, 0
        for j in range(k):
            d, y = divmod(base * y, bk)
            want += sign**j * d
        assert total == want, (base, sign, a)
    # One step of long division in base B^k emits the next k digits of x/N.
    n = 1009  # a prime, so every base here is coprime to it
    period = expand(1, base, n)
    digits = period.digits * 2
    for i, y in enumerate(period.cycle):
        want = sum(sign**j * d for j, d in enumerate(digits[i : i + k]))
        assert tab[bk * y // n] == want, (base, sign, y)


STEPPED = (3, 5, 6, 7, 9, 10, 11, 12, 13)  # the bases below 14 with no binary radix


def _record_lanes(monkeypatch) -> list[tuple]:
    """Route classnum._lanes through a recorder of its (B, N, s, seg, count, walks)."""
    calls = []
    real = classnum._lanes

    def recording(base, n, s, seg, count, groups, *rest):
        calls.append((base, n, s, seg, count, len(groups[1]) + len(groups[-1])))
        return real(base, n, s, seg, count, groups, *rest)

    monkeypatch.setattr(classnum, "_lanes", recording)
    return calls


def _lanes_and_steps(monkeypatch, calls, disc, base, lanes_at):
    """h_theorem1's raw sum in lanes, at LANE_DIGITS = lanes_at, and with every walk
    stepped alone; the shape of the one lane call that calls records."""
    calls.clear()
    monkeypatch.setattr(classnum, "LANE_DIGITS", lanes_at)
    packed = h_theorem1(disc, base).raw_sum
    monkeypatch.setattr(classnum, "LANE_DIGITS", disc.N)  # phi(N)/2 < N: nothing takes lanes
    stepped = h_theorem1(disc, base).raw_sum
    assert len(calls) == 1, (disc.D, base, calls)
    return packed, stepped, calls[0]


def test_lanes_match_block_stepping_below_the_constant(monkeypatch):
    # With LANE_DIGITS = 0 every (D, B) whose walks are at least a segment long
    # takes lanes: each shape of walk, against the same walks stepped alone.
    calls = _record_lanes(monkeypatch)
    kinds = set()
    for disc in fundamentals_with_n_up_to(1500):
        n = disc.N
        char = quad_char(disc)
        vals = char.values()
        for base in STEPPED:
            if gcd(base, n) > 1:
                continue
            e, self_paired, starts = classnum._tower(base, n, "")
            steps = e // 2 if self_paired else e
            if steps < 2 * isqrt(steps * len(starts)):
                continue
            packed, stepped, (_, _, s, seg, count, walks) = _lanes_and_steps(
                monkeypatch, calls, disc, base, 0)
            assert packed == stepped == h_dirichlet(disc).h * (base - s), (disc.D, base)
            assert (count, walks) == (steps // seg, len(starts)), (disc.D, base)
            plus = sum(vals[x] == 1 for x in starts)
            kinds.add((s, self_paired))
            kinds.add("steps % seg > 0" if steps % seg else "steps % seg = 0")
            if plus >= 2 and len(starts) - plus >= 2 and not is_prime(n):
                kinds.add((s, "several walks of each sign, N composite"))
    assert kinds == {(1, False), (-1, False), (-1, True), "steps % seg > 0", "steps % seg = 0",
                     (1, "several walks of each sign, N composite"),
                     (-1, "several walks of each sign, N composite")}


@pytest.mark.parametrize(
    "D, base, walks, plus",
    [
        # 33463 = 109 * 307: chi(5) = -1, -C != C, 9 walks of each sign of chi(x);
        # chi(12) = -1, -C = C, 18 of each; chi(7) = +1, 18 of each.
        (-33463, 5, 18, 9), (-33463, 12, 36, 18), (-33463, 7, 36, 18),
        # Prime N = 300007: chi(13) = -1, -C = C, 7 walks; 67 and 4099 step one digit a
        # block, in lanes of 8 and 11 bytes a slot (F + bits(B^2) = 63 and 87 bits).
        (-300007, 13, 7, 4), (-300007, 67, 1, 1), (-300007, 4099, 1, 1),
        # N = 1000003: 12 bytes a slot at 4099 (89 bits), 10 at 257 (73), and 14 at
        # 65537 (105) and 99991 (108), the widest of any base at this N.
        (-1000003, 4099, 1, 1), (-1000003, 257, 3, 2), (-1000003, 65537, 3, 2),
        (-1000003, 99991, 1, 1),
        # N = 9999991, next to MAX_N: chi(3) = -1 with 21 walks, chi(13) = +1 with one.
        (-9999991, 3, 21, 11), (-9999991, 13, 1, 1),
        # B = 10 in lanes: 3 walks, 2 with chi(x) = +1, at each of these N (h = 145,
        # 105 and 1715).
        (-300007, 10, 3, 2), (-1000003, 10, 3, 2), (-9999991, 10, 3, 2),
    ],
)
def test_lanes_match_block_stepping_above_the_constant(monkeypatch, D, base, walks, plus):
    disc = from_discriminant(D)
    calls = _record_lanes(monkeypatch)
    try:
        packed, stepped, (_, n, s, seg, count, got) = _lanes_and_steps(
            monkeypatch, calls, disc, base, classnum.LANE_DIGITS)
        assert packed == stepped == h_dirichlet(disc).h * (base - s)
        assert got == walks and n == disc.N and seg % 2 == 0 and count >= 1
        starts = classnum._tower(base, n, "")[2]
        vals = quad_char(disc).values()
        assert sum(vals[x] for x in starts) == plus - (walks - plus)
    finally:
        _clear_caches()


def test_corrupt_lane_end_is_caught(monkeypatch):
    # A wrong B^seg (mod N) puts every segment but each walk's first in the wrong
    # place, so the packed ends miss: in h_theorem1 and, at the first stepped base
    # B = 3, in the record.
    D = -300007
    calls = _record_lanes(monkeypatch)
    h_theorem1(from_discriminant(D), 3)
    ((_, n, _, seg, _, _),) = calls
    real = pow

    def corrupt(base, exp, mod=None):
        got = real(base, exp, mod)
        return (got + 1) % n if (exp, mod) == (seg, n) else got

    monkeypatch.setattr(classnum, "pow", corrupt, raising=False)
    with pytest.raises(InternalError, match=rf"^cycle\[B=13\] at D={D}: .*missed their ends"):
        h_theorem1(from_discriminant(D), 13)
    record = verify_discriminant(D)
    assert not record.passed
    assert record.error.startswith(f"cycle[B=3] at D={D}: ")


def test_sweep_and_girstmair_never_enter_lanes(monkeypatch):
    # phi(N)/2 <= 2500 in the sweep and (p - 1)/2 <= 3999 for the girstmair primes.
    def refuse(*args):
        raise AssertionError("lanes entered")

    monkeypatch.setattr(classnum, "_lanes", refuse)
    assert classnum.LANE_DIGITS > 8000 // 2
    assert verify_range(-300, -5).ok
    assert h_girstmair(7963).h == h_dirichlet(from_discriminant(-7963)).h


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


def test_dirichlet_sum_by_parts_matches_per_x_sum():
    discs = [*fundamentals_with_n_up_to(5000), from_discriminant(-300007)]
    for disc in discs:
        want = dirichlet_sum_by_x(quad_char(disc).values(), disc.N)
        assert h_dirichlet(disc).raw_sum == want, disc.D


def test_folded_dirichlet_sum_matches_per_x_sum():
    # The fold reads chi(x) for x < N/2 only: odd N (floor(N/2) odd, as N = 3 mod 4) and
    # even N (N/2 even), a large prime and a large composite odd N, each even shape, -1000003,
    # and the Mersenne primes 2^13 - 1, 2^17 - 1 and 2^19 - 1, whose m = N // 2 + 1 is a power
    # of two, so the bit planes' doubled masks end flush at m.
    large = {-300007: Case.ODD, -300003: Case.ODD, -400004: Case.D1, -400024: Case.D2,
             -400008: Case.D3, -1000003: Case.ODD, -8191: Case.ODD, -131071: Case.ODD,
             -524287: Case.ODD}
    discs = [*fundamentals_with_n_up_to(200), *map(from_discriminant, large)]
    assert {(d.N % 2, d.N // 2 % 2) for d in discs} == {(1, 1), (0, 0)}
    assert [d.case for d in discs[-len(large):]] == list(large.values())
    assert not is_prime(300003) and is_prime(300007) and is_prime(1000003)
    assert [d.N // 2 + 1 for d in discs[-3:]] == [1 << 12, 1 << 16, 1 << 18]
    for disc in discs:
        want = dirichlet_sum_by_x(quad_char(disc).values(), disc.N)
        assert h_dirichlet(disc).raw_sum == want, disc.D


@pytest.mark.parametrize("D", [-23, -4004, -300007])
@pytest.mark.parametrize("upper", [False, True])
def test_corrupt_table_entry_fails_the_record(D, upper):
    # One unit's chi flipped in the cached table: below N/2 the fold reads it, so
    # dirichlet's h changes or fails its division; above N/2 only the other routes do
    # (the E_k pass counts the pieces above N/2 and mirrors them), and the record
    # fails either way.
    _clear_caches()
    disc = from_discriminant(D)
    good = h_dirichlet(disc)
    vals = quad_char(disc).values()
    x = next(x for x in range(disc.N // 2 + 1, disc.N) if vals[x]) if upper else 1
    h_dirichlet.cache_clear()
    vals[x] = -vals[x]
    try:
        if upper:
            assert h_dirichlet(disc) == good
        else:
            try:
                assert h_dirichlet(disc).h != good.h
            except InternalError as exc:
                assert "dirichlet" in str(exc)
        assert not verify_discriminant(D).passed
    finally:
        _clear_caches()


def _record_factoring(monkeypatch) -> list[int]:
    """Route every quadclass module's distinct_prime_factors through a recorder of its arguments."""
    calls = []
    real = arith.distinct_prime_factors

    def counting(n):
        calls.append(n)
        return real(n)

    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "quadclass" and hasattr(module, "distinct_prime_factors"):
            monkeypatch.setattr(module, "distinct_prime_factors", counting)
    return calls


def _clear_caches():
    # By the names imported above: the tests replace the module attributes.
    for cache in (quad_char, h_dirichlet, arith.multiplicative_order, arith.phi_with_primes,
                  distinct_prime_factors, least_primitive_root):
        cache.cache_clear()


@pytest.mark.parametrize("D", [-47, -4004])
def test_n_is_factored_once_per_discriminant(monkeypatch, D):
    # N and phi(N) are factored once per D, however many bases share them.
    calls = _record_factoring(monkeypatch)
    first = next(b for b in DEFAULT_BASES if gcd(b, D) == 1)
    counts = []
    for bases in ((first,), DEFAULT_BASES):
        _clear_caches()
        calls.clear()
        assert verify_discriminant(D, bases).passed
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


@pytest.mark.parametrize("D", [-47, -4004, -300007])
def test_each_n_is_trial_divided_once(monkeypatch, D):
    # Every caller, primality tests included, reads one cached factorization per n.
    calls = _record_factoring(monkeypatch)
    _clear_caches()
    assert verify_discriminant(D, DEFAULT_BASES).passed
    assert distinct_prime_factors.cache_info().misses == len(set(calls))


def test_primitive_root_searched_once_per_prime_n(monkeypatch):
    # The bases that walk W > 1 classes at prime N share one root search.
    def classes(p, b):  # W = (p - 1) / |<B, -1>|
        e = multiplicative_order(b, p)
        return (p - 1) // (e if e % 2 == 0 and pow(b, e // 2, p) == p - 1 else 2 * e)

    disc = next(d for d in fundamentals_with_n_up_to(5000) if is_prime(d.N)
                and sum(classes(d.N, b) > 1 for b in DEFAULT_BASES if b % d.N) >= 2)
    calls = []
    monkeypatch.setattr(classnum, "least_primitive_root",
                        lambda p: calls.append(p) or least_primitive_root(p))
    _clear_caches()
    assert verify_discriminant(disc.D).passed
    assert len(calls) >= 2
    assert least_primitive_root.cache_info().misses == 1


def test_root_of_p_searched_once_for_every_n_it_divides(monkeypatch):
    # 5 divides N = 15 and N = 35, whose phi(N) have the primes (2,) and (2, 3),
    # and both towers need 5's root: the search is keyed on p alone.
    asked = set()  # (D, p) for each root a tower of D asks for
    monkeypatch.setattr(classnum, "least_primitive_root",
                        lambda p: asked.add((D, p)) or least_primitive_root(p))
    _clear_caches()
    for D in (-15, -35):
        disc = from_discriminant(D)
        for base in _coprime_bases(disc.N):
            h_theorem1(disc, base)
    assert {(-15, 5), (-35, 5)} <= asked
    assert least_primitive_root.cache_info().misses == len({p for _, p in asked})


def test_tower_and_direct_callers_share_one_root_entry():
    # At N = 15, B = 4 the tower needs 5's root (r = 2 at the step mod 5) and no
    # other; asking for it again by p alone, as h_girstmair and the CLI do, hits.
    _clear_caches()
    h_theorem1(from_discriminant(-15), 4)
    assert least_primitive_root(5) == 2
    info = least_primitive_root.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_root_cache_keeps_every_prime_of_a_sweep(monkeypatch):
    # A sweep down to -1200 walks towers that need the roots of more primes
    # than 64, revisiting each p at every N it divides: each is searched once.
    asked = set()
    monkeypatch.setattr(classnum, "least_primitive_root",
                        lambda p: asked.add(p) or least_primitive_root(p))
    _clear_caches()
    for disc in fundamentals_with_n_up_to(1200):
        for base in _coprime_bases(disc.N):
            h_theorem1(disc, base)
    assert len(asked) > 64
    assert least_primitive_root.cache_info().misses == len(asked)


def test_girstmair_works_out_each_order_once(monkeypatch):
    # least_primitive_root has shown that B generates, and the tower inside
    # h_theorem1 certifies the period: B's order mod p is found once, there.
    calls = []
    for module in (arith, classnum):
        monkeypatch.setattr(module, "order_within",
                            lambda *args, real=module.order_within: calls.append(args) or real(*args))
    _clear_caches()
    primes = [p for p in range(7, 8000, 4) if is_prime(p)]
    for p in primes:
        h_girstmair(p)
    assert len(primes) == 506
    assert len(calls) == len(primes)


def test_tower_against_sympy_orders():
    # What the tower alone now decides, against an oracle that shares none of
    # it: e is B's order mod N, -1 is a power of B mod N exactly when
    # B^(e/2) = -1, and it returns one start per coset of <B, -1>.
    from sympy import n_order, totient

    kinds = set()
    for disc in fundamentals_with_n_up_to(3000):
        n = disc.N
        phi = int(totient(n))
        for base in [*BASES, 17, 67]:
            if gcd(base, n) > 1:
                continue
            e, self_paired, starts = classnum._tower(base, n, "")
            order = n_order(base, n)
            paired = order % 2 == 0 and pow(base, order // 2, n) == n - 1
            assert (e, self_paired) == (order, paired), (n, base)
            walks = phi // (order if paired else 2 * order)
            assert len(starts) == walks, (n, base)
            odd = len(distinct_prime_factors(n)) - (n % 2 == 0)  # odd primes of N
            kinds.add("8 | N" if n % 8 == 0 else "4 || N" if n % 4 == 0 else "prime" if odd == 1
                      else f"odd composite, W {'>' if walks > 1 else '='} 1")
    assert kinds == {"8 | N", "4 || N", "prime", "odd composite, W = 1", "odd composite, W > 1"}


# One (D, B) per branch of the walk: chi(2 mod 47) = +1 with order 23;
# chi(5 mod 47) = -1 with 5^23 = -1; chi(2 mod 35) = -1 with order 12 and
# 2^6 = 29, so -1 is no power of 2 mod 35.  Then walks over several classes:
# chi(5 mod 71) = +1 with order 5, W = 7; chi(3 mod 103) = -1 with
# 3^17 = -1, W = 3; chi(2 mod 119) = +1 with order 24, W = 2.
BRANCHES = [(-47, 2), (-47, 5), (-35, 2), (-71, 5), (-103, 3), (-119, 2)]


@pytest.mark.parametrize("wrong", [lambda e: e + 1, lambda e: 2 * e, lambda e: e - 1])
def test_wrong_period_is_caught(monkeypatch, wrong):
    real = classnum._tower

    def tower(*args):
        e, self_paired, starts = real(*args)
        return wrong(e), self_paired, starts

    monkeypatch.setattr(classnum, "_tower", tower)
    for D, base in BRANCHES:
        with pytest.raises(InternalError, match=rf"cycle\[B={base}\] at D={D}"):
            h_theorem1(from_discriminant(D), base)


@pytest.mark.parametrize(
    "D, base",
    [
        pytest.param(-3315, 2, id="radix"),
        pytest.param(-3315, 7, id="stepped"),
        pytest.param(-300007, 13, id="lanes"),  # phi(N)/2 >= LANE_DIGITS
    ],
)
def test_dropped_start_fails_the_cycle_count(monkeypatch, D, base):
    # One class fewer is walked than the tower counts: every walk still
    # closes, and only the count of the starts walked tells.
    real = classnum._tower

    def tower(*args):
        e, self_paired, starts = real(*args)
        return e, self_paired, starts[:-1]

    monkeypatch.setattr(classnum, "_tower", tower)
    with pytest.raises(InternalError, match=rf"^cycle\[B={base}\] at D={D}: cycle count"):
        h_theorem1(from_discriminant(D), base)


def test_open_stepped_walk_fails_the_closure_check(monkeypatch):
    # 3 has order 12 mod 35 and W = 1.  A tower that halves the period and adds
    # the start N - 1 keeps the cycle count, phi(35) = 2 * 6 * 2, but the walk
    # of 6 steps from 1 ends at 3^6 = 29, not 1.
    real = classnum._tower

    def tower(base, n, where):
        e, self_paired, starts = real(base, n, where)
        return e // 2, False, starts + [n - x for x in starts]

    monkeypatch.setattr(classnum, "_tower", tower)
    message = "cycle[B=3] at D=-35: period 6 did not close the orbit of 1"
    with pytest.raises(InternalError, match=rf"^{re.escape(message)}$"):
        h_theorem1(from_discriminant(-35), 3)
    assert not verify_discriminant(-35).passed  # B = 2 fails first, at the radix division
    record = verify_discriminant(-35, (3,))
    assert not record.passed and record.error == message


def test_class_starts_are_one_per_class(monkeypatch):
    # The starts h_theorem1 walks from, against the all_cycles partition with
    # a cycle C and its reflection -C as one class: W starts in W classes.
    starts = []
    real = classnum._tower

    def recording(*args):
        e, self_paired, got = real(*args)
        starts.extend(got)
        return e, self_paired, got

    monkeypatch.setattr(classnum, "_tower", recording)
    kinds = set()  # the shapes of the N with more than one class; 3 stands for 3 or more
    for disc in fundamentals_with_n_up_to(3000):
        n = disc.N
        for base in [*BASES, 17, 67]:
            if gcd(base, n) > 1:
                continue
            starts.clear()
            h_theorem1(disc, base)
            cycles = all_cycles(base, n).cycles
            index = {}  # unit -> the index of its cycle
            for i, c in enumerate(cycles):
                index.update(dict.fromkeys(c.cycle, i))
            classes = {min(index[x], index[n - x]) for x in (c.cycle[0] for c in cycles)}
            hit = {min(index[x], index[n - x]) for x in starts}
            assert len(starts) == len(hit) == len(classes), (disc.D, base)
            if len(starts) > 1:
                odd = len(distinct_prime_factors(n)) - (n % 2 == 0)  # odd primes of N
                kinds.add("8 | N" if n % 8 == 0 else "4 || N" if n % 4 == 0
                          else "prime" if odd == 1 else f"odd, {min(odd, 3)} primes")
    assert kinds == {"8 | N", "4 || N", "prime", "odd, 2 primes", "odd, 3 primes"}


@pytest.mark.parametrize(
    "q, wrong",
    [
        pytest.param(4, lambda o: 2 * o, id="lcm-moves"),  # ord_4(3) = 2, the lcm becomes 60
        pytest.param(11, lambda o: 2 * o, id="lcm-stays"),  # ord_11(3) = 5, the lcm stays 30
        pytest.param(7, lambda o: o // 2, id="halved"),  # ord_7(3) = 6
        pytest.param(13, lambda o: 7 * o, id="outside-phi"),  # 7 does not divide phi(4004)
    ],
)
def test_wrong_factor_order_is_caught(monkeypatch, q, wrong):
    # 3 has order 30 mod 4004 = 4 * 7 * 11 * 13 and W = 24 classes.  A wrong
    # order mod one prime power would misplace the starts of the tower.
    real = classnum.order_within

    def order_within(b, n, *rest):
        o = real(b, n, *rest)
        return wrong(o) if (b, n) == (3, q) else o

    monkeypatch.setattr(classnum, "order_within", order_within)
    with pytest.raises(InternalError, match=r"cycle\[B=3\] at D=-4004: "):
        h_theorem1(from_discriminant(-4004), 3)
    record = verify_discriminant(-4004)
    assert not record.passed
    assert "cycle[B=3] at D=-4004: " in record.error


def test_cycle_walk_holds_nothing_of_size_n():
    # N = 4 * 5 * 73 * 137 has W = 96 classes at B = 3, each a walk of 408
    # steps: the starts come from the unit group, with no array of N flags.
    disc = from_discriminant(-200020)
    h_theorem1(disc, 3)  # the character table and the digit tables, outside the trace
    tracemalloc.start()
    try:
        h_theorem1(disc, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < disc.N // 8


def test_ek_pass_counts_on_the_table_without_a_copy():
    # The sweep's bases 2..13 in one pass at N = 1000003: the counts run on the
    # table's own buffer, so the pass holds nothing of size N.
    char = QuadChar(from_discriminant(-1000003))
    char.values()
    tracemalloc.start()
    try:
        char.ek_tables(tuple(range(2, 14)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < char.disc.N // 8


def test_doubled_period_needs_the_order_certificate(monkeypatch):
    # 2 has order 8 mod 17 and 24 mod 119 = 7 * 17.  A claimed order 16 mod 17
    # makes the period 48, which divides phi(119) = 96 = 2 * 48 with one
    # class, so the one walk from 1 would close: only the certificate is left.
    real = classnum.order_within

    def order_within(b, n, *rest):
        o = real(b, n, *rest)
        return 2 * o if (b, n) == (2, 17) else o

    monkeypatch.setattr(classnum, "order_within", order_within)
    with pytest.raises(InternalError, match=r"cycle\[B=2\] at D=-119: 16 is not the order of 2 mod 17"):
        h_theorem1(from_discriminant(-119), 2)


def test_class_count_must_be_whole(monkeypatch):
    # A doubled lcm makes |H| = 12 at D = -7, B = 2 while the order 3 of 2
    # mod 7 is certified, so only the r_i certificate is left to fail.
    real = classnum.lcm
    monkeypatch.setattr(classnum, "lcm", lambda *a: 2 * real(*a))
    with pytest.raises(InternalError, match=r"^cycle\[B=2\] at D=-7: .* is not whole$"):
        h_theorem1(from_discriminant(-7), 2)


@pytest.mark.parametrize(
    "D, base, power, message",
    [
        # Claimed -1 = B^(e/2) where it is not:
        pytest.param(-15, 2, -1, r"with chi\(B\) = \+1", id="chi+1"),  # e = 4
        pytest.param(-35, 2, -1, "needs 6 odd", id="half-even"),  # chi(2) = -1, e = 12
        pytest.param(-8, 5, -1, "cycle count", id="no-reflection"),  # chi(5) = -1, e = 2
        # Denied -1 = B^(e/2) where it is:
        pytest.param(-47, 5, 1, "cycle count", id="missed-reflection"),  # chi(5) = -1, e = 46
    ],
)
def test_wrong_reflection_decision_is_caught(monkeypatch, D, base, power, message):
    # classnum._tower decides whether -1 is a power of B mod N; power = -1
    # claims it is and power = 1 claims it is not, the reverse of the truth.
    real = classnum._tower

    def tower(*args):
        e, self_paired, starts = real(*args)
        assert self_paired == (power == 1)
        return e, not self_paired, starts

    monkeypatch.setattr(classnum, "_tower", tower)
    with pytest.raises(InternalError, match=rf"cycle\[B={base}\] at D={D}: .*{message}"):
        h_theorem1(from_discriminant(D), base)


def test_non_integral_or_non_positive_h_is_caught():
    disc = from_discriminant(-23)
    with pytest.raises(InternalError, match="not divisible"):
        classnum._exact_h(disc, 7, 2, "cycle[B=3]", 7)
    with pytest.raises(InternalError, match="<= 0"):
        classnum._exact_h(disc, -6, 2, "cycle[B=3]", -6)


@pytest.mark.parametrize("D, method, raw", [(-23, "sixth", 0), (-4004, "quarter", 0),
                                            (-4004, "quarter", -3)])
def test_closed_form_guards_are_the_exact_h_check(monkeypatch, D, method, raw):
    # A vanishing sixth sum or a quarter sum below 1 fails _exact_h's positivity check.
    monkeypatch.setattr(theorems, "_total", lambda disc, base, k: raw)
    route = theorems.h_abs_sixth if method == "sixth" else theorems.h_quarter_sum
    message = f"{method} at D={D}: got h = {abs(raw) if method == 'sixth' else raw} <= 0"
    with pytest.raises(InternalError, match=f"^{message}$"):
        route(from_discriminant(D))
    rec = verify_discriminant(D)
    assert not rec.passed and rec.error == message


def test_integral_endpoint_is_caught(monkeypatch):
    # Past the coprimality check, base 14 cuts (0, 7) at the unit x = 1.
    monkeypatch.setattr(classnum, "_check_coprime_base", lambda disc, base: None)
    disc = from_discriminant(-7)
    for route in (ek_table, h_floor_formula, h_from_ek):
        with pytest.raises(InternalError, match="integral endpoint"):
            route(disc, 14)


def test_merged_pass_matches_per_base_counts_and_binning():
    # Every base 2..13 whose cuts miss the units: all of them once N > 13, so even D
    # get 4 and 12, whose cuts such as N/4 are integers with chi = 0.
    for disc in [*fundamentals_with_n_up_to(3000), from_discriminant(-300007)]:
        n = disc.N
        bases = [b for b in BASES if b % n]
        random.Random(n).shuffle(bases)
        merged = QuadChar(disc).ek_tables(tuple(bases))
        assert [table.base for table in merged] == bases, disc.D
        vals = quad_char(disc).values()
        for base, table in zip(bases, merged):
            assert table == QuadChar(disc).ek_table(base), (disc.D, base)
            entries, pos, neg = ek_by_binning(vals, n, base)
            assert table.entries == tuple(entries), (disc.D, base)
            assert table.pos_counts == tuple(pos), (disc.D, base)
            assert table.neg_counts == tuple(neg), (disc.D, base)


def test_cut_plan_matches_binning_across_n_and_orders():
    # The merged order of the cuts depends only on the set of bases, so one cached
    # plan serves every N and every order of the same bases.  Bases above N (up to
    # 3N) and 4099 repeat points, which make empty pieces, and the mirror must map
    # them onto empty pieces too, with the odd ones alone as well.
    plan = discriminant._cut_plan
    plan.cache_clear()
    rng = random.Random(19)
    subsets = [rng.sample(range(2, 14), rng.randint(2, 13)) for _ in range(8)]
    sets = set()
    for D in (-7, -8, -15, -20, -23, -24, -84, -3315, -4004, -30011):
        disc = from_discriminant(D)
        n = disc.N
        large = [n + 1, 2 * n + 1, 3 * n, 4099] if n < 100 else [4099]
        odd = [b for b in large if b % 2]  # lcm odd: N/2 is a cut of no base
        for bases in [*subsets, large + subsets[0], large, large[:-1], odd]:
            bases = [b for b in bases if first_integral_unit_cut(disc, b) is None]
            for order in (bases, bases[::-1]):
                char = QuadChar(disc)
                tables = char.ek_tables(tuple(order))
                for base, table in zip(order, tables):
                    entries, pos, neg = ek_by_binning(char.values(), n, base)
                    assert table.entries == tuple(entries), (D, base, order)
                    assert (table.pos_counts, table.neg_counts) == (tuple(pos), tuple(neg))
            distinct = set(bases)
            if distinct and sum(distinct) + len(distinct) <= discriminant.MAX_PLAN_CUTS:
                sets.add(frozenset(distinct))
    # A plan past MAX_PLAN_CUTS (4099, alone or with other bases) is built per call, never kept.
    info = plan.cache_info()
    assert info.misses == info.currsize == len(sets) and info.hits > info.misses


@pytest.mark.parametrize("D", [-23, -4004, -300007])
def test_lower_half_of_the_table_is_never_counted(D):
    # The pass counts the pieces above N/2 and reads the ones below by the mirror
    # x -> N - x, so zeroing chi on [0, N/2] in the cached buffer changes no count.
    _clear_caches()
    disc = from_discriminant(D)
    n, bases = disc.N, tuple(BASES)
    char = quad_char(disc)
    buf = char.values().obj
    intact = bytes(buf)
    buf[: n // 2 + 1] = bytes(n // 2 + 1)
    char._counts.clear()
    try:
        tables = char.ek_tables(bases)
        want = memoryview(intact).cast("b")
        for base, table in zip(bases, tables):
            entries, pos, neg = ek_by_binning(want, n, base)
            assert table.entries == tuple(entries), (D, base)
            assert (table.pos_counts, table.neg_counts) == (tuple(pos), tuple(neg)), (D, base)
    finally:
        buf[:] = intact
        _clear_caches()


@pytest.mark.parametrize(
    "D, plans",
    [
        (-47, [(3,), (5, 7), (3, 9, 11, 13)]),
        (-23, [(3,), (5, 7), (3, 9, 11, 13)]),
        (-56, [(3,), (5, 7), (3, 9, 11, 13), (4,), (12,)]),
        (-300007, [(3,), (5, 7), (3, 9, 11, 13)]),
        (-4004, [(4,), (12,), (4, 12)]),
        (-1000052, [(4,), (12,)]),
    ],
)
def test_mirror_matches_binning_at_odd_lcm_and_integral_cuts(D, plans):
    # An odd lcm makes N/2 a cut of no base asked for, so only the plan's own N/2
    # key keeps a piece from straddling it; at even D, B = 4 and 12 cut at N/4, N/2
    # and 3N/4, integers with chi = 0, which the mirror maps onto each other.
    disc = from_discriminant(D)
    n = disc.N
    vals = quad_char(disc).values()
    if n % 2 == 0:
        assert n % 4 == 0 and not vals[n // 4] and not vals[n // 2] and not vals[3 * n // 4]
    for bases in plans:
        for base, table in zip(bases, QuadChar(disc).ek_tables(bases)):
            entries, pos, neg = ek_by_binning(vals, n, base)
            assert table.entries == tuple(entries), (D, base)
            assert (table.pos_counts, table.neg_counts) == (tuple(pos), tuple(neg)), (D, base)


def test_lone_base_counts_through_the_plan():
    # One new base counts through its own plan, as several do: kept for (5,) and
    # (3,), and built per call for (4099,), whose 4100 cuts pass MAX_PLAN_CUTS.
    plan = discriminant._cut_plan
    for D in (-7, -4004, -300007):
        disc = from_discriminant(D)
        char = QuadChar(disc)
        vals, n = char.values(), disc.N
        for bases in [(5,), (3, 3), (4099,)]:
            plan.cache_clear()
            (table, *_) = char.ek_tables(bases)
            entries, pos, neg = ek_by_binning(vals, n, bases[0])
            assert table.entries == tuple(entries), (D, bases)
            assert (table.pos_counts, table.neg_counts) == (tuple(pos), tuple(neg)), (D, bases)
            kept = int(bases[0] + 1 <= discriminant.MAX_PLAN_CUTS)
            info = plan.cache_info()
            assert (info.misses, info.currsize) == (kept, kept), (D, bases)
        # 3 and 5 are kept, so 9 is the one base this pass counts.
        assert [t.base for t in char.ek_tables((3, 9, 5))] == [3, 9, 5]
        assert char.ek_table(9).entries == tuple(ek_by_binning(vals, n, 9)[0])


@pytest.mark.parametrize("D", [-47, -4004, -300007])
def test_merged_pass_counts_only_the_bases_not_kept(D):
    counted = []

    class CountingMemo(dict):
        def __setitem__(self, base, counts):
            counted.append(base)
            super().__setitem__(base, counts)

    char = QuadChar(from_discriminant(D))
    char._counts = CountingMemo()
    kept = char.ek_tables((9, 4, 13))
    assert counted == [9, 4, 13]
    counted.clear()
    again = char.ek_tables((13, 2, 9, 12, 4, 5, 2))
    assert counted == [2, 12, 5]
    assert again[0] is kept[2] and again[2] is kept[0] and again[4] is kept[1]
    assert again[1] is again[6] is char.ek_table(2)
    fresh = QuadChar(char.disc)
    assert again == [fresh.ek_table(b) for b in (13, 2, 9, 12, 4, 5, 2)]


def test_integral_endpoint_in_a_merged_pass_keeps_nothing():
    # Base 3 alone is fine at D = -7; base 14 cuts (0, 7) at the unit x = 1.
    # QuadChar has no coprimality check, so the merged pass meets that cut.
    disc = from_discriminant(-7)
    with pytest.raises(InternalError) as single:
        QuadChar(disc).ek_table(14)
    char = QuadChar(disc)
    with pytest.raises(InternalError) as merged:
        char.ek_tables((3, 14))
    assert str(merged.value) == str(single.value) == "integral endpoint 2*7/14 at D=-7 with chi = 1"
    assert char._counts == {}
    assert char.ek_table(3).entries == tuple(ek_by_binning(char.values(), 7, 3)[0])


def test_integral_cut_check_matches_every_k_oracle():
    # The kernel tests only the k that are multiples of B / gcd(B, N); the
    # oracle tests every k.  Bases up to 3N include B > N, where cuts repeat.
    outcomes = set()
    for D in (-7, -8, -11, -15, -20, -24):
        disc = from_discriminant(D)
        n = disc.N
        for base in range(2, 3 * n + 1):
            char = QuadChar(disc)
            found = first_integral_unit_cut(disc, base)
            if found is None:
                (table,) = char.ek_tables((base,))
                entries, pos, neg = ek_by_binning(char.values(), n, base)
                assert table.entries == tuple(entries), (D, base)
                assert (table.pos_counts, table.neg_counts) == (tuple(pos), tuple(neg)), (D, base)
            else:
                k, c = found
                with pytest.raises(InternalError) as exc:
                    char.ek_tables((base,))
                assert str(exc.value) == f"integral endpoint {k}*{n}/{base} at D={D} with chi = {c}"
                assert char._counts == {}
            outcomes.add(found is None)
    assert outcomes == {True, False}


@pytest.mark.parametrize(
    "base, error",
    [
        (-3, ValueError),
        (0, ValueError),
        (1, ValueError),
        (classnum.MAX_BASE + 1, ModulusTooLargeError),
    ],
)
def test_bad_base_is_refused_before_anything_is_counted(base, error):
    # The kernel checks its own bases: alone, or after a good base in one pass.
    disc = from_discriminant(-47)
    for count in (lambda char: char.ek_table(base), lambda char: char.ek_tables((3, base))):
        char = QuadChar(disc)
        with pytest.raises(ValueError) as exc:
            count(char)
        assert exc.type is error, (base, exc.value)
        assert char._counts == {} and char._values is None


def test_sign_counts_at_the_closed_form_bases_match_binning():
    # The closed forms read the counts at B = 4 and 12 for even D, where cuts
    # such as N/4 are integers, and at B = 6 for odd D coprime to 6.
    seen = set()
    for disc in fundamentals_with_n_up_to(5000):
        n = disc.N
        if n % 2 == 0:
            bases = (4, 12)
        elif n % 3:
            bases = (6,)
        else:
            continue
        char = quad_char(disc)
        for base in bases:
            _, pos, neg = ek_by_binning(char.values(), n, base)
            table = char.ek_table(base)
            assert (table.pos_counts, table.neg_counts) == (tuple(pos), tuple(neg)), (disc.D, base)
            seen.add((n % 2, gcd(base, n) > 1))
    assert seen == {(0, True), (1, False)}


@pytest.mark.parametrize(
    "D, bases",
    [
        pytest.param(-47, set(range(2, 14)), id="odd"),  # coprime to every base 2..13
        # 4004 = 4*7*11*13: the coprime bases, then the quarter and sixth-pair forms
        pytest.param(-4004, {3, 5, 9, 4, 12}, id="even"),
    ],
)
def test_sign_counts_are_counted_once_per_base_read(D, bases):
    counted = []

    class CountingMemo(dict):
        def __setitem__(self, base, counts):
            counted.append(base)
            super().__setitem__(base, counts)

    quad_char.cache_clear()
    char = quad_char(from_discriminant(D))
    char._counts = CountingMemo()
    char.values()
    h_dirichlet(char.disc)
    assert counted == []
    assert verify_discriminant(D).passed
    assert sorted(counted) == sorted(bases)
