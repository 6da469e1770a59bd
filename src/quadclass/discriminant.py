"""Fundamental discriminants D < -4 and their quadratic characters.

A negative squarefree m generates a field whose discriminant is D = m when
m = 1 (mod 4) and D = 4m otherwise.  Writing N = |D|, the character chi_D is
the completely multiplicative function of period N with chi_D(-1) = -1 that
splits over the case of D:

    odd D            chi(x) = (x / |m|)                       (Jacobi)
    m = 3 (mod 4)    chi(x) = chi4(x) (x / |m|)
    m = 2n, n = 1    chi(x) = chi8(x) (x / |n|)
    m = 2n, n = 3    chi(x) = chi4(x) chi8(x) (x / |n|)

with chi4, chi8 the characters mod 4 and 8 on odd arguments.  D = -3 and
D = -4 are excluded throughout: their extra units break the class number
identities this package checks.

QuadChar is the one implementation of chi_D and the kernel every class number
route shares: the table of chi_D over one period, built once per D as a product
of periodic rows (the Jacobi symbol factored into Legendre rows, times the
chi4/chi8 row) in one bytearray that every route reads in place, and the
EkTable of counts of chi = +1, -1 in the B pieces of (0, N) per (D, B), counted
off that buffer in one pass over the cuts of all the bases asked for at once, a
lone base too.  The merged order of those cuts depends only on the set of
bases, never on N, so it is a cached plan (_cut_plan) and a D only scales its
integer keys.  The pass counts above N/2 only and mirrors by E_{B-1-k} = -E_k;
only h_dirichlet reads below N/2, so it certifies the reflection against the
E_k routes.  Single values are read from the table too.  A Legendre row of p
stores nothing per square: Euler's criterion at the primes q <= m ~ 1.5 p^(2/3)
gives its base, chi on [-m, m]; Dirichlet's approximation theorem puts every
other x within m/b of some kp/b with b < p/m, so strided copies of the base
fill the rest; and a 0 left in the row is a gap in that cover and raises
InternalError.  The formula above, evaluated pointwise through quadratic
reciprocity, is the tests' independent oracle.  quad_char keeps the QuadChar of
the last D.  check_size and check_base refuse an N above MAX_N and a base
outside 2..MAX_BASE before any table or cut list exists.
"""

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, chain, compress, repeat
from math import gcd, isqrt, lcm
from operator import itemgetter, sub

from .arith import distinct_prime_factors, is_squarefree
from .errors import (
    ExcludedDiscriminantError,
    InternalError,
    ModulusTooLargeError,
    NotFundamentalError,
)

__all__ = [
    "MAX_N",
    "MAX_BASE",
    "check_size",
    "check_base",
    "Case",
    "Discriminant",
    "EkTable",
    "from_discriminant",
    "QuadChar",
    "quad_char",
]


# The largest N = |D| accepted.  Every route reads the table of the N + 1
# values of the character, one byte each, and the sweep cost grows with N,
# so a larger N is refused before any table exists.  It leaves room above
# D = -1000003, the largest single discriminant the performance goals name.
MAX_N = 10**7


def check_size(n: int) -> None:
    """Raise ModulusTooLargeError when the modulus n exceeds MAX_N."""
    if n > MAX_N:
        raise ModulusTooLargeError(f"N={n} exceeds the limit MAX_N={MAX_N}")


# The largest base accepted: an EkTable and the interval routes hold lists
# of B + 1 cuts, counts and Fractions.  At D = -7, B = 2*10**6 peaks at
# 95 MB in the floor route and 441 MB and 21 s in `ek`; B = 10**5 stays
# under 50 MB and 1 s, well above the largest base the tests run, 4099.
MAX_BASE = 10**5


def check_base(base: int) -> None:
    """Raise unless 2 <= base <= MAX_BASE: ValueError below, ModulusTooLargeError above."""
    if base < 2:
        raise ValueError(f"base must be at least 2, got {base}")
    if base > MAX_BASE:
        raise ModulusTooLargeError(f"base {base} exceeds the limit MAX_BASE={MAX_BASE}")


class Case(Enum):
    """Which of the four shapes D takes; drives the character formula."""

    ODD = "Odd"  # m = 1 (mod 4), D = m odd
    D1 = "D1"  # m = 3 (mod 4), D = 4m
    D2 = "D2"  # m = 2n, n = 1 (mod 4), D = 4m
    D3 = "D3"  # m = 2n, n = 3 (mod 4), D = 4m


@dataclass(frozen=True)
class Discriminant:
    """A fundamental discriminant D < -4 with its generator m and N = |D|."""

    D: int
    N: int
    m: int
    case: Case

    def __str__(self) -> str:
        return f"D={self.D} (N={self.N}, m={self.m}, case {self.case.value})"

    def __hash__(self) -> int:  # D fixes every other field, the Enum included
        return hash(self.D)


def from_discriminant(D: int) -> Discriminant:
    """Validate D as a fundamental discriminant < -4 and classify it."""
    if D in (-3, -4):
        raise ExcludedDiscriminantError(f"D={D} is excluded (extra units)")
    if D >= -4:
        raise NotFundamentalError(f"need D < -4, got {D}")
    check_size(-D)
    if D % 4 == 1:
        if not is_squarefree(-D):
            raise NotFundamentalError(f"D={D} is not squarefree")
        return Discriminant(D, -D, D, Case.ODD)
    if D % 4 != 0:
        raise NotFundamentalError(f"D={D} is neither 1 nor 0 mod 4")
    m = D // 4
    if m % 4 == 1:
        raise NotFundamentalError(f"D={D} has D/4 = 1 (mod 4), so D/4 is the discriminant")
    if not is_squarefree(-m):
        raise NotFundamentalError(f"D={D} has D/4 not squarefree")
    # m = 3 (mod 4), or m = 2n with n odd since m is squarefree
    case = Case.D1 if m % 4 == 3 else Case.D2 if (m // 2) % 4 == 1 else Case.D3
    return Discriminant(D, -D, m, case)


@dataclass(frozen=True)
class EkTable:
    """Character totals over the B subintervals (kN/B, (k+1)N/B) of (0, N).

    entries[k] is E_k = sum of chi(x) over the k-th subinterval, and
    pos_counts/neg_counts split its support by sign.  boundaries gives the
    exact rational endpoints.  An interior one is an integer only when
    gcd(B, N) > 1, as N/4 is for even D at B = 4 and 12, and chi is 0 there.
    """

    disc: Discriminant
    base: int
    entries: tuple[int, ...]
    pos_counts: tuple[int, ...]
    neg_counts: tuple[int, ...]

    @property
    def boundaries(self) -> tuple[Fraction, ...]:
        """The endpoints kN/B for k = 0..B."""
        return tuple(Fraction(k * self.disc.N, self.base) for k in range(self.base + 1))


class QuadChar:
    """The quadratic character chi_D, read from its table over one period.

    Every value, eval() included, and every EkTable comes from values()
    alone; the pointwise formula of the module docstring is kept only as
    the tests' oracle.  Instances are immutable apart from the table and
    the EkTables, each built once on first use, which callers must not
    modify; they are safe to share.  Use quad_char(disc) for the cached one.
    """

    def __init__(self, disc: Discriminant):
        self.disc = disc
        self._values: memoryview | None = None
        self._counts: dict[int, EkTable] = {}  # base -> its EkTable

    def __repr__(self) -> str:
        return f"QuadChar(D={self.disc.D})"

    def eval(self, x: int) -> int:
        """chi_D(x) in {-1, 0, +1} for any integer x; 0 exactly when gcd(x, N) > 1."""
        return self.values()[x % self.disc.N]

    def values(self) -> memoryview:
        """Table (chi(0), chi(1), ..., chi(N)) as a signed-byte view; chi(0) = chi(N) = 0.

        Built once per instance as the product (_times) of periodic rows in signed
        bytes (255 = -1), largest prime first: the Legendre row of each odd prime p | m,
        factors of the Jacobi symbol (x / |odd part of m|), then the chi4/chi8 row for even
        D.  The view's .obj is the last row or product, a bytearray of its own built with
        one byte more for chi(N) = chi(0) = 0, so it is allocated at N + 1 bytes exactly.
        """
        if self._values is None:
            row, ps = b"\x01", distinct_prime_factors(self.disc.N)
            for p in reversed(ps):
                tail = p == ps[0]  # the last factor: its row or product holds chi(N) too
                f = _legendre_row(p, tail and len(row) == 1) if p > 2 else _TWO_ROWS[self.disc.case]
                row = f if len(row) == 1 and p > 2 else _times(row, f, tail)
            if len(row) != self.disc.N + 1:
                raise InternalError(f"character row of period {len(row) - 1} at D={self.disc.D}")
            self._values = memoryview(row).cast("b")
        return self._values

    def ek_table(self, base: int) -> EkTable:
        """The EkTable at base, counted by ek_tables on first use and kept."""
        return self._counts.get(base) or self.ek_tables((base,))[0]

    def ek_tables(self, bases: tuple[int, ...]) -> list[EkTable]:
        """The EkTables at bases, in their order, counting those not kept yet in one pass.

        pos[k], neg[k] count chi(x) = +1, -1 in floor(kN/B) < x <= floor((k+1)N/B).  New bases
        are checked (check_base), then counted between their _cut_plan's points above N/2 only:
        pos by the byte 1, neg = length - pos - zeros by the rare byte 0.  x -> N - x maps the
        piece over keys (a, b) onto the one over (L - b, L - a), chi negated off the cuts, so
        the lower pieces are the upper ones reversed, pos and neg swapped.  A cut kN/B (an
        integer when B/gcd(B, N) divides k) with chi != 0 raises InternalError before any base
        is kept; N/4 (B = 4, 12, even D) and N/2 have chi = 0.
        """
        new = [b for b in dict.fromkeys(bases) if b not in self._counts]
        if new:
            for base in new:
                check_base(base)
            vals, n = self.values(), self.disc.N
            for base in new:
                for k in range(0, base + 1, base // gcd(base, n)):
                    if c := vals[k * n // base]:
                        raise InternalError(
                            f"integral endpoint {k}*{n}/{base} at D={self.disc.D} with chi = {c}"
                        )
            plan = _cut_plan if sum(new) + len(new) <= MAX_PLAN_CUTS else _cut_plan.__wrapped__
            keys, size, at, half = plan(tuple(sorted(new)))
            cuts = [key * n // size + 1 for key in keys[half:]]  # (a, b] is buf[a + 1:b + 1]
            ones = list(map(vals.obj.count, repeat(1), cuts, cuts[1:]))
            minus = [b - a - p - vals.obj.count(0, a, b) for a, b, p in zip(cuts, cuts[1:], ones)]
            signs = ((minus, ones), (ones, minus))  # chi = +1, -1 above N/2, mirrored below
            totals = [tuple(accumulate(chain(reversed(lo), hi), initial=0)) for lo, hi in signs]
            for base in new:
                pos, neg = [tuple(map(sub, e[1:], e)) for e in map(at[base], totals)]
                self._counts[base] = EkTable(self.disc, base, tuple(map(sub, pos, neg)), pos, neg)
        return [self._counts[b] for b in bases]


# The most cuts a cached _cut_plan covers.  The sweep's plans (bases 2..13) cover
# under 100; 64 plans of this size hold about 16 MB, where one plan of two bases
# near MAX_BASE would hold 15 MB.  A larger set of bases merges its cuts on every call.
MAX_PLAN_CUTS = 4096


@lru_cache(maxsize=64)
def _cut_plan(bases: tuple[int, ...]) -> tuple[list[int], int, dict[int, itemgetter], int]:
    """(keys, L, at, half) for one or more distinct ascending bases, L = lcm(2, *bases).

    The cut kN/B of every base is the key k (L/B) scaled by N/L; floor(key N / L) is
    monotone, so the sorted keys, symmetric about L/2 (at index half), order the cuts
    at every N.  at[B] reads the entries at B's B + 1 keys from a row over the keys.
    """
    size = lcm(2, *bases)
    keys = sorted({size // 2, *(k * (size // b) for b in bases for k in range(b + 1))})
    index = {key: i for i, key in enumerate(keys)}
    at = {b: itemgetter(*(index[k * (size // b)] for k in range(b + 1))) for b in bases}
    return keys, size, at, index[size // 2]


# One period of chi4, chi8 or chi4 chi8 in signed bytes: the row of the prime 2,
# which only an even D has.
_TWO_ROWS = {
    Case.D1: bytes([0, 1, 0, 255]),
    Case.D2: bytes([0, 1, 0, 255, 0, 255, 0, 1]),
    Case.D3: bytes([0, 1, 0, 1, 0, 255, 0, 255]),
}


_NEG = bytes.maketrans(b"\x01\xff", b"\xff\x01")  # negates signed bytes: 1 <-> 255 (-1)


def _legendre_row(p: int, tail: int = 0) -> bytearray:
    """(x / p) for x in [0, p) in signed bytes: +1 on the nonzero squares, -1 elsewhere, 0 at 0.

    Base: chi on [0, m], m = min(p - 1, floor(1.5 p^(2/3))) > sqrt(p), +1 but negated once
    per q^j <= m at its multiples for each prime q with Euler's q^((p-1)/2) = -1 (mod p), and
    extended to [-m, m] by chi(-1) = (-1)^((p-1)/2).  It fills [0, m] and [p - m, p).  Cover:
    Dirichlet's theorem with Q = ceil(p/m) - 1 gives every other x some 2 <= b <= Q < m and k
    coprime to b with |bx - kp| <= p/(Q + 1) <= m, so chi(x) = chi(b) chi(bx - kp) copies each
    such interval from the base in one stride-b slice.  Certificate: a 0 left at any x != 0 is
    an x the cover missed, and raises InternalError.  tail zeros follow the row.
    """
    m = min(p - 1, int(1.5 * p ** (2 / 3)))  # > sqrt(p) for every p >= 3
    sieve = bytearray(b"\x00\x00") + bytearray(b"\x01") * (m - 1)  # 1 at the primes
    for q in range(2, isqrt(m) + 1):
        if sieve[q]:
            sieve[q * q :: q] = bytes((m - q * q) // q + 1)
    base = bytearray(b"\x00") + bytearray(b"\x01") * m
    for q in compress(range(m + 1), sieve):
        if pow(q, p // 2, p) != 1:
            qj = q
            while qj <= m:
                base[qj::qj] = base[qj::qj].translate(_NEG)
                qj *= q
    ext = (base[:0:-1].translate(_NEG) if p % 4 == 3 else base[:0:-1]) + base  # [i]: chi(i - m)
    neg = ext.translate(_NEG)
    row = bytearray(p + tail)
    row[: m + 1], row[p - m : p] = base, ext[:m]
    for b in range(2, -(-p // m)):
        src = ext if base[b] == 1 else neg
        for k in range(1, b):
            if gcd(k, b) == 1:  # else k/b = k'/b' with b' < b, whose interval holds this one
                lo = (k * p - m + b - 1) // b
                row[lo : (k * p + m) // b + 1] = src[b * lo - k * p + m :: b]
    if (x := row.find(0, 1, p)) >= 0:
        raise InternalError(f"Legendre row of p={p} has no value at x={x}")
    return row


def _times(a: bytes, b: bytes, tail: int = 0) -> bytearray:
    """The product of two rows of coprime periods q <= Q, then tail zeros, in one bytearray of
    its exact size: its x = r (mod q) are the slice [r:qQ:q] of the longer row repeated q
    times, negated in place where the shorter row's entry r is -1 and zeroed where it is 0."""
    short, long = sorted((a, b), key=len)
    q, n = len(short), len(short) * len(long)
    out = bytearray().join([long] * q + [b"\0"] * tail)
    for r, c in enumerate(short):
        if c != 1:
            out[r:n:q] = out[r:n:q].translate(_NEG) if c else bytes(len(long))
    return out


@lru_cache(maxsize=1)
def quad_char(disc: Discriminant) -> QuadChar:
    """Shared QuadChar for disc, the last D's only: all routes of one D read it."""
    return QuadChar(disc)
