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

QuadChar is the one implementation of chi_D and the kernel every class
number route shares: the table of chi_D over one period, built once per D
as a product of periodic rows (the Jacobi symbol factored into Legendre
rows, times the chi4/chi8 row), and the EkTable of counts of chi = +1, -1
in the B pieces of (0, N) per (D, B), one pass over the merged cuts of all
the bases asked for at once.  Single values are read from the table too.  The
formula above, evaluated pointwise through quadratic reciprocity, is the
tests' independent oracle.  quad_char keeps the QuadChar of the last D.
"""

from array import array
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, repeat
from operator import sub

from .arith import distinct_prime_factors, is_squarefree
from .errors import (
    ExcludedDiscriminantError,
    InternalError,
    InvalidGeneratorError,
    ModulusTooLargeError,
    NotFundamentalError,
)

__all__ = [
    "MAX_N",
    "check_size",
    "Case",
    "Discriminant",
    "EkTable",
    "from_generator",
    "from_discriminant",
    "QuadChar",
    "quad_char",
]


# The largest N = |D| accepted.  Every route reads the table of the N + 1
# values of the character, one byte each, and the sweep cost grows with N,
# so a larger N is refused before any table exists.  It
# leaves room above D = -1000003, the largest single discriminant the
# project's performance goals name.
MAX_N = 10**7


def check_size(n: int) -> None:
    """Raise ModulusTooLargeError when the modulus n exceeds MAX_N."""
    if n > MAX_N:
        raise ModulusTooLargeError(f"N={n} exceeds the limit MAX_N={MAX_N}")


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


def from_generator(m: int) -> Discriminant:
    """Discriminant of the field generated by sqrt(m), m < 0 squarefree."""
    if m >= 0:
        raise InvalidGeneratorError(f"need m < 0, got {m}")
    check_size(-m if m % 4 == 1 else -4 * m)
    if not is_squarefree(-m):
        raise InvalidGeneratorError(f"{m} is not squarefree")
    if m in (-1, -3):
        raise ExcludedDiscriminantError(f"m={m} gives D in {{-3, -4}}, excluded")
    return _classify(m)


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
        return _classify(D)
    if D % 4 != 0:
        raise NotFundamentalError(f"D={D} is neither 1 nor 0 mod 4")
    m = D // 4
    if m % 4 == 1:
        raise NotFundamentalError(f"D={D} has D/4 = 1 (mod 4), so D/4 is the discriminant")
    if not is_squarefree(-m):
        raise NotFundamentalError(f"D={D} has D/4 not squarefree")
    return _classify(m)


def _classify(m: int) -> Discriminant:
    """The discriminant generated by m, already checked: m < 0 squarefree, not -1 or -3."""
    if m % 4 == 1:
        return Discriminant(m, -m, m, Case.ODD)
    if m % 4 == 3:
        case = Case.D1
    else:
        # m even: m = 2n with n odd since m is squarefree.
        case = Case.D2 if (m // 2) % 4 == 1 else Case.D3
    return Discriminant(4 * m, -4 * m, m, case)


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

    Every value, eval() included, comes from values(); the pointwise formula
    of the module docstring is kept only as the tests' oracle.  Instances
    are immutable apart from the table and the EkTables, each built once
    on first use, which callers must not modify; they are safe to share.
    Use quad_char(disc) to get the cached instance.
    """

    def __init__(self, disc: Discriminant):
        self.disc = disc
        self._values: array | None = None
        self._counts: dict[int, EkTable] = {}  # base -> its EkTable

    def __repr__(self) -> str:
        return f"QuadChar(D={self.disc.D})"

    def eval(self, x: int) -> int:
        """chi_D(x) in {-1, 0, +1} for any integer x; 0 exactly when gcd(x, N) > 1."""
        return self.values()[x % self.disc.N]

    def values(self) -> array:
        """Table (chi(0), chi(1), ..., chi(N)) as array('b'); chi(0) = chi(N) = 0.

        Built once per instance as the product (_times) of periodic rows, largest
        prime first: the Legendre row of each odd prime p | m, factors of the Jacobi
        symbol (x / |odd part of m|), then the chi4/chi8 row for even D.
        """
        if self._values is None:
            row = array("b", [1])
            self._primes = distinct_prime_factors(self.disc.N)  # ek_tables reads them too
            for p in reversed(self._primes):
                f = _legendre_row(p) if p > 2 else array("b", _TWO_ROWS[self.disc.case])
                row = f if len(row) == 1 else _times(row, f)
            if len(row) != self.disc.N:
                raise InternalError(f"character row of period {len(row)} at D={self.disc.D}")
            row.append(0)  # chi(N) = chi(0)
            self._values = row
        return self._values

    def ek_table(self, base: int) -> EkTable:
        """The EkTable at base, counted by ek_tables on first use and kept."""
        return self._counts.get(base) or self.ek_tables((base,))[0]

    def ek_tables(self, bases: tuple[int, ...]) -> list[EkTable]:
        """The EkTables at bases, in their order, counting those not kept yet in one pass.

        pos[k], neg[k] count chi(x) = +1, -1 in floor(kN/B) < x <= floor((k+1)N/B).  The new
        bases' cuts merge into one sorted list, with one count of the bytes 1 per fine piece
        and, per cut t, the units sum mu(d) floor(t/d) (squarefree d | N) in [1, t]; each base
        takes differences of these running totals at its own cuts.  An integral cut x with
        chi(x) != 0 would lie on both sides, so it raises InternalError before any base is
        kept; N/4, a cut of even D at B = 4 and 12, has chi = 0.
        """
        new = [b for b in dict.fromkeys(bases) if b not in self._counts]
        if new:
            vals, n = self.values(), self.disc.N
            cuts = {}  # base -> floor(kN/B) for k = 0..B
            for base in new:
                cuts[base] = row = []
                for k in range(base + 1):
                    t, r = divmod(k * n, base)
                    if r == 0 and vals[t]:
                        raise InternalError(
                            f"integral endpoint {k}*{n}/{base} at D={self.disc.D} with chi = {vals[t]}"
                        )
                    row.append(t)
            divisors = [(1, 1)]  # (d, mu(d))
            for p in self._primes:
                divisors += [(d * p, -mu) for d, mu in divisors]
            # pos_to[i] and units_to[i] count chi = +1 and the units in [1, points[i]].
            points = sorted(set().union(*cuts.values()))
            data = memoryview(vals)[1:].tobytes()  # data[a:b] is chi(a + 1), ..., chi(b)
            pos_to = array("q", accumulate(map(data.count, repeat(1), points, points[1:]), initial=0))
            units_to = array("q", [sum(mu * (t // d) for d, mu in divisors) for t in points])
            for base, row in cuts.items():
                at = array("q", map(bisect_left, repeat(points), row))  # row[k] is points[at[k]]
                ahead = at[1:]
                pos = tuple(map(sub, map(pos_to.__getitem__, ahead), map(pos_to.__getitem__, at)))
                units = map(sub, map(units_to.__getitem__, ahead), map(units_to.__getitem__, at))
                neg = tuple(map(sub, units, pos))
                self._counts[base] = EkTable(self.disc, base, tuple(map(sub, pos, neg)), pos, neg)
        return [self._counts[b] for b in bases]

    def nonunit_flags(self) -> bytearray:
        """A new bytearray f of length N + 1 with f[x] = 1 exactly when chi(x) = 0."""
        return bytearray(self.values().tobytes().translate(_NONUNIT))


# One period of chi4, chi8 or chi4 chi8: the row of the prime 2, which only an
# even D has.
_TWO_ROWS = {
    Case.D1: array("b", [0, 1, 0, -1]),
    Case.D2: array("b", [0, 1, 0, -1, 0, -1, 0, 1]),
    Case.D3: array("b", [0, 1, 0, 1, 0, -1, 0, -1]),
}


# values().tobytes() holds chi(x) as one byte, 0 exactly when chi(x) = 0.
_NONUNIT = bytes([1]) + bytes(255)
_NEG = bytes.maketrans(b"\x01\xff", b"\xff\x01")  # negates signed bytes: 1 <-> 255 (-1)


def _legendre_row(p: int) -> array:
    """(x / p) for x in [0, p): +1 on the nonzero squares, -1 elsewhere, 0 at 0."""
    row = array("b", [-1]) * p
    with memoryview(row).cast("B") as view:  # cheaper stores than the array's
        view[0] = 0
        for i in range(1, (p + 1) // 2):
            view[i * i % p] = 1
    return row


def _times(a: array, b: array) -> array:
    """The product of two rows of coprime periods q <= Q: its x = r (mod q) are the slice
    [r::q] of the longer row repeated q times, times the shorter row's entry r."""
    short, long = sorted((a, b), key=len)
    q = len(short)
    ext = bytes(long) * q
    out = bytearray(len(ext))
    for r, c in enumerate(short):
        if c:
            out[r::q] = ext[r::q] if c == 1 else ext[r::q].translate(_NEG)
    del ext  # before the copy below, which would otherwise hold three periods
    return array("b", out)


@lru_cache(maxsize=1)
def quad_char(disc: Discriminant) -> QuadChar:
    """Shared QuadChar for disc, the last D's only: all routes of one D read it."""
    return QuadChar(disc)
