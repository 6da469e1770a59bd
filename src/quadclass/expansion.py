"""Periodic base-B expansions of fractions x/N with gcd(B, N) = 1.

Long division of x by N in base B obeys

    B * x_i = a_i * N + x_{i+1},   a_i = floor(B * x_i / N),

with every x_i in [1, N] and coprime to N, so the digit stream is purely
periodic with period e = multiplicative_order(B, N).  The numerators visited
form the orbit of x under multiplication by B; the orbits partition the
coprime residues into f = phi(N) / e cycles.
"""

from dataclasses import dataclass
from math import gcd

from .arith import euler_phi, multiplicative_order
from .discriminant import QuadChar, check_size
from .errors import (
    InternalError,
    InvalidModulusError,
    ModulusTooLargeError,
    NormalizationUndefinedError,
    NotCoprimeError,
)

__all__ = [
    "MAX_PERIOD",
    "ExpansionPeriod",
    "CycleSet",
    "expand",
    "digit_closed_form",
    "all_cycles",
    "normalize_cycle",
]

# The longest period expand() stores, as two tuples of about 64 bytes per step
# in all: at most about 130 MB per call.  It leaves room for 1/1000003 (period
# 1000002), the largest prime the project's performance goals name.
MAX_PERIOD = 2 * 10**6


def _check_base(base: int, n: int) -> None:
    if n <= 1:
        raise InvalidModulusError(f"modulus must exceed 1, got {n}")
    if base < 2:
        raise ValueError(f"base must be at least 2, got {base}")
    if gcd(base, n) != 1:
        raise NotCoprimeError(f"gcd({base}, {n}) > 1; expansion is not purely periodic")


def _check_numerator(x: int, n: int) -> None:
    if not 1 <= x <= n:
        raise ValueError(f"numerator {x} outside [1, {n}]")
    if gcd(x, n) != 1:
        raise NotCoprimeError(f"gcd({x}, {n}) > 1")


@dataclass(frozen=True)
class ExpansionPeriod:
    """One full period of the base-B expansion of x1/N.

    digits[i] is the digit a_{i+1} and cycle[i] the numerator x_{i+1}, so
    cycle[0] == x1 and the step after digits[-1] returns to x1.
    """

    x1: int
    base: int
    n: int
    digits: tuple[int, ...]
    cycle: tuple[int, ...]

    @property
    def e(self) -> int:
        """Period length."""
        return len(self.digits)

    def __str__(self) -> str:
        return f"0.({' '.join(map(str, self.digits))})_{self.base}"


@dataclass(frozen=True)
class CycleSet:
    """All multiplication-by-B orbits on the residues coprime to N."""

    base: int
    n: int
    cycles: tuple[ExpansionPeriod, ...]

    @property
    def f(self) -> int:
        """Number of cycles."""
        return len(self.cycles)

    @property
    def e(self) -> int:
        """Common length of every cycle."""
        return self.cycles[0].e


def expand(x: int, base: int, n: int) -> ExpansionPeriod:
    """Run long division for one full period starting at numerator x.

    The period length is computed up front as multiplicative_order(base, n),
    and a period longer than MAX_PERIOD raises ModulusTooLargeError before
    any digit is stored.  The final step is checked to land back on x.
    An n above MAX_N raises ModulusTooLargeError first.
    """
    check_size(n)
    _check_base(base, n)
    _check_numerator(x, n)
    e = multiplicative_order(base, n)
    if e > MAX_PERIOD:
        raise ModulusTooLargeError(f"period {e} mod {n} exceeds MAX_PERIOD={MAX_PERIOD}")
    digits = []
    cycle = []
    y = x
    for _ in range(e):
        cycle.append(y)
        a, y = divmod(base * y, n)
        digits.append(a)
    if y != x:
        raise InternalError(f"period {e} did not close the cycle of {x} mod {n}")
    return ExpansionPeriod(x, base, n, tuple(digits), tuple(cycle))


def digit_closed_form(x: int, i: int, base: int, n: int) -> int:
    """Digit a_i of x/n in the given base, via the orbit, without iterating.

    a_i = (base * <base^(i-1) x> - <base^i x>) / n, where <z> is the
    representative of z in [1, n].  The division is exact; a failure would
    mean the character/orbit bookkeeping is broken.
    """
    _check_base(base, n)
    _check_numerator(x, n)
    if i < 1:
        raise ValueError(f"digit index must be >= 1, got {i}")
    y_prev = pow(base, i - 1, n) * x % n or n
    y_cur = base * y_prev % n or n
    num = base * y_prev - y_cur
    if num % n:
        raise InternalError(f"non-exact digit at x={x}, i={i}, base={base}, n={n}")
    return num // n


def all_cycles(base: int, n: int) -> CycleSet:
    """Partition the residues coprime to n into multiplication-by-base orbits.

    Each orbit is reported as the ExpansionPeriod of its smallest member, in
    increasing order of that member.  Checks f * e = phi(n) on the way out.
    An n above MAX_N raises ModulusTooLargeError before the n + 1 marks exist.
    """
    check_size(n)
    _check_base(base, n)
    seen = bytearray(n + 1)
    cycles = []
    for x in range(1, n + 1):
        if seen[x] or gcd(x, n) != 1:
            continue
        period = expand(x, base, n)
        for y in period.cycle:
            seen[y] = 1
        cycles.append(period)
    out = CycleSet(base, n, tuple(cycles))
    if out.f * out.e != euler_phi(n):
        raise InternalError(f"cycle count {out.f} * length {out.e} != phi({n})")
    return out


def normalize_cycle(period: ExpansionPeriod, char: QuadChar) -> ExpansionPeriod:
    """Rotate a cycle to start at its smallest member with chi = +1.

    Defined only when chi(base) = -1, where multiplicativity makes chi
    alternate around the cycle (x_{i+1} = base * x_i mod n), so half the
    members have chi = +1.  The rotated digit string is the same rotation
    applied to the digits, since digits depend only on the current numerator.
    """
    if char.disc.N != period.n:
        raise ValueError(f"character mod {char.disc.N} does not match modulus {period.n}")
    if char.eval(period.base) != -1:
        raise NormalizationUndefinedError(
            f"chi({period.base}) = {char.eval(period.base)}; normalization needs -1"
        )
    # One evaluation fixes every sign: chi(cycle[i]) = chi(x1) * (-1)^i.
    plus = range(0 if char.eval(period.x1) == 1 else 1, period.e, 2)
    if not plus:
        raise InternalError(f"cycle of {period.x1} mod {period.n} has no chi=+1 member")
    i = min(plus, key=period.cycle.__getitem__)
    return ExpansionPeriod(
        period.cycle[i],
        period.base,
        period.n,
        period.digits[i:] + period.digits[:i],
        period.cycle[i:] + period.cycle[:i],
    )
