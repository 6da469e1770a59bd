"""Elementary number-theoretic helpers.

Everything here is exact integer arithmetic; no floats anywhere.  These are
the primitives the character, expansion and class number layers sit on.
"""

from dataclasses import dataclass
from functools import lru_cache
from math import gcd, isqrt

from .errors import InternalError, InvalidModulusError, NotCoprimeError

__all__ = [
    "gcd",
    "ResidueRep",
    "residue_rep",
    "mod_pow",
    "multiplicative_order",
    "jacobi",
    "distinct_prime_factors",
    "is_squarefree",
    "euler_phi",
    "is_prime",
    "is_primitive_root",
    "least_primitive_root",
]


@dataclass(frozen=True)
class ResidueRep:
    """Canonical representative of z mod N taken in [1, N] rather than [0, N-1].

    Multiples of N map to N itself, not 0; this keeps representatives inside
    the window (0, N] that the expansion machinery works on.
    """

    value: int
    modulus: int


def residue_rep(z: int, n: int) -> ResidueRep:
    """The unique y in [1, n] with y = z (mod n)."""
    if n <= 1:
        raise InvalidModulusError(f"modulus must exceed 1, got {n}")
    return ResidueRep(z % n or n, n)


def mod_pow(b: int, e: int, n: int) -> int:
    """b**e mod n, reduced into [0, n)."""
    if n <= 1:
        raise InvalidModulusError(f"modulus must exceed 1, got {n}")
    if e < 0:
        raise ValueError(f"exponent must be nonnegative, got {e}")
    return pow(b, e, n)


@lru_cache(maxsize=1024)
def multiplicative_order(b: int, n: int) -> int:
    """Least e >= 1 with b**e = 1 (mod n).  Requires gcd(b, n) = 1.

    Starts from euler_phi(n), a multiple of the order, and strips prime
    factors while the power still annihilates.  The cache is bounded: a
    sweep asks for each (b, n) once, while expand() over every orbit of one
    (b, n) asks repeatedly in a row.
    """
    if n <= 1:
        raise InvalidModulusError(f"modulus must exceed 1, got {n}")
    if gcd(b, n) != 1:
        raise NotCoprimeError(f"gcd({b}, {n}) > 1, order undefined")
    order = euler_phi(n)
    for p in distinct_prime_factors(order):
        while order % p == 0 and pow(b, order // p, n) == 1:
            order //= p
    return order


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a / n) for odd n > 0, via quadratic reciprocity.

    (a / 1) = 1 for every a; the result is 0 exactly when gcd(a, n) > 1.
    """
    if n <= 0 or n % 2 == 0:
        raise InvalidModulusError(f"jacobi needs positive odd n, got {n}")
    a %= n
    t = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                t = -t
        a, n = n, a  # Reciprocity: both are odd here.
        if a % 4 == 3 and n % 4 == 3:
            t = -t
        a %= n
    return t if n == 1 else 0


def distinct_prime_factors(n: int) -> list[int]:
    """Distinct primes dividing n, ascending, by trial division."""
    ps = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            ps.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        ps.append(n)
    return ps


def is_squarefree(n: int) -> bool:
    """True when no prime square divides n.  Requires n >= 1."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n % 4 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % (d * d) == 0:
            return False
        d += 2
    return True


def euler_phi(n: int) -> int:
    """Count of integers in [1, n] coprime to n."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    phi = n
    for p in distinct_prime_factors(n):
        phi -= phi // p
    return phi


def is_prime(n: int) -> bool:
    """Deterministic primality by trial division; fine at the scales used here."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0 or n % 3 == 0:
        return False
    d = 5
    while d * d <= n:
        if n % d == 0 or n % (d + 2) == 0:
            return False
        d += 6
    return True


def is_primitive_root(b: int, p: int) -> bool:
    """True when b generates the full multiplicative group mod prime p."""
    if not is_prime(p):
        raise ValueError(f"need a prime modulus, got {p}")
    if gcd(b, p) != 1:
        return False
    return all(pow(b, (p - 1) // q, p) != 1 for q in distinct_prime_factors(p - 1))


def least_primitive_root(p: int) -> int:
    """Smallest positive primitive root of the odd prime p."""
    if not is_prime(p) or p == 2:
        raise ValueError(f"need an odd prime, got {p}")
    g = 2
    while not is_primitive_root(g, p):
        g += 1
        if g >= p:
            raise InternalError(f"no primitive root below {p}")
    return g
