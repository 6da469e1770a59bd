"""Elementary number-theoretic helpers.

Everything here is exact integer arithmetic; no floats anywhere.  These are
the primitives the character, expansion and class number layers sit on:
one cached trial division, which every primality, squarefree and phi test
reads, multiplicative orders and primitive roots.  The character itself
is tabulated by discriminant.QuadChar, from Legendre rows.
"""

from functools import lru_cache
from math import gcd, prod

from .errors import InternalError, InvalidModulusError, NotCoprimeError

__all__ = [
    "multiplicative_order",
    "distinct_prime_factors",
    "is_squarefree",
    "euler_phi",
    "is_prime",
    "is_primitive_root",
    "least_primitive_root",
]


@lru_cache(maxsize=1024)
def multiplicative_order(b: int, n: int) -> int:
    """Least e >= 1 with b**e = 1 (mod n).  Requires gcd(b, n) = 1.

    Starts from phi(n), a multiple of the order, and strips the primes of
    phi(n), from phi_with_primes, while the power still annihilates.  The
    sweep asks for no order (h_theorem1 and h_girstmair read their period
    off classnum._tower); the callers are expand and, through it,
    all_cycles, which asks for every orbit of one (b, n) in a row.
    """
    if n <= 1:
        raise InvalidModulusError(f"modulus must exceed 1, got {n}")
    if gcd(b, n) != 1:
        raise NotCoprimeError(f"gcd({b}, {n}) > 1, order undefined")
    phi, primes, _ = phi_with_primes(n)
    return order_within(b, n, phi, primes)


def order_within(b: int, n: int, order: int, primes: tuple[int, ...]) -> int:
    """The order of b mod n from a multiple of it and a tuple holding that multiple's
    primes (others are skipped): each is stripped while the power still annihilates."""
    for p in primes:
        while order % p == 0 and pow(b, order // p, n) == 1:
            order //= p
    return order


@lru_cache(maxsize=64)
def phi_with_primes(n: int) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """(phi(n), the distinct primes of phi(n), those of n): factored once per n for every
    base that the orders, primitive roots and classnum._tower's certificates take."""
    phi = euler_phi(n)
    return phi, distinct_prime_factors(phi), distinct_prime_factors(n)


@lru_cache(maxsize=64)
def distinct_prime_factors(n: int) -> tuple[int, ...]:
    """Distinct primes dividing n, ascending, as a tuple; () for n < 2.

    The only trial division in quadclass, cached: one D asks for N and phi(N)
    from the squarefree test, the character table, phi and primality tests."""
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
    return tuple(ps)


def is_squarefree(n: int) -> bool:
    """True when no prime square divides n.  Requires n >= 1."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return prod(distinct_prime_factors(n)) == n


def euler_phi(n: int) -> int:
    """Count of integers in [1, n] coprime to n."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    phi = n
    for p in distinct_prime_factors(n):
        phi -= phi // p
    return phi


def is_prime(n: int) -> bool:
    """True when n is prime: its cached factorization is (n,), so no loop of its own."""
    return n > 1 and distinct_prime_factors(n) == (n,)


def is_primitive_root(b: int, p: int) -> bool:
    """True when b generates the full multiplicative group mod prime p."""
    if not is_prime(p):
        raise ValueError(f"need a prime modulus, got {p}")
    if gcd(b, p) != 1:
        return False
    return all(pow(b, (p - 1) // q, p) != 1 for q in phi_with_primes(p)[1])


@lru_cache(maxsize=1024)
def least_primitive_root(p: int) -> int:
    """Smallest positive primitive root of the odd prime p; cached, one search per p.
    h_girstmair, the CLI and classnum._tower all ask by p alone, so every N that p
    divides shares one entry (-5000..-5 needs 374)."""
    if not is_prime(p) or p == 2:
        raise ValueError(f"need an odd prime, got {p}")
    primes = phi_with_primes(p)[1]
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in primes):
            return g
    raise InternalError(f"no primitive root below {p}")
