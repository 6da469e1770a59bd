"""Independent oracles shared by the test modules.

Each oracle computes the same quantity as the library through a different
algorithm (reduced-form counting, Kronecker symbols, the character formula
through quadratic reciprocity, repeat-detection long division, direct
binning, an every-k scan for integral cuts, per-x floor and Dirichlet sums,
one store per square for a Legendre row), so agreement is meaningful.
"""

from math import gcd

from sympy import factorint
from sympy.functions.combinatorial.numbers import kronecker_symbol

from quadclass.discriminant import Case, from_discriminant
from quadclass.errors import (
    ExcludedDiscriminantError,
    InvalidModulusError,
    NotFundamentalError,
)


def legendre_by_squares(p: int) -> bytearray:
    """(x / p) for x in [0, p) as signed bytes (255 = -1): 1 stored at each i^2 mod p."""
    row = bytearray(b"\xff") * p
    row[0] = 0
    for i in range(1, (p + 1) // 2):
        row[i * i % p] = 1
    return row


def h_by_reduced_forms(D: int) -> int:
    """Class number by counting reduced binary quadratic forms (a, b, c).

    Counts b*b - 4ac = D with |b| <= a <= c, taking +/-b once when the form
    is ambiguous (b = 0, a = b or a = c) and twice otherwise.  Shares no
    code or theory with the character-sum routes.
    """
    count = 0
    b = D % 2
    while 3 * b * b <= -D:
        m = (b * b - D) // 4
        a = max(b, 1)
        while a * a <= m:
            if m % a == 0:
                count += 1 if (b == 0 or a == b or a == m // a) else 2
            a += 1
        b += 2
    return count


def chi_kronecker(D: int, x: int) -> int:
    """The character as a Kronecker symbol (D / x)."""
    if x == 0:
        return 0
    return int(kronecker_symbol(D, x))


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


def chi4(x: int) -> int:
    """Character mod 4: +1 for x = 1 (mod 4), -1 for x = 3 (mod 4)."""
    if x % 2 == 0:
        raise ValueError(f"chi4 needs odd x, got {x}")
    return 1 if x % 4 == 1 else -1


def chi8(x: int) -> int:
    """Character mod 8: +1 for x = +/-1 (mod 8), -1 for x = +/-3 (mod 8)."""
    if x % 2 == 0:
        raise ValueError(f"chi8 needs odd x, got {x}")
    return 1 if x % 8 in (1, 7) else -1


def chi_by_reciprocity(disc, x: int) -> int:
    """chi_D(x) pointwise from the case formula, one Jacobi symbol per call.

    The library tabulates chi_D as a product of Legendre rows; this takes
    the Jacobi symbol through reciprocity instead, times chi4/chi8.
    """
    n = disc.N
    x = x % n or n
    if gcd(x, n) > 1:
        return 0
    if disc.case is Case.ODD:
        return jacobi(x, n)
    if disc.case is Case.D1:
        return chi4(x) * jacobi(x, -disc.m)
    odd_part = -disc.m // 2
    if disc.case is Case.D2:
        return chi8(x) * jacobi(x, odd_part)
    return chi4(x) * chi8(x) * jacobi(x, odd_part)


def is_fundamental(D: int) -> bool:
    """Fundamental discriminant test via sympy factorization, D < -4 only."""
    if D >= -4:
        return False
    if D % 4 == 1:
        return _squarefree(-D)
    if D % 4 != 0:
        return False
    m = D // 4
    return m % 4 in (2, 3) and _squarefree(-m)


def _squarefree(n: int) -> bool:
    return all(e == 1 for e in factorint(n).values())


def digits_until_repeat(x: int, base: int, n: int):
    """Long division with repeat detection instead of a precomputed period."""
    seen = {}
    digits = []
    cycle = []
    y = x
    while y not in seen:
        seen[y] = len(cycle)
        cycle.append(y)
        a, y = divmod(base * y, n)
        digits.append(a)
    assert seen[y] == 0, "expansion of a coprime x/n must be purely periodic"
    return digits, cycle


def ek_by_binning(vals, n: int, base: int):
    """(entries, pos, neg) by assigning each x to interval floor(base*x/n)."""
    entries = [0] * base
    pos = [0] * base
    neg = [0] * base
    for x in range(1, n):
        c = vals[x]
        if not c:
            continue
        k = base * x // n
        entries[k] += c
        if c > 0:
            pos[k] += 1
        else:
            neg[k] += 1
    return entries, pos, neg


def first_integral_unit_cut(disc, base: int):
    """(k, chi(kN/B)) for the first k in 0..B with kN = 0 (mod B) and chi(kN/B) != 0,
    testing every k, with chi from chi_by_reciprocity; None when there is none."""
    n = disc.N
    for k in range(base + 1):
        x, r = divmod(k * n, base)
        if r == 0 and (c := chi_by_reciprocity(disc, x)):
            return k, c
    return None


def floor_sum_by_x(vals, n: int, base: int) -> int:
    """-sum of chi(x) floor(base*x/n) over x in [1, n), one term per x."""
    return -sum(vals[x] * (base * x // n) for x in range(1, n))


def dirichlet_sum_by_x(vals, n: int) -> int:
    """sum of x chi(x) over x in [1, n], one term per x."""
    return sum(x * vals[x] for x in range(1, n + 1))


def digits_value(digits, base: int) -> int:
    """The integer with the given base-B digit string, most significant first."""
    v = 0
    for a in digits:
        v = v * base + a
    return v


def fundamentals_with_n_up_to(nmax: int):
    """All fundamental discriminants with |D| <= nmax, decreasing D."""
    out = []
    for D in range(-5, -nmax - 1, -1):
        try:
            out.append(from_discriminant(D))
        except (NotFundamentalError, ExcludedDiscriminantError):
            continue
    return out
