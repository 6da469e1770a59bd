"""Independent oracles shared by the test modules.

Each oracle computes the same quantity as the library through a different
algorithm (reduced-form counting, Kronecker symbols, repeat-detection long
division, direct binning, per-x floor sums), so agreement is meaningful.
"""

from sympy import factorint
from sympy.functions.combinatorial.numbers import kronecker_symbol

from quadclass.discriminant import from_discriminant
from quadclass.errors import ExcludedDiscriminantError, NotFundamentalError


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


def floor_sum_by_x(vals, n: int, base: int) -> int:
    """-sum of chi(x) floor(base*x/n) over x in [1, n), one term per x."""
    return -sum(vals[x] * (base * x // n) for x in range(1, n))


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
