"""Closed forms for the subinterval character totals E_k at small bases.

For odd discriminants the whole table E_k(B) for B in {2, 3, 4, 6, 12} is
pinned down by h (and, at B = 12, one free value E_0): which closed form
applies depends only on N mod 24.  For even discriminants the quarter-point
sum equals h outright, and when 3 does not divide D the sixth/quarter pair
(S1, S2) is (h, 0) or (0, h) according to D mod 3.

Each check_* function reads the relevant table entries and compares them
against the closed form, reporting both sides.  Every sum here is read off
the E_k tables QuadChar.ek_tables counts in one pass per D (for even D
at B = 4 and 12, whose integral cuts carry chi = 0), so none sums over x.
"""

from dataclasses import dataclass

from .classnum import HResult, _exact_h, ek_table, h_dirichlet
from .discriminant import Case, Discriminant, quad_char
from .errors import DivisibleByThreeError, WrongParityError

__all__ = [
    "CongruenceClass24",
    "TheoremCheck",
    "classify",
    "check_b2",
    "check_b4",
    "check_b6",
    "h_abs_sixth",
    "check_b12",
    "h_quarter_sum",
    "check_s1_s2",
]


@dataclass(frozen=True)
class CongruenceClass24:
    """N mod 24 for odd N coprime to 6, with the implied chi(2) and chi(3)."""

    residue: int
    chi2: int
    chi3: int


# chi(2) = +1 iff N = 7 (mod 8); chi(3) = +1 iff N = 11 or 23 (mod 24).
_CLASSES = {
    23: (1, 1),
    11: (-1, 1),
    7: (1, -1),
    19: (-1, -1),
}


def _require_odd(disc: Discriminant) -> None:
    if disc.case is not Case.ODD:
        raise WrongParityError(f"needs odd D, got {disc}")


def _require_even(disc: Discriminant) -> None:
    if disc.case is Case.ODD:
        raise WrongParityError(f"needs even D, got {disc}")


def _require_coprime_to_3(disc: Discriminant) -> None:
    if disc.N % 3 == 0:
        raise DivisibleByThreeError(f"needs 3 coprime to D, got {disc}")


def classify(disc: Discriminant) -> CongruenceClass24:
    """Place an odd D with gcd(D, 6) = 1 into its class mod 24."""
    _require_odd(disc)
    _require_coprime_to_3(disc)
    r = disc.N % 24
    chi2, chi3 = _CLASSES[r]
    return CongruenceClass24(r, chi2, chi3)


@dataclass
class TheoremCheck:
    """Expected-vs-observed comparison of one closed form."""

    disc: Discriminant
    theorem: str
    expected: dict
    observed: dict
    passed: bool


def _total(disc: Discriminant, base: int, k: int) -> int:
    """The total of chi over 0 < x <= kN/B: the first k entries of E(B)."""
    return sum(quad_char(disc).ek_table(base).entries[:k])


def _compare(disc: Discriminant, name: str, expected: dict, observed: dict) -> TheoremCheck:
    return TheoremCheck(disc, name, expected, observed, expected == observed)


def _check_entries(
    disc: Discriminant, name: str, base: int, want: tuple[int, ...], first: int = 0
) -> TheoremCheck:
    """Compare want with E_first, E_(first+1), ... of the base-B table, both keyed "E<k>"."""
    got = ek_table(disc, base).entries[first : first + len(want)]
    keys = [f"E{k}" for k in range(first, first + len(want))]
    return _compare(disc, name, dict(zip(keys, want)), dict(zip(keys, got)))


def check_b2(disc: Discriminant) -> TheoremCheck:
    """Odd D: E_0(2) is h when N = 7 (mod 8) and 3h when N = 3 (mod 8)."""
    _require_odd(disc)
    h = h_dirichlet(disc).h
    return _check_entries(disc, "base2", 2, (h if disc.N % 8 == 7 else 3 * h,))


def check_b4(disc: Discriminant) -> TheoremCheck:
    """Odd D: (E_0(4), E_1(4)) is (h, 0) or (0, 3h) by N mod 8."""
    _require_odd(disc)
    h = h_dirichlet(disc).h
    return _check_entries(disc, "base4", 4, (h, 0) if disc.N % 8 == 7 else (0, 3 * h))


def check_b6(disc: Discriminant) -> TheoremCheck:
    """Odd D coprime to 6: (E_0(6), E_1(6), E_2(6)) closed form by N mod 24."""
    cls = classify(disc)
    h = h_dirichlet(disc).h
    rows = {
        23: (h, 0, 0),
        11: (h, 0, 2 * h),
        7: (h, h, -h),
        19: (-h, 3 * h, h),
    }
    return _check_entries(disc, "base6", 6, rows[cls.residue])


def h_abs_sixth(disc: Discriminant) -> HResult:
    """Odd D coprime to 6: h = |sum of chi(x) over 0 < x < N/6|."""
    _require_odd(disc)
    _require_coprime_to_3(disc)
    raw = _total(disc, 6, 1)
    return _exact_h(disc, abs(raw), 1, "sixth", raw)


def check_b12(disc: Discriminant, h: int, e0: int) -> TheoremCheck:
    """Odd D coprime to 6: E_1..E_5 of the base-12 table from h and E_0.

    E_0(12) itself is not determined by h; it enters as an input (normally
    read off the same table) and the five dependent entries are compared.
    """
    cls = classify(disc)
    rows = {
        23: (h - e0, 0, 0, h - e0, -h + e0),
        11: (h - e0, -h, h, h - e0, h + e0),
        7: (h - e0, 0, h, -e0, -h + e0),
        19: (-h - e0, h, 2 * h, 2 * h - e0, -h + e0),
    }
    return _check_entries(disc, "base12", 12, rows[cls.residue], first=1)


def h_quarter_sum(disc: Discriminant) -> HResult:
    """Even D: h = sum of chi(x) over 0 < x < N/4, with no sign ambiguity."""
    _require_even(disc)
    raw = _total(disc, 4, 1)  # x = N/4 itself has chi = 0
    return _exact_h(disc, raw, 1, "quarter", raw)


def check_s1_s2(disc: Discriminant) -> TheoremCheck:
    """Even D coprime to 3: the sixth/quarter split (S1, S2) is (h, 0) or (0, h).

    S1 sums chi over (0, N/6), S2 over (N/6, N/4); which one carries h is
    decided by D mod 3 (equivalently by chi(3)).
    """
    _require_even(disc)
    _require_coprime_to_3(disc)
    s1 = _total(disc, 12, 2)  # up to N/6
    s2 = _total(disc, 12, 3) - s1  # from N/6 to N/4
    h = h_dirichlet(disc).h
    want = (h, 0) if disc.D % 3 == 1 else (0, h)
    return _compare(
        disc, "sixth-pair", {"S1": want[0], "S2": want[1]}, {"S1": s1, "S2": s2}
    )
