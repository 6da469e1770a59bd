"""Class number h(D) of an imaginary quadratic field by several exact routes.

All routes are finite sums over one period of character values or expansion
digits, evaluated in exact integer (or rational) arithmetic:

  * the weighted character sum  h = -(1/N) sum chi(x) x  over x in [1, N];
  * per-cycle digit sums of the base-B expansions of x/N, combined with
    weight 1/(B+1) (alternating, chi(B) = -1) or 1/(B-1) (plain, chi(B) = +1);
  * weighted sums of the subinterval character totals E_k(B), one helper
    (_ek_sum) for all three: the floor sum -sum chi(x) floor(Bx/N) = -sum k E_k
    = (B - chi(B)) h, and the half-table sum at B or regrouped through B1 | B.

The routes share one kernel: the character table of discriminant.QuadChar,
built once per D.  The cycle route walks the orbits of x -> Bx mod N over
it in place (h_theorem1), with long division over only half of the
residues: the reflection x -> N - x negates chi and complements every
digit, a(N - x) = B - 1 - a(x), so it supplies the other half's digits
(Midy's theorem, generalised).  At B = 2, 4, 8 and 10 one division Q =
(B^w -/+ 1)/N gives every walk of a (D, B), the digits from x those of x Q
(less 1 when B^w = -1) packed into slots and summed by popcounts; any other
walk steps in base B^k, reading the signed sums of k >= 1 digits (a short
block last) from a table.  Once the walks of a (D, B) cover LANE_DIGITS
digits they are cut into segments of T digits that step together, each
in a slot of whole bytes of one int (_lanes): one fixed-point divide
(Granlund and Montgomery) at B^2 emits two digits in every slot, exactly,
with no carry or borrow between slots, and the packed ends are checked
against each segment's successor in one comparison.  The classes are the
cosets of <B, -1> in the units mod N; _tower lists one start per class as
it peels N one factor at a time, multiplying its list by the powers of each
cyclic kernel's generator (the powers of a primitive root for prime N), so
the walks mark nothing.  The girstmair route is its one-orbit case.
Every interval quantity, here and in theorems, is read off the E_k(B)
table QuadChar keeps per (D, B); ek_tables counts those of all bases of a D
in one pass over the cuts above N/2 (E_{B-1-k} = -E_k), then a route is O(B).
h_dirichlet, the reference route, is folded onto half a period by the same
reflection, sum_{x<=N} x chi(x) = sum_{x<N/2} (2x - N) chi(x), and read off
bit planes: the half table as two ints (chi = +1, -1), whose popcounts, masked
by the positions with bit j set, give sum x chi(x).  A base is checked where
it is used, by discriminant.check_base (2 <= B <= MAX_BASE): in each route's
coprimality check, and in ek_tables for each base it counts.

Every route checks divisibility and positivity of its final division; a
failure raises InternalError because the identities admit no exceptions.
"""

from dataclasses import dataclass, replace
from decimal import MAX_EMAX, Context, DecimalException, Inexact, InvalidOperation, Rounded
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm
from operator import mul

from .arith import (
    is_primitive_root,
    least_primitive_root,
    order_within,
    phi_with_primes,
)
from .discriminant import (
    MAX_BASE,  # re-exported: classnum.MAX_BASE is the limit check_base enforces
    Discriminant,
    EkTable,
    QuadChar,
    check_base,
    check_size,
    from_discriminant,
    quad_char,
)
from .errors import (
    InternalError,
    InvalidFactorizationError,
    NotCoprimeError,
    WrongParityError,
)
# all_cycles and expand stay importable from here, next to
# h_cycle_contribution: summing the one over the other is the full-digit
# reference h_theorem1 and h_girstmair are tested against.
from .expansion import ExpansionPeriod, _check_numerator, all_cycles, expand, normalize_cycle

__all__ = [
    "HResult",
    "EkTable",
    "alternating_digit_sum",
    "h_dirichlet",
    "h_cycle_contribution",
    "h_theorem1",
    "h_floor_formula",
    "ek_table",
    "h_from_ek",
    "h_from_ek_factored",
    "h_girstmair",
    "xi",
    "eta",
    "lambda_map",
]

# The most entries a stored digit-sum table holds per (B, chi(B)): h_theorem1
# steps in blocks B^k <= MAX_BLOCK, and every B with B^2 > MAX_BLOCK in
# one-digit blocks read from range(B).
MAX_BLOCK = 4096
# The fewest digits, phi(N)/2, the walks of one (D, B) cover before h_theorem1 steps them
# in packed lanes (_lanes) at a base with no C radix; below it every walk steps alone.
LANE_DIGITS = 1 << 14


@dataclass(frozen=True)
class HResult:
    """A class number together with the route and raw sum that produced it."""

    disc: Discriminant
    h: int
    method: str
    raw_sum: int


def _check_coprime_base(disc: Discriminant, base: int) -> None:
    check_base(base)
    if gcd(base, disc.N) != 1:
        raise NotCoprimeError(f"gcd({base}, {disc.N}) > 1 at D={disc.D}")


def _exact_h(disc: Discriminant, num: int, den: int, method: str, raw: int) -> HResult:
    """Divide num/den checking exactness and positivity; wrap as HResult.  Every route
    and the sixth and quarter closed forms end here: the one positivity check."""
    h, r = divmod(num, den)
    if r:
        raise InternalError(f"{method} at D={disc.D}: {num} not divisible by {den}")
    if h < 1:
        raise InternalError(f"{method} at D={disc.D}: got h = {h} <= 0")
    return HResult(disc, h, method, raw)


def alternating_digit_sum(digits) -> int:
    """-a_1 + a_2 - a_3 + ... for a digit tuple indexed from 1."""
    return sum(digits[1::2]) - sum(digits[0::2])


@lru_cache(maxsize=256)
def h_dirichlet(disc: Discriminant) -> HResult:
    """h = -(1/N) sum_{x=1}^{N} chi(x) x.  The reference route, folded onto half a period:
    chi(N - x) = -chi(x), and chi(N/2) = 0 for even N, so the sum is
    sum_{x<N/2} (2x - N) chi(x) = 2W - N S, with S = sum chi(x) and W = sum x chi(x) over
    x < m = N // 2 + 1.  Both are popcounts of bit planes: the table buffer's [:m] read as
    two m-bit ints pos and neg (chi = +1, -1), x at bit y = m - 1 - x, give S and, with P_j
    the y < m that have bit j set, W = (m - 1) S - sum_j 2^j (|pos & P_j| - |neg & P_j|)."""
    m = disc.N // 2 + 1
    half = quad_char(disc).values().obj[:m]
    pos = int(half.translate(bytes.maketrans(b"\0\1\377", b"010")), 2)
    neg = int(half.translate(bytes.maketrans(b"\0\1\377", b"001")), 2)
    s = pos.bit_count() - neg.bit_count()
    sy, w = 0, 1
    while w < m:
        plane, period = ((1 << w) - 1) << w, 2 * w
        while period < m:
            plane |= plane << period
            period *= 2
        sy += w * ((pos & plane).bit_count() - (neg & plane).bit_count())
        w *= 2
    raw = 2 * ((m - 1) * s - sy) - disc.N * s
    return _exact_h(disc, -raw, disc.N, "dirichlet", raw)


def h_cycle_contribution(period: ExpansionPeriod, char: QuadChar) -> Fraction:
    """Exact rational contribution of one expansion cycle to h.

    For chi(B) = -1 the cycle is normalized first and contributes the
    alternating digit sum over B + 1; for chi(B) = +1 it contributes
    -chi(C) times the plain digit sum over B - 1, where chi(C) is the
    constant character value on the cycle.
    """
    if char.disc.N != period.n:
        raise ValueError(f"character mod {char.disc.N} does not match modulus {period.n}")
    s = char.eval(period.base)
    if s == 0:
        raise NotCoprimeError(f"gcd({period.base}, {char.disc.N}) > 1")
    if s == -1:
        normalized = normalize_cycle(period, char)
        return Fraction(alternating_digit_sum(normalized.digits), period.base + 1)
    return Fraction(-char.eval(period.x1) * sum(period.digits), period.base - 1)


@lru_cache(maxsize=64)
def _digit_table(base: int, s: int) -> tuple[int, tuple[int, ...] | range]:
    """(k, tab): k >= 1 base-B digits per block, tab[A] their sum signed by s^j.

    k is the largest with B^k <= MAX_BLOCK, at either sign; tab[A] =
    sum_j s^j d_j over the k base-B digits d_0 d_1 ... d_(k-1) of A, most
    significant first, so a block that starts on the sign s^k = -1 (s = -1,
    k odd) adds -tab[A].  k = 1 is tab = range(B), and each further digit d_k
    turns every entry v into the B entries v + s^k d_k, so every B with B^2 >
    MAX_BLOCK keeps range(B), which stores nothing.
    """
    k, tab = 1, range(base)
    while base ** (k + 1) <= MAX_BLOCK:
        sg = s**k
        tab = tuple([v + sg * d for v in tab for d in range(base)])
        k += 1
    return k, tab


def _tower(base: int, n: int, where: str) -> tuple[int, bool, list[int]]:
    """(e, self_paired, starts) from h_theorem1's tower: B's order mod N, whether -1 is a
    power of B mod N, and one start per class.  The starts begin as [1], and each step
    with r_i > 1 replaces them by their products with gamma_i^j (mod N), j < r_i, the
    earlier steps' j running fastest."""
    _, phi_primes, primes = phi_with_primes(n)
    two = n & -n  # the 2-part of N: 1, 4 or 8
    # (d, q, part, k, g) per step M -> M/d: q the prime power of M that shrinks, part
    # the power of its prime in N, and g generating the kernel, of order k, mod part
    # (0 for p's least primitive root, searched when needed); k is (Z/q)*'s exponent.
    steps = [(p, p, p, p - 1, 0) for p in reversed(primes) if p > 2]  # from M_r = 1 up
    if two > 1:
        steps.append((4, 4, two, 2, two - 1))
    if two == 8:
        steps.append((2, 8, 8, 2, 5))
    starts = [1]
    m = order = size = 1  # M_r = 1, where ord(B) = |H| = 1
    for d, q, part, k, g in steps:
        m *= d
        o = order_within(base, q, k, phi_primes)
        bad = k % o or pow(base, o, q) != 1
        for f in phi_primes:
            bad = bad or o % f == 0 and pow(base, o // f, q) == 1
        if bad:
            raise InternalError(f"{where}: {o} is not the order of {base} mod {q}")
        order = lcm(order, o)
        minus = order % 2 == 0 and pow(base, order // 2, m) == m - 1  # -1 in <B> mod M
        below, size = size, order if minus else 2 * order
        r, left = divmod(k * below, size)
        if left:
            raise InternalError(f"{where}: r = {k} * {below} / {size} mod {m} is not whole")
        if r == 1:
            continue
        g = g or least_primitive_root(q)
        rest = n // part
        gamma = 1 + rest * ((g - 1) * pow(rest, -1, part) % part)  # g mod part, 1 mod rest
        for p in phi_primes:
            if r % p == 0 and pow(gamma, k // p, n) == 1:
                raise InternalError(
                    f"{where}: start {gamma} misses classes, {gamma}^{k // p} = 1 (mod {n})")
        powers = [1]
        for _ in range(r - 1):
            powers.append(powers[-1] * gamma % n)
        starts = [x * c % n for c in powers for x in starts]
    return order, minus, starts


def _radix_sum(base: int, n: int, w: int, s: int, paired: bool, groups: dict[int, list[int]],
               where: str) -> int:
    """sum chi(x) t_x over the walks of w digits from the starts x, from one division.

    groups maps chi(x) to its starts; B is 2, 4 or 8 (m bits a digit) or 10.
    With c = -1 when paired and +1 otherwise, the walks close, B^w = c (mod
    N), exactly when Q = (B^w - c)/N is whole.  Walk x then ends at y = c x,
    and its w digits, leading zeros included, are those of (B^w x - y)/N =
    x Q - [c = -1]; t_x signs the digit i places from the bottom by s^(w-1-i).
    Each group's digits fill the slots of one int: fixed-width bytes in
    binary, and in decimal zero-padded digit strings read as hex, a 4-bit
    nibble a digit.  A slot is whole mask periods, so one repunit mask with
    a bit at the bottom of every digit (every other one when s = -1) picks
    bit b of all of them from A >> b, and the sum is m (2m) popcounts.  The
    decimal context holds the w digits of B^w - 1 (w + 1 of B^w + 1), its
    Emax their exponent, and traps any rounding.  A remainder or a decimal
    signal raises InternalError.
    """
    c = -1 if paired else 1
    width = 4 if base == 10 else base.bit_length() - 1  # bits a digit
    period = width if s == 1 else 2 * width  # from one mask bit to the next
    unit = lcm(8, period)  # whole bytes of whole periods
    size = -(-w * width // unit) * unit // width  # digits a slot
    try:
        if base == 10:
            ctx = Context(prec=w + paired, Emax=MAX_EMAX, traps=[Inexact, Rounded, InvalidOperation])
            q, r = ctx.divmod(ctx.subtract(ctx.scaleb(1, w), c), n)

            def pack(xs):
                return int.from_bytes(bytes.fromhex("".join(
                    str(ctx.subtract(ctx.multiply(q, x), paired)).zfill(size) for x in xs)), "big")
        else:
            q, r = divmod((1 << width * w) - c, n)

            def pack(xs):
                return int.from_bytes(
                    b"".join((x * q - paired).to_bytes(size * width // 8, "big") for x in xs), "big")

        if r:
            raise InternalError(f"{where}: the orbits do not close, {base}^{w} - {c} leaves {r} (mod {n})")
        run = (((1 << unit) - 1) // ((1 << period) - 1)).to_bytes(unit // 8, "big")
        ones = int.from_bytes(run * (max(map(len, groups.values())) * size * width // unit), "big")

        def planes(a, low):  # sum of the digits read at the mask bits shifted up by low
            return sum(((a >> (low + b)) & ones).bit_count() << b for b in range(width))

        total = 0
        for chi, xs in groups.items():
            a = pack(xs)
            t = planes(a, 0)
            if s == -1:
                odd = planes(a, width)
                t = t - odd if w % 2 else odd - t
            total += chi * t
    except DecimalException as exc:
        raise InternalError(f"{where}: decimal {exc!r}") from exc
    return total


def _lanes(base: int, n: int, s: int, seg: int, count: int, groups: dict[int, list[int]],
           where: str) -> tuple[int, list[int]]:
    """(total, ends): sum chi(x) t over the first count * seg digits of each walk from x,
    t their sum signed by s^i, and each walk's end there, x B^(count seg) mod N.

    groups maps chi(x) to its starts, the +1 starts first, and the walks fill the slots
    of Y in that order: segment j of the walk from x from x B^(seg j) mod N.  A step
    emits the next two digits of every slot, A = B a_0 + a_1, and a_0 = floor(A/B) as
    the bits from g up of A r_B; each pair starts on sign +1, so t = s sum A + (1 - s B)
    sum a_0, and both sums are read off once at the end.  h_theorem1 shows the step
    exact and the slots apart.  A Y that misses the packed successors raises InternalError.
    """
    c = base * base
    f = (c * n).bit_length() + n.bit_length()
    cr = c * -(-(1 << f) // n)
    g = (c * base).bit_length()  # 2^g > B^3
    rb = -(-(1 << g) // base)
    size = -(-(f + c.bit_length()) // 8)  # a slot is W = 8 size >= F + bits(c) bits
    step = pow(base, seg, n)
    starts, ends = [], []
    for xs in groups.values():
        for x in xs:
            for _ in range(count):
                starts.append(x)
                x = x * step % n
                ends.append(x)
    lanes = len(starts)
    plus = 8 * size * count * len(groups[1])  # the +1 lanes' bits, at the bottom
    full = (1 << 8 * size) - 1  # 2^W = 1 (mod 2^W - 1): a run of slots is their sum

    def pack(ys):
        slots = bytearray(size * lanes)
        for i, y in enumerate(ys):
            slots[i * size : (i + 1) * size] = y.to_bytes(size, "little")
        return int.from_bytes(slots, "little")

    def every(v):  # v in every slot
        return int.from_bytes(v.to_bytes(size, "little") * lanes, "little")

    def signed(acc):  # sum of the +1 lanes' slots less the -1 lanes'
        return (acc & ((1 << plus) - 1)) % full - (acc >> plus) % full

    y = pack(starts)
    m = every((1 << (c - 1).bit_length()) - 1)  # A's bits
    m0 = every(((1 << (base - 1).bit_length()) - 1) << g)  # a_0's, from bit g
    pairs = firsts = 0
    for _ in range(seg // 2):
        a = (y * cr >> f) & m
        y = c * y - a * n
        pairs += a
        firsts += a * rb & m0
    if y != pack(ends):
        raise InternalError(f"{where}: {lanes} lanes of {seg} digits missed their ends")
    return s * signed(pairs) + (1 - s * base) * (signed(firsts) >> g), ends[count - 1 :: count]


def h_theorem1(disc: Discriminant, base: int) -> HResult:
    """h as the sum of the contributions of all cycles of the base-B map.

    Write a(y) = floor(By/N) for the digit that long division emits at
    numerator y.  Each cycle C of y -> By mod N contributes
    -sum_{y in C} chi(y) a(y) / (B - chi(B)) to h, whatever the sign of chi(B):

      * chi(B) = +1: chi(By) = chi(y), so chi is constant on C and the sum is
        chi(C) times the plain digit sum, as in h_cycle_contribution.
      * chi(B) = -1: chi(By) = -chi(y), so chi alternates around
        C = (y_0, y_1, ...), chi(y_i) = (-1)^i chi(y_0), and the length e is
        even.  h_cycle_contribution rotates C to start at a member y_j with
        chi(y_j) = +1 and takes the alternating digit sum
            -a(y_j) + a(y_(j+1)) - ... = -sum_i (-1)^i a(y_(j+i))
                                       = -sum_i chi(y_(j+i)) a(y_(j+i)),
        which is the same sum over C.  A sum over all of C does not change
        when C is rotated, so no rotation is needed.

    Only half of each sum needs long division.  The reflection y -> N - y
    maps the cycle of y onto the cycle -C of N - y, since B(N - y) = -By
    (mod N), and it complements the digits and negates the character:

        a(N - y) = B - 1 - a(y)   (By/N is never an integer),
        chi(N - y) = -chi(y)      (chi(-1) = -1).

    So chi(y) a(y) + chi(N - y) a(N - y) = chi(y) (2 a(y) - (B - 1)), and a
    cycle and its reflection together contribute
    -sum_{y in C} chi(y) (2 a(y) - (B - 1)).  Either -C is another cycle or
    -C = C, and the second holds for every cycle at once, exactly when
    -1 = B^(e/2) (mod N) with e, the order of B mod N, even:

      * -C != C: walk all e members of C from x; the sum above is the
        numerator of C and -C together, one class C u -C of 2e units.
      * -C = C: y_(i + e/2) = N - y_i, so the sum over the first half
        y_0 .. y_(e/2 - 1) of the walk is the numerator of C, one class of
        e units.  chi(B)^(e/2) = chi(-1) = -1, so chi(B) = -1 and e/2 is odd.

    With chi(y_i) = chi(B)^i chi(x) and t the digit sum signed by chi(B)^i,
    the walk of w steps gives -chi(x) (2t - (B - 1) sum_{i < w} chi(B)^i),
    where the last sum is w for chi(B) = +1 and w mod 2 for chi(B) = -1.
    The total is divided by B - chi(B) once.

    k digits per step.  Long division in base B^k emits A = floor(B^k y/N)
    and the numerator B^k y mod N, which is y_k.  Unrolling y_(i+1) =
    B y_i - a(y_i) N gives B^k y = N sum_{j<k} a(y_j) B^(k-1-j) + y_k with
    0 <= y_k < N, so A = sum_{j<k} a(y_j) B^(k-1-j): the k base-B digits of
    A, most significant first, are the next k digits of the expansion, and
    one step adds their signed sum, read from _digit_table.  k >= 1 is the
    most that fits at either sign, so when chi(B) = -1 and k is odd the
    blocks start on the signs +1, -1, +1, ...: two blocks per pass into t
    and u, a last odd block into t, then t + chi(B)^k u.  The rest = steps
    % k digits left are one short block: A = floor(B^rest y/N) has k - rest
    leading zeros, so it adds chi(B)^(k blocks + k - rest) tab[A].

    One division per (D, B).  With k = w the unrolling gives a walk's digits
    as A = floor(B^w x/N), and B^w = c (mod N), c = -1 when -C = C and +1
    otherwise, so A = x Q - [c = -1] with Q = (B^w - c)/N for every walk.
    B = 2, 4 and 8 have a C radix in the binary int and 10 in decimal, where
    _radix_sum packs the A into slots and reads their signed digit sums
    through bit masks.  Every walk at any other base steps.

    Packed lanes.  When the walks cover phi(N)/2 >= LANE_DIGITS digits in
    all and each is at least T = 2 isqrt(phi(N)/2) long, _lanes
    cuts each walk into count = steps // T segments of T digits (T even).
    Segment j of the walk from x starts at x B^(Tj) mod N and holds one
    slot of W = 8 ceil((F + bits(c))/8) bits in an int Y; its i-th digit is
    signed chi(x) s^i, since s^(Tj) = 1.  One step emits two digits (k = 2
    above): A = (Y c R >> F) & M, Y = c Y - A N with c = B^2, F = bits(cN)
    + bits(N), R = ceil(2^F/N) and M the bits of c - 1 in every slot, and
    a_0 2^g = (A r) & (M_1 << g) with 2^g > B^3, r = ceil(2^g/B) and M_1
    the bits of B - 1 in every slot:
      * A exact: with u = c y < cN and R = (2^F + e)/N, 0 <= e < N, u R / 2^F
        = u/N + u e/(N 2^F), and the excess is below cN/2^F < 1/N as 2^F >
        cN^2; u/N is at least 1/N below the next integer, so the floor is
        floor(u/N) = A, whose base-B digits a_0 a_1 are the next two;
      * a_0 exact: likewise A r/2^g = A/B + A e'/(B 2^g) with e' = B r - 2^g
        < B, and A e' < c B <= 2^g, so bits g and up of A r are floor(A/B);
      * no carry: u R < (c + 1) 2^F <= 2^(F + bits(c)) <= 2^W, and W - g >=
        bits(c) + 2 bits(N) - 1 - bits(B) >= bits(B) + 2 bits(N) - 2, so A r
        < B 2^g + c <= 2^W: each slot's products stay in it, past >> F the
        next slot's low bits land at bit W - F >= bits(c), outside M, and
        M_1 << g reads the slot's own bits;
      * no overflow: over all slots together (phi(N)/4 pairs at most) the
        sum of A stays below N c < 2^F and that of a_0 2^g below N B 2^g/4
        < 2^(W - bits(N)), so each slot's sums stay in it, and a run of
        slots read mod 2^W - 1 (2^W = 1) is the sum of its slots;
      * no borrow: 0 <= c y - A N < N in every slot, so c Y - A N moves
        each slot to its successor alone.
    After T steps Y must equal the packed successors x B^(T(j+1)), which
    come from pow(B, T, N), so a wrong start fails that one comparison.
    The steps % T digits left in each walk step in blocks from its last
    segment's end, starting on sign +1 (T is even), and must close on x
    (N - x when -C = C) as any walk does.

    One start per class.  A walk of w steps covers a class C u -C (C alone
    when -C = C) of 2w units, so there are W = phi(N)/(2w) classes: the
    cosets of H = <B, -1> in the units G mod N.  _tower peels N = M_0 ->
    ... -> M_r = 1 one factor at a time: 8 -> 4 when 8 | N, the 2-part,
    then each odd prime p.  The kernel of (Z/M_(i-1))* -> (Z/M_i)* is
    cyclic of order k_i (2, 2, p - 1), generated by gamma_i: 5, -1 or the
    least primitive root of p there, 1 mod the rest of N.  With H(i) the
    preimage in G of H mod M_i, H = H(0) c ... c H(r) = G, and H(i) =
    <gamma_i> H(i-1): u in H(i) is h c, h in H and c = 1 mod M_i, so c is a
    power of gamma_i mod M_(i-1).  So H(i)/H(i-1) is cyclic, generated by
    gamma_i, of order r_i = k_i |H mod M_i| / |H mod M_(i-1)|, as |H(i)| =
    |H mod M_i| phi(N)/phi(M_i); |H mod M| is ord_M(B), doubled unless -1
    is a power of B mod M.  Hence the products prod_i gamma_i^(j_i), j_i <
    r_i, are one unit per coset of H: one start per class.  _tower returns
    them as it goes, from [1], each step with r_i > 1 replacing its list by
    the list times gamma_i^j for j < r_i.  ord_M(B) is the lcm of B's orders
    mod the prime powers of M (the CRT), one more each step, so the last step
    gives e and, by its -1 decision at M_0 = N, whether -C = C.  Prime N is
    one step, gamma = g and r = W; at W = 1 every r_i is 1, the one walk
    starts at 1 and no root is searched.

    Checks, each raising InternalError: each order o mod a prime power q
    has o | k_i, B^o = 1 and B^(o/f) != 1 (mod q) for each prime f | o, so
    e is the order with no certificate mod N; each r_i is whole;
    gamma_i^(k_i/f) != 1 for each prime f | r_i, so gamma_i generates
    H(i)/H(i-1) (the kernel's part in H mod M_(i-1) has order k_i/r_i);
    chi(B) = -1 needs e even; -1 a power of B needs chi(B) = -1 and e/2
    odd; phi(N) = 2w W over the W starts walked (the cycle count), so they
    cover every unit once; every walk closes: each stepped one lands on x (on
    N - x when -C = C), every lane on its successor, and at a radix base
    Q's division leaves no remainder; the final division is exact with a
    positive quotient; a decimal signal (the context is exact or it
    traps).
    """
    _check_coprime_base(disc, base)
    char = quad_char(disc)
    vals = char.values()
    n = disc.N
    s = char.eval(base)
    where = f"cycle[B={base}] at D={disc.D}"
    e, self_paired, starts = _tower(base, n, where)
    if s == -1 and e % 2:
        raise InternalError(f"{where}: chi(B) = -1 needs an even period, got {e}")
    half = e // 2
    if self_paired and s == 1:
        raise InternalError(f"{where}: B^{half} = -1 (mod {n}) with chi(B) = +1")
    if self_paired and half % 2 == 0:
        raise InternalError(f"{where}: B^{half} = -1 (mod {n}) needs {half} odd")
    steps = half if self_paired else e
    groups = {1: [], -1: []}  # the starts by chi(x), the +1 starts first
    for x in starts:
        groups[vals[x]].append(x)
    xs = groups[1] + groups[-1]
    if phi_with_primes(n)[0] != 2 * steps * len(xs):
        raise InternalError(f"{where}: cycle count phi({n}) is not 2 * {steps} * {len(xs)}")
    if base in (2, 4, 8, 10):  # a C radix: one division for every walk
        total = _radix_sum(base, n, steps, s, self_paired, groups, where)
    else:
        total, left, ends = 0, steps, xs  # the walk from x steps on from its ends entry
        seg = 2 * isqrt(steps * len(xs))  # even: each lane's digits start on sign +1
        if steps * len(xs) >= LANE_DIGITS and steps >= seg:
            count, left = divmod(steps, seg)
            total, ends = _lanes(base, n, s, seg, count, groups, where)
        k, tab = _digit_table(base, s)
        bk, sk = base**k, s**k  # sk: the sign each odd-numbered block starts on
        blocks, rest = divmod(left, k)
        pairs, odd = divmod(blocks, 2)
        br, tail = base**rest, s ** (k * blocks + k - rest)  # the short last block
        for x, y in zip(xs, ends):
            t = u = 0
            for _ in range(pairs):
                y *= bk
                t += tab[y // n]
                y %= n
                y *= bk
                u += tab[y // n]
                y %= n
            if odd:
                y *= bk
                t += tab[y // n]
                y %= n
            t += sk * u
            y *= br
            t += tail * tab[y // n]
            y %= n
            if y != (n - x if self_paired else x):
                raise InternalError(f"{where}: period {e} did not close the orbit of {x}")
            total += vals[x] * t
    sign_sum = steps % 2 if s == -1 else steps  # sum of chi(B)^i over i < steps
    raw = (base - 1) * sign_sum * (len(groups[1]) - len(groups[-1])) - 2 * total
    return _exact_h(disc, raw, base - s, f"cycle[B={base}]", raw)


def h_floor_formula(disc: Discriminant, base: int) -> HResult:
    """h from -sum chi(x) floor(Bx/N) = (B - chi(B)) h.

    floor(Bx/N) = k exactly on the k-th subinterval, so the sum is -sum k E_k.
    """
    return _ek_sum(disc, base, base, range(0, -base, -1), f"floor[B={base}]")


def ek_table(disc: Discriminant, base: int) -> EkTable:
    """E_k = pos_k - neg_k over the B subintervals: the table QuadChar.ek_table keeps.

    gcd(B, N) = 1 keeps every interior endpoint kN/B non-integral, so the
    k-th subinterval holds exactly the integers floor(kN/B) < x <= floor((k+1)N/B).
    """
    _check_coprime_base(disc, base)
    return quad_char(disc).ek_table(base)


def _ek_sum(disc: Discriminant, base: int, b1: int, weights: range, method: str) -> HResult:
    """h from sum w_j E_j(B1) = (B1 - chi(B1)) h over E_k(B), B1 | B: the E_k routes'
    one sum, with w_j = -j (floor) or B1 - 1 - 2j, j < B1/2 (interval at B1 = B, and
    factored).  When B1 < B, blocks of B/B1 fine totals sum to the coarse E_j(B1)."""
    entries = ek_table(disc, base).entries
    if b1 < base:
        entries = map(sum, zip(*[iter(entries)] * (base // b1)))
    raw = sum(map(mul, weights, entries))
    s1 = quad_char(disc).eval(b1)
    return _exact_h(disc, raw, b1 - s1, method, raw)


def h_from_ek(disc: Discriminant, base: int) -> HResult:
    """h from the half-table identity sum_{k < B/2} (B-1-2k) E_k = (B - chi(B)) h."""
    return _ek_sum(disc, base, base, range(base - 1, 0, -2), f"interval[B={base}]")


def h_from_ek_factored(disc: Discriminant, base: int, b1: int) -> HResult:
    """h from the E_k(B) regrouped into B1 blocks, B = B1 * B2; B1 = B is allowed.  The
    half-table weights B1 - 1 - 2j in _ek_sum, the one weighted E_k sum of all three routes."""
    if b1 < 2 or b1 > base or base % b1:
        raise InvalidFactorizationError(f"B1={b1} does not factor B={base}")
    return _ek_sum(disc, base, b1, range(b1 - 1, 0, -2), f"factored[B={base},B1={b1}]")


def h_girstmair(p: int, base: int | None = None) -> HResult:
    """h(-p) for a prime p = 3 (mod 4) from one expansion of 1/p.

    When B is a primitive root mod p the residues coprime to p form a single
    cycle, so (B+1) h is the alternating digit sum of the period of 1/p.  That
    cycle is the one orbit h_theorem1 walks, from x = 1; -1 = B^((p-1)/2) mod
    p, so the walk covers (p - 1)/2 digits, read off (B^((p-1)/2) + 1)/p at
    B = 2, 8 or 10 and k per step otherwise, the reflection supplies the others,
    and with one class its start comes from a one-step tower that searches no
    root and certifies the period, so B's order is not found again here.  A p
    that is not an odd prime is refused by least_primitive_root (which picks B
    when none is given) or is_primitive_root, and p = 3 by from_discriminant.
    """
    check_size(p)  # before any trial division
    if base is None:
        base = least_primitive_root(p)
    elif base < 2 or not is_primitive_root(base, p):
        raise ValueError(f"B={base} is not a primitive root mod {p}")
    if p % 4 != 3:
        raise ValueError(f"need p = 3 (mod 4), got p={p}")
    return replace(h_theorem1(from_discriminant(-p), base), method=f"girstmair[B={base}]")


def xi(x: int, n: int) -> int:
    """The reflection x -> N - x on X; it negates chi."""
    _check_numerator(x, n)
    return n - x


def eta(x: int, n: int) -> int:
    """The half-shift x -> x +/- N/2 on X for even discriminants; negates chi."""
    if n % 4:
        raise WrongParityError(f"eta needs 4 | N (even discriminant), got N={n}")
    _check_numerator(x, n)
    half = n // 2
    return x + half if x < half else x - half


def lambda_map(x: int, n: int) -> int:
    """The composition of xi and eta; preserves chi and fixes each half of (0, N).

    Sends x to N/2 - x on the lower half and to 3N/2 - x on the upper half,
    i.e. reflects the halves through N/4 and 3N/4.
    """
    if n % 4:
        raise WrongParityError(f"lambda_map needs 4 | N (even discriminant), got N={n}")
    _check_numerator(x, n)
    half = n // 2
    return half - x if x < half else 3 * half - x
