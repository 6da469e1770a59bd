"""Workload inputs, the independent class-number oracle and the correctness gate.

Stdlib only, and no import of quadclass: the benchmark parent uses this
module to decide what is correct, and the child uses it to build the same
inputs from the same seed.

Each workload is cut into slices of one to three seconds, and each slice is
timed in its own interpreter.  The host this benchmark was built on runs the
same work up to 1.6 times slower while its neighbours are busy, and only a
short timed call can be corrected for that (see run.measure).  The sweep
keeps the whole ROADMAP.md range, -5000..-5, in twelve slices.  The large
discriminant is a prime near 300000 rather than ROADMAP's 1000003, whose
single eight-second call could not be corrected.  The girstmair window is
the primes below 8000 rather than 2000, where a call lasts 0.1 s.

Seed 0 gives these inputs.  Any other seed shifts each input a little (at
most 32 places), so the inputs differ but keep the properties the workload
was chosen for, and the work stays within a few per cent of seed 0.
"""

import hashlib
import json
import math
import random
from dataclasses import dataclass

DEFAULT_SEED = 0
BASES = tuple(range(2, 14))

WORKLOADS = ("sweep", "sweep-par", "large-d", "girstmair")


@dataclass(frozen=True)
class Spec:
    """The inputs of one workload at one seed."""

    name: str
    seed: int
    kind: str  # "verify" (verify_range + to_json) or "girstmair"
    jobs: int
    slices: tuple  # (lo, hi) ranges of D, or of p for girstmair, in run order
    tiny: bool = False

    @property
    def pinned(self) -> bool:
        """Whether the report digest is pinned for these inputs."""
        return self.seed == DEFAULT_SEED and not self.tiny

    def keys(self, i: int) -> list:
        """The discriminants or primes of slice i, in the order they run."""
        lo, hi = self.slices[i]
        if self.kind == "girstmair":
            return [p for p in range(lo, hi + 1) if p % 4 == 3 and is_prime(p)]
        return [D for D in range(hi, lo - 1, -1) if is_fundamental(D)]

    def describe(self) -> str:
        if self.kind == "girstmair":
            lo, hi = self.slices[0]
            return f"primes p = 3 (mod 4) in [{lo}, {hi}], least primitive root"
        lo, hi = self.slices[-1][0], self.slices[0][1]
        return (f"D in [{lo}, {hi}] in {len(self.slices)} slice(s), bases 2..13, "
                f"jobs={self.jobs}")


def make_spec(name: str, seed: int, tiny: bool = False) -> Spec:
    """Inputs of workload `name` for `seed`; tiny sizes serve the self-test."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    shift = 0 if seed == DEFAULT_SEED else random.Random(seed).randrange(1, 33)
    if name in ("sweep", "sweep-par"):
        # Acceptance criterion 6: every fundamental D in -5000..-5.
        hi = -5 - shift
        slices = sweep_slices(hi - (400 if tiny else 4995), hi, 2 if tiny else 12)
        return Spec(name, seed, "verify", 2 if name == "sweep-par" else 1, slices, tiny)
    if name == "large-d":
        # A prime N = 3 (mod 4): D = -N is fundamental, every base 2..13 is
        # coprime to N and 3 does not divide N, so every route and every odd
        # closed form runs.
        p = _nth_prime_3_mod_4(10007 if tiny else 300007, shift)
        return Spec(name, seed, "verify", 1, ((-p, -p),), tiny)
    # girstmair: the primes p = 3 (mod 4), p > 3, below 8000.
    top = 300 if tiny else 8000
    return Spec(name, seed, "girstmair", 1, ((7 + shift, top + shift - 1),), tiny)


def sweep_slices(lo: int, hi: int, k: int) -> tuple:
    """Cut [lo, hi] into k ranges of about equal work, highest D first.

    A discriminant costs about |D|, so the cuts fall where the running sum
    of |D| reaches each k-th of its total.
    """
    width = hi - lo
    cuts = [hi + 1] + [hi + 1 - round(width * math.sqrt(i / k)) for i in range(1, k)]
    cuts.append(lo)
    return tuple((cuts[i + 1], cuts[i] - 1) for i in range(k))


def _nth_prime_3_mod_4(start: int, n: int) -> int:
    """The n-th prime p = 3 (mod 4) with p >= start, counting from 0."""
    p = start
    while True:
        if p % 4 == 3 and is_prime(p):
            if n == 0:
                return p
            n -= 1
        p += 1


# ----- oracle: shares no code or theory with quadclass -----


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _squarefree(n: int) -> bool:
    d = 2
    while d * d <= n:
        if n % (d * d) == 0:
            return False
        d += 1
    return True


def is_fundamental(D: int) -> bool:
    """Fundamental discriminant below -4 (the range quadclass accepts)."""
    if D >= -4:
        return False
    if D % 4 == 1:
        return _squarefree(-D)
    if D % 4:
        return False
    m = D // 4
    return m % 4 in (2, 3) and _squarefree(-m)


def h_reduced_forms(D: int) -> int:
    """Class number by counting reduced forms (a, b, c) with b*b - 4ac = D.

    |b| <= a <= c; the forms with b = 0, a = b or a = c are counted once
    (their +/-b are the same class), the rest twice.
    """
    count = 0
    b = D % 2
    while 3 * b * b <= -D:
        m = (b * b - D) // 4
        a = max(b, 1)
        while a * a <= m:
            if m % a == 0:
                count += 1 if (b == 0 or a == b or a * a == m) else 2
            a += 1
        b += 2
    return count


def expected(spec: Spec) -> dict:
    """Item key -> true class number: D for verify workloads, p for girstmair."""
    sign = -1 if spec.kind == "girstmair" else 1
    return {key: h_reduced_forms(sign * key)
            for i in range(len(spec.slices)) for key in spec.keys(i)}


# ----- correctness gate -----


def digest(payload) -> str:
    """sha256 of the canonical JSON of a rendered report or girstmair rows."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def grade(result: dict, truth: dict, pinned_digest: str | None) -> list:
    """Failures of one repetition, one string per failed item.

    An item fails when it is missing, carries a FAIL record, or has an h that
    differs from the oracle.  An exception in the timed call fails every item
    it left missing; a digest mismatch with no failed item fails one.
    """
    failures = []
    if result.get("error"):
        failures.append(f"exception: {result['error'].strip().splitlines()[-1]}")
    got = {key: (h, passed) for key, h, passed in result.get("items", [])}
    for key, h in truth.items():
        if key not in got:
            failures.append(f"{key}: no result")
        elif got[key][1] is not True:
            failures.append(f"{key}: FAIL record")
        elif got[key][0] != h:
            failures.append(f"{key}: h = {got[key][0]}, oracle says {h}")
    failures += [f"{key}: not an input" for key in got if key not in truth]
    if pinned_digest is not None and result.get("digest") != pinned_digest:
        failures.append("report digest differs from the pinned one")
    return failures
