"""Cross-checking sweeps over ranges of fundamental discriminants.

For every fundamental D in a range, routes() computes the class number by each
applicable route (character sum, cycle, floor, interval and factored interval
sums), as it does for `quadclass classnum`, and every closed-form table identity
that applies to D's parity is checked.  One record per discriminant feeds the
text, CSV and JSON reports; the run passes only if every record agrees everywhere.
"""

import csv
import io
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache, partial
from math import gcd
from typing import Iterator, Sequence

from .classnum import (
    ek_table,
    h_dirichlet,
    h_floor_formula,
    h_from_ek,
    h_from_ek_factored,
    h_theorem1,
)
from .discriminant import Case, Discriminant, check_base, check_size, from_discriminant, quad_char
from .errors import ExcludedDiscriminantError, InternalError, NotFundamentalError
from .theorems import (
    check_b2,
    check_b4,
    check_b6,
    check_b12,
    check_s1_s2,
    h_abs_sixth,
    h_quarter_sum,
)

__all__ = [
    "DEFAULT_BASES",
    "METHODS",
    "CHECK_KEYS",
    "DiscriminantRecord",
    "VerificationReport",
    "fundamental_discriminants",
    "routes",
    "verify_discriminant",
    "verify_range",
    "columns",
    "to_text",
    "to_csv",
    "to_json",
]

DEFAULT_BASES = tuple(range(2, 14))

# The routes to h(D) in the order routes() runs them.  All but the first and last
# have a report column per base: dirichlet is h, factored one flag for all B1.
METHODS = ("dirichlet", "cycle", "floor", "interval", "factored")

# Closed-form checks in report order; which apply depends on D's parity
# and on gcd(D, 3), the rest stay None.
CHECK_KEYS = ("base2", "base4", "base6", "sixth", "base12", "quarter", "sixth_pair")


@dataclass
class DiscriminantRecord:
    """Everything verified about one discriminant."""

    D: int
    N: int
    case: str
    h: int | None
    formulas: dict  # "cycle_B7" -> h by that route, or None when 7 | N
    factored_ok: bool | None  # all divisor regroupings agreed; None if none ran
    checks: dict  # CHECK_KEYS -> passed, or None where not applicable
    agree: bool
    passed: bool
    error: str | None = None


@dataclass
class VerificationReport:
    lo: int
    hi: int
    bases: tuple
    records: list
    elapsed: float

    @property
    def ok(self) -> bool:
        return all(r.passed for r in self.records)

    @property
    def summary(self) -> dict:
        failed = [r for r in self.records if not r.passed]
        return {
            "discriminants": len(self.records),
            "passed": len(self.records) - len(failed),
            "failed": len(failed),
            "first_failure": failed[0].D if failed else None,
            "all_passed": not failed,
            "elapsed_seconds": round(self.elapsed, 3),
        }


def fundamental_discriminants(lo: int, hi: int) -> Iterator[Discriminant]:
    """Fundamental discriminants in [lo, hi], by decreasing D (hi first).

    Non-fundamental integers and the excluded pair -3, -4 are skipped.
    """
    for D in range(hi, lo - 1, -1):
        try:
            yield from_discriminant(D)
        except (NotFundamentalError, ExcludedDiscriminantError):
            continue


def _failed_record(disc: Discriminant, message: str) -> DiscriminantRecord:
    return DiscriminantRecord(
        disc.D, disc.N, disc.case.value, None, {}, None, dict.fromkeys(CHECK_KEYS),
        agree=False, passed=False, error=message,
    )


def routes(disc: Discriminant, bases: Sequence[int], methods=METHODS) -> Iterator[tuple]:
    """(method, B, HResult) of each route of methods at D: dirichlet first, with B None,
    then at each base cycle, floor, interval, and factored at each B1 | B, 1 < B1 < B.

    Every base is checked first, and one ek_tables pass counts the E_k tables of the
    bases coprime to N when floor, interval or factored reads them.  The routes are
    looked up on each call, so a patched verify.h_theorem1 (or any other) is what runs.
    """
    for b in bases:
        check_base(b)
    dirichlet, cycle, floor, interval, factored = METHODS
    if {floor, interval, factored}.intersection(methods):
        quad_char(disc).ek_tables(tuple(b for b in bases if gcd(b, disc.N) == 1))
    if dirichlet in methods:
        yield dirichlet, None, h_dirichlet(disc)
    for b in bases:
        if cycle in methods:
            yield cycle, b, h_theorem1(disc, b)
        if floor in methods:
            yield floor, b, h_floor_formula(disc, b)
        if interval in methods:
            yield interval, b, h_from_ek(disc, b)
        if factored in methods:
            for b1 in range(2, b):
                if b % b1 == 0:
                    yield factored, b, h_from_ek_factored(disc, b, b1)


def verify_discriminant(D: int, bases: Sequence[int] = DEFAULT_BASES) -> DiscriminantRecord:
    """Run every route and every applicable closed-form check for one D.

    D must be a fundamental discriminant.  An exception raised by any route
    or check becomes a FAIL record whose error names it.
    """
    disc = from_discriminant(D)
    try:
        h = h_dirichlet(disc).h
        coprime = [b for b in bases if gcd(b, disc.N) == 1]
        # Each parity branch counts, in one pass, the E_k tables its checks and the routes read.
        checks = dict.fromkeys(CHECK_KEYS)
        char = quad_char(disc)
        if disc.case is Case.ODD:
            char.ek_tables((*coprime, 2, 4, *((6, 12) if disc.N % 3 else ())))
            checks["base2"] = check_b2(disc).passed
            checks["base4"] = check_b4(disc).passed
            if disc.N % 3:
                checks["base6"] = check_b6(disc).passed
                checks["sixth"] = h_abs_sixth(disc).h == h
                checks["base12"] = check_b12(disc, h, ek_table(disc, 12).entries[0]).passed
        else:
            char.ek_tables((*coprime, 4, *((12,) if disc.N % 3 else ())))
            checks["quarter"] = h_quarter_sum(disc).h == h
            if disc.N % 3:
                checks["sixth_pair"] = check_s1_s2(disc).passed
        names = _route_columns(tuple(bases))
        formulas = dict.fromkeys(names.values())
        factored = []
        for family, b, result in routes(disc, coprime, METHODS[1:]):
            if name := names.get((family, b)):
                formulas[name] = result.h
            else:
                factored.append(result.h == h)
        factored_ok = all(factored) if factored else None
        agree = factored_ok is not False and all(v is None or v == h for v in formulas.values())
        passed = agree and not any(v is False for v in checks.values())
        return DiscriminantRecord(
            disc.D, disc.N, disc.case.value, h, formulas, factored_ok, checks,
            agree=agree, passed=passed,
        )
    except InternalError as exc:
        return _failed_record(disc, str(exc))
    except Exception as exc:
        # Any other failure is a bug in one route too; it costs this D its
        # record, never the rest of the sweep.
        return _failed_record(disc, f"{type(exc).__name__}: {exc}")


def verify_range(
    lo: int, hi: int, bases: Sequence[int] = DEFAULT_BASES, jobs: int = 1
) -> VerificationReport:
    """Verify every fundamental discriminant in [lo, hi], hi first.

    Records are deterministic for a fixed range and base list regardless of
    jobs; only elapsed time varies.  jobs is capped at os.cpu_count(): more
    workers than cores share the cores and only add start-up cost.  A range
    reaching below -MAX_N, or a base outside 2..discriminant.MAX_BASE, is
    refused before anything is enumerated.
    """
    if lo > hi:
        raise ValueError(f"empty range: from {lo} to {hi}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    check_size(-lo)
    jobs = min(jobs, os.cpu_count() or 1)
    bases = tuple(sorted(set(bases)))
    if not bases:
        raise ValueError("need at least one base")
    check_base(bases[0])
    check_base(bases[-1])

    start = time.perf_counter()
    ds = [disc.D for disc in fundamental_discriminants(lo, hi)]
    if jobs > 1 and len(ds) > 1:
        worker = partial(verify_discriminant, bases=bases)
        chunk = max(1, len(ds) // (8 * jobs))
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            records = list(pool.map(worker, ds, chunksize=chunk))
    else:
        records = [verify_discriminant(D, bases) for D in ds]
    return VerificationReport(lo, hi, bases, records, time.perf_counter() - start)


# ----- report serialization -----


@lru_cache(maxsize=16)
def _route_columns(bases: tuple) -> dict:
    """(family, B) -> the report column of that route, for the routes with one per base,
    in column order."""
    return {(family, b): f"{family}_B{b}" for family in METHODS[1:-1] for b in bases}


def columns(bases: Sequence[int]) -> list:
    """CSV/JSON column names, fixed by the base list."""
    return ["D", "N", "case", "h", *_route_columns(tuple(bases)).values(), "factored_ok",
            *CHECK_KEYS, "agree", "passed", "error"]


def _rows(records: Sequence[DiscriminantRecord], bases: Sequence[int]) -> Iterator[dict]:
    """Each record flattened to columns(bases): a record field, a route or a check."""
    formula_cols = list(_route_columns(tuple(bases)).values())
    for rec in records:
        formulas, checks = rec.formulas, rec.checks
        yield {"D": rec.D, "N": rec.N, "case": rec.case, "h": rec.h,
               **{col: formulas.get(col) for col in formula_cols},
               "factored_ok": rec.factored_ok,
               **{key: checks.get(key) for key in CHECK_KEYS},
               "agree": rec.agree, "passed": rec.passed, "error": rec.error}


def _cell(value) -> str:
    if value is None:
        return ""
    if value is True:
        return "true"
    if value is False:
        return "false"
    return str(value)


def to_csv(report: VerificationReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns(report.bases))
    for row in _rows(report.records, report.bases):
        writer.writerow([_cell(v) for v in row.values()])
    return buf.getvalue()


# Encodes the list of rows in one call of the C encoder, each row flat with
# its items on lines of their own at the depth json.dumps(indent=2) gives them.
_ROWS_ENCODER = json.JSONEncoder(separators=(",\n      ", ": "))


def to_json(report: VerificationReport) -> str:
    """json.dumps(payload, indent=2) of the report, byte for byte, plus a newline.

    The header and summary are rendered by json.dumps with "records": [], and the
    rows, encoded at once by _ROWS_ENCODER, are spliced in.  A row is a flat dict of
    scalars and an encoded string never holds a raw newline, so "},\n      {" occurs
    only between two rows, where indent=2 puts "\n    },\n    {\n      ".
    """
    payload = {
        "from": report.lo,
        "to": report.hi,
        "bases": list(report.bases),
        "summary": report.summary,
        "records": [],
    }
    text = json.dumps(payload, indent=2)
    if report.records:
        rows = _ROWS_ENCODER.encode(list(_rows(report.records, report.bases)))
        body = rows[2:-2].replace("},\n      {", "\n    },\n    {\n      ")
        text = f"{text[:-4]}[\n    {{\n      {body}\n    }}\n  ]\n}}"
    return text + "\n"


def to_text(report: VerificationReport) -> str:
    lines = []
    for rec in report.records:
        status = "pass" if rec.passed else "FAIL"
        line = f"{status}  D={rec.D:<7} N={rec.N:<6} {rec.case:<4} h={rec.h}"
        if not rec.passed:
            bad = [k for k, v in rec.formulas.items() if v is not None and v != rec.h]
            bad += [k for k, v in rec.checks.items() if v is False]
            if rec.factored_ok is False:
                bad.append("factored")
            if rec.error:
                bad.append(f"error: {rec.error}")
            line += "  [" + ", ".join(bad) + "]"
        lines.append(line)
    s = report.summary
    lines.append(
        f"{s['discriminants']} discriminants from {report.lo} to {report.hi}, "
        f"bases {','.join(map(str, report.bases))}: "
        f"{s['passed']} passed, {s['failed']} failed "
        f"({s['elapsed_seconds']}s)"
    )
    if s["first_failure"] is not None:
        lines.append(f"first failure: D={s['first_failure']}")
    return "\n".join(lines) + "\n"
