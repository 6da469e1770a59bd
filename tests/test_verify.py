import csv
import io
import json
import tracemalloc
from math import gcd

import pytest

from quadclass.classnum import MAX_BASE
from quadclass.discriminant import from_discriminant, quad_char
from quadclass.errors import InternalError
from quadclass.verify import (
    CHECK_KEYS,
    DEFAULT_BASES,
    METHODS,
    _rows,
    columns,
    fundamental_discriminants,
    routes,
    to_csv,
    to_json,
    to_text,
    verify_discriminant,
    verify_range,
)

from helpers import h_by_reduced_forms, is_fundamental


class TestEnumeration:
    def test_matches_oracle_to_2000(self):
        got = [d.D for d in fundamental_discriminants(-2000, -5)]
        want = [D for D in range(-5, -2001, -1) if is_fundamental(D)]
        assert got == want

    def test_descending_and_edges(self):
        ds = [d.D for d in fundamental_discriminants(-40, -5)]
        assert ds == sorted(ds, reverse=True)
        assert -7 in ds and -8 in ds
        assert -12 not in ds  # 4 * (-3): not fundamental
        assert -9 not in ds

    def test_excluded_pair_skipped(self):
        ds = [d.D for d in fundamental_discriminants(-10, -1)]
        assert -3 not in ds and -4 not in ds
        assert ds == [-7, -8]


class TestVerifyDiscriminant:
    def test_record_shape(self):
        rec = verify_discriminant(-15, bases=(2, 3, 4, 5))
        assert (rec.D, rec.N, rec.case, rec.h) == (-15, 15, "Odd", 2)
        # 3 and 5 divide N = 15: those columns are empty for every family
        for family in ("cycle", "floor", "interval"):
            assert rec.formulas[f"{family}_B3"] is None
            assert rec.formulas[f"{family}_B5"] is None
            assert rec.formulas[f"{family}_B2"] == 2
            assert rec.formulas[f"{family}_B4"] == 2
        # only 4 = 2 * 2 regroups; 4 is coprime to 15 so it runs
        assert rec.factored_ok is True
        assert rec.checks["base2"] is True
        assert rec.checks["base4"] is True
        # 3 | 15: the mod-3 checks don't apply, nor do the even-D ones
        for key in ("base6", "sixth", "base12", "quarter", "sixth_pair"):
            assert rec.checks[key] is None
        assert rec.agree and rec.passed and rec.error is None

    def test_even_record(self):
        rec = verify_discriminant(-40, bases=(3, 7, 9))
        assert rec.case == "D3" and rec.h == 2
        assert rec.checks["quarter"] is True
        assert rec.checks["sixth_pair"] is True
        for key in ("base2", "base4", "base6", "sixth", "base12"):
            assert rec.checks[key] is None
        assert rec.passed

    def test_no_factored_bases(self):
        rec = verify_discriminant(-7, bases=(2, 3, 5))  # no composite base
        assert rec.factored_ok is None
        assert rec.passed

    def test_oversized_base_is_a_fail_record_with_nothing_counted(self):
        counted = []

        class CountingMemo(dict):
            def __setitem__(self, base, counts):
                counted.append(base)
                super().__setitem__(base, counts)

        quad_char.cache_clear()
        char = quad_char(from_discriminant(-47))
        char._counts = CountingMemo()
        rec = verify_discriminant(-47, bases=(2, MAX_BASE + 1))
        assert not rec.passed and rec.h is None
        assert rec.error == (
            f"ModulusTooLargeError: base {MAX_BASE + 1} exceeds the limit MAX_BASE={MAX_BASE}"
        )
        assert counted == []
        quad_char.cache_clear()


class TestVerifyRange:
    def test_agrees_with_form_counting(self):
        report = verify_range(-300, -5, bases=(2, 3, 5, 10))
        assert report.ok
        for rec in report.records:
            assert rec.h == h_by_reduced_forms(rec.D)

    def test_summary(self):
        report = verify_range(-100, -5, bases=(2, 3))
        s = report.summary
        assert s["discriminants"] == len(report.records)
        assert s["passed"] == s["discriminants"]
        assert s["failed"] == 0
        assert s["first_failure"] is None
        assert s["all_passed"] is True
        assert s["elapsed_seconds"] >= 0

    def test_jobs_deterministic(self):
        one = verify_range(-150, -5, bases=(2, 3, 4), jobs=1)
        two = verify_range(-150, -5, bases=(2, 3, 4), jobs=2)
        assert one.records == two.records

    def test_bases_sorted_deduped(self):
        report = verify_range(-20, -5, bases=(5, 2, 5, 3))
        assert report.bases == (2, 3, 5)

    def test_validation(self):
        with pytest.raises(ValueError):
            verify_range(-5, -100)
        with pytest.raises(ValueError):
            verify_range(-100, -5, bases=())
        with pytest.raises(ValueError):
            verify_range(-100, -5, bases=(1, 2))
        with pytest.raises(ValueError):
            verify_range(-100, -5, jobs=0)

    def test_jobs_capped_at_cpu_count(self, monkeypatch):
        import quadclass.verify as V

        made = []

        class SerialPool:
            """Stands in for ProcessPoolExecutor: records its size, runs in-process."""

            def __init__(self, max_workers):
                made.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        monkeypatch.setattr(V, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(V.os, "cpu_count", lambda: 2)
        report = verify_range(-40, -5, bases=(2, 3), jobs=10**6)
        assert made == [2] and len(report.records) == 12 and report.ok

        def refuse(max_workers):
            raise AssertionError(f"pool of {max_workers} started on one core")

        monkeypatch.setattr(V, "ProcessPoolExecutor", refuse)
        monkeypatch.setattr(V.os, "cpu_count", lambda: 1)
        assert verify_range(-40, -5, bases=(2, 3), jobs=10**6).records == report.records

    def test_one_character_table_outlives_a_sweep(self):
        # Each D's table of N + 1 bytes is dropped once the next D is asked for.
        verify_range(-40, -5, bases=(2, 3))  # fills the per-base caches first
        quad_char.cache_clear()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            assert verify_range(-100060, -100003, bases=(2, 3)).ok  # 21 D
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert kept < 2 * 100060

    def test_range_with_no_fundamentals(self):
        report = verify_range(-6, -5, bases=(2,))
        assert report.records == [] and report.ok
        assert report.summary["discriminants"] == 0


class TestReports:
    def test_csv_round_trip(self):
        report = verify_range(-60, -5, bases=(2, 3, 4))
        rows = list(csv.DictReader(io.StringIO(to_csv(report))))
        assert len(rows) == len(report.records)
        assert list(rows[0]) == columns(report.bases)
        first = rows[0]
        rec = report.records[0]
        assert int(first["D"]) == rec.D
        assert int(first["h"]) == rec.h
        assert first["passed"] == "true"
        assert first["error"] == ""
        # None formula cells serialize as empty strings
        for key, value in rec.formulas.items():
            assert first[key] == ("" if value is None else str(value))

    def test_json_round_trip(self):
        report = verify_range(-60, -5, bases=(2, 3))
        payload = json.loads(to_json(report))
        assert payload["from"] == -60 and payload["to"] == -5
        assert payload["bases"] == [2, 3]
        assert payload["summary"] == report.summary
        assert len(payload["records"]) == len(report.records)
        assert payload["records"][0]["D"] == report.records[0].D
        assert payload["records"][0]["passed"] is True

    def test_text_report(self):
        report = verify_range(-40, -5, bases=(2,))
        text = to_text(report)
        lines = text.splitlines()
        assert all(line.startswith("pass") for line in lines[:-1])
        assert "D=-7" in text and "D=-40" in text
        assert "passed, 0 failed" in lines[-1]
        assert "first failure" not in text

    def test_row_schema_complete(self):
        report = verify_range(-30, -5, bases=(2, 3))
        cols = columns(report.bases)
        row = next(_rows(report.records[:1], report.bases))
        assert list(row) == cols


def _dumped(report):
    """The report through json.dumps(indent=2), its rows built by _rows."""
    payload = {
        "from": report.lo,
        "to": report.hi,
        "bases": list(report.bases),
        "summary": report.summary,
        "records": list(_rows(report.records, report.bases)),
    }
    return json.dumps(payload, indent=2) + "\n"


class TestJsonWriter:
    # to_json splices rows encoded at once into a json.dumps header; the
    # bytes must be those of one json.dumps(indent=2) of the whole payload.

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_matches_json_dumps(self, jobs):
        report = verify_range(-300, -5, jobs=jobs)
        assert len(report.records) > 2
        assert to_json(report) == _dumped(report)

    def test_empty_report(self):
        report = verify_range(-6, -5)
        text = to_json(report)
        assert text == _dumped(report)
        assert '"records": []\n}\n' in text

    def test_fail_rows_with_awkward_errors(self, monkeypatch):
        import quadclass.verify as V

        messages = {
            -7: 'a quote " and a backslash \\',
            -15: "non-ASCII: \u00e9, \u2603 and \U0001d53d",
            -20: "an escaped\nnewline",
            -23: "},\n      {",
            -31: '}"},\n      {"D": 1}',
        }
        real = V.h_theorem1

        def broken(disc, base):
            if disc.D in messages:
                raise InternalError(messages[disc.D])
            return real(disc, base)

        monkeypatch.setattr(V, "h_theorem1", broken)
        report = verify_range(-40, -5, bases=(2, 3))
        assert {r.D: r.error for r in report.records if not r.passed} == messages
        text = to_json(report)
        assert text == _dumped(report)
        rows = json.loads(text)["records"]
        assert {row["D"]: row["error"] for row in rows if row["error"]} == messages


class TestRoutes:
    def test_order(self):
        disc = from_discriminant(-23)
        got = [(family, b, r.method) for family, b, r in routes(disc, (2, 6))]
        assert got == [
            ("dirichlet", None, "dirichlet"),
            ("cycle", 2, "cycle[B=2]"),
            ("floor", 2, "floor[B=2]"),
            ("interval", 2, "interval[B=2]"),
            ("cycle", 6, "cycle[B=6]"),
            ("floor", 6, "floor[B=6]"),
            ("interval", 6, "interval[B=6]"),
            ("factored", 6, "factored[B=6,B1=2]"),
            ("factored", 6, "factored[B=6,B1=3]"),
        ]
        assert [f for f, _, _ in routes(disc, (4,), ("factored", "cycle"))] == ["cycle", "factored"]

    @pytest.mark.parametrize("D", [-23, -40, -15, -1019])
    def test_matches_verify_discriminant(self, D):
        rec = verify_discriminant(D)
        assert rec.passed and rec.h == h_by_reduced_forms(D)
        disc = from_discriminant(D)
        coprime = [b for b in DEFAULT_BASES if gcd(b, disc.N) == 1]
        formulas, factored = {}, []
        for family, b, r in routes(disc, coprime, METHODS):
            if family == "dirichlet":
                assert r.h == rec.h
            elif family == "factored":
                factored.append(r.h == rec.h)
            else:
                formulas[f"{family}_B{b}"] = r.h
        assert formulas == {k: v for k, v in rec.formulas.items() if v is not None}
        assert rec.factored_ok == (all(factored) if factored else None)


class TestFailurePath:
    def test_wrong_formula_is_caught(self, monkeypatch):
        import quadclass.verify as V

        real = V.h_from_ek

        def skewed(disc, base):
            res = real(disc, base)
            if disc.D == -23 and base == 3:
                return type(res)(res.disc, res.h + 1, res.method, res.raw_sum)
            return res

        monkeypatch.setattr(V, "h_from_ek", skewed)
        report = verify_range(-30, -5, bases=(2, 3))
        assert not report.ok
        bad = [r for r in report.records if not r.passed]
        assert [r.D for r in bad] == [-23]
        assert bad[0].formulas["interval_B3"] == 4  # h(-23) = 3
        assert report.summary["first_failure"] == -23
        text = to_text(report)
        assert "FAIL" in text and "interval_B3" in text
        assert "first failure: D=-23" in text

    def test_wrong_factored_route_is_caught(self, monkeypatch):
        import quadclass.verify as V

        real = V.h_from_ek_factored

        def skewed(disc, base, b1):
            res = real(disc, base, b1)
            if disc.D == -23 and (base, b1) == (6, 3):
                return type(res)(res.disc, res.h + 1, res.method, res.raw_sum)
            return res

        monkeypatch.setattr(V, "h_from_ek_factored", skewed)
        report = verify_range(-30, -5, bases=(2, 6))
        bad = [r for r in report.records if not r.passed]
        assert [(r.D, r.factored_ok, r.agree, r.error) for r in bad] == [(-23, False, False, None)]
        assert all(v == 3 for v in bad[0].formulas.values())
        line = next(line for line in to_text(report).splitlines() if "D=-23 " in line)
        assert line.startswith("FAIL") and line.endswith("[factored]")
        rows = {row["D"]: row for row in csv.DictReader(io.StringIO(to_csv(report)))}
        assert rows["-23"]["factored_ok"] == "false" and rows["-23"]["passed"] == "false"
        assert rows["-7"]["factored_ok"] == "true"

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("error", [ValueError, KeyError])
    def test_route_exception_is_a_fail_record(self, monkeypatch, capsys, jobs, error):
        import quadclass.verify as V
        from quadclass.cli import main

        real = V.h_floor_formula

        def broken(disc, base):
            if disc.D == -23 and base == 3:
                raise error("injected")
            return real(disc, base)

        # With jobs=2 the pool's workers are forked, so they see the patch too.
        monkeypatch.setattr(V, "h_floor_formula", broken)
        report = verify_range(-40, -5, bases=(2, 3), jobs=jobs)
        assert len(report.records) == 12
        bad = [r for r in report.records if not r.passed]
        assert [r.D for r in bad] == [-23]
        assert bad[0].error.startswith(error.__name__), bad[0].error
        assert main(["verify", "--from", "-40", "--to", "-5", "-B", "2", "-B", "3",
                     "--jobs", str(jobs)]) == 1
        out = capsys.readouterr().out
        assert f"error: {error.__name__}" in out
        assert "11 passed, 1 failed" in out


def test_default_bases():
    assert DEFAULT_BASES == tuple(range(2, 14))
    assert CHECK_KEYS == (
        "base2", "base4", "base6", "sixth", "base12", "quarter", "sixth_pair",
    )
