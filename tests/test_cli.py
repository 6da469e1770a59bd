import csv
import io
import json

import pytest

from quadclass.cli import main


class TestClassnum:
    def test_default_run(self, capsys):
        assert main(["classnum", "-D", "-23"]) == 0
        out = capsys.readouterr().out
        assert "D=-23 (N=23, m=-23, case Odd)" in out
        assert "h(-23) = 3" in out
        assert "agreement: ok" in out
        assert "dirichlet" in out
        # 23 is prime, so every default base 2..13 runs for each family
        assert "cycle[B=13]" in out and "floor[B=2]" in out
        assert "interval[B=12]" in out and "factored[B=12,B1=6]" in out

    def test_explicit_base_and_method(self, capsys):
        assert main(["classnum", "-D", "-43", "-B", "10", "--method", "cycle"]) == 0
        out = capsys.readouterr().out
        assert "cycle[B=10]" in out
        assert "dirichlet" not in out and "floor" not in out
        assert "h(-43) = 1" in out

    def test_methods_accumulate(self, capsys):
        rc = main(["classnum", "-D", "-7", "--method", "dirichlet",
                   "--method", "floor", "-B", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "dirichlet" in out and "floor[B=2]" in out
        assert "cycle" not in out

    def test_factored_alone_needs_composite_base(self, capsys):
        rc = main(["classnum", "-D", "-7", "--method", "factored", "-B", "5"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_non_fundamental_rejected(self, capsys):
        assert main(["classnum", "-D", "-12"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_excluded_rejected(self, capsys):
        assert main(["classnum", "-D", "-3"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_base_dividing_modulus_rejected(self, capsys):
        assert main(["classnum", "-D", "-15", "-B", "3"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_mismatch_exit_code(self, capsys, monkeypatch):
        import quadclass.verify as V

        real = V.h_from_ek

        def skewed(disc, base):
            res = real(disc, base)
            return type(res)(res.disc, res.h + 1, res.method, res.raw_sum)

        monkeypatch.setattr(V, "h_from_ek", skewed)
        assert main(["classnum", "-D", "-23", "-B", "5"]) == 1
        out = capsys.readouterr().out
        assert "interval[B=5]" in out
        assert out.splitlines()[-1] == "agreement: MISMATCH, values [3, 4]"

    def test_internal_error_exit_code(self, capsys, monkeypatch):
        import quadclass.verify as V
        from quadclass.errors import InternalError

        def broken(disc, base):
            raise InternalError(f"cycle[B={base}] at D={disc.D}: injected")

        monkeypatch.setattr(V, "h_theorem1", broken)
        assert main(["classnum", "-D", "-23", "-B", "5"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "internal error: cycle[B=5] at D=-23: injected\n"
        assert "agreement" not in captured.out

    def test_tables_counted_in_one_pass(self, capsys, monkeypatch):
        # floor, interval and factored read the E_k tables of every base, all
        # counted by one ek_tables call before the first route runs.
        from quadclass.discriminant import QuadChar, quad_char

        real = QuadChar.ek_tables
        passes = []

        def counting(char, bases):
            new = [b for b in bases if b not in char._counts]
            if new:
                passes.append(new)
            return real(char, bases)

        monkeypatch.setattr(QuadChar, "ek_tables", counting)
        quad_char.cache_clear()
        assert main(["classnum", "-D", "-23"]) == 0
        assert "h(-23) = 3" in capsys.readouterr().out
        assert passes == [list(range(2, 14))]


class TestExpand:
    def test_bare_modulus(self, capsys):
        assert main(["expand", "-N", "7", "-B", "10"]) == 0
        out = capsys.readouterr().out
        assert "1/7 in base 10: period e = 6" in out
        assert "0.(1 4 2 8 5 7)_10" in out
        assert "(1, 3, 2, 6, 4, 5)" in out
        assert "chi" not in out  # no character without a discriminant

    def test_discriminant_negative_character(self, capsys):
        assert main(["expand", "-D", "-15", "-B", "7", "-x", "7"]) == 0
        out = capsys.readouterr().out
        assert "chi(7) = -1" in out
        assert "normalized at x1 = 1" in out
        assert "0.(0 3 1 6)_7" in out

    def test_discriminant_positive_character(self, capsys):
        assert main(["expand", "-D", "-15", "-B", "4"]) == 0
        out = capsys.readouterr().out
        assert "chi(4) = +1" in out
        assert "chi(C) = +1" in out

    def test_d_and_n_mutually_exclusive(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["expand", "-D", "-15", "-N", "15", "-B", "2"])
        assert exc.value.code == 2

    def test_one_of_d_n_required(self):
        with pytest.raises(SystemExit) as exc:
            main(["expand", "-B", "2"])
        assert exc.value.code == 2

    def test_non_coprime_numerator(self, capsys):
        assert main(["expand", "-N", "15", "-B", "2", "-x", "5"]) == 2
        assert "error:" in capsys.readouterr().err


class TestEk:
    def test_table(self, capsys):
        assert main(["ek", "-D", "-43", "-B", "6"]) == 0
        out = capsys.readouterr().out
        assert "chi(6) = +1" in out
        lines = out.splitlines()
        assert any(line.split()[:1] == ["0"] and line.split()[-1] == "-1"
                   for line in lines)
        assert "h = 1" in out
        # rows list signed totals -1 3 1 -1 -3 1
        body = [line.split()[-1] for line in lines if line.strip()[:1].isdigit()]
        assert body == ["-1", "3", "1", "-1", "-3", "1"]

    def test_boundaries_are_fractions(self, capsys):
        assert main(["ek", "-D", "-7", "-B", "2"]) == 0
        out = capsys.readouterr().out
        assert "(0, 7/2)" in out and "(7/2, 7)" in out

    def test_boundaries_read_once(self, capsys, monkeypatch):
        from quadclass.classnum import EkTable

        reads = []
        real = EkTable.boundaries.fget
        monkeypatch.setattr(EkTable, "boundaries", property(lambda t: reads.append(t) or real(t)))
        assert main(["ek", "-D", "-7", "-B", "5"]) == 0
        assert "(28/5, 7)" in capsys.readouterr().out
        assert len(reads) == 1  # each read builds B + 1 Fractions

    def test_base_sharing_factor_rejected(self, capsys):
        assert main(["ek", "-D", "-15", "-B", "5"]) == 2
        assert "error:" in capsys.readouterr().err


class TestGirstmair:
    def test_default_base(self, capsys):
        assert main(["girstmair", "7"]) == 0
        out = capsys.readouterr().out
        assert "base 3 (primitive root)" in out
        assert "period e = 6" in out
        assert "h = 1" in out and "[agree]" in out

    def test_explicit_base(self, capsys):
        assert main(["girstmair", "11", "-B", "2"]) == 0
        out = capsys.readouterr().out
        assert "0.(0 0 0 1 0 1 1 1 0 1)_2" in out
        assert "alternating digit sum = 3" in out
        assert "h = 1" in out

    def test_classical_decimal(self, capsys):
        assert main(["girstmair", "7", "-B", "10"]) == 0
        out = capsys.readouterr().out
        assert "0.(1 4 2 8 5 7)_10" in out
        assert "alternating digit sum = 11" in out

    def test_rejects_wrong_primes(self, capsys):
        assert main(["girstmair", "5"]) == 2  # 5 = 1 (mod 4)
        capsys.readouterr()
        assert main(["girstmair", "9"]) == 2  # not prime
        capsys.readouterr()
        assert main(["girstmair", "3"]) == 2  # excluded discriminant
        capsys.readouterr()
        assert main(["girstmair", "7", "-B", "2"]) == 2  # 2 not primitive mod 7
        assert "error:" in capsys.readouterr().err


class TestVerify:
    def test_text(self, capsys):
        assert main(["verify", "--from", "-40", "--to", "-5"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("pass  D=-7")
        assert "0 failed" in out

    def test_csv(self, capsys):
        assert main(["verify", "--from", "-30", "--to", "-5",
                     "--format", "csv", "-B", "2", "-B", "3"]) == 0
        out = capsys.readouterr().out
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [r["D"] for r in rows] == ["-7", "-8", "-11", "-15", "-19",
                                          "-20", "-23", "-24"]
        assert all(r["passed"] == "true" for r in rows)

    def test_json(self, capsys):
        assert main(["verify", "--from", "-30", "--to", "-5",
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["all_passed"] is True
        assert payload["records"][0]["D"] == -7

    def test_jobs_output_identical(self, capsys):
        assert main(["verify", "--from", "-60", "--to", "-5",
                     "--format", "csv"]) == 0
        serial = capsys.readouterr().out
        assert main(["verify", "--from", "-60", "--to", "-5",
                     "--format", "csv", "--jobs", "2"]) == 0
        assert capsys.readouterr().out == serial

    def test_empty_range_is_input_error(self, capsys):
        assert main(["verify", "--from", "-5", "--to", "-40"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_failure_exit_code(self, capsys, monkeypatch):
        import quadclass.verify as V

        real = V.h_from_ek

        def skewed(disc, base):
            res = real(disc, base)
            if disc.D == -23:
                return type(res)(res.disc, res.h + 1, res.method, res.raw_sum)
            return res

        monkeypatch.setattr(V, "h_from_ek", skewed)
        assert main(["verify", "--from", "-30", "--to", "-5"]) == 1
        out = capsys.readouterr().out
        assert "FAIL  D=-23" in out
        assert "first failure: D=-23" in out


    def test_wrong_route_fails_by_identity(self, capsys, monkeypatch):
        import quadclass.verify as V

        real = V.h_floor_formula

        def skewed(disc, base):
            res = real(disc, base)
            if disc.D == -23:
                return type(res)(res.disc, res.h + 1, res.method, res.raw_sum)
            return res

        monkeypatch.setattr(V, "h_floor_formula", skewed)
        assert main(["verify", "--from", "-40", "--to", "-5"]) == 1
        rows = [line for line in capsys.readouterr().out.splitlines() if "D=-23 " in line]
        assert len(rows) == 1 and rows[0].startswith("FAIL")
        assert "floor_B2" in rows[0] and "floor_B13" in rows[0]
        assert "cycle_B" not in rows[0]
        assert main(["verify", "--from", "-40", "--to", "-5", "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        failed = [r for r in payload["records"] if not r["passed"]]
        assert [(r["D"], r["floor_B2"], r["cycle_B2"]) for r in failed] == [(-23, 4, 3)]


class TestTooLarge:
    def test_classnum(self, capsys, monkeypatch):
        from quadclass.discriminant import MAX_N, QuadChar

        monkeypatch.setattr(QuadChar, "values", None)  # no table may be built
        assert main(["classnum", "-D", str(-MAX_N - 1)]) == 2
        assert f"MAX_N={MAX_N}" in capsys.readouterr().err

    def test_verify(self, capsys, monkeypatch):
        import quadclass.verify as V
        from quadclass.discriminant import MAX_N

        def refuse(lo, hi):
            raise AssertionError("enumerated")

        monkeypatch.setattr(V, "fundamental_discriminants", refuse)
        assert main(["verify", "--from", str(-MAX_N - 1), "--to", "-5"]) == 2
        assert "MAX_N" in capsys.readouterr().err

    def test_base(self, capsys, monkeypatch):
        import quadclass.verify as V
        from quadclass.classnum import MAX_BASE
        from quadclass.discriminant import QuadChar

        def refuse(*args):
            raise AssertionError("counted or enumerated")

        monkeypatch.setattr(QuadChar, "ek_table", refuse)
        monkeypatch.setattr(V, "fundamental_discriminants", refuse)
        big = str(MAX_BASE + 1)
        for method in ("floor", "factored"):
            assert main(["classnum", "-D", "-7", "-B", big, "--method", method]) == 2
        assert main(["ek", "-D", "-7", "-B", big]) == 2
        assert main(["verify", "--from", "-8", "--to", "-7", "-B", "2", "-B", big]) == 2
        assert capsys.readouterr().err.count(f"MAX_BASE={MAX_BASE}") == 4

    def test_prime_base_refused_before_any_route(self, capsys, monkeypatch):
        import quadclass.verify as V
        from quadclass.classnum import MAX_BASE

        def refuse(*args):
            raise AssertionError("factored route ran")

        monkeypatch.setattr(V, "h_from_ek_factored", refuse)
        # 100003 > MAX_BASE is prime: factored's divisor scan would find no B1.
        assert main(["classnum", "-D", "-7", "-B", "100003", "--method", "factored"]) == 2
        assert f"MAX_BASE={MAX_BASE}" in capsys.readouterr().err

    def test_largest_base_accepted(self, capsys):
        from quadclass.classnum import MAX_BASE

        assert main(["classnum", "-D", "-7", "-B", str(MAX_BASE), "--method", "floor"]) == 0
        assert "h(-7) = 1" in capsys.readouterr().out

    def test_girstmair_and_expand(self, capsys):
        from quadclass.discriminant import MAX_N

        big = 10**40 + 3  # far past what trial division could test for primality
        assert main(["girstmair", str(big)]) == 2
        assert main(["expand", "-N", str(big), "-B", "10"]) == 2
        assert main(["expand", "-D", str(-MAX_N - 1), "-B", "10"]) == 2
        assert capsys.readouterr().err.count("MAX_N") == 3

    def test_period_limit(self, capsys, monkeypatch):
        import quadclass.expansion as E

        # 2 has order 1018 mod the prime 1019: the longest period it can have.
        monkeypatch.setattr(E, "MAX_PERIOD", 1017)
        assert main(["expand", "-N", "1019", "-B", "2"]) == 2
        assert main(["girstmair", "1019", "-B", "2"]) == 2
        assert capsys.readouterr().err.count("MAX_PERIOD=1017") == 2
        monkeypatch.setattr(E, "MAX_PERIOD", 1018)
        assert main(["expand", "-N", "1019", "-B", "2"]) == 0
        assert main(["girstmair", "1019", "-B", "2"]) == 0

    def test_girstmair_period_refused_before_walk(self, capsys, monkeypatch):
        import quadclass.classnum as classnum

        def refuse(disc, base):
            raise AssertionError("walked")

        monkeypatch.setattr(classnum, "h_theorem1", refuse)
        # 2000003 is a prime = 3 (mod 4) below MAX_N; its period 2000002 is not.
        assert main(["girstmair", "2000003"]) == 2
        assert "MAX_PERIOD=2000000" in capsys.readouterr().err

    def test_girstmair_composite_refused_as_not_prime(self, capsys):
        # 2000005 = 5 * 400001: its period is not p - 1, so no period limit applies.
        assert main(["girstmair", "2000005"]) == 2
        err = capsys.readouterr().err
        assert "need an odd prime, got 2000005" in err
        assert "MAX_PERIOD" not in err


def test_unknown_command():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_no_command():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
