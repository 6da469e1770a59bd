"""Command line front end.

Subcommands:

    classnum    h(D) by every requested route, with an agreement verdict
    expand      one period of the base-B expansion of x/N
    ek          the subinterval character table E_k for one (D, B)
    girstmair   h(-p) from the expansion of 1/p at a primitive root base
    verify      sweep a discriminant range, cross-checking all routes

Exit status: 0 on success (and full agreement), 1 when any verification
check fails, 2 on invalid input.
"""

import argparse
import sys
from math import gcd

from .arith import euler_phi, least_primitive_root
from .classnum import ek_table, h_dirichlet, h_from_ek, h_girstmair
from .discriminant import check_size, from_discriminant, quad_char
from .errors import InternalError
from .expansion import expand, normalize_cycle
from .verify import DEFAULT_BASES, METHODS, routes, to_csv, to_json, to_text, verify_range


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadclass",
        description="Class numbers of imaginary quadratic fields, computed by "
        "several exact formulas and cross-verified.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("classnum", help="compute h(D) by several routes")
    c.add_argument("-D", "--discriminant", type=int, required=True,
                   help="fundamental discriminant < -4")
    c.add_argument("-B", "--base", type=int, action="append",
                   help="expansion base, repeatable (default: every base in 2..13 "
                   "coprime to |D|)")
    c.add_argument("--method", action="append", choices=METHODS,
                   help="restrict to these routes, repeatable (default: all)")
    c.set_defaults(func=cmd_classnum)

    e = sub.add_parser("expand", help="period of the base-B expansion of x/N")
    group = e.add_mutually_exclusive_group(required=True)
    group.add_argument("-D", "--discriminant", type=int,
                       help="fundamental discriminant; N = |D|, and the cycle "
                       "is also reported against chi_D")
    group.add_argument("-N", "--modulus", type=int, help="bare modulus N > 1")
    e.add_argument("-B", "--base", type=int, required=True)
    e.add_argument("-x", "--numerator", type=int, default=1)
    e.set_defaults(func=cmd_expand)

    k = sub.add_parser("ek", help="subinterval character totals E_k for (D, B)")
    k.add_argument("-D", "--discriminant", type=int, required=True)
    k.add_argument("-B", "--base", type=int, required=True)
    k.set_defaults(func=cmd_ek)

    g = sub.add_parser("girstmair", help="h(-p) from one expansion of 1/p")
    g.add_argument("p", type=int, help="prime p = 3 (mod 4), p > 3")
    g.add_argument("-B", "--base", type=int,
                   help="primitive root mod p (default: the least one)")
    g.set_defaults(func=cmd_girstmair)

    v = sub.add_parser("verify", help="cross-check a range of discriminants")
    v.add_argument("--from", dest="lo", type=int, required=True,
                   help="lower end of the range (most negative D)")
    v.add_argument("--to", dest="hi", type=int, required=True,
                   help="upper end of the range")
    v.add_argument("-B", "--base", type=int, action="append",
                   help="expansion base, repeatable (default: 2..13)")
    v.add_argument("--format", choices=("text", "csv", "json"), default="text")
    v.add_argument("--jobs", type=int, default=1,
                   help="worker processes (default 1, at most the CPU count)")
    v.set_defaults(func=cmd_verify)

    return parser


def cmd_classnum(args) -> int:
    disc = from_discriminant(args.discriminant)
    bases = args.base or [b for b in DEFAULT_BASES if gcd(b, disc.N) == 1]
    results = [r for _, _, r in routes(disc, bases, args.method or METHODS)]
    if not results:
        raise ValueError("no route applicable: factored needs a composite base")

    print(disc)
    for r in results:
        print(f"  {r.method:<24} raw sum {r.raw_sum:>10}  h = {r.h}")
    values = {r.h for r in results}
    if len(values) == 1:
        print(f"agreement: ok ({len(results)} results)  h({disc.D}) = {results[0].h}")
        return 0
    print(f"agreement: MISMATCH, values {sorted(values)}")
    return 1


def cmd_expand(args) -> int:
    disc = None
    if args.discriminant is not None:
        disc = from_discriminant(args.discriminant)
        n = disc.N
    else:
        n = args.modulus  # expand refuses n above MAX_N before any work
    period = expand(args.numerator, args.base, n)
    cycles = euler_phi(n) // period.e
    print(f"{period.x1}/{n} in base {args.base}: period e = {period.e}, "
          f"{cycles} cycle(s) partition the residues coprime to {n}")
    print(f"digits: {period}")
    print(f"cycle:  ({', '.join(map(str, period.cycle))})")
    if disc is not None:
        char = quad_char(disc)
        s = char.eval(args.base)
        if s == -1:
            norm = normalize_cycle(period, char)
            print(f"chi({args.base}) = -1; normalized at x1 = {norm.x1}: {norm}")
        else:
            print(f"chi({args.base}) = +1; constant cycle character "
                  f"chi(C) = {char.eval(period.x1):+d}")
    return 0


def cmd_ek(args) -> int:
    disc = from_discriminant(args.discriminant)
    table = ek_table(disc, args.base)
    s = quad_char(disc).eval(args.base)
    print(f"{disc}, base {args.base}, chi({args.base}) = {s:+d}")
    print(f"  {'k':>2}  {'interval':<22} {'#chi=+1':>8} {'#chi=-1':>8} {'E_k':>5}")
    bounds = table.boundaries  # B + 1 Fractions, built on each read
    for k, entry in enumerate(table.entries):
        interval = f"({bounds[k]}, {bounds[k + 1]})"
        print(f"  {k:>2}  {interval:<22} {table.pos_counts[k]:>8} "
              f"{table.neg_counts[k]:>8} {entry:>5}")
    r = h_from_ek(disc, args.base)
    print(f"weighted half-table sum = {r.raw_sum} = (B - chi(B)) h  ->  h = {r.h}")
    return 0


def cmd_girstmair(args) -> int:
    # expand refuses a period above MAX_PERIOD before h_girstmair walks the orbit.
    check_size(args.p)
    root = least_primitive_root(args.p)  # refuses p that is not an odd prime
    base = args.base if args.base is not None else root
    period = expand(1, base, args.p)
    result = h_girstmair(args.p, args.base)
    print(f"p = {args.p}, D = {-args.p}, base {base} (primitive root), "
          f"period e = {period.e}")
    print(f"1/{args.p} = {period}")
    print(f"alternating digit sum = {result.raw_sum} = (B + 1) h  ->  h = {result.h}")
    reference = h_dirichlet(result.disc)
    verdict = "agree" if reference.h == result.h else "MISMATCH"
    print(f"character sum route: h = {reference.h}  [{verdict}]")
    return 0 if reference.h == result.h else 1


def cmd_verify(args) -> int:
    bases = tuple(args.base) if args.base else DEFAULT_BASES
    report = verify_range(args.lo, args.hi, bases, jobs=args.jobs)
    render = {"text": to_text, "csv": to_csv, "json": to_json}[args.format]
    print(render(report), end="")
    return 0 if report.ok else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
