"""One slice of one workload, in a fresh interpreter.

quadclass keeps quad_char, h_dirichlet and multiplicative_order cached for
the life of a process, and a user of the CLI pays to fill them on every run,
so every slice starts a new interpreter.  Prints one JSON line:

    ready     CLOCK_MONOTONIC after interpreter start, import and inputs
    wall_s    the timed call: verify_range + to_json, or the girstmair loop
    cpu_s     user + sys of this process and its pool workers in that call
    ref_s     median time of reference_loop, sampled just before and just
              after that call with as many processes busy as the call keeps
              busy: how fast the host runs at the moment
    rss_kb    peak RSS of this process and its pool workers
    items     [key, h, passed] per discriminant or prime
    digest    sha256 of the rendered report less elapsed_seconds, or of the
              girstmair rows
    error     traceback of an exception raised by the timed call, or null
    trace     per-layer totals when run with --trace

Run by perfbench/run.py; `--probe` stops after set-up and prints only
ready and ref_s.
"""

import argparse
import json
import multiprocessing
import os
import pickle
import resource
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402  (perfbench/ is sys.path[0])


def cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def reference_loop() -> int:
    """Fixed work in the style of the orbit walk, sharing no code with quadclass."""
    pairs = []
    for i in range(20_000):
        pairs.append(divmod(i * 7919, 1009))
    return sum(q - r for q, r in pairs)


def spin(ready, stop) -> None:
    ready.set()
    while not stop.is_set():
        reference_loop()


def reference_seconds(jobs: int, samples: int = 40) -> list:
    """Times of reference_loop while `jobs` processes are busy, as in the call."""
    ctx = multiprocessing.get_context("spawn")
    stop = ctx.Event()
    readies = [ctx.Event() for _ in range(jobs - 1)]
    helpers = [ctx.Process(target=spin, args=(ready, stop)) for ready in readies]
    try:
        for helper in helpers:
            helper.start()
        for ready in readies:
            if not ready.wait(60):
                raise RuntimeError("a reference helper process did not start")
        times = []
        for _ in range(samples):
            t0 = time.perf_counter()
            reference_loop()
            times.append(time.perf_counter() - t0)
        return times
    finally:
        stop.set()
        for helper in helpers:
            helper.join()


def run_verify(lo, hi, jobs):
    from quadclass import verify

    report = verify.verify_range(lo, hi, workloads.BASES, jobs=jobs)
    return report, verify.to_json(report)


def run_girstmair(primes):
    # What `quadclass girstmair p` computes, for every p in the slice.
    from quadclass import classnum

    rows = []
    for p in primes:
        try:
            g = classnum.h_girstmair(p)
            rows.append([p, g.method, g.h, g.raw_sum, classnum.h_dirichlet(g.disc).h])
        except Exception as exc:
            rows.append([p, type(exc).__name__, None, None, None])
    return rows


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--slice", type=int, default=0)
    ap.add_argument("--jobs", type=int, help="override the workload's jobs")
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args()

    import quadclass

    if not quadclass.__file__.startswith(os.path.join(ROOT, "src")):
        sys.exit(f"imported quadclass from {quadclass.__file__}, not from this checkout")
    spec = workloads.make_spec(args.workload, args.seed, args.tiny)
    jobs = args.jobs or spec.jobs
    primes = spec.keys(args.slice) if spec.kind == "girstmair" else None
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    out = {"ready": ready}
    if args.probe:
        out["ref_s"] = statistics.median(reference_seconds(1, samples=10))
        print(json.dumps(out))
        return

    ref = reference_seconds(jobs)
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    error = report = rendered = rows = None
    cpu0 = cpu_seconds()
    t0 = time.perf_counter()
    try:
        if primes is None:
            report, rendered = run_verify(*spec.slices[args.slice], jobs)
        else:
            rows = run_girstmair(primes)
    except Exception:
        error = traceback.format_exc()
    finally:
        wall = time.perf_counter() - t0
        cpu = cpu_seconds() - cpu0
        if tracer is not None:
            tracer.restore()
    ref += reference_seconds(jobs)

    rss_kb = max(resource.getrusage(who).ru_maxrss
                 for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    out.update(wall_s=wall, cpu_s=cpu, ref_s=statistics.median(ref), rss_kb=rss_kb,
               error=error, items=[], digest=None)
    if rendered is not None:
        payload = json.loads(rendered)
        del payload["summary"]["elapsed_seconds"]
        out["digest"] = workloads.digest(payload)
        out["items"] = [[r["D"], r["h"], r["passed"]] for r in payload["records"]]
        if jobs > 1:
            out["pickled_bytes"] = sum(len(pickle.dumps(r)) for r in report.records)
    elif rows is not None:
        out["digest"] = workloads.digest(rows)
        out["items"] = [[p, hg, hg is not None and hg == hd] for p, _, hg, _, hd in rows]
    if tracer is not None:
        out["trace"] = tracer.report()
    print(json.dumps(out))


if __name__ == "__main__":
    main()
