"""quadclass benchmark: the four ROADMAP workloads, timed from outside the package.

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 28 --trace 0
    python3 perfbench/run.py --all [--trace 1]      # every workload in turn
    python3 perfbench/run.py --self-test            # tiny sizes, gate and names

Workloads (see workloads.py for the inputs each seed gives):

    sweep      verify every fundamental D in -5000..-5, bases 2..13, jobs=1,
               rendered as JSON: acceptance criterion 6
    sweep-par  the same with jobs=2: the only path through the process pool
    large-d    verify one prime D near -300000 alone: the largest tables
    girstmair  h_girstmair(p) at the least primitive root, checked against
               h_dirichlet, for every prime p = 3 (mod 4) below 8000

A workload is cut into slices of a few seconds, and every slice runs in a
fresh interpreter (child.py), as a CLI user's run does.  One pass runs every
slice once; a run repeats passes until --seconds have passed (at least one)
and reports medians over passes, with times scaled to the host's quiet
speed (see measure()).  Every item's h is checked against a reduced-form
count (workloads.py) outside the timed calls, and at seed 0 the rendered
reports must match a pinned digest.

--trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
metrics of a traced run (spans.py) and a table of where the time went.  The
last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}
"""

import argparse
import copy
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCE = os.path.join(ROOT, "src", "quadclass")
TIME_LIMIT_S = 170  # a run must end within 180 s
SETUP_PROBES = 4  # before the passes and again after them
# child.reference_loop on this benchmark's home host when it is quiet:
# 2-core Intel Xeon at 2.0 GHz, CPython 3.11.
REFERENCE_S = 0.0040

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "pass_frac": "ratio",
}

PER_LAYER = {
    "discriminant.enumerate.self_s": "s",
    "discriminant.enumerate.calls": "count",
    "discriminant.char_table.self_s": "s",
    "discriminant.char_table.builds": "count",
    "discriminant.char_table.entries": "count",
    "discriminant.char_table.ns_per_entry": "ns",
    "discriminant.quad_char.hit_ratio": "ratio",
    "discriminant.quad_char.misses": "count",
    "classnum.dirichlet.self_s": "s",
    "classnum.dirichlet.hit_ratio": "ratio",
    "classnum.dirichlet.misses": "count",
    "classnum.cycle.self_s": "s",
    "classnum.cycle.contribution_s": "s",
    "classnum.cycle.cycles": "count",
    "expansion.all_cycles.self_s": "s",
    "expansion.expand.self_s": "s",
    "expansion.expand.calls": "count",
    "expansion.orbit_steps": "count",
    "expansion.ns_per_step": "ns",
    "arith.multiplicative_order.self_s": "s",
    "arith.order_cache.entries": "count",
    "arith.order_cache.hit_ratio": "ratio",
    "classnum.floor.self_s": "s",
    "classnum.floor.terms": "count",
    "classnum.floor.ns_per_term": "ns",
    "classnum.ek_table.self_s": "s",
    "classnum.ek_table.calls": "count",
    "classnum.ek_table.distinct_ratio": "ratio",
    "classnum.interval.self_s": "s",
    "classnum.factored.self_s": "s",
    "theorems.closed_forms.self_s": "s",
    "theorems.closed_forms.checks": "count",
    "classnum.girstmair.self_s": "s",
    "arith.primitive_root.self_s": "s",
    "verify.record.self_s": "s",
    "verify.item_p50_ms": "ms",
    "verify.item_p99_ms": "ms",
    "verify.item_samples": "count",
    "verify.render.self_s": "s",
    "verify.render.bytes": "bytes",
    "verify.pool.speedup": "ratio",
    "verify.pool.efficiency": "ratio",
    "verify.pool.bytes_returned": "bytes",
    "trace.coverage": "ratio",
    "trace.overhead_frac": "ratio",
}


class BenchError(Exception):
    """The benchmark could not measure: a child crashed or ran out of time."""


class Runner:
    """Starts the fresh interpreters of one run, all within one time limit."""

    def __init__(self, spec):
        self.spec = spec
        self.deadline = time.monotonic() + TIME_LIMIT_S

    def spawn(self, part=0, trace=False, jobs=None, probe=False) -> dict:
        cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload",
               self.spec.name, "--seed", str(self.spec.seed), "--slice", str(part)]
        cmd += ["--tiny"] * self.spec.tiny + ["--trace"] * trace + ["--probe"] * probe
        if jobs is not None:
            cmd += ["--jobs", str(jobs)]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError(f"out of time after {TIME_LIMIT_S} s")
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        # A session of its own, so a timeout also stops the pool workers.
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, start_new_session=True)
        try:
            out, err = proc.communicate(timeout=remaining)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"{self.spec.name} did not finish within {TIME_LIMIT_S} s")
        if proc.returncode != 0 or not out.strip():
            raise BenchError(f"child exited with {proc.returncode}:\n{err.strip()}")
        result = json.loads(out.strip().splitlines()[-1])
        result["setup_s"] = result["ready"] - start
        return result

    def setup_times(self) -> list:
        """Set-up times of interpreters that stop there, at the host's quiet speed."""
        probes = [self.spawn(probe=True) for _ in range(SETUP_PROBES)]
        return [p["setup_s"] * REFERENCE_S / p["ref_s"] for p in probes]

    def run_pass(self, trace=False, jobs=None) -> dict:
        """Every slice once, merged into one result for the whole workload."""
        parts = [self.spawn(i, trace, jobs) for i in range(len(self.spec.slices))]
        errors = [p["error"] for p in parts if p["error"]]
        return {
            "wall_s": sum(p["wall_s"] for p in parts),
            "cpu_s": sum(p["cpu_s"] for p in parts),
            "scaled_wall_s": sum(p["wall_s"] * REFERENCE_S / p["ref_s"] for p in parts),
            "scaled_cpu_s": sum(p["cpu_s"] * REFERENCE_S / p["ref_s"] for p in parts),
            "ref_s": [p["ref_s"] for p in parts],
            "rss_kb": max(p["rss_kb"] for p in parts),
            "error": errors[0] if errors else None,
            "items": [item for p in parts for item in p["items"]],
            "digest": workloads.digest([p["digest"] for p in parts]),
            "pickled_bytes": sum(p.get("pickled_bytes", 0) for p in parts),
            "traces": [p["trace"] for p in parts if "trace" in p],
        }


def repeat(seconds: float, step) -> int:
    """Call step() until `seconds` have passed or one more call would pass them."""
    t0 = time.monotonic()
    n = 0
    while True:
        step()
        n += 1
        if (time.monotonic() - t0) * (n + 1) / n > seconds:
            return n


class Gate:
    """Grades every pass of a run against the oracle."""

    def __init__(self, spec):
        self.truth = workloads.expected(spec)
        self.pinned = pinned_digest(spec) if spec.pinned else None
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def check(self, result: dict) -> dict:
        failures = workloads.grade(result, self.truth, self.pinned)
        self.attempted += len(self.truth)
        self.failed += min(len(failures), len(self.truth))
        self.failures += failures
        return result

    def verdict(self, metrics: dict) -> dict:
        return {"correct": self.failed == 0, "attempted": self.attempted,
                "failed": self.failed, "metrics": metrics}


def pinned_digest(spec) -> str:
    with open(os.path.join(HERE, "pinned.json")) as f:
        return json.load(f)[spec.name]


def tagged(values: dict, units: dict) -> dict:
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def measure(spec, seconds: float) -> tuple:
    """Untraced run: the end-to-end metrics, as medians over passes.

    The host this was built on runs the same work up to 1.6 times slower
    while its neighbours are busy, for minutes at a time.  So each child
    also times a fixed loop (child.reference_loop) just before and just
    after its timed call, and each slice's time is scaled by REFERENCE_S
    over that loop's time: the seconds the slice takes at the host's quiet
    speed.  A change to quadclass moves the scaled time as it moves the raw
    one, while the neighbours' load mostly cancels, provided the call is
    short enough that the host's speed holds through it; hence the slices.
    Set-up time is scaled the same way, from interpreters that stop after
    set-up.  Raw times are printed per pass.
    """
    runner = Runner(spec)
    gate = Gate(spec)
    runner.spawn(probe=True)  # unrecorded: writes the bytecode caches
    setups = runner.setup_times()
    passes = []
    repeat(seconds, lambda: passes.append(gate.check(runner.run_pass())))
    setups += runner.setup_times()
    for i, p in enumerate(passes, 1):
        print(f"pass {i}: raw wall {p['wall_s']:.4f} s, raw cpu {p['cpu_s']:.4f} s, "
              f"scaled wall {p['scaled_wall_s']:.4f} s, rss {p['rss_kb'] / 1024:.1f} MB, "
              f"host at {REFERENCE_S / statistics.median(p['ref_s']):.0%} of its quiet speed")
    wall = statistics.median(p["scaled_wall_s"] for p in passes)
    values = {
        "wall_s": wall,
        "cpu_s": statistics.median(p["scaled_cpu_s"] for p in passes),
        "items_per_s": len(gate.truth) / wall,
        "peak_rss_mb": statistics.median(p["rss_kb"] / 1024 for p in passes),
        "setup_s": statistics.median(setups),
        "pass_frac": 1 - gate.failed / gate.attempted,
    }
    print(f"fail_frac {gate.failed / gate.attempted} ratio "
          f"({gate.failed} of {gate.attempted} items in {len(passes)} passes)")
    return gate, tagged(values, END_TO_END)


def nearest_rank(sorted_values: list, q: float) -> float:
    if not sorted_values:
        return 0.0
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def layer_metrics(trace: dict, wall: float) -> dict:
    """The per-layer metrics of one traced repetition."""
    layers, counts, caches = trace["layers"], trace["counts"], trace["caches"]

    def self_s(layer):
        return layers[layer][0]

    def calls(layer):
        return layers[layer][1]

    def ratio(num, den):
        return num / den if den else 0.0

    def hit_ratio(cache):
        return ratio(caches[cache]["hits"], caches[cache]["hits"] + caches[cache]["misses"])

    items = sorted(trace["item_s"])
    entries = counts.get("char_table.entries", 0)
    steps = counts.get("expand.steps", 0)
    terms = counts.get("floor.terms", 0)
    return {
        "discriminant.enumerate.self_s": self_s("discriminant.enumerate"),
        "discriminant.enumerate.calls": calls("discriminant.enumerate"),
        "discriminant.char_table.self_s": self_s("discriminant.char_table"),
        "discriminant.char_table.builds": counts.get("char_table.builds", 0),
        "discriminant.char_table.entries": entries,
        "discriminant.char_table.ns_per_entry":
            ratio(1e9 * self_s("discriminant.char_table"), entries),
        "discriminant.quad_char.hit_ratio": hit_ratio("quad_char"),
        "discriminant.quad_char.misses": caches["quad_char"]["misses"],
        "classnum.dirichlet.self_s": self_s("classnum.dirichlet"),
        "classnum.dirichlet.hit_ratio": hit_ratio("dirichlet"),
        "classnum.dirichlet.misses": caches["dirichlet"]["misses"],
        "classnum.cycle.self_s": self_s("classnum.cycle"),
        "classnum.cycle.contribution_s": self_s("classnum.cycle.contribution"),
        "classnum.cycle.cycles": calls("classnum.cycle.contribution"),
        "expansion.all_cycles.self_s": self_s("expansion.all_cycles"),
        "expansion.expand.self_s": self_s("expansion.expand"),
        "expansion.expand.calls": calls("expansion.expand"),
        "expansion.orbit_steps": steps,
        "expansion.ns_per_step": ratio(1e9 * self_s("expansion.expand"), steps),
        "arith.multiplicative_order.self_s": self_s("arith.multiplicative_order"),
        "arith.order_cache.entries": caches["multiplicative_order"]["currsize"],
        "arith.order_cache.hit_ratio": hit_ratio("multiplicative_order"),
        "classnum.floor.self_s": self_s("classnum.floor"),
        "classnum.floor.terms": terms,
        "classnum.floor.ns_per_term": ratio(1e9 * self_s("classnum.floor"), terms),
        "classnum.ek_table.self_s": self_s("classnum.ek_table"),
        "classnum.ek_table.calls": calls("classnum.ek_table"),
        "classnum.ek_table.distinct_ratio":
            ratio(trace["ek_distinct"], calls("classnum.ek_table")),
        "classnum.interval.self_s": self_s("classnum.interval"),
        "classnum.factored.self_s": self_s("classnum.factored"),
        "theorems.closed_forms.self_s": self_s("theorems.closed_forms"),
        "theorems.closed_forms.checks": calls("theorems.closed_forms"),
        "classnum.girstmair.self_s": self_s("classnum.girstmair"),
        "arith.primitive_root.self_s": self_s("arith.primitive_root"),
        "verify.record.self_s": self_s("verify.record"),
        "verify.item_p50_ms": 1e3 * nearest_rank(items, 0.50),
        "verify.item_p99_ms": 1e3 * nearest_rank(items, 0.99),
        "verify.item_samples": len(items),
        "verify.render.self_s": self_s("verify.render"),
        "verify.render.bytes": counts.get("render.bytes", 0),
        "trace.coverage": ratio(sum(s for s, _ in layers.values()), wall),
    }


def merge_traces(traces: list) -> dict:
    """One trace for a whole pass; the slices' inputs do not overlap, so they add."""
    merged = {"layers": {}, "counts": {}, "ek_distinct": 0, "item_s": [], "caches": {}}
    for t in traces:
        for layer, (self_s, calls) in t["layers"].items():
            cell = merged["layers"].setdefault(layer, [0.0, 0])
            cell[0] += self_s
            cell[1] += calls
        for name, n in t["counts"].items():
            merged["counts"][name] = merged["counts"].get(name, 0) + n
        merged["ek_distinct"] += t["ek_distinct"]
        merged["item_s"] += t["item_s"]
        for name, info in t["caches"].items():
            cell = merged["caches"].setdefault(name, dict.fromkeys(info, 0))
            for key in ("hits", "misses", "currsize"):
                cell[key] += info[key]
            cell["maxsize"] = info["maxsize"]
    return merged


def measure_traced(spec, seconds: float) -> tuple:
    """Traced passes at jobs=1 against untraced passes of the same inputs.

    Each round runs a pass untraced and one traced; sweep-par also runs one
    untraced at jobs=1, which gives the pool's speed-up.
    """
    runner = Runner(spec)
    gate = Gate(spec)
    plain, serial, traced = [], [], []

    def one_round():
        plain.append(gate.check(runner.run_pass()))
        if spec.jobs > 1:
            serial.append(gate.check(runner.run_pass(jobs=1)))
        traced.append(gate.check(runner.run_pass(trace=True, jobs=1)))

    repeat(seconds, one_round)
    serial = serial or plain
    merged = [merge_traces(p["traces"]) for p in traced]
    per_pass = [layer_metrics(t, p["wall_s"]) for t, p in zip(merged, traced)]
    values = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}

    # Ratios of passes in the same round, at the host's quiet speed.
    def paired(num, den):
        return statistics.median(a["scaled_wall_s"] / b["scaled_wall_s"]
                                 for a, b in zip(num, den))

    values["trace.overhead_frac"] = paired(traced, serial) - 1
    pooled = spec.jobs > 1
    speedup = paired(serial, plain) if pooled else 0.0
    values["verify.pool.speedup"] = speedup
    values["verify.pool.efficiency"] = speedup / spec.jobs
    values["verify.pool.bytes_returned"] = plain[0]["pickled_bytes"]
    mid = len(traced) // 2
    print_trace_table(spec, merged[mid], traced[mid]["wall_s"], serial[mid]["wall_s"], values)
    return gate, tagged(values, PER_LAYER)


def print_trace_table(spec, trace: dict, wall: float, wall_untraced: float,
                      values: dict) -> None:
    print(f"where the time went: {spec.name}, traced at jobs=1, by self time")
    print(f"  {'layer':<30} {'self_s':>10} {'share':>7} {'calls':>10}")
    rows = sorted(trace["layers"].items(), key=lambda kv: -kv[1][0])
    for layer, (self_s, calls) in rows:
        if calls:
            print(f"  {layer:<30} {self_s:>10.4f} {self_s / wall:>7.1%} {calls:>10}")
    rest = wall - sum(s for s, _ in trace["layers"].values())
    print(f"  {'(not in any layer)':<30} {rest:>10.4f} {rest / wall:>7.1%}")
    print(f"  traced wall {wall:.4f} s, untraced {wall_untraced:.4f} s (raw): "
          f"trace.coverage {values['trace.coverage']:.4f}, "
          f"trace.overhead_frac {values['trace.overhead_frac']:.4f}")
    for name, info in trace["caches"].items():
        print(f"  cache {name}: hits {info['hits']}, misses {info['misses']}, "
              f"entries {info['currsize']} (maxsize {info['maxsize']}), "
              f"summed over {len(spec.slices)} slice(s)")
    print(f"  verify items sampled: {values['verify.item_samples']}")


def environment(seed: int) -> dict:
    """What every number is measured on, as ROADMAP.md asks."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    source = hashlib.sha256()
    for name in sorted(os.listdir(SOURCE)):
        if name.endswith(".py"):
            with open(os.path.join(SOURCE, name), "rb") as f:
                source.update(name.encode() + b"\0" + f.read())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu": cpu,
        "commit": git_commit(),
        "source_sha256": source.hexdigest(),
        "seed": seed,
    }


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, else None."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as f:
                return f.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as f:
                return next((line.split()[0] for line in f
                             if line.rstrip().endswith(" " + ref)), None)
    except OSError:
        return None


def run_one(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    spec = workloads.make_spec(name, seed, tiny)
    print(f"workload {name}: {spec.describe()}; seed {seed}, {seconds} s, trace {int(trace)}")
    print("env " + json.dumps(environment(seed)))
    gate, metrics = (measure_traced if trace else measure)(spec, seconds)
    for failure in gate.failures[:20]:
        print(f"FAILED {failure}")
    for metric, m in metrics.items():
        print(f"{metric:<40} {m['value']:.6g} {m['unit']}")
    return gate.verdict(metrics)


def self_test() -> list:
    """Tiny runs of every workload, then the gate on corrupted results."""
    problems = []
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        registry = json.load(f)
    for key, units in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        registered = {m["name"]: m["unit"] for m in registry[key]}
        if registered != units:
            problems.append(f"{key} in BENCHMARK.json differs from the metrics run.py makes")
    wanted = [set(END_TO_END), set(PER_LAYER)]
    for name in workloads.WORKLOADS:
        for trace in (False, True):
            result = run_one(name, workloads.DEFAULT_SEED, 0.5, trace, tiny=True)
            if set(result["metrics"]) != wanted[trace]:
                problems.append(f"{name} trace={int(trace)}: printed metrics differ")
            if not result["correct"]:
                problems.append(f"{name} trace={int(trace)}: correct run failed the gate")

    for name in ("sweep", "girstmair"):
        spec = workloads.make_spec(name, workloads.DEFAULT_SEED, tiny=True)
        truth = workloads.expected(spec)
        good = Runner(spec).run_pass()
        cases = {"good": (good, None)}
        wrong_h, fail_record = copy.deepcopy(good), copy.deepcopy(good)
        wrong_h["items"][-1][1] += 1
        fail_record["items"][-1][2] = False
        cases["wrong h"] = (wrong_h, None)
        cases["FAIL record"] = (fail_record, None)
        cases["digest mismatch"] = (good, "0" * 64)
        cases["exception"] = (dict(good, items=[], error="Traceback\nKeyError: 7"), None)
        for label, (result, pin) in cases.items():
            failures = workloads.grade(result, truth, pin)
            if bool(failures) == (label == "good"):
                problems.append(f"{name}: gate {'rejects' if failures else 'passes'} {label}")
    return problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--all", action="store_true", help="run every workload in turn")
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=28)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SOURCE, "__init__.py")):
        print(f"no quadclass source at {SOURCE}", file=sys.stderr)
        return 2
    try:
        if args.self_test:
            problems = self_test()
            for p in problems:
                print(f"SELF-TEST FAILED: {p}")
            print("self-test " + ("failed" if problems else "ok"))
            return 1 if problems else 0
        if args.all == bool(args.workload):
            ap.error("give exactly one of --workload and --all")
        names = workloads.WORKLOADS if args.all else [args.workload]
        for name in names:
            print(json.dumps(run_one(name, args.seed, args.seconds, bool(args.trace))))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
