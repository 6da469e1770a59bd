"""Per-layer spans for the traced run, taken from outside the library.

The tracer replaces a public function under the name its caller looks it up
by (`verify.h_theorem1`, `theorems.ek_table`, `QuadChar.values`, ...) with a
wrapper that times the call, and puts every original back on `restore()`.
Spans nest on a stack: a layer's self time is its span minus the spans of
the calls it made into other wrapped functions.  Spans are folded into
per-layer totals as they end rather than kept one by one, so memory stays
flat however many orbit walks a sweep makes.
"""

import time
from collections import Counter


class Tracer:
    def __init__(self):
        self.layers = {}  # layer -> [self seconds, calls]
        self.counts = Counter()  # work done inside layers: steps, terms, entries
        self.ek_keys = set()  # distinct (D, B) handed to ek_table
        self.item_s = []  # verify_discriminant span of every record
        self._stack = []  # one [child seconds] cell per open span
        self._saved = []

    def patch(self, owner, attr, new) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def wrap(self, owner, attr, layer, note=None) -> None:
        """Time every call of owner.attr as a span of `layer`.

        note(args, result, seconds) runs after a call that returned.
        """
        fn = getattr(owner, attr)
        stats = self.layers.setdefault(layer, [0.0, 0])
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            cell = [0.0]
            stack.append(cell)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = clock() - t0
                stack.pop()
                stats[0] += span - cell[0]
                stats[1] += 1
                if stack:
                    stack[-1][0] += span
            if note is not None:
                note(args, result, span)
            return result

        self.patch(owner, attr, traced)

    def restore(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def install(self) -> None:
        """Wrap the public entry points of every layer of quadclass."""
        from quadclass import classnum, discriminant, expansion, theorems, verify

        counts = self.counts

        def count_terms(args, result, span):
            counts["floor.terms"] += args[0].N - 1

        def count_steps(args, result, span):
            counts["expand.steps"] += len(result.digits)

        def note_ek(args, result, span):
            self.ek_keys.add((args[0].D, args[1]))

        def note_item(args, result, span):
            self.item_s.append(span)

        def note_render(args, result, span):
            counts["render.bytes"] += len(result.encode())

        values = discriminant.QuadChar.values

        def counted_values(char):
            # The table is built on the first call per QuadChar instance.
            if char._values is None:
                counts["char_table.builds"] += 1
                counts["char_table.entries"] += char.disc.N + 1
            return values(char)

        self.patch(discriminant.QuadChar, "values", counted_values)
        self.wrap(discriminant.QuadChar, "values", "discriminant.char_table")
        self.wrap(verify, "verify_discriminant", "verify.record", note_item)
        self.wrap(verify, "from_discriminant", "discriminant.enumerate")
        self.wrap(verify, "to_json", "verify.render", note_render)
        for owner in (verify, theorems, classnum):
            self.wrap(owner, "h_dirichlet", "classnum.dirichlet")
            self.wrap(owner, "ek_table", "classnum.ek_table", note_ek)
        self.wrap(verify, "h_theorem1", "classnum.cycle")
        self.wrap(verify, "h_floor_formula", "classnum.floor", count_terms)
        self.wrap(verify, "h_from_ek", "classnum.interval")
        self.wrap(verify, "h_from_ek_factored", "classnum.factored")
        for name in ("check_b2", "check_b4", "check_b6", "check_b12",
                     "check_s1_s2", "h_abs_sixth", "h_quarter_sum"):
            self.wrap(verify, name, "theorems.closed_forms")
        self.wrap(classnum, "h_cycle_contribution", "classnum.cycle.contribution")
        self.wrap(classnum, "all_cycles", "expansion.all_cycles")
        for owner in (expansion, classnum):
            self.wrap(owner, "expand", "expansion.expand", count_steps)
        self.wrap(expansion, "multiplicative_order", "arith.multiplicative_order")
        self.wrap(classnum, "h_girstmair", "classnum.girstmair")
        self.wrap(classnum, "least_primitive_root", "arith.primitive_root")

    def report(self) -> dict:
        """Layer totals, work counts and the library's cache statistics."""
        from quadclass import arith, classnum, discriminant

        caches = {}
        for name, fn in (("quad_char", discriminant.quad_char),
                         ("dirichlet", classnum.h_dirichlet),
                         ("multiplicative_order", arith.multiplicative_order)):
            info = fn.cache_info()
            caches[name] = {"hits": info.hits, "misses": info.misses,
                            "maxsize": info.maxsize, "currsize": info.currsize}
        return {
            "layers": self.layers,
            "counts": dict(self.counts),
            "ek_distinct": len(self.ek_keys),
            "item_s": self.item_s,
            "caches": caches,
        }
