"""The traced benchmark run (perfbench/spans.py) still sees every layer.

The tracer wraps library functions under the names their callers look them
up by, so a renamed function, or a caller that bypasses the name, leaves its
layer at zero calls without any error.  A small sweep and one girstmair
prime under the tracer must reach each layer and report each cache.
"""

import os

from quadclass import classnum, verify

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")

LAYERS = (
    "classnum.cycle",
    "classnum.floor",
    "classnum.interval",
    "classnum.factored",
    "classnum.ek_table",
    "theorems.closed_forms",
    "classnum.girstmair",
    "discriminant.char_table",
    "discriminant.enumerate",
    "verify.record",
    "arith.primitive_root",
)


def test_traced_run_reaches_every_layer(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import spans

    tracer = spans.Tracer()
    tracer.install()
    try:
        assert verify.verify_range(-40, -5).ok
        assert classnum.h_girstmair(43).h == 1
    finally:
        tracer.restore()
    report = tracer.report()
    for layer in LAYERS:
        assert report["layers"][layer][1] > 0, layer
    assert set(report["caches"]) == {"quad_char", "dirichlet", "multiplicative_order"}
