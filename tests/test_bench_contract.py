"""The benchmark tracer's view of lipctx: every wrapped name still exists.

``bench/tracer.py`` wraps lipctx functions and methods by name and binds
some of their arguments by name to count work. A renamed or deleted
function, or a renamed argument, would only show as an AttributeError
or a TypeError in a traced benchmark run; these tests catch it first.
"""
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

import lipctx
from lipctx.layers import AttentionLayer
from lipctx.measure import DomainBall, new_empirical

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()

#: Argument names each work counter reads from the bound call.
COUNTED_ARGS = {
    "w1_exact": ("mu", "nu"),
    "attn_apply_batch": ("layer", "mu", "queries"),
}


def module_of(name):
    return importlib.import_module("lipctx." + name)


@pytest.mark.parametrize("span, mod, attr, work", tracer.FUNCTIONS,
                         ids=[f"{f[1]}.{f[2]}" for f in tracer.FUNCTIONS])
def test_traced_function_exists(span, mod, attr, work):
    fn = getattr(module_of(mod), attr)
    assert callable(fn)
    if work is not None:
        params = inspect.signature(fn).parameters
        for arg in COUNTED_ARGS[attr]:
            assert arg in params, f"{mod}.{attr} lost argument {arg!r}"


@pytest.mark.parametrize("span, mod, cls, attr", tracer.METHODS,
                         ids=[f"{m[2]}.{m[3]}" for m in tracer.METHODS])
def test_traced_method_exists(span, mod, cls, attr):
    assert callable(getattr(module_of(mod), cls).__dict__[attr])


def test_every_work_counter_is_pinned():
    counted = {attr for _, _, attr, work in tracer.FUNCTIONS if work is not None}
    assert counted == set(COUNTED_ARGS)


def test_work_counters_bind_real_calls():
    # Bind a real call the way the tracer does and count its work.
    mu = new_empirical([[0.0, 0.1], [0.2, -0.1], [0.1, 0.1]])
    nu = new_empirical([[0.3, 0.0]])
    layer = AttentionLayer(np.eye(2), 0.1, DomainBall(np.zeros(2), 1.0))
    queries = np.zeros((4, 2))
    calls = {
        "w1_exact": (mu, nu),
        "attn_apply_batch": (layer, mu, queries),
    }
    want = {"w1_exact": 3, "attn_apply_batch": 3 * 4 * 2}
    for _, mod, attr, work in tracer.FUNCTIONS:
        if work is None:
            continue
        fn = getattr(module_of(mod), attr)
        bound = inspect.signature(fn).bind(*calls[attr]).arguments
        assert work(bound) == want[attr]
        fn(*calls[attr])


def test_tracer_installs_and_restores():
    t = tracer.Tracer()
    before = lipctx.layers.attn_apply_batch
    try:
        t.install()
        assert lipctx.layers.attn_apply_batch is not before
    finally:
        t.uninstall()
    assert lipctx.layers.attn_apply_batch is before
