"""The benchmark's ``rsw_fit`` ops keep the critic work they were chosen for.

``bench/workloads.py`` keeps the corpus entries whose fits train 1600-1650
critic steps in all, so that every op costs about the same. This pins
that count: a faster ``rsw_fit`` run must come from cheaper steps, not
from fewer of them. It also pins the fitted models' declared domains:
every attention layer's radius is at most 100. And it pins the memory of
``certify_sweep``'s largest op, the one whose peak the benchmark gates:
under 2 MB under ``tracemalloc``; and the memory of ``rsw_fit``'s largest
op, whose models' attention layers store only the box around their
matrices' nonzeros: under 0.5 MB.

It also pins, as a strict expected failure, the premise of the repeat
check in ``bench/run.py`` that ``certify_sweep`` does not meet yet; the
change to the benchmark that meets it removes the marker.
"""
import importlib.util
import tracemalloc
from pathlib import Path

import pytest

from lipctx import critic

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def rsw_fit():
    return load_workloads().RswFit(0)


@pytest.mark.parametrize("op", [0, 1, 2])
def test_rsw_fit_op_trains_1600_to_1650_steps(rsw_fit, op, monkeypatch):
    # One step is one evaluation of the training objective, counting the
    # initial iterate of each of the op's three critics.
    steps = []
    objective = critic._objective

    def counted(*args):
        steps.append(1)
        return objective(*args)

    monkeypatch.setattr(critic, "_objective", counted)
    out = rsw_fit.op(op)
    assert rsw_fit.check(op, out) == []
    assert 1600 <= len(steps) <= 1650
    assert all(attn.domain.radius <= 100 for attn, _ in out[0].blocks)


def test_certify_sweep_largest_op_peaks_under_2_mb():
    sweep = load_workloads().CertifySweep(0)
    tracemalloc.start()
    try:
        report = sweep.op(0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sweep.check(0, report) == []
    assert peak < 2e6


def test_rsw_fit_largest_op_peaks_under_half_a_mb():
    fit = load_workloads().RswFit(0)
    tracemalloc.start()
    try:
        out = fit.op(0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fit.check(0, out) == []
    assert peak < 0.5e6


@pytest.mark.xfail(
    strict=True,
    reason="certify_sweep keys repeated inputs by i % POOL, but op i runs shape i % 5",
)
def test_certify_sweep_pool_is_a_multiple_of_the_shapes():
    # ``Tally.record`` compares each op with the earlier op of the same
    # index modulo POOL; that op runs the same model only if POOL is a
    # multiple of the number of shapes.
    sweep = load_workloads().CertifySweep
    assert sweep.POOL % len(sweep.SHAPES) == 0
