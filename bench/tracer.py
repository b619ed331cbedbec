"""Span tracer for the benchmark's traced run.

The tracer wraps lipctx's public functions from outside the package. A
``from .layers import spectral_norm`` copies the binding into the
importing module, so every wrapper is rebound in each lipctx module that
holds the original function. ``EmpiricalMeasure.__post_init__`` and
``Lifting.apply_batch`` are wrapped on their classes. ``tree_sum`` is
deliberately not wrapped: it runs too often for a span per call.

Each span records its name, start, end, parent span and the benchmark op
it belongs to. Spans stay in memory and are written out when the run
ends. A layer's self time is its span time minus the time of its child
spans; the op root span's self time is the unattributed remainder, so
all self times together sum to the traced op time.

The tracer assumes one thread (the benchmark unsets ``LIPCTX_THREADS``).
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
import time
import tracemalloc

import numpy as np

#: Name of the root span the benchmark opens around each unit op.
OP = "bench.op"


def _cells(a):
    return a["mu"].n_atoms * a["nu"].n_atoms


def _terms(a):
    layer, queries = a["layer"], a["queries"]
    if layer.is_identity:
        return 0
    rows = 1 if np.ndim(queries) == 1 else np.shape(queries)[0]
    return a["mu"].n_atoms * rows * layer.dim


# (span name, module, function, work count from the bound arguments, or None)
FUNCTIONS = (
    ("measure.w1_exact", "measure", "w1_exact", _cells),
    ("layers.spectral_norm", "layers", "spectral_norm", None),
    ("layers.attn_apply_batch", "layers", "attn_apply_batch", _terms),
    ("layers.mlp_forward_batch", "layers", "mlp_forward_batch", None),
    ("transformer.forward", "transformer", "evaluate", None),
    ("transformer.forward", "transformer", "evaluate_batch", None),
    ("transformer.forward", "transformer", "forward_tokens", None),
    ("transformer.is_clamped", "transformer", "is_clamped", None),
    ("critic.train_critic", "critic", "train_critic", None),
    ("critic.critic_grads", "critic", "critic_grads", None),
    ("critic.project_params", "critic", "project_params", None),
    ("critic.kr_objective", "critic", "kr_objective", None),
    ("constructions.separator", "constructions", "separator", None),
    ("constructions.lattice_combine", "constructions", "lattice_combine", None),
    ("constructions.rsw_interpolate", "constructions", "rsw_interpolate", None),
    ("certify.certify_model", "certify", "certify_model", None),
    ("certify.empirical_query_lipschitz", "certify", "empirical_query_lipschitz", None),
    ("certify.empirical_context_lipschitz", "certify", "empirical_context_lipschitz", None),
    ("certify.fd_checks", "certify", "jacobian_fd_check", None),
    ("certify.fd_checks", "certify", "potential_grad_check", None),
    ("serialize.model_hash", "serialize", "model_hash", None),
)

# (span name, module, class, method)
METHODS = (
    ("measure.EmpiricalMeasure", "measure", "EmpiricalMeasure", "__post_init__"),
    ("transformer.Lifting.apply_batch", "transformer", "Lifting", "apply_batch"),
)

SPAN_NAMES = tuple(dict.fromkeys([OP] + [f[0] for f in FUNCTIONS] + [m[0] for m in METHODS]))


class Tracer:
    """In-memory span store with optional per-span tracemalloc peaks.

    Peaks need ``tracemalloc`` to be tracing; they are kept per span
    name as the largest rise above the traced heap at span entry.
    """

    def __init__(self):
        self.ids = {name: i for i, name in enumerate(SPAN_NAMES)}
        self.key = []
        self.start = []
        self.end = []
        self.parent = []
        self.op = []
        self.stack = []
        self.op_id = -1
        self.work = dict.fromkeys(SPAN_NAMES, 0)
        self.recording = False
        self.memory = False
        self.peaks = dict.fromkeys(SPAN_NAMES, 0)
        self._mem_stack = []
        self._saved = []

    # -- span boundaries ---------------------------------------------------
    def enter(self, name: str) -> None:
        if self.memory:
            _, peak = tracemalloc.get_traced_memory()
            if self._mem_stack:
                self._mem_stack[-1][2] = max(self._mem_stack[-1][2], peak)
            tracemalloc.reset_peak()
            cur, _ = tracemalloc.get_traced_memory()
            self._mem_stack.append([name, cur, cur])
        if self.recording:
            idx = len(self.key)
            self.key.append(self.ids[name])
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.op.append(self.op_id)
            self.end.append(0.0)
            self.stack.append(idx)
            self.start.append(time.perf_counter())

    def exit(self) -> None:
        if self.recording:
            self.end[self.stack.pop()] = time.perf_counter()
        if self.memory:
            _, peak = tracemalloc.get_traced_memory()
            name, base, running = self._mem_stack.pop()
            top = max(running, peak)
            self.peaks[name] = max(self.peaks[name], top - base)
            if self._mem_stack:
                self._mem_stack[-1][2] = max(self._mem_stack[-1][2], top)
            tracemalloc.reset_peak()

    def run_op(self, op_id: int, fn, memory: bool = False):
        """Run ``fn()`` as benchmark op ``op_id`` under a root span.

        Spans are recorded only inside ops, so the benchmark's own checks
        never enter the summary. With ``memory`` the op records per-span
        tracemalloc peaks instead of spans.
        """
        self.op_id = op_id
        self.recording, self.memory = not memory, memory
        self.enter(OP)
        try:
            return fn()
        finally:
            self.exit()
            self.recording = self.memory = False

    # -- wrappers ----------------------------------------------------------
    def _wrap(self, name, fn, work):
        tracer = self
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if work is not None and tracer.recording:
                tracer.work[name] += work(signature.bind(*args, **kwargs).arguments)
            tracer.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.exit()

        return wrapper

    def install(self) -> None:
        """Rebind the listed functions and methods to traced wrappers."""
        modules = [m for n, m in sys.modules.items() if n == "lipctx" or n.startswith("lipctx.")]
        for name, mod, attr, work in FUNCTIONS:
            orig = getattr(sys.modules["lipctx." + mod], attr)
            wrapped = self._wrap(name, orig, work)
            for m in modules:
                if getattr(m, attr, None) is orig:
                    self._bind(m, attr, wrapped)
        for name, mod, cls_name, attr in METHODS:
            cls = getattr(sys.modules["lipctx." + mod], cls_name)
            self._bind(cls, attr, self._wrap(name, cls.__dict__[attr], None))

    def _bind(self, owner, attr, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Restore every binding ``install`` replaced."""
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    # -- results -----------------------------------------------------------
    def summary(self) -> dict:
        """Per span name: calls, self time, inclusive time and work count.

        ``calls`` and the inclusive time count only spans whose parent has
        a different name, so ``evaluate`` calling ``forward_tokens`` is
        one forward call.
        """
        key = np.asarray(self.key, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        dur = np.asarray(self.end) - np.asarray(self.start)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_t = dur - child
        parent_key = np.where(has_parent, key[np.maximum(parent, 0)], -1)
        outer = parent_key != key
        n = len(SPAN_NAMES)
        self_s = np.bincount(key, weights=self_t, minlength=n)
        incl_s = np.bincount(key[outer], weights=dur[outer], minlength=n)
        calls = np.bincount(key[outer], minlength=n)
        return {
            name: {
                "calls": int(calls[i]),
                "self_s": float(self_s[i]),
                "incl_s": float(incl_s[i]),
                "work": int(self.work[name]),
                "peak_bytes": int(self.peaks[name]),
            }
            for i, name in enumerate(SPAN_NAMES)
        }

    def write(self, path) -> None:
        """Write every span as columns: name id, start, end, parent, op."""
        t0 = min(self.start) if self.start else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "names": list(SPAN_NAMES),
                    "columns": ["name", "start_s", "end_s", "parent", "op"],
                    "spans": [
                        [k, round(s - t0, 9), round(e - t0, 9), p, o]
                        for k, s, e, p, o in zip(
                            self.key, self.start, self.end, self.parent, self.op
                        )
                    ],
                },
                fh,
                separators=(",", ":"),
            )
