"""The benchmark's workloads: seeded inputs, the unit op and its checks.

Every workload builds all of its inputs from ``--seed`` in its
constructor, which is the set-up that ``setup_s`` times. The unit op then
hands lipctx only those generated inputs, through the public names of the
``lipctx`` modules (looked up at call time, so the tracer's wrappers see
the calls). Each workload is a closed loop: one caller that waits for
each result.

A workload provides:

* ``op(i)``: the i-th unit op; its inputs cycle through a seeded pool
  of ``POOL`` entries;
* ``CYCLE``: the ops in one pass over the inputs that set an op's cost;
  the timed loop's metrics weight every position of the cycle equally;
* ``check(i, out)``: the problems found in an op's output (empty if none);
* ``digest(out)``: the output's bytes, for the output digest and for
  comparing ops on the same inputs (index ``i`` modulo ``POOL``);
* ``untimed()``: the ops of the untimed pass, as ``(op index, extra
  checks)`` pairs. The first is the workload's largest input, which
  ``peak_mb`` measures;
* ``TRACED_OPS``: the fixed op list of the traced run, so that its
  counts repeat exactly.
"""
from __future__ import annotations

import numpy as np
from scipy.optimize import linear_sum_assignment

import lipctx
from lipctx import serialize


def sample_in_ball(rng, center, radius, size):
    """Points uniform in a ball: gaussian direction, radius ~ r u^(1/d)."""
    center = np.asarray(center, dtype=np.float64)
    d = center.shape[0]
    dirs = rng.standard_normal((size, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = radius * rng.random(size) ** (1.0 / d)
    return center + dirs * radii[:, None]


def _seeds(rng, n):
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=n)]


class CertifySweep:
    NAME = "certify_sweep"
    WHY = (
        "what lipctx certify users pay: certify_model at library defaults on clamped "
        "models in criterion 1's ranges; small measures, many tiny w1_exact LPs"
    )
    # Criterion 1's ranges (d 2-8, h 2-16, depth 1-4) as a fixed schedule.
    # Only the parameters and harness seeds come from the seed, so the cost
    # of a run does not depend on which shapes a seed happens to draw. Five
    # shapes keep a cycle short enough that a run holds each several times,
    # and an odd count puts the median latency inside one shape's ops.
    SHAPES = ((8, 16, 4), (2, 4, 1), (6, 12, 3), (4, 8, 2), (7, 2, 4))
    POOL = 64
    CYCLE = len(SHAPES)
    TRACED_OPS = tuple(range(CYCLE))

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 1])
        self.models = [
            lipctx.random_clamped_model(d, h, depth, seed=s)
            for (d, h, depth), s in zip(self.SHAPES, _seeds(rng, len(self.SHAPES)))
        ]
        self.cert_seeds = _seeds(rng, self.POOL)
        # One uniform equal-size measure pair per op, in that op's input
        # dimension, for the assignment cross-check of w1_exact.
        self.pairs = []
        for i in range(self.POOL):
            d = self.SHAPES[i % len(self.SHAPES)][0]
            n = int(rng.integers(2, 9))
            zero = np.zeros(d)
            self.pairs.append(
                (sample_in_ball(rng, zero, 1.0, n), sample_in_ball(rng, zero, 1.0, n))
            )

    def op(self, i: int):
        model = self.models[i % len(self.models)]
        return lipctx.certify_model(model, seed=self.cert_seeds[i % self.POOL])

    def check(self, i: int, report) -> list:
        problems = []
        if not report.passed:
            failed = [c.name for c in report.checks if not c.passed]
            problems.append(f"op {i}: certificate failed {failed}")
        x, y = self.pairs[i % self.POOL]
        exact = lipctx.w1_exact(lipctx.new_empirical(x), lipctx.new_empirical(y))
        cost = np.linalg.norm(x[:, None, :] - y[None, :, :], axis=2)
        rows, cols = linear_sum_assignment(cost)
        assigned = float(cost[rows, cols].mean())
        if not abs(exact - assigned) <= 1e-9:
            problems.append(f"op {i}: w1_exact {exact!r} vs assignment {assigned!r}")
        return problems

    def digest(self, report) -> bytes:
        return serialize.dumps(serialize.report_to_json(report)).encode()

    def untimed(self):
        return [(0, None)]


class WideContext:
    NAME = "wide_context"
    WHY = (
        "one evaluate_batch on a large token measure: attention's (n, m, h) "
        "reduction dominates; no W1 solves, no critic"
    )
    DIM = 4
    TOKENS, QUERIES, WIDTH, BLOCKS = 256, 256, 32, 4
    # The memory pass input: 1024 tokens x 256 queries at width 16. Its
    # timing is printed as detail only; it varies too much across
    # processes on a shared box to be gated.
    BIG_TOKENS, BIG_WIDTH = 1024, 16
    POOL = CYCLE = 4
    TRACED_OPS = tuple(range(8))

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 2])
        self.items = [
            self._item(rng, s, self.TOKENS, self.WIDTH) for s in _seeds(rng, self.POOL)
        ]
        self.big = self._item(rng, _seeds(rng, 1)[0], self.BIG_TOKENS, self.BIG_WIDTH)

    def _item(self, rng, model_seed, tokens, width):
        model = lipctx.random_clamped_model(self.DIM, width, self.BLOCKS, seed=model_seed)
        zero = np.zeros(self.DIM)
        points = sample_in_ball(rng, zero, 1.0, tokens)
        weights = rng.random(tokens) + 0.1
        queries = sample_in_ball(rng, zero, 1.0, self.QUERIES)
        perm = rng.permutation(tokens)
        return model, lipctx.new_empirical(points, weights), queries, (points, weights, perm)

    def _inputs(self, i: int):
        return self.big if i < 0 else self.items[i % self.POOL]

    def op(self, i: int):
        model, mu, queries, _ = self._inputs(i)
        return lipctx.evaluate_batch(model, mu, queries)

    def check(self, i: int, out) -> list:
        return []

    def digest(self, out) -> bytes:
        return out.tobytes()

    def untimed(self):
        # The 1024-token input runs twice: under tracemalloc, then plain,
        # which gives its printed timing.
        return [(-1, self._reference_checks), (-1, None)] + [
            (k, self._reference_checks) for k in range(self.POOL)
        ]

    def _reference_checks(self, i: int, out) -> list:
        """Plain-numpy forward to 1e-9 relative; permuted atoms bit-identical."""
        model, mu, queries, (points, weights, perm) = self._inputs(i)
        problems = []
        ref = reference_forward(model, mu.points, mu.weights, queries)
        rel = float(np.max(np.abs(out - ref)) / max(float(np.max(np.abs(ref))), 1e-300))
        if not rel <= 1e-9:
            problems.append(f"op {i}: reference forward differs by {rel:.3g} relative")
        # Built from the same raw arrays as mu: normalising mu's already
        # normalised weights again can move them by an ulp.
        permuted = lipctx.new_empirical(points[perm], weights[perm])
        again = lipctx.evaluate_batch(model, permuted, queries)
        if again.tobytes() != out.tobytes():
            problems.append(f"op {i}: output changed under an atom permutation")
        return problems


def reference_forward(model, points, weights, queries):
    """The scalar model's forward pass in plain numpy.

    Atoms and queries attend over the same pre-update atoms with a
    softmax over scores weighted by the atom weights, then pass through
    the MLP. No tree sums and no canonical order: reductions are plain
    matrix products.
    """
    lift = model.lifting
    z = points @ lift.A.T + lift.b
    q = queries @ lift.A.T + lift.b
    w = weights / weights.sum()

    def attend(x, ay, eta):
        s = x @ ay.T
        e = np.exp(s - s.max(axis=1, keepdims=True)) * w
        return x - eta * (e @ ay) / e.sum(axis=1, keepdims=True)

    def mlp(x, layer):
        return x - layer.tau * (np.maximum(x @ layer.W.T + layer.b, 0.0) @ layer.W)

    for attn, layer in model.blocks:
        if attn.eta != 0.0 and attn.A.any():
            ay = z @ attn.A.T
            z, q = attend(z, ay, attn.eta), attend(q, ay, attn.eta)
        z, q = mlp(z, layer), mlp(q, layer)
    return q @ model.readout


class RswFit:
    NAME = "rsw_fit"
    WHY = (
        "fit-and-verify of RSW interpolation as in criterion 10: builds models "
        "(critic training, spectral norms) and evaluates a deep, wide model"
    )
    SAMPLES = 3
    PROBES = 20
    POOL = CYCLE = 3
    TRACED_OPS = (0, 1)
    # Sample measures, queries, budgets and critic seeds come from a fixed
    # corpus; the seed draws the targets and the probes. A critic either
    # reaches its stopping target (95% of W1) within a few dozen steps or
    # runs to the 800-step cap, so a fit costs 0.2-6 s depending on how
    # many of its three critics hit the cap. The kept corpus entries are
    # the first three whose fits train 1600-1650 steps in all (two critics
    # at the cap), so every op costs about the same and a run's median
    # latency is a median over like ops. The targets do not change the
    # critics' work: at 0.75 of a (1, C)-Lipschitz function they leave
    # enough slack that every critic's stopping target is 95% of W1.
    CORPUS_SEED = 1010
    CORPUS_KEEP = (2, 4, 7)

    def __init__(self, seed: int):
        corpus = np.random.default_rng(self.CORPUS_SEED)
        rng = np.random.default_rng([seed, 3])
        zero = np.zeros(2)

        def measure(source, lo, hi):
            n = int(source.integers(lo, hi + 1))
            return lipctx.new_empirical(sample_in_ball(source, zero, 1.0, n))

        self.instances = []
        for k in range(max(self.CORPUS_KEEP) + 1):
            c_budget = float(corpus.uniform(0.8, 2.0))
            points = [
                (measure(corpus, 2, 4), sample_in_ball(corpus, zero, 1.0, 1)[0])
                for _ in range(self.SAMPLES)
            ]
            critic_seed = int(corpus.integers(0, 2**31 - 1))
            if k not in self.CORPUS_KEEP:
                continue
            # Targets 0.75 x a (1, C)-Lipschitz function, as in criterion 10,
            # so they are strictly compatible.
            anchor = rng.uniform(-1.0, 1.0, 2)
            vdir = rng.normal(size=2)
            vdir /= np.linalg.norm(vdir)
            samples = [
                (m, q, 0.75 * (float(vdir @ q) + c_budget * float(
                    m.weights @ np.linalg.norm(m.points - anchor, axis=1))))
                for m, q in points
            ]
            probes = [
                (measure(rng, 2, 3), *sample_in_ball(rng, zero, 1.0, 2), measure(rng, 2, 3))
                for _ in range(self.PROBES)
            ]
            cfg = lipctx.TrainConfig(
                iterations=800, step_size=0.25, seed=critic_seed, width=8, depth=1,
            )
            self.instances.append((samples, c_budget, cfg, probes))

    def op(self, i: int):
        """Fit, then verify: worst target error and worst (1, C) probe ratio."""
        samples, c_budget, cfg, probes = self.instances[i % self.POOL]
        model = lipctx.rsw_interpolate(samples, c_budget, train_cfg=cfg)
        target_err = max(abs(lipctx.evaluate(model, m, q) - t) for m, q, t in samples)
        ratio = 0.0
        for m1, z1, z2, m2 in probes:
            allowed = float(np.linalg.norm(z1 - z2)) + c_budget * lipctx.w1_exact(m1, m2)
            if allowed >= 1e-9:
                diff = abs(lipctx.evaluate(model, m1, z1) - lipctx.evaluate(model, m2, z2))
                ratio = max(ratio, diff / allowed)
        return model, target_err, ratio

    def check(self, i: int, out) -> list:
        model, target_err, ratio = out
        problems = []
        if not target_err <= 1e-6:
            problems.append(f"op {i}: target error {target_err:.3g}")
        if not ratio <= 1.0 + 1e-6:
            problems.append(f"op {i}: (1, C) probe ratio {ratio!r}")
        return problems

    def digest(self, out) -> bytes:
        return serialize.model_hash(out[0]).encode()

    def untimed(self):
        # Op 0 has the largest input: 10 sample atoms, against 8 and 9.
        return [(0, None)]


WORKLOADS = {w.NAME: w for w in (CertifySweep, WideContext, RswFit)}
