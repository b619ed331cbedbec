"""Critic value/gradients/projection/training and duality soundness."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lipctx import critic as critic_module
from lipctx import layers, transformer
from lipctx.critic import (
    Critic,
    TrainConfig,
    critic_grads,
    critic_value,
    critic_value_batch,
    kr_gap,
    kr_objective,
    project_params,
    train_critic,
)
from lipctx.errors import InvalidMeasureError
from lipctx.layers import MlpLayer, clamp_step, spectral_norm
from lipctx.measure import new_empirical, w1_exact
from lipctx.transformer import Lifting


def strict_mlp(w, b, tau):
    """An MLP layer with tau clamped at slack 0, as the critic projects it."""
    return MlpLayer(w, b, clamp_step(tau, spectral_norm(w), 0.0), clamp=False)


def reference_train(mu, nu, cfg, target=None):
    """``train_critic`` as a loop over the public objects, step by step.

    Returns the best critic, its objective and the objective trace.
    """
    rng = np.random.default_rng(cfg.seed)
    d, h = mu.dim, cfg.width
    a_q = rng.uniform(-1.0, 1.0, (h, d)) / math.sqrt(d)
    stack = []
    for _ in range(cfg.depth):
        w = rng.uniform(-1.0, 1.0, (h, h)) * (1.5 / math.sqrt(h))
        b = rng.uniform(-0.3, 0.3, h)
        stack.append(strict_mlp(w, b, 1.0))
    v = rng.uniform(-1.0, 1.0, h) / math.sqrt(h)
    c = project_params(Critic(Lifting(a_q, np.zeros(h)), tuple(stack), v))
    trace = [kr_objective(c, mu, nu)]
    best, best_obj = c, trace[0]
    step = cfg.step_size
    for _ in range(cfg.iterations):
        if target is not None and best_obj >= target:
            break
        g = critic_grads(c, mu, nu)
        stack = tuple(
            strict_mlp(l.W + step * gw, l.b + step * gb, l.tau + step * gt)
            for l, (gw, gb, gt) in zip(c.stack, g.layers)
        )
        lifting = Lifting(c.lifting.A + step * g.a_q, c.lifting.b + step * g.b_q)
        c = project_params(Critic(lifting, stack, c.readout + step * g.readout))
        trace.append(kr_objective(c, mu, nu))
        if trace[-1] > best_obj:
            best, best_obj = c, trace[-1]
    return best, best_obj, trace


def random_critic(seed, d=2, width=6, depth=2, project=True):
    rng = np.random.default_rng(seed)
    lifting = Lifting(rng.normal(size=(width, d)), rng.normal(size=width) * 0.2)
    stack = tuple(
        strict_mlp(rng.normal(size=(width, width)), rng.normal(size=width) * 0.3, 0.8)
        for _ in range(depth)
    )
    c = Critic(lifting, stack, rng.normal(size=width))
    return project_params(c) if project else c


class TestCriticValue:
    def test_zero_readout(self):
        c = random_critic(0)
        c0 = Critic(c.lifting, c.stack, np.zeros(c.width))
        assert critic_value(c0, np.array([0.3, -0.2])) == 0.0

    def test_linear_critic_coordinate(self):
        lifting = Lifting(np.array([[1.0, 0.0]]), np.zeros(1))
        c = Critic(lifting, (), np.array([1.0]))
        assert critic_value(c, np.array([0.7, 9.9])) == 0.7

    def test_one_lipschitz_after_projection(self):
        rng = np.random.default_rng(1)
        c = random_critic(2)
        z1 = rng.normal(size=(5000, 2))
        z2 = rng.normal(size=(5000, 2))
        num = np.abs(critic_value_batch(c, z1) - critic_value_batch(c, z2))
        den = np.linalg.norm(z1 - z2, axis=1)
        keep = den >= 1e-9
        assert np.all(num[keep] <= den[keep] * (1 + 1e-9))


class TestKrObjective:
    def test_identical_measures_zero(self):
        c = random_critic(3)
        mu = new_empirical(np.random.default_rng(0).normal(size=(5, 2)))
        assert kr_objective(c, mu, mu) == 0.0

    def test_linear_critic_on_deltas(self):
        lifting = Lifting(np.array([[1.0]]), np.zeros(1))
        c = Critic(lifting, (), np.array([1.0]))
        mu, nu = new_empirical([[0.0]]), new_empirical([[1.0]])
        assert kr_objective(c, mu, nu) == -1.0
        assert kr_objective(c.negated(), mu, nu) == 1.0

    def test_duality_ceiling(self):
        rng = np.random.default_rng(4)
        for seed in range(5):
            c = random_critic(seed, d=2, width=5, depth=1)
            mu = new_empirical(rng.normal(size=(int(rng.integers(2, 6)), 2)))
            nu = new_empirical(rng.normal(size=(int(rng.integers(2, 6)), 2)))
            assert kr_objective(c, mu, nu) <= w1_exact(mu, nu) + 1e-9


class TestCriticGrads:
    def test_linear_model_readout_gradient(self):
        rng = np.random.default_rng(5)
        lifting = Lifting(rng.normal(size=(3, 2)), rng.normal(size=3))
        c = Critic(lifting, (), np.zeros(3))
        mu = new_empirical(rng.normal(size=(4, 2)))
        nu = new_empirical(rng.normal(size=(3, 2)))
        g = critic_grads(c, mu, nu)
        want = lifting.apply_batch(mu.points).T @ mu.weights - lifting.apply_batch(
            nu.points
        ).T @ nu.weights
        np.testing.assert_allclose(g.readout, want, atol=1e-12)

    def test_identical_measures_exact_zero(self):
        c = random_critic(6)
        mu = new_empirical(np.random.default_rng(1).normal(size=(6, 2)))
        g = critic_grads(c, mu, mu)
        assert not g.a_q.any() and not g.b_q.any() and not g.readout.any()
        assert all(not gw.any() and not gb.any() and gt == 0.0 for gw, gb, gt in g.layers)

    def test_finite_difference_agreement(self):
        rng = np.random.default_rng(7)
        mu = new_empirical(rng.normal(size=(5, 2)))
        nu = new_empirical(rng.normal(size=(4, 2)))
        h = 1e-6
        for seed in range(8):
            c = random_critic(seed + 40, width=4, depth=2)
            g = critic_grads(c, mu, nu)

            def rebuilt(aq=None, bq=None, v=None, layer_idx=None, w=None, b=None, tau=None):
                stack = list(c.stack)
                if layer_idx is not None:
                    old = stack[layer_idx]
                    stack[layer_idx] = MlpLayer(
                        old.W if w is None else w,
                        old.b if b is None else b,
                        old.tau if tau is None else tau,
                        clamp=False,
                    )
                lifting = Lifting(
                    c.lifting.A if aq is None else aq,
                    c.lifting.b if bq is None else bq,
                )
                return Critic(lifting, tuple(stack), c.readout if v is None else v)

            def fd(plus, minus):
                return (kr_objective(plus, mu, nu) - kr_objective(minus, mu, nu)) / (2 * h)

            i, j = rng.integers(0, c.lifting.A.shape[0]), rng.integers(0, 2)
            e = np.zeros_like(c.lifting.A)
            e[i, j] = h
            got = fd(rebuilt(aq=c.lifting.A + e), rebuilt(aq=c.lifting.A - e))
            assert abs(got - g.a_q[i, j]) <= 1e-5 * max(1.0, abs(got))

            k = int(rng.integers(0, len(c.stack)))
            wsel = c.stack[k].W
            i, j = rng.integers(0, wsel.shape[0]), rng.integers(0, wsel.shape[1])
            e = np.zeros_like(wsel)
            e[i, j] = h
            got = fd(rebuilt(layer_idx=k, w=wsel + e), rebuilt(layer_idx=k, w=wsel - e))
            assert abs(got - g.layers[k][0][i, j]) <= 1e-5 * max(1.0, abs(got))

            tau = c.stack[k].tau
            got = fd(rebuilt(layer_idx=k, tau=tau + h), rebuilt(layer_idx=k, tau=tau - h))
            assert abs(got - g.layers[k][2]) <= 1e-5 * max(1.0, abs(got))


class TestProjectParams:
    def test_fixed_point(self):
        c = random_critic(8)
        again = project_params(c)
        np.testing.assert_allclose(again.lifting.A, c.lifting.A, rtol=1e-12)
        np.testing.assert_allclose(again.readout, c.readout, rtol=1e-12)
        for l1, l2 in zip(c.stack, again.stack):
            assert abs(l1.tau - l2.tau) <= 1e-12 * max(1.0, l1.tau)

    def test_readout_radial_projection(self):
        c = random_critic(9, project=False)
        v = np.array([3.0, 4.0, 0.0, 0.0, 0.0, 0.0])
        projected = project_params(Critic(c.lifting, c.stack, v))
        np.testing.assert_allclose(projected.readout, v / 5.0, rtol=1e-15)

    def test_lifting_spectral_scaling(self):
        lifting = Lifting(3.0 * np.eye(2), np.zeros(2))
        c = project_params(Critic(lifting, (), np.array([1.0, 0.0])))
        assert float(np.linalg.svd(c.lifting.A, compute_uv=False)[0]) <= 1.0
        assert c.lifting.cert_spec_norm <= 1.0 + 2e-6


class TestTrainCritic:
    def test_deltas_reach_optimum(self):
        mu, nu = new_empirical([[0.0]]), new_empirical([[1.0]])
        cfg = TrainConfig(iterations=1000, step_size=0.1, seed=0, width=4, depth=0)
        _, est = train_critic(mu, nu, cfg)
        assert est >= 0.999
        assert est <= 1.0 + 1e-9

    def test_every_intermediate_is_sound(self):
        rng = np.random.default_rng(10)
        mu = new_empirical(rng.normal(size=(5, 2)))
        nu = new_empirical(rng.normal(size=(6, 2)))
        exact = w1_exact(mu, nu)
        trace = []
        cfg = TrainConfig(iterations=150, step_size=0.25, seed=1, width=6, depth=1)
        train_critic(mu, nu, cfg, on_iterate=lambda t, obj: trace.append(obj))
        assert len(trace) == 151
        assert all(obj <= exact + 1e-9 for obj in trace)

    def test_deterministic_parameters(self):
        rng = np.random.default_rng(11)
        mu = new_empirical(rng.uniform(-1, 1, (6, 1)))
        nu = new_empirical(rng.uniform(-1, 1, (5, 1)))
        cfg = TrainConfig(iterations=80, step_size=0.25, seed=5, width=6, depth=1)
        c1, e1 = train_critic(mu, nu, cfg)
        c2, e2 = train_critic(mu, nu, cfg)
        assert e1 == e2
        np.testing.assert_array_equal(c1.lifting.A, c2.lifting.A)
        np.testing.assert_array_equal(c1.readout, c2.readout)
        for l1, l2 in zip(c1.stack, c2.stack):
            np.testing.assert_array_equal(l1.W, l2.W)
            assert l1.tau == l2.tau

    def test_best_iterate_monotone_in_budget(self):
        rng = np.random.default_rng(12)
        mu = new_empirical(rng.uniform(-1, 1, (8, 1)))
        nu = new_empirical(rng.uniform(-1, 1, (8, 1)))
        prev = -np.inf
        for iters in (50, 100, 200):
            cfg = TrainConfig(iterations=iters, step_size=0.25, seed=2, width=8, depth=1)
            _, est = train_critic(mu, nu, cfg)
            assert est >= prev
            prev = est

    def test_early_stop_target(self):
        mu, nu = new_empirical([[0.0]]), new_empirical([[1.0]])
        cfg = TrainConfig(iterations=5000, step_size=0.1, seed=0, width=4, depth=0)
        trace = []
        _, est = train_critic(
            mu, nu, cfg, on_iterate=lambda t, o: trace.append(t), target=0.5
        )
        assert est >= 0.5
        assert len(trace) < 5000  # stopped well before the cap

    @settings(deadline=None, max_examples=30)
    @given(
        seed=st.integers(0, 2**16),
        d=st.integers(1, 3),
        width=st.integers(1, 6),
        depth=st.integers(0, 2),
        step=st.sampled_from([0.1, 0.25, 1.0]),
        iterations=st.integers(1, 25),
        target=st.one_of(st.none(), st.floats(0.0, 1.0)),
    )
    def test_matches_step_by_step_loop(self, seed, d, width, depth, step,
                                       iterations, target):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 6))
        mu = new_empirical(rng.normal(size=(n, d)), rng.uniform(0.1, 1.0, n))
        nu = new_empirical(rng.normal(size=(int(rng.integers(1, 6)), d)))
        cfg = TrainConfig(iterations=iterations, step_size=step, seed=seed,
                          width=width, depth=depth)
        trace = []
        got, got_obj = train_critic(
            mu, nu, cfg, on_iterate=lambda t, o: trace.append(o), target=target
        )
        want, want_obj, want_trace = reference_train(mu, nu, cfg, target)
        assert trace == want_trace
        assert got_obj == want_obj
        np.testing.assert_array_equal(got.lifting.A, want.lifting.A)
        np.testing.assert_array_equal(got.lifting.b, want.lifting.b)
        np.testing.assert_array_equal(got.readout, want.readout)
        assert len(got.stack) == len(want.stack) == depth
        for l1, l2 in zip(got.stack, want.stack):
            np.testing.assert_array_equal(l1.W, l2.W)
            np.testing.assert_array_equal(l1.b, l2.b)
            assert l1.tau == l2.tau

    def test_builds_one_critic_per_call(self, monkeypatch):
        # The iterate stays in arrays: one Lifting, one Critic and one
        # MlpLayer per layer are built, for the returned critic only, and
        # a depth-1 step takes two spectral norms (lifting and layer).
        rng = np.random.default_rng(14)
        mu = new_empirical(rng.normal(size=(4, 2)))
        nu = new_empirical(rng.normal(size=(3, 2)))
        counts = {}

        def count_builds(cls):
            original = cls.__post_init__

            def counted(*args, **kwargs):
                counts[cls] = counts.get(cls, 0) + 1
                return original(*args, **kwargs)

            monkeypatch.setattr(cls, "__post_init__", counted)

        for cls in (Lifting, MlpLayer, Critic):
            count_builds(cls)
        norms = []
        counted_norm = lambda m: norms.append(1) or spectral_norm(m)  # noqa: E731
        for module in (layers, transformer, critic_module):
            monkeypatch.setattr(module, "spectral_norm", counted_norm, raising=False)
        per_call = {}
        for iterations in (1, 10, 20):
            counts.clear()
            norms.clear()
            cfg = TrainConfig(iterations=iterations, step_size=0.25, seed=3,
                              width=5, depth=1)
            train_critic(mu, nu, cfg)
            assert counts == {Lifting: 1, MlpLayer: 1, Critic: 1}
            per_call[iterations] = len(norms)
        assert per_call[20] - per_call[10] == 2 * 10

    def test_config_validation(self):
        with pytest.raises(InvalidMeasureError):
            TrainConfig(iterations=0)
        with pytest.raises(InvalidMeasureError):
            TrainConfig(step_size=1.5)


class TestKrGap:
    def test_identical_measures(self):
        mu = new_empirical([[0.2], [0.8]])
        est, exact, gap = kr_gap(mu, mu, TrainConfig(iterations=5, width=4, depth=0))
        assert est == 0.0 and exact <= 1e-12 and abs(gap) <= 1e-12

    def test_delta_pair_small_gap(self):
        mu, nu = new_empirical([[0.0]]), new_empirical([[1.0]])
        cfg = TrainConfig(iterations=1000, step_size=0.1, seed=0, width=4, depth=0)
        est, exact, gap = kr_gap(mu, nu, cfg)
        assert exact == pytest.approx(1.0, abs=1e-12)
        assert gap <= 1e-3

    def test_gap_never_negative(self):
        rng = np.random.default_rng(13)
        for seed in range(4):
            mu = new_empirical(rng.normal(size=(8, 2)))
            nu = new_empirical(rng.normal(size=(8, 2)))
            cfg = TrainConfig(iterations=100, step_size=0.25, seed=seed, width=6, depth=1)
            _, _, gap = kr_gap(mu, nu, cfg)
            assert gap >= -1e-9
