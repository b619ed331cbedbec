"""Constructive machinery: gates, parallel composition, lattices, KR, separators."""
import math

import numpy as np
import pytest

from couplings import pair_coupling, pushforward
from lipctx import constructions
from lipctx.certify import random_clamped_model, sample_in_ball
from lipctx.constructions import (
    identity_block,
    kr_integrator,
    lattice_combine,
    minmax_gate,
    parallel_attention,
    parallel_mlp,
    rsw_interpolate,
    separator,
)
from lipctx.critic import Critic, TrainConfig, critic_value, project_params
from lipctx.errors import (
    CapExceededError,
    DimensionMismatchError,
    DomainViolationError,
    IncompatibleTargetsError,
    SeparationError,
)
from lipctx.layers import (
    AttentionLayer,
    MlpLayer,
    attn_forward,
    attn_step_bound,
    ball_sup_ay,
    clamp_step,
    mlp_forward,
    spectral_norm,
)
from lipctx.measure import (
    DomainBall,
    new_empirical,
    w1_exact,
)
from lipctx.transformer import (
    Lifting,
    ScalarModel,
    clamp_model,
    evaluate,
    forward_tokens,
    lifted_ball,
    models_equal,
    propagate_domains,
)
from lipctx.serialize import model_from_json, model_to_json

RNG = np.random.default_rng  # shorthand

FAST_TRAIN = TrainConfig(iterations=600, step_size=0.25, seed=0, width=8, depth=1)


def random_measure_in(rng, ball, n):
    return new_empirical(sample_in_ball(rng, ball, n))


class TestIdentityBlock:
    def test_exact_identity(self):
        rng = RNG(0)
        attn, mlp = identity_block(DomainBall(np.zeros(3), 1.0))
        model = ScalarModel(
            Lifting(np.eye(3), np.zeros(3)), ((attn, mlp),) * 4, np.zeros(3),
            DomainBall(np.zeros(3), 1.0), 1.0,
        )
        mu = random_measure_in(rng, model.input_domain, 5)
        x = sample_in_ball(rng, model.input_domain, 1)[0]
        nu, q = forward_tokens(model, mu, x)
        np.testing.assert_array_equal(q, x)
        np.testing.assert_array_equal(nu.points, mu.points)

    def test_clamp_keeps_parameters(self):
        attn, mlp = identity_block(DomainBall(np.zeros(2), 1.0))
        model = ScalarModel(
            Lifting(np.eye(2), np.zeros(2)), ((attn, mlp),), np.zeros(2),
            DomainBall(np.zeros(2), 1.0), 1.0,
        )
        clamped = clamp_model(model)
        new_attn, new_mlp = clamped.blocks[0]
        assert new_attn.eta == 0.0 and new_mlp.tau == 0.0
        np.testing.assert_array_equal(new_attn.A, attn.A)
        np.testing.assert_array_equal(new_mlp.W, mlp.W)

    def test_width_zero_rejected(self):
        with pytest.raises(DimensionMismatchError):
            identity_block(DomainBall(np.zeros(0), 1.0))


class TestMinmaxGate:
    def test_matches_scalar_min_max(self):
        rng = RNG(1)
        gate_min, ro_min = minmax_gate("min")
        gate_max, ro_max = minmax_gate("max")
        z = rng.uniform(-10, 10, size=(100000, 2))
        from lipctx.layers import mlp_forward_batch

        got_min = mlp_forward_batch(gate_min, z) @ ro_min
        got_max = mlp_forward_batch(gate_max, z) @ ro_max
        assert float(np.max(np.abs(got_min - z.min(axis=1)))) <= 1e-12
        assert float(np.max(np.abs(got_max - z.max(axis=1)))) <= 1e-12

    def test_gate_parameters(self):
        gate, ro = minmax_gate("min")
        c = 1.0 / math.sqrt(2.0)
        np.testing.assert_allclose(gate.W, [[c, -c]], rtol=1e-15)
        assert gate.tau == 2.0
        np.testing.assert_array_equal(ro, [1.0, 0.0])
        gate_max, _ = minmax_gate("max")
        np.testing.assert_allclose(gate_max.W, [[-c, c]], rtol=1e-15)

    def test_tie(self):
        for kind in ("min", "max"):
            gate, ro = minmax_gate(kind)
            assert float(ro @ mlp_forward(gate, np.array([1.7, 1.7]))) == pytest.approx(
                1.7, abs=1e-12
            )

    def test_composite_one_lipschitz(self):
        rng = RNG(2)
        gate, ro = minmax_gate("max")
        z = rng.uniform(-5, 5, size=(20000, 2))
        w = rng.uniform(-5, 5, size=(20000, 2))
        from lipctx.layers import mlp_forward_batch

        num = np.abs(mlp_forward_batch(gate, z) @ ro - mlp_forward_batch(gate, w) @ ro)
        den = np.linalg.norm(z - w, axis=1)
        keep = den >= 1e-9
        assert np.all(num[keep] <= den[keep] * (1 + 1e-12))

    def test_bad_kind(self):
        with pytest.raises(SeparationError):
            minmax_gate("avg")


class TestParallelMlp:
    def test_identity_pair(self):
        f = MlpLayer(np.zeros((1, 2)), np.zeros(1), 0.0)
        fp = MlpLayer(np.zeros((1, 3)), np.zeros(1), 0.0)
        merged = parallel_mlp(f, fp)
        x = RNG(3).normal(size=5)
        np.testing.assert_array_equal(mlp_forward(merged, x), x)

    def test_one_sided_action(self):
        rng = RNG(4)
        f = MlpLayer(rng.normal(size=(3, 2)), rng.normal(size=3), 0.3)
        fp = MlpLayer(np.zeros((1, 2)), np.zeros(1), 0.0)
        merged = parallel_mlp(f, fp)
        x, xp = rng.normal(size=2), rng.normal(size=2)
        got = mlp_forward(merged, np.concatenate([x, xp]))
        np.testing.assert_allclose(got[:2], mlp_forward(f, x), atol=1e-12)
        np.testing.assert_array_equal(got[2:], xp)

    def test_matches_separate_evaluations(self):
        rng = RNG(5)
        f = MlpLayer(rng.normal(size=(4, 3)), rng.normal(size=4), 0.5)
        fp = MlpLayer(rng.normal(size=(2, 2)), rng.normal(size=2), 1.1)
        merged = parallel_mlp(f, fp)
        assert merged.tau == 1.0
        for _ in range(1000):
            x, xp = rng.normal(size=3), rng.normal(size=2)
            got = mlp_forward(merged, np.concatenate([x, xp]))
            want = np.concatenate([mlp_forward(f, x), mlp_forward(fp, xp)])
            assert float(np.max(np.abs(got - want))) <= 1e-12

    def test_stays_certifiably_feasible(self):
        rng = RNG(6)
        w, wp = rng.normal(size=(3, 3)), rng.normal(size=(2, 2))
        f = MlpLayer(w, np.zeros(3), clamp_step(10.0, spectral_norm(w)))  # at the bound
        fp = MlpLayer(wp, np.zeros(2), clamp_step(10.0, spectral_norm(wp)))
        merged = parallel_mlp(f, fp)
        assert merged.tau == 1.0
        assert clamp_step(merged.tau, merged.cert_spec_norm) == 1.0  # survives the clamp


def _compose_parallel(l1, l2, coupling, x, xp):
    gamma = coupling.as_measure()
    q = np.concatenate([x, xp])
    q1 = attn_forward(l1, gamma, q)
    g1 = pushforward(gamma, lambda p: attn_forward(l1, gamma, p))
    return attn_forward(l2, g1, q1)


class TestParallelAttention:
    def _random_layer(self, rng, dim):
        dom = DomainBall(rng.normal(size=dim) * 0.2, float(rng.uniform(0.5, 1.2)))
        a = rng.normal(size=(dim, dim)) / math.sqrt(dim)
        return AttentionLayer(a, 0.8 * attn_step_bound(a, dom), dom)

    def test_zero_steps_identity(self):
        g = AttentionLayer(np.zeros((2, 2)), 0.0, DomainBall(np.zeros(2), 1.0))
        gp = AttentionLayer(np.zeros((3, 3)), 0.0, DomainBall(np.zeros(3), 1.0))
        l1, l2 = parallel_attention(g, gp)
        assert l1.is_identity and l2.is_identity

    def test_one_sided(self):
        rng = RNG(7)
        g = self._random_layer(rng, 2)
        gp = AttentionLayer(np.zeros((3, 3)), 0.0, DomainBall(np.zeros(3), 1.0))
        l1, l2 = parallel_attention(g, gp)
        mu = random_measure_in(rng, g.domain, 4)
        nup = random_measure_in(rng, gp.domain, 4)
        x = sample_in_ball(rng, g.domain, 1)[0]
        xp = sample_in_ball(rng, gp.domain, 1)[0]
        got = _compose_parallel(l1, l2, pair_coupling(mu, nup), x, xp)
        np.testing.assert_array_equal(got[2:], xp)
        np.testing.assert_allclose(got[:2], attn_forward(g, mu, x), atol=1e-12)

    def test_exact_for_both_couplings(self):
        rng = RNG(8)
        worst = 0.0
        for _ in range(25):
            g = self._random_layer(rng, int(rng.integers(1, 4)))
            gp = self._random_layer(rng, int(rng.integers(1, 4)))
            l1, l2 = parallel_attention(g, gp)
            x = sample_in_ball(rng, g.domain, 1)[0]
            xp = sample_in_ball(rng, gp.domain, 1)[0]
            n = int(rng.integers(2, 6))
            mu = random_measure_in(rng, g.domain, n)
            nup_same = random_measure_in(rng, gp.domain, n)
            nup_diff = random_measure_in(rng, gp.domain, n + 1)
            want_same = np.concatenate(
                [attn_forward(g, mu, x), attn_forward(gp, nup_same, xp)]
            )
            want_diff = np.concatenate(
                [attn_forward(g, mu, x), attn_forward(gp, nup_diff, xp)]
            )
            paired = pair_coupling(mu, nup_same)  # index-paired
            product = pair_coupling(mu, nup_diff)  # product fallback
            assert paired.n_atoms == n and product.n_atoms == n * nup_diff.n_atoms
            worst = max(
                worst,
                float(np.max(np.abs(_compose_parallel(l1, l2, paired, x, xp) - want_same))),
                float(np.max(np.abs(_compose_parallel(l1, l2, product, x, xp) - want_diff))),
            )
        assert worst <= 1e-9


def random_scalar_model(seed, d=2, h=4, n_blocks=2):
    return random_clamped_model(d, h, n_blocks, seed=seed)


class TestLatticeCombine:
    def test_matches_scalar_min_max(self):
        rng = RNG(9)
        a = random_scalar_model(1)
        b = random_scalar_model(2, h=5, n_blocks=1)
        for kind, op in (("min", min), ("max", max)):
            combined = lattice_combine(a, b, kind)
            for _ in range(30):
                mu = random_measure_in(rng, a.input_domain, int(rng.integers(1, 6)))
                x = sample_in_ball(rng, a.input_domain, 1)[0]
                want = op(evaluate(a, mu, x), evaluate(b, mu, x))
                assert abs(evaluate(combined, mu, x) - want) <= 1e-9

    def test_idempotence(self):
        rng = RNG(10)
        a = random_scalar_model(3)
        combined = lattice_combine(a, a, "min")
        for _ in range(10):
            mu = random_measure_in(rng, a.input_domain, 3)
            x = sample_in_ball(rng, a.input_domain, 1)[0]
            assert abs(evaluate(combined, mu, x) - evaluate(a, mu, x)) <= 1e-9

    def test_lattice_identity(self):
        rng = RNG(11)
        a = random_scalar_model(4)
        b = random_scalar_model(5)
        lo = lattice_combine(a, b, "min")
        hi = lattice_combine(a, b, "max")
        for _ in range(10):
            mu = random_measure_in(rng, a.input_domain, 4)
            x = sample_in_ball(rng, a.input_domain, 1)[0]
            got = evaluate(lo, mu, x) + evaluate(hi, mu, x)
            want = evaluate(a, mu, x) + evaluate(b, mu, x)
            assert abs(got - want) <= 1e-9

    def test_depth_padding(self):
        a = random_scalar_model(6, n_blocks=3)
        b = random_scalar_model(7, n_blocks=0)
        combined = lattice_combine(a, b, "max")
        rng = RNG(12)
        mu = random_measure_in(rng, a.input_domain, 3)
        x = sample_in_ball(rng, a.input_domain, 1)[0]
        want = max(evaluate(a, mu, x), evaluate(b, mu, x))
        assert abs(evaluate(combined, mu, x) - want) <= 1e-9

    def test_mismatch_errors(self):
        a = random_scalar_model(8, d=2)
        b = random_scalar_model(9, d=3)
        with pytest.raises(DimensionMismatchError):
            lattice_combine(a, b, "min")
        c = random_clamped_model(2, 4, 1, seed=10, radius=2.0)
        with pytest.raises(DimensionMismatchError):
            lattice_combine(a, c, "min")

    def test_clamp_only_shrinks_steps(self):
        # Ball-shaped recertification of a product-space construction may
        # soundly shrink steps but must never grow them or touch matrices.
        a = random_scalar_model(13)
        b = random_scalar_model(14)
        combined = lattice_combine(a, b, "max")
        clamped = clamp_model(combined)
        for (attn0, mlp0), (attn1, mlp1) in zip(combined.blocks, clamped.blocks):
            assert attn1.eta <= attn0.eta
            assert mlp1.tau <= mlp0.tau
            np.testing.assert_array_equal(attn1.A, attn0.A)
            np.testing.assert_array_equal(mlp1.W, mlp0.W)

    def test_padded_block_layer_fails_closed(self):
        # The shallow side is padded with identity blocks on its lifted
        # ball, so the deep side's first block layer declares the finite
        # enclosing ball and rejects a query far outside it.
        a = random_clamped_model(2, 4, 3, seed=1)
        b = random_clamped_model(2, 3, 1, seed=2)
        attn = lattice_combine(a, b, "min").blocks[0][0]
        assert not attn.is_identity
        shallow = lifted_ball(b.lifting, b.input_domain)
        assert attn.domain.radius == math.hypot(a.blocks[0][0].domain.radius, shallow.radius)
        mu = new_empirical(attn.domain.center[None, :])
        far = attn.domain.center + 1e6 * np.eye(attn.dim)[0]
        with pytest.raises(DomainViolationError):
            attn_forward(attn, mu, far)


class TestKrIntegrator:
    def test_constant_critic(self):
        # zero lifting matrix, bias-shifted coordinates: critic == constant
        const = 0.7
        lifting = Lifting(np.zeros((2, 2)), np.array([const, 0.0]))
        crit = Critic(lifting, (), np.array([1.0, 0.0]))
        dom = DomainBall(np.zeros(2), 1.0)
        model = kr_integrator(crit, 3.0, dom)
        rng = RNG(15)
        nu = random_measure_in(rng, dom, 5)
        x = sample_in_ball(rng, dom, 1)[0]
        assert evaluate(model, nu, x) == pytest.approx(3.0 * const, abs=1e-9)

    def test_point_mass(self):
        crit = project_params(
            Critic(
                Lifting(RNG(16).normal(size=(4, 2)), np.zeros(4)),
                (),
                RNG(17).normal(size=4),
            )
        )
        dom = DomainBall(np.zeros(2), 1.2)
        model = kr_integrator(crit, 2.0, dom)
        y = np.array([0.3, -0.4])
        x = np.array([-0.5, 0.1])
        want = 2.0 * critic_value(crit, y)
        assert evaluate(model, new_empirical([y]), x) == pytest.approx(want, abs=1e-9)

    def test_weighted_mean_oracle_and_query_independence(self):
        rng = RNG(18)
        for seed in range(5):
            w = RNG(seed + 2).normal(size=(5, 5))
            crit = project_params(
                Critic(
                    Lifting(RNG(seed).normal(size=(5, 2)), RNG(seed + 1).normal(size=5) * 0.2),
                    (MlpLayer(w, np.zeros(5), clamp_step(0.4, spectral_norm(w), 0.0)),),
                    RNG(seed + 3).normal(size=5),
                )
            )
            dom = DomainBall(np.zeros(2), 1.5)
            c_budget = float(rng.uniform(0.5, 3.0))
            model = kr_integrator(crit, c_budget, dom)
            nu = new_empirical(
                sample_in_ball(rng, dom, 8), weights=rng.random(8) + 0.1
            )
            want = c_budget * float(
                sum(w * critic_value(crit, p) for p, w in zip(nu.points, nu.weights))
            )
            values = [
                evaluate(model, nu, q) for q in sample_in_ball(rng, dom, 20)
            ]
            assert max(values) - min(values) <= 1e-12
            assert values[0] == pytest.approx(want, abs=1e-9)

    def test_zero_critic_constant_zero_model(self):
        crit = Critic(Lifting(np.zeros((3, 2)), np.zeros(3)), (), np.zeros(3))
        dom = DomainBall(np.zeros(2), 1.0)
        model = kr_integrator(crit, 1.0, dom)
        rng = RNG(19)
        nu = random_measure_in(rng, dom, 4)
        assert evaluate(model, nu, sample_in_ball(rng, dom, 1)[0]) == 0.0

    def test_clamp_stable_bitwise(self):
        w = RNG(21).normal(size=(4, 4))
        crit = project_params(
            Critic(
                Lifting(RNG(20).normal(size=(4, 2)), np.zeros(4)),
                (MlpLayer(w, np.zeros(4), clamp_step(0.6, spectral_norm(w), 0.0)),),
                RNG(22).normal(size=4),
            )
        )
        model = kr_integrator(crit, 1.5, DomainBall(np.zeros(2), 1.0))
        assert models_equal(model, clamp_model(model))


class TestSeparator:
    def test_pure_query_separation(self):
        rng = RNG(23)
        mu = new_empirical(rng.normal(size=(4, 2)) * 0.3)
        x = np.array([0.5, 0.0])
        xp = np.array([-0.5, 0.3])
        gap = float(np.linalg.norm(x - xp))
        a_t, b_t = 0.4 * gap, -0.4 * gap
        model = separator(mu, x, mu, xp, a_t, b_t, 1.0, eps=0.05)
        assert evaluate(model, mu, x) == pytest.approx(a_t, abs=1e-9)
        assert evaluate(model, mu, xp) == pytest.approx(b_t, abs=1e-9)

    def test_builds_one_model(self, monkeypatch):
        # The anchors are evaluated on the embedded model, whose readout is
        # then rescaled in place of a second embedding.
        embed = constructions._embed_model_with_query_branch
        built = []

        def counting(*args, **kwargs):
            built.append(1)
            return embed(*args, **kwargs)

        monkeypatch.setattr(constructions, "_embed_model_with_query_branch", counting)
        mu = new_empirical([[0.1, 0.2], [-0.2, 0.0]])
        x, xp = np.array([0.5, 0.0]), np.array([-0.5, 0.3])
        model = separator(mu, x, mu, xp, 0.3, -0.2, 1.0, eps=0.05)
        assert len(built) == 1
        assert evaluate(model, mu, x) == pytest.approx(0.3, abs=1e-9)
        assert evaluate(model, mu, xp) == pytest.approx(-0.2, abs=1e-9)

    def test_measure_only_separation(self):
        rng = RNG(24)
        mu = new_empirical(rng.normal(size=(4, 2)) * 0.4)
        nu = new_empirical(rng.normal(size=(4, 2)) * 0.4 + 0.8)
        x = np.array([0.1, 0.1])
        c_budget = 2.0
        margin = c_budget * w1_exact(mu, nu)
        a_t, b_t = 0.3 * margin, -0.3 * margin
        model = separator(mu, x, nu, x, a_t, b_t, c_budget, eps=0.05,
                          train_cfg=FAST_TRAIN)
        assert evaluate(model, mu, x) == pytest.approx(a_t, abs=1e-9)
        assert evaluate(model, nu, x) == pytest.approx(b_t, abs=1e-9)

    def test_equal_targets_constant_on_anchors(self):
        rng = RNG(25)
        mu = new_empirical(rng.normal(size=(3, 2)) * 0.3)
        nu = new_empirical(rng.normal(size=(3, 2)) * 0.3 + 0.5)
        x, xp = np.array([0.4, 0.0]), np.array([-0.2, 0.2])
        model = separator(mu, x, nu, xp, 0.25, 0.25, 1.0, eps=0.05,
                          train_cfg=FAST_TRAIN)
        assert evaluate(model, mu, x) == pytest.approx(0.25, abs=1e-9)
        assert evaluate(model, nu, xp) == pytest.approx(0.25, abs=1e-9)

    def test_lipschitz_slope_bounded(self):
        rng = RNG(26)
        mu = new_empirical(rng.normal(size=(4, 2)) * 0.4)
        nu = new_empirical(rng.normal(size=(4, 2)) * 0.4 + 1.0)
        x, xp = np.array([0.6, -0.2]), np.array([-0.6, 0.4])
        c_budget = 1.5
        span = np.linalg.norm(x - xp) + c_budget * w1_exact(mu, nu)
        a_t, b_t = 0.35 * span, -0.35 * span  # 70% of the allowed separation
        model = separator(mu, x, nu, xp, a_t, b_t, c_budget, eps=0.05,
                          train_cfg=FAST_TRAIN)
        dom = model.input_domain
        for _ in range(60):
            m1 = random_measure_in(rng, DomainBall(dom.center, dom.radius * 0.5), 3)
            m2 = random_measure_in(rng, DomainBall(dom.center, dom.radius * 0.5), 3)
            z1 = sample_in_ball(rng, DomainBall(dom.center, dom.radius * 0.5), 1)[0]
            z2 = sample_in_ball(rng, DomainBall(dom.center, dom.radius * 0.5), 1)[0]
            allowed = float(np.linalg.norm(z1 - z2)) + c_budget * w1_exact(m1, m2)
            if allowed < 1e-9:
                continue
            diff = abs(evaluate(model, m1, z1) - evaluate(model, m2, z2))
            assert diff <= allowed * (1 + 1e-9)

    def test_precondition_violation(self):
        mu = new_empirical([[0.0, 0.0]])
        nu = new_empirical([[0.1, 0.0]])
        x, xp = np.array([0.0, 0.0]), np.array([0.2, 0.0])
        with pytest.raises(SeparationError):
            separator(mu, x, nu, xp, 10.0, -10.0, 1.0, eps=0.05)

    def test_identical_anchors(self):
        mu = new_empirical([[0.0, 0.0]])
        x = np.array([0.1, 0.1])
        with pytest.raises(SeparationError):
            separator(mu, x, mu, x, 0.0, 0.0, 1.0, eps=0.05)


class TestRswInterpolate:
    def _lip_targets(self, samples, c_budget, scale=0.75):
        anchor = np.array([0.3, -0.5])
        vdir = np.array([0.6, 0.8])
        out = []
        for m, q in samples:
            val = vdir @ q + c_budget * sum(
                w * np.linalg.norm(p - anchor) for p, w in zip(m.points, m.weights)
            )
            out.append((m, q, scale * float(val)))
        return out

    def test_single_sample_constant(self):
        mu = new_empirical([[0.2, 0.2]])
        model = rsw_interpolate([(mu, np.array([0.1, 0.0]), 1.25)], 1.0)
        rng = RNG(27)
        for _ in range(5):
            nu = random_measure_in(rng, model.input_domain, 3)
            z = sample_in_ball(rng, model.input_domain, 1)[0]
            assert evaluate(model, nu, z) == 1.25

    def test_two_samples(self):
        rng = RNG(28)
        ball = DomainBall(np.zeros(2), 1.0)
        pairs = [
            (random_measure_in(rng, ball, 3), sample_in_ball(rng, ball, 1)[0])
            for _ in range(2)
        ]
        samples = self._lip_targets(pairs, 1.0)
        model = rsw_interpolate(samples, 1.0, train_cfg=FAST_TRAIN)
        for m, q, t in samples:
            assert abs(evaluate(model, m, q) - t) <= 1e-6

    def test_four_samples_targets_and_lipschitz(self):
        rng = RNG(29)
        ball = DomainBall(np.zeros(2), 1.0)
        c_budget = 1.5
        pairs = [
            (random_measure_in(rng, ball, int(rng.integers(2, 5))),
             sample_in_ball(rng, ball, 1)[0])
            for _ in range(4)
        ]
        samples = self._lip_targets(pairs, c_budget)
        model = rsw_interpolate(samples, c_budget, train_cfg=FAST_TRAIN)
        for m, q, t in samples:
            assert abs(evaluate(model, m, q) - t) <= 1e-6
        for _ in range(60):
            m1 = random_measure_in(rng, ball, 3)
            m2 = random_measure_in(rng, ball, 3)
            z1, z2 = sample_in_ball(rng, ball, 2)
            allowed = float(np.linalg.norm(z1 - z2)) + c_budget * w1_exact(m1, m2)
            if allowed < 1e-9:
                continue
            diff = abs(evaluate(model, m1, z1) - evaluate(model, m2, z2))
            assert diff <= allowed * (1 + 1e-6)

    def test_one_lp_per_measure_pair(self, monkeypatch):
        # Each separator reuses the pair's W1 from the distance matrix, so
        # a 3-sample fit solves one transportation LP per unordered pair.
        rng = RNG(30)
        ball = DomainBall(np.zeros(2), 1.0)
        pairs = [
            (random_measure_in(rng, ball, 3), sample_in_ball(rng, ball, 1)[0])
            for _ in range(3)
        ]
        samples = self._lip_targets(pairs, 1.0)
        calls = []
        counted = lambda mu, nu: calls.append(1) or w1_exact(mu, nu)  # noqa: E731
        monkeypatch.setattr(constructions, "w1_exact", counted)
        model = rsw_interpolate(samples, 1.0, train_cfg=FAST_TRAIN)
        assert len(calls) == 3
        for m, q, t in samples:
            assert abs(evaluate(model, m, q) - t) <= 1e-6

    def test_incompatible_targets(self):
        mu = new_empirical([[0.0, 0.0]])
        nu = new_empirical([[0.1, 0.0]])
        samples = [(mu, np.array([0.0, 0.0]), 0.0), (nu, np.array([0.0, 0.0]), 5.0)]
        with pytest.raises(IncompatibleTargetsError):
            rsw_interpolate(samples, 1.0)

    def test_duplicate_sample_conflict(self):
        mu = new_empirical([[0.0, 0.0]])
        x = np.array([0.0, 0.0])
        with pytest.raises(IncompatibleTargetsError):
            rsw_interpolate([(mu, x, 0.0), (mu, x, 1.0)], 1.0)

    def test_duplicate_sample_merged(self):
        mu = new_empirical([[0.2, 0.0], [0.0, 0.2]])
        nu = new_empirical([[0.9, 0.0], [0.0, 0.9]])
        x = np.array([0.1, 0.1])
        samples = [(mu, x, 0.1), (mu, x, 0.1), (nu, x, 0.4)]
        model = rsw_interpolate(samples, 1.0, train_cfg=FAST_TRAIN)
        assert abs(evaluate(model, mu, x) - 0.1) <= 1e-6
        assert abs(evaluate(model, nu, x) - 0.4) <= 1e-6

    def test_binding_targets_shrunk(self):
        # |t1 - t2| exactly equals the separation budget: strictness is
        # restored by the (1 - 1e-6) shrink toward the mean.
        mu = new_empirical([[0.0, 0.0]])
        nu = new_empirical([[0.0, 0.0]])
        x1, x2 = np.array([0.0, 0.0]), np.array([0.5, 0.0])
        samples = [(mu, x1, 0.0), (nu, x2, 0.5)]
        model = rsw_interpolate(samples, 1.0, train_cfg=FAST_TRAIN)
        assert abs(evaluate(model, mu, x1) - 0.0) <= 1e-6
        assert abs(evaluate(model, nu, x2) - 0.5) <= 1e-6

    def test_sample_cap(self):
        mu = new_empirical([[0.0, 0.0]])
        samples = [(mu, np.array([float(i), 0.0]), 0.0) for i in range(17)]
        with pytest.raises(CapExceededError):
            rsw_interpolate(samples, 1.0)


def _lattice_model():
    a, b = random_scalar_model(1), random_scalar_model(2, h=5, n_blocks=1)
    return lattice_combine(a, b, "max")


def _separator_model():
    rng = RNG(40)
    mu = random_measure_in(rng, DomainBall(np.array([0.6, 0.0]), 0.3), 3)
    nu = random_measure_in(rng, DomainBall(np.array([-0.6, 0.0]), 0.3), 4)
    x, xp = np.array([0.2, 0.1]), np.array([-0.1, 0.3])
    return separator(mu, x, nu, xp, 0.3, -0.2, 1.0, eps=0.05, train_cfg=FAST_TRAIN)


def _kr_model():
    lifting = Lifting(RNG(41).normal(size=(4, 2)), np.zeros(4))
    crit = project_params(Critic(lifting, (), RNG(42).normal(size=4)))
    return kr_integrator(crit, 2.0, DomainBall(np.zeros(2), 1.2))


def _rsw_model():
    rng = RNG(43)
    ball = DomainBall(np.zeros(2), 1.0)
    pairs = [
        (random_measure_in(rng, ball, 3), sample_in_ball(rng, ball, 1)[0])
        for _ in range(3)
    ]
    samples = TestRswInterpolate()._lip_targets(pairs, 1.0)
    return rsw_interpolate(samples, 1.0, train_cfg=FAST_TRAIN)


def _certificates(model):
    """Per-layer ``sup_ay`` and the propagated domain chain, as exact bits."""
    chain = propagate_domains(model)
    return (
        [attn.sup_ay.hex() for attn, _ in model.blocks],
        [(ball.center.tobytes(), ball.radius.hex()) for ball in chain.domains],
        chain.valid,
    )


@pytest.mark.parametrize(
    "build",
    [_lattice_model, _separator_model, _kr_model, _rsw_model],
    ids=["lattice", "separator", "kr_integrator", "rsw"],
)
def test_constructions_round_trip_certificates(build):
    model = build()
    assert any(not attn.is_identity for attn, _ in model.blocks)
    for attn, _ in model.blocks:
        assert attn.sup_ay == ball_sup_ay(attn.A, attn.domain)
    declared = [attn.domain for attn, _ in model.blocks]
    assert all(b.radius < 1e3 for b in declared + list(propagate_domains(model).domains))
    loaded = model_from_json(model_to_json(model))
    assert models_equal(loaded, model)
    assert _certificates(loaded) == _certificates(model)
