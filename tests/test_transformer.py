"""Deep model forward semantics, domain tracking, clamping, determinism."""
import numpy as np
import pytest

from lipctx.certify import random_clamped_model, sample_in_ball
from lipctx.errors import DimensionMismatchError, DomainViolationError
from lipctx.layers import AttentionLayer, MlpLayer, attn_step_bound
from lipctx.measure import DomainBall, EmpiricalMeasure, new_empirical
from lipctx.transformer import (
    Lifting,
    ScalarModel,
    clamp_model,
    evaluate,
    evaluate_batch,
    forward_tokens,
    is_clamped,
    lift,
    models_equal,
    propagate_domains,
)

UNIT_1D = DomainBall(np.zeros(1), 1.0)


def identity_model(d, readout=None, radius=1.0, blocks=()):
    lifting = Lifting(np.eye(d), np.zeros(d))
    ro = np.zeros(d) if readout is None else np.asarray(readout, dtype=np.float64)
    return ScalarModel(lifting, blocks, ro, DomainBall(np.zeros(d), radius), 1.0)


class TestLift:
    def test_identity(self):
        model = identity_model(2)
        mu = new_empirical([[0.1, 0.2], [0.3, -0.1]])
        nu, q = lift(model, mu, np.array([0.5, 0.5]))
        np.testing.assert_array_equal(nu.points, mu.points)
        np.testing.assert_array_equal(q, [0.5, 0.5])

    def test_translation(self):
        lifting = Lifting(np.eye(2), np.array([1.0, -1.0]))
        model = ScalarModel(lifting, (), np.zeros(2), DomainBall(np.zeros(2), 1.0), 1.0)
        mu = new_empirical([[0.0, 0.0]])
        nu, q = lift(model, mu, np.array([0.2, 0.2]))
        np.testing.assert_array_equal(nu.points, [[1.0, -1.0]])
        np.testing.assert_array_equal(q, [1.2, -0.8])

    def test_zero_matrix_collapses(self):
        lifting = Lifting(np.zeros((3, 2)), np.array([1.0, 2.0, 3.0]))
        model = ScalarModel(lifting, (), np.zeros(3), DomainBall(np.zeros(2), 1.0), 1.0)
        mu = new_empirical([[0.1, 0.1], [-0.2, 0.3]])
        nu, q = lift(model, mu, np.array([0.0, 0.0]))
        assert np.all(nu.points == [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(q, [1.0, 2.0, 3.0])

    def test_domain_violation(self):
        model = identity_model(2)
        mu = new_empirical([[0.0, 0.0]])
        with pytest.raises(DomainViolationError):
            lift(model, mu, np.array([5.0, 0.0]))


class TestForwardTokens:
    def test_empty_composition(self):
        model = identity_model(2)
        mu = new_empirical([[0.4, -0.2]])
        nu, q = forward_tokens(model, mu, np.array([0.1, 0.1]))
        np.testing.assert_array_equal(nu.points, mu.points)
        np.testing.assert_array_equal(q, [0.1, 0.1])

    def test_identity_blocks(self):
        d = 2
        attn = AttentionLayer(np.zeros((d, d)), 0.0, DomainBall(np.zeros(d), 10.0))
        mlp = MlpLayer(np.zeros((1, d)), np.zeros(1), 0.0)
        model = identity_model(d, blocks=((attn, mlp),) * 3)
        mu = new_empirical([[0.3, 0.1], [-0.2, 0.4]], weights=[0.7, 0.3])
        nu, q = forward_tokens(model, mu, np.array([0.2, -0.3]))
        np.testing.assert_array_equal(nu.points, mu.points)
        np.testing.assert_array_equal(q, [0.2, -0.3])

    def test_single_attention_block_point_mass(self):
        rng = np.random.default_rng(0)
        d = 2
        a = rng.normal(size=(d, d))
        dom = DomainBall(np.zeros(d), 3.0)
        eta = 0.2
        attn = AttentionLayer(a, eta, dom, clamp=False)
        mlp = MlpLayer(np.zeros((1, d)), np.zeros(1), 0.0)
        model = identity_model(d, blocks=((attn, mlp),), radius=1.0)
        y = np.array([0.3, -0.4])
        x = np.array([0.5, 0.2])
        nu, q = forward_tokens(model, new_empirical([y]), x)
        np.testing.assert_allclose(q, x - eta * (a @ y), atol=1e-14)
        np.testing.assert_allclose(nu.points[0], y - eta * (a @ y), atol=1e-14)

    def test_reports_violation_stage(self):
        d = 2
        tight = AttentionLayer(np.zeros((d, d)), 0.0, DomainBall(np.zeros(d), 1e-3))
        mlp = MlpLayer(np.zeros((1, d)), np.zeros(1), 0.0)
        model = identity_model(d, blocks=((tight, mlp),))
        with pytest.raises(DomainViolationError) as err:
            forward_tokens(model, new_empirical([[0.5, 0.5]]), np.array([0.0, 0.0]))
        assert err.value.stage == 0
        # At radius 1 the slack is the absolute 1e-9 alone: a point 1e-7
        # outside fails at the input (stage None) and at the stage that
        # declares the ball, whether that layer is the identity or not.
        with pytest.raises(DomainViolationError) as err:
            forward_tokens(identity_model(d), new_empirical([[0.0, 0.0]]),
                           np.array([1.0 + 1e-7, 0.0]))
        assert err.value.stage is None
        wide = AttentionLayer(np.zeros((d, d)), 0.0, DomainBall(np.zeros(d), 2.0))
        unit = DomainBall(np.zeros(d), 1.0)
        for attn in (
            AttentionLayer(np.zeros((d, d)), 0.0, unit),
            AttentionLayer(np.eye(d), 0.1, unit),
        ):
            model = identity_model(d, radius=2.0, blocks=((wide, mlp), (attn, mlp)))
            forward_tokens(model, new_empirical([[1.0 + 5e-10, 0.0]]), np.zeros(d))
            with pytest.raises(DomainViolationError) as err:
                forward_tokens(model, new_empirical([[1.0 + 1e-7, 0.0]]), np.zeros(d))
            assert err.value.stage == 1
        # NaN fails closed: a NaN query at the input, and a NaN atom (the
        # lifting overflows to inf - inf) at the first stage that checks it.
        with pytest.raises(DomainViolationError) as err:
            evaluate_batch(identity_model(d), new_empirical([[0.0, 0.0]]), [[np.nan, 0.0]])
        assert err.value.stage is None
        overflow = ScalarModel(Lifting(np.full((d, d), 8e307), np.zeros(d)),
                               ((tight, mlp),), np.zeros(d), DomainBall(np.zeros(d), 5.0), 1.0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DomainViolationError) as err:
                evaluate_batch(overflow, new_empirical([[3.0, -3.0]]), np.zeros((1, d)))
        assert err.value.stage == 0

    def test_atoms_checked_once_per_layer(self, monkeypatch):
        # The input atoms and queries are checked once each; every
        # attention layer then checks its atoms once and its queries once,
        # although the atoms also attend as a query batch.
        model = random_clamped_model(3, 6, 3, seed=4)
        assert not any(attn.is_identity for attn, _ in model.blocks)
        rng = np.random.default_rng(10)
        mu = new_empirical(sample_in_ball(rng, model.input_domain, 6))
        xs = sample_in_ball(rng, model.input_domain, 4)
        checks = []
        original = DomainBall.require

        def counting(self, points, what, stage=None):
            checks.append(what)
            original(self, points, what, stage)

        monkeypatch.setattr(DomainBall, "require", counting)
        evaluate_batch(model, mu, xs)
        assert len(checks) == 2 + 2 * model.depth
        assert checks.count("context atom") == model.depth


class TestEvaluate:
    def test_zero_readout(self):
        model = identity_model(3)
        mu = new_empirical([[0.1, 0.0, 0.0]])
        assert evaluate(model, mu, np.array([0.2, 0.3, -0.1])) == 0.0

    def test_coordinate_projection(self):
        model = identity_model(2, readout=[1.0, 0.0])
        mu = new_empirical([[0.0, 0.0]])
        assert evaluate(model, mu, np.array([0.37, -0.5])) == 0.37

    def test_readout_additivity(self):
        model = random_clamped_model(2, 5, 2, seed=4)
        rng = np.random.default_rng(1)
        mu = new_empirical(sample_in_ball(rng, model.input_domain, 4))
        x = sample_in_ball(rng, model.input_domain, 1)[0]
        v = rng.normal(size=5)
        w = rng.normal(size=5)
        def with_readout(r):
            return ScalarModel(
                model.lifting, model.blocks, r, model.input_domain, model.lipschitz_c
            )
        got = evaluate(with_readout(v + w), mu, x)
        want = evaluate(with_readout(v), mu, x) + evaluate(with_readout(w), mu, x)
        assert got == pytest.approx(want, abs=1e-12)


class TestPropagateDomains:
    def test_identity_model_chain(self):
        d = 2
        attn = AttentionLayer(np.zeros((d, d)), 0.0, DomainBall(np.zeros(d), 1.0))
        mlp = MlpLayer(np.zeros((1, d)), np.zeros(1), 0.0)
        model = clamp_model(identity_model(d, blocks=((attn, mlp),)))
        chain = propagate_domains(model)
        assert len(chain.domains) == 3
        assert chain.all_valid
        for ball in chain.domains:
            np.testing.assert_array_equal(ball.center, np.zeros(d))
            assert ball.radius == pytest.approx(1.0, rel=2e-6)

    def test_max_step_growth(self):
        d = 2
        dom = DomainBall(np.zeros(d), 1.0)
        a = np.eye(d)
        bound = attn_step_bound(a, dom)
        attn = AttentionLayer(a, bound, dom)
        mlp = MlpLayer(np.zeros((1, d)), np.zeros(1), 0.0)
        model = identity_model(d, blocks=((attn, mlp),))
        chain = propagate_domains(model)
        # radius grows by eta * sup = 2 / sup per attention layer
        growth = chain.domains[1].radius - chain.domains[0].radius
        assert growth == pytest.approx(2.0 / attn.sup_ay, rel=1e-12)

    def test_flags_undeclared_domain(self):
        d = 2
        small = AttentionLayer(np.zeros((d, d)), 0.0, DomainBall(np.zeros(d), 0.5))
        mlp = MlpLayer(np.zeros((1, d)), np.zeros(1), 0.0)
        model = identity_model(d, blocks=((small, mlp),))
        chain = propagate_domains(model)
        assert chain.valid == (False,)
        # A declared ball 1e-7 smaller than the propagated one is flagged at
        # every radius: the slack is an absolute 1e-9, not relative.
        for radius in (1.0, 1e6):
            lifted = propagate_domains(identity_model(d, radius=radius)).domains[0]
            for shortfall, valid in ((1e-7, False), (5e-10, True)):
                declared = DomainBall(lifted.center, lifted.radius - shortfall)
                attn = AttentionLayer(np.zeros((d, d)), 0.0, declared)
                model = identity_model(d, radius=radius, blocks=((attn, mlp),))
                assert propagate_domains(model).valid == (valid,)


class TestClampModel:
    def test_random_model_becomes_valid(self):
        rng = np.random.default_rng(5)
        d, h = 2, 4
        lifting = Lifting(rng.normal(size=(h, d)), rng.normal(size=h) * 0.1)
        blocks = []
        for _ in range(3):
            attn = AttentionLayer(
                rng.normal(size=(h, h)), 50.0, DomainBall(np.zeros(h), 0.01), clamp=False
            )
            mlp = MlpLayer(rng.normal(size=(h, h)), rng.normal(size=h), 9.0, clamp=False)
            blocks.append((attn, mlp))
        model = ScalarModel(
            lifting, tuple(blocks), np.ones(h), DomainBall(np.zeros(d), 1.0), 1.0
        )
        clamped = clamp_model(model)
        assert propagate_domains(clamped).all_valid
        assert is_clamped(clamped)

    def test_exact_idempotence(self):
        model = clamp_model(random_clamped_model(3, 6, 3, seed=9))
        again = clamp_model(model)
        assert models_equal(model, again)

    def test_identity_model_untouched_parameters(self):
        d = 2
        attn = AttentionLayer(np.zeros((d, d)), 0.0, DomainBall(np.zeros(d), 5.0))
        mlp = MlpLayer(np.zeros((1, d)), np.zeros(1), 0.0)
        model = identity_model(d, blocks=((attn, mlp),))
        clamped = clamp_model(model)
        new_attn, new_mlp = clamped.blocks[0]
        assert new_attn.eta == 0.0 and new_mlp.tau == 0.0
        np.testing.assert_array_equal(new_attn.A, attn.A)
        np.testing.assert_array_equal(new_mlp.W, mlp.W)


class TestDeepLipschitz:
    def test_query_ratio_bounded(self):
        rng = np.random.default_rng(6)
        for seed in range(3):
            model = random_clamped_model(3, 8, 3, seed=seed)
            dom = model.input_domain
            mu = new_empirical(sample_in_ball(rng, dom, 6))
            x1 = sample_in_ball(rng, dom, 300)
            x2 = sample_in_ball(rng, dom, 300)
            num = np.abs(evaluate_batch(model, mu, x1) - evaluate_batch(model, mu, x2))
            den = np.linalg.norm(x1 - x2, axis=1)
            keep = den >= 1e-9
            bound = float(np.linalg.norm(model.readout)) * (1 + 1e-9)
            assert np.all(num[keep] <= den[keep] * bound)


class TestDeterminism:
    def test_permutation_invariance_bitwise(self):
        rng = np.random.default_rng(7)
        model = random_clamped_model(2, 6, 3, seed=1)
        pts = sample_in_ball(rng, model.input_domain, 7)
        w = rng.random(7)
        x = sample_in_ball(rng, model.input_domain, 1)[0]
        base = evaluate(model, new_empirical(pts, w), x)
        for _ in range(5):
            perm = rng.permutation(7)
            assert evaluate(model, new_empirical(pts[perm], w[perm]), x) == base

    def test_composition_consistency_exact(self):
        rng = np.random.default_rng(8)
        model = random_clamped_model(2, 5, 4, seed=2)
        first = ScalarModel(
            model.lifting, model.blocks[:2], model.readout, model.input_domain, 1.0
        )
        second = ScalarModel(
            Lifting(np.eye(5), np.zeros(5)),
            model.blocks[2:],
            model.readout,
            DomainBall(np.zeros(5), 1e12),
            1.0,
        )
        mu = new_empirical(sample_in_ball(rng, model.input_domain, 5))
        x = sample_in_ball(rng, model.input_domain, 1)[0]
        full_meas, full_q = forward_tokens(model, mu, x)
        mid_meas, mid_q = forward_tokens(first, mu, x)
        got_meas, got_q = forward_tokens(second, mid_meas, mid_q)
        np.testing.assert_array_equal(got_q, full_q)
        np.testing.assert_array_equal(got_meas.points, full_meas.points)

    def test_forward_builds_no_stage_measures(self, monkeypatch):
        # The stack runs on arrays: evaluate_batch builds no measure and
        # forward_tokens builds only the one it returns.
        model = random_clamped_model(3, 6, 3, seed=4)
        rng = np.random.default_rng(10)
        mu = new_empirical(sample_in_ball(rng, model.input_domain, 6))
        xs = sample_in_ball(rng, model.input_domain, 4)
        builds = []
        original = EmpiricalMeasure.__post_init__

        def counting(self):
            builds.append(1)
            original(self)

        monkeypatch.setattr(EmpiricalMeasure, "__post_init__", counting)
        evaluate_batch(model, mu, xs)
        assert len(builds) == 0
        forward_tokens(model, mu, xs[0])
        assert len(builds) == 1

    def test_repeat_evaluation_bit_identical(self):
        model = random_clamped_model(3, 6, 2, seed=3)
        rng = np.random.default_rng(9)
        mu = new_empirical(sample_in_ball(rng, model.input_domain, 8))
        x = sample_in_ball(rng, model.input_domain, 1)[0]
        assert evaluate(model, mu, x) == evaluate(model, mu, x)


class TestValidation:
    def test_width_mismatch(self):
        attn = AttentionLayer(np.zeros((3, 3)), 0.0, DomainBall(np.zeros(3), 1.0))
        mlp = MlpLayer(np.zeros((1, 2)), np.zeros(1), 0.0)
        with pytest.raises(DimensionMismatchError):
            ScalarModel(
                Lifting(np.eye(3), np.zeros(3)),
                ((attn, mlp),),
                np.zeros(3),
                DomainBall(np.zeros(3), 1.0),
                1.0,
            )

    def test_readout_size(self):
        with pytest.raises(DimensionMismatchError):
            identity_model(2, readout=[1.0, 0.0, 0.0])
