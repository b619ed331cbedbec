"""Certification harness: assembled bounds, FD checks, report mechanics."""
import math

import numpy as np
import pytest

from lipctx import certify, layers
from lipctx.certify import (
    certify_model,
    context_lipschitz_bound,
    context_product_bound,
    empirical_context_lipschitz,
    empirical_query_lipschitz,
    jacobian_fd_check,
    potential_grad_check,
    random_clamped_model,
    sample_in_ball,
    spawn_rngs,
)
from lipctx.errors import BoundaryProximityError, NotClampedError
from lipctx.layers import (
    AttentionLayer,
    MlpLayer,
    attn_forward,
    attn_step_bound,
    spectral_norm,
)
from lipctx.measure import DomainBall, new_empirical, w1_exact
from lipctx.serialize import dumps, report_to_json
from lipctx.transformer import Lifting, ScalarModel, clamp_model, is_clamped


def random_attention(rng, dim, radius, eta_frac=None):
    dom = DomainBall(rng.normal(size=dim) * 0.2, radius)
    a = rng.normal(size=(dim, dim)) / math.sqrt(dim)
    frac = rng.uniform(0.2, 1.0) if eta_frac is None else eta_frac
    return AttentionLayer(a, frac * attn_step_bound(a, dom), dom)


class TestContextLipschitzBound:
    def test_zero_matrix(self):
        layer = AttentionLayer(np.zeros((2, 2)), 0.5, DomainBall(np.zeros(2), 1.0))
        cc = context_lipschitz_bound(layer)
        assert cc.c1 == 0.0 and not cc.vacuous

    def test_zero_step(self):
        layer = AttentionLayer(np.eye(2), 0.0, DomainBall(np.zeros(2), 1.0))
        assert context_lipschitz_bound(layer).c1 == 0.0

    def test_constants_assembly(self):
        dom = DomainBall(np.zeros(2), 1.0)
        layer = AttentionLayer(np.eye(2), 0.5, dom)
        cc = context_lipschitz_bound(layer)
        op = spectral_norm(np.eye(2))
        assert 1.0 <= op <= 1.0 + 1e-12
        r_sup = 1.0
        b = op * r_sup**2
        assert cc.score_bound == pytest.approx(b, rel=1e-12)
        assert cc.score_lipschitz == pytest.approx(op * r_sup, rel=1e-12)
        assert cc.z_lo == pytest.approx(math.exp(-b), rel=1e-12)
        assert cc.z_hi == pytest.approx(math.exp(b), rel=1e-12)
        want = 0.5 * (
            math.exp(2 * b) * op * (1 + r_sup * op * r_sup)
            + math.exp(4 * b) * op * r_sup * op * r_sup
        )
        assert cc.c1 == pytest.approx(want, rel=1e-12)

    def test_vacuous_flag(self):
        layer = AttentionLayer(np.eye(2), 0.01, DomainBall(np.zeros(2), 3.0))
        assert context_lipschitz_bound(layer).vacuous

    def test_empirical_ratio_below_c1(self):
        rng = np.random.default_rng(0)
        for seed in range(4):
            layer = random_attention(rng, 2, radius=float(rng.uniform(0.3, 1.5)))
            cc = context_lipschitz_bound(layer)
            assert not cc.vacuous
            for _ in range(60):
                mu = new_empirical(sample_in_ball(rng, layer.domain, int(rng.integers(1, 5))))
                nu = new_empirical(sample_in_ball(rng, layer.domain, int(rng.integers(1, 5))))
                gap = w1_exact(mu, nu)
                if gap < 1e-9:
                    continue
                x = sample_in_ball(rng, layer.domain, 1)[0]
                diff = float(
                    np.linalg.norm(attn_forward(layer, mu, x) - attn_forward(layer, nu, x))
                )
                assert diff <= cc.c1 * gap * (1 + 1e-9)


class TestEmpiricalQueryLipschitz:
    def test_identity_model_passes(self):
        model = ScalarModel(
            Lifting(np.eye(2), np.zeros(2)), (), np.array([1.0, 0.0]),
            DomainBall(np.zeros(2), 1.0), 1.0,
        )
        entry, witness = empirical_query_lipschitz(model, 5, 100, seed=0)
        assert entry.passed and entry.stat <= 1 + 1e-9
        assert witness is not None  # argmax sample always recorded

    def test_zero_readout(self):
        model = ScalarModel(
            Lifting(np.eye(2), np.zeros(2)), (), np.zeros(2),
            DomainBall(np.zeros(2), 1.0), 1.0,
        )
        entry, _ = empirical_query_lipschitz(model, 3, 50, seed=0)
        assert entry.stat == 0.0

    def test_refuses_unclamped(self):
        rng = np.random.default_rng(1)
        attn = AttentionLayer(
            rng.normal(size=(3, 3)), 99.0, DomainBall(np.zeros(3), 0.01)
        )
        mlp = MlpLayer(np.zeros((1, 3)), np.zeros(1), 0.0)
        model = ScalarModel(
            Lifting(np.eye(3), np.zeros(3)), ((attn, mlp),), np.ones(3),
            DomainBall(np.zeros(3), 1.0), 1.0,
        )
        with pytest.raises(NotClampedError):
            empirical_query_lipschitz(model, 2, 10, seed=0)

    def test_random_clamped_models_pass(self):
        for seed in range(3):
            model = random_clamped_model(3, 6, 2, seed=seed)
            entry, _ = empirical_query_lipschitz(model, 5, 200, seed=seed)
            assert entry.passed


class TestEmpiricalContextLipschitz:
    def test_context_free_model(self):
        model = random_clamped_model(2, 4, 0, seed=0)
        entry, _ = empirical_context_lipschitz(model, 2, 10, seed=0)
        assert entry.stat == 0.0

    def test_single_layer_matches_layer_bound(self):
        rng = np.random.default_rng(2)
        dom = DomainBall(np.zeros(2), 1.0)
        a = rng.normal(size=(2, 2)) / math.sqrt(2)
        attn = AttentionLayer(a, 0.5 * attn_step_bound(a, dom), dom)
        mlp = MlpLayer(np.zeros((1, 2)), np.zeros(1), 0.0)
        model = clamp_model(
            ScalarModel(
                Lifting(np.eye(2), np.zeros(2)), ((attn, mlp),), np.array([1.0, 0.0]),
                DomainBall(np.zeros(2), 0.8), 1.0,
            )
        )
        entry, _ = empirical_context_lipschitz(model, 3, 25, seed=3)
        assert entry.passed
        bound, vacuous = context_product_bound(model)
        assert not vacuous
        assert entry.bound == pytest.approx(bound)


class TestFiniteDifferenceChecks:
    def test_point_mass_near_exact(self):
        rng = np.random.default_rng(3)
        layer = random_attention(rng, 2, radius=1.0)
        mu = new_empirical([layer.domain.center + 0.1])
        x = layer.domain.center + 0.05
        # FD of a linear map: exact up to rounding noise of order ulp/h
        assert jacobian_fd_check(layer, mu, x) <= 1e-9
        assert potential_grad_check(layer, mu, x) <= 1e-9

    def test_zero_step(self):
        dom = DomainBall(np.zeros(2), 1.0)
        layer = AttentionLayer(np.eye(2), 0.0, dom)
        mu = new_empirical(sample_in_ball(np.random.default_rng(4), dom, 4))
        x = np.array([0.1, 0.1])
        assert jacobian_fd_check(layer, mu, x) <= 1e-9
        assert potential_grad_check(layer, mu, x) <= 1e-5

    def test_random_instances(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            layer = random_attention(rng, int(rng.integers(1, 5)),
                                     radius=float(rng.uniform(0.5, 1.8)))
            interior = DomainBall(layer.domain.center, layer.domain.radius * 0.8)
            mu = new_empirical(sample_in_ball(rng, interior, int(rng.integers(1, 8))))
            x = sample_in_ball(rng, interior, 1)[0]
            assert jacobian_fd_check(layer, mu, x) <= 1e-5
            assert potential_grad_check(layer, mu, x) <= 1e-5

    def test_boundary_proximity_raises(self):
        dom = DomainBall(np.zeros(2), 1.0)
        layer = AttentionLayer(np.eye(2), 0.1, dom)
        mu = new_empirical([[0.0, 0.0]])
        edge = np.array([1.0 - 1e-9, 0.0])
        with pytest.raises(BoundaryProximityError):
            jacobian_fd_check(layer, mu, edge)

    def test_trial_forms_one_covariance_and_one_probe_batch(self, monkeypatch):
        # The analytic Jacobian, the symmetry and the PSD stats share one
        # covariance, and the 2d Jacobian probes run as one query batch.
        model = random_clamped_model(3, 4, 1, seed=2)
        assert model.blocks[0][0].eta > 0.0
        covariances, batches = [], []
        cov, apply = layers.attn_covariance, layers.attn_apply_batch

        def counting_cov(*args):
            covariances.append(1)
            return cov(*args)

        def counting_apply(layer, mu, queries):
            batches.append(np.shape(queries))
            return apply(layer, mu, queries)

        for module in (layers, certify):
            monkeypatch.setattr(module, "attn_covariance", counting_cov)
            monkeypatch.setattr(module, "attn_apply_batch", counting_apply, raising=False)
        certify_model(model, n_measures=1, n_pairs=2, context_anchors=1,
                      context_pairs=1, fd_trials=1)
        h = model.width
        assert len(covariances) == 1
        # The probe batch, then potential_grad_check's one update at x.
        assert batches == [(2 * h, h), (1, h)]


class TestCertifyModel:
    def test_full_report_passes_and_reproduces(self):
        model = random_clamped_model(2, 5, 2, seed=7)
        rep1 = certify_model(model, n_measures=4, n_pairs=60, seed=11,
                             context_anchors=2, context_pairs=8, fd_trials=5)
        rep2 = certify_model(model, n_measures=4, n_pairs=60, seed=11,
                             context_anchors=2, context_pairs=8, fd_trials=5)
        assert rep1.passed
        assert dumps(report_to_json(rep1)) == dumps(report_to_json(rep2))

    def test_tiny_step_passes_covariance_psd(self):
        # The first attention step is 1.8e-5 of its bound; reading Cov back
        # out of (I - J) / eta amplified rounding past the 1e-12 bound.
        model = random_clamped_model(6, 12, 3, seed=655853295)
        rep = certify_model(model, n_measures=4, n_pairs=60, seed=11,
                            context_anchors=2, context_pairs=8, fd_trials=20)
        assert {c.name: c.passed for c in rep.checks}["covariance_psd"]
        assert rep.passed

    def test_tolerance_override_can_fail(self):
        model = random_clamped_model(2, 5, 2, seed=8)
        rep = certify_model(
            model, n_measures=2, n_pairs=30, seed=0, context_anchors=1,
            context_pairs=5, fd_trials=3, tolerances={"jacobian_fd": 0.0},
        )
        assert not rep.passed
        names = {c.name: c for c in rep.checks}
        assert not names["jacobian_fd"].passed

    def test_model_hash_stable(self):
        model = random_clamped_model(2, 4, 1, seed=9)
        r1 = certify_model(model, n_measures=1, n_pairs=10, seed=0,
                           context_anchors=1, context_pairs=2, fd_trials=1)
        r2 = certify_model(model, n_measures=1, n_pairs=10, seed=1,
                           context_anchors=1, context_pairs=2, fd_trials=1)
        assert r1.model_hash == r2.model_hash


class TestSamplingUtilities:
    def test_spawned_rngs_are_stable(self):
        a = [r.random() for r in spawn_rngs(42, 4)]
        b = [r.random() for r in spawn_rngs(42, 4)]
        assert a == b

    def test_ball_sampling_stays_inside(self):
        rng = np.random.default_rng(6)
        ball = DomainBall(np.array([1.0, -2.0, 0.5]), 0.7)
        pts = sample_in_ball(rng, ball, 500)
        assert np.all(np.linalg.norm(pts - ball.center, axis=1) <= ball.radius + 1e-12)

    def test_random_model_is_clamped(self):
        # The certify_sweep shapes too: each step lands in bound by its own
        # draw, as no constructor projects it.
        shapes = ((2, 6, 3), (8, 16, 4), (2, 4, 1), (6, 12, 3), (4, 8, 2), (7, 2, 4))
        for d, h, depth in shapes:
            for seed in range(4):
                assert is_clamped(random_clamped_model(d, h, depth, seed=seed))
