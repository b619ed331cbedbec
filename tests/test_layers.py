"""Layer primitives: spectral certification, forwards, potentials, Jacobians."""
import math
from fractions import Fraction

import numpy as np
import pytest

from lipctx.errors import DomainViolationError, InvalidMeasureError
from lipctx.layers import (
    FEAS_SLACK,
    AttentionLayer,
    MlpLayer,
    attn_forward,
    attn_jacobian,
    attn_potential,
    attn_softmax_mean,
    attn_step_bound,
    ball_sup_ay,
    mlp_forward,
    softmax_weights,
    spectral_norm,
)
from lipctx.measure import DomainBall, new_empirical


def sample_ball(rng, ball, size):
    dirs = rng.standard_normal((size, ball.dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return ball.center + dirs * (ball.radius * rng.random(size)[:, None] ** (1 / ball.dim))


def random_attention(rng, dim, radius=1.2, eta_frac=None):
    dom = DomainBall(rng.normal(size=dim) * 0.2, radius)
    a = rng.normal(size=(dim, dim)) / math.sqrt(dim)
    frac = rng.uniform(0.1, 1.0) if eta_frac is None else eta_frac
    return AttentionLayer(a, frac * attn_step_bound(a, dom), dom)


def assert_tight(cert, m):
    """svd <= cert <= svd * (1 + 1e-12): sound and within rounding of it."""
    top = float(np.linalg.svd(m, compute_uv=False)[0])
    assert top <= cert <= top * (1 + 1e-12)


def near_tie_matrix(rng, n, delta):
    """n x n matrix with s1 in [0.5, 2] and s2 = s1 (1 - delta)."""
    u = np.linalg.qr(rng.normal(size=(n, n)))[0]
    v = np.linalg.qr(rng.normal(size=(n, n)))[0]
    s1 = float(rng.uniform(0.5, 2.0))
    s = np.sort(rng.uniform(0.0, s1 * (1 - delta), n))[::-1]
    s[0], s[1] = s1, s1 * (1 - delta)
    return (u * s) @ v.T


class TestSpectralNorm:
    def test_identity(self):
        assert_tight(spectral_norm(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        m = np.diag([3.0, 1.0])
        assert_tight(spectral_norm(m), m)

    def test_matches_svd_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            m = rng.normal(size=(5, 4)) * 10.0 ** float(rng.integers(-2, 3))
            assert_tight(spectral_norm(m), m)

    def test_zero_matrix(self):
        assert spectral_norm(np.zeros((3, 2))) == 0.0

    def test_kernel_orthogonal_row(self):
        # The all-ones vector is exactly orthogonal to the top right
        # singular vector, so no start vector may be assumed.
        c = 1.0 / math.sqrt(2.0)
        m = np.array([[c, -c]])
        assert_tight(spectral_norm(m), m)
        assert_tight(spectral_norm(m.T), m.T)

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidMeasureError):
            spectral_norm(np.array([[np.nan, 0.0]]))

    def test_near_tie_spectra(self):
        # s2 = s1 (1 - delta) for delta from 1e-9 to 1e-3: no certificate
        # below the SVD norm, and a clamped MLP layer with every ReLU
        # active (Jacobian I - tau W^T W) stays 1-Lipschitz.
        rng = np.random.default_rng(20)
        for _ in range(500):
            m = near_tie_matrix(rng, 8, 10.0 ** float(rng.uniform(-9.0, -3.0)))
            assert spectral_norm(m) >= np.linalg.norm(m, 2)
            layer = MlpLayer(m, np.ones(8), 1e3)
            assert np.all(layer.W @ np.zeros(8) + layer.b > 0.0)
            jac = np.eye(8) - layer.tau * (layer.W.T @ layer.W)
            assert np.linalg.norm(jac, 2) <= 1 + 1e-12

    def test_relative_inflation_up_to_400(self):
        rng = np.random.default_rng(21)
        flat = np.linalg.qr(rng.normal(size=(400, 400)))[0]  # all s_i = 1
        shapes = ((400, 400), (400, 7), (7, 400), (60, 130))
        mats = [flat] + [rng.normal(size=shape) for shape in shapes]
        for m in mats:
            top = float(np.linalg.svd(m, compute_uv=False)[0])
            cert = spectral_norm(m)
            assert top <= cert <= top * (1 + 1e-9)

    def test_wrong_eigenvalue_stays_sound(self, monkeypatch):
        # The Cholesky check, not the eigensolver, carries the proof: an
        # eigensolver that undershoots only widens the shift.
        from lipctx import layers

        real = layers.lapack.dsyevd

        def low(a, **kw):
            w, v, info = real(a, **kw)
            return w * 0.5, v, info

        monkeypatch.setattr(layers.lapack, "dsyevd", low)
        rng = np.random.default_rng(22)
        for shape in ((1, 1), (6, 6), (9, 4)):
            m = rng.normal(size=shape)
            assert spectral_norm(m) >= np.linalg.norm(m, 2)

    def test_subnormal_norm_rounds_up(self):
        # Scaling back into the subnormal range must not round down.
        for v in (5e-324, 3e-320, 1.3e-310):
            cert = spectral_norm(np.array([[v, v]]))
            assert Fraction(cert) ** 2 >= 2 * Fraction(v) ** 2


class TestMlpLayer:
    def test_zero_step_is_identity(self):
        layer = MlpLayer(np.array([[2.0, 1.0]]), np.array([0.3]), 0.0)
        x = np.array([0.7, -1.1])
        np.testing.assert_array_equal(mlp_forward(layer, x), x)

    def test_scalar_examples(self):
        layer = MlpLayer(np.array([[1.0]]), np.array([0.0]), 2.0)
        assert mlp_forward(layer, np.array([1.0]))[0] == pytest.approx(-1.0, abs=1e-15)
        # relu inactive: identity branch
        assert mlp_forward(layer, np.array([-1.0]))[0] == -1.0

    def test_clamp_to_bound(self):
        layer = MlpLayer(np.array([[1.0]]), np.array([0.0]), 10.0)
        assert layer.tau == 2.0 / layer.cert_spec_norm**2
        assert 2.0 / (1 + 1e-12) ** 2 <= layer.tau <= 2.0

    def test_clamp_above_true_bound(self):
        # 2.00001 is above the true bound 2 by more than the slack, so
        # both layers must clamp (else the ReLU-active Jacobian is -1.00001).
        layer = MlpLayer(np.array([[1.0]]), np.array([0.0]), 2.00001)
        assert layer.tau < 2.00001 and layer.tau <= 2.0 * (1 + FEAS_SLACK)
        attn = AttentionLayer(np.eye(2), 2.00001, DomainBall(np.zeros(2), 1.0))
        assert attn.eta < 2.00001 and attn.eta <= 2.0 * (1 + FEAS_SLACK)

    def test_clamp_noop_when_feasible(self):
        layer = MlpLayer(np.array([[1.0]]), np.array([0.0]), 0.1)
        assert layer.tau == 0.1
        clamped = MlpLayer(layer.W, layer.b, layer.tau)
        assert clamped.tau == 0.1

    def test_clamp_negative_to_zero(self):
        assert MlpLayer(np.array([[1.0]]), np.array([0.0]), -0.5).tau == 0.0

    def test_zero_weights_leave_tau(self):
        layer = MlpLayer(np.zeros((1, 2)), np.zeros(1), 7.0)
        assert layer.tau == 7.0  # identity regardless of tau

    def test_cert_dominates_true_norm(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            w = rng.normal(size=(int(rng.integers(1, 5)), int(rng.integers(1, 5))))
            layer = MlpLayer(w, np.zeros(w.shape[0]), 0.5)
            assert layer.cert_spec_norm >= float(np.linalg.svd(w, compute_uv=False)[0])

    def test_feasibility_slack_admits_exact_parameters(self):
        # tau exactly at the true-norm bound must survive the certified clamp
        c = 1.0 / math.sqrt(2.0)
        layer = MlpLayer(np.array([[c, -c]]), np.zeros(1), 2.0)
        assert layer.tau == 2.0
        assert layer.tau <= (2.0 / layer.cert_spec_norm**2) * (1 + FEAS_SLACK)

    def test_query_one_lipschitz(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            k, d = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            layer = MlpLayer(
                rng.normal(size=(k, d)), rng.normal(size=k), float(rng.uniform(0, 5))
            )
            x1 = rng.normal(size=(2000, d))
            x2 = rng.normal(size=(2000, d))
            from lipctx.layers import mlp_forward_batch

            num = np.linalg.norm(
                mlp_forward_batch(layer, x1) - mlp_forward_batch(layer, x2), axis=1
            )
            den = np.linalg.norm(x1 - x2, axis=1)
            keep = den >= 1e-9
            assert np.all(num[keep] <= den[keep] * (1 + 1e-9))


class TestSoftmax:
    def test_weighted_simplex(self):
        rng = np.random.default_rng(4)
        scores = rng.normal(size=9) * 30
        weights = rng.random(9)
        weights /= weights.sum()
        p = softmax_weights(scores, weights)
        assert np.all(p >= 0)
        assert abs(float(np.sum(p)) - 1.0) <= 1e-12

    def test_shift_invariance(self):
        rng = np.random.default_rng(5)
        scores = rng.normal(size=6)
        weights = np.full(6, 1 / 6)
        p1 = softmax_weights(scores, weights)
        p2 = softmax_weights(scores + 123.456, weights)
        np.testing.assert_allclose(p1, p2, atol=1e-15)

    def test_zero_weight_atoms_ignored(self):
        # a huge score on a zero-weight atom must not poison the weights
        p = softmax_weights(np.array([0.0, 1e4]), np.array([1.0, 0.0]))
        np.testing.assert_array_equal(p, [1.0, 0.0])


class TestAttentionForward:
    def test_zero_step_identity(self):
        layer = random_attention(np.random.default_rng(0), 3, eta_frac=0.0)
        mu = new_empirical(np.zeros((2, 3)))
        x = np.array([0.1, -0.2, 0.05])
        np.testing.assert_array_equal(attn_forward(layer, mu, x), x)

    def test_single_atom(self):
        rng = np.random.default_rng(6)
        dom = DomainBall(np.zeros(2), 2.0)
        a = rng.normal(size=(2, 2))
        layer = AttentionLayer(a, 0.3, dom, clamp=False)
        y = np.array([0.4, -0.3])
        x = np.array([-0.2, 0.6])
        got = attn_forward(layer, new_empirical([y]), x)
        np.testing.assert_allclose(got, x - 0.3 * (a @ y), atol=1e-14)

    def test_symmetric_scores_cancel(self):
        layer = AttentionLayer(np.array([[1.0]]), 0.5, DomainBall(np.zeros(1), 1.5))
        mu = new_empirical([[-1.0], [1.0]])
        assert attn_forward(layer, mu, np.array([0.0]))[0] == 0.0

    def test_domain_violation_fails_closed(self):
        layer = AttentionLayer(np.eye(2), 0.1, DomainBall(np.zeros(2), 1.0))
        inside = new_empirical([[0.1, 0.2]])
        with pytest.raises(DomainViolationError):
            attn_forward(layer, inside, np.array([2.0, 0.0]))
        outside = new_empirical([[1.5, 1.5]])
        with pytest.raises(DomainViolationError):
            attn_forward(layer, outside, np.array([0.0, 0.0]))
        # One absolute rule: ||x - c|| <= r + 1e-9, with no slack relative to r.
        with pytest.raises(DomainViolationError):
            attn_forward(layer, inside, np.array([1.0 + 1e-7, 0.0]))
        with pytest.raises(DomainViolationError):
            attn_forward(layer, new_empirical([[0.0, 1.0 + 1e-7]]), np.zeros(2))
        attn_forward(layer, new_empirical([[0.0, 1.0 + 5e-10]]), np.array([1.0 + 5e-10, 0.0]))
        # NaN is outside every ball, as a query and as a point of a batch.
        with pytest.raises(DomainViolationError):
            attn_forward(layer, inside, np.array([np.nan, 0.0]))
        with pytest.raises(DomainViolationError):
            layer.domain.require(np.array([[0.1, 0.2], [0.0, np.nan]]), "context atom")

    def test_query_one_lipschitz(self):
        rng = np.random.default_rng(7)
        for trial in range(5):
            layer = random_attention(rng, int(rng.integers(1, 5)))
            mu = new_empirical(sample_ball(rng, layer.domain, int(rng.integers(1, 9))))
            x1 = sample_ball(rng, layer.domain, 500)
            x2 = sample_ball(rng, layer.domain, 500)
            from lipctx.layers import attn_apply_batch

            num = np.linalg.norm(
                attn_apply_batch(layer, mu, x1) - attn_apply_batch(layer, mu, x2),
                axis=1,
            )
            den = np.linalg.norm(x1 - x2, axis=1)
            keep = den >= 1e-9
            assert np.all(num[keep] <= den[keep] * (1 + 1e-9))

    def test_sup_ay_dominates_samples(self):
        rng = np.random.default_rng(8)
        layer = random_attention(rng, 3)
        ys = sample_ball(rng, layer.domain, 2000)
        assert layer.sup_ay >= float(np.linalg.norm(layer.domain.center @ layer.A.T))
        assert float(np.max(np.linalg.norm(ys @ layer.A.T, axis=1))) <= layer.sup_ay


class TestAttentionPotential:
    def test_single_atom_linear(self):
        rng = np.random.default_rng(9)
        dom = DomainBall(np.zeros(2), 2.0)
        a = rng.normal(size=(2, 2))
        layer = AttentionLayer(a, 0.1, dom, clamp=False)
        y, x = np.array([0.3, 0.5]), np.array([-0.4, 0.2])
        got = attn_potential(layer, new_empirical([y]), x)
        assert got == pytest.approx(float(x @ (a @ y)), abs=1e-14)

    def test_zero_matrix(self):
        layer = AttentionLayer(np.zeros((2, 2)), 0.0, DomainBall(np.zeros(2), 1.0))
        mu = new_empirical([[0.1, 0.1], [0.2, -0.1]], weights=[0.6, 0.4])
        assert abs(attn_potential(layer, mu, np.array([0.5, 0.5]))) <= 1e-15

    def test_logcosh_closed_form(self):
        layer = AttentionLayer(np.array([[1.0]]), 0.2, DomainBall(np.zeros(1), 1.5))
        mu = new_empirical([[-1.0], [1.0]])
        for t in (-1.2, -0.3, 0.0, 0.7, 1.4):
            got = attn_potential(layer, mu, np.array([t]))
            assert got == pytest.approx(float(np.log(np.cosh(t))), abs=1e-12)

    def test_gradient_flow_identity(self):
        # forward update equals -eta * FD gradient of the potential
        rng = np.random.default_rng(10)
        h = float(np.finfo(np.float64).eps) ** (1 / 3)
        for _ in range(10):
            layer = random_attention(rng, int(rng.integers(1, 4)))
            mu = new_empirical(sample_ball(rng, layer.domain, int(rng.integers(1, 7))))
            x = sample_ball(
                rng, DomainBall(layer.domain.center, layer.domain.radius * 0.7), 1
            )[0]
            d = x.shape[0]
            fd = np.empty(d)
            for i in range(d):
                e = np.zeros(d)
                e[i] = h * max(1.0, abs(x[i]))
                fd[i] = (
                    attn_potential(layer, mu, x + e) - attn_potential(layer, mu, x - e)
                ) / (2 * e[i])
            update = x - attn_forward(layer, mu, x)
            np.testing.assert_allclose(update, layer.eta * fd, rtol=1e-5, atol=1e-9)
            np.testing.assert_allclose(
                attn_softmax_mean(layer, mu, x), fd, rtol=1e-5, atol=1e-9
            )


class TestAttentionJacobian:
    def test_point_mass_identity(self):
        layer = AttentionLayer(np.eye(2), 0.4, DomainBall(np.zeros(2), 1.0))
        jac = attn_jacobian(layer, new_empirical([[0.2, 0.1]]), np.array([0.0, 0.0]))
        np.testing.assert_allclose(jac, np.eye(2), atol=1e-15)

    def test_zero_step_identity(self):
        layer = AttentionLayer(np.eye(2), 0.0, DomainBall(np.zeros(2), 1.0))
        mu = new_empirical([[0.2, 0.1], [-0.3, 0.4]])
        np.testing.assert_array_equal(
            attn_jacobian(layer, mu, np.zeros(2)), np.eye(2)
        )

    def test_symmetry_exact_and_psd(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            layer = random_attention(rng, int(rng.integers(1, 5)))
            mu = new_empirical(sample_ball(rng, layer.domain, int(rng.integers(2, 9))))
            x = sample_ball(rng, layer.domain, 1)[0]
            jac = attn_jacobian(layer, mu, x)
            assert float(np.max(np.abs(jac - jac.T))) <= 1e-12
            assert float(np.linalg.norm(jac, 2)) <= 1 + 1e-9
            if layer.eta > 0:
                cov = (np.eye(layer.dim) - jac) / layer.eta
                assert float(np.linalg.eigvalsh(cov)[0]) >= -1e-12


class TestStepBound:
    def test_zero_matrix_unbounded(self):
        assert attn_step_bound(np.zeros((2, 2)), DomainBall(np.zeros(2), 1.0)) == math.inf

    def test_identity_on_unit_ball(self):
        got = attn_step_bound(np.eye(2), DomainBall(np.zeros(2), 1.0))
        assert 2.0 / (1 + 1e-12) ** 2 <= got <= 2.0

    def test_shifted_ball(self):
        dom = DomainBall(np.array([1.0, 0.0]), 1.0)
        got = attn_step_bound(2.0 * np.eye(2), dom)
        # ||A c|| + r ||A|| = 2 + 2 (up to certification inflation)
        assert got == pytest.approx(2.0 / 16.0, rel=1e-5)

    def test_ball_sup_matches_layer_field(self):
        rng = np.random.default_rng(12)
        dom = DomainBall(rng.normal(size=3), 0.7)
        a = rng.normal(size=(3, 3))
        layer = AttentionLayer(a, 0.0, dom)
        assert layer.sup_ay == ball_sup_ay(a, dom)

    def test_center_term_never_below_exact(self):
        # At radius 0 the sup is ||A c|| alone; compared in exact rational
        # arithmetic, a value rounded to nearest falls below it about half
        # the time.
        rng = np.random.default_rng(0)
        below = 0
        for _ in range(2000):
            d = int(rng.integers(2, 9))
            a = rng.normal(size=(d, d))
            c = rng.normal(size=d)
            sup = ball_sup_ay(a, DomainBall(c, 0.0))
            exact = sum(
                sum(Fraction(x) * Fraction(y) for x, y in zip(row, c)) ** 2 for row in a
            )
            below += Fraction(sup) ** 2 < exact
            assert sup <= float(np.linalg.norm(a @ c)) * (1 + 1e-12)
        assert below == 0

    def test_center_term_zero_and_underflow(self):
        # A zero product set keeps the sup exactly zero; a product that
        # underflows to zero is still bounded from above.
        assert ball_sup_ay(np.eye(2), DomainBall(np.zeros(2), 0.0)) == 0.0
        tiny = np.array([1e-300, 0.0])
        assert ball_sup_ay(np.diag([1e-300, 1.0]), DomainBall(tiny, 0.0)) > 0.0
