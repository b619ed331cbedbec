"""Layer primitives: spectral certification, forwards, potentials, Jacobians."""
import dataclasses
import inspect
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lipctx.certify import random_clamped_model, sample_in_ball
from lipctx.errors import DomainViolationError, InvalidMeasureError
from lipctx.layers import (
    _BUDGET,
    FEAS_SLACK,
    AttentionLayer,
    MlpLayer,
    _attend,
    _softmax_batch,
    attn_apply_batch,
    attn_covariance,
    attn_forward,
    attn_potential,
    attn_softmax_mean,
    attn_step_bound,
    attn_update,
    ball_sup_ay,
    clamp_step,
    mlp_forward,
    spectral_norm,
)
from lipctx.measure import DomainBall, new_empirical, tree_sum
from lipctx.serialize import layer_from_json, layer_to_json
from lipctx.transformer import (
    Lifting,
    ScalarModel,
    clamp_model,
    evaluate_batch,
    is_clamped,
    lifted_ball,
)


def sample_ball(rng, ball, size):
    dirs = rng.standard_normal((size, ball.dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return ball.center + dirs * (ball.radius * rng.random(size)[:, None] ** (1 / ball.dim))


def random_attention(rng, dim, radius=1.2, eta_frac=None):
    dom = DomainBall(rng.normal(size=dim) * 0.2, radius)
    a = rng.normal(size=(dim, dim)) / math.sqrt(dim)
    frac = rng.uniform(0.1, 1.0) if eta_frac is None else eta_frac
    return AttentionLayer(a, frac * attn_step_bound(a, dom), dom)


def one_block(layer):
    """Depth-1 model on the unit ball around ``layer``, identity lifting.

    The block's other layer is the identity. An attention layer keeps
    its A and eta but declares the propagated ball, so only a step can
    make the model unclamped.
    """
    dim, is_mlp = layer.dim, isinstance(layer, MlpLayer)
    lifting, ball = Lifting(np.eye(dim), np.zeros(dim)), DomainBall(np.zeros(dim), 1.0)
    a, eta = (np.zeros((dim, dim)), 0.0) if is_mlp else (layer.A, layer.eta)
    attn = AttentionLayer(a, eta, lifted_ball(lifting, ball))
    mlp = layer if is_mlp else MlpLayer(np.zeros((1, dim)), np.zeros(1), 0.0)
    return ScalarModel(lifting, ((attn, mlp),), np.ones(dim), ball, 1.0)


def projected(layer):
    """``layer`` as ``clamp_model`` leaves it in ``one_block(layer)``."""
    attn, mlp = clamp_model(one_block(layer)).blocks[0]
    return mlp if isinstance(layer, MlpLayer) else attn


def jacobian(layer, mu, x):
    """Query Jacobian I - eta * Cov of the attention update."""
    return np.eye(layer.dim) - layer.eta * attn_covariance(layer, mu, x)


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
            layer = MlpLayer(m, np.ones(8), clamp_step(1e3, spectral_norm(m)))
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
        assert layer.tau == 10.0
        tau = projected(layer).tau
        assert tau == clamp_step(10.0, layer.cert_spec_norm)
        assert tau == 2.0 / layer.cert_spec_norm**2
        assert 2.0 / (1 + 1e-12) ** 2 <= tau <= 2.0

    def test_clamp_above_true_bound(self):
        # 2.00001 is above the true bound 2 by more than the slack, so
        # both layers must clamp (else the ReLU-active Jacobian is -1.00001).
        tau = projected(MlpLayer(np.array([[1.0]]), np.array([0.0]), 2.00001)).tau
        assert tau < 2.00001 and tau <= 2.0 * (1 + FEAS_SLACK)
        attn = AttentionLayer(np.eye(2), 2.00001, DomainBall(np.zeros(2), 1.0))
        eta = projected(attn).eta
        assert eta < 2.00001 and eta <= 2.0 * (1 + FEAS_SLACK)
        assert clamp_step(attn.eta, attn.sup_ay) <= 2.0 * (1 + FEAS_SLACK)

    def test_clamp_noop_when_feasible(self):
        layer = MlpLayer(np.array([[1.0]]), np.array([0.0]), 0.1)
        assert layer.tau == 0.1
        assert projected(layer).tau == 0.1
        assert is_clamped(one_block(layer))

    def test_clamp_negative_to_zero(self):
        # A constructor stores steps as given, so it refuses a negative
        # one; the projection still maps it to zero.
        w, dom = np.array([[1.0]]), DomainBall(np.zeros(1), 1.0)
        with pytest.raises(InvalidMeasureError):
            MlpLayer(w, np.array([0.0]), -0.5)
        with pytest.raises(InvalidMeasureError):
            AttentionLayer(w, -0.5, dom)
        for layer, key in ((MlpLayer(w, np.zeros(1), 0.5), "tau"),
                           (AttentionLayer(w, 0.5, dom), "eta")):
            obj = layer_to_json(layer)
            obj[key] = -0.5
            with pytest.raises(InvalidMeasureError):
                layer_from_json(obj)
        for sup in (0.0, 1.0):
            assert clamp_step(-0.5, sup) == 0.0

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
        assert projected(layer).tau == 2.0
        assert clamp_step(2.0, layer.cert_spec_norm) == 2.0
        assert layer.tau <= (2.0 / layer.cert_spec_norm**2) * (1 + FEAS_SLACK)

    def test_query_one_lipschitz(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            k, d = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            w = rng.normal(size=(k, d))
            tau = clamp_step(float(rng.uniform(0, 5)), spectral_norm(w))
            layer = MlpLayer(w, rng.normal(size=k), tau)
            x1 = rng.normal(size=(2000, d))
            x2 = rng.normal(size=(2000, d))
            from lipctx.layers import mlp_forward_batch

            num = np.linalg.norm(
                mlp_forward_batch(layer, x1) - mlp_forward_batch(layer, x2), axis=1
            )
            den = np.linalg.norm(x1 - x2, axis=1)
            keep = den >= 1e-9
            assert np.all(num[keep] <= den[keep] * (1 + 1e-9))


def softmax_weights(scores, weights):
    """Weighted softmax of one score vector."""
    return _softmax_batch(np.asarray(scores)[None, :], weights)[0]


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

    @settings(deadline=None, max_examples=200)
    @given(
        m=st.integers(1, 6),
        n=st.integers(1, 9),
        zeros=st.integers(0, 8),
        scale=st.floats(1e-3, 1e3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_one_buffer_matches_two_array_formula(self, m, n, zeros, scale, seed):
        # The softmax works in one buffer of its own; the bits are those
        # of exp(s - max) * w over the positive atoms, divided by its sum.
        rng = np.random.default_rng(seed)
        scores = rng.normal(size=(m, 2 * n))[:, ::2] * scale  # a view
        w = rng.random(n) + 0.1
        w[rng.permutation(n)[: min(zeros, n - 1)]] = 0.0
        before = scores.tobytes()
        pos = w > 0
        e = np.zeros_like(scores)
        e[:, pos] = np.exp(scores[:, pos] - scores[:, pos].max(axis=1)[:, None]) * w[pos]
        want = e / tree_sum(e.T)[:, None]
        assert _softmax_batch(scores, w).tobytes() == want.tobytes()
        assert scores.tobytes() == before


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
        layer = AttentionLayer(a, 0.3, dom)
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

    def test_empty_query_batch(self):
        layer = random_attention(np.random.default_rng(9), 3)
        mu = new_empirical(sample_ball(np.random.default_rng(1), layer.domain, 4))
        assert attn_apply_batch(layer, mu, np.zeros((0, 3))).shape == (0, 3)


class TestBlockedMean:
    """The softmax mean reduces in query blocks with the one-shot bits."""

    @settings(deadline=None, max_examples=40)
    @given(
        n=st.integers(1, 300),
        h=st.integers(1, 130),
        blocks=st.integers(0, 3),
        extra=st.integers(0, 2**20),
        zeros=st.integers(0, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=7, h=5, blocks=2, extra=17, zeros=2, seed=0)  # m not a multiple of rows
    @example(n=301, h=120, blocks=3, extra=0, zeros=1, seed=1)  # n h > _BUDGET: rows 1
    @example(n=5, h=3, blocks=0, extra=0, zeros=0, seed=2)  # no queries
    def test_update_matches_one_shot_reduction(self, n, h, blocks, extra, zeros, seed):
        rng = np.random.default_rng(seed)
        rows = max(1, _BUDGET // (n * h))
        m = blocks * rows + extra % rows
        pts = rng.normal(size=(n, h))
        queries = rng.normal(size=(m, h))
        w = rng.random(n) + 0.1
        w[: min(zeros, n - 1)] = 0.0  # zero-weight atoms, one positive at least
        radius = float(np.max(np.linalg.norm(np.vstack([pts, queries]), axis=1)))
        dom = DomainBall(np.zeros(h), radius)
        a = rng.normal(size=(h, h)) / math.sqrt(h)
        layer = AttentionLayer(a, 0.5 * attn_step_bound(a, dom), dom)
        (got,) = attn_update(layer, pts, w, [queries])
        ay, (p,) = _attend(layer, pts, w, [queries])
        want = queries - layer.eta * tree_sum(p.T[:, :, None] * ay[:, None, :])
        assert got.shape == (m, h)
        assert got.tobytes() == want.tobytes()

    def test_wide_context_peak_under_32_mb(self):
        # 1024 tokens x 256 queries at width 16, four blocks: one (n, m, h)
        # product for the atoms attending over themselves is 134 MB.
        model = random_clamped_model(4, 16, 4, seed=5)
        rng = np.random.default_rng(3)
        mu = new_empirical(
            sample_in_ball(rng, model.input_domain, 1024), rng.random(1024) + 0.1
        )
        queries = sample_in_ball(rng, model.input_domain, 256)
        tracemalloc.start()
        try:
            out = evaluate_batch(model, mu, queries)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == (256,)
        assert peak < 32e6


def dense_reference(a, eta, pts, w, x):
    """Plain-numpy attention at one query on the dense matrix ``a``.

    Returns the update, the softmax mean, the covariance and the
    potential, with plain sums in place of tree sums.
    """
    ay = pts @ a.T
    s = ay @ x
    e = w * np.exp(s - s.max())
    p = e / e.sum()
    mean = p @ ay
    diffs = ay - mean
    cov = (p[:, None] * diffs).T @ diffs
    return x - eta * mean, mean, cov, s.max() + math.log(e.sum())


class TestNonzeroBox:
    """A layer stores the box around A's nonzeros and attends on it."""

    @settings(deadline=None, max_examples=60)
    @given(
        d=st.integers(1, 12),
        corners=st.lists(st.integers(0, 11), min_size=4, max_size=4),
        n=st.integers(1, 8),
        m=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_box_matches_dense_reference(self, d, corners, n, m, seed):
        rng = np.random.default_rng(seed)
        r0, r1, c0, c1 = (min(c, d - 1) for c in corners)
        rows = slice(min(r0, r1), max(r0, r1) + 1)
        cols = slice(min(c0, c1), max(c0, c1) + 1)
        a = np.zeros((d, d))
        a[rows, cols] = rng.normal(size=a[rows, cols].shape)
        dom = DomainBall(rng.normal(size=d) * 0.3, 1.0)
        layer = AttentionLayer(a, 0.5 * attn_step_bound(a, dom), dom)
        assert layer.A.tobytes() == a.tobytes()
        assert layer.block.size <= a[rows, cols].size
        mu = new_empirical(sample_ball(rng, dom, n), rng.random(n) + 0.1)
        pts, w = mu.points, mu.weights
        queries = sample_ball(rng, dom, m)
        (got,) = attn_update(layer, *mu.canonical()[:2], [queries])
        big = float(np.max(np.linalg.norm(pts @ a.T, axis=1)))
        assert layer.sup_ay >= big

        def close(value, want, scale):
            # Relative to the size of the terms summed, as the two sum
            # in different orders.
            assert np.linalg.norm(value - want) <= 1e-12 * scale

        for j, x in enumerate(queries):
            update, mean, cov, pot = dense_reference(a, layer.eta, pts, w, x)
            close(got[j], update, np.linalg.norm(x) + layer.eta * big)
            close(attn_softmax_mean(layer, mu, x), mean, big)
            close(attn_covariance(layer, mu, x), cov, big**2)
            # log z for a sum z of weights near 1 is exact to about u.
            score = float(np.max(np.abs(pts @ a.T @ x)))
            close(attn_potential(layer, mu, x), pot, 1.0 + score)

    def test_box_and_dense_rebuilt_bit_for_bit(self):
        dom = DomainBall(np.zeros(5), 1.0)
        a = np.zeros((5, 5))
        a[1, 2], a[3, 1] = 3.0, -0.0  # a negative zero is kept in the box
        layer = AttentionLayer(a, 0.5, dom)
        assert (layer.rows, layer.cols) == (slice(1, 4), slice(1, 3))
        assert layer.A.tobytes() == a.tobytes()
        assert not layer.A.flags.writeable and not layer.block.flags.writeable
        empty = AttentionLayer(np.zeros((5, 5)), 0.5, dom)
        assert empty.block.size == 0 and empty.is_identity and empty.sup_ay == 0.0
        mu, x = new_empirical(np.eye(5) * 0.5), np.full(5, 0.1)
        assert attn_covariance(empty, mu, x).tobytes() == np.zeros((5, 5)).tobytes()
        assert attn_softmax_mean(empty, mu, x).tobytes() == np.zeros(5).tobytes()
        assert attn_potential(empty, mu, x) == pytest.approx(0.0, abs=1e-15)
        dense = random_attention(np.random.default_rng(3), 6)
        assert (dense.rows, dense.cols) == (slice(0, 6), slice(0, 6))
        assert dense.block.tobytes() == dense.A.tobytes()

    def test_sup_ay_depends_on_the_box_alone(self):
        # Embedding A in a wider zero matrix, with any centre coordinates
        # off the box's columns, gives the same bits.
        rng = np.random.default_rng(8)
        for _ in range(50):
            k, d = rng.integers(1, 6, size=2)
            b = rng.normal(size=(k, d))
            ball = DomainBall(rng.normal(size=d), float(rng.uniform(0.0, 2.0)))
            wide = np.zeros((12, 12))
            wide[3 : 3 + k, 5 : 5 + d] = b
            center = rng.normal(size=12)
            center[5 : 5 + d] = ball.center
            sup = ball_sup_ay(wide, DomainBall(center, ball.radius))
            assert sup.hex() == ball_sup_ay(b, ball).hex()

    def test_box_layer_holds_under_10_kb(self):
        # A dense 360 x 360 matrix is 1 MB; the layer keeps its box.
        dom = DomainBall(np.zeros(360), 1.0)
        sparse = np.zeros((360, 360))
        sparse[200, 40:48] = np.arange(1.0, 9.0)
        for a in (sparse, np.zeros((360, 360))):
            tracemalloc.start()
            try:
                layer = AttentionLayer(a, 0.5, dom)
                held = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            assert held < 10e3
            assert layer.A.tobytes() == a.tobytes()
        assert sparse.nbytes > 1e6


class TestAttentionPotential:
    def test_single_atom_linear(self):
        rng = np.random.default_rng(9)
        dom = DomainBall(np.zeros(2), 2.0)
        a = rng.normal(size=(2, 2))
        layer = AttentionLayer(a, 0.1, dom)
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
        jac = jacobian(layer, new_empirical([[0.2, 0.1]]), np.array([0.0, 0.0]))
        np.testing.assert_allclose(jac, np.eye(2), atol=1e-15)

    def test_zero_step_identity(self):
        layer = AttentionLayer(np.eye(2), 0.0, DomainBall(np.zeros(2), 1.0))
        mu = new_empirical([[0.2, 0.1], [-0.3, 0.4]])
        np.testing.assert_array_equal(
            jacobian(layer, mu, np.zeros(2)), np.eye(2)
        )

    def test_symmetry_exact_and_psd(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            layer = random_attention(rng, int(rng.integers(1, 5)))
            mu = new_empirical(sample_ball(rng, layer.domain, int(rng.integers(2, 9))))
            x = sample_ball(rng, layer.domain, 1)[0]
            jac = jacobian(layer, mu, x)
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

    def test_sup_ay_is_not_an_argument(self):
        # A caller-supplied sup could leave an infeasible step unclamped.
        with pytest.raises(TypeError):
            AttentionLayer(np.eye(2), 50.0, DomainBall(np.zeros(2), 1.0), sup_ay=0.1)

    def test_clamp_is_not_an_argument(self):
        # ``clamp_model`` is the one place a step is projected.
        switch = {"clamp": True}
        with pytest.raises(TypeError):
            AttentionLayer(np.eye(2), 0.5, DomainBall(np.zeros(2), 1.0), **switch)
        with pytest.raises(TypeError):
            MlpLayer(np.eye(2), np.zeros(2), 0.5, **switch)

    def test_step_above_bound_is_stored(self):
        attn = AttentionLayer(np.eye(2), 2.00001, DomainBall(np.zeros(2), 1.0))
        assert attn.eta.hex() == (2.00001).hex()
        mlp = MlpLayer(np.eye(2), np.zeros(2), 2.00001)
        assert mlp.tau.hex() == (2.00001).hex()
        assert not is_clamped(one_block(attn))
        assert not is_clamped(one_block(mlp))
        # The same models with a step in bound are clamped.
        assert is_clamped(one_block(AttentionLayer(attn.A, 1.0, attn.domain)))
        assert is_clamped(one_block(MlpLayer(mlp.W, mlp.b, 1.0)))

    def test_is_identity_is_a_field(self):
        # Set once at construction, as ``sup_ay`` is, not read from A per call.
        fields = {f.name: f for f in dataclasses.fields(AttentionLayer)}
        assert not fields["is_identity"].init
        assert not isinstance(inspect.getattr_static(AttentionLayer, "is_identity", None),
                              property)
        dom = DomainBall(np.zeros(2), 1.0)
        cases = ((np.eye(2), 0.5, False), (np.eye(2), 0.0, True),
                 (np.zeros((2, 2)), 0.5, True))
        for a, eta, want in cases:
            layer = AttentionLayer(a, eta, dom)
            assert vars(layer)["is_identity"] is want

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
