"""Measures, couplings, balls, and the exact W1 oracles.

The W1 oracle is the ground truth every other module leans on, so it is
cross-validated here against three independent routes: the 1D sorted-CDF
closed form, optimal assignment, and brute-force enumeration of all
matchings on small uniform instances.
"""
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from couplings import pair_coupling, pushforward
from lipctx.errors import (
    CapExceededError,
    DimensionMismatchError,
    DomainViolationError,
    InvalidMeasureError,
)
from lipctx.measure import (
    DomainBall,
    EmpiricalMeasure,
    bounding_ball,
    canonical_atom_order,
    new_empirical,
    tree_sum,
    w1_exact,
    w1_exact_1d,
)


def merged(mu):
    """Atoms as a canonical weighted multiset: duplicates merged, sorted."""
    pts, w, _ = mu.canonical()
    keep_rows = []
    keep_w = []
    i = 0
    while i < len(w):
        j = i + 1
        acc = w[i]
        while j < len(w) and np.array_equal(pts[j], pts[i]):
            acc += w[j]
            j += 1
        keep_rows.append(pts[i])
        keep_w.append(acc)
        i = j
    return np.array(keep_rows), np.array(keep_w)


class TestNewEmpirical:
    def test_uniform_default(self):
        mu = new_empirical([[0.0], [1.0]])
        np.testing.assert_array_equal(mu.weights, [0.5, 0.5])

    def test_single_atom_renormalized(self):
        mu = new_empirical([[2.0, 3.0]], weights=[7.0])
        np.testing.assert_array_equal(mu.weights, [1.0])

    def test_normalization(self):
        mu = new_empirical([[0.0], [1.0]], weights=[1, 3])
        np.testing.assert_array_equal(mu.weights, [0.25, 0.75])

    def test_errors(self):
        with pytest.raises(InvalidMeasureError):
            new_empirical([])
        with pytest.raises(InvalidMeasureError):
            new_empirical([[0.0], [1.0, 2.0]])
        with pytest.raises(InvalidMeasureError):
            new_empirical([[0.0], [1.0]], weights=[-0.1, 1.1])
        with pytest.raises(InvalidMeasureError):
            new_empirical([[0.0], [1.0]], weights=[0.0, 0.0])

    @given(
        st.lists(st.floats(min_value=1e-6, max_value=1e6), min_size=1, max_size=12)
    )
    @settings(deadline=None, max_examples=50)
    def test_weights_always_normalized(self, raw):
        mu = new_empirical([[float(i)] for i in range(len(raw))], weights=raw)
        assert abs(float(np.sum(mu.weights)) - 1.0) <= 1e-12
        assert np.all(mu.weights >= 0)


class TestPushforward:
    def test_identity(self):
        mu = new_empirical([[0.0, 1.0], [2.0, -1.0]], weights=[0.3, 0.7])
        nu = pushforward(mu, lambda p: p)
        np.testing.assert_array_equal(nu.points, mu.points)
        np.testing.assert_array_equal(nu.weights, mu.weights)

    def test_translation(self):
        mu = new_empirical([[0.0], [1.0]])
        nu = pushforward(mu, lambda p: p + 2.5)
        np.testing.assert_array_equal(nu.points, [[2.5], [3.5]])

    def test_constant_map_collapses_support(self):
        mu = new_empirical([[0.5], [1.5], [2.5]], weights=[0.2, 0.3, 0.5])
        nu = pushforward(mu, lambda p: np.zeros(1))
        assert nu.n_atoms == mu.n_atoms  # duplicates kept, identity preserved
        assert not nu.points.any()
        assert abs(float(np.sum(nu.weights)) - 1.0) <= 1e-12

    def test_preserves_mass_and_atom_count(self):
        rng = np.random.default_rng(0)
        mu = new_empirical(rng.normal(size=(7, 3)), weights=rng.random(7))
        nu = pushforward(mu, lambda p: np.array([p @ p]))
        assert nu.n_atoms == 7 and nu.dim == 1
        np.testing.assert_array_equal(nu.weights, mu.weights)


class TestW1Exact1d:
    def test_point_masses(self):
        assert w1_exact_1d(new_empirical([[0.0]]), new_empirical([[1.0]])) == 1.0

    def test_identical(self):
        mu = new_empirical([[0.3], [0.9]], weights=[0.4, 0.6])
        assert w1_exact_1d(mu, mu) == 0.0

    def test_translation(self):
        mu = new_empirical([[0.0], [2.0]])
        nu = new_empirical([[1.0], [3.0]])
        assert abs(w1_exact_1d(mu, nu) - 1.0) <= 1e-12

    def test_requires_dimension_one(self):
        with pytest.raises(DimensionMismatchError):
            w1_exact_1d(new_empirical([[0.0, 1.0]]), new_empirical([[1.0, 0.0]]))


class TestW1Exact:
    def test_vertical_shift(self):
        mu = new_empirical([[0.0, 0.0], [1.0, 0.0]])
        nu = new_empirical([[0.0, 1.0], [1.0, 1.0]])
        assert abs(w1_exact(mu, nu) - 1.0) <= 1e-9

    def test_single_atoms(self):
        x, y = np.array([0.3, -1.2, 0.5]), np.array([1.0, 0.0, 2.0])
        got = w1_exact(new_empirical([x]), new_empirical([y]))
        assert abs(got - np.linalg.norm(x - y)) <= 1e-9

    def test_brute_force_permutations(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            d = int(rng.integers(1, 4))
            xs, ys = rng.uniform(-2, 2, (n, d)), rng.uniform(-2, 2, (n, d))
            mu, nu = new_empirical(xs), new_empirical(ys)
            cost = np.linalg.norm(xs[:, None, :] - ys[None, :, :], axis=2)
            best = min(
                float(np.mean([cost[i, p[i]] for i in range(n)]))
                for p in itertools.permutations(range(n))
            )
            assert abs(w1_exact(mu, nu) - best) <= 1e-9

    def test_assignment_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            n = int(rng.integers(2, 9))
            xs, ys = rng.normal(size=(n, 2)), rng.normal(size=(n, 2))
            cost = np.linalg.norm(xs[:, None, :] - ys[None, :, :], axis=2)
            rows, cols = linear_sum_assignment(cost)
            assert (
                abs(w1_exact(new_empirical(xs), new_empirical(ys)) - cost[rows, cols].mean())
                <= 1e-9
            )

    def test_agrees_with_1d_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n, m = rng.integers(1, 9, 2)
            mu = new_empirical(rng.uniform(-3, 3, (n, 1)), weights=rng.random(n) + 0.05)
            nu = new_empirical(rng.uniform(-3, 3, (m, 1)), weights=rng.random(m) + 0.05)
            assert abs(w1_exact(mu, nu) - w1_exact_1d(mu, nu)) <= 1e-9

    def test_metric_axioms(self):
        rng = np.random.default_rng(11)
        for _ in range(15):
            ms = [
                new_empirical(rng.normal(size=(int(rng.integers(1, 6)), 2)))
                for _ in range(3)
            ]
            a, b, c = ms
            assert abs(w1_exact(a, b) - w1_exact(b, a)) <= 1e-9
            assert w1_exact(a, a) <= 1e-9
            assert w1_exact(a, c) <= w1_exact(a, b) + w1_exact(b, c) + 1e-8

    def test_cap_and_dimension_errors(self):
        big = new_empirical(np.random.default_rng(0).normal(size=(70, 1)))
        with pytest.raises(CapExceededError):
            w1_exact(big, big)
        with pytest.raises(DimensionMismatchError):
            w1_exact(new_empirical([[0.0]]), new_empirical([[0.0, 1.0]]))


class TestPairCoupling:
    def test_index_pairing(self):
        mu = new_empirical([[0.0], [1.0], [2.0]])
        nu = new_empirical([[5.0], [6.0], [7.0]])
        gamma = pair_coupling(mu, nu)
        assert gamma.n_atoms == 3
        np.testing.assert_allclose(gamma.weights, 1.0 / 3.0)

    def test_product_fallback(self):
        mu = new_empirical([[0.0], [1.0]])
        nu = new_empirical([[5.0], [6.0], [7.0]])
        gamma = pair_coupling(mu, nu)
        assert gamma.n_atoms == 6
        np.testing.assert_allclose(gamma.weights, 1.0 / 6.0)

    def test_marginals_recover_inputs(self):
        rng = np.random.default_rng(5)
        mu = new_empirical(rng.normal(size=(3, 2)), weights=[0.2, 0.5, 0.3])
        nu = new_empirical(rng.normal(size=(4, 1)), weights=rng.random(4))
        gamma = pair_coupling(mu, nu)
        left, right = gamma.marginals()
        for got, want in ((left, mu), (right, nu)):
            got_pts, got_w = merged(got)
            want_pts, want_w = merged(want)
            np.testing.assert_array_equal(got_pts, want_pts)
            np.testing.assert_allclose(got_w, want_w, atol=1e-12)
        assert abs(float(np.sum(gamma.weights)) - 1.0) <= 1e-12


class TestBoundingBall:
    def test_single_point(self):
        ball = bounding_ball([[1.0, 2.0]], margin=0.0)
        np.testing.assert_array_equal(ball.center, [1.0, 2.0])
        assert ball.radius == 0.0

    def test_symmetric_pair(self):
        ball = bounding_ball([[-1.0], [1.0]], margin=0.0)
        assert abs(ball.center[0]) <= 1e-15
        assert abs(ball.radius - 1.0) <= 1e-8

    def test_margin(self):
        ball = bounding_ball([[0.0], [1.0]], margin=0.5)
        assert abs(ball.center[0] - 0.5) <= 1e-15
        assert abs(ball.radius - 1.0) <= 1e-8

    def test_contains_all_inputs(self):
        rng = np.random.default_rng(9)
        pts = rng.normal(size=(20, 4)) * 3.0
        ball = bounding_ball(pts)
        assert all(ball.contains(p) for p in pts)


class TestDomainBall:
    def test_contains_with_slack(self):
        ball = DomainBall(np.zeros(2), 1.0)
        for x, inside in (
            ([1.0, 0.0], True),
            ([1.0 + 5e-10, 0.0], True),
            ([1.0 + 1e-7, 0.0], False),
            ([1.1, 0.0], False),
        ):
            assert ball.contains(np.array(x)) is inside
            if inside:
                ball.require(np.array(x), "point")
            else:
                with pytest.raises(DomainViolationError):
                    ball.require(np.array(x), "point")

    def test_empty_set_is_inside(self):
        ball = DomainBall(np.zeros(2), 0.0)
        ball.require(np.zeros((0, 2)), "point")
        with pytest.raises(DimensionMismatchError):
            ball.require(np.zeros((0, 3)), "point")

    def test_invalid(self):
        with pytest.raises(InvalidMeasureError):
            DomainBall(np.zeros(2), -1.0)
        with pytest.raises(InvalidMeasureError):
            DomainBall(np.array([np.inf, 0.0]), 1.0)


class TestDeterministicReduction:
    def test_tree_sum_matches_plain_sum(self):
        rng = np.random.default_rng(1)
        vals = rng.normal(size=(13, 3))
        np.testing.assert_allclose(tree_sum(vals), vals.sum(axis=0), rtol=1e-14)

    def test_canonical_order_is_permutation_invariant(self):
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(9, 2))
        w = rng.random(9)
        w /= w.sum()
        perm = rng.permutation(9)
        a = new_empirical(pts, w)
        b = new_empirical(pts[perm], w[perm])
        pa, wa, _ = a.canonical()
        pb, wb, _ = b.canonical()
        np.testing.assert_array_equal(pa, pb)
        np.testing.assert_array_equal(wa, wb)
        # weighted reductions over canonical order agree bit for bit
        assert float(tree_sum(wa[:, None] * pa)[0]) == float(
            tree_sum(wb[:, None] * pb)[0]
        )

    def test_canonical_order_is_not_an_argument(self):
        with pytest.raises(TypeError):
            EmpiricalMeasure(np.zeros((2, 1)), np.ones(2), np.array([1, 0]))

    def test_canonical_order_shape(self):
        pts = np.array([[1.0, 0.0], [0.0, 5.0], [0.0, 2.0]])
        order = canonical_atom_order(pts, np.full(3, 1 / 3))
        assert list(order) == [2, 1, 0]

    @given(st.data())
    @settings(deadline=None, max_examples=200)
    def test_canonical_order_matches_lexsort(self, data):
        # Ties, signed zeros and NaN in any column, the first included.
        n, d = data.draw(st.integers(1, 10)), data.draw(st.integers(1, 3))
        value = st.one_of(
            st.sampled_from([-1.0, -0.0, 0.0, 1.0, np.nan]), st.floats(-2.0, 2.0)
        )
        pts = np.array(data.draw(st.lists(value, min_size=n * d, max_size=n * d)))
        pts = pts.reshape(n, d)
        weight = st.sampled_from([0.0, 0.5, 1.0])
        w = np.array(data.draw(st.lists(weight, min_size=n, max_size=n)))
        keys = tuple(pts[:, c] for c in range(d - 1, -1, -1))
        np.testing.assert_array_equal(canonical_atom_order(pts, w), np.lexsort((w,) + keys))
