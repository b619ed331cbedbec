"""Gradient-descent-type layer primitives with certified step bounds.

Two residual layers built as explicit Euler steps of negative gradient
flows:

  * MLP layer       F(x)      = x - tau * W^T relu(W x + b)
  * attention layer G(mu, x)  = x - eta * sum_i p_i(x) A y_i

where p_i(x) is the softmax over scores s_i = <x, A y_i> weighted by the
atom weights of mu. The attention update is the gradient of the
cumulant-generating potential

    lam(mu)(x) = log sum_i w_i exp(<x, A y_i>),

so its Jacobian is I - eta * Cov (softmax-weighted covariance of A y),
and both layers are 1-Lipschitz in x whenever the step size is at most
2 over the squared scale of the relevant linear map:

    tau in [0, 2 / ||W||_2^2],    eta in [0, 2 / sup_{y in domain} ||A y||_2^2].

Certification conventions
-------------------------
``spectral_norm`` returns a proven upper bound: the square root of the
top eigenvalue of the Gram matrix plus an explicit rounding term that
covers forming the Gram matrix and the eigensolve (derivation in its
docstring). The bound exceeds the true norm by a relative 2(n+1)^2 u
plus N u tr(G)/||G|| at most (u = 2^-53, Gram matrix G of side n, inner
dimension N), under 1e-10 for matrices up to 400 x 400. The supremum of
||A y|| over a ball is bounded by ||A c|| + r ||A||_2, with the rounding
of A c and of the norms added and the sum rounded up (``ball_sup_ay``).
Both bounds are computed at construction from the layer's own fields
(``cert_spec_norm`` of an MLP layer, ``sup_ay`` of an attention layer
over its declared ball) and are never constructor arguments, so a saved
and loaded layer carries the same certificate.
A constructor never rewrites a step: it checks shapes and finiteness,
rejects a negative step, computes the certificate and stores the step
bit for bit as given. ``transformer.clamp_model`` is the one place a
model's steps are projected, with ``clamp_step`` against each layer's
certificate over its propagated ball; ``is_clamped`` asks whether that
projection changes anything. ``clamp_step`` accepts steps within a
relative ``FEAS_SLACK`` (1e-9, over twice that inflation) above the
certified bound; exact constructions (the min/max gate, parallel
stacks) sit precisely on the *true* feasibility boundary and must not
be perturbed by certification rounding. The price is that a step
admitted inside the slack may exceed its true bound 2 / s^2 by the same
relative 1e-9, so such a layer is (1 + 2e-9)-Lipschitz. A step the
clamp moves lands on the certified bound, below the true one. The
Wasserstein critic projects its own steps with slack 0, and the block
layers of the constructions store exact steps that are feasible on a
product of balls inside the enclosing ball they declare.

Attention runs on one kernel, ``_attend``. The forward pass updates
atoms and queries in one call, which checks the atoms against the
domain once; an identity layer (``is_identity``, set at construction)
runs the checks alone.

An attention layer stores only the box around its matrix's nonzeros,
``block = A[rows, cols]``; the constructions' block layers and identity
layers are mostly or wholly zero. A y reads the atoms' box columns, the
scores read the queries' box rows, the softmax mean reduces over the
box's rows and the update writes only those coordinates. For a dense A
the box is the whole matrix and the calls, and so the bits, are those
of the dense kernel. On the n = 6 fit of acceptance criterion 10 (width
360, depth 34; every non-identity layer a 1 x 8 box) the attention
layers hold 1.9 KB of matrix where dense ones held 35.3 MB: the model
holds 1.45 MB instead of 36.7 MB under ``tracemalloc``, its build peaks
at 3.9 MB instead of 56.4 MB, and one ``evaluate`` takes 5.4 ms
instead of 16.8 ms (one run each on a shared 2-CPU machine).

Attention memory is O(m n) for the (m, n) score and softmax matrices of
a batch of m queries against n atoms, plus O(``_BUDGET``) for the
softmax-weighted mean: ``_softmax_mean`` forms the (n, rows, h) product
of its tree sum for at most ``_BUDGET // (n h)`` queries at a time
(one at least). The tree sum adds elementwise along the atom axis, so
every output element takes the same IEEE operations in any query
block, and the bits do not depend on the block size. The score product
``q @ ay.T`` stays whole: BLAS rounds a row of a matrix product
differently depending on how many rows the product has. The softmax
works in one (m, n) buffer of its own beside the scores.

Domain membership is enforced fail-closed by ``DomainBall.require``: a
point is inside the declared ball (c, r) when ||x - c|| <= r + 1e-9, an
absolute slack. Every Lipschitz certificate is conditional on the inputs
staying inside the declared domain.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lapack

from .errors import DimensionMismatchError, InvalidMeasureError
from .measure import DomainBall, EmpiricalMeasure, tree_sum

#: Relative slack accepted by step clamps above the certified bound.
#: Covers twice the relative inflation of ``spectral_norm`` (under 1e-10
#: up to 400 x 400), so a step that is feasible for the true norm is not
#: shaved; an admitted step exceeds its true bound by at most this much.
FEAS_SLACK = 1e-9

#: Unit roundoff of IEEE binary64.
_U = 2.0**-53

#: Smallest || |A| |c| || that ``ball_sup_ay`` bounds through rounding terms.
_TINY = 2.0**-400

#: Elements of the (n, rows, h) product that one query block of
#: ``_softmax_mean`` forms (256 KiB of float64).
_BUDGET = 2**15


def spectral_norm(mat: np.ndarray) -> float:
    """Certified upper bound on the spectral norm of ``mat``.

    M is scaled by the power of two s = 2^e that puts its largest entry
    in [1/2, 1), which is exact. Let A = M / s, oriented so that A is
    N x n with N >= n, G = A^T A its exact Gram matrix and G^ = fl(A^T A);
    ``||M||_2 = s sqrt(lam_max(G))``. With u = 2^-53 and
    gamma_k = k u / (1 - k u):

    1. Gram rounding (Higham, *Accuracy and Stability of Numerical
       Algorithms*, 2nd ed., eq. 3.13, any summation order):
       |G^ - G| <= gamma_N |A|^T |A| entrywise, so by Weyl
       lam_max(G) <= lam_max(G^) + gamma_N ||A||_F^2, and
       ||A||_F^2 = tr G <= t / ((1 - gamma_N)(1 - gamma_n)) where t is
       the computed trace of G^ (nonnegative terms).
    2. Eigensolve, checked a posteriori: lam^ is LAPACK's top eigenvalue
       of G^ (at least t / n) and sigma = lam^ + 2 (n+1)^2 u lam^, a
       shift above the eigensolver's error. If floating-point Cholesky of
       fl(sigma I - G^) runs to completion, then sigma I - G^ + D is
       positive semidefinite with ||D||_2 <= n gamma_{n+1} / (1 -
       gamma_{n+1}) sigma + u sigma (Higham Thm 10.3 with
       ||r_i||^2 <= a_ii / (1 - gamma_{n+1}); the u sigma term is the
       rounding of the diagonal; Rump, "Verification of positive
       definiteness", BIT 46, 2006). Hence lam_max(G^) <= sigma (1 +
       1.001 (n^2 + n + 1) u). Should Cholesky fail, the shift doubles;
       once sigma exceeds 2 t it cannot fail, so the loop ends.
    3. Together lam_max(G) <= sigma (1 + 1.001 (n^2 + n + 1) u) +
       1.001 N u t. The returned bound evaluates
       lam = sigma (1 + (2 (n+1)^2 + 8) u) + 2 N u t. Its extra terms
       exceed that by more than 12 u sigma, which covers the roundings in
       evaluating lam (4 u relative) and its square root (u), and the
       gradual underflow in the scaling, the Gram matrix and the
       factorization, whose absolute errors stay below 2^-1000 while
       lam >= 1/4. A result below 2^-1022 is rounded up one step, as
       scaling it back by s is then inexact.

    The steps assume (N + n) u <= 1e-4 and n^2 u <= 1e-4, which holds
    for every matrix that fits in memory. The relative inflation over
    the true norm is about 2 (n+1)^2 u + N u t / lam.
    """
    m = np.asarray(mat, dtype=np.float64)
    if m.ndim != 2:
        raise DimensionMismatchError("spectral_norm expects a matrix")
    peak = float(np.max(np.abs(m))) if m.size else 0.0
    if not math.isfinite(peak):  # NaN propagates through the max
        raise InvalidMeasureError("matrix has non-finite entries")
    if peak == 0.0:
        return 0.0
    exp = math.frexp(peak)[1]
    a = np.ldexp(m, -exp)
    if a.shape[0] < a.shape[1]:
        a = a.T
    big_n, n = a.shape
    gram = a.T @ a
    trace = float(gram.trace())
    # NaN-safe: max keeps its first argument unless the second is larger.
    top = max(trace / n, float(lapack.dsyevd(gram, compute_v=0, lower=1)[0][-1]))
    shift = 2.0 * (n + 1) ** 2 * _U * top
    while True:
        sigma = top + shift
        shifted = sigma * np.eye(n) - gram
        if lapack.dpotrf(shifted, lower=1, clean=0, overwrite_a=1)[1] == 0:
            break
        shift *= 2.0
    lam = sigma * (1.0 + (2 * (n + 1) ** 2 + 8) * _U) + 2.0 * big_n * _U * trace
    bound = math.ldexp(math.sqrt(lam), exp)
    # Scaling back into the subnormal range rounds to nearest, so step up.
    return bound if bound >= sys.float_info.min else math.nextafter(bound, math.inf)


def clamp_step(step: float, sup: float, slack: float = FEAS_SLACK) -> float:
    """Project a step size into [0, 2 / sup^2] against a certified ``sup``.

    Steps within ``slack`` (relative) above the bound pass unchanged:
    the bound is built from a norm bound inflated by rounding terms, so
    a step on the true boundary is not shaved. A negative step becomes
    zero. When ``sup`` is zero the layer is the identity regardless of
    the step, and any other step is left untouched.
    """
    if step < 0.0:
        return 0.0
    if sup <= 0.0:
        return step
    bound = 2.0 / (sup * sup)
    if step <= bound * (1.0 + slack):
        return step
    return bound


def _softmax_batch(scores: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Row-wise weighted softmax for a (m, n) score matrix.

    Works in one (m, n) buffer of its own and only reads ``scores``.
    Atoms of zero weight get exp(-inf) = 0, as if they were left out.
    """
    w = np.asarray(weights, dtype=np.float64)
    pos = w > 0
    if pos.all():
        e = np.subtract(scores, scores.max(axis=1)[:, None])
    else:
        smax = np.max(scores, axis=1, where=pos, initial=-np.inf)
        e = np.subtract(scores, smax[:, None])
        e[:, ~pos] = -np.inf
    np.exp(e, out=e)
    e *= w
    e /= tree_sum(e.T)[:, None]
    return e


# ---------------------------------------------------------------------------
# Layer types
# ---------------------------------------------------------------------------
@dataclass(frozen=True, eq=False)
class MlpLayer:
    """Parameters (W, b, tau) of a gradient-descent MLP layer.

    ``cert_spec_norm`` is a certified upper bound on ||W||_2, computed
    at construction. tau is stored as given, so it may lie above
    2 / ``cert_spec_norm``^2; ``clamp_step`` projects it.
    """

    W: np.ndarray  # (k, d)
    b: np.ndarray  # (k,)
    tau: float
    cert_spec_norm: float = field(init=False)

    def __post_init__(self):
        w = np.atleast_2d(np.asarray(self.W, dtype=np.float64)).copy()
        bias = np.asarray(self.b, dtype=np.float64).reshape(-1).copy()
        if bias.shape[0] != w.shape[0]:
            raise DimensionMismatchError(
                f"bias of size {bias.shape[0]} for W with {w.shape[0]} rows"
            )
        if not np.all(np.isfinite(w)) or not np.all(np.isfinite(bias)):
            raise InvalidMeasureError("non-finite MLP parameters")
        tau = float(self.tau)
        if not np.isfinite(tau):
            raise InvalidMeasureError("non-finite tau")
        if tau < 0.0:
            raise InvalidMeasureError("negative tau")
        w.flags.writeable = False
        bias.flags.writeable = False
        object.__setattr__(self, "W", w)
        object.__setattr__(self, "b", bias)
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "cert_spec_norm", spectral_norm(w))

    @property
    def dim(self) -> int:
        return self.W.shape[1]

    def __repr__(self) -> str:
        k, d = self.W.shape
        return f"MlpLayer(k={k}, d={d}, tau={self.tau:.6g})"


def _nonzero_box(a: np.ndarray) -> tuple[slice, slice]:
    """Row and column slices of the smallest box around ``a``'s nonzeros.

    A negative zero counts as nonzero, so ``a`` is +0.0 outside the box
    bit for bit. An all-zero ``a`` gives the empty box.
    """
    mask = (a != 0.0) | np.signbit(a)
    rows = np.flatnonzero(mask.any(axis=1)).tolist()
    cols = np.flatnonzero(mask.any(axis=0)).tolist()
    if not rows:
        return slice(0, 0), slice(0, 0)
    return slice(rows[0], rows[-1] + 1), slice(cols[0], cols[-1] + 1)


@dataclass(frozen=True, eq=False, init=False)
class AttentionLayer:
    """Parameters (A, eta) of a gradient-descent attention layer.

    ``AttentionLayer(A, eta, domain)`` stores only the box around A's
    nonzero entries: ``block`` is ``A[rows, cols]``, and A is zero
    elsewhere. An all-zero A stores an empty box. ``A`` is rebuilt as a
    read-only dense matrix on each access, for the wire format; the
    kernel and the certificates read the box. ``domain`` is the declared
    input ball; ``sup_ay`` is always the certified ball bound
    ``ball_sup_ay(A, domain)`` on sup ||A y|| over it, and
    ``is_identity`` whether the layer is exactly the identity (zero step
    or zero matrix), both set at construction. eta is stored as given,
    so it may lie above 2 / ``sup_ay``^2; ``clamp_step`` projects it.
    """

    eta: float
    domain: DomainBall
    block: np.ndarray = field(init=False)  # A[rows, cols]
    rows: slice = field(init=False)
    cols: slice = field(init=False)
    sup_ay: float = field(init=False)
    is_identity: bool = field(init=False)

    def __init__(self, A: np.ndarray, eta: float, domain: DomainBall):
        a = np.atleast_2d(np.asarray(A, dtype=np.float64))
        if a.shape[0] != a.shape[1]:
            raise DimensionMismatchError("attention matrix must be square")
        if a.shape[0] != domain.dim:
            raise DimensionMismatchError(
                f"matrix of dim {a.shape[0]} vs domain of dim {domain.dim}"
            )
        if not np.all(np.isfinite(a)):
            raise InvalidMeasureError("non-finite attention matrix")
        eta = float(eta)
        if not np.isfinite(eta):
            raise InvalidMeasureError("non-finite eta")
        if eta < 0.0:
            raise InvalidMeasureError("negative eta")
        rows, cols = _nonzero_box(a)
        block = a[rows, cols].copy()
        block.flags.writeable = False
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "block", block)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "sup_ay", _box_sup_ay(block, cols, domain))
        object.__setattr__(self, "is_identity", eta == 0.0 or not block.any())

    @property
    def dim(self) -> int:
        return self.domain.dim

    @property
    def A(self) -> np.ndarray:
        """The dense (d, d) matrix, built on each access; read-only."""
        a = np.zeros((self.dim, self.dim))
        a[self.rows, self.cols] = self.block
        a.flags.writeable = False
        return a

    def __repr__(self) -> str:
        return (
            f"AttentionLayer(d={self.dim}, eta={self.eta:.6g}, "
            f"sup_ay={self.sup_ay:.6g})"
        )


def ball_sup_ay(a: np.ndarray, domain: DomainBall) -> float:
    """Certified sup of ||A y|| over a ball: at least ||A c|| + r ||A||_2.

    A and the centre are first cropped to the box B = A[rows, cols]
    around A's nonzeros (``_nonzero_box``): ||A c|| = ||B c[cols]|| and
    ||A||_2 = ||B||_2, so the bound below holds for B, of shape k x d.
    With u = 2^-53, y^ = fl(B c) and t^ = fl(|B| |c|) in any summation
    order, with computed norms n1 and n2: |y^ - B c| <= gamma_d |B| |c|
    and t^ >= (1 - gamma_d) |B| |c| entrywise (Higham, *Accuracy and
    Stability of Numerical Algorithms*, eq. 3.11), and a computed norm
    of a k-vector is short of the true one by a factor of at most
    1 + (k+2) u, so ||B c|| <= (1 + (k+2) u) (n1 + 1.001 d u n2).
    Gradual underflow adds absolute errors below 2^-530 sqrt(k) d, which
    the coefficient 2 d u covers while n2 >= 2^-400. Below that,
    ||B c|| <= || |B| |c| || < 2^-399; with no nonzero product b_ij c_j,
    B c = 0. Adding r ``spectral_norm(B)`` takes four roundings (results
    zero or normal); the factor 1 + 2 (k+8) u covers them and the
    1 + (k+2) u above, so the result rounds up.
    """
    rows, cols = _nonzero_box(a)
    return _box_sup_ay(np.ascontiguousarray(a[rows, cols]), cols, domain)


def _box_sup_ay(block: np.ndarray, cols: slice, domain: DomainBall) -> float:
    """``ball_sup_ay`` of a matrix whose nonzeros are ``block``, on ``cols``."""
    k, d = block.shape
    c = domain.center[cols]
    center = 0.0
    if block[:, c != 0.0].any():
        y, t = block @ c, np.abs(block) @ np.abs(c)
        n2 = math.sqrt(float(t @ t))
        if n2 >= _TINY:
            center = math.sqrt(float(y @ y)) + 2.0 * d * _U * n2
        else:
            center = 2.0 * _TINY
    total = center + domain.radius * spectral_norm(block)
    return total * (1.0 + 2.0 * (k + 8) * _U)


def attn_step_bound(a: np.ndarray, domain: DomainBall) -> float:
    """Admissible step upper limit 2 / sup^2 over the domain ball.

    Returns ``math.inf`` when the sup is zero: the layer is then the
    identity on the domain and any step is valid.
    """
    sup = ball_sup_ay(np.atleast_2d(np.asarray(a, dtype=np.float64)), domain)
    if sup == 0.0:
        return math.inf
    return 2.0 / (sup * sup)


# ---------------------------------------------------------------------------
# MLP evaluation
# ---------------------------------------------------------------------------
def mlp_forward(layer: MlpLayer, x: np.ndarray) -> np.ndarray:
    """F(x) = x - tau * W^T relu(W x + b)."""
    return mlp_forward_batch(layer, np.asarray(x, dtype=np.float64)[None, :])[0]


def mlp_forward_batch(layer: MlpLayer, xs: np.ndarray) -> np.ndarray:
    xs = np.asarray(xs, dtype=np.float64)
    if xs.shape[1] != layer.dim:
        raise DimensionMismatchError(
            f"inputs of dim {xs.shape[1]} for layer of dim {layer.dim}"
        )
    if layer.tau == 0.0:
        return xs
    pre = xs @ layer.W.T + layer.b
    return xs - layer.tau * (np.maximum(pre, 0.0) @ layer.W)


# ---------------------------------------------------------------------------
# Attention evaluation
# ---------------------------------------------------------------------------
def _require_inside(layer: AttentionLayer, points, queries, stage=None) -> None:
    """Fail closed unless the atoms and every query batch are in the domain.

    A batch that is ``points`` itself is checked once, as the atoms.
    """
    layer.domain.require(points, "context atom", stage)
    for q in queries:
        if q is not points:
            layer.domain.require(q, "query", stage)


def _attend(layer: AttentionLayer, points, weights, queries, stage=None):
    """The attention kernel: domain checks, A y and the softmax.

    ``points`` and ``weights`` are the atoms in canonical order and
    ``queries`` a sequence of (m, d) batches. Returns A y over the atoms
    on the box's rows, shape (n, k), and per batch the (m, n) softmax
    weights of its scores. A y reads the atoms' box columns and the
    scores the queries' box rows; A is zero elsewhere.
    """
    _require_inside(layer, points, queries, stage)
    ay = points[:, layer.cols] @ layer.block.T
    return ay, [_softmax_batch(q[:, layer.rows] @ ay.T, weights) for q in queries]


def _softmax_mean(probs: np.ndarray, ay: np.ndarray) -> np.ndarray:
    """Rows sum_i probs[j, i] ay[i] of the (m, h) softmax-weighted mean.

    The tree sum over atoms runs on blocks of at most ``_BUDGET // (n h)``
    queries (one at least), so it never holds more than ``_BUDGET``
    products plus its levels. Each output element gets the same products
    and the same pairwise additions as in one (n, m, h) tree sum.
    """
    (m, n), h = probs.shape, ay.shape[1]
    rows = max(1, _BUDGET // max(n * h, 1))
    out = np.empty((m, h))
    for start in range(0, m, rows):
        block = probs[start : start + rows]
        out[start : start + rows] = tree_sum(block.T[:, :, None] * ay[:, None, :])
    return out


def attn_update(
    layer: AttentionLayer,
    points: np.ndarray,
    weights: np.ndarray,
    queries,
    stage: int | None = None,
) -> list:
    """Attention update of query batches against atoms in canonical order.

    Every batch attends over the same atoms, so passing the atoms as a
    batch gives the synchronous update of the measure. An identity
    layer returns the batches once they pass the domain checks. Only the
    box's rows of a batch move; for a dense A they are all of them.

    Memory for a batch of m queries against n atoms of width h is
    O(m n) for its scores and softmax weights plus O(``_BUDGET``) for
    the weighted mean, which ``_softmax_mean`` reduces in query blocks
    with the same bits as one reduction. The scores stay one matrix
    product, as BLAS rounds a row differently with the product's size.
    The mean is taken before the batch is copied for the update.
    """
    if layer.is_identity:
        _require_inside(layer, points, queries, stage)
        return list(queries)
    ay, probs = _attend(layer, points, weights, queries, stage)
    out = []
    for q, p in zip(queries, probs):
        step = layer.eta * _softmax_mean(p, ay)
        q = q.copy()
        q[:, layer.rows] -= step
        out.append(q)
    return out


def attn_apply_batch(
    layer: AttentionLayer, mu: EmpiricalMeasure, queries: np.ndarray
) -> np.ndarray:
    """Attention update of a batch of queries against the measure ``mu``.

    Atom reductions run over the measure's canonical order, so the
    result does not depend on atom storage order.
    """
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    pts, w, _ = mu.canonical()
    return attn_update(layer, pts, w, [queries])[0]


def attn_forward(layer: AttentionLayer, mu: EmpiricalMeasure, x: np.ndarray) -> np.ndarray:
    """Gamma(mu, x) = x - eta * softmax-weighted mean of A y."""
    return attn_apply_batch(layer, mu, np.asarray(x, dtype=np.float64)[None, :])[0]


def attn_softmax_mean(
    layer: AttentionLayer, mu: EmpiricalMeasure, x: np.ndarray
) -> np.ndarray:
    """m(x): the softmax-weighted mean of A y, i.e. the potential gradient."""
    pts, w, _ = mu.canonical()
    ay, (p,) = _attend(layer, pts, w, [np.asarray(x, dtype=np.float64).reshape(1, -1)])
    mean = np.zeros(layer.dim)
    mean[layer.rows] = _softmax_mean(p, ay)[0]
    return mean


def attn_potential(layer: AttentionLayer, mu: EmpiricalMeasure, x: np.ndarray) -> float:
    """lam(mu)(x) = log sum_i w_i exp(<x, A y_i>), max-subtracted."""
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    pts, w, _ = mu.canonical()
    _require_inside(layer, pts, [x[None, :]])
    scores = pts[:, layer.cols] @ (layer.block.T @ x[layer.rows])
    pos = w > 0
    smax = float(np.max(scores[pos]))
    z = float(tree_sum(np.where(pos, np.exp(scores - smax) * w, 0.0)))
    return smax + math.log(z)


def attn_covariance(
    layer: AttentionLayer, mu: EmpiricalMeasure, x: np.ndarray
) -> np.ndarray:
    """Softmax-weighted covariance Cov of A y at query ``x``.

    A weighted sum of symmetric rank-one terms, so it is exactly
    symmetric and PSD up to rounding. It is zero outside the box's rows.
    """
    pts, w, _ = mu.canonical()
    ay, (p,) = _attend(layer, pts, w, [np.asarray(x, dtype=np.float64).reshape(1, -1)])
    diffs = ay - _softmax_mean(p, ay)
    cov = np.zeros((layer.dim, layer.dim))
    cov[layer.rows, layer.rows] = tree_sum(
        p[0][:, None, None] * (diffs[:, :, None] * diffs[:, None, :])
    )
    return cov
