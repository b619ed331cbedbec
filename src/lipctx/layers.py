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
``spectral_norm`` returns a power-iteration estimate inflated by
(1 + 1e-6); the inflation makes every bound derived from it an upper
bound despite power iteration underestimating. The supremum of ||A y||
over a ball is overapproximated by ||A c|| + r ||A||_2, which is sound
and cheap. Because the certified bounds are deliberately inflated, the
step clamps accept steps within a relative ``FEAS_SLACK`` above the
certified bound before projecting; exact constructions (the min/max
gate, parallel stacks) sit precisely on the *true* feasibility boundary
and must not be perturbed by certification slack. Callers that need a
strict clamp (the Wasserstein critic) pass ``slack=0``.

Domain membership is enforced fail-closed by ``DomainBall.require``: a
point is inside the declared ball (c, r) when ||x - c|| <= r + 1e-9, an
absolute slack. Every Lipschitz certificate is conditional on the inputs
staying inside the declared domain.
"""
from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field

import numpy as np

from .errors import DimensionMismatchError, InvalidMeasureError
from .measure import DomainBall, EmpiricalMeasure, tree_sum

#: Relative slack accepted by step clamps above the certified bound.
#: Covers the (1 + 1e-6)^2 certification inflation with margin, so a
#: step that is feasible for the true norm is not shaved.
FEAS_SLACK = 1e-5

#: Inflation factor applied to power-iteration estimates.
CERT_INFLATION = 1.0 + 1e-6

_POWER_MAX_ITER = 500
_POWER_RESIDUAL = 1e-13


def spectral_norm(mat: np.ndarray) -> float:
    """Certified upper bound on the spectral norm of ``mat``.

    Power iteration on M^T M from the normalized all-ones vector, with a
    seeded random restart if the iterate lands in the kernel, run to a
    relative eigen-residual of 1e-13 or 500 iterations. The Rayleigh
    estimate can only undershoot, so the result is inflated by
    (1 + 1e-6) to yield a certified upper bound.
    """
    m = np.asarray(mat, dtype=np.float64)
    if m.ndim != 2:
        raise DimensionMismatchError("spectral_norm expects a matrix")
    if not np.all(np.isfinite(m)):
        raise InvalidMeasureError("matrix has non-finite entries")
    scale = float(np.max(np.abs(m))) if m.size else 0.0
    if scale == 0.0:
        return 0.0
    m1 = m / scale
    mtm = m1.T @ m1
    s = m1.shape[1]
    v = np.full(s, 1.0 / math.sqrt(s))
    rng = None
    lam = 0.0
    for _ in range(_POWER_MAX_ITER):
        u = mtm @ v
        sq = float(u @ u)
        if sq == 0.0:
            # Start vector exactly orthogonal to the top eigenspace.
            if rng is None:
                rng = np.random.default_rng(0)
            v = rng.standard_normal(s)
            v /= math.sqrt(float(v @ v))
            continue
        lam = float(v @ u)
        # ||u - lam*v||^2 = ||u||^2 - lam^2 since ||v|| = 1 and lam = v.u
        if sq - lam * lam <= (_POWER_RESIDUAL * lam) ** 2:
            break
        v = u / math.sqrt(sq)
    return scale * math.sqrt(max(lam, 0.0)) * CERT_INFLATION


def clamp_step(step: float, sup: float, slack: float = FEAS_SLACK) -> float:
    """Project a step size into [0, 2 / sup^2] against a certified ``sup``.

    Steps within ``slack`` (relative) above the bound pass unchanged:
    the bound is built from an inflated norm estimate, so such steps are
    feasible for the true norm. When ``sup`` is zero the layer is the
    identity regardless of the step, which is left untouched.
    """
    if sup <= 0.0:
        return step
    if step < 0.0:
        return 0.0
    bound = 2.0 / (sup * sup)
    if step <= bound * (1.0 + slack):
        return step
    return bound


def softmax_weights(scores: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Weighted softmax p_i = w_i e^{s_i - max} / sum_j w_j e^{s_j - max}.

    The max is taken over atoms of positive weight so the denominator
    cannot underflow to zero; adding a constant to all scores leaves the
    result unchanged.
    """
    p = _softmax_batch(np.asarray(scores, dtype=np.float64)[None, :], weights)
    return p[0]


def _softmax_batch(scores: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Row-wise weighted softmax for a (m, n) score matrix."""
    w = np.asarray(weights, dtype=np.float64)
    pos = w > 0
    if np.all(pos):
        smax = scores.max(axis=1)
        e = np.exp(scores - smax[:, None]) * w
    else:
        smax = scores[:, pos].max(axis=1)
        e = np.zeros_like(scores)
        e[:, pos] = np.exp(scores[:, pos] - smax[:, None]) * w[pos]
    z = tree_sum(e.T)
    return e / z[:, None]


# ---------------------------------------------------------------------------
# Layer types
# ---------------------------------------------------------------------------
@dataclass(frozen=True, eq=False)
class MlpLayer:
    """Parameters (W, b, tau) of a gradient-descent MLP layer.

    ``cert_spec_norm`` is a certified upper bound on ||W||_2, recomputed
    at construction; the constructor clamps tau into the certified
    feasible interval unless ``clamp=False`` (used by constructions whose
    exact parameters are proven feasible analytically).
    """

    W: np.ndarray  # (k, d)
    b: np.ndarray  # (k,)
    tau: float
    cert_spec_norm: float = field(default=None)
    clamp: InitVar[bool] = True
    slack: InitVar[float] = FEAS_SLACK

    def __post_init__(self, clamp: bool, slack: float):
        w = np.atleast_2d(np.asarray(self.W, dtype=np.float64)).copy()
        bias = np.asarray(self.b, dtype=np.float64).reshape(-1).copy()
        if bias.shape[0] != w.shape[0]:
            raise DimensionMismatchError(
                f"bias of size {bias.shape[0]} for W with {w.shape[0]} rows"
            )
        if not np.all(np.isfinite(w)) or not np.all(np.isfinite(bias)):
            raise InvalidMeasureError("non-finite MLP parameters")
        cert = spectral_norm(w)
        tau = float(self.tau)
        if not np.isfinite(tau):
            raise InvalidMeasureError("non-finite tau")
        if clamp:
            tau = clamp_step(tau, cert, slack)
        w.flags.writeable = False
        bias.flags.writeable = False
        object.__setattr__(self, "W", w)
        object.__setattr__(self, "b", bias)
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "cert_spec_norm", cert)

    @property
    def dim(self) -> int:
        return self.W.shape[1]

    def __repr__(self) -> str:
        k, d = self.W.shape
        return f"MlpLayer(k={k}, d={d}, tau={self.tau:.6g})"


@dataclass(frozen=True, eq=False)
class AttentionLayer:
    """Parameters (A, eta) of a gradient-descent attention layer.

    ``domain`` is the declared input ball; ``sup_ay`` a certified upper
    bound on sup ||A y|| over the actual input set. By default it is the
    ball bound ||A c|| + r ||A||_2; parallel constructions override it
    with the tighter block-structure bound (their declared ball encloses
    a product set on which the supremum is smaller).
    """

    A: np.ndarray  # (d, d)
    eta: float
    domain: DomainBall
    sup_ay: float = field(default=None)
    clamp: InitVar[bool] = True
    slack: InitVar[float] = FEAS_SLACK

    def __post_init__(self, clamp: bool, slack: float):
        a = np.atleast_2d(np.asarray(self.A, dtype=np.float64)).copy()
        if a.shape[0] != a.shape[1]:
            raise DimensionMismatchError("attention matrix must be square")
        if a.shape[0] != self.domain.dim:
            raise DimensionMismatchError(
                f"matrix of dim {a.shape[0]} vs domain of dim {self.domain.dim}"
            )
        if not np.all(np.isfinite(a)):
            raise InvalidMeasureError("non-finite attention matrix")
        sup = self.sup_ay
        if sup is None:
            sup = ball_sup_ay(a, self.domain)
        eta = float(self.eta)
        if not np.isfinite(eta):
            raise InvalidMeasureError("non-finite eta")
        if clamp:
            eta = clamp_step(eta, sup, slack)
        a.flags.writeable = False
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "sup_ay", float(sup))

    @property
    def dim(self) -> int:
        return self.A.shape[0]

    @property
    def is_identity(self) -> bool:
        """Whether the layer is exactly the identity (zero step or zero matrix)."""
        return self.eta == 0.0 or not self.A.any()

    def __repr__(self) -> str:
        return (
            f"AttentionLayer(d={self.dim}, eta={self.eta:.6g}, "
            f"sup_ay={self.sup_ay:.6g})"
        )


def ball_sup_ay(a: np.ndarray, domain: DomainBall) -> float:
    """Certified sup of ||A y|| over a ball: ||A c|| + r ||A||_2."""
    return float(np.linalg.norm(a @ domain.center)) + domain.radius * spectral_norm(a)


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
def attn_apply_batch(
    layer: AttentionLayer,
    mu: EmpiricalMeasure,
    queries: np.ndarray,
    stage: int | None = None,
) -> np.ndarray:
    """Attention update of a batch of queries against the measure ``mu``.

    Atom reductions run over the measure's canonical order, so the
    result does not depend on atom storage order.
    """
    layer.domain.require(mu.points, "context atom", stage)
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    layer.domain.require(queries, "query", stage)
    if layer.is_identity:
        return queries
    pts, w, _ = mu.canonical()
    ay = pts @ layer.A.T  # (n, d)
    scores = queries @ ay.T  # (m, n)
    p = _softmax_batch(scores, w)
    # (n, m, d) terms reduced over atoms in canonical order.
    update = tree_sum(p.T[:, :, None] * ay[:, None, :])
    return queries - layer.eta * update


def attn_forward(layer: AttentionLayer, mu: EmpiricalMeasure, x: np.ndarray) -> np.ndarray:
    """Gamma(mu, x) = x - eta * softmax-weighted mean of A y."""
    return attn_apply_batch(layer, mu, np.asarray(x, dtype=np.float64)[None, :])[0]


def attn_softmax_mean(
    layer: AttentionLayer, mu: EmpiricalMeasure, x: np.ndarray
) -> np.ndarray:
    """m(x): the softmax-weighted mean of A y, i.e. the potential gradient."""
    layer.domain.require(mu.points, "context atom")
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    layer.domain.require(x, "query")
    pts, w, _ = mu.canonical()
    ay = pts @ layer.A.T
    p = _softmax_batch((x @ ay.T)[None, :], w)[0]
    return tree_sum(p[:, None] * ay)


def attn_potential(layer: AttentionLayer, mu: EmpiricalMeasure, x: np.ndarray) -> float:
    """lam(mu)(x) = log sum_i w_i exp(<x, A y_i>), max-subtracted."""
    layer.domain.require(mu.points, "context atom")
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    layer.domain.require(x, "query")
    pts, w, _ = mu.canonical()
    scores = pts @ (layer.A.T @ x)
    pos = w > 0
    smax = float(np.max(scores[pos]))
    z = float(tree_sum(np.where(pos, np.exp(scores - smax) * w, 0.0)))
    return smax + math.log(z)


def attn_covariance(
    layer: AttentionLayer, mu: EmpiricalMeasure, x: np.ndarray
) -> np.ndarray:
    """Softmax-weighted covariance Cov of A y at query ``x``.

    A weighted sum of symmetric rank-one terms, so it is exactly
    symmetric and PSD up to rounding.
    """
    layer.domain.require(mu.points, "context atom")
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    layer.domain.require(x, "query")
    pts, w, _ = mu.canonical()
    ay = pts @ layer.A.T
    p = _softmax_batch((x @ ay.T)[None, :], w)[0]
    mean = tree_sum(p[:, None] * ay)
    diffs = ay - mean
    return tree_sum(p[:, None, None] * (diffs[:, :, None] * diffs[:, None, :]))


def attn_jacobian(
    layer: AttentionLayer, mu: EmpiricalMeasure, x: np.ndarray
) -> np.ndarray:
    """Query Jacobian I - eta * Cov of the attention update.

    The result is exactly symmetric; its spectral norm stays within
    1 + 1e-9 under the eta invariant.
    """
    return np.eye(layer.dim) - layer.eta * attn_covariance(layer, mu, x)
