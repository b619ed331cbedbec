"""Trainable 1-Lipschitz critic producing certified W1 lower bounds.

By Kantorovich--Rubinstein duality,

    W1(mu, nu) = sup { integral of phi d(mu - nu) : Lip(phi) <= 1 },

so *every* 1-Lipschitz function evaluated on two measures yields a lower
bound on their W1 distance. The critic here is a context-free scalar
network

    phi(z) = readout . F_K( ... F_1( A_q z + b_q ) ... )

whose factors are individually certified: ||A_q||_2 <= 1, every MLP
layer 1-Lipschitz via a *strict* step clamp, and ||readout||_2 <= 1.
The product of certified factors stays below one, so ``kr_objective``
never exceeds the exact W1 value (up to 1e-9) at any point of training;
this duality soundness is the module's load-bearing invariant and is why
the projection uses strict clamps (slack 0) rather than the tolerant
clamp used elsewhere.

Training is plain projected gradient ascent with hand-rolled
reverse-mode gradients (ReLU subgradient 0 at the kink) and best-iterate
selection: ascent at a fixed step can oscillate, and duality makes every
projected iterate a valid bound, so keeping the best seen is free.
Everything is seeded and bit-reproducible.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, InvalidMeasureError
from .layers import MlpLayer, clamp_step
from .measure import EmpiricalMeasure, tree_sum, w1_exact
from .transformer import Lifting


@dataclass(frozen=True, eq=False)
class Critic:
    """Context-free scalar network; 1-Lipschitz once projected."""

    lifting: Lifting
    stack: tuple  # of MlpLayer
    readout: np.ndarray  # (h,)

    def __post_init__(self):
        stack = tuple(self.stack)
        h = self.lifting.out_dim
        for i, layer in enumerate(stack):
            if layer.dim != h:
                raise DimensionMismatchError(
                    f"stack layer {i} of width {layer.dim}, expected {h}"
                )
        v = np.asarray(self.readout, dtype=np.float64).reshape(-1).copy()
        if v.shape[0] != h:
            raise DimensionMismatchError(
                f"readout of size {v.shape[0]} for width {h}"
            )
        v.flags.writeable = False
        object.__setattr__(self, "stack", stack)
        object.__setattr__(self, "readout", v)

    @property
    def in_dim(self) -> int:
        return self.lifting.in_dim

    @property
    def width(self) -> int:
        return self.lifting.out_dim

    def negated(self) -> "Critic":
        """The critic -phi; useful to flip the sides of the objective."""
        return Critic(self.lifting, self.stack, -self.readout)


@dataclass(frozen=True)
class TrainConfig:
    """Projected-gradient-ascent schedule (all runs it seeds are pure)."""

    iterations: int = 2000
    step_size: float = 0.1
    seed: int = 0
    width: int = 16
    depth: int = 2

    def __post_init__(self):
        if self.iterations < 1:
            raise InvalidMeasureError("iterations must be >= 1")
        if not 0.0 < self.step_size <= 1.0:
            raise InvalidMeasureError("step_size must be in (0, 1]")
        if self.width < 1 or self.depth < 0:
            raise InvalidMeasureError("width >= 1 and depth >= 0 required")


@dataclass(frozen=True, eq=False)
class GradientSet:
    """Partials of the objective, mirroring Critic's parameters."""

    a_q: np.ndarray
    b_q: np.ndarray
    layers: tuple  # of (grad_W, grad_b, grad_tau)
    readout: np.ndarray


# ---------------------------------------------------------------------------
# Forward evaluation
# ---------------------------------------------------------------------------
def critic_value(c: Critic, z: np.ndarray) -> float:
    return float(critic_value_batch(c, np.asarray(z, dtype=np.float64)[None, :])[0])


def critic_value_batch(c: Critic, zs: np.ndarray) -> np.ndarray:
    zs = np.atleast_2d(np.asarray(zs, dtype=np.float64))
    if zs.shape[1] != c.in_dim:
        raise DimensionMismatchError(
            f"inputs of dim {zs.shape[1]} for critic of input dim {c.in_dim}"
        )
    out = c.lifting.apply_batch(zs)
    for layer in c.stack:
        pre = out @ layer.W.T + layer.b
        out = out - layer.tau * (np.maximum(pre, 0.0) @ layer.W)
    return out @ c.readout


def kr_objective(c: Critic, mu: EmpiricalMeasure, nu: EmpiricalMeasure) -> float:
    """integral of phi d(mu - nu), reduced in canonical atom order.

    Computed as two separate weighted tree sums and subtracted, so
    identical measures give exactly zero.
    """
    if mu.dim != nu.dim or mu.dim != c.in_dim:
        raise DimensionMismatchError("measure/critic dimension mismatch")
    side = []
    for m in (mu, nu):
        pts, w, _ = m.canonical()
        side.append(float(tree_sum(w * critic_value_batch(c, pts))))
    return side[0] - side[1]


# ---------------------------------------------------------------------------
# Reverse-mode gradients
# ---------------------------------------------------------------------------
def _side_grads(c: Critic, m: EmpiricalMeasure) -> GradientSet:
    """Weighted parameter gradients of sum_i w_i phi(x_i) for one side."""
    pts, w, _ = m.canonical()
    n = pts.shape[0]
    acts = [c.lifting.apply_batch(pts)]
    pres = []
    for layer in c.stack:
        pre = acts[-1] @ layer.W.T + layer.b
        pres.append(pre)
        acts.append(acts[-1] - layer.tau * (np.maximum(pre, 0.0) @ layer.W))
    grad_v = tree_sum(w[:, None] * acts[-1])
    gbar = np.tile(c.readout, (n, 1))
    layer_grads: list[tuple] = [None] * len(c.stack)
    for k in range(len(c.stack) - 1, -1, -1):
        layer = c.stack[k]
        pre = pres[k]
        relu = np.maximum(pre, 0.0)
        mask = (pre > 0.0).astype(np.float64)  # subgradient 0 at the kink
        wg = gbar @ layer.W.T
        mwg = mask * wg
        g_tau = tree_sum(w * (-np.sum(wg * relu, axis=1)))
        g_w = tree_sum(
            w[:, None, None]
            * (
                -layer.tau
                * (
                    relu[:, :, None] * gbar[:, None, :]
                    + mwg[:, :, None] * acts[k][:, None, :]
                )
            )
        )
        g_b = tree_sum(w[:, None] * (-layer.tau * mwg))
        layer_grads[k] = (g_w, g_b, float(g_tau))
        gbar = gbar - layer.tau * (mwg @ layer.W)
    grad_aq = tree_sum(w[:, None, None] * (gbar[:, :, None] * pts[:, None, :]))
    grad_bq = tree_sum(w[:, None] * gbar)
    return GradientSet(grad_aq, grad_bq, tuple(layer_grads), grad_v)


def critic_grads(c: Critic, mu: EmpiricalMeasure, nu: EmpiricalMeasure) -> GradientSet:
    """Exact reverse-mode partials of ``kr_objective``."""
    if mu.dim != nu.dim or mu.dim != c.in_dim:
        raise DimensionMismatchError("measure/critic dimension mismatch")
    gm = _side_grads(c, mu)
    gn = _side_grads(c, nu)
    return GradientSet(
        gm.a_q - gn.a_q,
        gm.b_q - gn.b_q,
        tuple(
            (a[0] - b[0], a[1] - b[1], a[2] - b[2])
            for a, b in zip(gm.layers, gn.layers)
        ),
        gm.readout - gn.readout,
    )


# ---------------------------------------------------------------------------
# Projection and training
# ---------------------------------------------------------------------------
def project_params(c: Critic) -> Critic:
    """Project onto the certified-1-Lipschitz parameter set (strict).

    Readout scaled into the unit ball, lifting scaled by its certified
    spectral bound when above one, every tau strictly clamped. The
    certified bounds are upper bounds, so the composite's true Lipschitz
    constant ends at most one. Idempotent within 1e-12. A layer whose
    tau already meets the strict clamp (``train_critic`` builds its
    layers with ``slack=0``) is kept, not rebuilt.
    """
    a_q = c.lifting.A
    s = c.lifting.cert_spec_norm
    lifting = c.lifting if s <= 1.0 else Lifting(a_q / s, c.lifting.b)
    stack = tuple(
        layer
        if clamp_step(layer.tau, layer.cert_spec_norm, 0.0) == layer.tau
        else MlpLayer(layer.W, layer.b, layer.tau, slack=0.0)
        for layer in c.stack
    )
    v = c.readout
    nrm = float(np.linalg.norm(v))
    if nrm > 1.0:
        v = v / nrm
    return Critic(lifting, stack, v)


def train_critic(
    mu: EmpiricalMeasure,
    nu: EmpiricalMeasure,
    cfg: TrainConfig,
    on_iterate=None,
    target: float | None = None,
) -> tuple[Critic, float]:
    """Projected gradient ascent on the duality objective.

    Returns the best iterate by objective value together with that
    value; by duality the estimate is a valid W1 lower bound at every
    iterate, and best-iterate reporting makes it nondecreasing in the
    iteration budget. Fully deterministic given ``cfg``. When ``target``
    is given the loop stops early once the best objective reaches it
    (the iteration budget is a cap, not a quota).
    """
    if mu.dim != nu.dim:
        raise DimensionMismatchError("measures of different dimension")
    rng = np.random.default_rng(cfg.seed)
    d, h = mu.dim, cfg.width
    a_q = rng.uniform(-1.0, 1.0, (h, d)) / math.sqrt(d)
    b_q = np.zeros(h)
    stack = []
    for _ in range(cfg.depth):
        w = rng.uniform(-1.0, 1.0, (h, h)) * (1.5 / math.sqrt(h))
        b = rng.uniform(-0.3, 0.3, h)
        stack.append(MlpLayer(w, b, 1.0, slack=0.0))
    v = rng.uniform(-1.0, 1.0, h) / math.sqrt(h)
    c = project_params(Critic(Lifting(a_q, b_q), tuple(stack), v))
    best = c
    best_obj = kr_objective(c, mu, nu)
    if on_iterate is not None:
        on_iterate(0, best_obj)
    step = cfg.step_size
    if target is not None and best_obj >= target:
        return best, best_obj
    for t in range(1, cfg.iterations + 1):
        g = critic_grads(c, mu, nu)
        new_stack = tuple(
            MlpLayer(
                layer.W + step * gw,
                layer.b + step * gb,
                layer.tau + step * gt,
                slack=0.0,
            )
            for layer, (gw, gb, gt) in zip(c.stack, g.layers)
        )
        c = project_params(
            Critic(
                Lifting(c.lifting.A + step * g.a_q, c.lifting.b + step * g.b_q),
                new_stack,
                c.readout + step * g.readout,
            )
        )
        obj = kr_objective(c, mu, nu)
        if on_iterate is not None:
            on_iterate(t, obj)
        if obj > best_obj:
            best_obj = obj
            best = c
        if target is not None and best_obj >= target:
            break
    return best, best_obj


def kr_gap(
    mu: EmpiricalMeasure, nu: EmpiricalMeasure, cfg: TrainConfig
) -> tuple[float, float, float]:
    """(critic estimate, exact W1, duality gap >= -1e-9)."""
    exact = w1_exact(mu, nu)
    _, estimate = train_critic(mu, nu, cfg)
    return estimate, exact, exact - estimate
