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
clamp used elsewhere. The rescalings round: when s = ``spectral_norm(A_q)``
exceeds one, each entry of fl(A_q / s) is off by at most u = 2^-53
relative and s >= ||A_q||_2, so ||fl(A_q / s)||_2 <= 1 + u sqrt(min(h, d))
for A_q of shape h x d (barring underflow); the readout likewise ends
within (h + 2) u of the unit ball.

Training is plain projected gradient ascent with hand-rolled
reverse-mode gradients (ReLU subgradient 0 at the kink) and best-iterate
selection: ascent at a fixed step can oscillate, and duality makes every
projected iterate a valid bound, so keeping the best seen is free. The
iterate is kept as arrays ``(A_q, b_q, [(W, b, tau)], v)``; a step is one
``_project`` and one ``_objective``. The canonical atoms of both measures
are stacked once per call, and ``_objective`` runs one forward and one
reverse pass over them, writes each atom's weighted terms into one row,
and reduces mu's rows and nu's rows with one tree sum each.
``kr_objective`` takes the same forward route, so its value equals the
training objective bit for bit. A stacked matrix product rounds each row
as a product over one measure's rows does when that measure has at least
two atoms; a one-atom measure's rows go through a matrix-matrix product
instead of a matrix-vector one and may differ by rounding. A ``Critic``
is built only for the returned iterate. Everything is seeded and
bit-reproducible.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, InvalidMeasureError
from .layers import MlpLayer, clamp_step, spectral_norm
from .measure import EmpiricalMeasure, tree_sum
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
# Array core: parameters (A_q, b_q, [(W, b, tau)], v)
# ---------------------------------------------------------------------------
def _params(c: Critic) -> tuple:
    return c.lifting.A, c.lifting.b, [(l.W, l.b, l.tau) for l in c.stack], c.readout


def _critic(params: tuple) -> Critic:
    """The critic of a projected iterate; its taus are already clamped."""
    a_q, b_q, layers, v = params
    stack = tuple(MlpLayer(w, b, tau) for w, b, tau in layers)
    return Critic(Lifting(a_q, b_q), stack, v)


def _stacked_atoms(
    mu: EmpiricalMeasure, nu: EmpiricalMeasure, in_dim: int
) -> tuple[np.ndarray, np.ndarray, int]:
    """Canonical atoms of mu then of nu in one array, their weights, mu's count."""
    if mu.dim != nu.dim or mu.dim != in_dim:
        raise DimensionMismatchError("measure/critic dimension mismatch")
    (pm, wm, _), (pn, wn, _) = mu.canonical(), nu.canonical()
    return np.concatenate([pm, pn]), np.concatenate([wm, wn]), pm.shape[0]


def _project(params: tuple) -> tuple:
    """``project_params`` on arrays."""
    a_q, b_q, layers, v = params
    s = spectral_norm(a_q)
    if s > 1.0:
        a_q = a_q / s
    projected = []
    for w, b, tau in layers:
        if not (np.all(np.isfinite(b)) and math.isfinite(tau)):
            raise InvalidMeasureError("non-finite MLP parameters")
        projected.append((w, b, clamp_step(tau, spectral_norm(w), 0.0)))
    nrm = float(np.linalg.norm(v))
    if nrm > 1.0:
        v = v / nrm
    return a_q, b_q, projected, v


def _forward(params: tuple, pts: np.ndarray) -> tuple[list, list]:
    """Activations after the lifting and after each layer; pre-activations."""
    a_q, b_q, layers, _ = params
    acts = [pts @ a_q.T + b_q]
    pres = []
    for w, b, tau in layers:
        pre = acts[-1] @ w.T + b
        pres.append(pre)
        acts.append(acts[-1] - tau * (np.maximum(pre, 0.0) @ w))
    return acts, pres


def _weighted_values(last: np.ndarray, v: np.ndarray, atoms: tuple) -> np.ndarray:
    """w_i phi(x_i) for every stacked atom, given the last activations.

    The readout product runs on each measure's rows alone: the bits of a
    matrix-vector product depend on its row count.
    """
    _, w, n_mu = atoms
    return np.concatenate([w[:n_mu] * (last[:n_mu] @ v), w[n_mu:] * (last[n_mu:] @ v)])


def _objective(params: tuple, atoms: tuple) -> tuple[float, tuple]:
    """The objective and its gradients, shaped as ``params``: mu's side minus nu's.

    One forward and one reverse pass run over both measures' atoms. Row i
    of ``terms`` holds atom i's weighted terms: the value, the readout
    gradient, then per layer the W, b and tau gradients, then the lifting
    gradients. One tree sum over mu's rows and one over nu's reduce every
    term column by column, as separate sums per term would.
    """
    _, _, layers, v = params
    pts, w, n_mu = atoms
    (n, d), h = pts.shape, v.shape[0]
    acts, pres = _forward(params, pts)
    layer_terms = [None] * len(layers)
    gbar = np.tile(v, (n, 1))
    for k in range(len(layers) - 1, -1, -1):
        wk, _, tau = layers[k]
        pre = pres[k]
        relu = np.maximum(pre, 0.0)
        mask = (pre > 0.0).astype(np.float64)  # subgradient 0 at the kink
        wg = gbar @ wk.T
        mwg = mask * wg
        outer = relu[:, :, None] * gbar[:, None, :]
        outer = outer + mwg[:, :, None] * acts[k][:, None, :]
        layer_terms[k] = (
            (w[:, None, None] * (-tau * outer)).reshape(n, h * h),
            w[:, None] * (-tau * mwg),
            (w * (-np.sum(wg * relu, axis=1)))[:, None],
        )
        gbar = gbar - tau * (mwg @ wk)
    columns = (
        [_weighted_values(acts[-1], v, atoms)[:, None], w[:, None] * acts[-1]]
        + [t for lt in layer_terms for t in lt]
        + [
            (w[:, None, None] * (gbar[:, :, None] * pts[:, None, :])).reshape(n, h * d),
            w[:, None] * gbar,
        ]
    )
    terms = np.concatenate(columns, axis=1)
    flat = tree_sum(terms[:n_mu]) - tree_sum(terms[n_mu:])
    parts, at = [], 0
    for col in columns:
        parts.append(flat[at : at + col.shape[1]])
        at += col.shape[1]
    layer_grads = [
        (g_w.reshape(h, h), g_b, float(g_tau[0]))
        for g_w, g_b, g_tau in zip(parts[2:-2:3], parts[3:-2:3], parts[4:-2:3])
    ]
    return float(parts[0][0]), (parts[-2].reshape(h, d), parts[-1], layer_grads, parts[1])


# ---------------------------------------------------------------------------
# Public functions on Critic objects, wrapping the same core
# ---------------------------------------------------------------------------
def critic_value(c: Critic, z: np.ndarray) -> float:
    return float(critic_value_batch(c, np.asarray(z, dtype=np.float64)[None, :])[0])


def critic_value_batch(c: Critic, zs: np.ndarray) -> np.ndarray:
    zs = np.atleast_2d(np.asarray(zs, dtype=np.float64))
    if zs.shape[1] != c.in_dim:
        raise DimensionMismatchError(
            f"inputs of dim {zs.shape[1]} for critic of input dim {c.in_dim}"
        )
    return _forward(_params(c), zs)[0][-1] @ c.readout


def kr_objective(c: Critic, mu: EmpiricalMeasure, nu: EmpiricalMeasure) -> float:
    """integral of phi d(mu - nu), reduced in canonical atom order.

    One forward pass over both measures' atoms, then one weighted tree sum
    per measure, subtracted, so identical measures give exactly zero. The
    same route as ``_objective``'s value, without the reverse pass.
    """
    atoms = _stacked_atoms(mu, nu, c.in_dim)
    n_mu = atoms[2]
    terms = _weighted_values(_forward(_params(c), atoms[0])[0][-1], c.readout, atoms)
    return float(tree_sum(terms[:n_mu])) - float(tree_sum(terms[n_mu:]))


def critic_grads(c: Critic, mu: EmpiricalMeasure, nu: EmpiricalMeasure) -> GradientSet:
    """Exact reverse-mode partials of ``kr_objective``."""
    return GradientSet(*_objective(_params(c), _stacked_atoms(mu, nu, c.in_dim))[1])


def project_params(c: Critic) -> Critic:
    """Project onto the certified-1-Lipschitz parameter set (strict).

    Readout scaled into the unit ball, lifting scaled by its certified
    spectral bound when above one, every tau strictly clamped, so the
    true Lipschitz constant ends at most one up to the rounding bounded
    in the module docstring. Idempotent within 1e-12.
    """
    return _critic(_project(_params(c)))


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------
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
    layers = []
    for _ in range(cfg.depth):
        w = rng.uniform(-1.0, 1.0, (h, h)) * (1.5 / math.sqrt(h))
        layers.append((w, rng.uniform(-0.3, 0.3, h), 1.0))
    v = rng.uniform(-1.0, 1.0, h) / math.sqrt(h)
    atoms = _stacked_atoms(mu, nu, d)
    best = params = _project((a_q, np.zeros(h), layers, v))
    best_obj, grads = _objective(params, atoms)
    if on_iterate is not None:
        on_iterate(0, best_obj)
    step = cfg.step_size
    for t in range(1, cfg.iterations + 1):
        if target is not None and best_obj >= target:
            break
        (a_q, b_q, layers, v), (g_a, g_b, g_layers, g_v) = params, grads
        layers = [
            (w + step * gw, b + step * gb, tau + step * gt)
            for (w, b, tau), (gw, gb, gt) in zip(layers, g_layers)
        ]
        params = _project((a_q + step * g_a, b_q + step * g_b, layers, v + step * g_v))
        obj, grads = _objective(params, atoms)
        if on_iterate is not None:
            on_iterate(t, obj)
        if obj > best_obj:
            best, best_obj = params, obj
    return _critic(best), best_obj

