"""The critic's per-measure training algorithm, kept as a reference for tests.

``lipctx.critic`` trains on both measures' atoms in one stacked pass. This
module keeps the earlier algorithm: one forward and one reverse pass per
measure, one tree sum per measure for the value and for each gradient,
and the two sides' gradients subtracted. When each measure has at least two atoms the two
algorithms agree bit for bit; with a one-atom measure the stacked matrix
products can round differently from the one-row ones.
"""
from __future__ import annotations

import math

import numpy as np

from lipctx.layers import clamp_step, spectral_norm
from lipctx.measure import tree_sum


def project(params: tuple) -> tuple:
    a_q, b_q, layers, v = params
    s = spectral_norm(a_q)
    if s > 1.0:
        a_q = a_q / s
    layers = [(w, b, clamp_step(tau, spectral_norm(w), 0.0)) for w, b, tau in layers]
    nrm = float(np.linalg.norm(v))
    if nrm > 1.0:
        v = v / nrm
    return a_q, b_q, layers, v


def forward(params: tuple, pts: np.ndarray) -> tuple[list, list]:
    a_q, b_q, layers, _ = params
    acts = [pts @ a_q.T + b_q]
    pres = []
    for w, b, tau in layers:
        pre = acts[-1] @ w.T + b
        pres.append(pre)
        acts.append(acts[-1] - tau * (np.maximum(pre, 0.0) @ w))
    return acts, pres


def side(params: tuple, pts: np.ndarray, w: np.ndarray) -> tuple[float, tuple]:
    """sum_i w_i phi(x_i) over one measure, and its gradients shaped as ``params``."""
    _, _, layers, v = params
    acts, pres = forward(params, pts)
    value = float(tree_sum(w * (acts[-1] @ v)))
    grad_v = tree_sum(w[:, None] * acts[-1])
    gbar = np.tile(v, (pts.shape[0], 1))
    layer_grads = [None] * len(layers)
    for k in range(len(layers) - 1, -1, -1):
        wk, _, tau = layers[k]
        pre = pres[k]
        relu = np.maximum(pre, 0.0)
        mask = (pre > 0.0).astype(np.float64)
        wg = gbar @ wk.T
        mwg = mask * wg
        g_tau = tree_sum(w * (-np.sum(wg * relu, axis=1)))
        outer = relu[:, :, None] * gbar[:, None, :]
        outer = outer + mwg[:, :, None] * acts[k][:, None, :]
        g_w = tree_sum(w[:, None, None] * (-tau * outer))
        layer_grads[k] = (g_w, tree_sum(w[:, None] * (-tau * mwg)), float(g_tau))
        gbar = gbar - tau * (mwg @ wk)
    grad_aq = tree_sum(w[:, None, None] * (gbar[:, :, None] * pts[:, None, :]))
    grad_bq = tree_sum(w[:, None] * gbar)
    return value, (grad_aq, grad_bq, layer_grads, grad_v)


def objective(params: tuple, sides: list) -> tuple[float, tuple]:
    """mu's side minus nu's, value and gradients."""
    (fm, gm), (fn, gn) = (side(params, pts, w) for pts, w in sides)
    layers = tuple(tuple(x - y for x, y in zip(a, b)) for a, b in zip(gm[2], gn[2]))
    return fm - fn, (gm[0] - gn[0], gm[1] - gn[1], layers, gm[3] - gn[3])


def train(mu, nu, cfg, on_iterate=None, target=None) -> tuple[tuple, float]:
    """``train_critic`` on the per-measure objective; returns (params, best)."""
    rng = np.random.default_rng(cfg.seed)
    d, h = mu.dim, cfg.width
    a_q = rng.uniform(-1.0, 1.0, (h, d)) / math.sqrt(d)
    layers = []
    for _ in range(cfg.depth):
        w = rng.uniform(-1.0, 1.0, (h, h)) * (1.5 / math.sqrt(h))
        layers.append((w, rng.uniform(-0.3, 0.3, h), 1.0))
    v = rng.uniform(-1.0, 1.0, h) / math.sqrt(h)
    sides = [m.canonical()[:2] for m in (mu, nu)]
    best = params = project((a_q, np.zeros(h), layers, v))
    best_obj, grads = objective(params, sides)
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
        params = project((a_q + step * g_a, b_q + step * g_b, layers, v + step * g_v))
        obj, grads = objective(params, sides)
        if on_iterate is not None:
            on_iterate(t, obj)
        if obj > best_obj:
            best, best_obj = params, obj
    return best, best_obj
