"""Numerical certification harness for Lipschitz and gradient claims.

Every claim the layer and transformer modules make is checked here
against an independent numerical route:

  * query 1-Lipschitzness    -- seeded sampling of measure/query pairs;
  * context Lipschitzness    -- sampled measure pairs against the exact
                                W1 oracle, with an assembled per-layer
                                constant as the sound reference bound;
  * Jacobian = I - eta*Cov   -- central finite differences, the 2d probes
                                x +- h e_i run as one query batch;
  * update = -eta * grad lam -- central finite differences of the
                                potential.

The context constant for one attention layer is assembled from three
elementary bounds. With R = sup ||y|| over the domain ball,
B = ||A|| R^2 (score bound), L_f = ||A|| R (score Lipschitz bound), and
Z(mu) in [e^-B, e^B] the softmax normalizer:

    ||N(mu) - N(nu)|| <= e^B ||A|| (1 + R L_f) W1(mu, nu)
    ||N(nu)||         <= e^B ||A|| R
    |1/Z(mu) - 1/Z(nu)| <= e^{2B} |Z(mu) - Z(nu)| <= e^{3B} L_f W1(mu, nu)

so the attention update, eta * N/Z, moves by at most C1 * W1 with

    C1 = eta * ( e^{2B} ||A|| (1 + R L_f)  +  e^{4B} ||A|| R L_f ).

For a deep model the measure path is itself Lipschitz: one attention
layer maps W1 to at most (1 + C1) W1 (transport each atom and bound the
two contributions separately), MLP pushforwards are nonexpansive, and
the lifting scales W1 by at most its certified norm. Unrolling gives the
conservative product bound

    |eval(mu,x) - eval(nu,x)|
        <= ||readout|| * ||A_q||_cert * (prod_l (1 + C1_l) - 1) * W1(mu,nu).

The sharp constant is unknown; both the raw empirical ratio and this
bound are reported. Balls of radius above 2 make e^{4B} explode; the C1
value is then capped at a sentinel and flagged vacuous rather than
reported as a silent infinity.

Reports are bit-reproducible: sampling uses per-trial generators spawned
from one seed, trials run in index order, and aggregation is a
deterministic index-ordered max-reduce.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BoundaryProximityError, NotClampedError
from .layers import (
    AttentionLayer,
    MlpLayer,
    attn_apply_batch,
    attn_covariance,
    attn_forward,
    attn_potential,
    attn_softmax_mean,
    ball_sup_ay,
    spectral_norm,
)
from .measure import DomainBall, EmpiricalMeasure, new_empirical, w1_exact
from .transformer import (
    Lifting,
    ScalarModel,
    attn_image,
    evaluate_batch,
    is_clamped,
    lifted_ball,
    mlp_image,
)

#: Sentinel cap for context constants that overflow.
C1_CAP = 1e18

#: Ball radius above which the context bound is flagged vacuous.
VACUOUS_RADIUS = 2.0

#: Largest atom count of the measures sampled by the context check; small
#: enough that the exact W1 oracle stays cheap.
CONTEXT_MAX_ATOMS = 8

_FD_STEP = float(np.finfo(np.float64).eps) ** (1.0 / 3.0)


# ---------------------------------------------------------------------------
# Report types
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class CheckResult:
    """One certification entry: pass iff statistic <= bound."""

    name: str
    stat: float
    bound: float
    passed: bool
    n: int
    seed: int


@dataclass(frozen=True)
class CertReport:
    """Machine-readable record of a certification run."""

    model_hash: str
    checks: tuple
    witness: dict | None = None

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


@dataclass(frozen=True)
class ContextConstants:
    """Assembled per-layer context-Lipschitz constants (Wasserstein side)."""

    score_bound: float  # B
    score_lipschitz: float  # L_f
    z_lo: float
    z_hi: float
    c1: float
    vacuous: bool


def context_lipschitz_bound(layer: AttentionLayer) -> ContextConstants:
    """Certified bound on ||Gamma(mu,x) - Gamma(nu,x)|| / W1(mu,nu)."""
    radius = layer.domain.radius
    r_sup = float(np.linalg.norm(layer.domain.center)) + radius
    op = spectral_norm(layer.block)
    b_score = op * r_sup * r_sup
    l_f = op * r_sup
    with np.errstate(over="ignore"):
        z_lo = float(np.exp(-b_score))
        z_hi = float(np.exp(b_score))
        c1 = layer.eta * (
            np.exp(2.0 * b_score) * op * (1.0 + r_sup * l_f)
            + np.exp(4.0 * b_score) * op * r_sup * l_f
        )
    vacuous = radius > VACUOUS_RADIUS or not np.isfinite(c1) or c1 > C1_CAP
    return ContextConstants(
        b_score, l_f, z_lo, min(z_hi, C1_CAP), float(min(c1, C1_CAP)), vacuous
    )


def context_product_bound(model: ScalarModel) -> tuple[float, bool]:
    """(conservative deep context bound, vacuous flag)."""
    log_prod = 0.0
    vacuous = False
    for attn, _ in model.blocks:
        cc = context_lipschitz_bound(attn)
        vacuous = vacuous or cc.vacuous
        log_prod += math.log1p(min(cc.c1, C1_CAP))
    readout = float(np.linalg.norm(model.readout))
    if log_prod > 700.0:
        return C1_CAP, True
    bound = readout * model.lifting.cert_spec_norm * (math.exp(log_prod) - 1.0)
    if not np.isfinite(bound) or bound > C1_CAP:
        return C1_CAP, True
    return bound, vacuous


# ---------------------------------------------------------------------------
# Sampling utilities
# ---------------------------------------------------------------------------
def _worst(results: list) -> tuple:
    """The (statistic, witness) trial result with the largest statistic."""
    return max([(0.0, None)] + results, key=lambda r: r[0])


def spawn_rngs(seed: int, n: int) -> list:
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(n)]


def sample_in_ball(rng, ball: DomainBall, size: int) -> np.ndarray:
    """Uniform points in the ball (gaussian direction, u^(1/d) radius)."""
    d = ball.dim
    dirs = rng.standard_normal((size, d))
    norms = np.linalg.norm(dirs, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    radii = ball.radius * rng.random(size) ** (1.0 / d)
    return ball.center + dirs / norms * radii[:, None]


def random_measure(rng, ball: DomainBall, max_atoms: int = 32) -> EmpiricalMeasure:
    """Uniform-weight measure of 1 to ``max_atoms`` atoms uniform in the ball."""
    n = int(rng.integers(1, max_atoms + 1))
    return new_empirical(sample_in_ball(rng, ball, n))


def random_clamped_model(
    dim: int, width: int, n_blocks: int, seed: int, radius: float = 1.0
) -> ScalarModel:
    """Seeded random model with every step drawn inside its certified bound.

    Step sizes are drawn as a uniform fraction of the bound computed
    from the *propagated* ball (the same ball ``clamp_model`` would
    assign), so the result is already clamped bit for bit. The lifting
    is spectrally normalized (certified norm at most one) and the
    readout is uniform on the unit sphere, so the end-to-end map is
    1-Lipschitz in the query and ``empirical_query_lipschitz``'s bound
    applies to the whole model, not just the block stack.
    """
    rng = np.random.default_rng(seed)
    input_domain = DomainBall(np.zeros(dim), radius)
    raw = rng.normal(size=(width, dim)) / math.sqrt(dim)
    cert = spectral_norm(raw)
    lifting = Lifting(
        raw if cert <= 1.0 else raw / cert,
        rng.normal(size=width) * 0.2,
    )
    current = lifted_ball(lifting, input_domain)
    blocks = []
    for _ in range(n_blocks):
        a = rng.normal(size=(width, width)) / math.sqrt(width)
        sup = ball_sup_ay(a, current)
        eta = float(rng.uniform(0.0, 1.0)) * (2.0 / (sup * sup)) if sup > 0 else 0.0
        attn = AttentionLayer(a, eta, current)
        current = attn_image(current, attn)
        w = rng.normal(size=(width, width)) / math.sqrt(width)
        b = rng.normal(size=width) * 0.2
        cert = spectral_norm(w)
        tau = float(rng.uniform(0.0, 1.0)) * (2.0 / (cert * cert)) if cert > 0 else 0.0
        mlp = MlpLayer(w, b, tau)
        current = mlp_image(current, mlp)
        blocks.append((attn, mlp))
    readout = rng.normal(size=width)
    readout /= np.linalg.norm(readout)
    return ScalarModel(lifting, tuple(blocks), readout, input_domain, 1.0)


# ---------------------------------------------------------------------------
# Empirical Lipschitz harnesses
# ---------------------------------------------------------------------------
def empirical_query_lipschitz(
    model: ScalarModel, n_measures: int, n_pairs: int, seed: int
) -> tuple[CheckResult, dict | None]:
    """Max |eval(mu,x1)-eval(mu,x2)| / ||x1-x2|| over seeded samples.

    Pairs closer than 1e-9 are skipped (ratio estimators near 0/0 are
    noise). Refuses unclamped models: their step sizes void the claim.
    """
    from .serialize import measure_to_json

    if not is_clamped(model):
        raise NotClampedError("query-Lipschitz certificate requires a clamped model")
    bound = float(np.linalg.norm(model.readout)) * (1.0 + 1e-9)
    rngs = spawn_rngs(seed, n_measures)
    dom = model.input_domain

    def trial(i: int):
        rng = rngs[i]
        mu = random_measure(rng, dom)
        x1 = sample_in_ball(rng, dom, n_pairs)
        x2 = sample_in_ball(rng, dom, n_pairs)
        v1 = evaluate_batch(model, mu, x1)
        v2 = evaluate_batch(model, mu, x2)
        dist = np.linalg.norm(x1 - x2, axis=1)
        keep = dist >= 1e-9
        if not np.any(keep):
            return 0.0, None
        ratios = np.abs(v1[keep] - v2[keep]) / dist[keep]
        j = int(np.argmax(ratios))
        witness = {
            "measure": measure_to_json(mu),
            "x1": x1[keep][j].tolist(),
            "x2": x2[keep][j].tolist(),
            "ratio": float(ratios[j]),
        }
        return float(ratios[j]), witness

    stat, witness = _worst([trial(i) for i in range(n_measures)])
    entry = CheckResult(
        "query_lipschitz", stat, bound, stat <= bound, n_measures * n_pairs, seed
    )
    return entry, witness


def empirical_context_lipschitz(
    model: ScalarModel,
    n_anchors: int,
    n_pairs: int,
    seed: int,
) -> tuple[CheckResult, dict | None]:
    """Max |eval(mu,x)-eval(nu,x)| / W1(mu,nu) against the product bound.

    Measures have at most ``CONTEXT_MAX_ATOMS`` atoms, so the exact
    oracle is tractable; pairs with W1 below 1e-9 are skipped. The
    reference bound is the assembled product-form constant, flagged
    (name suffix ``_vacuous``) when any layer's constants overflowed
    their trustworthy range.
    """
    from .serialize import measure_to_json

    if not is_clamped(model):
        raise NotClampedError("context-Lipschitz certificate requires a clamped model")
    bound, vacuous = context_product_bound(model)
    rngs = spawn_rngs(seed, n_anchors)
    dom = model.input_domain

    def trial(i: int):
        rng = rngs[i]
        x = sample_in_ball(rng, dom, 1)[0]
        best, witness = 0.0, None
        for _ in range(n_pairs):
            mu = random_measure(rng, dom, CONTEXT_MAX_ATOMS)
            nu = random_measure(rng, dom, CONTEXT_MAX_ATOMS)
            gap = w1_exact(mu, nu)
            if gap < 1e-9:
                continue
            diff = abs(
                float(evaluate_batch(model, mu, x[None, :])[0])
                - float(evaluate_batch(model, nu, x[None, :])[0])
            )
            ratio = diff / gap
            if ratio > best:
                best = ratio
                witness = {
                    "x": x.tolist(),
                    "mu": measure_to_json(mu),
                    "nu": measure_to_json(nu),
                    "ratio": ratio,
                }
        return best, witness

    stat, witness = _worst([trial(i) for i in range(n_anchors)])
    name = "context_lipschitz" + ("_vacuous" if vacuous else "")
    entry = CheckResult(name, stat, bound, stat <= bound, n_anchors * n_pairs, seed)
    return entry, witness


# ---------------------------------------------------------------------------
# Finite-difference checks
# ---------------------------------------------------------------------------
def _fd_steps(x: np.ndarray) -> np.ndarray:
    return _FD_STEP * np.maximum(1.0, np.abs(x))


def _require_interior(layer: AttentionLayer, x: np.ndarray, steps: np.ndarray) -> None:
    slack = layer.domain.radius - float(np.linalg.norm(x - layer.domain.center))
    if slack < float(np.max(steps)):
        raise BoundaryProximityError(
            f"probe point within {slack:.3g} of the boundary; FD step is "
            f"{float(np.max(steps)):.3g}"
        )


def _jacobian_fd(layer: AttentionLayer, mu: EmpiricalMeasure, x: np.ndarray):
    """(FD gap, analytic Jacobian I - eta * Cov, Cov) at ``x``.

    One covariance gives the Jacobian; the 2d central-difference probes
    x +- h_i e_i go through one ``attn_apply_batch`` call.
    """
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    steps = _fd_steps(x)
    _require_interior(layer, x, steps)
    cov = attn_covariance(layer, mu, x)
    d = x.shape[0]
    jac = np.eye(d) - layer.eta * cov
    probes = np.diag(steps)
    out = attn_apply_batch(layer, mu, np.vstack([x + probes, x - probes]))
    fd = ((out[:d] - out[d:]) / (2.0 * steps)[:, None]).T
    return float(np.max(np.abs(jac - fd) / np.maximum(1.0, np.abs(fd)))), jac, cov


def jacobian_fd_check(
    layer: AttentionLayer, mu: EmpiricalMeasure, x: np.ndarray
) -> float:
    """Max relative entrywise gap between analytic and central-FD Jacobian."""
    return _jacobian_fd(layer, mu, x)[0]


def potential_grad_check(
    layer: AttentionLayer, mu: EmpiricalMeasure, x: np.ndarray
) -> float:
    """Gradient-flow identity: (x - Gamma(mu,x))/eta against FD of the potential.

    With eta = 0 the update carries no information, so the softmax mean
    m(x) is compared against the FD gradient directly.
    """
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    steps = _fd_steps(x)
    _require_interior(layer, x, steps)
    if layer.eta > 0.0:
        analytic = (x - attn_forward(layer, mu, x)) / layer.eta
    else:
        analytic = attn_softmax_mean(layer, mu, x)
    d = x.shape[0]
    fd = np.empty(d)
    for i in range(d):
        e = np.zeros(d)
        e[i] = steps[i]
        fd[i] = (attn_potential(layer, mu, x + e) - attn_potential(layer, mu, x - e)) / (
            2.0 * steps[i]
        )
    return float(np.max(np.abs(analytic - fd) / np.maximum(1.0, np.abs(fd))))


# ---------------------------------------------------------------------------
# Full-model certification
# ---------------------------------------------------------------------------
def _fd_sweep(model: ScalarModel, n_trials: int, seed: int):
    """Jacobian/potential FD errors plus symmetry and PSD margins.

    Each trial forms one covariance, which gives all but the potential.
    """
    layers = [attn for attn, _ in model.blocks]
    rngs = spawn_rngs(seed, n_trials)

    def trial(i: int):
        rng = rngs[i]
        attn = layers[int(rng.integers(0, len(layers)))]
        interior = DomainBall(attn.domain.center, attn.domain.radius * 0.8)
        mu = random_measure(rng, interior, max_atoms=16)
        x = sample_in_ball(rng, interior, 1)[0]
        jac_err, jac, cov = _jacobian_fd(attn, mu, x)
        pot_err = potential_grad_check(attn, mu, x)
        asym = float(np.max(np.abs(jac - jac.T)))
        cov_min = float(np.linalg.eigvalsh(cov)[0])
        return jac_err, pot_err, asym, cov_min

    jac_err, pot_err, asym, cov_min = zip(*[trial(i) for i in range(n_trials)])
    return max(jac_err), max(pot_err), max(asym), max(-min(cov_min), 0.0)


def certify_model(
    model: ScalarModel,
    n_measures: int = 20,
    n_pairs: int = 500,
    seed: int = 0,
    context_anchors: int = 5,
    context_pairs: int = 40,
    fd_trials: int = 20,
    tolerances: dict | None = None,
) -> CertReport:
    """Run the full battery and assemble a reproducible report."""
    from .serialize import model_hash

    tol = {
        "jacobian_fd": 1e-5,
        "potential_grad": 1e-5,
        "jacobian_symmetry": 1e-12,
        "covariance_psd": 1e-12,
    }
    if tolerances:
        tol.update(tolerances)

    checks = []
    witness = None
    entry, wit = empirical_query_lipschitz(model, n_measures, n_pairs, seed)
    checks.append(entry)
    if not entry.passed and witness is None:
        witness = wit
    entry, wit = empirical_context_lipschitz(model, context_anchors, context_pairs, seed)
    checks.append(entry)
    if not entry.passed and witness is None:
        witness = wit
    if model.depth > 0 and fd_trials > 0:
        jac_err, pot_err, asym, psd = _fd_sweep(model, fd_trials, seed)
        for name, stat in (
            ("jacobian_fd", jac_err),
            ("potential_grad", pot_err),
            ("jacobian_symmetry", asym),
            ("covariance_psd", psd),
        ):
            checks.append(
                CheckResult(name, stat, tol[name], stat <= tol[name], fd_trials, seed)
            )
    return CertReport(model_hash(model), tuple(checks), witness)
