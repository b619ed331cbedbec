"""Executable constructive-proof machinery.

Everything the universality argument needs as an actual program:

  * identity blocks (both layer kinds represent the identity at zero step);
  * a one-layer min/max gate: with W = (1/sqrt2)[1, -1], b = 0, tau = 2,
    the residual MLP *swaps* the two coordinates exactly when the score
    fires, so reading the first coordinate yields min (and the mirrored
    weights yield max);
  * parallel stacking of MLP layers via unit-step normalization
    (positive homogeneity of relu: W~ = sqrt(tau) W, b~ = sqrt(tau) b,
    tau~ = 1) and a block-diagonal merge;
  * parallel stacking of attention layers as a *composition of two*
    block layers: blockdiag(A, 0) leaves the second component untouched
    and its softmax marginalizes any coupling onto the first marginal,
    then blockdiag(0, A') finishes the job -- exactly, for every
    coupling of the two contexts;
  * lattice combination of two scalar models (stack, then a single gate
    layer with W = (v~_p ++ -v~_q)/sqrt2 and readout ||v|| v~_p, after
    normalizing both readouts by the larger norm);
  * the Kantorovich-Rubinstein integration layer: embed a critic into
    one extra coordinate, use the rank-one matrix A = e_{h+1} v~^T whose
    scores vanish identically on the critic's image (so the softmax
    weights are uniform), and read out -(C/eta) e_{h+1}; the model
    output is constant in the query and equals C * integral of the
    critic against the context;
  * the two-point separator: sum of a query-projection branch and a KR
    branch, affinely rescaled through the *actually computed* anchor
    difference so both anchor values are hit exactly;
  * finite-sample lattice interpolation: max_i min_j of two-point
    separators through every ordered sample pair.

Product-space constructions (parallel attention, lattice, separator)
declare enclosing *balls* around what is really a product of balls, and
store the tighter block-structure step certificates; re-running
``clamp_model`` on them would rebuild certificates from the enclosing
balls and may soundly shrink step sizes, trading exactness for ball-only
certification. They are therefore returned unclamped and exact.
"""
from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import (
    CapExceededError,
    DimensionMismatchError,
    IncompatibleTargetsError,
    SeparationError,
)
from .critic import Critic, TrainConfig, train_critic
from .layers import AttentionLayer, MlpLayer, ball_sup_ay
from .measure import DomainBall, EmpiricalMeasure, bounding_ball, w1_exact
from .transformer import (
    Lifting,
    ScalarModel,
    attn_image,
    clamp_model,
    evaluate,
    propagate_domains,
)

#: Declared radius of identity-attention domains (accepts any input).
IDENTITY_RADIUS = 1e30

#: Largest sample count ``rsw_interpolate`` accepts.
RSW_MAX_SAMPLES = 16

#: Default training schedule for separator critics.
SEPARATOR_TRAIN = TrainConfig(iterations=1500, step_size=0.25, seed=0, width=8, depth=1)


# ---------------------------------------------------------------------------
# Identity and gate primitives
# ---------------------------------------------------------------------------
def identity_block(h: int) -> tuple[AttentionLayer, MlpLayer]:
    """A block that is exactly the identity on queries and measures."""
    if h < 1:
        raise DimensionMismatchError("width must be >= 1")
    attn = AttentionLayer(np.zeros((h, h)), 0.0, DomainBall(np.zeros(h), IDENTITY_RADIUS))
    mlp = MlpLayer(np.zeros((1, h)), np.zeros(1), 0.0)
    return attn, mlp


def _gate_mlp(
    v_pick: np.ndarray, v_other: np.ndarray, offset_pick: int, offset_other: int,
    width: int, kind: str,
) -> tuple[MlpLayer, np.ndarray]:
    """One-layer gate selecting min/max of two normalized branch readouts.

    Requires ||v_pick|| >= ||v_other|| (then tau = 2/||v_pick||^2 is
    feasible for the true row norm). When the score fires, the residual
    update replaces the picked branch value by the other one exactly.
    """
    row = np.zeros(width)
    sign = 1.0 if kind == "min" else -1.0
    c = 1.0 / math.sqrt(2.0)
    row[offset_pick : offset_pick + v_pick.size] = sign * c * v_pick
    row[offset_other : offset_other + v_other.size] = -sign * c * v_other
    tau = 2.0 / float(v_pick @ v_pick)
    gate = MlpLayer(row[None, :], np.zeros(1), tau)
    readout = np.zeros(width)
    readout[offset_pick : offset_pick + v_pick.size] = v_pick
    return gate, readout


def minmax_gate(kind: str) -> tuple[MlpLayer, np.ndarray]:
    """The scalar gate on R^2: z -> min(z1, z2) or max(z1, z2).

    Returns the MLP layer (W = (1/sqrt2)[+-1, -+1], b = 0, tau = 2,
    feasible since ||W||_2 = 1) and the selector readout e_1.
    """
    if kind not in ("min", "max"):
        raise SeparationError(f"gate kind must be 'min' or 'max', got {kind!r}")
    return _gate_mlp(np.array([1.0]), np.array([1.0]), 0, 1, 2, kind)


# ---------------------------------------------------------------------------
# Parallel composition
# ---------------------------------------------------------------------------
def parallel_mlp(f: MlpLayer, fp: MlpLayer) -> MlpLayer:
    """Block-diagonal merge computing (F(x), F'(x')) in one layer.

    Each input layer is first normalized to unit step via positive
    homogeneity; the block-diagonal has spectral norm max of the two,
    at most sqrt(2), so tau = 1 stays feasible.
    """
    s, sp = math.sqrt(f.tau), math.sqrt(fp.tau)
    w = np.zeros((f.W.shape[0] + fp.W.shape[0], f.dim + fp.dim))
    w[: f.W.shape[0], : f.dim] = s * f.W
    w[f.W.shape[0] :, f.dim :] = sp * fp.W
    b = np.concatenate([s * f.b, sp * fp.b])
    return MlpLayer(w, b, 1.0)


def _enclosing_ball(ball_a: DomainBall, ball_b: DomainBall) -> DomainBall:
    """Ball around a product of balls."""
    center = np.concatenate([ball_a.center, ball_b.center])
    return DomainBall(center, math.hypot(ball_a.radius, ball_b.radius))


def parallel_attention(
    g: AttentionLayer, gp: AttentionLayer
) -> tuple[AttentionLayer, AttentionLayer]:
    """Two block layers computing (Gamma(mu,x), Gamma'(mu',x')) exactly.

    The first layer's matrix is blockdiag(A, 0): its scores depend only
    on the first component, so feeding it any coupling of (mu, mu')
    reproduces the softmax of Gamma against mu while the second
    component rides along untouched; the second layer mirrors this. The
    declared domains are enclosing balls of the product sets; the stored
    step certificates are the original per-factor bounds, which are the
    exact suprema over the products.
    """
    h, hp = g.dim, gp.dim
    a1 = np.zeros((h + hp, h + hp))
    a1[:h, :h] = g.A
    layer1 = AttentionLayer(
        a1, g.eta, _enclosing_ball(g.domain, gp.domain), sup_ay=g.sup_ay, clamp=False
    )
    a2 = np.zeros((h + hp, h + hp))
    a2[h:, h:] = gp.A
    layer2 = AttentionLayer(
        a2,
        gp.eta,
        _enclosing_ball(attn_image(g.domain, g), gp.domain),
        sup_ay=gp.sup_ay,
        clamp=False,
    )
    return layer1, layer2


# ---------------------------------------------------------------------------
# Lattice combination of scalar models
# ---------------------------------------------------------------------------
def _pad_front(model: ScalarModel, extra: int) -> ScalarModel:
    if extra <= 0:
        return model
    blocks = tuple(identity_block(model.width) for _ in range(extra)) + model.blocks
    return ScalarModel(
        model.lifting, blocks, model.readout, model.input_domain, model.lipschitz_c
    )


def lattice_combine(a: ScalarModel, b: ScalarModel, kind: str) -> ScalarModel:
    """One model computing min/max of two models' outputs, exactly.

    Both models must share input dimension and input domain. The
    shallower one is padded with identity blocks at the front, both are
    stacked in parallel (the stacked lifting feeds the same (mu, x)
    into both halves, realizing the diagonal coupling), readouts are
    normalized by the larger norm, and a single gate layer finishes.
    """
    if kind not in ("min", "max"):
        raise SeparationError(f"gate kind must be 'min' or 'max', got {kind!r}")
    if a.in_dim != b.in_dim:
        raise DimensionMismatchError("models with different input dimensions")
    if not (
        np.array_equal(a.input_domain.center, b.input_domain.center)
        and a.input_domain.radius == b.input_domain.radius
    ):
        raise DimensionMismatchError("models with different input domains")
    depth = max(a.depth, b.depth)
    a = _pad_front(a, depth - a.depth)
    b = _pad_front(b, depth - b.depth)
    ha, hb = a.width, b.width
    width = ha + hb

    lifting = Lifting(
        np.vstack([a.lifting.A, b.lifting.A]),
        np.concatenate([a.lifting.b, b.lifting.b]),
    )
    id_attn, id_mlp = identity_block(width)
    blocks = []
    for (attn_a, mlp_a), (attn_b, mlp_b) in zip(a.blocks, b.blocks):
        # A block layer is only needed for a side that attends; an identity
        # side rides along inside the other side's block layer.
        attns = [g for g in parallel_attention(attn_a, attn_b) if not g.is_identity]
        attns = attns or [id_attn]
        mlps = [id_mlp] * (len(attns) - 1) + [parallel_mlp(mlp_a, mlp_b)]
        blocks.extend(zip(attns, mlps))

    c_out = max(a.lipschitz_c, b.lipschitz_c)
    norm_a = float(np.linalg.norm(a.readout))
    norm_b = float(np.linalg.norm(b.readout))
    scale = max(norm_a, norm_b)
    if scale == 0.0:
        return ScalarModel(
            lifting, tuple(blocks), np.zeros(width), a.input_domain, c_out
        )
    va = a.readout / scale
    vb = b.readout / scale
    if norm_a >= norm_b:
        gate, readout = _gate_mlp(va, vb, 0, ha, width, kind)
    else:
        gate, readout = _gate_mlp(vb, va, ha, 0, width, kind)
    blocks.append((id_attn, gate))
    return ScalarModel(
        lifting, tuple(blocks), scale * readout, a.input_domain, c_out
    )


# ---------------------------------------------------------------------------
# Kantorovich-Rubinstein integration layer
# ---------------------------------------------------------------------------
def kr_integrator(critic: Critic, c_budget: float, domain: DomainBall) -> ScalarModel:
    """A model whose output is C * integral of the critic against the context.

    The critic pipeline is zero-padded into one extra coordinate; the
    attention matrix e_{h+1} v~^T then has identically zero scores on
    the pipeline's image (the query's extra coordinate is exactly zero),
    making the softmax weights uniform, and the single attention step
    writes -eta * integral into the extra coordinate, which the readout
    -(C/eta) e_{h+1} recovers. The output is constant in the query.
    """
    if c_budget <= 0:
        raise SeparationError("context-Lipschitz budget must be positive")
    if critic.in_dim != domain.dim:
        raise DimensionMismatchError("critic input dim vs domain dim")
    h = critic.width
    lifting = Lifting(
        np.vstack([critic.lifting.A, np.zeros((1, domain.dim))]),
        np.concatenate([critic.lifting.b, [0.0]]),
    )
    # Structural guarantee behind the uniform-softmax argument: the
    # padded pipeline keeps the extra coordinate at exactly zero.
    assert not lifting.A[-1].any() and lifting.b[-1] == 0.0
    blocks = []
    for layer in critic.stack:
        w_pad = np.hstack([layer.W, np.zeros((layer.W.shape[0], 1))])
        assert not w_pad[:, -1].any()
        id_attn, _ = identity_block(h + 1)
        blocks.append((id_attn, MlpLayer(w_pad, layer.b, layer.tau)))
    prefix = clamp_model(
        ScalarModel(lifting, tuple(blocks), np.zeros(h + 1), domain, c_budget)
    )
    image_ball = propagate_domains(prefix).domains[-1]

    a_int = np.zeros((h + 1, h + 1))
    a_int[h, :h] = critic.readout
    sup = ball_sup_ay(a_int, image_ball)
    if sup == 0.0:
        # Critic vanishes identically on the image ball: the constant-zero model.
        return ScalarModel(
            prefix.lifting, prefix.blocks, np.zeros(h + 1), domain, c_budget
        )
    eta = 2.0 / (sup * sup)
    int_layer = AttentionLayer(a_int, eta, image_ball, sup_ay=sup)
    _, id_mlp = identity_block(h + 1)
    readout = np.zeros(h + 1)
    readout[h] = -c_budget / int_layer.eta
    return ScalarModel(
        prefix.lifting,
        prefix.blocks + ((int_layer, id_mlp),),
        readout,
        domain,
        c_budget,
    )


# ---------------------------------------------------------------------------
# Two-point separator
# ---------------------------------------------------------------------------
def _embed_model_with_query_branch(
    kr_model: ScalarModel | None,
    v_query: np.ndarray,
    domain: DomainBall,
    c_budget: float,
) -> ScalarModel:
    """Stack identity-query branch, optional KR branch, and a constant 1.

    The model's query pipeline is (x, kr-pipeline(x), 1); the readout
    (v_query, v_kr, 0) realizes Lambda_x + Lambda_kr.
    """
    d = domain.dim
    parts_a = [np.eye(d)]
    parts_b = [np.zeros(d)]
    if kr_model is not None:
        parts_a.append(kr_model.lifting.A)
        parts_b.append(kr_model.lifting.b)
    parts_a.append(np.zeros((1, d)))
    parts_b.append(np.array([1.0]))
    lifting = Lifting(np.vstack(parts_a), np.concatenate(parts_b))
    wk = kr_model.width if kr_model is not None else 0
    width = d + wk + 1

    blocks = []
    if kr_model is not None:
        for attn_k, mlp_k in kr_model.blocks:
            a_emb = np.zeros((width, width))
            a_emb[d : d + wk, d : d + wk] = attn_k.A
            ball = DomainBall(
                np.concatenate([domain.center, attn_k.domain.center, [1.0]]),
                math.hypot(domain.radius, attn_k.domain.radius),
            )
            attn_emb = AttentionLayer(
                a_emb, attn_k.eta, ball, sup_ay=attn_k.sup_ay, clamp=False
            )
            w_emb = np.zeros((mlp_k.W.shape[0], width))
            w_emb[:, d : d + wk] = mlp_k.W
            blocks.append((attn_emb, MlpLayer(w_emb, mlp_k.b, mlp_k.tau)))
    readout = np.zeros(width)
    readout[:d] = v_query
    if kr_model is not None:
        readout[d : d + wk] = kr_model.readout
    return ScalarModel(lifting, tuple(blocks), readout, domain, c_budget)


def separator(
    mu: EmpiricalMeasure,
    x: np.ndarray,
    mup: EmpiricalMeasure,
    xp: np.ndarray,
    a: float,
    b: float,
    c_budget: float,
    eps: float,
    domain: DomainBall | None = None,
    critic: Critic | None = None,
    train_cfg: TrainConfig = SEPARATOR_TRAIN,
) -> ScalarModel:
    """A model hitting value ``a`` at (mu, x) and ``b`` at (mup, xp).

    Requires the strict separation margin |a - b| < ||x - x'|| + C * W1.
    The model sums a query-projection branch (readout (x - x')/||x - x'||
    through an identity pipeline) and a KR integration branch over a
    critic trained to realize the duality lower bound within ``eps``,
    then rescales affinely through the *computed* anchor difference, so
    the anchor values are exact regardless of critic quality. The slope
    magnitude stays at most one whenever the trained critic actually
    achieves the eps margin.
    """
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    xp = np.asarray(xp, dtype=np.float64).reshape(-1)
    if mu.dim != mup.dim or mu.dim != x.shape[0] or x.shape[0] != xp.shape[0]:
        raise DimensionMismatchError("separator inputs of inconsistent dimension")
    if c_budget <= 0:
        raise SeparationError("context-Lipschitz budget must be positive")
    gap_w1 = w1_exact(mu, mup)
    gap_x = float(np.linalg.norm(x - xp))
    if gap_x <= 0.0 and gap_w1 <= 1e-12:
        raise SeparationError("anchor points coincide")
    if abs(a - b) >= gap_x + c_budget * gap_w1 - 1e-9:
        raise SeparationError(
            f"|a-b| = {abs(a - b):.6g} violates the strict margin "
            f"{gap_x + c_budget * gap_w1:.6g}"
        )
    if domain is None:
        domain = bounding_ball(
            np.vstack([mu.points, mup.points, x[None, :], xp[None, :]]), margin=1.0
        )

    v_query = (x - xp) / gap_x if gap_x > 0.0 else np.zeros(x.shape[0])
    kr_model = None
    if gap_w1 > 1e-12:
        if critic is None:
            critic, _ = train_critic(
                mu, mup, train_cfg, target=gap_w1 - max(eps, 1e-12)
            )
        kr_model = kr_integrator(critic, c_budget, domain)

    unscaled = _embed_model_with_query_branch(kr_model, v_query, domain, c_budget)
    val_a = evaluate(unscaled, mu, x)
    val_b = evaluate(unscaled, mup, xp)
    diff = val_a - val_b
    if abs(diff) <= 1e-14 * max(1.0, abs(a - b)):
        raise SeparationError(
            f"anchor evaluations coincide (difference {diff:.3g}); cannot rescale"
        )
    alpha = (a - b) / diff
    beta = b - alpha * val_b
    # The readout (alpha v_query, alpha v_kr, beta) realizes
    # alpha (Lambda_x + Lambda_kr) + beta on the constant-1 coordinate.
    return dataclasses.replace(
        unscaled, readout=np.append(alpha * unscaled.readout[:-1], beta)
    )


# ---------------------------------------------------------------------------
# Finite-sample lattice interpolation
# ---------------------------------------------------------------------------
def _constant_model(
    value: float, domain: DomainBall, c_budget: float
) -> ScalarModel:
    lifting = Lifting(np.zeros((1, domain.dim)), np.array([1.0]))
    return ScalarModel(lifting, (), np.array([value]), domain, c_budget)


def _lattice_reduce(models: list, kind: str) -> ScalarModel:
    """Balanced binary fold, deterministic order, minimal extra depth."""
    while len(models) > 1:
        merged = [
            lattice_combine(models[i], models[i + 1], kind)
            for i in range(0, len(models) - 1, 2)
        ]
        if len(models) % 2:
            merged.append(models[-1])
        models = merged
    return models[0]


def rsw_interpolate(
    samples: list,
    c_budget: float,
    domain: DomainBall | None = None,
    train_cfg: TrainConfig = SEPARATOR_TRAIN,
) -> ScalarModel:
    """max_i min_j of two-point separators through all sample pairs.

    ``samples`` is a list of (EmpiricalMeasure, query, target) triples
    whose targets must satisfy the two-sided compatibility
    |t_i - t_j| <= ||x_i - x_j|| + C * W1(mu_i, mu_j) for all pairs;
    when equality binds, all targets are shrunk toward their mean by
    (1 - 1e-6) to restore strictness. For every ordered pair a separator
    hits both targets; min over the second index then max over the first
    reproduces every target exactly, and the result inherits the (1, C)
    Lipschitz property from its branches.

    One critic is trained per unordered measure pair and negated for the
    swapped orientation. Cost is O(n^2) separators and lattice combines;
    depth grows logarithmically via balanced folds. Capped at
    ``RSW_MAX_SAMPLES`` samples: a desk-scale demonstrator, not a fitter.
    """
    if len(samples) < 1:
        raise IncompatibleTargetsError("need at least one sample")
    if len(samples) > RSW_MAX_SAMPLES:
        raise CapExceededError(
            f"{len(samples)} samples exceed the cap of {RSW_MAX_SAMPLES}"
        )
    triples = [
        (m, np.asarray(q, dtype=np.float64).reshape(-1), float(t))
        for (m, q, t) in samples
    ]

    # Deduplicate identical sample points; conflicting targets are fatal.
    kept: list = []
    for m, q, t in triples:
        dup = False
        for m2, q2, t2 in kept:
            if (
                float(np.linalg.norm(q - q2)) <= 1e-12
                and w1_exact(m, m2) <= 1e-12
            ):
                if abs(t - t2) > 1e-9:
                    raise IncompatibleTargetsError(
                        "identical sample points with different targets"
                    )
                dup = True
                break
        if not dup:
            kept.append((m, q, t))
    n = len(kept)
    if domain is None:
        domain = bounding_ball(
            np.vstack([m.points for m, _, _ in kept] + [q[None, :] for _, q, _ in kept]),
            margin=1.0,
        )
    if n == 1:
        return _constant_model(kept[0][2], domain, c_budget)

    w1 = np.zeros((n, n))
    dist = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            w1[i, j] = w1_exact(kept[i][0], kept[j][0])
            q_gap = float(np.linalg.norm(kept[i][1] - kept[j][1]))
            dist[i, j] = dist[j, i] = q_gap + c_budget * w1[i, j]
    targets = np.array([t for _, _, t in kept])
    binding = False
    for i in range(n):
        for j in range(i + 1, n):
            gap = abs(targets[i] - targets[j])
            if gap > dist[i, j] * (1.0 + 1e-12):
                raise IncompatibleTargetsError(
                    f"targets {i},{j} differ by {gap:.6g} over distance "
                    f"{dist[i, j]:.6g}"
                )
            if gap >= dist[i, j] * (1.0 - 1e-9):
                binding = True
    if binding:
        targets = targets.mean() + (1.0 - 1e-6) * (targets - targets.mean())

    critics: dict = {}
    for i in range(n):
        for j in range(i + 1, n):
            gap_w1 = float(w1[i, j])
            if gap_w1 > 1e-12:
                slackness = dist[i, j] - abs(targets[i] - targets[j])
                eps = max(min(slackness / (2.0 * c_budget), gap_w1 * 0.05), 1e-12)
                cfg = dataclasses.replace(
                    train_cfg, seed=train_cfg.seed * 10007 + i * 101 + j
                )
                critics[(i, j)], _ = train_critic(
                    kept[i][0], kept[j][0], cfg, target=gap_w1 - eps
                )

    def pair_separator(i: int, j: int) -> ScalarModel:
        crit = critics.get((i, j)) or (
            critics[(j, i)].negated() if (j, i) in critics else None
        )
        return separator(
            kept[i][0],
            kept[i][1],
            kept[j][0],
            kept[j][1],
            float(targets[i]),
            float(targets[j]),
            c_budget,
            eps=1e-6,
            domain=domain,
            critic=crit,
            train_cfg=train_cfg,
        )

    branches = [
        _lattice_reduce([pair_separator(i, j) for j in range(n) if j != i], "min")
        for i in range(n)
    ]
    return _lattice_reduce(branches, "max")
