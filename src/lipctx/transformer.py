"""Deep Lipschitz transformer over (measure, query) pairs.

A scalar model is

    evaluate(mu, x) = readout . ( pi_2 of  B_L o ... o B_1 (Q# mu, Q(x)) )

where Q is an affine lifting applied to the query and pushed forward
over the atoms, and every block B_l applies one attention layer followed
by one MLP layer to query and atoms alike. Crucially the measure is
propagated synchronously: within a block, every atom (and the query)
attends over the *same pre-update* measure, so the update is the
in-context map applied atomwise.

Domain tracking
---------------
The attention step bound depends on the layer's input set, which changes
layer to layer. Each model therefore carries one declared ball per
attention layer. The ball walk has three steps, each written once:
``lifted_ball`` (center through the map, radius times the certified
lifting norm), ``attn_image`` (radius grows by eta * sup_ay since the
update is a convex combination of -eta A y terms) and ``mlp_image``
(center through the map, radius preserved by 1-Lipschitzness).
``propagate_domains`` walks a sound ball through the stack and flags any
declared domain (c, r) that fails to contain its propagated ball
(c', r'), that is ||c' - c|| + r' > r + 1e-9. Forward evaluation holds
every atom and query to ||x - c|| <= r + 1e-9 and otherwise raises
``DomainViolationError`` with the stage. ``clamp_model`` is the
enforcement path: it rewrites every declared domain to the propagated
ball and re-projects every step size, and is exactly idempotent.

Forward core and determinism
----------------------------
One core runs the stack on plain arrays; ``lift``, ``forward_tokens``,
``evaluate`` and ``evaluate_batch`` wrap it. Blocks move the atoms and
never change their weights, so no measure is built between stages. The
atoms are put in the canonical order of their current positions at
input and before each non-identity attention layer, whose reductions
run in that order. Evaluation is therefore invariant under permutations
of the stored atoms bit for bit, and repeated runs are bit-identical.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError
from .layers import (
    AttentionLayer,
    MlpLayer,
    attn_update,
    mlp_forward,
    mlp_forward_batch,
    spectral_norm,
)
from .measure import DomainBall, EmpiricalMeasure, canonical_atom_order


@dataclass(frozen=True, eq=False)
class Lifting:
    """Affine embedding Q(x) = A x + b from R^d into R^h."""

    A: np.ndarray  # (h, d)
    b: np.ndarray  # (h,)
    cert_spec_norm: float = field(init=False)

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.A, dtype=np.float64)).copy()
        bias = np.asarray(self.b, dtype=np.float64).reshape(-1).copy()
        if bias.shape[0] != a.shape[0]:
            raise DimensionMismatchError(
                f"lifting bias of size {bias.shape[0]} for {a.shape[0]} rows"
            )
        a.flags.writeable = False
        bias.flags.writeable = False
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "b", bias)
        object.__setattr__(self, "cert_spec_norm", spectral_norm(a))

    @property
    def out_dim(self) -> int:
        return self.A.shape[0]

    @property
    def in_dim(self) -> int:
        return self.A.shape[1]

    def apply_batch(self, xs: np.ndarray) -> np.ndarray:
        return np.atleast_2d(xs) @ self.A.T + self.b


@dataclass(frozen=True, eq=False)
class ScalarModel:
    """Lifting, alternating attention/MLP blocks, and a scalar readout."""

    lifting: Lifting
    blocks: tuple  # of (AttentionLayer, MlpLayer)
    readout: np.ndarray  # (h,)
    input_domain: DomainBall
    lipschitz_c: float

    def __post_init__(self):
        blocks = tuple(self.blocks)
        h = self.lifting.out_dim
        if self.lifting.in_dim != self.input_domain.dim:
            raise DimensionMismatchError("lifting input dim vs input domain dim")
        for i, (attn, mlp) in enumerate(blocks):
            if attn.dim != h or mlp.dim != h:
                raise DimensionMismatchError(
                    f"block {i} width {attn.dim}/{mlp.dim}, expected {h}"
                )
        v = np.asarray(self.readout, dtype=np.float64).reshape(-1).copy()
        if v.shape[0] != h:
            raise DimensionMismatchError(
                f"readout of size {v.shape[0]} for width {h}"
            )
        if not self.lipschitz_c > 0:
            raise DimensionMismatchError("lipschitz_c must be positive")
        v.flags.writeable = False
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "readout", v)
        object.__setattr__(self, "lipschitz_c", float(self.lipschitz_c))

    @property
    def depth(self) -> int:
        return len(self.blocks)

    @property
    def width(self) -> int:
        return self.lifting.out_dim

    @property
    def in_dim(self) -> int:
        return self.lifting.in_dim

    def __repr__(self) -> str:
        return (
            f"ScalarModel(d={self.in_dim}, h={self.width}, L={self.depth}, "
            f"C={self.lipschitz_c:.6g})"
        )


@dataclass(frozen=True)
class DomainChain:
    """Propagated balls (2L+1 of them) plus per-block containment flags."""

    domains: tuple
    valid: tuple

    @property
    def all_valid(self) -> bool:
        return all(self.valid)


# ---------------------------------------------------------------------------
# Forward evaluation
# ---------------------------------------------------------------------------
def _forward(
    model: ScalarModel, mu: EmpiricalMeasure, queries: np.ndarray, blocks=None
) -> tuple[np.ndarray, np.ndarray]:
    """The forward core on arrays; returns the atoms (storage order) and queries.

    ``order`` holds the storage index of each row of ``pts``; ``blocks``
    defaults to all of the model's blocks.
    """
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    dom = model.input_domain
    if mu.dim != dom.dim:
        raise DimensionMismatchError(
            f"measure of dim {mu.dim} for model of input dim {dom.dim}"
        )
    dom.require(mu.points, "input atom")
    dom.require(queries, "input query")
    pts, w, order = mu.canonical()
    pts = model.lifting.apply_batch(pts)
    qs = model.lifting.apply_batch(queries)
    for stage, (attn, mlp) in enumerate(model.blocks if blocks is None else blocks):
        if not attn.is_identity:
            perm = canonical_atom_order(pts, w)
            pts, w, order = pts[perm], w[perm], order[perm]
        # Every atom and query attends over the same pre-update atoms,
        # which are checked against the domain once.
        pts, qs = attn_update(attn, pts, w, (pts, qs), stage)
        pts = mlp_forward_batch(mlp, pts)
        qs = mlp_forward_batch(mlp, qs)
    return pts[np.argsort(order)], qs


def lift(
    model: ScalarModel, mu: EmpiricalMeasure, x: np.ndarray
) -> tuple[EmpiricalMeasure, np.ndarray]:
    """Apply the lifting to query and atoms alike (context-free map)."""
    pts, qs = _forward(model, mu, np.reshape(x, (1, -1)), blocks=())
    return EmpiricalMeasure(pts, mu.weights), qs[0]


def forward_tokens(
    model: ScalarModel, mu: EmpiricalMeasure, x: np.ndarray
) -> tuple[EmpiricalMeasure, np.ndarray]:
    """Propagate (measure, query) through the full stack."""
    pts, qs = _forward(model, mu, np.reshape(x, (1, -1)))
    return EmpiricalMeasure(pts, mu.weights), qs[0]


def evaluate(model: ScalarModel, mu: EmpiricalMeasure, x: np.ndarray) -> float:
    """Scalar output: readout applied to the propagated query."""
    _, qs = _forward(model, mu, np.reshape(x, (1, -1)))
    return float(model.readout @ qs[0])


def evaluate_batch(
    model: ScalarModel, mu: EmpiricalMeasure, xs: np.ndarray
) -> np.ndarray:
    """Evaluate many queries against one measure in a single sweep."""
    _, qs = _forward(model, mu, xs)
    return qs @ model.readout


# ---------------------------------------------------------------------------
# Domain propagation and clamping
# ---------------------------------------------------------------------------
def lifted_ball(lifting: Lifting, domain: DomainBall) -> DomainBall:
    """Sound image of ``domain`` under the lifting."""
    center = lifting.apply_batch(domain.center[None, :])[0]
    return DomainBall(center, domain.radius * lifting.cert_spec_norm)


def attn_image(ball: DomainBall, attn: AttentionLayer) -> DomainBall:
    """Sound image of ``ball`` under an attention layer: radius + eta * sup_ay."""
    return DomainBall(ball.center, ball.radius + attn.eta * attn.sup_ay)


def mlp_image(ball: DomainBall, mlp: MlpLayer) -> DomainBall:
    """Image of ``ball`` under a 1-Lipschitz MLP layer: center mapped, same radius."""
    return DomainBall(mlp_forward(mlp, ball.center), ball.radius)


def propagate_domains(model: ScalarModel) -> DomainChain:
    """Push a sound ball through the stack; flag declared-domain gaps.

    The MLP image ball assumes the layer is 1-Lipschitz (tau feasible);
    infeasible models are exactly what the flags are for, and
    ``clamp_model`` is the enforcement path.
    """
    current = lifted_ball(model.lifting, model.input_domain)
    domains = [current]
    valid = []
    for attn, mlp in model.blocks:
        gap = float(np.linalg.norm(current.center - attn.domain.center))
        valid.append(gap + current.radius <= attn.domain.limit)
        current = attn_image(current, attn)
        domains.append(current)
        current = mlp_image(current, mlp)
        domains.append(current)
    return DomainChain(tuple(domains), tuple(valid))


def clamp_model(model: ScalarModel) -> ScalarModel:
    """Rewrite declared domains to propagated balls and re-project steps.

    Exactly idempotent: a second application reproduces the same layer
    parameters and domains bit for bit.
    """
    current = lifted_ball(model.lifting, model.input_domain)
    blocks = []
    for attn, mlp in model.blocks:
        new_attn = AttentionLayer(attn.A, attn.eta, current)
        new_mlp = MlpLayer(mlp.W, mlp.b, mlp.tau)
        current = mlp_image(attn_image(current, new_attn), new_mlp)
        blocks.append((new_attn, new_mlp))
    return ScalarModel(
        model.lifting,
        tuple(blocks),
        model.readout,
        model.input_domain,
        model.lipschitz_c,
    )


def models_equal(a: ScalarModel, b: ScalarModel) -> bool:
    """Whether the two models serialize identically.

    The wire format holds every parameter, step size and domain, and
    certified norms are functions of those. A ``sup_ay`` passed to an
    attention layer at construction is not serialized and not compared.
    """
    from .serialize import model_to_json

    return model_to_json(a) == model_to_json(b)


def is_clamped(model: ScalarModel) -> bool:
    """Whether ``clamp_model`` is a no-op on this model."""
    return models_equal(model, clamp_model(model))
