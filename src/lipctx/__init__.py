"""Certified 1-Lipschitz in-context transformer layers over empirical measures.

The package realizes gradient-descent-type MLP and attention layers as
explicit Euler steps of negative gradient flows, composes them into deep
scalar models that are provably 1-Lipschitz in the query and
Wasserstein-Lipschitz in the context, makes the constructive
universality machinery executable (lattice gates, parallel attention,
Kantorovich-Rubinstein integration layers, two-point separators, finite
lattice interpolation), and certifies every claim numerically against
exact optimal-transport, finite-difference, and spectral oracles.
"""

from .constructions import (
    identity_block,
    kr_integrator,
    lattice_combine,
    minmax_gate,
    parallel_attention,
    parallel_mlp,
    rsw_interpolate,
    separator,
)
from .critic import (
    Critic,
    GradientSet,
    TrainConfig,
    critic_grads,
    critic_value,
    kr_objective,
    project_params,
    train_critic,
)
from .certify import (
    CertReport,
    CheckResult,
    ContextConstants,
    certify_model,
    context_lipschitz_bound,
    empirical_context_lipschitz,
    empirical_query_lipschitz,
    jacobian_fd_check,
    potential_grad_check,
    random_clamped_model,
)
from .errors import (
    BoundaryProximityError,
    CapExceededError,
    DimensionMismatchError,
    DomainViolationError,
    IncompatibleTargetsError,
    InvalidMeasureError,
    LipctxError,
    NotClampedError,
    SeparationError,
)
from .layers import (
    AttentionLayer,
    MlpLayer,
    attn_forward,
    attn_potential,
    attn_step_bound,
    mlp_forward,
    spectral_norm,
)
from .measure import (
    DomainBall,
    EmpiricalMeasure,
    bounding_ball,
    new_empirical,
    w1_exact,
    w1_exact_1d,
)
from .transformer import (
    DomainChain,
    Lifting,
    ScalarModel,
    clamp_model,
    evaluate,
    evaluate_batch,
    forward_tokens,
    is_clamped,
    lift,
    propagate_domains,
)

__version__ = "0.1.0"
