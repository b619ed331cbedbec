"""Empirical probability measures and exact Wasserstein-1 oracles.

An empirical measure is a weighted finite point cloud

    mu = sum_i w_i * delta_{x_i},   w_i >= 0,  sum_i w_i = 1,

the ground object every other module operates on. This module also owns
the package's ground-truth W1 oracles:

  * ``w1_exact``     -- the transportation linear program with Euclidean
                        ground cost, solved to optimality (HiGHS).
  * ``w1_exact_1d``  -- the closed-form 1D value, integral of |F_mu - F_nu|
                        over the merged sorted support.

The two are cross-validated against each other, against an optimal
assignment solve, and against brute-force permutation enumeration in the
test suite, so that the LP can be trusted as the reference everywhere else.

Determinism conventions
-----------------------
Weighted reductions over atoms run as pairwise (tree) sums over a
*canonical* atom order (lexicographic by coordinates, then weight). The
canonical order makes reductions invariant under permutations of the
stored atoms, bit for bit, while storage order is preserved to keep
token identity (duplicate atoms are never merged except inside marginal
comparisons).

Domain membership
-----------------
One rule decides membership everywhere: a point x is inside the ball
(c, r) when ||x - c|| <= r + ``BALL_ABS_TOL``, and a ball (c', r') is
inside it when ||c' - c|| + r' <= r + ``BALL_ABS_TOL``. The slack is
absolute and does not grow with the radius.

All values are immutable after construction and all operations are pure.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.optimize import linprog

from .errors import (
    CapExceededError,
    DimensionMismatchError,
    DomainViolationError,
    InvalidMeasureError,
)

#: Cap on n_mu * n_nu transportation cells.
W1_CELL_CAP = 4096

#: Absolute slack of the domain-membership rule (see ``DomainBall.limit``).
BALL_ABS_TOL = 1e-9


def tree_sum(values: np.ndarray) -> np.ndarray:
    """Sum ``values`` over axis 0 by pairwise (tree) reduction.

    Adjacent elements are paired at every level, so the result is a
    deterministic function of the element *order* with lower rounding
    error than a running sum. Returns a zero array of the trailing shape
    when ``values`` is empty.
    """
    a = np.asarray(values, dtype=np.float64)
    if a.shape[0] == 0:
        return np.zeros(a.shape[1:], dtype=np.float64)
    while a.shape[0] > 1:
        n = a.shape[0]
        k = n // 2
        paired = a[0 : 2 * k : 2] + a[1 : 2 * k : 2]
        if n % 2:
            a = np.concatenate([paired, a[n - 1 : n]], axis=0)
        else:
            a = paired
    return a[0]


def canonical_atom_order(points: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Permutation sorting atoms lexicographically by coordinates, then weight.

    When the first coordinates sort strictly increasing they alone fix
    the order; ties, signed zeros and NaN take the full lexsort.
    """
    col = points[:, 0]
    first = col.argsort(kind="stable")
    col = col[first]
    if (col[1:] > col[:-1]).all():
        return first
    keys = tuple(points[:, c] for c in range(points.shape[1] - 1, -1, -1))
    return np.lexsort((weights,) + keys)


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------
@dataclass(frozen=True, eq=False)
class EmpiricalMeasure:
    """Weighted finite point cloud on R^d.

    Weights are nonnegative and renormalized to sum to one at
    construction (file I/O drift is corrected, not rejected). Atoms of
    equal value are kept separate to preserve token identity.
    """

    points: np.ndarray  # (n, d)
    weights: np.ndarray  # (n,)
    _canonical: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=np.float64))
        w = np.asarray(self.weights, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise InvalidMeasureError("measure needs at least one atom")
        if pts.shape[1] < 1:
            raise InvalidMeasureError("atoms must have dimension >= 1")
        if w.shape != (pts.shape[0],):
            raise InvalidMeasureError(
                f"got {pts.shape[0]} atoms but {w.shape} weights"
            )
        if not np.all(np.isfinite(pts)) or not np.all(np.isfinite(w)):
            raise InvalidMeasureError("non-finite entries in points or weights")
        if np.any(w < 0):
            raise InvalidMeasureError("weights must be nonnegative")
        # Normalize by the canonical-order tree sum so the stored weights
        # are identical regardless of atom storage order (the canonical
        # order is scaling-invariant, so it can be computed first).
        order = canonical_atom_order(pts, w)
        total = float(tree_sum(w[order]))
        if total <= 0.0:
            raise InvalidMeasureError("weights must not all be zero")
        w = w / total
        pts = pts.copy()
        for a in (pts, w, order):
            a.flags.writeable = False
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "_canonical", order)

    @property
    def n_atoms(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def canonical(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return (points, weights, order) in canonical order.

        ``order`` holds the storage index of each canonical row:
        ``points[order]`` is the first result.
        """
        order = self._canonical
        return self.points[order], self.weights[order], order

    def __repr__(self) -> str:
        return f"EmpiricalMeasure(n={self.n_atoms}, d={self.dim})"


@dataclass(frozen=True, eq=False)
class DomainBall:
    """Euclidean ball certifying a compact domain overapproximation."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        c = np.asarray(self.center, dtype=np.float64).reshape(-1)
        r = float(self.radius)
        if not np.all(np.isfinite(c)) or not np.isfinite(r):
            raise InvalidMeasureError("ball center and radius must be finite")
        if r < 0:
            raise InvalidMeasureError("ball radius must be nonnegative")
        c = c.copy()
        c.flags.writeable = False
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "radius", r)

    @property
    def dim(self) -> int:
        return self.center.shape[0]

    @property
    def limit(self) -> float:
        """Largest distance from the center that counts as inside."""
        return self.radius + BALL_ABS_TOL

    def contains(self, x: np.ndarray) -> bool:
        """Whether ``x`` is inside: ||x - center|| <= ``limit``."""
        x = np.asarray(x, dtype=np.float64).reshape(-1)
        if x.shape != self.center.shape:
            raise DimensionMismatchError(
                f"point of dim {x.shape[0]} vs ball of dim {self.dim}"
            )
        return float(np.linalg.norm(x - self.center)) <= self.limit

    def require(
        self, points: np.ndarray, what: str, stage: int | None = None
    ) -> None:
        """Raise ``DomainViolationError`` unless every row of ``points`` is inside.

        ``what`` names the points in the message; ``stage`` is the block
        index reported with the violation.
        """
        pts = np.atleast_2d(points)
        if pts.shape[1] != self.dim:
            raise DimensionMismatchError(
                f"{what} of dim {pts.shape[1]} vs domain of dim {self.dim}"
            )
        if pts.shape[0] == 0:  # an empty set lies inside any ball
            return
        dist = np.linalg.norm(pts - self.center, axis=1)
        worst = int(np.argmax(dist))  # a NaN distance is the first maximum
        if not dist[worst] <= self.limit:
            raise DomainViolationError(
                f"{what} at distance {dist[worst]:.6g} outside declared domain "
                f"(radius {self.radius:.6g})"
                + (f" at stage {stage}" if stage is not None else ""),
                stage=stage,
            )

    def __repr__(self) -> str:
        return f"DomainBall(d={self.dim}, radius={self.radius:.6g})"


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------
def new_empirical(
    points: Sequence[Sequence[float]] | np.ndarray,
    weights: Sequence[float] | np.ndarray | None = None,
) -> EmpiricalMeasure:
    """Build an empirical measure; weights default to uniform 1/n."""
    try:
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    except ValueError as exc:
        raise InvalidMeasureError(f"inconsistent point dimensions: {exc}") from exc
    if pts.size == 0:
        raise InvalidMeasureError("empty point list")
    if weights is None:
        weights = np.full(pts.shape[0], 1.0 / pts.shape[0])
    return EmpiricalMeasure(pts, np.asarray(weights, dtype=np.float64))


def bounding_ball(
    points: Sequence[Sequence[float]] | np.ndarray, margin: float = 0.0
) -> DomainBall:
    """Certified enclosing ball: mean center, max-distance radius.

    The radius is inflated by ``margin`` and a (1 + 1e-9) relative safety
    factor so every input point is contained despite rounding.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if pts.size == 0:
        raise InvalidMeasureError("empty point list")
    if margin < 0:
        raise InvalidMeasureError("margin must be nonnegative")
    center = pts.mean(axis=0)
    max_dist = float(np.max(np.linalg.norm(pts - center, axis=1)))
    return DomainBall(center, (max_dist + margin) * (1.0 + 1e-9))


# ---------------------------------------------------------------------------
# Exact Wasserstein-1 oracles
# ---------------------------------------------------------------------------
def w1_exact_1d(mu: EmpiricalMeasure, nu: EmpiricalMeasure) -> float:
    """Exact 1D W1: integral of |F_mu - F_nu| over merged sorted atoms."""
    if mu.dim != 1 or nu.dim != 1:
        raise DimensionMismatchError("w1_exact_1d requires one-dimensional measures")
    pos = np.concatenate([mu.points[:, 0], nu.points[:, 0]])
    sgn = np.concatenate([mu.weights, -nu.weights])
    order = np.argsort(pos, kind="stable")
    pos = pos[order]
    cdf_gap = np.cumsum(sgn[order])
    return float(np.sum(np.abs(cdf_gap[:-1]) * np.diff(pos)))


def w1_exact(mu: EmpiricalMeasure, nu: EmpiricalMeasure) -> float:
    """Optimal transportation cost with Euclidean ground cost.

    Solves the transportation LP

        min sum_ij gamma_ij ||x_i - y_j||_2
        s.t. row sums = mu weights, column sums = nu weights, gamma >= 0

    to optimality with HiGHS. Instances of more than ``W1_CELL_CAP``
    cells raise ``CapExceededError``. One marginal constraint is dropped (the
    constraint matrix has rank n + m - 1). Nonnegative, symmetric, and
    agrees with ``w1_exact_1d`` on 1D inputs to well below 1e-9.
    """
    if mu.dim != nu.dim:
        raise DimensionMismatchError(
            f"measures of dimension {mu.dim} and {nu.dim}"
        )
    n, m = mu.n_atoms, nu.n_atoms
    if n * m > W1_CELL_CAP:
        raise CapExceededError(
            f"transportation instance has {n * m} cells, cap is {W1_CELL_CAP}"
        )
    cost = np.linalg.norm(
        mu.points[:, None, :] - nu.points[None, :, :], axis=2
    )
    # Row-sum constraints for mu, column-sum constraints for nu (last dropped).
    rows = np.repeat(np.eye(n), m, axis=1)
    cols = np.tile(np.eye(m), n)[: m - 1]
    a_eq = np.vstack([rows, cols])
    b_eq = np.concatenate([mu.weights, nu.weights[: m - 1]])
    res = linprog(cost.ravel(), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if not res.success:  # pragma: no cover - HiGHS handles these instances
        raise CapExceededError(res.message)
    return max(0.0, float(res.fun))
