"""Couplings and atomwise pushforwards of empirical measures, for tests.

The parallel-attention checks feed a coupling of two contexts, taken as
a measure on the product space, through one attention layer and compare
with the two layers run on each context alone.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from lipctx.errors import DimensionMismatchError, InvalidMeasureError
from lipctx.measure import EmpiricalMeasure


@dataclass(frozen=True, eq=False)
class Coupling:
    """Joint measure over pairs whose marginals are two given measures."""

    left: np.ndarray  # (n, h)
    right: np.ndarray  # (n, h')
    weights: np.ndarray  # (n,)

    def __post_init__(self):
        l = np.atleast_2d(np.asarray(self.left, dtype=np.float64))
        r = np.atleast_2d(np.asarray(self.right, dtype=np.float64))
        w = np.asarray(self.weights, dtype=np.float64)
        if l.shape[0] != r.shape[0] or l.shape[0] != w.shape[0]:
            raise InvalidMeasureError("coupling sides and weights must align")
        if np.any(w < 0):
            raise InvalidMeasureError("coupling weights must be nonnegative")
        total = float(np.sum(w))
        if total <= 0.0:
            raise InvalidMeasureError("coupling weights must not all be zero")
        w = w / total
        for a in (l, r, w):
            a.flags.writeable = False
        object.__setattr__(self, "left", l)
        object.__setattr__(self, "right", r)
        object.__setattr__(self, "weights", w)

    @property
    def n_atoms(self) -> int:
        return self.weights.shape[0]

    def marginals(self) -> tuple[EmpiricalMeasure, EmpiricalMeasure]:
        """The two marginal measures (duplicates kept, storage order)."""
        return (
            EmpiricalMeasure(self.left, self.weights),
            EmpiricalMeasure(self.right, self.weights),
        )

    def as_measure(self) -> EmpiricalMeasure:
        """The coupling as an empirical measure on the product space."""
        return EmpiricalMeasure(np.hstack([self.left, self.right]), self.weights)


def pair_coupling(mu: EmpiricalMeasure, nu: EmpiricalMeasure) -> Coupling:
    """Index-paired coupling when atom counts and weights match; else product.

    Both choices are valid elements of Pi(mu, nu); downstream parallel
    attention results are coupling-agnostic, so the cheap one wins.
    """
    if mu.n_atoms == nu.n_atoms and np.array_equal(mu.weights, nu.weights):
        return Coupling(mu.points, nu.points, mu.weights)
    left = np.repeat(mu.points, nu.n_atoms, axis=0)
    right = np.tile(nu.points, (mu.n_atoms, 1))
    w = np.outer(mu.weights, nu.weights).ravel()
    return Coupling(left, right, w)


def pushforward(
    mu: EmpiricalMeasure, f: Callable[[np.ndarray], np.ndarray]
) -> EmpiricalMeasure:
    """Map every atom through ``f``, keeping its weight."""
    images = [np.asarray(f(p), dtype=np.float64).reshape(-1) for p in mu.points]
    dims = {img.shape[0] for img in images}
    if len(dims) != 1:
        raise DimensionMismatchError("map produced images of mixed dimension")
    return EmpiricalMeasure(np.array(images), mu.weights)
