"""Observation models and detection statistics' increments.

A change model says observations are i.i.d. ``N(mu_pre, sigma_pre^2)`` up to
an unknown index and i.i.d. ``N(mu_post, sigma_post^2)`` after it.  Detectors
consume per-observation increments built here in one of two ways:

* exact likelihood: the log-likelihood ratio (LLR) of the two Gaussians;
* score-based: a cheap surrogate ``S(x)`` that only needs to drift downward
  before the change and upward after it, here a linear-quadratic score in
  the standardized observation.

Both are log-scale increments: CUSUM adds them and Shiryaev-Roberts
exponentiates them (see :mod:`quickdetect.detect`).

A score design is its target ``(q, delta)``: the standardized change
``N(0, 1) -> N(delta, 1/q^2)``, which :attr:`ScoreParams.model` returns.
Its coefficients ``C1 = delta*q^2``, ``C2 = (1 - q^2)/2`` and
``C3 = delta^2*q^2/2 - log(q)`` make ``C1*x + C2*x^2 - C3`` that model's
exact LLR identically.  The no-change design ``q = 1, delta = 0`` has an
identically zero score and is refused when it is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # an annotation only: detectors on simulated data never load series
    from .series import MomentEstimate


@dataclass(frozen=True)
class GaussianChangeModel:
    """Pre- and post-change Gaussian parameters (the two must differ)."""

    mu_pre: float
    sigma_pre: float
    mu_post: float
    sigma_post: float

    def __post_init__(self) -> None:
        for name in ("mu_pre", "sigma_pre", "mu_post", "sigma_post"):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite")
        if self.sigma_pre <= 0.0 or self.sigma_post <= 0.0:
            raise ValueError("standard deviations must be positive")
        if (self.mu_pre, self.sigma_pre) == (self.mu_post, self.sigma_post):
            raise ValueError("pre- and post-change distributions must differ")

    @classmethod
    def from_moments(
        cls, pre: MomentEstimate, post: MomentEstimate
    ) -> "GaussianChangeModel":
        return cls(
            mu_pre=pre.mean, sigma_pre=pre.sd, mu_post=post.mean, sigma_post=post.sd
        )

    @property
    def standardized(self) -> "GaussianChangeModel":
        """The same change expressed on the pre-change standardized scale.

        Pre-change becomes ``N(0, 1)``; post-change ``N(delta, 1/q^2)`` with
        ``delta = (mu_post - mu_pre)/sigma_pre`` and
        ``q = sigma_pre/sigma_post``.
        """
        return GaussianChangeModel(
            mu_pre=0.0,
            sigma_pre=1.0,
            mu_post=(self.mu_post - self.mu_pre) / self.sigma_pre,
            sigma_post=self.sigma_post / self.sigma_pre,
        )


def llr(model: GaussianChangeModel, x):
    """Log-likelihood ratio log g(x) - log f(x) of post vs. pre density.

    Vectorized over ``x``; scalar in, scalar out.  Non-finite observations
    are rejected.
    """
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("observations must be finite")
    out = (
        math.log(model.sigma_pre / model.sigma_post)
        + (arr - model.mu_pre) ** 2 / (2.0 * model.sigma_pre**2)
        - (arr - model.mu_post) ** 2 / (2.0 * model.sigma_post**2)
    )
    if np.isscalar(x) or arr.ndim == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class ScoreParams:
    """A linear-quadratic score design ``(q, delta)`` and its coefficients.

    ``q`` is the pre-change sd over the post-change sd and ``delta`` the
    standardized mean shift of the change the design targets, ``N(0, 1) ->
    N(delta, 1/q^2)`` (:attr:`model`).  ``C1``, ``C2`` and ``C3`` of the score
    ``C1*x + C2*x^2 - C3`` follow from them (see :func:`design_coefficients`).
    The no-change design ``q = 1, delta = 0``, whose score is identically
    zero, is refused.
    """

    q: float
    delta: float
    c1: float = field(init=False)
    c2: float = field(init=False)
    c3: float = field(init=False)

    def __post_init__(self) -> None:
        if not (np.isfinite(self.q) and self.q > 0.0):
            raise ValueError("q must be a positive finite real")
        if not np.isfinite(self.delta):
            raise ValueError("delta must be finite")
        if self.q == 1.0 and self.delta == 0.0:
            raise ValueError("q=1, delta=0 is the no-change design: its score is identically zero")
        q2 = self.q * self.q
        object.__setattr__(self, "c1", self.delta * q2)
        object.__setattr__(self, "c2", (1.0 - q2) / 2.0)
        object.__setattr__(self, "c3", self.delta * self.delta * q2 / 2.0 - math.log(self.q))

    @property
    def model(self) -> GaussianChangeModel:
        """The standardized change ``N(0, 1) -> N(delta, 1/q^2)`` whose LLR the score is."""
        return GaussianChangeModel(0.0, 1.0, self.delta, 1.0 / self.q)


def design_coefficients(q: float, delta: float) -> ScoreParams:
    """Optimal linear-quadratic coefficients for a standardized Gaussian change.

    ``C1 = delta*q^2``, ``C2 = (1 - q^2)/2``, ``C3 = delta^2*q^2/2 - log(q)``.
    With these coefficients the score equals the exact LLR of
    ``N(0,1) -> N(delta, 1/q^2)``.
    """
    return ScoreParams(q, delta)


def linear_quadratic_score(params: ScoreParams, x):
    """Evaluate ``C1*x + C2*x^2 - C3`` on standardized observations."""
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("observations must be finite")
    out = params.c1 * arr + params.c2 * arr**2 - params.c3
    if np.isscalar(x) or arr.ndim == 0:
        return float(out)
    return out
