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

The linear-quadratic design with coefficients ``C1 = delta*q^2``,
``C2 = (1 - q^2)/2``, ``C3 = delta^2*q^2/2 - log(q)`` reproduces the exact
LLR for standardized data: if ``x ~ N(0,1)`` pre-change and
``x ~ N(delta, 1/q^2)`` post-change, then ``C1*x + C2*x^2 - C3`` equals the
LLR identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
    """Coefficients of the linear-quadratic score ``C1*x + C2*x^2 - C3``.

    ``q`` and ``delta`` record the design target (pre-change sd over
    post-change sd, and the standardized mean shift).  A degenerate design
    (identically zero score, e.g. ``q=1, delta=0``) is constructible so that
    callers can probe it, but detectors refuse to run on one.
    """

    c1: float
    c2: float
    c3: float
    q: float = 1.0
    delta: float = 0.0

    def __post_init__(self) -> None:
        for name in ("c1", "c2", "c3", "q", "delta"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.q <= 0.0:
            raise ValueError("q must be positive")

    @property
    def is_degenerate(self) -> bool:
        return self.c1 == 0.0 and self.c2 == 0.0 and self.c3 == 0.0


def design_coefficients(q: float, delta: float) -> ScoreParams:
    """Optimal linear-quadratic coefficients for a standardized Gaussian change.

    ``C1 = delta*q^2``, ``C2 = (1 - q^2)/2``, ``C3 = delta^2*q^2/2 - log(q)``.
    With these coefficients the score equals the exact LLR of
    ``N(0,1) -> N(delta, 1/q^2)``.  ``q = 1, delta = 0`` yields the tagged
    degenerate design.
    """
    if not (np.isfinite(q) and q > 0.0):
        raise ValueError("q must be a positive finite real")
    if not np.isfinite(delta):
        raise ValueError("delta must be finite")
    q2 = q * q
    return ScoreParams(
        c1=delta * q2,
        c2=(1.0 - q2) / 2.0,
        c3=delta * delta * q2 / 2.0 - math.log(q),
        q=q,
        delta=delta,
    )


def linear_quadratic_score(params: ScoreParams, x):
    """Evaluate ``C1*x + C2*x^2 - C3`` on standardized observations."""
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("observations must be finite")
    out = params.c1 * arr + params.c2 * arr**2 - params.c3
    if np.isscalar(x) or arr.ndim == 0:
        return float(out)
    return out
