"""Renewal-theory constants and closed-form performance approximations.

Let ``Z_k`` be the log-likelihood-ratio random walk after ``k`` steps.  The
higher-order operating-characteristic approximations for CUSUM and
Shiryaev-Roberts rest on a handful of constants of that walk:

``I_f``, ``I_g``
    Kullback-Leibler numbers: minus the pre-change drift and the post-change
    drift of one increment.
``zeta``
    Limit of ``E[exp(-overshoot)]`` at an upward level crossing under the
    post-change law, computed from the series
    ``zeta = (1/I_g) * exp(-sum_k (1/k) [P_pre(Z_k > 0) + P_post(Z_k <= 0)])``.
``varkappa``
    Limiting mean overshoot,
    ``E[Z_1^2]/(2 E[Z_1]) + sum_k (1/k) E_post[min(0, Z_k)]``.
``beta0``
    ``E_post[min_{n >= 0} Z_n] <= 0``, the expected global minimum of the
    post-change walk.
``beta_inf``
    Stationary mean of ``Z_n - min_{k <= n} Z_k`` under the pre-change law
    (the CUSUM statistic's stationary mean without a change).
``c0``, ``c_inf``
    ``E[log(1 + U)]`` and ``E[log(1 + R_inf + U)]`` where
    ``U = sum_k exp(-Z_k)`` under the post-change law and ``R_inf`` is an
    independent draw from the stationary pre-change Shiryaev-Roberts
    distribution.

``beta_inf`` and ``c_inf`` come from one simulated pre-change walk per
replication, run through the CUSUM and Shiryaev-Roberts block kernels of
:mod:`quickdetect.detect`, so both recursions are defined only there.

With equal pre/post variances the walk is exactly Gaussian,
``Z_k ~ N(-k*I, 2*k*I)`` pre-change and ``N(k*I, 2*k*I)`` post-change, and
the ``zeta``/``varkappa`` series reduce to normal CDF evaluations; with
unequal variances the log-likelihood ratio is quadratic in the observation,
the walk is not Gaussian, and both series are estimated by Monte Carlo.

The approximations themselves::

    ARL(cusum, h)  ~ exp(h)/(I_g zeta^2) - h/I_f - 1/(I_g zeta)
    ARL(sr, A)     ~ A/zeta
    SADD(cusum, h) ~ (h + varkappa + beta0)/I_g
    ADD_inf(cusum) ~ (h + varkappa - beta_inf)/I_g
    SADD(sr, A)    ~ (log A + varkappa - c0)/I_g
    STADD(sr, A)   ~ (log A + varkappa - c_inf)/I_g

All are large-threshold expansions; at small thresholds they can fall below
the trivial bound of one observation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._rand import mean_se, substream
from .detect import LLR_CLAMP, _cusum_path, _sr_path, check_threshold
from .models import GaussianChangeModel, llr

_STREAM_OVERSHOOT = 1
_STREAM_POST_WALK = 2
_STREAM_PRE_WALK = 3

#: series terms below this magnitude are considered converged
TERM_TOL = 1e-12
#: hard cap on series length regardless of the policy
TRUNCATION_HARD_CAP = 10**6
#: a post-change walk this high can no longer move its minimum or add
#: visible mass to sum(exp(-Z_k)); paths are cut here
ESCAPE_MARGIN = 50.0
_BLOCK = 512


@dataclass(frozen=True)
class Estimate:
    """A value with Monte Carlo provenance (SE 0 / 0 reps means exact)."""

    value: float
    std_error: float = 0.0
    replications: int = 0

    def __post_init__(self) -> None:
        if not np.isfinite(self.value):
            raise ValueError("estimate value must be finite")
        if self.std_error < 0.0 or not np.isfinite(self.std_error):
            raise ValueError("standard error must be finite and nonnegative")
        if self.replications < 0:
            raise ValueError("replication count cannot be negative")

    def __float__(self) -> float:
        return self.value


@dataclass(frozen=True)
class EstimationPolicy:
    """Knobs for estimating the constants.

    ``truncation`` caps the number of series terms (the sums stop earlier,
    at the first term below ``1e-12``); ``horizon`` is the simulated path
    length for the stationary functionals; ``replications`` and ``seed``
    drive the Monte Carlo estimates.
    """

    truncation: int = 100_000
    replications: int = 10_000
    horizon: int = 4_000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.truncation < 1:
            raise ValueError("truncation must be positive")
        if self.replications < 2:
            raise ValueError("need at least two replications")
        if self.horizon < 2:
            raise ValueError("horizon must be at least 2")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


@dataclass(frozen=True)
class PathFunctionals:
    beta0: Estimate
    beta_inf: Estimate
    c0: Estimate
    c_inf: Estimate


@dataclass(frozen=True)
class RenewalConstants:
    """The full constant set for one change model."""

    i_f: float
    i_g: float
    zeta: Estimate
    varkappa: Estimate
    beta0: Estimate
    beta_inf: Estimate
    c0: Estimate
    c_inf: Estimate

    def __post_init__(self) -> None:
        if not (np.isfinite(self.i_f) and self.i_f > 0.0):
            raise ValueError("i_f must be positive and finite")
        if not (np.isfinite(self.i_g) and self.i_g > 0.0):
            raise ValueError("i_g must be positive and finite")
        if not 0.0 < self.zeta.value <= 1.0:
            raise ValueError("zeta must lie in (0, 1]")
        if self.varkappa.value < 0.0:
            raise ValueError("varkappa cannot be negative")
        if self.beta0.value > 0.0:
            raise ValueError("beta0 cannot be positive")
        if self.beta_inf.value < 0.0:
            raise ValueError("beta_inf cannot be negative")
        if self.c0.value < 0.0:
            raise ValueError("c0 cannot be negative")
        if self.c_inf.value < self.c0.value:
            raise ValueError("c_inf cannot fall below c0")


def kl_numbers(model: GaussianChangeModel) -> tuple[float, float]:
    """Kullback-Leibler numbers ``(I_f, I_g)`` of the change model.

    ``I_f = -E_pre[LLR]`` and ``I_g = E_post[LLR]``; both are positive
    because the two distributions differ.  Closed Gaussian forms are used.
    """
    theta = model.mu_post - model.mu_pre
    s_pre2 = model.sigma_pre**2
    s_post2 = model.sigma_post**2
    i_f = (
        math.log(model.sigma_post / model.sigma_pre)
        + (s_pre2 + theta * theta) / (2.0 * s_post2)
        - 0.5
    )
    i_g = (
        math.log(model.sigma_pre / model.sigma_post)
        + (s_post2 + theta * theta) / (2.0 * s_pre2)
        - 0.5
    )
    return i_f, i_g


def llr_moments(model: GaussianChangeModel, regime: str) -> tuple[float, float]:
    """Exact mean and variance of a single log-likelihood-ratio increment.

    ``regime`` is ``"pre"`` or ``"post"``.  The LLR is affine-quadratic in
    the standardized observation, so both moments are available in closed
    form; they anchor the first overshoot term and the Monte Carlo checks.
    """
    i_f, i_g = kl_numbers(model)
    theta = model.mu_post - model.mu_pre
    q = model.sigma_pre / model.sigma_post
    if regime == "post":
        quad = (1.0 / q**2 - 1.0) / 2.0
        lin = model.sigma_post * theta / model.sigma_pre**2
        return i_g, 2.0 * quad * quad + lin * lin
    if regime == "pre":
        quad = (1.0 - q * q) / 2.0
        lin = model.sigma_pre * theta / model.sigma_post**2
        return -i_f, 2.0 * quad * quad + lin * lin
    raise ValueError(f"regime must be 'pre' or 'post', got {regime!r}")


def _equal_variance(model: GaussianChangeModel) -> bool:
    return model.sigma_pre == model.sigma_post


def _converging_sum(term_fn, cap: int, what: str) -> float:
    """Sum ``term_fn(k)`` over k >= 1 until terms drop below TERM_TOL."""
    cap = min(cap, TRUNCATION_HARD_CAP)
    total = 0.0
    start = 1
    block = 65536
    while start <= cap:
        k = np.arange(start, min(cap, start + block - 1) + 1, dtype=float)
        terms = term_fn(k)
        total += float(np.sum(terms))
        if abs(float(terms[-1])) < TERM_TOL:
            return total
        start += block
    raise RuntimeError(
        f"{what} series did not converge within {cap} terms; "
        "the change may be too faint for the truncation cap"
    )


def _overshoots_exact(model: GaussianChangeModel, policy: EstimationPolicy):
    """Equal-variance route: ``Z_k`` is exactly Gaussian, use normal CDFs."""
    from scipy import stats  # imported here: the only use, and a slow import

    _, i_g = kl_numbers(model)

    def zeta_term(k: np.ndarray) -> np.ndarray:
        # P_pre(Z_k > 0) = P_post(Z_k <= 0) = Phi(-sqrt(k I / 2))
        return 2.0 / k * stats.norm.cdf(-np.sqrt(k * i_g / 2.0))

    def kappa_term(k: np.ndarray) -> np.ndarray:
        # E_post[min(0, Z_k)] for Z_k ~ N(k I, 2 k I)
        arg = np.sqrt(k * i_g / 2.0)
        return i_g * stats.norm.cdf(-arg) - np.sqrt(2.0 * i_g / k) * stats.norm.pdf(arg)

    exponent = _converging_sum(zeta_term, policy.truncation, "zeta")
    zeta = math.exp(-exponent) / i_g
    if zeta > 1.0 + 1e-9:
        raise RuntimeError(f"zeta computed as {zeta}, outside (0, 1]")
    first = 1.0 + i_g / 2.0  # E[Z_1^2]/(2 E[Z_1]) for N(I, 2I)
    correction = _converging_sum(kappa_term, policy.truncation, "varkappa")
    return Estimate(min(zeta, 1.0)), Estimate(first + correction)


def _overshoots_mc(model: GaussianChangeModel, policy: EstimationPolicy):
    """Unequal-variance route: estimate the series terms from simulated walks."""
    i_f, i_g = kl_numbers(model)
    drift = min(i_f, i_g)
    length = int(min(policy.truncation, TRUNCATION_HARD_CAP, 60.0 / drift + 64))
    reps = policy.replications
    inv_k = 1.0 / np.arange(1, length + 1)
    s_vals = np.empty(reps)
    t_vals = np.empty(reps)
    tail_hits = 0
    for r in range(reps):
        rng = substream(policy.seed, _STREAM_OVERSHOOT, r)
        z_pre = np.cumsum(llr(model, rng.normal(model.mu_pre, model.sigma_pre, length)))
        z_post = np.cumsum(
            llr(model, rng.normal(model.mu_post, model.sigma_post, length))
        )
        crossings = (z_pre > 0.0).astype(float) + (z_post <= 0.0).astype(float)
        s_vals[r] = float(inv_k @ crossings)
        t_vals[r] = float(inv_k @ np.minimum(0.0, z_post))
        if z_pre[-1] > 0.0 or z_post[-1] <= 0.0:
            tail_hits += 1
    if tail_hits > 0.005 * reps:
        raise RuntimeError(
            f"overshoot series not converged at {length} terms "
            f"({tail_hits}/{reps} paths still crossing); increase truncation"
        )
    s_mean, s_se = mean_se(s_vals)
    zeta = math.exp(-s_mean) / i_g
    if zeta > 1.0 + 1e-9:
        raise RuntimeError(f"zeta estimated as {zeta}, outside (0, 1]")
    mean_post, var_post = llr_moments(model, "post")
    first = (var_post + mean_post * mean_post) / (2.0 * mean_post)
    t_mean, t_se = mean_se(t_vals)
    return (
        Estimate(min(zeta, 1.0), zeta * s_se, reps),
        Estimate(first + t_mean, t_se, reps),
    )


def limiting_overshoots(
    model: GaussianChangeModel, policy: EstimationPolicy | None = None
) -> tuple[Estimate, Estimate]:
    """``(zeta, varkappa)`` for the model.

    Uses the exact Gaussian-walk series when the two variances are equal
    and per-term Monte Carlo otherwise (the Monte Carlo fields then carry
    standard errors and replication counts).
    """
    policy = policy or EstimationPolicy()
    if _equal_variance(model):
        return _overshoots_exact(model, policy)
    return _overshoots_mc(model, policy)


def _post_walk_draws(model: GaussianChangeModel, policy: EstimationPolicy):
    """Per-replication minimum of the post-change walk and ``sum exp(-Z_k)``.

    Paths are cut once the walk clears ESCAPE_MARGIN: beyond that point the
    running minimum cannot move and further terms of the sum are below
    ``exp(-50)``.  Replications that reach the step cap without escaping are
    counted and, if frequent, rejected as a too-short horizon.
    """
    reps = policy.replications
    u_terms = min(policy.truncation, TRUNCATION_HARD_CAP)
    cap = max(policy.horizon, u_terms)
    minima = np.empty(reps)
    u_sums = np.empty(reps)
    unsettled = 0
    for r in range(reps):
        rng = substream(policy.seed, _STREAM_POST_WALK, r)
        z_end = 0.0
        z_min = 0.0
        u = 0.0
        steps = 0
        while steps < cap and z_end <= ESCAPE_MARGIN:
            block = min(_BLOCK, cap - steps)
            incr = llr(model, rng.normal(model.mu_post, model.sigma_post, block))
            z = z_end + np.cumsum(incr)
            # the minimum is tracked up to the horizon, the sum up to the
            # truncation cap; past the escape margin neither can move
            min_within = policy.horizon - steps
            if min_within > 0:
                z_min = min(z_min, float(np.min(z[:min_within])))
            u_within = min(u_terms - steps, block)
            if u_within > 0:
                exponents = -np.clip(z[:u_within], -LLR_CLAMP, None)
                u += float(np.sum(np.exp(exponents)))
            z_end = float(z[-1])
            steps += block
        if z_end <= ESCAPE_MARGIN:
            unsettled += 1
        minima[r] = z_min
        u_sums[r] = u
    if unsettled > max(1, 0.01 * reps):
        raise RuntimeError(
            f"{unsettled}/{reps} post-change walks never escaped within "
            f"{cap} steps; increase the horizon/truncation or check the model"
        )
    return minima, u_sums


def _pre_walk_draws(model: GaussianChangeModel, policy: EstimationPolicy):
    """Per-replication CUSUM tail mean and Shiryaev-Roberts draw, pre-change.

    Each replication draws one pre-change walk and runs both detectors over
    it with the kernels of :mod:`quickdetect.detect`, carrying their end
    states across blocks.  The mean of the CUSUM statistic
    ``Z_n - min_{k<=n} Z_k`` over steps ``n > horizon // 2`` is the
    replication's ``beta_inf`` draw; the Shiryaev-Roberts value at the
    horizon is its approximately stationary draw for ``c_inf``.
    """
    reps = policy.replications
    horizon = policy.horizon
    tail_from = horizon // 2  # steps with index > tail_from contribute
    tails = np.empty(reps)
    sr_draws = np.empty(reps)
    for r in range(reps):
        rng = substream(policy.seed, _STREAM_PRE_WALK, r)
        w = 0.0
        sr = 0.0
        tail_sum = 0.0
        for steps in range(0, horizon, _BLOCK):
            block = min(_BLOCK, horizon - steps)
            z = llr(model, rng.normal(model.mu_pre, model.sigma_pre, block))
            w_path = _cusum_path(w, z)
            tail_sum += float(np.sum(w_path[max(tail_from - steps, 0) :]))
            w = float(w_path[-1])
            sr = float(_sr_path(sr, z)[-1])
        tails[r] = tail_sum / (horizon - tail_from)
        sr_draws[r] = sr
    return tails, sr_draws


def path_functionals(
    model: GaussianChangeModel, policy: EstimationPolicy | None = None
) -> PathFunctionals:
    """Monte Carlo estimates of ``beta0``, ``beta_inf``, ``c0``, ``c_inf``.

    ``beta0`` and ``c0`` come from the post-change walks.  ``beta_inf`` and
    the Shiryaev-Roberts draws for ``c_inf`` come from one pre-change walk
    per replication, evaluated by ``detect._cusum_path`` and
    ``detect._sr_path``.  ``c_inf`` pairs each replication's ``U`` with the
    Shiryaev-Roberts draw of the independent pre-change walk, so
    ``c_inf >= c0`` holds pathwise, not just in expectation.
    """
    policy = policy or EstimationPolicy()
    minima, u_sums = _post_walk_draws(model, policy)
    beta0 = Estimate(*mean_se(minima), policy.replications)
    tails, sr_draws = _pre_walk_draws(model, policy)
    beta_inf = Estimate(*mean_se(tails), policy.replications)
    c0 = Estimate(*mean_se(np.log1p(u_sums)), policy.replications)
    c_inf = Estimate(*mean_se(np.log1p(u_sums + sr_draws)), policy.replications)
    return PathFunctionals(beta0=beta0, beta_inf=beta_inf, c0=c0, c_inf=c_inf)


def estimate_constants(
    model: GaussianChangeModel, policy: EstimationPolicy | None = None
) -> RenewalConstants:
    """Assemble the full constant set for one model under one policy.

    Deterministic: identical ``(model, policy)`` (including seed) give
    bit-identical constants.
    """
    policy = policy or EstimationPolicy()
    i_f, i_g = kl_numbers(model)
    zeta, varkappa = limiting_overshoots(model, policy)
    funcs = path_functionals(model, policy)
    return RenewalConstants(
        i_f=i_f,
        i_g=i_g,
        zeta=zeta,
        varkappa=varkappa,
        beta0=funcs.beta0,
        beta_inf=funcs.beta_inf,
        c0=funcs.c0,
        c_inf=funcs.c_inf,
    )


def arl_approx(kind: str, threshold: float, constants: RenewalConstants) -> float:
    """Higher-order approximation to the pre-change mean time to false alarm."""
    check_threshold(threshold)
    if kind == "cusum":
        zeta = constants.zeta.value
        return (
            math.exp(threshold) / (constants.i_g * zeta * zeta)
            - threshold / constants.i_f
            - 1.0 / (constants.i_g * zeta)
        )
    if kind == "sr":
        return threshold / constants.zeta.value
    raise ValueError(f"kind must be 'cusum' or 'sr', got {kind!r}")


def delay_approx(
    kind: str, threshold: float, constants: RenewalConstants
) -> dict[str, float]:
    """Higher-order detection-delay approximations at a given threshold.

    For ``cusum``: ``sadd`` (worst case, change at the start) and
    ``add_inf`` (stationary regime).  For ``sr``: ``sadd`` and ``stadd``
    (multi-cyclic stationary delay); ``sadd - stadd = (c_inf - c0)/I_g``
    is nonnegative by construction.
    """
    check_threshold(threshold)
    i_g = constants.i_g
    kappa = constants.varkappa.value
    if kind == "cusum":
        return {
            "sadd": (threshold + kappa + constants.beta0.value) / i_g,
            "add_inf": (threshold + kappa - constants.beta_inf.value) / i_g,
        }
    if kind == "sr":
        log_a = math.log(threshold)
        return {
            "sadd": (log_a + kappa - constants.c0.value) / i_g,
            "stadd": (log_a + kappa - constants.c_inf.value) / i_g,
        }
    raise ValueError(f"kind must be 'cusum' or 'sr', got {kind!r}")
