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
``beta0``, ``beta_inf``
    ``E_post[min_{n >= 0} Z_n] <= 0`` and the pre-change stationary mean of
    the CUSUM statistic ``Z_n - min_{k <= n} Z_k``.  By Spitzer's identity
    (Spitzer 1956; Siegmund 1985, *Sequential Analysis*, ch. VIII) they are
    ``sum_k (1/k) E_post[min(0, Z_k)]`` (the ``varkappa`` correction) and
    ``sum_k (1/k) E_pre[Z_k^+]``.
``c0``, ``c_inf``
    ``E[log(1 + U)]`` and ``E[log(1 + R_inf + U)]`` where
    ``U = sum_k exp(-Z_k)`` under the post-change law and ``R_inf`` is an
    independent stationary pre-change Shiryaev-Roberts draw.  Reversed in
    time, ``R_n = sum_{k <= n} exp(Z_n - Z_{k-1})`` has the law of
    ``sum_{j <= n} exp(Z_j)``, so both are sums ``sum_k exp(s * Z_k)`` of
    one simulated walk: ``s = -1`` post-change, ``s = +1`` pre-change, each
    run until it escapes.  They have no series.

With equal pre/post variances the walk is exactly Gaussian,
``Z_k ~ N(-k*I, 2*k*I)`` pre-change and ``N(k*I, 2*k*I)`` post-change: the
series reduce to normal tails (libm's ``erfc``), and the pre-change walk is
the mirror image of the post-change one, so ``beta_inf = -beta0`` exactly.
With unequal variances the log-likelihood ratio is quadratic in the
observation and the walk is not Gaussian.  The four ladder constants are
then means of per-walk sums over the post-change walks of ``c0`` (Wald's
identity makes their pre-change probabilities post-change expectations).
Every walk is drawn by one loop, ``_walks``.  Both routes feed one assembly,
``_ladder_constants``, and ``I_f``, ``I_g`` and the increment variance of its
first ``varkappa`` term all come from one two-Gaussian formula, ``_gaussian_llr``.

No setting bounds the work: series run until a term falls below
``TERM_TOL`` and walks until they escape, both within ``STEP_CAP``.  A
change too faint to settle within it fails loudly rather than being cut.

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

from ._rand import mean_se, row_chunks, substream
from .detect import LLR_CLAMP, check_threshold
from .models import GaussianChangeModel, llr

_STREAM_POST_WALK = 2
_STREAM_PRE_WALK = 3

#: series terms below this magnitude are considered converged
TERM_TOL = 1e-12
#: bound on series terms and on walk steps; a model whose sums have not
#: settled by then is too faint, and the estimate fails
STEP_CAP = 10**6
#: a walk this far on the escaping side adds no visible mass to any of
#: its sums; paths are cut here
ESCAPE_MARGIN = 50.0
#: ``math.erfc`` underflows to exactly 0.0 at and above this argument
_ERFC_UNDERFLOW = 27.3
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
    """The Monte Carlo budget; series and walks run until they settle."""

    replications: int = 10_000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.replications < 2:
            raise ValueError("need at least two replications")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


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


def _gaussian_llr(mu_p, sigma_p, mu_q, sigma_q) -> tuple[float, float]:
    """``(KL(p || q), Var_p[log p/q])``, ``p = N(mu_p, sigma_p^2)``, ``q = N(mu_q, sigma_q^2)``.

    Under ``p``, ``log p/q = quad u^2 + lin u + const`` with ``u ~ N(0, 1)``.
    ``quad`` is exactly 0 on equal variances, so no ``1/2`` cancels in the KL.
    """
    d = mu_p - mu_q
    quad = ((sigma_p / sigma_q) ** 2 - 1.0) / 2.0
    lin = sigma_p * d / sigma_q**2
    kl = math.log(sigma_q / sigma_p) + quad + d * d / (2.0 * sigma_q**2)
    return kl, 2.0 * quad * quad + lin * lin


def kl_numbers(model: GaussianChangeModel) -> tuple[float, float]:
    """Kullback-Leibler numbers ``(I_f, I_g) = (KL(f || g), KL(g || f))``.

    ``I_f = -E_pre[LLR]`` and ``I_g = E_post[LLR]``, the means of
    ``llr_moments``; both are positive because the two distributions differ.
    """
    return -llr_moments(model, "pre")[0], llr_moments(model, "post")[0]


def llr_moments(model: GaussianChangeModel, regime: str) -> tuple[float, float]:
    """Exact mean and variance of a single log-likelihood-ratio increment.

    ``regime`` is ``"pre"`` (mean ``-I_f = -KL(f || g)``) or ``"post"`` (mean
    ``I_g = KL(g || f)``); the variance is ``Var[log f/g] = Var[log g/f]``
    under that regime's law.  They anchor the first overshoot term and the
    Monte Carlo checks.
    """
    pre, post = (model.mu_pre, model.sigma_pre), (model.mu_post, model.sigma_post)
    if regime == "post":
        return _gaussian_llr(*post, *pre)
    if regime == "pre":
        kl, var = _gaussian_llr(*pre, *post)
        return -kl, var
    raise ValueError(f"regime must be 'pre' or 'post', got {regime!r}")


def _converging_sum(term_fn, what: str) -> float:
    """Sum ``term_fn(k)`` over k >= 1 until terms drop below TERM_TOL."""
    total = 0.0
    start = 1
    block = 65536
    while start <= STEP_CAP:
        k = np.arange(start, min(STEP_CAP, start + block - 1) + 1, dtype=float)
        terms = term_fn(k)
        total += float(np.sum(terms))
        if abs(float(terms[-1])) < TERM_TOL:
            return total
        start += block
    raise RuntimeError(
        f"{what} series did not converge within {STEP_CAP} terms: the change is too faint"
    )


def _normal_tail(a: np.ndarray) -> np.ndarray:
    """``P(N(0, 1) > a)`` elementwise, as libm's ``erfc(a / sqrt(2)) / 2``.

    ``math.erfc`` is called only where its argument is below
    ``_ERFC_UNDERFLOW``; beyond it erfc is exactly 0.0, so every element
    equals a call on the whole array.
    """
    x = a / math.sqrt(2.0)
    live = x < _ERFC_UNDERFLOW
    tail = np.zeros(x.shape)
    tail[live] = list(map(math.erfc, x[live].tolist()))
    return 0.5 * tail


def _ladder_constants(model: GaussianChangeModel, s_sum, t_sum, beta0, beta_inf, reps: int):
    """``(zeta, varkappa, beta0, beta_inf)`` from either route's ``(mean, se)`` sums.

    ``zeta = exp(-s)/I_g`` and ``varkappa = E[Z_1^2]/(2 E[Z_1]) + t``, both
    checked for range and ``zeta`` then clamped to 1; ``reps`` is 0 on the
    exact series, whose errors carry no replication hint.
    """
    i_g, var = llr_moments(model, "post")
    (s, s_se), (t, t_se) = s_sum, t_sum
    zeta = math.exp(-s) / i_g
    varkappa = (var + i_g * i_g) / (2.0 * i_g) + t
    hint = ": too few replications for this model; raise --replications" if reps else ""
    for name, value, se, bad, allowed in (
        ("zeta", zeta, zeta * s_se, zeta > 1.0 + 1e-9, "(0, 1]"),
        ("varkappa", varkappa, t_se, varkappa < 0.0, "[0, inf)"),
    ):
        if bad:
            raise RuntimeError(
                f"{name} estimated as {value:.6g} (se {se:.2g}, {reps} replications), "
                f"outside {allowed}{hint}"
            )
    sums = (min(zeta, 1.0), zeta * s_se), (varkappa, t_se), beta0, beta_inf
    return tuple(Estimate(value, se, reps) for value, se in sums)


def _overshoots_exact(model: GaussianChangeModel):
    """Equal-variance route: ``Z_k`` is exactly Gaussian, use normal tails.

    The ``varkappa`` correction is Spitzer's series for ``beta0``, and its
    mirror image is the series for ``beta_inf``.
    """
    _, i_g = kl_numbers(model)

    def zeta_term(k: np.ndarray) -> np.ndarray:
        # P_pre(Z_k > 0) = P_post(Z_k <= 0) = P(N > sqrt(k I / 2))
        return 2.0 / k * _normal_tail(np.sqrt(k * i_g / 2.0))

    def kappa_term(k: np.ndarray) -> np.ndarray:
        # E_post[min(0, Z_k)] for Z_k ~ N(k I, 2 k I)
        arg = np.sqrt(k * i_g / 2.0)
        pdf = np.exp(-arg**2 / 2.0) / np.sqrt(2 * np.pi)
        return i_g * _normal_tail(arg) - np.sqrt(2.0 * i_g / k) * pdf

    exponent = _converging_sum(zeta_term, "zeta")
    beta0 = _converging_sum(kappa_term, "varkappa")
    return _ladder_constants(model, (exponent, 0.0), (beta0, 0.0), (beta0, 0.0), (-beta0, 0.0), 0)


def _walks(model: GaussianChangeModel, policy: EstimationPolicy, regime: str):
    """Each replication's ``regime`` walk, block by block, until it escapes.

    Yields ``(rows, z, k)``: the replications still walking, their ``Z`` over
    one block (a row each) and the step number of its first column.  A walk
    escapes once ``s * Z`` (``s = -1`` post-change, ``+1`` pre-change) is
    below ``-ESCAPE_MARGIN`` at a block end.  Up to ``_rand._ROWS`` walks
    step together as rows, each drawing from its own generator.  More than
    1% never escaping within ``STEP_CAP`` steps is an error.
    """
    if regime == "post":
        sign, stream, mu, sigma = -1.0, _STREAM_POST_WALK, model.mu_post, model.sigma_post
    else:
        sign, stream, mu, sigma = 1.0, _STREAM_PRE_WALK, model.mu_pre, model.sigma_pre
    unsettled = 0
    for rows in row_chunks(policy.replications):
        rngs = substream(policy.seed, stream, rows)
        z_end = np.zeros(len(rows))
        for steps in range(0, STEP_CAP, _BLOCK):
            live = np.flatnonzero(sign * z_end >= -ESCAPE_MARGIN)
            if not live.size:
                break
            x = np.stack([rngs[i].normal(mu, sigma, min(_BLOCK, STEP_CAP - steps)) for i in live])
            z = z_end[live, None] + np.cumsum(llr(model, x), axis=1)
            z_end[live] = z[:, -1]
            yield rows.start + live, z, steps + 1
        unsettled += int(np.count_nonzero(sign * z_end >= -ESCAPE_MARGIN))
    if unsettled > 0.01 * policy.replications:
        raise RuntimeError(
            f"{unsettled}/{policy.replications} {regime}-change walks never escaped "
            f"within {STEP_CAP} steps: the change is too faint"
        )


def _ladder_sums(model: GaussianChangeModel, policy: EstimationPolicy) -> np.ndarray:
    """Per-walk draws of ``(zeta, varkappa, beta0, beta_inf)``, one row each.

    Over a post-change walk ``Z_1, Z_2, ...``: ``sum_k exp(-Z_k^+)/k``, as
    ``P_pre(Z_k > 0) + P_post(Z_k <= 0) = E_post[exp(-Z_k^+)]`` by Wald's
    likelihood-ratio identity; ``sum_k min(0, Z_k)/k``; ``min(0, min_k Z_k)``;
    and ``sum_k (m_k - m_{k-1}) exp(-m_k)`` in [0, 1], with
    ``m_k = max(0, Z_1, ..., Z_k)``.  That is ``beta_inf = E_pre[sup_n Z_n]``
    (Lindley-Loynes) ``= int_0^inf P_pre(sup_n Z_n > x) dx``, whose
    integrand is ``E_post[exp(-m)]`` at the first ladder height ``m > x``.
    Terms past the escape are below ``exp(-ESCAPE_MARGIN)``.
    """
    sums = np.zeros((4, policy.replications))
    zeta_sums, kappa_sums, minima, beta_inf_sums = sums
    tops = np.zeros(policy.replications)  # m_k at the end of the walk drawn so far
    for rows, z, k in _walks(model, policy, "post"):
        inv_k = 1.0 / np.arange(k, k + z.shape[1])
        m = np.maximum(np.maximum.accumulate(z, axis=1), tops[rows, None])
        zeta_sums[rows] += np.exp(-np.maximum(z, 0.0)) @ inv_k
        kappa_sums[rows] += np.minimum(z, 0.0) @ inv_k
        minima[rows] = np.minimum(minima[rows], np.min(z, axis=1))
        rises = np.diff(m, axis=1, prepend=tops[rows, None])
        beta_inf_sums[rows] += np.sum(rises * np.exp(-m), axis=1)
        tops[rows] = m[:, -1]
    return sums


def _overshoots_mc(model: GaussianChangeModel, policy: EstimationPolicy):
    """Unequal-variance route: the means of the ``_ladder_sums`` draws."""
    return _ladder_constants(model, *map(mean_se, _ladder_sums(model, policy)), policy.replications)


def limiting_overshoots(
    model: GaussianChangeModel, policy: EstimationPolicy | None = None
) -> tuple[Estimate, Estimate, Estimate, Estimate]:
    """The ladder constants ``(zeta, varkappa, beta0, beta_inf)``.

    With equal variances all four are exact series (SE 0, 0 replications)
    and ``beta_inf == -beta0``; otherwise all four are Monte Carlo means of
    per-replication sums over one set of simulated post-change walks (the
    ones ``path_functionals`` draws for ``c0``), with standard errors.
    """
    if model.sigma_pre == model.sigma_post:
        return _overshoots_exact(model)
    return _overshoots_mc(model, policy or EstimationPolicy())


def _exp_sums(model: GaussianChangeModel, policy: EstimationPolicy, regime: str) -> np.ndarray:
    """Per-replication ``sum_k exp(s * Z_k)`` over the walks of ``regime``.

    ``"post"``: ``s = -1`` (the sum is ``U``).  ``"pre"``: ``s = +1`` (the
    time-reversed Shiryaev-Roberts statistic).
    """
    sign = -1.0 if regime == "post" else 1.0
    sums = np.zeros(policy.replications)
    for rows, z, _ in _walks(model, policy, regime):
        sums[rows] += np.sum(np.exp(np.minimum(sign * z, LLR_CLAMP)), axis=1)
    return sums


def path_functionals(
    model: GaussianChangeModel, policy: EstimationPolicy | None = None
) -> tuple[Estimate, Estimate]:
    """Monte Carlo estimates ``(c0, c_inf)``.

    Each replication pairs ``U`` with the Shiryaev-Roberts draw
    ``sum_j exp(Z_j)`` of an independent pre-change walk, so
    ``c_inf >= c0`` holds pathwise.  Both walks run until they escape; more
    than 1% of either that never do is an error.
    """
    policy = policy or EstimationPolicy()
    reps = policy.replications
    u_sums = _exp_sums(model, policy, "post")
    r_sums = _exp_sums(model, policy, "pre")
    return (
        Estimate(*mean_se(np.log1p(u_sums)), reps),
        Estimate(*mean_se(np.log1p(u_sums + r_sums)), reps),
    )


def estimate_constants(
    model: GaussianChangeModel, policy: EstimationPolicy | None = None
) -> RenewalConstants:
    """Assemble the full constant set for one model under one policy.

    Deterministic: identical ``(model, policy)`` (including seed) give
    bit-identical constants.
    """
    policy = policy or EstimationPolicy()
    i_f, i_g = kl_numbers(model)
    zeta, varkappa, beta0, beta_inf = limiting_overshoots(model, policy)
    c0, c_inf = path_functionals(model, policy)
    return RenewalConstants(
        i_f=i_f,
        i_g=i_g,
        zeta=zeta,
        varkappa=varkappa,
        beta0=beta0,
        beta_inf=beta_inf,
        c0=c0,
        c_inf=c_inf,
    )


def arl_approx(kind: str, threshold: float, i_f: float, i_g: float, zeta: float) -> float:
    """Higher-order approximation to the pre-change mean time to false alarm.

    It reads only the Kullback-Leibler numbers and ``zeta``, so a caller that
    needs no delay approximation computes just ``kl_numbers`` and
    ``limiting_overshoots``.
    """
    check_threshold(threshold)
    if kind == "cusum":
        return math.exp(threshold) / (i_g * zeta * zeta) - threshold / i_f - 1.0 / (i_g * zeta)
    if kind == "sr":
        return threshold / zeta
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
