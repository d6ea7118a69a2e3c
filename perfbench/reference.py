"""Reference computations, written apart from the quickdetect sources.

Nothing here imports quickdetect.  Each function restates a definition
directly, so that an agreement with the program is evidence that both are
right:

* :func:`stopping_times` simulates CUSUM or Shiryaev-Roberts stopping times
  for many replications at once, stepping the textbook recursions
  ``W = max(0, W + z)`` and ``R = (1 + R) * exp(z)`` one observation at a
  time across a vector of replications;
* :func:`gaussian_llr` is the log-likelihood ratio written from the two
  normal densities;
* :func:`score_design`, :func:`moments` and :func:`multi_cyclic` rebuild the
  ``detect --mode score`` pipeline;
* :func:`mean_split_statistic` is the Brodsky-Darkhovsky mean-split
  statistic, written as a standardised bridge of partial sums;
* :func:`equal_variance_constants` sums the zeta and varkappa series of an
  equal-variance Gaussian change with :func:`math.erfc`.
"""

from __future__ import annotations

import math

import numpy as np

_CHUNK = 256


def gaussian_llr(x, mu0: float, sd0: float, mu1: float, sd1: float):
    """``log g(x) - log f(x)`` for ``f = N(mu0, sd0^2)`` and ``g = N(mu1, sd1^2)``."""
    x = np.asarray(x, dtype=float)
    return (
        math.log(sd0) - math.log(sd1)
        + 0.5 * ((x - mu0) / sd0) ** 2
        - 0.5 * ((x - mu1) / sd1) ** 2
    )


def step(kind: str, stat, z):
    """One step of the detector recursion, elementwise over arrays.

    CUSUM: ``W = max(0, W + z)``; Shiryaev-Roberts: ``R = (1 + R) * exp(z)``
    with ``z`` clamped to +-700 so the ratio stays finite.
    """
    if kind == "cusum":
        return np.maximum(0.0, stat + z)
    if kind == "sr":
        return (1.0 + stat) * np.exp(np.clip(z, -700.0, 700.0))
    raise ValueError(f"unknown detector kind {kind!r}")


def stopping_times(
    kind: str,
    threshold: float,
    draw_increments,
    replications: int,
    cap: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, int]:
    """First-passage times of a fresh detector, vectorised over replications.

    ``draw_increments(rng, shape)`` returns log-scale increments.  A run that
    has not alarmed after ``cap`` steps counts at ``cap``; the number of such
    runs is returned with the times.
    """
    times = np.full(replications, cap, dtype=np.int64)
    active = np.arange(replications)
    stat = np.zeros(replications)
    t = 0
    while active.size and t < cap:
        width = min(_CHUNK, cap - t)
        z = draw_increments(rng, (active.size, width))
        alive = np.ones(active.size, dtype=bool)
        done_at = np.zeros(active.size, dtype=np.int64)
        for j in range(width):
            stat = step(kind, stat, z[:, j])
            crossed = alive & (stat >= threshold)
            done_at[crossed] = t + j + 1
            alive &= ~crossed
            stat[crossed] = 0.0  # keeps stopped runs finite until compaction
        times[active[~alive]] = done_at[~alive]
        active = active[alive]
        stat = stat[alive]
        t += width
    return times.astype(float), int(active.size)


def mean_se(values: np.ndarray) -> tuple[float, float]:
    values = np.asarray(values, dtype=float)
    return float(values.mean()), float(values.std(ddof=1) / math.sqrt(values.size))


def moments(values: np.ndarray) -> tuple[float, float]:
    """Sample mean and standard deviation (divisor ``n - 1``), by ``math.fsum``."""
    values = [float(v) for v in values]
    n = len(values)
    mean = math.fsum(values) / n
    return mean, math.sqrt(math.fsum((v - mean) ** 2 for v in values) / (n - 1))


def score_design(q: float, delta: float) -> tuple[float, float, float]:
    """Coefficients ``(c1, c2, c3)`` making ``c1*x + c2*x^2 - c3`` the LLR of
    ``N(0, 1) -> N(delta, 1/q^2)``, derived from the two densities."""
    # log[q*phi(q(x - delta)) / phi(x)] = log q + x^2/2 - q^2 (x - delta)^2 / 2
    return q * q * delta, 0.5 * (1.0 - q * q), 0.5 * q * q * delta * delta - math.log(q)


def design_scores(differences: np.ndarray, train_end: int, q: float, delta: float) -> np.ndarray:
    """Score increments of ``detect --mode score --q Q --delta D --train-end T``:
    the given design, with observations standardised by the moments of the
    first ``T`` of them."""
    mean_pre, sd_pre = moments(differences[:train_end])
    c1, c2, c3 = score_design(q, delta)
    x = (np.asarray(differences, dtype=float) - mean_pre) / sd_pre
    return c1 * x + c2 * x * x - c3


def mean_split_statistic(x: np.ndarray) -> np.ndarray:
    """``Y(n)`` for ``n = 1 .. N-1``: the side means' difference, weighted by
    ``sqrt(n (N-n)) / N``, which equals ``(S_n - (n/N) S_N) / sqrt(n (N-n))``
    for the partial sums ``S``."""
    x = np.asarray(x, dtype=float)
    size = x.size
    n = np.arange(1, size, dtype=float)
    partial = np.cumsum(x)
    return (partial[:-1] - n / size * partial[-1]) / np.sqrt(n * (size - n))


def multi_cyclic(kind: str, increments, threshold: float) -> tuple[list[float], list[int]]:
    """Statistic after every step and the (1-based) alarm steps of a detector
    that restarts from zero after each alarm."""
    stats: list[float] = []
    alarms: list[int] = []
    s = 0.0
    for n, z in enumerate(increments, start=1):
        s = float(step(kind, s, float(z)))
        stats.append(s)
        if s >= threshold:
            alarms.append(n)
            s = 0.0
    return stats, alarms


def _normal_tail(a: float) -> float:
    """``P(N(0,1) > a)``."""
    return 0.5 * math.erfc(a / math.sqrt(2.0))


def equal_variance_constants(delta: float, sd: float = 1.0) -> tuple[float, float]:
    """``(zeta, varkappa)`` for ``N(mu, sd^2) -> N(mu + delta, sd^2)``.

    With ``I = delta^2 / (2 sd^2)`` the LLR walk is ``Z_k ~ N(+-kI, 2kI)``, so

    ``zeta = exp(-sum_k (2/k) P(N > sqrt(kI/2))) / I`` and
    ``varkappa = 1 + I/2 + sum_k [I P(N > a_k) - sqrt(2I/k) phi(a_k)]``
    with ``a_k = sqrt(kI/2)``.  Terms are summed until they stop changing the
    total.
    """
    info = delta * delta / (2.0 * sd * sd)
    zeta_sum = 0.0
    kappa_sum = 0.0
    k = 1
    while True:
        a = math.sqrt(k * info / 2.0)
        tail = _normal_tail(a)
        z_term = 2.0 / k * tail
        k_term = info * tail - math.sqrt(2.0 * info / k) * math.exp(-a * a / 2.0) / math.sqrt(2.0 * math.pi)
        zeta_sum += z_term
        kappa_sum += k_term
        if abs(z_term) <= 1e-18 * zeta_sum and abs(k_term) <= 1e-18 * abs(kappa_sum):
            break
        k += 1
        if k > 10_000_000:
            raise RuntimeError("zeta/varkappa series did not settle")
    return math.exp(-zeta_sum) / info, 1.0 + info / 2.0 + kappa_sum
