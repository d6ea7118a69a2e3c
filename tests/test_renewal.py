"""Renewal constants: closed forms, Monte Carlo routes, and approximations."""

import math

import numpy as np
import pytest
from scipy import integrate, stats

from quickdetect import (
    Estimate,
    EstimationPolicy,
    GaussianChangeModel,
    RenewalConstants,
    arl_approx,
    delay_approx,
    estimate_constants,
    kl_numbers,
    llr,
)
from quickdetect import renewal
from quickdetect.detect import LLR_CLAMP
from quickdetect.renewal import (
    ESCAPE_MARGIN,
    _ERFC_UNDERFLOW,
    _STREAM_POST_WALK,
    _STREAM_PRE_WALK,
    TERM_TOL,
    _exp_sums,
    _ladder_sums,
    _normal_tail,
    _overshoots_exact,
    _overshoots_mc,
    _walks,
    limiting_overshoots,
    llr_moments,
    path_functionals,
)

#: the paper's HST model: a faint change in mean and scale
HST = GaussianChangeModel(-0.0029, 0.2266, 0.0199, 0.2306)
#: change models for the walk sums: equal and unequal variances, a faint
#: shift whose walks run for several blocks before they escape, and HST,
#: whose walks run for 10-16 k steps
WALK_MODELS = [
    GaussianChangeModel(0.0, 1.0, 1.0, 1.0),
    GaussianChangeModel(0.1, 0.8, 0.6, 1.3),
    GaussianChangeModel(0.0, 1.0, 2.0, 1.0),
    GaussianChangeModel(0.0, 1.0, 0.3, 1.0),
    HST,
]


def walk(model, regime):
    """``(sign, stream, mu, sigma)`` of ``_exp_sums``' walks in ``regime``."""
    return {
        "post": (-1.0, _STREAM_POST_WALK, model.mu_post, model.sigma_post),
        "pre": (1.0, _STREAM_PRE_WALK, model.mu_pre, model.sigma_pre),
    }[regime]


def walk_sums(model, policy, regime):
    """``_exp_sums`` read off ``_walks`` directly, with the walker's error (or None).

    Where the walker raises no error, ``_exp_sums`` must give the same bits.
    """
    sign = walk(model, regime)[0]
    sums = np.zeros(policy.replications)
    try:
        for rows, z, _ in _walks(model, policy, regime):
            sums[rows] += np.sum(np.exp(np.minimum(sign * z, LLR_CLAMP)), axis=1)
    except RuntimeError as err:
        return sums, str(err)
    np.testing.assert_array_equal(_exp_sums(model, policy, regime), sums)
    return sums, None


def unsettled_error(still, reps, regime):
    """The walker's error for ``still`` unescaped walks of ``reps``, or None."""
    if still <= 0.01 * reps:
        return None
    return (
        f"{still}/{reps} {regime}-change walks never escaped within "
        f"{renewal.STEP_CAP} steps: the change is too faint"
    )


def fixed_length_oracle(model, reps, seed):
    """The ladder constants from fixed-length walks, ``[(value, se)]``.

    Each replication draws a pre- and a post-change walk of
    ``60 / min(I_f, I_g) + 64`` steps.  ``zeta`` takes the crossing
    indicators ``1{Z_pre_k > 0} + 1{Z_post_k <= 0}`` as its series terms,
    ``varkappa`` and ``beta0`` read ``min(0, Z_post_k)``, and ``beta_inf``
    is the mean CUSUM statistic ``Z_n - min(0, min_{k <= n} Z_k)`` of the
    pre-change walk, drawn on to 4 000 steps, over steps ``n > 2 000``.
    Order ``(zeta, varkappa, beta0, beta_inf)``.
    """
    i_f, i_g = kl_numbers(model)
    length, window = int(60.0 / min(i_f, i_g) + 64), 4_000
    inv_k = 1.0 / np.arange(1, length + 1)
    rng = np.random.default_rng(seed)
    draws = np.empty((4, reps))
    crossing = 0
    for start in range(0, reps, 64):
        rows = slice(start, min(reps, start + 64))
        n = rows.stop - rows.start
        x_pre = rng.normal(model.mu_pre, model.sigma_pre, (n, max(length, window)))
        z_pre = np.cumsum(llr(model, x_pre), axis=1)
        z_post = np.cumsum(llr(model, rng.normal(model.mu_post, model.sigma_post, (n, length))), axis=1)
        crossings = (z_pre[:, :length] > 0.0).astype(float) + (z_post <= 0.0)
        crossing += int(np.count_nonzero(crossings[:, -1]))
        draws[0, rows] = crossings @ inv_k
        draws[1, rows] = np.minimum(0.0, z_post) @ inv_k
        draws[2, rows] = np.minimum(0.0, np.min(z_post, axis=1))
        z_tail = z_pre[:, :window]
        cusum = z_tail - np.minimum(0.0, np.minimum.accumulate(z_tail, axis=1))
        draws[3, rows] = np.mean(cusum[:, window // 2 :], axis=1)
    # the series must have settled within the walks' length
    assert crossing <= 0.005 * reps
    (s_mean, s_se), *rest = [
        (float(np.mean(d)), float(np.std(d, ddof=1)) / math.sqrt(reps)) for d in draws
    ]
    zeta = math.exp(-s_mean) / i_g
    mean_post, var_post = llr_moments(model, "post")
    first = (var_post + mean_post * mean_post) / (2.0 * mean_post)
    (t_mean, t_se), beta0, beta_inf = rest
    return [(zeta, zeta * s_se), (first + t_mean, t_se), beta0, beta_inf]


def ncx2_series(model, terms):
    """The ladder constants of a model with ``sigma_post > sigma_pre`` as exact series.

    The LLR is ``a (x + h)^2 + shift`` with ``a > 0``, so under either law
    ``Z_k = scale * Y + k * shift`` with ``Y`` noncentral chi-square on ``k``
    degrees of freedom, and ``Z_k > 0`` iff ``Y > t``.  The partial means
    follow from ``y f_{k,lam}(y) = k f_{k+2,lam}(y) + lam f_{k+4,lam}(y)``:
    ``E[(Y - t)^+] = k sf_{k+2} + lam sf_{k+4} - t sf_k`` and likewise with
    the CDF.  Each series is summed over ``k <= terms``.  Order
    ``(zeta, varkappa, beta0, beta_inf)``.
    """
    s_pre2, s_post2 = model.sigma_pre**2, model.sigma_post**2
    a = 0.5 / s_pre2 - 0.5 / s_post2
    assert a > 0.0
    b = model.mu_post / s_post2 - model.mu_pre / s_pre2
    c = math.log(model.sigma_pre / model.sigma_post) + model.mu_pre**2 / (2 * s_pre2) - model.mu_post**2 / (2 * s_post2)
    h, shift = b / (2 * a), c - b * b / (4 * a)
    k = np.arange(1, terms + 1, dtype=float)

    def law(mu, sigma):
        scale = a * sigma * sigma
        return scale, k * ((mu + h) / sigma) ** 2, np.maximum(-k * shift / scale, 0.0)

    scale, lam, t = law(model.mu_pre, model.sigma_pre)
    p_pre = stats.ncx2.sf(t, k, lam)  # P_pre(Z_k > 0)
    pre_positive = scale * (k * stats.ncx2.sf(t, k + 2, lam) + lam * stats.ncx2.sf(t, k + 4, lam) - t * p_pre)
    scale, lam, t = law(model.mu_post, model.sigma_post)
    p_post = stats.ncx2.cdf(t, k, lam)  # P_post(Z_k <= 0)
    post_negative = -scale * (t * p_post - k * stats.ncx2.cdf(t, k + 2, lam) - lam * stats.ncx2.cdf(t, k + 4, lam))
    _, i_g = kl_numbers(model)
    mean_post, var_post = llr_moments(model, "post")
    beta0 = math.fsum(post_negative / k)
    return (
        math.exp(-math.fsum((p_pre + p_post) / k)) / i_g,
        (var_post + mean_post * mean_post) / (2.0 * mean_post) + beta0,
        beta0,
        math.fsum(pre_positive / k),
    )


def ladder_definitions(model, seed, r):
    """Replication ``r``'s four ``_ladder_sums`` draws, recomputed in one piece.

    The walk is drawn from its own generator in 512-step blocks until ``Z``
    exceeds the escape margin at a block end, then each draw is summed over
    the whole walk at once.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, _STREAM_POST_WALK, r]))
    pieces = []
    while not pieces or pieces[-1][-1] <= ESCAPE_MARGIN:
        start = pieces[-1][-1] if pieces else 0.0
        pieces.append(start + np.cumsum(llr(model, rng.normal(model.mu_post, model.sigma_post, 512))))
    z = np.concatenate(pieces)
    k = np.arange(1, z.size + 1)
    m = np.maximum.accumulate(np.maximum(z, 0.0))
    return (
        np.sum(np.exp(-np.maximum(z, 0.0)) / k),
        np.sum(np.minimum(z, 0.0) / k),
        min(0.0, float(np.min(z))),
        np.sum(np.diff(m, prepend=0.0) * np.exp(-m)),
    )


FAST_POLICY = EstimationPolicy(replications=4_000, seed=11)


def kl_oracle(model):
    """``(I_f, I_g)`` in the hand-expanded forms that cancel ``-1/2`` by hand."""
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


def llr_variance_oracle(model, regime):
    """``2 quad^2 + lin^2`` with each regime's own coefficients of the LLR in
    that regime's standardized observation."""
    theta = model.mu_post - model.mu_pre
    q = model.sigma_pre / model.sigma_post
    if regime == "post":
        quad = (1.0 / q**2 - 1.0) / 2.0
        lin = model.sigma_post * theta / model.sigma_pre**2
    else:
        quad = (1.0 - q * q) / 2.0
        lin = model.sigma_pre * theta / model.sigma_post**2
    return 2.0 * quad * quad + lin * lin


def random_models(count, seed):
    rng = np.random.default_rng(seed)
    mus = rng.uniform(-2.0, 2.0, (count, 2))
    sigmas = rng.uniform(0.2, 3.0, (count, 2))
    return [
        GaussianChangeModel(mu_pre, sigma_pre, mu_post, sigma_post)
        for (mu_pre, mu_post), (sigma_pre, sigma_post) in zip(mus.tolist(), sigmas.tolist())
    ]


#: the named models of the suite and 1 000 random ones, for the oracles above
ORACLE_MODELS = [
    GaussianChangeModel(0.0, 1.0, 1.0, 1.0),
    HST,
    GaussianChangeModel(0.1, 0.8, 0.6, 1.3),
    GaussianChangeModel(0.0, 1.0, 0.3, 1.0),
    *random_models(1_000, seed=0),
]


class TestKlNumbers:
    def test_frozen_examples(self, unit_shift_model):
        i_f, i_g = kl_numbers(unit_shift_model)
        assert i_f == pytest.approx(0.5, abs=1e-15)
        assert i_g == pytest.approx(0.5, abs=1e-15)
        # doubling the sd: direct arithmetic log2 + 1/8 - 1/2 and
        # -log2 + 2 - 1/2
        i_f, i_g = kl_numbers(GaussianChangeModel(0.0, 1.0, 0.0, 2.0))
        assert i_f == pytest.approx(math.log(2.0) - 0.375, abs=1e-15)
        assert i_g == pytest.approx(1.5 - math.log(2.0), abs=1e-15)

    def test_quadrature_oracle(self, variance_model):
        model = variance_model

        def expect(stat, mu, sigma):
            value, _ = integrate.quad(
                lambda x: stat(x) * stats.norm.pdf(x, mu, sigma), -60, 60, limit=400
            )
            return value

        i_f, i_g = kl_numbers(model)
        direct_f = -expect(lambda x: llr(model, x), model.mu_pre, model.sigma_pre)
        direct_g = expect(lambda x: llr(model, x), model.mu_post, model.sigma_post)
        assert i_f == pytest.approx(direct_f, abs=1e-9)
        assert i_g == pytest.approx(direct_g, abs=1e-9)

    def test_hand_expanded_forms(self):
        # the two-Gaussian formula keeps the terms the oracle cancels, so they
        # agree to rounding; on the unit shift nothing rounds
        assert kl_numbers(ORACLE_MODELS[0]) == kl_oracle(ORACLE_MODELS[0]) == (0.5, 0.5)
        for model in ORACLE_MODELS:
            for got, want in zip(kl_numbers(model), kl_oracle(model)):
                assert got == pytest.approx(want, rel=1e-11, abs=0.0), model

    def test_positive_for_any_change(self):
        for model in (
            GaussianChangeModel(0.0, 1.0, 0.0, 1.0001),
            GaussianChangeModel(0.0, 1.0, 1e-4, 1.0),
            GaussianChangeModel(5.0, 2.0, -5.0, 0.1),
        ):
            i_f, i_g = kl_numbers(model)
            assert i_f > 0.0 and i_g > 0.0


class TestLlrMoments:
    def test_against_quadrature(self, variance_model):
        model = variance_model
        for regime, mu, sigma in (
            ("pre", model.mu_pre, model.sigma_pre),
            ("post", model.mu_post, model.sigma_post),
        ):
            mean, var = llr_moments(model, regime)

            def expect(f):
                value, _ = integrate.quad(
                    lambda x: f(x) * stats.norm.pdf(x, mu, sigma), -60, 60, limit=400
                )
                return value

            direct_mean = expect(lambda x: llr(model, x))
            direct_var = expect(lambda x: (llr(model, x) - direct_mean) ** 2)
            assert mean == pytest.approx(direct_mean, abs=1e-9)
            assert var == pytest.approx(direct_var, abs=1e-8)

    def test_per_regime_forms(self):
        # the means are the KL numbers, the variances each regime's own
        # quadratic-and-linear coefficients
        for model in ORACLE_MODELS:
            i_f, i_g = kl_numbers(model)
            for regime, mean in (("pre", -i_f), ("post", i_g)):
                got_mean, got_var = llr_moments(model, regime)
                assert got_mean == mean, (model, regime)
                want = llr_variance_oracle(model, regime)
                assert got_var == pytest.approx(want, rel=1e-13, abs=0.0), (model, regime)

    def test_equal_variance_case(self, unit_shift_model):
        mean, var = llr_moments(unit_shift_model, "post")
        assert mean == pytest.approx(0.5)
        assert var == pytest.approx(1.0)  # Z ~ N(I, 2I) with I = 1/2

    def test_bad_regime(self, unit_shift_model):
        with pytest.raises(ValueError, match="regime"):
            llr_moments(unit_shift_model, "during")


class TestOvershoots:
    def test_unit_shift_frozen_values(self, unit_shift_model):
        # series evaluated independently by hand:
        # zeta = 2 exp(-2 sum Phi(-sqrt(k)/2)/k) ~ 0.5604,
        # varkappa = 1.25 + sum E[min(0, Z_k)]/k ~ 0.7183
        zeta, varkappa, *_ = limiting_overshoots(unit_shift_model)
        assert float(zeta) == pytest.approx(0.5604, abs=1e-3)
        assert float(varkappa) == pytest.approx(0.718, abs=2e-3)
        # the exact route carries no Monte Carlo error
        assert zeta.std_error == 0.0 and zeta.replications == 0

    def test_exact_route_matches_series_recomputed_here(self, unit_shift_model):
        i = 0.5
        k = np.arange(1, 200_001, dtype=float)
        exponent = float(np.sum(2.0 / k * stats.norm.cdf(-np.sqrt(k * i / 2.0))))
        zeta_direct = math.exp(-exponent) / i
        partials = []
        for cut in (10, 100, 10_000):
            partial = float(
                np.sum(2.0 / k[:cut] * stats.norm.cdf(-np.sqrt(k[:cut] * i / 2.0)))
            )
            partials.append(math.exp(-partial) / i)
        # truncating the (positive-term) series can only inflate zeta
        assert partials[0] > partials[1] > partials[2] > zeta_direct - 1e-12
        zeta, *_ = limiting_overshoots(unit_shift_model)
        assert float(zeta) == pytest.approx(zeta_direct, abs=1e-6)

    @pytest.mark.parametrize("info", [1e-4, 5.06e-3, 0.045, 0.5, 2.0])
    def test_exact_route_matches_ndtr_series(self, info):
        # zeta and the Spitzer series for beta0 summed with scipy's ndtr, over
        # the terms the exact route sums: whole 65 536-term blocks up to the
        # first block whose last term is below TERM_TOL
        from scipy.special import ndtr

        model = GaussianChangeModel(0.0, 1.0, math.sqrt(2.0 * info), 1.0)
        _, i = kl_numbers(model)

        def block_sum(term):
            terms = []
            while not terms or abs(terms[-1][-1]) >= TERM_TOL:
                k = np.arange(1, 65_537, dtype=float) + 65_536 * len(terms)
                terms.append(term(k))
            return math.fsum(np.concatenate(terms))

        def kappa_term(k):
            arg = np.sqrt(k * i / 2.0)
            pdf = np.exp(-arg**2 / 2.0) / math.sqrt(2 * math.pi)
            return i * ndtr(-arg) - np.sqrt(2.0 * i / k) * pdf

        zeta_ndtr = math.exp(-block_sum(lambda k: 2.0 / k * ndtr(-np.sqrt(k * i / 2.0)))) / i
        beta0_ndtr = block_sum(kappa_term)
        zeta, varkappa, beta0, beta_inf = limiting_overshoots(model)
        assert float(zeta) == pytest.approx(zeta_ndtr, rel=1e-14, abs=0.0)
        assert float(beta0) == pytest.approx(beta0_ndtr, rel=1e-14, abs=0.0)
        assert float(beta_inf) == -float(beta0)
        # varkappa = (1 + I/2) + beta0 cancels at small I (0.0083 from 1.00005
        # and -0.99179 at I = 1e-4), so bound it by the size of its two parts
        first = 1.0 + i / 2.0
        assert abs(float(varkappa) - (first + beta0_ndtr)) <= 1e-14 * (first - beta0_ndtr)

    @pytest.mark.parametrize("name, forced", [("zeta", -1.0), ("varkappa", -10.0)])
    def test_exact_route_out_of_range_raises_the_shared_message(
        self, unit_shift_model, monkeypatch, name, forced
    ):
        # a forced series sum puts zeta at e/I = 5.4 or varkappa at 1.25 - 10;
        # the message is the walk route's, without its replication hint
        series = renewal._converging_sum

        def forced_sum(term_fn, what):
            return forced if what == name else series(term_fn, what)

        monkeypatch.setattr(renewal, "_converging_sum", forced_sum)
        with pytest.raises(RuntimeError) as info:
            _overshoots_exact(unit_shift_model)
        allowed = {"zeta": "(0, 1]", "varkappa": "[0, inf)"}[name]
        assert str(info.value).startswith(f"{name} estimated as ")
        assert str(info.value).endswith(f" (se 0, 0 replications), outside {allowed}")

    def test_normal_tail_skips_only_exact_zeros(self):
        # erfc is called below _ERFC_UNDERFLOW alone; every element must equal
        # a call on the whole array, so the series sums are unchanged
        assert math.erfc(_ERFC_UNDERFLOW) == 0.0
        a = np.concatenate([np.linspace(0.0, 60.0, 200_001), [38.6, 38.61, 1e3]])
        whole = 0.5 * np.array([math.erfc(x) for x in (a / math.sqrt(2.0)).tolist()])
        assert _normal_tail(a).tobytes() == whole.tobytes()

    def test_direct_overshoot_simulation(self, unit_shift_model):
        # the renewal-theoretic meaning: chi = Z_tau - a at the first
        # crossing of a high level a; zeta ~ E[exp(-chi)], kappa ~ E[chi]
        zeta, varkappa, *_ = limiting_overshoots(unit_shift_model)
        rng = np.random.default_rng(314159)
        a = 20.0
        reps = 20_000
        chi = np.empty(reps)
        for r in range(reps):
            z = 0.0
            while z < a:
                z += rng.normal(1.0, 1.0) - 0.5  # LLR increment under post
            chi[r] = z - a
        e_exp = np.exp(-chi)
        se_z = np.std(e_exp, ddof=1) / math.sqrt(reps)
        se_k = np.std(chi, ddof=1) / math.sqrt(reps)
        assert abs(np.mean(e_exp) - float(zeta)) < 4.0 * se_z
        assert abs(np.mean(chi) - float(varkappa)) < 4.0 * se_k

    @pytest.mark.parametrize(
        "model",
        [GaussianChangeModel(0.0, 1.0, 1.0, 1.0), GaussianChangeModel(0.5, 0.7, -0.3, 0.7)],
    )
    def test_exact_ladder_constants_match_spitzer_series(self, model):
        # Spitzer: beta0 = sum (1/k) E_post[min(0, Z_k)] and
        # beta_inf = sum (1/k) E_pre[Z_k^+], each recomputed here from
        # E[X^+] = m Phi(m/s) + s phi(m/s) for X ~ N(m, s^2), with
        # Z_k ~ N(-k I, 2 k I) pre-change and N(k I, 2 k I) post-change
        _, i = kl_numbers(model)
        k = np.arange(1, 200_001, dtype=float)
        s = np.sqrt(2.0 * k * i)

        def positive_part(m):
            return m * stats.norm.cdf(m / s) + s * stats.norm.pdf(m / s)

        beta_inf_direct = float(np.sum(positive_part(-k * i) / k))
        # E[min(0, X)] = E[X] - E[X^+] for X ~ N(k I, 2 k I)
        beta0_direct = float(np.sum((k * i - positive_part(k * i)) / k))
        _, _, beta0, beta_inf = limiting_overshoots(model)
        assert float(beta0) == pytest.approx(beta0_direct, rel=1e-9)
        assert float(beta_inf) == pytest.approx(beta_inf_direct, rel=1e-9)
        for est in (beta0, beta_inf):
            assert est.std_error == 0.0 and est.replications == 0
        assert float(beta_inf) == -float(beta0)

    def test_mc_route_agrees_with_exact_route(self, unit_shift_model):
        # the Monte Carlo estimator is valid for any model; on an
        # equal-variance model it must reproduce the closed-form answer
        exact = _overshoots_exact(unit_shift_model)
        mc = _overshoots_mc(unit_shift_model, FAST_POLICY)
        for name, e, m in zip(("zeta", "varkappa", "beta0", "beta_inf"), exact, mc):
            assert m.replications == FAST_POLICY.replications, name
            assert abs(float(m) - float(e)) < 3.5 * m.std_error, name

    def test_unequal_variance_route_is_mc(self, variance_model):
        constants = limiting_overshoots(variance_model, FAST_POLICY)
        zeta, varkappa, beta0, beta_inf = constants
        assert 0.0 < float(zeta) <= 1.0
        assert float(varkappa) > 0.0
        assert float(beta0) <= 0.0 <= float(beta_inf)
        for est in constants:
            assert est.std_error > 0.0
            assert est.replications == FAST_POLICY.replications

    @pytest.mark.parametrize("seed, name", [(1, "zeta"), (4, "varkappa")])
    def test_small_budget_on_the_hst_model_names_its_cause(self, seed, name):
        # at R = 200 these seeds put zeta above 1 (1.007, se 0.074) and
        # varkappa below 0 (-0.13, se 0.11); at R = 1000 no seed of 1-40
        # leaves either range
        policy = EstimationPolicy(replications=200, seed=seed)
        with pytest.raises(RuntimeError) as info:
            _overshoots_mc(HST, policy)
        message = str(info.value)
        assert message.startswith(f"{name} estimated as")
        assert "se " in message and "200 replications" in message
        assert "raise --replications" in message

    @pytest.mark.parametrize(
        "model, reps, terms",
        [(GaussianChangeModel(0.1, 0.8, 0.6, 1.3), 4_000, 1_000), (HST, 2_000, 12_000)],
        ids=["variance_model", "hst"],
    )
    def test_walk_route_agrees_with_oracles(self, model, reps, terms):
        # two oracles: the route the walk sums replace (crossing indicators
        # of a pre- and a post-change walk for zeta, the CUSUM tail mean for
        # beta_inf) on walks of an independent generator, and the exact
        # noncentral chi-square series (HST's sums at 12 000 terms are
        # within 1e-9 of those at 40 000)
        policy = EstimationPolicy(replications=reps, seed=7)
        walk_route = _overshoots_mc(model, policy)
        oracle = fixed_length_oracle(model, reps, seed=2024)
        series = ncx2_series(model, terms)
        for name, est, (value, se), exact in zip(
            ("zeta", "varkappa", "beta0", "beta_inf"), walk_route, oracle, series
        ):
            assert est.replications == reps, name
            assert abs(float(est) - value) < 3.5 * math.hypot(est.std_error, se), name
            assert abs(float(est) - exact) < 3.5 * est.std_error, name

    @pytest.mark.parametrize(
        "model", [GaussianChangeModel(0.1, 0.8, 0.6, 1.3), GaussianChangeModel(0.0, 1.0, 0.3, 1.0), HST]
    )
    def test_ladder_sums_match_definitions(self, model):
        # the walker's blocks carry the step number and the running maximum
        # across block ends: each draw equals its walk summed in one piece
        policy = EstimationPolicy(replications=70, seed=5)
        sums = _ladder_sums(model, policy)
        for r in (0, 1, 63, 64, 69):
            for got, want in zip(sums[:, r], ladder_definitions(model, policy.seed, r)):
                assert got == pytest.approx(want, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize(
        "model", [GaussianChangeModel(0.1, 0.8, 0.6, 1.3), GaussianChangeModel(0.0, 1.0, 1.0, 1.0), HST]
    )
    def test_beta_inf_draws_lie_in_the_unit_interval(self, model):
        # each draw sum (m_k - m_{k-1}) exp(-m_k) is a right-endpoint sum of
        # int_0^m exp(-x) dx over the walk's maximum m, so in [0, 1 - e^-m]
        beta_inf_draws = _ladder_sums(model, EstimationPolicy(replications=500, seed=3))[3]
        assert np.all(beta_inf_draws >= 0.0) and np.all(beta_inf_draws < 1.0)
        assert np.all(beta_inf_draws > 0.0)  # every walk rises above 0 before it escapes


class TestPathFunctionals:
    def test_invariants_and_direct_beta0_c0(self, unit_shift_model):
        c0, c_inf = path_functionals(unit_shift_model, FAST_POLICY)
        _, _, beta0, beta_inf = limiting_overshoots(unit_shift_model, FAST_POLICY)
        assert float(c0) >= 0.0
        assert float(c_inf) >= float(c0)
        # independent simulation of the two post-change functionals: the
        # walk minimum and log(1 + sum exp(-Z_k)) settle fast at drift 1/2
        rng = np.random.default_rng(2718)
        reps, horizon = 20_000, 400
        z = np.cumsum(rng.normal(0.5, 1.0, size=(reps, horizon)), axis=1)
        minima = np.minimum(0.0, z.min(axis=1))
        u_sums = np.sum(np.exp(-np.clip(z, -700, None)), axis=1)
        del z
        # independent pre-change walks (drift -1/2), both detectors stepped
        # by their scalar recursions across all replications at once: the
        # CUSUM statistic averaged over steps n > horizon/2, and the
        # Shiryaev-Roberts value at the horizon, paired with U as in c_inf
        w = np.zeros(reps)
        sr = np.zeros(reps)
        tail_sums = np.zeros(reps)
        for n, step in enumerate(rng.normal(-0.5, 1.0, size=(horizon, reps)), start=1):
            w = np.maximum(0.0, w + step)
            sr = (1.0 + sr) * np.exp(step)
            if n > horizon // 2:
                tail_sums += w
        tails = tail_sums / (horizon - horizon // 2)
        for est, draws in (
            (beta0, minima),
            (c0, np.log1p(u_sums)),
            (beta_inf, tails),
            (c_inf, np.log1p(u_sums + sr)),
        ):
            se = math.hypot(est.std_error, np.std(draws, ddof=1) / math.sqrt(reps))
            assert abs(float(est) - np.mean(draws)) < 3.5 * se

    @pytest.mark.parametrize("model", WALK_MODELS)
    @pytest.mark.parametrize("regime", ["post", "pre"])
    def test_exp_sums_match_definitions(self, model, regime, monkeypatch):
        # each replication recomputed from its own stream, drawn in one
        # piece: sum_{k <= cap} exp(s Z_k), with s = -1 post-change and
        # s = +1 pre-change, under a cap 3 steps into a block.  Terms past
        # the walk's escape are below exp(-50) and do not show here.  A walk
        # is unsettled if s Z stays above -50 at every block end, and more
        # than 1% unsettled is the walker's error.
        cap = 1_027
        monkeypatch.setattr(renewal, "STEP_CAP", cap)
        policy = EstimationPolicy(replications=30, seed=5)
        sums, error = walk_sums(model, policy, regime)
        sign, stream, mu, sigma = walk(model, regime)
        block_ends = [511, 1023, cap - 1]
        still = 0
        for r in range(policy.replications):
            rng = np.random.default_rng(np.random.SeedSequence([policy.seed, stream, r]))
            z = np.cumsum(llr(model, rng.normal(mu, sigma, cap)))
            assert sums[r] == pytest.approx(np.sum(np.exp(sign * z)), rel=1e-9)
            still += bool(np.all(sign * z[block_ends] >= -ESCAPE_MARGIN))
        assert error == unsettled_error(still, policy.replications, regime)

    @pytest.mark.parametrize("model", WALK_MODELS)
    @pytest.mark.parametrize("regime", ["post", "pre"])
    def test_exp_sums_equal_the_per_replication_loop(self, model, regime, monkeypatch):
        # the walks step together as rows, yet each sum is bit-equal to its
        # walk run alone in 512-step blocks.  Two chunks of rows; a cap of
        # 700 leaves some faint walks unsettled, and under the real cap every
        # walk runs to its escape, HST's for 10-16 k steps.
        policy = EstimationPolicy(replications=70, seed=5)
        sign, stream, mu, sigma = walk(model, regime)
        for cap in (700, renewal.STEP_CAP):
            monkeypatch.setattr(renewal, "STEP_CAP", cap)
            sums, error = walk_sums(model, policy, regime)
            expected, still = [], 0
            for r in range(policy.replications):
                rng = np.random.default_rng(np.random.SeedSequence([policy.seed, stream, r]))
                z_end, total, steps = 0.0, 0.0, 0
                while steps < cap and sign * z_end >= -ESCAPE_MARGIN:
                    block = min(512, cap - steps)
                    z = z_end + np.cumsum(llr(model, rng.normal(mu, sigma, block)))
                    total += float(np.sum(np.exp(np.minimum(sign * z, LLR_CLAMP))))
                    z_end = float(z[-1])
                    steps += block
                still += sign * z_end >= -ESCAPE_MARGIN
                expected.append(total)
            np.testing.assert_array_equal(sums, expected)
            assert error == unsettled_error(still, policy.replications, regime)
        assert still == 0  # under the real cap

    def test_faint_change_rejected(self, monkeypatch):
        monkeypatch.setattr(renewal, "STEP_CAP", 64)
        policy = EstimationPolicy(replications=64, seed=0)
        for estimator, model, regime in (
            # a faint shift: the post-change walks, checked first, never escape
            (path_functionals, GaussianChangeModel(0.0, 1.0, 0.02, 1.0), "post"),
            # I_g = 2.9 and I_f = 0.65: 64 steps settle the post-change walks
            # (about -186 on average) but leave the pre-change ones near -42
            (path_functionals, GaussianChangeModel(0.0, 1.0, 0.0, 3.0), "pre"),
            # a faint change in mean and scale: the ladder constants' walks
            # (post-change) never escape either
            (limiting_overshoots, GaussianChangeModel(0.0, 1.0, 0.02, 1.01), "post"),
        ):
            with pytest.raises(RuntimeError, match=rf"^\d+/64 {regime}-change walks never "
                               "escaped within 64 steps: the change is too faint$"):
                estimator(model, policy)

    def test_one_unsettled_walk_in_fewer_than_100_fails(self, unit_shift_model, monkeypatch):
        # more than 1% of the walks never escaping is an error at any
        # replication count: under a cap of 160 steps, one of these 50
        # post-change walks (seed 0) is still short of its escape
        monkeypatch.setattr(renewal, "STEP_CAP", 160)
        with pytest.raises(RuntimeError, match="^1/50 post-change walks never escaped "
                           "within 160 steps: the change is too faint$"):
            path_functionals(unit_shift_model, EstimationPolicy(replications=50, seed=0))


class TestEstimateConstants:
    def test_deterministic(self, variance_model):
        first = estimate_constants(variance_model, FAST_POLICY)
        second = estimate_constants(variance_model, FAST_POLICY)
        for name in ("i_f", "i_g"):
            assert getattr(first, name) == getattr(second, name)
        for name in ("zeta", "varkappa", "beta0", "beta_inf", "c0", "c_inf"):
            assert float(getattr(first, name)) == float(getattr(second, name))

    def test_seed_changes_mc_fields(self, variance_model):
        other = EstimationPolicy(replications=4_000, seed=12)
        first = estimate_constants(variance_model, FAST_POLICY)
        second = estimate_constants(variance_model, other)
        assert float(first.zeta) != float(second.zeta)
        assert first.i_f == second.i_f  # closed form, seed free

    def test_constants_validation(self):
        with pytest.raises(ValueError, match="zeta"):
            RenewalConstants(0.5, 0.5, Estimate(1.5), Estimate(0.7), Estimate(-0.5), Estimate(0.5), Estimate(1.0), Estimate(2.0))
        with pytest.raises(ValueError, match="beta0"):
            RenewalConstants(0.5, 0.5, Estimate(0.5), Estimate(0.7), Estimate(0.5), Estimate(0.5), Estimate(1.0), Estimate(2.0))
        with pytest.raises(ValueError, match="c_inf"):
            RenewalConstants(0.5, 0.5, Estimate(0.5), Estimate(0.7), Estimate(-0.5), Estimate(0.5), Estimate(2.0), Estimate(1.0))

    def test_estimate_and_policy_validation(self):
        assert float(Estimate(0.25)) == 0.25
        with pytest.raises(ValueError, match="finite"):
            Estimate(float("inf"))
        with pytest.raises(ValueError, match="standard error"):
            Estimate(1.0, -0.1)
        with pytest.raises(ValueError, match="two replications"):
            EstimationPolicy(replications=1)
        with pytest.raises(ValueError, match="seed"):
            EstimationPolicy(seed=-1)


@pytest.fixture(scope="module")
def constants():
    return estimate_constants(GaussianChangeModel(0.0, 1.0, 1.0, 1.0), FAST_POLICY)


def arl_numbers(constants):
    """The three numbers ``arl_approx`` reads: ``(i_f, i_g, zeta)``."""
    return constants.i_f, constants.i_g, constants.zeta.value


class TestApproximations:
    def test_cusum_arl_formula(self, constants):
        h = 5.0
        zeta = float(constants.zeta)
        expected = (
            math.exp(h) / (constants.i_g * zeta**2)
            - h / constants.i_f
            - 1.0 / (constants.i_g * zeta)
        )
        assert arl_approx("cusum", h, *arl_numbers(constants)) == pytest.approx(
            expected, rel=1e-12
        )

    def test_sr_arl_is_threshold_over_zeta(self, constants):
        for a in (10.0, 500.0, 1e4):
            assert arl_approx("sr", a, *arl_numbers(constants)) == pytest.approx(
                a / float(constants.zeta), rel=1e-12
            )

    def test_delay_formulas(self, constants):
        h, a = 4.0, 300.0
        cusum = delay_approx("cusum", h, constants)
        assert set(cusum) == {"sadd", "add_inf"}
        assert cusum["sadd"] == pytest.approx(
            (h + float(constants.varkappa) + float(constants.beta0)) / constants.i_g
        )
        assert cusum["add_inf"] == pytest.approx(
            (h + float(constants.varkappa) - float(constants.beta_inf))
            / constants.i_g
        )
        sr = delay_approx("sr", a, constants)
        assert set(sr) == {"sadd", "stadd"}
        # the stationary delay improves on the worst case by exactly
        # (C_inf - C_0)/I_g
        gap = (float(constants.c_inf) - float(constants.c0)) / constants.i_g
        assert sr["sadd"] - sr["stadd"] == pytest.approx(gap, abs=1e-12)
        assert sr["sadd"] == pytest.approx(
            (math.log(a) + float(constants.varkappa) - float(constants.c0))
            / constants.i_g
        )

    def test_validation(self, constants):
        with pytest.raises(ValueError, match="kind"):
            arl_approx("ewma", 5.0, *arl_numbers(constants))
        with pytest.raises(ValueError, match="threshold"):
            arl_approx("cusum", -1.0, *arl_numbers(constants))
        with pytest.raises(ValueError, match="kind"):
            delay_approx("other", 5.0, constants)
