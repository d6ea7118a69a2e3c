"""Renewal constants: closed forms, Monte Carlo routes, and approximations."""

import math

import numpy as np
import pytest
from scipy import integrate, special, stats

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
from quickdetect._rand import substream
from quickdetect.renewal import (
    _STREAM_PRE_WALK,
    _overshoots_exact,
    _overshoots_mc,
    _pre_walk_draws,
    limiting_overshoots,
    llr_moments,
    path_functionals,
)

FAST_POLICY = EstimationPolicy(replications=4_000, horizon=2_000, seed=11)


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
        zeta, varkappa = limiting_overshoots(unit_shift_model)
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
        zeta, _ = limiting_overshoots(unit_shift_model)
        assert float(zeta) == pytest.approx(zeta_direct, abs=1e-6)

    def test_direct_overshoot_simulation(self, unit_shift_model):
        # the renewal-theoretic meaning: chi = Z_tau - a at the first
        # crossing of a high level a; zeta ~ E[exp(-chi)], kappa ~ E[chi]
        zeta, varkappa = limiting_overshoots(unit_shift_model)
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

    def test_mc_route_agrees_with_exact_route(self, unit_shift_model):
        # the Monte Carlo estimator is valid for any model; on an
        # equal-variance model it must reproduce the closed-form answer
        exact_z, exact_k = _overshoots_exact(unit_shift_model, FAST_POLICY)
        mc_z, mc_k = _overshoots_mc(unit_shift_model, FAST_POLICY)
        assert abs(float(mc_z) - float(exact_z)) < 3.5 * mc_z.std_error
        assert abs(float(mc_k) - float(exact_k)) < 3.5 * mc_k.std_error
        assert mc_z.replications == FAST_POLICY.replications

    def test_unequal_variance_route_is_mc(self, variance_model):
        zeta, varkappa = limiting_overshoots(variance_model, FAST_POLICY)
        assert 0.0 < float(zeta) <= 1.0
        assert float(varkappa) > 0.0
        assert zeta.std_error > 0.0
        assert varkappa.replications == FAST_POLICY.replications


class TestPathFunctionals:
    def test_invariants_and_direct_beta0_c0(self, unit_shift_model):
        funcs = path_functionals(unit_shift_model, FAST_POLICY)
        assert float(funcs.beta0) <= 0.0
        assert float(funcs.beta_inf) >= 0.0
        assert float(funcs.c0) >= 0.0
        assert float(funcs.c_inf) >= float(funcs.c0)
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
            (funcs.beta0, minima),
            (funcs.c0, np.log1p(u_sums)),
            (funcs.beta_inf, tails),
            (funcs.c_inf, np.log1p(u_sums + sr)),
        ):
            se = math.hypot(est.std_error, np.std(draws, ddof=1) / math.sqrt(reps))
            assert abs(float(est) - np.mean(draws)) < 3.5 * se

    @pytest.mark.parametrize(
        "model",
        [
            GaussianChangeModel(0.0, 1.0, 1.0, 1.0),
            GaussianChangeModel(0.1, 0.8, 0.6, 1.3),
            GaussianChangeModel(0.0, 1.0, 2.0, 1.0),
        ],
    )
    def test_pre_walk_draws_match_definitions(self, model):
        # each replication recomputed from its own pre-change stream, drawn
        # in one piece: W_n = Z_n - min_{0<=k<=n} Z_k averaged over
        # n > horizon // 2, and R_horizon = sum_{k<n} exp(Z_n - Z_k) in log
        # space.  The horizon ends 3 steps into a block, so R_horizon still
        # holds visible mass from the blocks before it.
        policy = EstimationPolicy(replications=30, horizon=1_027, seed=5)
        tails, sr_draws = _pre_walk_draws(model, policy)
        tail_from = policy.horizon // 2
        for r in range(policy.replications):
            rng = substream(policy.seed, _STREAM_PRE_WALK, r)
            x = rng.normal(model.mu_pre, model.sigma_pre, policy.horizon)
            z = np.concatenate(([0.0], np.cumsum(llr(model, x))))  # Z_0..Z_horizon
            w = z - np.minimum.accumulate(z)
            assert tails[r] == pytest.approx(np.mean(w[tail_from + 1 :]), rel=1e-9)
            log_sr = z[-1] + special.logsumexp(-z[:-1])
            assert sr_draws[r] == pytest.approx(math.exp(log_sr), rel=1e-9)

    def test_horizon_stability(self, unit_shift_model):
        short = path_functionals(
            unit_shift_model, EstimationPolicy(replications=4_000, horizon=1_000, seed=11)
        )
        long = path_functionals(
            unit_shift_model, EstimationPolicy(replications=4_000, horizon=2_000, seed=11)
        )
        for name in ("beta0", "beta_inf", "c0", "c_inf"):
            a, b = getattr(short, name), getattr(long, name)
            combined = math.hypot(a.std_error, b.std_error)
            assert abs(float(a) - float(b)) < 2.0 * combined + 0.02, name

    def test_faint_change_rejected(self):
        faint = GaussianChangeModel(0.0, 1.0, 0.02, 1.0)
        policy = EstimationPolicy(replications=64, horizon=64, truncation=64, seed=0)
        with pytest.raises(RuntimeError, match="never escaped"):
            path_functionals(faint, policy)


class TestEstimateConstants:
    def test_deterministic(self, variance_model):
        first = estimate_constants(variance_model, FAST_POLICY)
        second = estimate_constants(variance_model, FAST_POLICY)
        for name in ("i_f", "i_g"):
            assert getattr(first, name) == getattr(second, name)
        for name in ("zeta", "varkappa", "beta0", "beta_inf", "c0", "c_inf"):
            assert float(getattr(first, name)) == float(getattr(second, name))

    def test_seed_changes_mc_fields(self, variance_model):
        other = EstimationPolicy(replications=4_000, horizon=2_000, seed=12)
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
        with pytest.raises(ValueError, match="horizon"):
            EstimationPolicy(horizon=1)
        with pytest.raises(ValueError, match="seed"):
            EstimationPolicy(seed=-1)


@pytest.fixture(scope="module")
def constants():
    return estimate_constants(GaussianChangeModel(0.0, 1.0, 1.0, 1.0), FAST_POLICY)


class TestApproximations:
    def test_cusum_arl_formula(self, constants):
        h = 5.0
        zeta = float(constants.zeta)
        expected = (
            math.exp(h) / (constants.i_g * zeta**2)
            - h / constants.i_f
            - 1.0 / (constants.i_g * zeta)
        )
        assert arl_approx("cusum", h, constants) == pytest.approx(expected, rel=1e-12)

    def test_sr_arl_is_threshold_over_zeta(self, constants):
        for a in (10.0, 500.0, 1e4):
            assert arl_approx("sr", a, constants) == pytest.approx(
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
            arl_approx("ewma", 5.0, constants)
        with pytest.raises(ValueError, match="threshold"):
            arl_approx("cusum", -1.0, constants)
        with pytest.raises(ValueError, match="kind"):
            delay_approx("other", 5.0, constants)
