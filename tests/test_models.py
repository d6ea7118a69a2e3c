"""Change models, exact LLR and score designs."""

import math

import numpy as np
import pytest
from scipy import integrate, stats

from quickdetect import (
    GaussianChangeModel,
    ScoreParams,
    design_coefficients,
    linear_quadratic_score,
    llr,
)
from quickdetect.series import MomentEstimate


class TestGaussianChangeModel:
    def test_validation(self):
        with pytest.raises(ValueError, match="positive"):
            GaussianChangeModel(0.0, 0.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="differ"):
            GaussianChangeModel(0.0, 1.0, 0.0, 1.0)
        with pytest.raises(ValueError, match="finite"):
            GaussianChangeModel(np.nan, 1.0, 1.0, 1.0)

    def test_from_moments(self):
        pre = MomentEstimate(mean=-0.0029, sd=0.2266, count=10, interval=(0, 10))
        post = MomentEstimate(mean=0.0199, sd=0.2306, count=10, interval=(10, 20))
        model = GaussianChangeModel.from_moments(pre, post)
        assert model.mu_pre == -0.0029
        assert model.sigma_post == 0.2306

    def test_standardized_parameters(self):
        model = GaussianChangeModel(2.0, 4.0, 6.0, 8.0)
        std = model.standardized
        assert std.mu_pre == 0.0 and std.sigma_pre == 1.0
        assert std.mu_post == pytest.approx(1.0)  # (6-2)/4
        assert std.sigma_post == pytest.approx(2.0)  # 8/4


class TestLlr:
    def test_against_logpdf_difference(self, rng, variance_model):
        # oracle: the LLR is, by definition, a difference of log densities
        x = rng.normal(0.0, 2.0, size=300)
        expected = stats.norm.logpdf(
            x, variance_model.mu_post, variance_model.sigma_post
        ) - stats.norm.logpdf(x, variance_model.mu_pre, variance_model.sigma_pre)
        np.testing.assert_allclose(llr(variance_model, x), expected, atol=1e-12)

    def test_scalar_in_scalar_out(self, unit_shift_model):
        out = llr(unit_shift_model, 0.5)
        assert isinstance(out, float)
        assert out == pytest.approx(0.0)  # x - 1/2 at x = 1/2

    def test_affine_invariance(self, rng):
        # standardizing the data and the model together leaves the LLR alone
        model = GaussianChangeModel(3.0, 2.0, 4.0, 5.0)
        x = rng.normal(3.0, 2.0, size=100)
        z = (x - model.mu_pre) / model.sigma_pre
        np.testing.assert_allclose(
            llr(model, x), llr(model.standardized, z), atol=1e-12
        )

    def test_rejects_non_finite(self, unit_shift_model):
        with pytest.raises(ValueError, match="finite"):
            llr(unit_shift_model, np.array([0.0, np.inf]))


class TestScoreDesign:
    def test_score_equals_llr(self, rng):
        # the headline identity: with designed coefficients the score IS the
        # LLR of N(0,1) -> N(delta, 1/q^2), at every point
        for q, delta in [(0.5, 1.0), (1.3, -0.4), (0.98, 0.1), (2.0, 0.0)]:
            params = design_coefficients(q, delta)
            model = GaussianChangeModel(0.0, 1.0, delta, 1.0 / q)
            x = rng.normal(0.0, 3.0, size=2000)
            grid = np.linspace(-6.0, 6.0, 241)
            # the design's own model is that change, and the score its LLR
            for target, points in ((model, x), (params.model, grid)):
                np.testing.assert_allclose(
                    linear_quadratic_score(params, points), llr(target, points), atol=1e-10
                )

    def test_fitted_coefficients_frozen(self):
        # moments mu_pre=-0.0029 sd_pre=0.2266, mu_post=0.0199 sd_post=0.2306
        # give q = 0.2266/0.2306 and delta = 0.0228/0.2266; the coefficients
        # below were computed independently from the three closed forms
        q = 0.2266 / 0.2306
        delta = (0.0199 - (-0.0029)) / 0.2266
        params = design_coefficients(q, delta)
        q2 = q * q
        assert params.c1 == pytest.approx(delta * q2, abs=0.0)
        assert params.c1 == pytest.approx(0.0971575, abs=5e-7)
        assert params.c2 == pytest.approx(0.0171956, abs=5e-7)
        assert params.c3 == pytest.approx(0.0223861, abs=5e-7)

    def test_score_drift_signs(self):
        # negative mean drift before the change, positive after; computed by
        # numeric quadrature, not by the library
        params = design_coefficients(q=0.9, delta=0.4)

        def mean_under(mu, sigma):
            val, _ = integrate.quad(
                lambda x: linear_quadratic_score(params, x)
                * stats.norm.pdf(x, mu, sigma),
                -30,
                30,
            )
            return val

        assert mean_under(0.0, 1.0) < 0.0
        assert mean_under(params.delta, 1.0 / params.q) > 0.0

    def test_pre_change_ratio_has_unit_mean(self, rng):
        # exp(score) is an exact likelihood ratio, so E_pre[exp(S)] = 1
        params = design_coefficients(q=0.9, delta=0.3)
        z = rng.standard_normal(200_000)
        ratios = np.exp(linear_quadratic_score(params, z))
        se = np.std(ratios, ddof=1) / np.sqrt(z.size)
        assert abs(np.mean(ratios) - 1.0) < 4.0 * se

    @pytest.mark.parametrize("delta", [0.0, -0.0])
    def test_no_change_design_refused(self, delta):
        # q = 1, delta = 0 targets no change: its score is identically zero
        with pytest.raises(ValueError, match="q=1, delta=0 is the no-change design"):
            design_coefficients(1.0, delta)
        # a design next to it is a change, and its score is not zero
        for q, nearby in [(0.9, delta), (1.0, 1e-300), (math.nextafter(1.0, 2.0), delta)]:
            params = design_coefficients(q, nearby)
            assert (params.c1, params.c2, params.c3) != (0.0, 0.0, 0.0)

    def test_scoreparams_validation(self):
        with pytest.raises(ValueError, match="q must be a positive finite real"):
            ScoreParams(np.inf, 0.0)
        with pytest.raises(ValueError, match="q must be a positive finite real"):
            design_coefficients(-1.0, 0.0)
        with pytest.raises(ValueError, match="delta must be finite"):
            ScoreParams(0.9, np.nan)
        # the coefficients follow from (q, delta) and are not given
        with pytest.raises(TypeError):
            ScoreParams(0.9, 0.1, c1=0.0)
