import numpy as np
import pytest

from basinlab import linear_fit, rng_stream
from basinlab.errors import InvalidInputError, RankDeficiencyError


class TestLinearFit:
    def test_exact_line(self):
        res = linear_fit(np.array([0.0, 1.0, 2.0]), np.array([1.0, 3.0, 5.0]))
        assert res.slope == pytest.approx(2.0, abs=1e-12)
        assert res.intercept == pytest.approx(1.0, abs=1e-12)
        assert res.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_constant_response_reports_zero_r2(self):
        res = linear_fit(np.array([0.0, 1.0, 2.0]), np.array([4.0, 4.0, 4.0]))
        assert res.slope == pytest.approx(0.0, abs=1e-12)
        assert res.r_squared == 0.0

    def test_noisy_slope_matches_normal_equations_oracle(self):
        rng = rng_stream(11, 0)
        x = rng.uniform(0, 1, 100)
        y = 2.0 * x + 1.0 + 0.1 * rng.standard_normal(100)
        res = linear_fit(x, y)
        assert abs(res.slope - 2.0) < 0.05
        design = np.column_stack([np.ones(100), x])
        oracle = np.linalg.solve(design.T @ design, design.T @ y)
        assert np.allclose(res.coefficients, oracle, atol=1e-10)

    def test_collinear_r2_exact(self):
        x = np.linspace(-3, 5, 9)
        res = linear_fit(x, -0.7 * x + 0.2)
        assert abs(res.r_squared - 1.0) < 1e-12

    def test_weighted_matches_weighted_normal_equations(self):
        rng = rng_stream(12, 0)
        x = rng.uniform(0, 1, 40)
        y = 3.0 * x - 1.0 + 0.2 * rng.standard_normal(40)
        w = rng.uniform(0.5, 2.0, 40)
        res = linear_fit(x, y, weights=w)
        design = np.column_stack([np.ones(40), x])
        oracle = np.linalg.solve(design.T @ (design * w[:, None]), design.T @ (w * y))
        assert np.allclose(res.coefficients, oracle, atol=1e-9)

    def test_multivariate_regressors(self):
        rng = rng_stream(13, 0)
        x = rng.standard_normal((60, 2))
        y = 0.5 + 1.5 * x[:, 0] - 2.0 * x[:, 1]
        res = linear_fit(x, y)
        assert np.allclose(res.coefficients, [0.5, 1.5, -2.0], atol=1e-10)

    def test_degenerate_design_raises(self):
        with pytest.raises(RankDeficiencyError):
            linear_fit(np.array([2.0, 2.0, 2.0]), np.array([1.0, 2.0, 3.0]))

    def test_too_few_observations(self):
        with pytest.raises(InvalidInputError):
            linear_fit(np.array([1.0]), np.array([2.0]))

    def test_residual_count(self):
        res = linear_fit(np.arange(5.0), np.arange(5.0) * 2 + 1)
        assert len(res.residuals) == 5
