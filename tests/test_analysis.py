import numpy as np
import pytest

from basinlab import analyze, bits_per_coordinate, measured_bits_per_coordinate
from basinlab.errors import InsufficientDataError, InvalidInputError


class TestBitsPerCoordinate:
    def test_regular_two_dim(self):
        # lambda=1, d=2, eps=2^-8: (1/2) * 8 = 4 bits
        assert bits_per_coordinate(1.0, 2, 2.0**-8) == pytest.approx(4.0)

    def test_regular_model_is_dimension_free(self):
        # lambda = d/2 collapses to half a bit per halving of epsilon
        for d in (1, 2, 8, 64):
            assert bits_per_coordinate(d / 2, d, 2.0**-6) == pytest.approx(3.0)

    def test_quarter_exponent(self):
        assert bits_per_coordinate(0.25, 2, 2.0**-8) == pytest.approx(1.0)

    def test_multiplicity_correction_positive(self):
        base = bits_per_coordinate(0.5, 2, 2.0**-8, multiplicity=1)
        with_m = bits_per_coordinate(0.5, 2, 2.0**-8, multiplicity=2)
        assert with_m == pytest.approx(base + 0.5 * np.log2(np.log(2.0**8)))

    def test_monotone_in_lambda_and_log_inv_eps(self):
        for m in (1, 2):
            lams = np.linspace(0.1, 2.0, 10)
            vals = [bits_per_coordinate(l, 2, 1e-3, m) for l in lams]
            assert np.all(np.diff(vals) > 0)
            epss = np.geomspace(0.9, 1e-6, 12)
            vals = [bits_per_coordinate(0.7, 2, e, m) for e in epss]
            assert np.all(np.diff(vals) > 0)

    def test_epsilon_domain_enforced(self):
        with pytest.raises(InvalidInputError):
            bits_per_coordinate(1.0, 2, 1.0)
        with pytest.raises(InvalidInputError):
            bits_per_coordinate(-1.0, 2, 0.5)

    def test_measured_bits_from_volume(self):
        # cell budget (Vol W / V)^(1/d) converted to bits
        assert measured_bits_per_coordinate(0.25, 4.0, 2) == pytest.approx(2.0)
        with pytest.raises(InvalidInputError):
            measured_bits_per_coordinate(0.0, 4.0, 2)


class TestAnalyze:
    def test_exact_line_r2_one(self):
        lam = np.array([1.0, 2.0, 3.0, 4.0])
        res = analyze([10, 20, 30, 40], lam, 3.0 * lam + 2.0)
        assert res.r_squared == pytest.approx(1.0)
        assert res.slope == pytest.approx(3.0)

    def test_exclusion_changes_fit_not_rows(self):
        steps = [1, 2, 3, 4, 5]
        lam = np.array([1.0, 2.0, 3.0, 4.0, 100.0])
        crit = np.array([2.0, 4.0, 6.0, 8.0, 0.0])
        full = analyze(steps, lam, crit)
        masked = analyze(steps, lam, crit, excluded_steps=(5,))
        assert masked.r_squared == pytest.approx(1.0)
        assert full.r_squared < 0.9
        assert np.array_equal(lam, [1.0, 2.0, 3.0, 4.0, 100.0])
        assert np.array_equal(crit, [2.0, 4.0, 6.0, 8.0, 0.0])
        assert list(masked.included) == [True, True, True, True, False]

    def test_too_few_included_points(self):
        with pytest.raises(InsufficientDataError):
            analyze([1, 2, 3], [1.0, 2.0, 3.0], [1.0, 2.0, 3.0], excluded_steps=(1,))

    def test_misaligned_inputs(self):
        with pytest.raises(InvalidInputError):
            analyze([1, 2], [1.0], [1.0, 2.0])
