import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from basinlab import kl, kl_bernoulli, rng_stream, sample_restricted
from basinlab.errors import InvalidInputError


def two_point_kl(q1, p1):
    """Hand-evaluated two-term KL sum for Bernoulli distributions."""
    return q1 * np.log(q1 / p1) + (1 - q1) * np.log((1 - q1) / (1 - p1))


class TestKl:
    def test_identity_is_zero(self):
        p = np.array([0.2, 0.3, 0.5])
        assert kl(p, p) == 0.0

    def test_bernoulli_half_vs_054(self):
        # two-term sum by hand: 0.5 ln(0.5/0.54) + 0.5 ln(0.5/0.46)
        q = np.array([0.5, 0.5])
        p = np.array([0.46, 0.54])
        assert kl(q, p) == pytest.approx(3.2103e-3, rel=1e-4)
        assert kl(q, p) == pytest.approx(two_point_kl(0.5, 0.54), rel=1e-12)

    def test_asymmetry_witness(self):
        q = np.array([0.8, 0.2])
        p = np.array([0.4, 0.6])
        assert kl(q, p) != kl(p, q)
        assert kl(q, p) >= 0 and kl(p, q) >= 0

    def test_mismatched_spaces_rejected(self):
        with pytest.raises(InvalidInputError):
            kl(np.array([0.5, 0.5]), np.array([0.2, 0.3, 0.5]))

    @given(
        q1=st.floats(0.05, 0.95),
        p1=st.floats(0.05, 0.95),
    )
    @settings(max_examples=200, deadline=None)
    def test_nonnegative_and_zero_iff_equal(self, q1, p1):
        q = np.array([1 - q1, q1])
        p = np.array([1 - p1, p1])
        d = kl(q, p)
        assert d >= 0.0
        if abs(q1 - p1) > 1e-9:
            assert d > 0.0

    def test_vectorized_bernoulli_matches_scalar(self):
        qs = np.array([0.3, 0.5, 0.7])
        d = kl_bernoulli(qs, 0.45)
        for i, q1 in enumerate(qs):
            assert d[i] == pytest.approx(two_point_kl(q1, 0.45), rel=1e-12)


def kl_bernoulli_where(theta_q, theta_p):
    """kl_bernoulli with both np.where selections, for any theta_q."""
    tq, tp = np.asarray(theta_q, dtype=float), np.asarray(theta_p, dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        a = np.where(tq > 0, tq * np.log(tq / tp), 0.0)
        b = np.where(tq < 1, (1 - tq) * np.log((1 - tq) / (1 - tp)), 0.0)
    return a + b


class TestKlBernoulliScalarPath:
    P = np.concatenate([np.linspace(0.0, 1.0, 1001), [1e-300, 1 - 1e-16, np.nan]])

    @given(theta_q=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    @settings(max_examples=200, deadline=None)
    def test_equals_where_path(self, theta_q):
        assert np.array_equal(kl_bernoulli(theta_q, self.P), kl_bernoulli_where(theta_q, self.P),
                              equal_nan=True)
        got = kl_bernoulli(theta_q, 0.3)
        assert type(got) is np.float64 and got == kl_bernoulli_where(theta_q, 0.3)

    @pytest.mark.parametrize("theta_q", [0.0, 1.0, 0, 1])
    def test_boundary_theta_unchanged(self, theta_q):
        assert np.array_equal(kl_bernoulli(theta_q, self.P), kl_bernoulli_where(theta_q, self.P),
                              equal_nan=True)


class TestKlBernoulliInPlace:
    @staticmethod
    def interior(seed, shape):
        # uniform draws plus the extremes of (0, 1), shuffled into the given shape
        r, size = rng_stream(seed, 0), int(np.prod(shape))
        u = np.concatenate([[1e-300, 1 - 1e-16, 0.5], r.uniform(1e-12, 1.0, size=max(0, size - 3))])
        return r.permutation(u[:size]).reshape(shape)

    @given(seed=st.integers(0, 2**32), shape=st.sampled_from([(1,), (2,), (257,), (4, 33)]),
           theta=st.floats(0.0, 1.0) | st.just(np.nan))
    @settings(max_examples=200, deadline=None)
    def test_both_orientations_equal_where_path(self, seed, shape, theta):
        arr = self.interior(seed, shape)
        kept = arr.copy()
        for q, p in ((arr, theta), (min(max(theta, 1e-9), 1 - 1e-9), arr)):
            got = kl_bernoulli(q, p)
            assert got.shape == shape
            assert np.array_equal(got, kl_bernoulli_where(q, p), equal_nan=True)
        assert np.array_equal(arr, kept)  # the in-place kernel writes only its own arrays

    @pytest.mark.parametrize("edge", [0.0, 1.0, np.nan])
    def test_array_q_with_an_edge_value_takes_where_path(self, edge):
        q = self.interior(3, (100,))
        q[17] = edge
        got = kl_bernoulli(q, 0.4)
        assert np.array_equal(got, kl_bernoulli_where(q, 0.4), equal_nan=True)
        assert np.isfinite(got[17])  # np.where picks 0.0 where the in-place terms give NaN

    def test_empty_array_q(self):
        assert kl_bernoulli(np.empty(0), 0.4).shape == (0,)

    def test_overflowing_ratio_gives_inf_without_warning(self):
        # q / p past the largest double: KL is infinite, as at p = 0
        tiny = np.array([5e-324, 0.3])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = [kl_bernoulli(0.5, tiny), kl_bernoulli(np.array([0.5, 0.4]), 5e-324),
                   kl_bernoulli(np.array([0.5, 0.4]), tiny)]
        assert [g[0] for g in got] == [np.inf] * 3


class TestRestrictedSampling:
    def test_lower_bound_respected(self):
        rng = rng_stream(0, 0)
        p = sample_restricted(rng, 10_000, 3, 0.2)
        assert p.min() >= 0.2 - 1e-12
        assert np.allclose(p.sum(axis=1), 1.0)

    def test_infeasible_bound_rejected(self):
        with pytest.raises(InvalidInputError):
            sample_restricted(rng_stream(0, 0), 1, 3, 0.4)
