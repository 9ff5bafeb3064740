import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from basinlab import Bounds, SingularBernoulli, fit_scaling, rng_stream, volume_curve
from basinlab.errors import InvalidInputError


@pytest.fixture(scope="module")
def model():
    return SingularBernoulli()


class TestModel:
    def test_axis_points_give_uniform(self, model):
        assert model.prob_one(np.array([0.0, 0.3])) == pytest.approx(0.5)
        assert model.kl_landscape().value(np.array([0.0, 0.3])) == pytest.approx(0.0)

    def test_offdiagonal_point(self, model):
        w = np.array([0.2, 0.2])
        assert model.prob_one(w) == pytest.approx(0.54)
        # direct two-term sum: 0.5 ln(0.5/0.54) + 0.5 ln(0.5/0.46) = 3.2103e-3
        assert model.kl_landscape().value(w) == pytest.approx(3.2103e-3, rel=1e-4)

    def test_image_interval(self, model):
        lo, hi = model.image_interval()
        assert (lo, hi) == (0.25, 0.75)

    def test_simplex_lower_bound_over_samples(self, model):
        w = model.bounds.sample(rng_stream(1, 0), 10_000)
        p1 = model.prob_one(w)
        assert p1.min() >= model.m_simplex
        assert (1 - p1).min() >= model.m_simplex

    def test_kl_zero_iff_uniform(self, model):
        w = model.bounds.sample(rng_stream(2, 0), 10_000)
        d = model.kl_landscape().value(w)
        prod = w[:, 0] * w[:, 1]
        assert np.all(d[np.abs(prod) > 1e-6] > 0)
        on_axis = np.array([[0.0, 0.4], [-0.5, 0.0], [0.0, 0.0]])
        assert np.all(model.kl_landscape().value(on_axis) <= 1e-12)

    def test_bounds_violating_simplex_rejected(self):
        with pytest.raises(InvalidInputError):
            SingularBernoulli(Bounds.symmetric(2, 0.6), m_simplex=0.2)

    def test_rectangle_checked_against_its_image(self):
        # the image of [-0.5, 0.5] x [-0.3, 0.3] is [0.35, 0.65]: its lower end
        # is 1/2 - h1 h2, not 1/2 - max(h)^2 = 0.25
        box = Bounds([-0.5, -0.3], [0.5, 0.3])
        model = SingularBernoulli(box, m_simplex=0.3)
        assert model.image_interval() == pytest.approx((0.35, 0.65))
        with pytest.raises(InvalidInputError, match="h1 h2 = 0.15 .* bound 0.36$"):
            SingularBernoulli(box, m_simplex=0.36)

    def test_box_not_symmetric_about_zero_rejected(self):
        with pytest.raises(InvalidInputError, match="symmetric about 0"):
            SingularBernoulli(Bounds([-0.5, -0.4], [0.5, 0.5]))


# the default square box and a rectangle, both symmetric about 0
BOXES = {"square": Bounds.symmetric(2, 0.5), "rectangle": Bounds([-0.5, -0.3], [0.5, 0.3])}


@functools.cache
def sorted_image_draws(box: str) -> np.ndarray:
    """p_w of 1M uniform draws from the box, sorted."""
    model = SingularBernoulli(BOXES[box])
    return np.sort(model.prob_one(model.bounds.sample(rng_stream(21, 0), 1_000_000)))


class TestIntervalVolume:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(box=st.sampled_from(sorted(BOXES)), a=st.floats(0, 1), b=st.floats(0, 1))
    def test_matches_monte_carlo_within_4se(self, box, a, b):
        model = SingularBernoulli(BOXES[box])
        image = model.image_interval()
        lo, hi = sorted(image[0] + (image[1] - image[0]) * np.array([a, b]))
        p = sorted_image_draws(box)
        rate = (np.searchsorted(p, hi, side="right") - np.searchsorted(p, lo)) / len(p)
        total = model.bounds.volume()
        exact = float(model.interval_volume(lo, hi))
        # the SE of the estimate under the exact rate, nonzero for a small interval
        se = total * np.sqrt(exact / total * (1 - exact / total) / len(p))
        assert abs(total * rate - exact) <= 4 * se

    @pytest.mark.parametrize("box", sorted(BOXES))
    def test_whole_image_is_exact_and_empty_interval_is_zero(self, box):
        model = SingularBernoulli(BOXES[box])
        lo, hi = model.image_interval()
        assert model.interval_volume(lo, hi) == model.bounds.volume()
        assert model.interval_volume([hi, 0.5, 0.4], [lo, 0.5, 0.3]).tolist() == [0.0] * 3

    def test_box_not_symmetric_about_zero_rejected(self):
        for bounds in (Bounds([-0.5, -0.4], [0.5, 0.5]), Bounds([-0.3, -0.5], [0.5, 0.5])):
            with pytest.raises(InvalidInputError, match="symmetric"):
                SingularBernoulli(bounds).interval_volume(0.3, 0.4)


class TestKlLandscape:
    def test_ground_truth_declared(self, model):
        L = model.kl_landscape()
        assert (L.true_lambda, L.true_multiplicity) == (0.5, 2)

    def test_gradient_matches_finite_differences(self, model):
        L = model.kl_landscape()
        rng = rng_stream(3, 0)
        h = 1e-6
        for w in L.bounds.sample(rng, 100):
            g = L.grad(w)
            fd = np.zeros(2)
            for i in range(2):
                wp, wm = w.copy(), w.copy()
                wp[i] += h
                wm[i] -= h
                fd[i] = (L.value(wp) - L.value(wm)) / (2 * h)
            assert np.linalg.norm(g - fd) <= 1e-4 * max(1e-4, np.linalg.norm(g)) + 1e-9

    def test_volume_fit_recovers_half_with_multiplicity_two(self, model):
        # oracle for the declared (1/2, 2) ground truth
        eps = 2.0 ** (-np.arange(2, 11, dtype=float))
        curve = volume_curve(model.kl_landscape(), eps, 1_000_000, seed=4)
        fit = fit_scaling(curve, multiplicity_mode="select_by_fit")
        assert fit.multiplicity == 2
        assert abs(fit.lam - 0.5) <= 0.05
