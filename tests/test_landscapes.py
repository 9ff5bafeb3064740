import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st
from itertools import product

from basinlab import (
    Bounds,
    NormalCrossingSpec,
    make_normal_crossing,
    make_quadratic,
    rng_stream,
)
from basinlab.errors import InvalidInputError


def central_difference(landscape, w, h=1e-5):
    g = np.zeros_like(w)
    for i in range(len(w)):
        wp, wm = w.copy(), w.copy()
        wp[i] += h
        wm[i] -= h
        g[i] = (landscape.value(wp) - landscape.value(wm)) / (2 * h)
    return g


ALL_LANDSCAPES = [
    make_quadratic(1),
    make_quadratic(2),
    make_quadratic(4),
    make_normal_crossing(NormalCrossingSpec(dim=2, exponents=(1,), active_dims=(0,))),
    make_normal_crossing(NormalCrossingSpec(dim=2, exponents=(2,), active_dims=(0,))),
    make_normal_crossing(NormalCrossingSpec(dim=2, exponents=(1, 2))),
    make_normal_crossing(NormalCrossingSpec(dim=3, exponents=(1, 1), active_dims=(0, 2))),
]


class TestQuadratic:
    def test_minimum_value(self):
        L = make_quadratic(2)
        assert L.value(np.zeros(2)) == 0.0

    def test_direct_evaluation(self):
        L = make_quadratic(2)
        assert L.value(np.array([1.0, 1.0])) == pytest.approx(2.0)

    def test_ground_truth_d2(self):
        L = make_quadratic(2)
        assert L.true_lambda == 1.0
        assert L.true_multiplicity == 1

    @pytest.mark.parametrize("d", [1, 3, 8])
    def test_ground_truth_scales_with_dim(self, d):
        assert make_quadratic(d).true_lambda == d / 2


class TestNormalCrossing:
    def test_single_free_direction(self):
        L = make_normal_crossing(NormalCrossingSpec(dim=2, exponents=(1,), active_dims=(0,)))
        assert (L.true_lambda, L.true_multiplicity) == (0.5, 1)
        w = np.array([0.3, 0.9])
        assert L.value(w) == pytest.approx(0.09)

    def test_mixed_exponents(self):
        L = make_normal_crossing(NormalCrossingSpec(dim=2, exponents=(1, 2)))
        assert (L.true_lambda, L.true_multiplicity) == (0.25, 1)
        w = np.array([0.5, 0.5])
        assert L.value(w) == pytest.approx(0.5**2 * 0.5**4)

    def test_double_minimum(self):
        L = make_normal_crossing(NormalCrossingSpec(dim=2, exponents=(1, 1)))
        assert (L.true_lambda, L.true_multiplicity) == (0.5, 2)

    def test_empty_active_set_rejected(self):
        with pytest.raises(InvalidInputError):
            NormalCrossingSpec(dim=2, exponents=())

    def test_zero_exponent_rejected(self):
        with pytest.raises(InvalidInputError):
            NormalCrossingSpec(dim=2, exponents=(0, 1))

    @pytest.mark.parametrize("field,kwargs", [
        ("exponents", {"exponents": (1.5,), "active_dims": (0,)}),
        ("exponents", {"exponents": (True,), "active_dims": (0,)}),
        ("exponents", {"exponents": (np.float64(2.0),)}),
        ("active_dims", {"exponents": (1,), "active_dims": (0.5,)}),
        ("active_dims", {"exponents": (1,), "active_dims": (True,)}),
    ])
    def test_non_integer_rejected_under_its_field(self, field, kwargs):
        with pytest.raises(InvalidInputError, match=f"^{field} "):
            NormalCrossingSpec(dim=2, **kwargs)

    def test_ground_truth_formula_exhaustive(self):
        # declared (lambda, m) against the direct min / argmin-count definition
        for d in range(1, 5):
            for ks in product(range(1, 5), repeat=d):
                spec = NormalCrossingSpec(dim=d, exponents=ks)
                lam, mult = spec.ground_truth()
                expect_lam = min(Fraction(1, 2 * k) for k in ks)
                expect_m = sum(1 for k in ks if Fraction(1, 2 * k) == expect_lam)
                assert lam == expect_lam
                assert mult == expect_m


class TestLandscapeContracts:
    @pytest.mark.parametrize("L", ALL_LANDSCAPES, ids=lambda L: L.name)
    def test_nonnegative_and_zero_at_minimum(self, L):
        assert L.value(L.minimum) == 0.0
        w = L.bounds.sample(rng_stream(1, 0), 10_000)
        assert np.all(L.value(w) >= 0.0)

    @pytest.mark.parametrize("L", ALL_LANDSCAPES, ids=lambda L: L.name)
    def test_gradient_matches_central_differences(self, L):
        rng = rng_stream(2, 0)
        for w in L.bounds.sample(rng, 100):
            g = L.grad(w)
            fd = central_difference(L, w)
            scale = max(1e-4, np.linalg.norm(g))
            assert np.linalg.norm(g - fd) <= 1e-4 * scale + 1e-7

    def test_vectorized_value_matches_scalar(self):
        L = make_normal_crossing(NormalCrossingSpec(dim=2, exponents=(1, 2)))
        w = L.bounds.sample(rng_stream(3, 0), 50)
        batch = L.value(w)
        for i in range(50):
            assert batch[i] == pytest.approx(float(L.value(w[i])))


def kernel_inputs(d, seed):
    """Draws of shape (d,), (n, d) and (c, n, d), some beyond |w| = 1."""
    rng = rng_stream(seed, 0)
    return [rng.uniform(-2.0, 2.0, size=shape) for shape in ((d,), (5_000, d), (3, 700, d))]


def pow_form(spec, w):
    """The normal-crossing value through libm pow, the reference for the kernel."""
    active, ks = np.array(spec.active_dims), np.array(spec.exponents)
    return np.prod(w[..., active] ** (2 * ks), axis=-1)


class TestValueKernels:
    @pytest.mark.parametrize("d", range(1, 8))
    def test_quadratic_bit_identical_to_numpy_sum(self, d):
        L = make_quadratic(d)
        for w in kernel_inputs(d, d):
            assert np.array_equal(L.value(w), np.sum(w * w, axis=-1))

    @pytest.mark.parametrize("exponents,dim", [((1,), 2), ((1, 1), 3), ((1, 1, 1), 3)])
    def test_normal_crossing_k1_bit_identical_to_pow(self, exponents, dim):
        # On an (n, d) stack, the shape volume_curve passes, numpy's power loop
        # squares an exponent of 2; on other shapes it may call libm pow, which
        # can round w * w one ulp off, so there the value is the exact square.
        spec = NormalCrossingSpec(dim=dim, exponents=exponents)
        L = make_normal_crossing(spec)
        active = list(spec.active_dims)
        for w in kernel_inputs(dim, len(exponents)):
            assert np.array_equal(L.value(w), np.prod(w[..., active] * w[..., active], axis=-1))
            if w.ndim == 2:
                assert np.array_equal(L.value(w), pow_form(spec, w))

    @pytest.mark.parametrize("exponents", [(2,), (3,), (1, 2), (2, 2), (1, 1, 3)])
    def test_normal_crossing_within_ulps_of_pow(self, exponents):
        # products of squares round differently from pow; 6 ulps measured at most
        spec = NormalCrossingSpec(dim=len(exponents) + 1, exponents=exponents)
        L = make_normal_crossing(spec)
        for w in kernel_inputs(spec.dim, sum(exponents)):
            np.testing.assert_array_max_ulp(L.value(w), pow_form(spec, w), maxulp=8)


class TestBounds:
    def test_volume(self):
        assert Bounds.symmetric(2, 1.0).volume() == pytest.approx(4.0)
        assert Bounds.symmetric(2, 0.5).volume() == pytest.approx(1.0)

    def test_clamp(self):
        b = Bounds.symmetric(2, 1.0)
        assert np.allclose(b.clamp(np.array([2.0, -3.0])), [1.0, -1.0])

    def test_contains_batch(self):
        b = Bounds.symmetric(2, 1.0)
        pts = np.array([[0.0, 0.0], [1.5, 0.0]])
        assert list(b.contains(pts)) == [True, False]

    def test_invalid_bounds_rejected(self):
        with pytest.raises(InvalidInputError):
            Bounds([1.0, 0.0], [0.0, 1.0])


@st.composite
def boxes(draw):
    """(lo, hi) of a box in 0 to 6 dimensions, a cube about half the time."""
    d = draw(st.integers(0, 6))
    coord = st.floats(-10.0, 10.0, allow_subnormal=False)
    width = st.floats(1e-3, 10.0)
    if draw(st.booleans()):
        lo, w = draw(coord), draw(width)
        return [lo] * d, [lo + w] * d
    lo = draw(st.lists(coord, min_size=d, max_size=d))
    return lo, [x + draw(width) for x in lo]


class TestBoundsSample:
    @settings(max_examples=200, deadline=None)
    @given(box=boxes(), chunks=st.lists(st.sampled_from([0, 1, 2, 7, 100]), min_size=1,
                                        max_size=4), seed=st.integers(0, 2**32))
    def test_same_draws_and_end_state_as_array_bounds(self, box, chunks, seed):
        lo, hi = box
        b = Bounds(lo, hi)
        ours, ref = rng_stream(seed, 5), rng_stream(seed, 5)
        for n in chunks:
            got = b.sample(ours, n)
            assert got.shape == (n, b.dim)
            assert np.array_equal(got, ref.uniform(np.array(lo), np.array(hi), size=(n, b.dim)))
        assert ours.random() == ref.random()

    @settings(max_examples=200, deadline=None)
    @given(box=boxes(), chunks=st.lists(st.sampled_from([0, 1, 2, 7, 100]), min_size=1,
                                        max_size=4), seed=st.integers(0, 2**32))
    def test_out_form_fills_in_place_with_the_same_draws(self, box, chunks, seed):
        lo, hi = box
        b = Bounds(lo, hi)
        buf = np.full((max(chunks), b.dim), np.nan)
        ours, ref = rng_stream(seed, 5), rng_stream(seed, 5)
        for n in chunks:
            out = buf[:n]
            assert b.sample(ours, n, out=out) is out
            assert np.array_equal(out, ref.uniform(np.array(lo), np.array(hi), size=(n, b.dim)))
        assert ours.random() == ref.random()

    def test_cube_detection_does_not_mix_coordinates(self):
        # equal lo but different hi: each coordinate keeps its own range
        w = Bounds([0.0, 0.0], [1.0, 100.0]).sample(rng_stream(0, 0), 10_000)
        assert w[:, 0].max() <= 1.0 < w[:, 1].max()
