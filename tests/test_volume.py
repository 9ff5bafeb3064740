import json
import os
import platform
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import basinlab
from basinlab import (
    Bounds,
    NormalCrossingSpec,
    VolumeCurve,
    default_ladder,
    fit_scaling,
    make_normal_crossing,
    make_quadratic,
    rng_stream,
    volume_curve,
)
from basinlab import volume
from basinlab.errors import FitWindowError, InvalidInputError


def one_rung(landscape, epsilon, samples, seed):
    """(volume, SE) of the one-epsilon volume curve."""
    curve = volume_curve(landscape, np.array([epsilon]), samples, seed)
    return float(curve.volumes[0]), float(curve.standard_errors[0])


class TestMcVolume:
    def test_disk_area(self):
        L = make_quadratic(2)
        vol, se = one_rung(L, 0.25, 100_000, seed=1)
        assert abs(vol - np.pi * 0.25) <= 3 * se

    def test_slab_volume(self):
        L = make_normal_crossing(NormalCrossingSpec(dim=2, exponents=(1,), active_dims=(0,)))
        vol, se = one_rung(L, 0.01, 200_000, seed=2)
        assert abs(vol - 0.4) <= 3 * se

    def test_full_cover(self):
        L = make_quadratic(2)  # max K on [-1,1]^2 is 2
        vol, se = one_rung(L, 2.5, 10_000, seed=3)
        assert vol == pytest.approx(4.0)
        assert se == 0.0

    def test_invalid_epsilon(self):
        with pytest.raises(InvalidInputError):
            one_rung(make_quadratic(2), -1.0, 100, seed=0)

    def test_unbiasedness_against_reference(self):
        L = make_quadratic(2)
        ref, ref_se = one_rung(L, 0.125, 10_000_000, seed=100)
        count = lambda w: np.count_nonzero(L.value(w) <= 0.125)
        # 50 independent estimates, from streams 0 .. 49 of seed 101
        estimates = np.array([volume.mc_volumes(L.bounds, 20_000, rng_stream(101, k), count)[0]
                              for k in range(50)])
        mean_se = np.sqrt(ref_se**2 + (estimates.std(ddof=1) / np.sqrt(50)) ** 2)
        assert abs(estimates.mean() - ref) <= 2 * mean_se


class TestVolumeCurve:
    def test_monotone_under_common_random_numbers(self):
        L = make_quadratic(2)
        curve = volume_curve(L, default_ladder(), 50_000, seed=4)
        assert np.all(np.diff(curve.volumes) <= 0)  # epsilons descending

    def test_single_estimates_are_ladder_points(self):
        # same stream, same predicate: each rung equals its one-epsilon estimate
        L = make_quadratic(2)
        ladder = default_ladder(2, 8)
        curve = volume_curve(L, ladder, 150_000, seed=12)
        for eps, vol, se in zip(curve.epsilons, curve.volumes, curve.standard_errors):
            assert one_rung(L, float(eps), 150_000, seed=12) == (vol, se)

    def test_zero_samples_rejected(self):
        with pytest.raises(InvalidInputError):
            volume_curve(make_quadratic(2), default_ladder(), 0, seed=0)

    def test_hits_equal_the_rung_by_sample_comparison(self):
        # a third of the values sit exactly on a rung, where <= must count them
        ladder = default_ladder(2, 14)
        L = make_quadratic(2)
        value = L.value
        L.value = lambda w: np.where(w[:, 0] < -1 / 3, ladder[(w[:, 1] > 0) * 5], value(w))
        curve = volume_curve(L, ladder, 30_000, seed=8)
        v = L.value(L.bounds.sample(rng_stream(8, 0), 30_000))
        eps = np.sort(ladder)[::-1]
        hits = np.count_nonzero(v[None, :] <= eps[:, None], axis=1)
        assert np.count_nonzero(np.isin(v, ladder)) > 9_000
        assert np.array_equal(curve.volumes, L.bounds.volume() * (hits / 30_000))

    def test_matches_single_estimates_in_distribution(self):
        L = make_quadratic(2)
        curve = volume_curve(L, np.array([0.25]), 200_000, seed=5)
        assert abs(curve.volumes[0] - np.pi * 0.25) <= 3 * curve.standard_errors[0]


class TestMcVolumes:
    def test_draws_in_chunks_and_sums_counts(self, monkeypatch):
        monkeypatch.setattr(volume, "MC_CHUNK", 1_000)
        sizes = []

        def count(w):
            sizes.append(len(w))
            return np.array([len(w), np.count_nonzero(w[:, 0] <= 0.0)])

        bounds = Bounds.symmetric(2, 1.0)
        vols, ses = volume.mc_volumes(bounds, 10_500, rng_stream(0, 0), count)
        assert sizes == [1_000] * 10 + [500]
        assert vols[0] == bounds.volume() and ses[0] == 0.0
        assert abs(vols[1] - 2.0) <= 4 * ses[1]

    def test_zero_samples_rejected(self):
        with pytest.raises(InvalidInputError):
            volume.mc_volumes(Bounds.symmetric(2, 1.0), 0, rng_stream(0, 0), len)

    def test_chunking_leaves_volume_curve_unchanged(self, monkeypatch):
        # Philox draws made in chunks are the draws of one call, in order
        L = make_quadratic(2)
        whole = volume_curve(L, default_ladder(), 10_500, seed=3)
        monkeypatch.setattr(volume, "MC_CHUNK", 1_000)
        chunked = volume_curve(L, default_ladder(), 10_500, seed=3)
        assert np.array_equal(chunked.volumes, whole.volumes)
        assert np.array_equal(chunked.standard_errors, whole.standard_errors)

    def test_default_chunk_matches_one_large_chunk(self, monkeypatch):
        L = make_normal_crossing(NormalCrossingSpec(dim=2, exponents=(2,), active_dims=(0,)))
        chunked = volume_curve(L, default_ladder(2, 14), 300_000, seed=7)
        monkeypatch.setattr(volume, "MC_CHUNK", 10**6)
        whole = volume_curve(L, default_ladder(2, 14), 300_000, seed=7)
        assert np.array_equal(chunked.volumes, whole.volumes)
        assert np.array_equal(chunked.standard_errors, whole.standard_errors)

    def test_chunks_refill_one_draw_array(self, monkeypatch):
        monkeypatch.setattr(volume, "MC_CHUNK", 1_000)
        chunks = []

        def count(w):
            chunks.append(w)  # kept only to compare memory; a real count must not keep w
            return np.array([len(w)])

        volume.mc_volumes(Bounds.symmetric(2, 1.0), 10_500, rng_stream(0, 0), count)
        assert len(chunks) == 11 and all(np.shares_memory(chunks[0], w) for w in chunks)

    def test_box_volumes_equal_one_uniform_call_at_any_chunk(self, monkeypatch):
        bounds = Bounds([-1.0, 0.0, 2.0], [1.0, 3.0, 2.5])

        def count(w):
            return np.array([np.count_nonzero(w[:, 0] <= 0.0),
                             np.count_nonzero(w.sum(axis=1) <= 4.0)])

        w = rng_stream(4, 0).uniform(bounds.lo, bounds.hi, size=(300_000, 3))
        expected = bounds.volume() * (count(w) / 300_000)
        default = volume.mc_volumes(bounds, 300_000, rng_stream(4, 0), count)
        monkeypatch.setattr(volume, "MC_CHUNK", 1_000)
        small = volume.mc_volumes(bounds, 300_000, rng_stream(4, 0), count)
        assert np.array_equal(default[0], expected)
        for a, b in zip(default, small):
            assert np.array_equal(a, b)

    def test_warm_curve_memory_is_one_chunk(self):
        # 1M draws at once would hold 16 MB of samples alone
        L, ladder = make_quadratic(2), default_ladder(2, 14)
        volume_curve(L, ladder, 1_000_000, seed=0)
        tracemalloc.start()
        try:
            volume_curve(L, ladder, 1_000_000, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


# A second, warm call of each kernel in a fresh process, with its minor page faults.
FAULT_PROBE = '''
import json, resource
from basinlab import (NormalCrossingSpec, default_ladder, make_normal_crossing, make_quadratic,
                      volume_curve)
from basinlab.bernoulli import SingularBernoulli
from basinlab.mdl import build_eps_net, mc_ball_volumes

model, ladder = SingularBernoulli(), default_ladder(2, 14)
net = build_eps_net(model, 0.1 / 2**14)
calls = {
    "quadratic": lambda: volume_curve(make_quadratic(2), ladder, 1_000_000, seed=0),
    "nc-k2": lambda: volume_curve(make_normal_crossing(NormalCrossingSpec(2, (2,), (0,))),
                                  ladder, 1_000_000, seed=0),
    "bernoulli-kl": lambda: volume_curve(model.kl_landscape(), ladder, 1_000_000, seed=0),
    "net-cross-check": lambda: mc_ball_volumes(model, net, 1_000_000, seed=0),
}
faults = {}
for name, call in calls.items():
    call()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    call()
    faults[name] = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
print(json.dumps(faults))
'''


@pytest.mark.skipif(sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
                    reason="the budget is for glibc, which trims a freed heap top")
def test_warm_monte_carlo_calls_reuse_their_pages():
    # a chunk that allocates and frees megabytes faults them in again on the next chunk
    src = str(Path(basinlab.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    run = subprocess.run([sys.executable, "-c", FAULT_PROBE], env=env, capture_output=True,
                         text=True, check=True)
    faults = json.loads(run.stdout)
    assert max(faults.values()) <= 1_500, faults


class TestFitScaling:
    def test_exact_synthetic_curve(self):
        # noiseless inverse problem: c=1, lambda=0.5, m=2
        eps = default_ladder()
        vols = eps**0.5 * (-np.log(eps)) ** 1
        curve = VolumeCurve(
            epsilons=eps, volumes=vols,
            standard_errors=1e-9 * vols, total_volume=4.0,
        )
        fit = fit_scaling(curve, multiplicity_mode="select_by_fit")
        assert fit.lam == pytest.approx(0.5, abs=1e-6)
        assert fit.multiplicity == 2
        assert fit.r_squared > 0.9999
        assert fit.log_c == pytest.approx(0.0, abs=1e-6)

    def test_quadratic_recovery(self):
        L = make_quadratic(2)
        curve = volume_curve(L, default_ladder(), 1_000_000, seed=6)
        fit = fit_scaling(curve)
        assert abs(fit.lam - 1.0) <= 0.05
        assert fit.multiplicity == 1

    def test_quartic_slab_recovery(self):
        L = make_normal_crossing(NormalCrossingSpec(dim=2, exponents=(2,), active_dims=(0,)))
        curve = volume_curve(L, default_ladder(), 1_000_000, seed=7)
        fit = fit_scaling(curve)
        assert abs(fit.lam - 0.25) <= 0.05
        assert fit.multiplicity == 1

    def test_mixed_exponent_recovery_on_engaged_window(self):
        # V(eps) = 4 eps^(1/4) - 2 sqrt(eps): the subleading term is still
        # ~25% of V at eps = 2^-4, so the fit window starts at 2^-6 and the
        # ladder is extended to keep two decades of usable points.
        L = make_normal_crossing(NormalCrossingSpec(dim=2, exponents=(1, 2)))
        curve = volume_curve(L, default_ladder(4, 14), 1_000_000, seed=8)
        fit = fit_scaling(curve, multiplicity_mode=1, max_epsilon=2.0**-6)
        assert abs(fit.lam - 0.25) <= 0.05

    def test_double_zero_recovery_with_log_factor(self):
        # half-width box keeps the subleading constant small over the window
        spec = NormalCrossingSpec(dim=2, exponents=(1, 1))
        L = make_normal_crossing(spec, Bounds.symmetric(2, 0.5))
        curve = volume_curve(L, default_ladder(4, 14), 1_000_000, seed=9)
        fit = fit_scaling(curve)
        assert fit.multiplicity == 2
        assert abs(fit.lam - 0.5) <= 0.05

    @pytest.mark.parametrize("mode", [2.5, True, "3", 0, "best"])
    def test_non_integer_or_small_multiplicity_rejected(self, mode):
        eps = default_ladder()
        vols = eps**0.5
        curve = VolumeCurve(epsilons=eps, volumes=vols, standard_errors=1e-9 * vols,
                            total_volume=4.0)
        with pytest.raises(InvalidInputError, match="^multiplicity_mode "):
            fit_scaling(curve, multiplicity_mode=mode)

    def test_window_error_when_too_few_points(self):
        L = make_quadratic(2)
        curve = volume_curve(L, np.array([0.2, 0.1, 0.05]), 1000, seed=10)
        with pytest.raises(FitWindowError):
            fit_scaling(curve)

    def test_saturated_points_excluded(self):
        L = make_quadratic(2)
        eps = np.array([4.0, 2.0, 0.25, 0.1, 0.05, 0.02, 0.01, 0.004, 0.002, 0.001])
        curve = volume_curve(L, eps, 400_000, seed=11)
        fit = fit_scaling(curve)
        assert fit.epsilon_window[1] <= 0.25
        assert abs(fit.lam - 1.0) <= 0.05
