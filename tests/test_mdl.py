import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from basinlab import (
    SingularBernoulli,
    build_eps_net,
    kl,
    kl_bernoulli,
    mc_ball_volumes,
    rng_stream,
    sample_restricted,
    two_part_redundancy,
    validate_kl_l2,
    validate_triangle,
    validate_variance_bound,
    validate_volume_inclusions,
)
from basinlab import mdl, volume
from basinlab.errors import CoveringFailureError, InvalidInputError
from basinlab.landscapes import Bounds


@pytest.fixture(scope="module")
def model():
    return SingularBernoulli()


def restricted(rng, n, m=0.2, size=3):
    return sample_restricted(rng, n, size, m)


def fields(chk):
    return [getattr(chk, f.name) for f in dataclasses.fields(chk)]


class TestKlL2:
    def test_coincident(self):
        p = np.array([[0.3, 0.3, 0.4]])
        lower, value, upper, passed = fields(validate_kl_l2(p, p, 0.2))
        assert np.array_equal(np.concatenate([lower, value, upper]), np.zeros(3))
        assert passed.tolist() == [True]

    def test_randomized_audit(self):
        rng = rng_stream(10, 0)
        qs = restricted(rng, 1000)
        ps = restricted(rng, 1000)
        assert validate_kl_l2(qs, ps, 0.2).passed.all()

    def test_lower_constant_not_tight(self):
        # some pair has KL strictly above half the squared distance
        rng = rng_stream(11, 0)
        qs, ps = restricted(rng, 200), restricted(rng, 200)
        sq = np.sum((qs - ps) ** 2, axis=1)
        assert np.any((sq > 1e-8) & (kl(qs, ps) > (0.5 + 1e-6) * sq))

    def test_outside_simplex_rejected(self):
        q = np.array([[0.05, 0.95]])
        with pytest.raises(InvalidInputError):
            validate_kl_l2(q, q, 0.2)


class TestTriangle:
    def test_equal_endpoints(self):
        rng = rng_stream(12, 0)
        q = restricted(rng, 1)
        p = restricted(rng, 1)
        chk = validate_triangle(q, p, p, 0.2)
        assert chk.lhs.tolist() == [0.0] and chk.passed.tolist() == [True]

    def test_constant_value(self):
        rng = rng_stream(12, 1)
        q = restricted(rng, 1)
        chk = validate_triangle(q, q, q, 0.2)
        assert chk.constant == pytest.approx(2.5)

    def test_randomized_audit(self):
        rng = rng_stream(13, 0)
        qs, ps, p2s = restricted(rng, 1000), restricted(rng, 1000), restricted(rng, 1000)
        assert validate_triangle(qs, ps, p2s, 0.2).passed.all()


class TestVarianceBound:
    def test_coincident_all_zero(self):
        p = np.array([[0.4, 0.6]])
        lower, value, upper, _ = fields(validate_variance_bound(p, p))
        assert np.array_equal(np.concatenate([lower, value, upper]), np.zeros(3))

    def test_closed_form_two_point(self):
        q = np.array([0.5, 0.5])
        p = np.array([0.46, 0.54])
        chk = validate_variance_bound(q[None], p[None])
        ell = np.log(q / p)
        var = float(np.sum(q * ell**2) - kl(q, p) ** 2)
        assert chk.value.tolist() == [pytest.approx(var, rel=1e-12)]
        assert chk.passed.tolist() == [True]

    def test_randomized_audit(self):
        rng = rng_stream(14, 0)
        qs, ps = restricted(rng, 1000), restricted(rng, 1000)
        assert validate_variance_bound(qs, ps).passed.all()


def kl_loop(q, p):
    return float(np.sum(q * np.log(q / p)))


def kl_l2_reference(q, p, p2, m, slack):
    """One instance of each lemma check as a scalar loop would make it."""
    sq = float(np.sum((p - q) ** 2))
    return 0.5 * sq - slack <= kl_loop(q, p) <= sq / (2 * m) + slack


def triangle_reference(q, p, p2, m, slack):
    return kl_loop(p, p2) <= (kl_loop(q, p) + kl_loop(q, p2)) / (2 * m) + slack


def variance_reference(q, p, p2, m, slack):
    ell = np.log(q / p)
    d = kl_loop(q, p)
    var = float(np.sum(q * ell**2)) - d**2
    c, c_prime = 2 / max(1.0, np.exp(-ell.min())), 2 / min(1.0, np.exp(-ell.max()))
    return (c - d) * d - slack <= var <= (c_prime - d) * d + slack


class TestStackedValidators:
    # A negative slack fails the instances closest to the bound, so that both
    # flags occur: the slack per validator sits inside its spread of margins.
    @pytest.mark.parametrize("slack,check,reference", [
        (-0.02, lambda q, p, p2, m: validate_kl_l2(q, p, m), kl_l2_reference),
        (-1.0, validate_triangle, triangle_reference),
        (-0.02, lambda q, p, p2, m: validate_variance_bound(q, p), variance_reference),
    ], ids=["kl_l2", "triangle", "variance"])
    def test_stack_equals_per_instance_loop(self, monkeypatch, slack, check, reference):
        monkeypatch.setattr(mdl, "_AUDIT_SLACK", slack)
        m, n = 0.05, 10_000
        rng = rng_stream(15, 0)
        rows = [sample_restricted(rng, n, 3, m) for _ in range(3)]
        stacked = check(*rows, m)
        loop = [check(*(r[None] for r in inst), m) for inst in zip(*rows)]
        flags = [reference(*inst, m, slack) for inst in zip(*rows)]
        assert 0 < sum(flags) < n
        assert np.array_equal(stacked.passed, flags)
        # each row's fields equal those of a 1-row call on it, bit for bit
        for f in dataclasses.fields(stacked):
            got, want = getattr(stacked, f.name), [getattr(c, f.name) for c in loop]
            if np.ndim(got) == 0:  # the triangle constant
                assert set(want) == {got}
            else:
                assert got.shape == (n,) and np.array_equal(got, np.concatenate(want)), f.name

    def test_stack_outside_simplex_or_nonpositive_m_rejected(self):
        rows = sample_restricted(rng_stream(16, 0), 50, 3, 0.2)
        bad = rows.copy()
        bad[7] = [0.05, 0.5, 0.45]
        with pytest.raises(InvalidInputError, match="p is outside"):
            validate_kl_l2(rows, bad, 0.2)
        for m in (0.0, -0.1):
            with pytest.raises(InvalidInputError):
                validate_triangle(rows, rows, rows, m)


class TestEpsilonNet:
    def test_single_center_when_epsilon_huge(self, model):
        net = build_eps_net(model, epsilon=5.0)
        assert net.n_centers == 1
        assert net.code_lengths[0] == pytest.approx(0.0, abs=1e-12)

    def test_covering_audit_holds(self, model):
        net = build_eps_net(model, epsilon=1e-3)
        w = model.bounds.sample(rng_stream(99, 0), 5_000)
        p1 = model.prob_one(w)
        dists = np.min(np.stack([kl_bernoulli(p1, t) for t in net.thetas]), axis=0)
        assert dists.max() <= 1e-3

    def test_central_center_has_largest_volume(self, model):
        net = build_eps_net(model, epsilon=1e-3)
        central = net.nearest(0.5)
        assert net.vr_volumes[central] == net.vr_volumes.max()
        # monotone transform: largest volume gives smallest code length
        assert net.code_lengths[central] == net.code_lengths.min()

    def test_code_lengths_nonnegative_finite(self, model):
        for eps in (1e-2, 1e-3):
            net = build_eps_net(model, epsilon=eps)
            assert np.all(net.code_lengths >= 0.0)
            assert np.all(np.isfinite(net.code_lengths))

    def test_overlap_mass_reported(self, model):
        # balls overlap; the mass is a reported diagnostic, at least covering
        net = build_eps_net(model, epsilon=1e-3)
        assert 1.0 - 0.01 <= net.overlap_mass <= 2.0

    def test_centers_are_restricted_distributions(self, model):
        net = build_eps_net(model, epsilon=1e-2)
        # each center (1 - theta, theta) keeps both masses at least m_simplex
        assert np.minimum(net.thetas, 1.0 - net.thetas).min() >= model.m_simplex

    def test_nearest_tie_breaks_low_index(self, model):
        net = build_eps_net(model, epsilon=1e-2)
        # exact midpoint in KL between two adjacent centers
        ts = np.sort(net.thetas)
        grid = np.linspace(ts[0], ts[1], 20_001)
        d0 = kl_bernoulli(grid, ts[0])
        d1 = kl_bernoulli(grid, ts[1])
        mid = grid[np.argmin(np.abs(d0 - d1))]
        i0 = int(np.where(net.thetas == ts[0])[0][0])
        i1 = int(np.where(net.thetas == ts[1])[0][0])
        assert net.nearest(mid) in (i0, i1)
        assert net.nearest(float(ts[0])) == i0


def greedy_pruned_reference(model, epsilon):
    """Greedy farthest-point centers followed by the backward pruning pass
    (drop a center while every candidate stays within the build tolerance of
    another one), tracked with per-candidate cover counts."""
    cands = mdl._candidate_thetas(model, epsilon)
    eps_build = mdl._BUILD_MARGIN * epsilon
    center_idx = [0]
    dist = kl_bernoulli(cands, cands[0])
    while dist.max() > eps_build:
        j = int(np.argmax(dist))
        center_idx.append(j)
        dist = np.minimum(dist, kl_bernoulli(cands, cands[j]))
    balls = [kl_bernoulli(cands, cands[c]) <= eps_build for c in center_idx]
    cover = np.sum(balls, axis=0)
    kept = list(range(len(center_idx)))
    for j in reversed(range(len(center_idx))):
        if len(kept) > 1 and np.all(cover[balls[j]] >= 2):
            cover -= balls[j]
            kept.remove(j)
    return cands[np.sort([center_idx[j] for j in kept])]


def image_samples(model, seed, n):
    return model.prob_one(model.bounds.sample(rng_stream(seed, 2), n))


def no_draws(*args, **kwargs):
    raise AssertionError("an exact volume drew parameter samples")


def kl_to_centers(p, thetas):
    """min over centers of KL(p || center), by a scan over every center."""
    return np.min(np.stack([kl_bernoulli(p, t) for t in thetas]), axis=0)


class TestBallEdges:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(log_r=st.floats(np.log(1e-9), np.log(1.0)), seed=st.integers(0, 2**16),
           reverse=st.booleans())
    def test_edge_passes_and_next_float_outward_fails(self, model, log_r, seed, reverse):
        image = model.image_interval()
        r = float(np.exp(log_r))
        t = np.concatenate([image, rng_stream(seed, 4).uniform(*image, 20)])
        lo, hi = mdl._ball_edges(t, r, image, reverse=reverse)

        def inside(p):
            return (kl_bernoulli(p, t) if reverse else kl_bernoulli(t, p)) <= r

        assert np.all((image[0] <= lo) & (lo <= t) & (t <= hi) & (hi <= image[1]))
        assert inside(lo).all() and inside(hi).all()
        assert not inside(np.nextafter(lo, -np.inf))[lo > image[0]].any()
        assert not inside(np.nextafter(hi, np.inf))[hi < image[1]].any()

    def test_radii_broadcast_against_one_center(self, model):
        image = model.image_interval()
        lo, hi = mdl._ball_edges(0.4, [1e-4, 1e-2], image, reverse=False)
        for i, r in enumerate((1e-4, 1e-2)):
            (one_lo,), (one_hi,) = mdl._ball_edges(0.4, r, image, reverse=False)
            assert (lo[i], hi[i]) == (one_lo, one_hi)


class TestIntervalCounting:
    @settings(max_examples=40, deadline=None)
    @given(log_eps=st.floats(np.log(1e-6), np.log(1e-1)), seed=st.integers(0, 2**16))
    def test_hits_equal_scan(self, model, log_eps, seed):
        # the cross-check counts into the exact edges what a predicate scan counts
        eps = float(np.exp(log_eps))
        net = build_eps_net(model, eps)
        p = image_samples(model, seed, 20_000)
        scan = np.array([np.count_nonzero(kl_bernoulli(p, t) <= eps) for t in net.thetas])
        vols, _ = mc_ball_volumes(model, net, 20_000, seed)
        assert np.array_equal(vols, model.bounds.volume() * (scan / 20_000))

    @settings(max_examples=40, deadline=None)
    @given(log_eps=st.floats(np.log(1e-6), np.log(1e-1)),
           seed=st.integers(0, 2**16), k=st.integers(1, 60))
    def test_audit_decision_equals_scan(self, model, log_eps, seed, k):
        # a scan of uniform draws plus the named gap finds a point outside
        # every ball exactly when the covering check fails
        eps = float(np.exp(log_eps))
        image = model.image_interval()
        thetas = np.linspace(*image, k)
        p = image_samples(model, seed, 5_000)
        try:
            mdl._check_covering(thetas, *mdl._ball_edges(thetas, eps, image), image, eps)
        except CoveringFailureError as err:
            p = np.append(p, err.gap)
            failed = True
        else:
            failed = False
        assert failed == bool(kl_to_centers(p, thetas).max() > eps)

    def test_forced_audit_failure_names_scan_witness(self, model, monkeypatch):
        # a net built at three times the tolerance leaves gaps at the full one
        monkeypatch.setattr(mdl, "_BUILD_MARGIN", 3.0)
        eps = 1e-3
        thetas = greedy_pruned_reference(model, eps)
        with pytest.raises(CoveringFailureError) as err:
            build_eps_net(model, eps)
        first, last = err.value.gap
        before, after = err.value.neighbors
        # every float of the gap lies farther than eps from every center
        gap = np.concatenate([np.linspace(first, last, 10_001), [first, last]])
        assert first <= last and kl_to_centers(gap, thetas).min() > eps
        # and the floats on either side lie in the two neighbors' balls
        assert before in thetas and after in thetas
        assert kl_bernoulli(np.nextafter(first, -np.inf), before) <= eps
        assert kl_bernoulli(np.nextafter(last, np.inf), after) <= eps
        assert f"{first:.9g}" in str(err.value)

    def test_net_build_draws_nothing(self, model, monkeypatch):
        monkeypatch.setattr(Bounds, "sample", no_draws)
        assert build_eps_net(model, 0.1 / 2**10).n_centers > 1

    @pytest.mark.parametrize("power", range(6, 13))
    def test_centers_equal_greedy_plus_pruning(self, model, power):
        eps = 0.1 / 2**power
        net = build_eps_net(model, eps)
        assert np.array_equal(net.thetas, greedy_pruned_reference(model, eps))

    @pytest.mark.parametrize("power", range(6, 15))
    def test_exact_volumes_within_4se_of_monte_carlo(self, model, power):
        net = build_eps_net(model, 0.1 / 2**power)
        vols, ses = mc_ball_volumes(model, net, 1_000_000, seed=0)
        assert np.all(np.abs(net.vr_volumes - vols) <= 4 * ses)

    @pytest.mark.parametrize("kwargs", [{"samples": 0}, {"samples": -1}])
    def test_empty_sample_counts_rejected(self, model, kwargs):
        net = build_eps_net(model, 1e-2)
        with pytest.raises(InvalidInputError):
            mc_ball_volumes(model, net, seed=0, **kwargs)

    def test_chunking_leaves_volumes_unchanged(self, model, monkeypatch):
        net = build_eps_net(model, 1e-2)
        whole = mc_ball_volumes(model, net, 10_500, seed=0)
        monkeypatch.setattr(volume, "MC_CHUNK", 1_000)
        chunked = mc_ball_volumes(model, net, 10_500, seed=0)
        for a, b in zip(chunked, whole):
            assert np.array_equal(a, b)

    def test_default_chunk_matches_one_large_chunk(self, model, monkeypatch):
        net = build_eps_net(model, 0.1 / 2**8)
        chunked = mc_ball_volumes(model, net, 300_000, seed=0)
        monkeypatch.setattr(volume, "MC_CHUNK", 10**6)
        whole = mc_ball_volumes(model, net, 300_000, seed=0)
        for a, b in zip(chunked, whole):
            assert np.array_equal(a, b)


class TestTwoPartRedundancy:
    def test_recompute_identity(self, model):
        run = two_part_redundancy(model, model.truth, n=256, a=1.0, seed=3)
        assert run.redundancy == run.code_length + run.excess_data_nats

    def test_bookkeeping_identity_on_balanced_data(self, model):
        # force balanced data by picking a seed with exactly n/2 ones
        n = 64
        for seed in range(50):
            rng = rng_stream(seed, 0)
            if rng.binomial(n, 0.5) == n // 2:
                run = two_part_redundancy(model, model.truth, n=n, a=1.0, seed=seed)
                # balanced data: K_n(p*) evaluated at theta* with f_hat = 1/2
                expect = 0.5 * np.log(0.5 / run.theta_star) + 0.5 * np.log(0.5 / (1 - run.theta_star))
                assert run.excess_data_nats == pytest.approx(n * expect, abs=1e-12)
                return
        pytest.fail("no balanced seed found")

    def test_unrealizable_q_rejected(self, model):
        with pytest.raises(InvalidInputError):
            two_part_redundancy(model, 0.9, n=32, seed=0)

    @pytest.mark.parametrize("n", [0.5, 0, -4, True, 8.0])
    def test_non_positive_integer_n_rejected(self, model, n):
        with pytest.raises(InvalidInputError):
            two_part_redundancy(model, model.truth, n=n, seed=0)

    @pytest.mark.parametrize("q", [0.25, 0.75])
    @pytest.mark.parametrize("thetas", [None, [0.1, 0.25, 0.5, 0.75, 0.9]])
    def test_frequency_clamped_into_image(self, model, q, thetas):
        # all n draws alike: the frequency, 0 or 1, clamps to q, the image's
        # nearer end. A built net's centers include both ends, where the
        # clamp changes no choice; centers past the image show it.
        n, a = 8, 0.1
        seed = next(s for s in range(200) if rng_stream(s, 0).binomial(n, q) == n * (q > 0.5))
        net = build_eps_net(model, a / n)
        if thetas is not None:
            net = dataclasses.replace(net, thetas=np.array(thetas), code_lengths=np.zeros(5))
        run = two_part_redundancy(model, q, n=n, a=a, seed=seed, net=net)
        assert run.theta_star == net.thetas[net.nearest(q)] == q

    def test_net_reuse_matches_fresh_build(self, model):
        net = build_eps_net(model, epsilon=1.0 / 128)
        a = two_part_redundancy(model, model.truth, n=128, a=1.0, seed=9, net=net)
        b = two_part_redundancy(model, model.truth, n=128, a=1.0, seed=9)
        assert a.redundancy == b.redundancy

    def test_wrong_tolerance_net_rejected(self, model):
        net = build_eps_net(model, epsilon=0.5)
        with pytest.raises(InvalidInputError):
            two_part_redundancy(model, model.truth, n=100, a=1.0, net=net)

    def test_grid_constant_tradeoff(self, model):
        # a controls the description/data split: at n = 2^14 the unit-scale
        # grid should be optimal or within 2 nats of the best of {0.1, 1, 10}
        n = 2**14
        medians = {}
        for a in (0.1, 1.0, 10.0):
            net = build_eps_net(model, a / n)
            runs = [two_part_redundancy(model, model.truth, n=n, a=a, seed=s, net=net)
                    for s in range(50)]
            medians[a] = float(np.median([r.redundancy for r in runs]))
        assert medians[1.0] <= min(medians.values()) + 2.0


class TestVolumeInclusions:
    def test_full_cover_when_epsilon_large(self, model):
        chk = validate_volume_inclusions(model, 0.5, 0.5, epsilon=5.0)
        total = model.bounds.volume()
        assert chk.v_inner == chk.v_reversed == chk.v_outer == total
        assert chk.passed_pointwise and chk.passed_volumes

    def test_sandwich_at_truth_center(self, model):
        chk = validate_volume_inclusions(model, 0.5, 0.5, epsilon=1e-2)
        assert chk.passed_pointwise and chk.passed_volumes

    def test_sandwich_offset_center(self, model):
        eps = 1e-3
        # choose p* with KL(q || p*) = eps / 2
        thetas = np.linspace(0.5, 0.75, 200_001)
        dist = kl_bernoulli(0.5, thetas)
        theta_star = float(thetas[np.argmin(np.abs(dist - eps / 2))])
        chk = validate_volume_inclusions(model, 0.5, theta_star, epsilon=eps)
        assert chk.passed_pointwise and chk.passed_volumes

    def test_precondition_enforced(self, model):
        with pytest.raises(InvalidInputError):
            validate_volume_inclusions(model, 0.5, 0.75, epsilon=1e-4)

    def test_chunking_leaves_volumes_unchanged(self, model, monkeypatch):
        # the volumes are exact: no draws, so no chunk size can move them
        def volumes():
            chk = validate_volume_inclusions(model, 0.5, 0.52, epsilon=1e-2)
            return [chk.v_inner, chk.v_reversed, chk.v_outer]

        whole = volumes()
        monkeypatch.setattr(volume, "MC_CHUNK", 1_000)
        monkeypatch.setattr(Bounds, "sample", no_draws)
        assert volumes() == whole
        assert whole[0] < whole[1] < whole[2]
