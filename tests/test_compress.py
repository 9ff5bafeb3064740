import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from basinlab import (
    CriticalResult,
    MlpModel,
    MlpSpec,
    QuantizationSpec,
    critical_compression_fraction,
    critical_nq,
    critical_sigma,
    factorize,
    make_teacher_task,
    noise_delta_loss,
    prune_and_retrain,
    quantization_delta_loss,
    quantize,
    rng_stream,
    train_sgd,
)
from basinlab import compress
from basinlab.errors import (InvalidInputError, QuantizationFailedError, TrainingDivergedError,
                             UnreachableToleranceError)
from basinlab.training import DIVERGENCE_CAP


def reference_quantize(w, spec):
    """quantize as one allocating expression, before it ran in place."""
    return np.round(np.clip(w, -spec.m_clamp, spec.m_clamp) / spec.delta) * spec.delta


def reference_loss_min_m(params, n_q, loss_eval):
    """The clamp search run to completion: the whole grid, bottom up, then
    golden section around its argmin, keeping the best value seen."""
    max_abs = float(np.max(np.abs(params)))
    base = loss_eval(params)
    if max_abs == 0.0:
        return 1.0, 0.0

    def q_loss(m):
        return loss_eval(reference_quantize(params, QuantizationSpec(n_q=n_q, m_clamp=m)))

    ms = np.geomspace(compress._LO_FACTOR * max_abs, max_abs, compress._GRID_POINTS)
    losses = np.array([q_loss(m) for m in ms])
    if not np.any(np.isfinite(losses)):
        raise QuantizationFailedError("all clamp candidates non-finite")
    losses[~np.isfinite(losses)] = np.inf
    best = int(np.argmin(losses))
    best_m, best_loss = float(ms[best]), float(losses[best])
    a, b = float(ms[max(best - 1, 0)]), float(ms[min(best + 1, len(ms) - 1)])
    golden = (np.sqrt(5.0) - 1.0) / 2.0
    c, d = b - golden * (b - a), a + golden * (b - a)
    fc, fd = q_loss(c), q_loss(d)
    while (b - a) > compress._REL_TOL * max_abs:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - golden * (b - a)
            fc = q_loss(c)
        else:
            a, c, fc = c, d, fd
            d = a + golden * (b - a)
            fd = q_loss(d)
        for m, f in ((c, fc), (d, fd)):
            if np.isfinite(f) and f < best_loss:
                best_m, best_loss = float(m), float(f)
    return best_m, best_loss - base


def reference_critical_nq(params, epsilons, loss_eval, mode="loss_min", nq_cap=2**16):
    """critical_nq with every probe a complete search, one epsilon at a time.
    A max_abs probe whose one clamp gives a non-finite loss raises."""
    def probe(nq):
        if mode == "loss_min":
            return reference_loss_min_m(params, nq, loss_eval)[1]
        m = float(np.max(np.abs(params)))
        q = reference_quantize(params, QuantizationSpec(n_q=nq, m_clamp=m))
        dl = loss_eval(q) - loss_eval(params)
        if not np.isfinite(dl):
            raise QuantizationFailedError("the max|w| clamp gave a non-finite loss")
        return dl

    cache = {}

    def dl(nq):
        if nq not in cache:
            cache[nq] = probe(nq)
        return cache[nq]

    results = []
    for epsilon in epsilons:
        hi = 4
        while dl(hi) > epsilon:
            hi *= 2
            if hi > nq_cap:
                raise UnreachableToleranceError(f"delta loss still above {epsilon} at n_q={nq_cap}")
        if hi > 4:
            hi = 2 * compress._lowest_passing(lambda k: dl(2 * k) <= epsilon, hi // 4, hi // 2)
        results.append(CriticalResult(hi, cache[hi], hi))
    return results


def reference_critical_sigma(params, epsilons, mode, loss_eval, noise_draws=8, seed=0):
    """critical_sigma as a float bisection: geometric midpoints of [1e-6, 10]
    until hi / lo <= 1.001, keeping the passing end, each sigma measured once."""
    params = np.asarray(params, dtype=float)
    base = loss_eval(params)
    draws = [rng_stream(seed, k).standard_normal(params.shape) for k in range(noise_draws)]
    scale = params if mode == "relative" else 1.0
    cache = {}

    def dl(sigma):
        if sigma not in cache:
            cache[sigma] = float(np.mean(
                [loss_eval(params + scale * sigma * z) for z in draws])) - base
        return cache[sigma]

    def passes(sigma, eps):
        return np.isfinite(dl(sigma)) and dl(sigma) <= eps

    results = []
    for eps in epsilons:
        lo, hi = 1e-6, 10.0
        if not passes(lo, eps):
            raise UnreachableToleranceError(f"delta loss {dl(lo)} not within {eps} at sigma={lo}")
        if passes(hi, eps):
            raise UnreachableToleranceError(f"loss increase never exceeds {eps} up to sigma={hi}")
        while hi / lo > 1.001:
            mid = float(np.sqrt(lo * hi))
            lo, hi = (mid, hi) if passes(mid, eps) else (lo, mid)
        results.append(CriticalResult(lo, dl(lo), lo))
    return results


def reference_prune_and_retrain(task, params, keep_fraction, learning_rate, retrain_steps=1000,
                                batch_size=32, seed=0):
    """One keep fraction's prune and masked retrain, stepped on its own: the
    body prune_and_retrain runs for every fraction in lockstep."""
    model = task.model
    sizes = model.spec.layer_sizes
    hidden_units = [(li, u) for li in range(1, len(sizes) - 1) for u in range(sizes[li])]
    n_h = len(hidden_units)
    n_prune = int(np.floor((1.0 - keep_fraction) * n_h))

    rng_pick = rng_stream(seed, 0)
    picked = sorted(rng_pick.choice(n_h, size=n_prune, replace=False).tolist()) if n_prune else []
    pruned = [hidden_units[i] for i in picked]

    base = task.full_loss(params)
    layers = model.unpack(params)
    mask_layers = [(np.ones_like(w), np.ones_like(b)) for w, b in layers]
    new_layers = [(w.copy(), b.copy()) for w, b in layers]
    for (li, u) in pruned:
        new_layers[li - 1][0][u, :] = 0.0
        new_layers[li][0][:, u] = 0.0
        mask_layers[li - 1][0][u, :] = 0.0
        mask_layers[li][0][:, u] = 0.0
    pruned_params = model.pack(new_layers)
    mask = model.pack(mask_layers)

    rng_batch = rng_stream(seed, 1)
    w = pruned_params.copy()
    best_loss = task.full_loss(w)
    best_params = w.copy()
    for _ in range(retrain_steps):
        xb, yb = task.batch(rng_batch, batch_size)
        _, grad = model.loss_and_grad(w, xb, yb)
        w = w - learning_rate * (grad * mask)
        full = task.full_loss(w)
        if full < best_loss:
            best_loss = full
            best_params = w.copy()
    return compress.PruneResult(params=best_params, delta_loss=best_loss - base,
                                n_pruned=n_prune, mask=mask)


def outcome(search, epsilons):
    """search(epsilons)'s results, each delta_loss bit for bit (NaN included),
    or the type of the error it raised."""
    try:
        results = search(epsilons)
    except (QuantizationFailedError, UnreachableToleranceError) as e:
        return type(e)
    return [(r.value, float(r.delta_loss).hex(), r.critical_value) for r in results]


def orders(epsilons):
    """The epsilons ascending, descending and with repeats."""
    up = sorted(epsilons)
    return {"ascending": up, "descending": up[::-1], "repeated": up + up[::-1] + up[:1]}


def assert_joint_equals_one_call_per_epsilon(search, epsilons):
    """In every order of the epsilons, one joint search call equals one call
    per epsilon joined as a joint call reports them: the results in order,
    or the error of the first epsilon that raises."""
    single = {eps: outcome(search, [eps]) for eps in epsilons}
    for order in orders(epsilons).values():
        expected = []
        for eps in order:
            if not isinstance(single[eps], list):
                expected = single[eps]
                break
            expected += single[eps]
        assert outcome(search, order) == expected, order


@pytest.fixture(scope="module")
def checkpoints():
    """The scan test's 4-8-4 checkpoint and a 4-16-16-4 one, each with its full loss."""
    out = {}
    for sizes in ((4, 8, 4), (4, 16, 16, 4)):
        task = make_teacher_task(MlpSpec(layer_sizes=sizes), 256, seed=4, teacher_gain=2.0)
        (ck,) = train_sgd(task, steps=2000, learning_rate=0.05, batch_size=32, seed=1,
                          checkpoint_schedule=(2000,))
        out["-".join(map(str, sizes))] = (ck.params, task.full_loss)
    return out


def counting(loss_eval, params):
    """loss_eval that also counts its evaluations at `params` itself."""
    def wrapped(w):
        wrapped.base_evals += np.array_equal(w, params)
        return loss_eval(w)
    wrapped.base_evals = 0
    return wrapped


class TestQuantize:
    def test_hand_example_nq4(self):
        # m=1, n_q=4: delta=1, grid {-1, 0, 1}
        spec = QuantizationSpec(n_q=4, m_clamp=1.0)
        out = quantize(np.array([0.6, -0.26, 1.7]), spec)
        assert np.array_equal(out, [1.0, 0.0, 1.0])

    def test_hand_example_nq8(self):
        # m=0.9, n_q=8: delta=0.3, round(0.44/0.3)=1
        spec = QuantizationSpec(n_q=8, m_clamp=0.9)
        assert quantize(np.array([0.44]), spec)[0] == pytest.approx(0.3)

    def test_idempotent(self):
        rng = rng_stream(0, 0)
        w = rng.uniform(-3, 3, 100)
        spec = QuantizationSpec(n_q=10, m_clamp=1.7)
        once = quantize(w, spec)
        assert np.array_equal(quantize(once, spec), once)

    def test_odd_symmetric(self):
        rng = rng_stream(1, 0)
        w = rng.uniform(-2, 2, 1000)
        spec = QuantizationSpec(n_q=12, m_clamp=1.1)
        assert np.array_equal(quantize(-w, spec), -quantize(w, spec))

    @pytest.mark.parametrize("m", [float("nan"), 0.0, -1.0])
    def test_invalid_clamp_rejected(self, m):
        with pytest.raises(InvalidInputError, match="m_clamp must be positive"):
            QuantizationSpec(n_q=4, m_clamp=m)

    def test_grid_cardinality_and_extremes(self):
        spec = QuantizationSpec(n_q=6, m_clamp=1.0)
        grid = spec.grid()
        assert len(grid) == 5  # n_q - 1 values
        assert 0.0 in grid and 1.0 in grid and -1.0 in grid
        w = np.linspace(-2, 2, 401)
        out = quantize(w, spec)
        assert len(np.unique(out)) <= 5
        assert out.max() == 1.0 and out.min() == -1.0

    @pytest.mark.parametrize("nq", [2, 3, 5, 0, -4, 6.0, np.float64(8.0), True])
    def test_invalid_nq_rejected(self, nq):
        with pytest.raises(InvalidInputError):
            QuantizationSpec(n_q=nq, m_clamp=1.0)

    @given(
        w=st.lists(st.floats(-1e8, 1e8), min_size=1, max_size=20),
        half_nq=st.integers(2, 64),
        m=st.floats(1e-6, 1e6),
    )
    @settings(max_examples=300, deadline=None)
    def test_properties_hold_for_arbitrary_inputs(self, w, half_nq, m):
        spec = QuantizationSpec(n_q=2 * half_nq, m_clamp=m)
        w = np.array(w)
        q = quantize(w, spec)
        assert np.array_equal(quantize(q, spec), q)
        assert np.array_equal(quantize(-w, spec), -q)
        assert np.all(np.abs(q) <= m * (1 + 1e-12))
        # in place, into a given array or into w itself, bit for bit
        assert q.tobytes() == reference_quantize(w, spec).tobytes()
        out = np.empty_like(w)
        assert quantize(w, spec, out=out) is out and out.tobytes() == q.tobytes()
        assert quantize(w, spec, out=w) is w and w.tobytes() == q.tobytes()


def loss_min_clamp(params, n_q, loss_eval):
    """(m, delta_loss): the clamp the loss_min search chooses, read from the
    search's result pair."""
    params = np.asarray(params, dtype=float)
    *_, result = compress._clamp_search(params, n_q, loss_eval, "loss_min", loss_eval(params))
    return result


class TestLossMinClampSearch:
    def test_on_grid_params_are_lossless(self):
        # params already on the n_q=8 grid for m = max|w|
        spec = QuantizationSpec(n_q=8, m_clamp=0.9)
        params = spec.grid()[[0, 2, 3, 5, 6]]
        loss_eval = lambda w: float(np.sum((w - params) ** 2))
        m_star, dl = loss_min_clamp(params, 8, loss_eval)
        assert dl == 0.0
        assert m_star == pytest.approx(0.9)

    def test_one_dim_quadratic_finds_representable_clamp(self):
        # loss (w - 0.5)^2 at w = 0.5 with n_q=4: any m = 0.5 makes 0.5 a grid
        # value, so the searched minimum is exactly lossless
        loss_eval = lambda w: float((w[0] - 0.5) ** 2)
        params = np.array([0.5])
        m_star, dl = loss_min_clamp(params, 4, loss_eval)
        assert dl <= 1e-12
        q = quantize(params, QuantizationSpec(n_q=4, m_clamp=m_star))
        assert q[0] == pytest.approx(0.5, abs=1e-6)

    def test_zero_vector_short_circuits(self):
        m_star, dl = loss_min_clamp(np.zeros(5), 4, lambda w: float(np.sum(w**2)))
        assert dl == 0.0

    def test_dominates_max_abs_mode(self, monkeypatch):
        monkeypatch.setattr(compress, "_GRID_POINTS", 16)
        rng = rng_stream(2, 0)
        for trial in range(100):
            w = rng.uniform(-2, 2, 12)
            a = rng.uniform(0.5, 2.0, 12)
            loss_eval = lambda v: float(np.sum(a * (v - w) ** 2))
            for nq in (4, 8, 16):
                dl_min = quantization_delta_loss(w, nq, loss_eval, "loss_min")
                dl_max = quantization_delta_loss(w, nq, loss_eval, "max_abs")
                assert dl_min <= dl_max + 1e-12


class TestLowestPassing:
    @given(lo=st.integers(-50, 1000), width=st.integers(1, 1000), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_force_scan_on_monotone_verdicts(self, lo, width, data):
        # lo fails and hi passes, with the verdict monotone in k between them
        hi = lo + width
        first = data.draw(st.integers(lo + 1, hi), label="first passing k")
        probed = []

        def passes(k):
            probed.append(k)
            return k >= first

        scan = next(k for k in range(lo + 1, hi + 1) if k >= first)
        assert compress._lowest_passing(passes, lo, hi) == scan
        # bisection alone: each probe strictly inside the bracket, none repeated
        assert all(lo < k < hi for k in probed) and len(set(probed)) == len(probed)
        assert len(probed) <= (width - 1).bit_length()


class TestCriticalNq:
    def test_zero_params_floor(self):
        (res,) = critical_nq(np.zeros(7), [0.5], lambda w: float(np.sum(w**2)))
        nq = res.value
        assert nq == 4

    def test_tolerance_above_coarsest(self):
        rng = rng_stream(3, 0)
        w = rng.uniform(-1, 1, 10)
        loss_eval = lambda v: float(np.sum((v - w) ** 2))
        # epsilon larger than the n_q=4 loss increase
        eps = quantization_delta_loss(w, 4, loss_eval) + 1.0
        assert critical_nq(w, [eps], loss_eval)[0].value == 4

    def test_matches_exhaustive_scan_on_mlp_checkpoint(self):
        task = make_teacher_task(MlpSpec(layer_sizes=(4, 8, 4)), 256, seed=4, teacher_gain=2.0)
        (ck,) = train_sgd(task, steps=2000, learning_rate=0.05, batch_size=32, seed=1,
                          checkpoint_schedule=(2000,))
        for eps in (0.5, 0.25):
            (res,) = critical_nq(ck.params, [eps], task.full_loss)
            found = res.value
            scan = next(
                nq for nq in range(4, 200, 2)
                if quantization_delta_loss(ck.params, nq, task.full_loss) <= eps
            )
            assert found == scan
            # the search's own measurement is the one a fresh probe makes
            assert res.delta_loss == quantization_delta_loss(ck.params, res.value, task.full_loss)
            assert res.critical_value == res.value

    def test_probes_pinned_settings_and_evaluates_base_once(self, monkeypatch):
        # the n_q probed, in order, on the scan test's checkpoint: the lists
        # the search made before its bisection was shared with the rank search
        task = make_teacher_task(MlpSpec(layer_sizes=(4, 8, 4)), 256, seed=4, teacher_gain=2.0)
        (ck,) = train_sgd(task, steps=2000, learning_rate=0.05, batch_size=32, seed=1,
                          checkpoint_schedule=(2000,))
        probed = []
        search = compress._clamp_search
        monkeypatch.setattr(compress, "_clamp_search",
                            lambda params, nq, *a: probed.append(nq) or search(params, nq, *a))
        expected = {
            (0.5, "loss_min"): [4, 8, 16, 12, 10],
            (0.25, "loss_min"): [4, 8, 16, 12, 14],
            (0.5, "max_abs"): [4, 8, 16, 32, 24, 20, 18],
            (0.25, "max_abs"): [4, 8, 16, 32, 24, 20, 18],
        }
        for (eps, mode), nqs in expected.items():
            probed.clear()
            loss_eval = counting(task.full_loss, ck.params)
            critical_nq(ck.params, [eps], loss_eval, mode=mode)
            assert probed == nqs
            assert loss_eval.base_evals == 1

    @pytest.mark.parametrize("mode", ["loss_min", "max_abs"])
    @pytest.mark.parametrize("eps", [0.25, 0.5, 1.0])
    @pytest.mark.parametrize("name", ["4-8-4", "4-16-16-4"])
    def test_equals_complete_search_on_checkpoints(self, checkpoints, name, eps, mode):
        params, loss_eval = checkpoints[name]
        assert (outcome(lambda e: critical_nq(params, e, loss_eval, mode=mode), [eps])
                == outcome(lambda e: reference_critical_nq(params, e, loss_eval, mode=mode), [eps]))

    @pytest.mark.parametrize("where", ["top", "off_grid"])
    @pytest.mark.parametrize("broken", [None, np.nan, np.inf, -np.inf])
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.integers(1, 12),
        epsilons=st.lists(st.floats(1e-3, 2.0), min_size=1, max_size=3),
        mode=st.sampled_from(["loss_min", "max_abs"]),
    )
    @settings(max_examples=30, deadline=None)
    def test_equals_complete_search_on_quadratics(self, seed, dim, epsilons, mode, broken, where):
        # `broken` replaces the loss at the clamps the search meets first (the
        # top of the grid) or at every clamp off the grid (the golden-section
        # points): a non-finite loss never counts as a passing one. One joint
        # call per order of the epsilons equals one call per epsilon and the
        # complete search
        rng = rng_stream(seed, 0)
        w = rng.uniform(-2, 2, dim)
        a = rng.uniform(0.1, 4.0, dim)
        max_abs = np.max(np.abs(w))
        grid = np.geomspace(0.1 * max_abs, max_abs, compress._GRID_POINTS)

        def loss_eval(v):
            m = np.max(np.abs(v))  # the clamp, up to rounding
            off = m >= 0.8 * max_abs if where == "top" else not np.any(np.isclose(m, grid))
            if broken is not None and off and not np.array_equal(v, w):
                return broken
            return float(np.sum(a * (v - w) ** 2))

        def search(e):
            return critical_nq(w, e, loss_eval, mode=mode)

        assert_joint_equals_one_call_per_epsilon(search, epsilons)
        eps = orders(epsilons)["repeated"]
        assert outcome(search, eps) == outcome(
            lambda e: reference_critical_nq(w, e, loss_eval, mode=mode), eps)

    def test_evaluations_pinned_and_never_repeated(self, checkpoints):
        # the scan test's checkpoint. With every probe complete and the base
        # loss evaluated once, the searches at 0.5 and 0.25 make 375
        # evaluations. At 0.5 and 1.0 the passing probes stop at their
        # verdict; at 0.25 the one passing probe (n_q = 16) runs complete.
        # Completing the returned n_q's search resumes it, evaluating nothing
        # again. One joint call shares every probe: 524 evaluations, not
        # 302 + 375 + 224, in any order of the epsilons
        params, full_loss = checkpoints["4-8-4"]
        calls = {(0.5,): 302, (0.25,): 375, (1.0,): 224, (0.25, 0.5, 1.0): 524,
                 (1.0, 0.5, 0.25): 524, (0.5, 0.25, 0.5, 1.0, 0.25): 524}
        for epsilons, n_evals in calls.items():
            seen = []
            critical_nq(params, epsilons, lambda w: seen.append(w.tobytes()) or full_loss(w))
            assert len(seen) == n_evals
            assert len(set(seen)) == n_evals

    def test_unreachable_tolerance_raises(self):
        rng = rng_stream(5, 0)
        w = rng.uniform(-1, 1, 6)
        # loss punishes any deviation at a scale no grid can meet
        loss_eval = lambda v: float(1e9 * np.sum((v - w) ** 2)) if not np.array_equal(v, w) else 0.0
        with pytest.raises(UnreachableToleranceError, match=r"at n_q=256$"):
            critical_nq(w, [1e-12], loss_eval, mode="max_abs", nq_cap=256)
        # the message names the largest n_q probed, a power of two, not the cap
        with pytest.raises(UnreachableToleranceError, match=r"at n_q=64$"):
            critical_nq(w, [1e-12], loss_eval, mode="max_abs", nq_cap=100)

    @pytest.mark.parametrize("nq_cap", [2, 3, 0, -4, float("nan")])
    def test_cap_below_smallest_probe_rejected(self, nq_cap):
        # a cap under 4 would let the first probe, n_q = 4, return above it
        loss_eval = lambda v: float(np.sum(v**2))
        with pytest.raises(InvalidInputError, match="nq_cap"):
            critical_nq(np.linspace(-1, 1, 6), [10.0], loss_eval, nq_cap=nq_cap)
        assert critical_nq(np.linspace(-1, 1, 6), [10.0], loss_eval, nq_cap=4)[0].value == 4

    def test_delta_loss_mostly_nonincreasing_in_nq(self):
        # fixed-batch measurement: the curve is non-increasing wherever the
        # loss change is above 2% of its n_q=4 value (the region every
        # critical search operates in); clamp-alignment jitter below that
        # floor keeps the strict fraction around 85-90%
        task = make_teacher_task(MlpSpec(layer_sizes=(4, 16, 16, 4)), 256, seed=4, teacher_gain=2.0)
        cks = train_sgd(task, steps=2000, learning_rate=0.05, batch_size=32, seed=1,
                        checkpoint_schedule=(500, 2000))
        for ck in cks:
            dls = [quantization_delta_loss(ck.params, nq, task.full_loss)
                   for nq in range(4, 66, 2)]
            pairs = len(dls) - 1
            strictly_ok = sum(1 for i in range(pairs) if dls[i + 1] <= dls[i] + 1e-12)
            assert strictly_ok >= 0.8 * pairs
            floor = 0.02 * dls[0]
            assert all(dls[i + 1] <= dls[i] + 1e-12
                       for i in range(pairs) if max(dls[i], dls[i + 1]) >= floor)

    def test_returned_value_satisfies_inequality_as_measured(self):
        task = make_teacher_task(MlpSpec(layer_sizes=(4, 8, 4)), 256, seed=6, teacher_gain=2.0)
        (ck,) = train_sgd(task, steps=1000, learning_rate=0.05, batch_size=32, seed=2,
                          checkpoint_schedule=(1000,))
        nq = critical_nq(ck.params, [0.5], task.full_loss)[0].value
        assert quantization_delta_loss(ck.params, nq, task.full_loss) <= 0.5
        if nq > 4:
            assert quantization_delta_loss(ck.params, nq - 2, task.full_loss) > 0.5


def reference_factorize(model, params, keep_fraction):
    """factorize as it was first written: every layer copied or truncated,
    packed anew, and the stored parameters summed before and after."""
    new_layers, before, after = [], 0, 0
    for li, (w, b) in enumerate(model.unpack(params)):
        d1, d2 = w.shape
        before += d1 * d2 + len(b)
        if 0 < li < model.spec.n_layers - 1:
            n = max(1, int(np.ceil(keep_fraction * min(d1, d2))))
            u, s, vt = np.linalg.svd(w, full_matrices=False)
            new_layers.append(((u[:, :n] * s[:n]) @ vt[:n, :], b.copy()))
            after += d1 * n + n + n * d2 + len(b)
        else:
            new_layers.append((w.copy(), b.copy()))
            after += d1 * d2 + len(b)
    return model.pack(new_layers), after / before


def assert_factorize_equals_rebuild(model, params, keep_fraction):
    """factorize equals the rebuild bit for bit and leaves `params` as it was."""
    before = params.copy()
    res = factorize(model, params, keep_fraction)
    ref_params, ref_fraction = reference_factorize(model, params, keep_fraction)
    assert np.array_equal(res.params, ref_params)
    assert res.compression_fraction == ref_fraction
    assert np.array_equal(params, before)


class TestFactorize:
    def test_full_rank_accounting_and_tiny_loss_change(self):
        model = MlpModel(MlpSpec(layer_sizes=(4, 16, 16, 4)))
        params = model.init_params(rng_stream(7, 0))
        res = factorize(model, params, keep_fraction=1.0)
        d1 = d2 = r = 16
        dense = 4 * 16 + 16 + 16 * 16 + 16 + 16 * 4 + 4
        expect = dense - d1 * d2 + (d1 * r + r + r * d2)
        assert res.compression_fraction == pytest.approx(expect / dense)
        assert np.allclose(res.params, params, atol=1e-8)

    def test_rank_one_matrix_exact(self):
        model = MlpModel(MlpSpec(layer_sizes=(2, 3, 3, 2)))
        layers = model.unpack(model.init_params(rng_stream(8, 0)))
        u = np.array([1.0, -2.0, 0.5])
        layers[1] = (np.outer(u, [0.3, 1.0, -0.7]), layers[1][1])
        params = model.pack(layers)
        res = factorize(model, params, keep_fraction=1 / 3)
        assert np.allclose(res.params, params, atol=1e-12)

    def test_truncation_error_matches_retained_spectrum(self):
        # Eckart-Young: Frobenius error is the norm of the dropped tail
        rng = rng_stream(9, 0)
        model = MlpModel(MlpSpec(layer_sizes=(16, 16, 16, 16)))
        params = model.init_params(rng)
        res = factorize(model, params, keep_fraction=0.5)  # matrix 1, the one interior
        w_orig = model.unpack(params)[1][0]
        w_new = model.unpack(res.params)[1][0]
        tail = np.linalg.svd(w_orig, compute_uv=False)[8:]
        assert np.linalg.norm(w_orig - w_new) == pytest.approx(np.sqrt(np.sum(tail**2)), rel=1e-10)

    def test_invalid_fraction_rejected(self):
        model = MlpModel(MlpSpec(layer_sizes=(4, 8, 4)))
        with pytest.raises(InvalidInputError):
            factorize(model, np.zeros(model.n_params), keep_fraction=0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("index", [0, -1, 50])  # input map, output bias, interior matrix
    def test_non_finite_params_rejected_before_any_svd(self, bad, index, monkeypatch):
        def no_svd(*_, **__):
            raise AssertionError("an SVD ran")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        model = MlpModel(MlpSpec(layer_sizes=(4, 8, 8, 4)))
        params = model.init_params(rng_stream(16, 0))
        params[index] = bad
        with pytest.raises(InvalidInputError, match="finite"):
            factorize(model, params, keep_fraction=0.5)

    def test_every_rank_equals_rebuild_on_checkpoint(self, checkpoints):
        params, _ = checkpoints["4-16-16-4"]
        model = MlpModel(MlpSpec(layer_sizes=(4, 16, 16, 4)))
        for j in range(1, 17):
            assert_factorize_equals_rebuild(model, params, j / 16)

    def test_interior_layers_equal_rebuild(self):
        model = MlpModel(MlpSpec(layer_sizes=(6, 5, 7, 3, 2)))
        params = model.init_params(rng_stream(15, 0))
        for keep in (1e-9, 0.2, 1 / 3, 0.5, 0.6, 0.75, 1.0):
            assert_factorize_equals_rebuild(model, params, keep)


class TestCriticalCompressionFraction:
    def test_rank_deficient_teacher(self):
        # a teacher whose one interior matrix has exact rank 3: the critical
        # keep fraction is the true rank ratio 3/8
        model = MlpModel(MlpSpec(layer_sizes=(8, 8, 8, 8)))
        rng = rng_stream(10, 0)
        layers = model.unpack(model.init_params(rng))
        layers[1] = (rng.standard_normal((8, 3)) @ rng.standard_normal((3, 8)), layers[1][1])
        params = model.pack(layers)
        x = rng.standard_normal((256, 8))
        y = model.forward(params, x)
        loss_eval = lambda p: model.loss_and_grad(p, x, y, need_grad=False)[0]
        (res,) = critical_compression_fraction(model, params, epsilons=[1e-10],
                                               loss_eval=loss_eval)
        assert res.value == 3 / 8

    def test_bracket_floor(self):
        # a zero interior matrix is exact at rank 1, the lowest rank searched
        model = MlpModel(MlpSpec(layer_sizes=(6, 6, 6, 6)))
        (res,) = critical_compression_fraction(model, np.zeros(model.n_params), epsilons=[0.5],
                                               loss_eval=lambda p: 0.0)
        assert res.value == 1 / 6

    def test_matches_exhaustive_scan_on_mlp(self):
        task = make_teacher_task(MlpSpec(layer_sizes=(4, 16, 16, 4)), 256, seed=11, teacher_gain=2.0)
        (ck,) = train_sgd(task, steps=3000, learning_rate=0.05, batch_size=32, seed=1,
                          checkpoint_schedule=(3000,))
        base = task.full_loss(ck.params)
        eps = 0.1
        (res,) = critical_compression_fraction(task.model, ck.params, [eps], task.full_loss)
        scan = next(
            j for j in range(1, 17)
            if task.full_loss(factorize(task.model, ck.params, j / 16).params) - base <= eps
        )
        assert res.value == scan / 16
        fresh = factorize(task.model, ck.params, res.value)
        assert res.delta_loss == task.full_loss(fresh.params) - base
        assert res.critical_value == fresh.compression_fraction

    @pytest.mark.parametrize("sizes", [(4, 4), (4, 8, 4)])
    def test_no_interior_layer_rejected(self, sizes):
        # before any loss is evaluated: the input and output maps are never factorized
        model = MlpModel(MlpSpec(layer_sizes=sizes))
        calls = []
        with pytest.raises(InvalidInputError, match="no interior layer"):
            critical_compression_fraction(model, model.init_params(rng_stream(7, 0)), [0.5],
                                          lambda p: calls.append(p) or 0.0)
        assert calls == []

    def test_probes_pinned_settings(self, monkeypatch):
        # the ranks j probed, in order, on the scan test's checkpoint
        task = make_teacher_task(MlpSpec(layer_sizes=(4, 16, 16, 4)), 256, seed=11, teacher_gain=2.0)
        (ck,) = train_sgd(task, steps=3000, learning_rate=0.05, batch_size=32, seed=1,
                          checkpoint_schedule=(3000,))
        probed = []
        probe = compress.factorize
        monkeypatch.setattr(compress, "factorize", lambda model, params, keep, *a:
                            probed.append(round(keep * 16)) or probe(model, params, keep, *a))
        expected = {0.1: [16, 1, 8, 12, 10, 9], 0.5: [16, 1, 8, 4, 6, 7],
                    0.02: [16, 1, 8, 12, 10, 11]}
        for eps, js in expected.items():
            probed.clear()
            loss_eval = counting(task.full_loss, ck.params)
            critical_compression_fraction(task.model, ck.params, [eps], loss_eval)
            assert probed == js
            assert loss_eval.base_evals == 1

    def test_every_probed_rank_is_kept_exactly(self, monkeypatch):
        # 25 is the narrowest width where ceil(j / 25 * 25) can exceed j in floats
        model = MlpModel(MlpSpec(layer_sizes=(3, 25, 25, 2)))
        params = rng_stream(12, 0).standard_normal(model.n_params)
        s = np.linalg.svd(model.unpack(params)[1][0], compute_uv=False)
        # err[j]: the distance of the rank-j reconstruction from params, j = 0 .. 25
        err = np.append(np.sqrt(np.cumsum(s[::-1] ** 2))[::-1], 0.0)
        # one epsilon per critical rank j = 1 .. 25, so every rank is probed
        epsilons = [2 * err[1], *((err[1:-1] + err[2:]) / 2)]
        kept = []
        probe = compress.factorize

        def recording(model, params, keep, *a):
            res = probe(model, params, keep, *a)
            kept.append((keep * 25, res))
            return res

        monkeypatch.setattr(compress, "factorize", recording)
        results = critical_compression_fraction(
            model, params, epsilons, lambda p: float(np.linalg.norm(p - params)))
        assert sorted(round(j) for j, _ in kept) == list(range(1, 26))
        # the stored-parameter ratio pins the rank: d - 25 * 25 + (25 j + j + 25 j) of d
        d = model.n_params
        assert [res.compression_fraction for _, res in kept] == [
            (d - 625 + 51 * round(j)) / d for j, _ in kept]
        assert [r.value for r in results] == [j / 25 for j in range(1, 26)]


class TestNoiseDeltaLoss:
    @staticmethod
    def loss_eval(v):
        return float(np.sum(np.sin(v) ** 2))

    def test_zero_sigma_identity(self):
        # the 8 draws' equal losses average exactly to the base loss
        w = rng_stream(12, 0).standard_normal(20)
        assert noise_delta_loss(w, 0.0, "absolute", self.loss_eval, seed=0) == 0.0

    def test_relative_mode_fixes_zero_vector(self):
        assert noise_delta_loss(np.zeros(50), 3.0, "relative", self.loss_eval, seed=1) == 0.0

    @pytest.mark.parametrize("sigma", [float("nan"), -1e-3])
    def test_invalid_sigma_rejected(self, sigma):
        # before any loss is evaluated
        calls = []
        loss_eval = lambda v: calls.append(v) or self.loss_eval(v)
        with pytest.raises(InvalidInputError, match="sigma must be nonnegative"):
            noise_delta_loss(np.ones(3), sigma, "absolute", loss_eval, seed=0)
        assert calls == []

    def test_unknown_mode_rejected(self):
        # before any loss is evaluated, the base loss included
        calls = []
        loss_eval = lambda v: calls.append(v) or self.loss_eval(v)
        with pytest.raises(InvalidInputError):
            noise_delta_loss(np.ones(3), 0.1, "multiplicative", loss_eval, seed=0)
        with pytest.raises(InvalidInputError, match="unknown noise mode"):
            critical_sigma(np.ones(3), [0.1], "multiplicative", loss_eval)
        assert calls == []

    @pytest.mark.parametrize("noise_draws", [0, -1, float("nan")])
    def test_no_draws_rejected(self, noise_draws):
        # as critical_sigma rejects them, before any loss is evaluated
        calls = []
        loss_eval = lambda v: calls.append(v) or self.loss_eval(v)
        for search in (lambda: noise_delta_loss(np.ones(3), 0.1, "absolute", loss_eval,
                                                noise_draws=noise_draws),
                       lambda: critical_sigma(np.ones(3), [0.1], "absolute", loss_eval,
                                              noise_draws=noise_draws)):
            with pytest.raises(InvalidInputError, match="noise_draws must be >= 1"):
                search()
        assert calls == []


class TestCriticalSigma:
    def test_lower_bound_above_tolerance_raises(self):
        # the loss increase at sigma = 1e-6 is positive: half of it is out of reach
        loss_eval = lambda w: float(np.sum(w**2))
        floor = noise_delta_loss(np.zeros(4), 1e-6, "absolute", loss_eval, 4, 0)
        assert floor > 0
        with pytest.raises(UnreachableToleranceError, match=r"at sigma=1e-06$"):
            critical_sigma(np.zeros(4), [floor / 2], "absolute", loss_eval, noise_draws=4, seed=0)

    def test_draws_each_unit_perturbation_once_per_search(self, monkeypatch):
        streams = []
        monkeypatch.setattr(compress, "rng_stream", lambda seed, k: streams.append(k) or
                            rng_stream(seed, k))
        loss_eval = lambda w: float(np.sum(w**2))
        (res,) = critical_sigma(np.zeros(4), [0.04], "absolute", loss_eval, noise_draws=4, seed=0)
        assert streams == [0, 1, 2, 3]
        monkeypatch.undo()
        assert res.delta_loss == noise_delta_loss(np.zeros(4), res.value, "absolute", loss_eval,
                                                  4, 0)

    def test_quadratic_closed_form(self):
        # E[dLoss] = sigma^2 for K = w^2 at w* = 0, so sigma* = sqrt(eps)
        loss_eval = lambda w: float(np.sum(w**2))
        eps = 0.04
        (res,) = critical_sigma(np.zeros(1), [eps], "absolute", loss_eval, noise_draws=4096, seed=1)
        sig = res.value
        assert sig == pytest.approx(np.sqrt(eps), rel=0.05)

    def test_matches_exhaustive_grid_scan(self):
        task = make_teacher_task(MlpSpec(layer_sizes=(4, 8, 4)), 256, seed=13, teacher_gain=2.0)
        (ck,) = train_sgd(task, steps=2000, learning_rate=0.05, batch_size=32, seed=1,
                          checkpoint_schedule=(2000,))
        eps = 0.5
        (res,) = critical_sigma(ck.params, [eps], "relative", task.full_loss, noise_draws=8, seed=2)
        sig = res.value
        assert res.delta_loss == noise_delta_loss(ck.params, sig, "relative", task.full_loss, 8, 2)
        assert res.critical_value == sig
        # oracle: exhaustive geometric grid at 1% resolution with the same draws
        zs = [rng_stream(2, k).standard_normal(ck.params.shape) for k in range(8)]
        base = task.full_loss(ck.params)

        def dl(s):
            return np.mean([task.full_loss(ck.params + ck.params * s * z) for z in zs]) - base

        grid = np.geomspace(1e-6, 10.0, 1600)
        below = [s for s in grid if dl(s) <= eps]
        oracle = max(below)
        # agreement within one grid step
        step = grid[1] / grid[0]
        assert oracle / step <= sig <= oracle * step

    def test_evaluates_base_once(self):
        w = rng_stream(14, 0).uniform(-1, 1, 6)
        loss_eval = counting(lambda v: float(np.sum(v**2)), w)
        critical_sigma(w, [0.1], "relative", loss_eval)
        assert loss_eval.base_evals == 1

    def test_no_crossing_raises(self):
        with pytest.raises(UnreachableToleranceError):
            critical_sigma(np.zeros(3), [1e9], "absolute", lambda w: float(np.sum(w**2)),
                           noise_draws=2, seed=0)

    def test_grid_is_the_dyadic_geometric_midpoints(self):
        top = 2**14
        grid = [compress._sigma_at(k) for k in range(top + 1)]
        assert grid[0] == 10.0 and grid[top] == 1e-6
        assert all(a > b for a, b in zip(grid, grid[1:]))
        for k in range(1, top):
            b = k & -k
            assert grid[k] == float(np.sqrt(grid[k - b] * grid[k + b])), k
        ratios = np.array(grid[:-1]) / np.array(grid[1:])
        assert ratios == pytest.approx(10 ** (7 / top), rel=1e-9)

    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 8),
           epsilons=st.lists(st.floats(-12, 2).map(lambda k: 10.0**k), min_size=1, max_size=3),
           mode=st.sampled_from(["absolute", "relative"]))
    @settings(max_examples=60, deadline=None)
    def test_equals_float_bisection_reference(self, seed, dim, epsilons, mode):
        # a random smooth loss, bounded and not monotone in sigma: the grid
        # search probes the reference's sigmas, so it returns the same floats
        # or raises the same error, whatever the verdicts
        rng = rng_stream(seed, 0)
        w, a, f = rng.uniform(-2, 2, dim), rng.uniform(0.1, 4.0, dim), rng.uniform(0.2, 3.0, dim)
        loss_eval = lambda v: float(np.sum(a * np.sin(f * (v - w)) ** 2))

        def result(search):
            try:
                return [(r.value.hex(), r.delta_loss.hex(), r.critical_value.hex())
                        for r in search(w, epsilons, mode, loss_eval, noise_draws=2, seed=seed)]
            except UnreachableToleranceError as e:
                return type(e), str(e)

        assert result(critical_sigma) == result(reference_critical_sigma)


def nan_loss(w):
    return float("nan")


class TestNonFiniteLoss:
    """A non-finite loss increase never passes, and no search returns a NaN."""

    @pytest.mark.parametrize("mode,message", [
        ("max_abs", r"the clamp max\|w\| = 1\.0 gave non-finite loss at n_q=4$"),
        ("loss_min", r"all 64 clamp candidates gave non-finite loss at n_q=4$"),
    ])
    def test_clamp_search_raises(self, mode, message):
        with pytest.raises(QuantizationFailedError, match=message):
            critical_nq(np.linspace(-1, 1, 6), [0.1], nan_loss, mode=mode)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("mode", ["loss_min", "max_abs"])
    def test_non_finite_params_fail_before_any_clamp(self, mode, bad, monkeypatch):
        # a numerical failure (exit 2), not the spec's InvalidInputError
        def no_spec(**_):
            raise AssertionError("a clamp was tried")

        monkeypatch.setattr(compress, "QuantizationSpec", no_spec)
        w = np.linspace(-1, 1, 6)
        w[2] = bad
        loss_eval = lambda v: float(np.sum(v**2))
        message = rf"non-finite parameters \(max\|w\| = {bad}\) at n_q=4$"
        for search in (lambda: critical_nq(w, [0.1], loss_eval, mode=mode),
                       lambda: quantization_delta_loss(w, 4, loss_eval, mode=mode)):
            with pytest.raises(QuantizationFailedError, match=message):
                search()

    def test_sigma_raises_at_lower_bound(self):
        with pytest.raises(UnreachableToleranceError, match=r"sigma=1e-06$"):
            critical_sigma(np.linspace(-1, 1, 6), [0.1], "absolute", nan_loss)

    def test_fraction_raises_at_full_rank(self):
        model = MlpModel(MlpSpec(layer_sizes=(4, 6, 6, 4)))
        params = model.init_params(rng_stream(15, 0))
        with pytest.raises(UnreachableToleranceError, match="full rank"):
            critical_compression_fraction(model, params, [0.1], nan_loss)


def quadratic(seed, dim):
    """A positive-definite diagonal quadratic loss with its minimum at w."""
    rng = rng_stream(seed, 0)
    w = rng.uniform(-2, 2, dim)
    a = rng.uniform(0.1, 4.0, dim)
    return w, lambda v: float(np.sum(a * (v - w) ** 2))


class TestJointSearch:
    """One call with a list of epsilons equals one call per epsilon, bit for
    bit, in any order and with repeats, and evaluates no vector twice."""

    EPSILONS = [0.25, 0.5, 1.0]

    @pytest.mark.parametrize("mode", ["loss_min", "max_abs"])
    @pytest.mark.parametrize("name", ["4-8-4", "4-16-16-4"])
    def test_nq_on_checkpoints(self, checkpoints, name, mode):
        params, loss_eval = checkpoints[name]
        assert_joint_equals_one_call_per_epsilon(
            lambda e: critical_nq(params, e, loss_eval, mode=mode), self.EPSILONS)

    @pytest.mark.parametrize("name", ["4-8-4", "4-16-16-4"])
    def test_sigma_on_checkpoints(self, checkpoints, name):
        params, loss_eval = checkpoints[name]
        assert_joint_equals_one_call_per_epsilon(
            lambda e: critical_sigma(params, e, "relative", loss_eval, noise_draws=8, seed=2),
            self.EPSILONS)

    def test_fraction_on_checkpoint(self, checkpoints):
        params, loss_eval = checkpoints["4-16-16-4"]
        model = MlpModel(MlpSpec(layer_sizes=(4, 16, 16, 4)))
        assert_joint_equals_one_call_per_epsilon(
            lambda e: critical_compression_fraction(model, params, e, loss_eval),
            [0.02, 0.1] + self.EPSILONS)

    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 12),
           epsilons=st.lists(st.floats(1e-3, 2.0), min_size=1, max_size=3),
           mode=st.sampled_from(["absolute", "relative"]))
    @settings(max_examples=30, deadline=None)
    def test_sigma_on_quadratics(self, seed, dim, epsilons, mode):
        w, loss_eval = quadratic(seed, dim)
        assert_joint_equals_one_call_per_epsilon(
            lambda e: critical_sigma(w, e, mode, loss_eval, noise_draws=2, seed=seed), epsilons)

    @given(seed=st.integers(0, 2**32 - 1),
           epsilons=st.lists(st.floats(1e-3, 2.0), min_size=1, max_size=3))
    @settings(max_examples=30, deadline=None)
    def test_fraction_on_quadratics(self, seed, epsilons):
        model = MlpModel(MlpSpec(layer_sizes=(3, 8, 6, 2)))
        w, loss_eval = quadratic(seed, model.n_params)
        assert_joint_equals_one_call_per_epsilon(
            lambda e: critical_compression_fraction(model, w, e, loss_eval), epsilons)

    def test_evaluations_pinned_and_never_repeated(self, checkpoints):
        # critical_nq's counts are pinned in TestCriticalNq. Every sigma
        # bisection starts from the same bounds, so the joint search shares
        # its first steps: 1 + 37 sigmas x 8 draws, not 3 x (1 + 16 x 8)
        params, full_loss = checkpoints["4-16-16-4"]
        model = MlpModel(MlpSpec(layer_sizes=(4, 16, 16, 4)))
        searches = {
            "sigma": (lambda e, f: critical_sigma(params, e, "relative", f, noise_draws=8, seed=2),
                      129, 289),
            "fraction": (lambda e, f: critical_compression_fraction(model, params, e, f), 7, 9),
        }
        for name, (search, single, joint) in searches.items():
            for epsilons, n_evals in [([eps], single) for eps in self.EPSILONS] + [
                    (eps, joint) for eps in orders(self.EPSILONS).values()]:
                seen = []
                search(epsilons, lambda w: seen.append(w.tobytes()) or full_loss(w))
                assert len(seen) == n_evals, (name, epsilons)
                assert len(set(seen)) == n_evals, (name, epsilons)

    @pytest.mark.parametrize("bad", [0.5, [[0.5]], [0.5, -1.0], [float("nan")], [0.0]])
    def test_bad_epsilons_rejected(self, bad):
        loss_eval = lambda v: float(np.sum(v**2))
        model = MlpModel(MlpSpec(layer_sizes=(4, 6, 6, 4)))
        params = model.init_params(rng_stream(15, 0))
        for search in (lambda e: critical_nq(params, e, loss_eval),
                       lambda e: critical_sigma(params, e, "absolute", loss_eval),
                       lambda e: critical_compression_fraction(model, params, e, loss_eval)):
            with pytest.raises(InvalidInputError, match="epsilons"):
                search(bad)


class TestToleranceContract:
    """Every critical search returns settings whose delta_loss is within their
    epsilon, or raises UnreachableToleranceError."""

    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 8),
           epsilons=st.lists(st.floats(-15, 0).map(lambda k: 10.0**k), min_size=1, max_size=3),
           search=st.sampled_from(["nq", "sigma_absolute", "sigma_relative", "fraction"]))
    @settings(max_examples=60, deadline=None)
    def test_result_within_tolerance_or_raises(self, seed, dim, epsilons, search):
        model = MlpModel(MlpSpec(layer_sizes=(dim, 3, 2, 1)))
        w, loss_eval = quadratic(seed, model.n_params if search == "fraction" else dim)
        run = {
            "nq": lambda: critical_nq(w, epsilons, loss_eval, nq_cap=2**10),
            "sigma_absolute": lambda: critical_sigma(w, epsilons, "absolute", loss_eval,
                                                     noise_draws=2, seed=seed),
            "sigma_relative": lambda: critical_sigma(w, epsilons, "relative", loss_eval,
                                                     noise_draws=2, seed=seed),
            "fraction": lambda: critical_compression_fraction(model, w, epsilons, loss_eval),
        }[search]
        try:
            results = run()
        except UnreachableToleranceError:
            return
        assert all(r.delta_loss <= eps for r, eps in zip(results, epsilons))


@pytest.fixture(scope="module")
def trained():
    task = make_teacher_task(MlpSpec(layer_sizes=(4, 8, 8, 4)), 256, seed=14, teacher_gain=2.0)
    (ck,) = train_sgd(task, steps=3000, learning_rate=0.05, batch_size=32, seed=1,
                      checkpoint_schedule=(3000,))
    return task, ck


class TestPruneAndRetrain:
    FRACTIONS = (1.0, 0.9375, 0.5, 0.25, 1e-18)

    def test_keep_all_is_noop_flagged(self, trained):
        task, ck = trained
        (res,) = prune_and_retrain(task, ck.params, keep_fractions=[1.0], learning_rate=0.005,
                                   retrain_steps=50, seed=0)
        assert res.n_pruned == 0
        assert res.delta_loss <= 1e-9  # retraining can only improve the minimum

    def test_prune_all_units_gives_constant_predictor(self, trained):
        # floor((1 - p) N_h) reaches N_h only once 1 - p rounds to 1.0
        task, ck = trained
        (res,) = prune_and_retrain(task, ck.params, keep_fractions=[1e-18], learning_rate=0.005,
                                   retrain_steps=0, seed=0)
        assert res.n_pruned == 16
        out = task.model.forward(res.params, task.x)
        assert np.allclose(out, out[0])  # output bias only
        const_loss = task.model.loss_and_grad(res.params, task.x, task.y, need_grad=False)[0]
        assert res.delta_loss == pytest.approx(const_loss - task.full_loss(ck.params), abs=1e-12)

    def test_masked_weights_stay_exactly_zero(self, trained):
        task, ck = trained
        (res,) = prune_and_retrain(task, ck.params, keep_fractions=[0.5], learning_rate=0.005,
                                   retrain_steps=1000, seed=3)
        assert res.n_pruned == 8
        zero_idx = res.mask == 0.0
        assert np.all(res.params[zero_idx] == 0.0)

    def test_retraining_recovers_some_loss(self, trained):
        task, ck = trained
        (raw,) = prune_and_retrain(task, ck.params, keep_fractions=[0.5], learning_rate=0.005,
                                   retrain_steps=0, seed=3)
        (retrained,) = prune_and_retrain(task, ck.params, keep_fractions=[0.5],
                                         learning_rate=0.005, retrain_steps=1000, seed=3)
        assert retrained.delta_loss <= raw.delta_loss

    @pytest.mark.parametrize("retrain_steps", [0, 1, 200])
    @pytest.mark.parametrize("fractions", [FRACTIONS] + [(f,) for f in FRACTIONS],
                             ids=["K5"] + [f"K1-{f}" for f in FRACTIONS])
    def test_lockstep_equals_one_run_at_a_time(self, trained, fractions, retrain_steps):
        task, ck = trained
        results = prune_and_retrain(task, ck.params, keep_fractions=fractions,
                                    learning_rate=0.005, retrain_steps=retrain_steps, seed=3)
        assert len(results) == len(fractions)
        for frac, res in zip(fractions, results):
            ref = reference_prune_and_retrain(task, ck.params, frac, learning_rate=0.005,
                                              retrain_steps=retrain_steps, seed=3)
            assert res.delta_loss.hex() == ref.delta_loss.hex()
            assert np.array_equal(res.params, ref.params)
            assert np.array_equal(res.mask, ref.mask)
            assert res.n_pruned == ref.n_pruned

    def test_full_loss_stays_per_row(self, trained):
        # a stacked full-data forward saves little time for K times the buffers
        task, ck = trained
        prune_and_retrain(task, ck.params, keep_fractions=self.FRACTIONS, learning_rate=0.005,
                          retrain_steps=5, seed=3)
        plans = set(task.model._plans)
        assert ((len(self.FRACTIONS),), 32) in plans
        assert ((len(self.FRACTIONS),), task.n_samples) not in plans

    def test_diverging_retrain_raises_at_first_bad_step(self, trained):
        # train_sgd's rule on every run: the step named is the first whose
        # batch loss is non-finite or above the cap; one step fewer returns
        task, ck = trained
        kwargs = dict(keep_fractions=[0.9375, 0.5], learning_rate=50.0, seed=3)
        with pytest.raises(TrainingDivergedError) as err:
            prune_and_retrain(task, ck.params, retrain_steps=100, **kwargs)
        step, loss = err.value.step, err.value.loss
        assert 1 < step <= 100 and not loss <= DIVERGENCE_CAP
        prune_and_retrain(task, ck.params, retrain_steps=step - 1, **kwargs)

    @pytest.mark.parametrize("learning_rate, fractions", [
        (10.0, [1.0, 0.9375, 0.5, 0.25]),  # alone, 0.5 diverges at step 3, the others at 4
        (20.0, [0.9375, 0.5, 0.75]),  # alone, 0.5 and 0.75 at step 3, 0.9375 at 4
    ])
    def test_divergence_names_lowest_run_at_first_bad_step(self, trained, learning_rate,
                                                           fractions):
        # each run alone raises at its own first bad step; the lockstep call
        # raises at the earliest, naming the lowest such run and its own loss
        task, ck = trained
        kwargs = dict(learning_rate=learning_rate, retrain_steps=100, seed=3)
        alone = []
        for f in fractions:
            with pytest.raises(TrainingDivergedError) as err:
                prune_and_retrain(task, ck.params, [f], **kwargs)
            assert err.value.keep_fraction == f
            alone.append((err.value.step, err.value.loss.hex(), f))
        step, loss, frac = min(alone, key=lambda a: a[0])  # min keeps the first of a tie
        assert frac != fractions[0]
        with pytest.raises(TrainingDivergedError) as err:
            prune_and_retrain(task, ck.params, fractions, **kwargs)
        assert (err.value.step, err.value.loss.hex(), err.value.keep_fraction) == (step, loss, frac)
        assert str(err.value).endswith(f"while retraining keep fraction {frac}")

    @pytest.mark.parametrize("fractions", [[], [0.5, 0.0], [1.5]])
    def test_bad_keep_fractions_rejected(self, trained, fractions):
        task, ck = trained
        with pytest.raises(InvalidInputError):
            prune_and_retrain(task, ck.params, keep_fractions=fractions, learning_rate=0.005)
