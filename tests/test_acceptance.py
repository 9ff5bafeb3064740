"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured numbers (run with -s to see them).

Every tolerance is pinned here, not configurable. The toy-scale experiment
configurations (seeds, schedules, sampler settings) are frozen; rerunning the
suite reproduces the same numbers exactly.
"""

import json
import time

import numpy as np
import pytest

from basinlab import (
    LlcConfig,
    MlpSpec,
    NormalCrossingSpec,
    SingularBernoulli,
    analyze,
    build_eps_net,
    critical_compression_fraction,
    critical_nq,
    critical_sigma,
    estimate_llc,
    factorize,
    kl_bernoulli,
    linear_fit,
    make_normal_crossing,
    make_quadratic,
    make_teacher_task,
    measured_bits_per_coordinate,
    quantization_delta_loss,
    quantize,
    rng_stream,
    sample_restricted,
    train_sgd,
    two_part_redundancy,
    validate_kl_l2,
    validate_triangle,
    validate_variance_bound,
    validate_volume_inclusions,
    volume_curve,
    fit_scaling,
    default_ladder,
    QuantizationSpec,
)
from basinlab import compress
from basinlab.cli import main as cli_main
from basinlab.compress import noise_delta_loss


def report(criterion: int, detail: str, t0: float | None = None):
    timing = f"  [{time.monotonic() - t0:.0f}s]" if t0 is not None else ""
    print(f"\n[criterion {criterion:2d}] PASS  {detail}{timing}")


# the three pictured geometries: regular bowl, one free direction, one
# quartic-degenerate direction (exponents 1, 1/2, 1/4 in d = 2)
def fig_geometries():
    return [
        (make_quadratic(2), 1.0),
        (make_normal_crossing(NormalCrossingSpec(dim=2, exponents=(1,), active_dims=(0,))), 0.5),
        (make_normal_crossing(NormalCrossingSpec(dim=2, exponents=(2,), active_dims=(0,))), 0.25),
    ]


LLC_ORACLE_CFG = LlcConfig(nbeta=30.0, gamma=1.0, step_size=1.2e-3, chains=4,
                           steps_per_chain=2000, burn_in=200)


def test_c01_volume_scaling_recovery():
    """Criterion 1: fit recovers the exponent within 10% on all three geometries."""
    t0 = time.monotonic()
    measured = []
    for landscape, lam_true in fig_geometries():
        curve = volume_curve(landscape, default_ladder(2, 10), 1_000_000, seed=1)
        fit = fit_scaling(curve, multiplicity_mode="select_by_fit")
        assert abs(fit.lam - lam_true) <= 0.10 * lam_true, landscape.name
        assert fit.multiplicity == 1
        measured.append((landscape.name, lam_true, fit.lam))
    report(1, "volume scaling: " + "; ".join(
        f"{n}: {m:.4f} (true {t})" for n, t, m in measured), t0)


def test_c02_llc_gaussian_oracle():
    """Criterion 2: quadratic-landscape estimates match the closed form within 10%."""
    t0 = time.monotonic()
    details = []
    for d in (1, 2, 4, 8):
        oracle = (d / 2) * 30.0 / (30.0 + 0.5)
        est = estimate_llc(make_quadratic(d), LLC_ORACLE_CFG, seed=9)
        assert abs(est.lambda_hat - oracle) <= 0.10 * oracle, f"d={d}"
        details.append(f"d={d}: {est.lambda_hat:.4f}/{oracle:.4f}")
    report(2, "llc vs Gaussian closed form: " + "; ".join(details), t0)


def test_c03_llc_ordering():
    """Criterion 3: estimates order the three geometries correctly for 5/5 seeds."""
    quad = make_quadratic(2)
    k1 = make_normal_crossing(NormalCrossingSpec(dim=2, exponents=(1,), active_dims=(0,)))
    k12 = make_normal_crossing(NormalCrossingSpec(dim=2, exponents=(1, 2)))
    rows = []
    for seed in range(5):
        vals = [estimate_llc(L, LLC_ORACLE_CFG, seed=seed).lambda_hat for L in (quad, k1, k12)]
        assert vals[0] > vals[1] > vals[2], f"seed {seed}: {vals}"
        rows.append(vals)
    means = np.mean(rows, axis=0)
    report(3, f"ordering 5/5 seeds: {means[0]:.3f} > {means[1]:.3f} > {means[2]:.3f}")


def test_c04_redundancy_slope():
    """Criterion 4: median two-part redundancy grows like (1/2) log n within 0.15."""
    t0 = time.monotonic()
    model = SingularBernoulli()
    # the exponent of this KL landscape, independently confirmed by the
    # criterion-1 method on the same model
    curve = volume_curve(model.kl_landscape(), default_ladder(2, 10), 1_000_000, seed=4)
    fit = fit_scaling(curve, multiplicity_mode="select_by_fit")
    assert abs(fit.lam - 0.5) <= 0.05 and fit.multiplicity == 2

    a = 0.1  # deep-asymptotic grid constant; see the redundancy demos
    ns = [2**k for k in range(6, 15)]
    medians = []
    for n in ns:
        net = build_eps_net(model, a / n)
        runs = [two_part_redundancy(model, model.truth, n=n, a=a, seed=s, net=net)
                for s in range(50)]
        medians.append(float(np.median([r.redundancy for r in runs])))
    slope = linear_fit(np.log(ns), np.array(medians)).slope
    assert np.all(np.diff(medians) > 0)  # increasing in log n
    assert abs(slope - 0.5) <= 0.15
    report(4, f"redundancy slope {slope:.4f} (target 0.5 +/- 0.15); "
              f"volume-fit confirmation lambda={fit.lam:.4f}, m={fit.multiplicity}", t0)


def test_c05_lemma_audits():
    """Criterion 5: zero violations of the three KL inequalities at 1e4 instances,
    one stacked call per validator, as lemma-audit makes them."""
    t0 = time.monotonic()
    m_simplex = 0.2
    rng = rng_stream(50, 0)
    n = 10_000
    qs, ps, p2s = (sample_restricted(rng, n, 3, m_simplex) for _ in range(3))
    checks = (validate_kl_l2(qs, ps, m_simplex), validate_triangle(qs, ps, p2s, m_simplex),
              validate_variance_bound(qs, ps))
    sandwich, triangle, variance = (int(np.count_nonzero(~chk.passed)) for chk in checks)
    assert all(chk.passed.shape == (n,) for chk in checks)
    assert sandwich == 0 and triangle == 0 and variance == 0
    report(5, f"lemma audits at {n} instances each: 0 violations "
              f"(norm sandwich, pseudo-triangle C=2.5, variance bound)", t0)


def test_c06_volume_inclusion_sandwich():
    """Criterion 6: the volume sandwich holds for 20 random configurations."""
    model = SingularBernoulli()
    rng = rng_stream(60, 0)
    lo, hi = model.image_interval()
    grid = np.linspace(lo, hi, 20_001)
    for i in range(20):
        eps = float(np.exp(rng.uniform(np.log(1e-4), np.log(1e-1))))
        theta_q = float(model.prob_one(model.bounds.sample(rng, 1)[0]))
        ok = grid[kl_bernoulli(theta_q, grid) <= eps]
        theta_star = float(rng.choice(ok))
        chk = validate_volume_inclusions(model, theta_q, theta_star, eps)
        assert chk.passed_volumes, f"config {i}: eps={eps}"
        assert chk.passed_pointwise
    report(6, "volume inclusion sandwich: 20/20 configurations within 3 SE "
              "(pointwise ordering exact under common random numbers)")


def test_c07_quantization_mechanics(monkeypatch):
    """Criterion 7: grid mechanics and loss-min dominance over the full lattice."""
    rng = rng_stream(70, 0)
    vectors = rng.uniform(-2.0, 2.0, size=(1000, 8))
    nqs = list(range(4, 65, 2))
    curvature = rng.uniform(0.5, 2.0, 8)
    # a coarse clamp search keeps 31,000 searches fast; dominance holds at any grid
    monkeypatch.setattr(compress, "_GRID_POINTS", 8)
    monkeypatch.setattr(compress, "_REL_TOL", 0.02)
    for nq in nqs:
        spec = QuantizationSpec(n_q=nq, m_clamp=1.3)
        q = quantize(vectors, spec)
        assert np.array_equal(quantize(q, spec), q)                      # idempotent
        assert np.array_equal(quantize(-vectors, spec), -q)              # odd symmetric
        assert len(np.unique(q)) <= nq - 1                               # grid cardinality
    for i, w in enumerate(vectors):
        loss_eval = lambda v: float(np.sum(curvature * (v - w) ** 2))
        for nq in nqs:
            dl_min = quantization_delta_loss(w, nq, loss_eval, "loss_min")
            dl_max = quantization_delta_loss(w, nq, loss_eval, "max_abs")
            assert dl_min <= dl_max + 1e-12, f"vector {i}, n_q {nq}"
    report(7, f"quantization mechanics on {len(vectors)} vectors x {len(nqs)} grids: "
              "idempotence, odd symmetry, cardinality, loss-min dominance all hold")


def test_c08_critical_search_oracle_equivalence():
    """Criterion 8: every critical search matches an exhaustive-scan oracle."""
    task = make_teacher_task(MlpSpec(layer_sizes=(4, 16, 16, 4)), 256, seed=4, teacher_gain=2.0)
    (ck,) = train_sgd(task, steps=2000, learning_rate=0.05, batch_size=32, seed=1,
                      checkpoint_schedule=(2000,))
    details = []

    for eps in (0.5, 0.25):
        found = critical_nq(ck.params, [eps], task.full_loss)[0].value
        scan = next(nq for nq in range(4, 400, 2)
                    if quantization_delta_loss(ck.params, nq, task.full_loss) <= eps)
        assert found == scan
        details.append(f"n_q*({eps})={found}")

    base = task.full_loss(ck.params)
    eps = 0.1
    (res,) = critical_compression_fraction(task.model, ck.params, [eps], task.full_loss)
    scan = next(j for j in range(1, 17)
                if task.full_loss(factorize(task.model, ck.params, j / 16).params) - base <= eps)
    assert res.value == scan / 16
    details.append(f"rank*={round(res.value * 16)}")

    eps = 0.5
    (res,) = critical_sigma(ck.params, [eps], "relative", task.full_loss, noise_draws=8, seed=2)
    sig = res.value
    grid = np.geomspace(1e-6, 10.0, 1600)
    oracle = max(s for s in grid
                 if noise_delta_loss(ck.params, s, "relative", task.full_loss, 8, 2) <= eps)
    step = grid[1] / grid[0]
    assert oracle / step <= sig <= oracle * step
    details.append(f"sigma*={sig:.4f} (oracle {oracle:.4f})")
    report(8, "critical searches match exhaustive scans: " + "; ".join(details))


def test_c09_toy_checkpoint_sweep():
    """Criterion 9: the frozen toy run has a rising complexity estimate and a
    linear critical-n_q relation with R^2 >= 0.8."""
    t0 = time.monotonic()
    task = make_teacher_task(MlpSpec(layer_sizes=(4, 16, 16, 4)), 1024, seed=13, teacher_gain=3.0)
    sched = (400, 800, 1600, 3200, 6400, 12800, 25600, 51200)
    cks = train_sgd(task, steps=51200, learning_rate=0.03, batch_size=32, seed=1,
                    checkpoint_schedule=sched)
    assert len(cks) >= 8
    assert cks[-1].train_loss < cks[0].train_loss  # well-conditioned defaults improve
    cfg = LlcConfig(nbeta=30.0, gamma=300.0, step_size=2e-4, chains=8, steps_per_chain=1500,
                    burn_in=300, batch_size=64, baseline_batches=16)
    lams = [estimate_llc(task, cfg, seed=7, w_star=c.params).lambda_hat for c in cks]
    nqs = [critical_nq(c.params, [0.5], task.full_loss, mode="loss_min")[0].value for c in cks]

    pairs = len(lams) - 1
    nondecreasing = sum(1 for i in range(1, len(lams)) if lams[i] >= lams[i - 1])
    assert nondecreasing >= 0.8 * pairs
    res = analyze([c.step for c in cks], lams, [float(n) for n in nqs])
    assert res.r_squared >= 0.8
    report(9, f"toy sweep over {len(cks)} checkpoints: lambda_hat nondecreasing "
              f"{nondecreasing}/{pairs} pairs, critical-n_q fit R^2={res.r_squared:.3f}", t0)


def test_c10_bits_law():
    """Criterion 10: measured critical bits grow like (lambda/d) log2(1/eps)
    within 25% on the three geometries."""
    eps_ladder = 2.0 ** (-np.arange(4, 9, dtype=float))
    details = []
    for landscape, lam_true in fig_geometries():
        curve = volume_curve(landscape, eps_ladder, 1_000_000, seed=10)
        bits = [measured_bits_per_coordinate(v, curve.total_volume, landscape.dim)
                for v in curve.volumes]
        slope = linear_fit(np.log2(1.0 / curve.epsilons), np.array(bits)).slope
        target = lam_true / landscape.dim
        assert abs(slope - target) <= 0.25 * target, landscape.name
        details.append(f"{landscape.name}: {slope:.4f}/{target}")
    report(10, "critical bits per coordinate vs log2(1/eps): " + "; ".join(details))


def test_c11_cli_determinism(tmp_path):
    """Criterion 11: every subcommand reproduces byte-identical CSV output."""
    cfg = {
        "epsilons": [0.5],
        "data": {"n_samples": 256, "seed": 13, "teacher_gain": 2.0},
        "training": {"steps": 800, "learning_rate": 0.05, "batch_size": 32, "seed": 1,
                     "checkpoint_schedule": [200, 400, 800]},
        "llc": {"chains": 2, "steps_per_chain": 200, "burn_in": 40, "seed": 7},
        "prune": {"keep_fractions": [0.5], "retrain_steps": 50},
        "mdl": {"n_powers": [6, 8], "n_seeds": 3, "mc_samples": 20000},
        "audit": {"instances": 300, "inclusion_configs": 2},
        "volume": {"samples": 50000},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    ordered = ["train-toy", "estimate-llc", "volume-fit", "quantize-sweep",
               "factorize-sweep", "noise-sweep", "prune-sweep", "mdl-redundancy",
               "lemma-audit", "analyze"]
    blobs = {}
    for run in ("a", "b"):
        out = tmp_path / run
        for sub in ordered:
            code = cli_main([sub, "--config", str(cfg_path), "--out", str(out)])
            assert code == 0, sub
        blobs[run] = {f.name: f.read_bytes() for f in out.iterdir() if f.suffix == ".csv"}
    assert set(blobs["a"]) == set(blobs["b"])
    for name in blobs["a"]:
        assert blobs["a"][name] == blobs["b"][name], name
    report(11, f"{len(ordered)} subcommands rerun byte-identically "
               f"({len(blobs['a'])} CSV files compared)")
