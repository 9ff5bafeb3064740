"""Estimating the local learning coefficient by posterior sampling.

The estimator samples exp(-nbeta L(w) - (gamma/2)||w - w*||^2) with Langevin
dynamics and reports nbeta * (E[L] - L(w*)). On a quadratic bowl the Gibbs
integral is Gaussian and the expected estimate is (d/2) * nbeta/(nbeta + gamma/2),
which makes the sampler checkable to a fraction of a percent.

Run:  python demos/02_llc_sampling.py
"""

import numpy as np

from basinlab import (
    Bounds,
    Landscape,
    LlcConfig,
    NormalCrossingSpec,
    Preconditioner,
    estimate_llc,
    make_normal_crossing,
    make_quadratic,
    psgld_step,
    rng_stream,
    sgld_step,
)

cfg = LlcConfig(nbeta=30.0, gamma=1.0, step_size=1.2e-3, chains=4,
                steps_per_chain=2000, burn_in=200)

print("quadratic bowls, Gaussian closed form (d/2) nbeta/(nbeta + gamma/2):\n")
for d in (1, 2, 4, 8):
    est = estimate_llc(make_quadratic(d), cfg, seed=9)
    oracle = (d / 2) * 30.0 / 30.5
    print(f"  d={d}: lambda_hat = {est.lambda_hat:.4f}   closed form = {oracle:.4f}")

print("\ndegeneracy ordering at matched hyperparameters (5 seeds):\n")
quad = make_quadratic(2)
k1 = make_normal_crossing(NormalCrossingSpec(dim=2, exponents=(1,), active_dims=(0,)))
k12 = make_normal_crossing(NormalCrossingSpec(dim=2, exponents=(1, 2)))
for seed in range(5):
    vals = [estimate_llc(L, cfg, seed=seed).lambda_hat for L in (quad, k1, k12)]
    print(f"  seed {seed}: bowl {vals[0]:.3f} > free-dir {vals[1]:.3f} > quartic-mixed {vals[2]:.3f}")

print("""
Preconditioning: on an anisotropic bowl (curvatures 1 and 100) a single step
size cannot serve both directions; the adaptive per-coordinate step evens out
the per-coordinate loss shares.
""")

bounds = Bounds.symmetric(2, 4.0)
aniso = Landscape(
    dim=2, bounds=bounds,
    value=lambda w: w[..., 0] ** 2 + 100.0 * w[..., 1] ** 2,
    grad=lambda w: np.stack([2.0 * w[..., 0], 200.0 * w[..., 1]], axis=-1),
)


def coordinate_losses(precondition: bool) -> np.ndarray:
    c = LlcConfig(nbeta=30.0, gamma=1.0, step_size=6e-4, chains=1, steps_per_chain=10,
                  preconditioner=Preconditioner(kind="rmsprop", decay=0.9998, stabilizer=1.0)
                  if precondition else Preconditioner())
    rng = rng_stream(3, 0)
    w, v, acc, n = np.zeros(2), np.zeros(2), np.zeros(2), 0
    for t in range(80_000):
        g = aniso.grad(w)
        noise = rng.standard_normal(2)
        if precondition:
            w, v = psgld_step(w, g, np.zeros(2), c, noise, v)
        else:
            w = sgld_step(w, g, np.zeros(2), c, noise)
        w = bounds.clamp(w)  # the step functions do the arithmetic only
        if t >= 30_000:
            acc += np.array([w[0] ** 2, 100.0 * w[1] ** 2])
            n += 1
    return 30.0 * acc / n


for label, flag in (("plain   ", False), ("adaptive", True)):
    c1, c2 = coordinate_losses(flag)
    print(f"  {label}: soft-direction share {c1:.3f}, stiff-direction share {c2:.3f} "
          f"(ratio {max(c1, c2) / min(c1, c2):.2f})")
