"""The headline experiment: complexity tracks compressibility across training.

A small tanh network is trained on a fixed teacher task, snapshotting
checkpoints on a doubling schedule. For each checkpoint we estimate the local
learning coefficient and search the critical quantization grid at tolerance
0.5. The estimate rises as the network absorbs structure, the critical grid
count rises with it, and the two are linearly related.

This drives the same code paths as the command-line workflow

    basinlab train-toy      --out runs/demo
    basinlab estimate-llc   --out runs/demo
    basinlab quantize-sweep --out runs/demo
    basinlab analyze        --out runs/demo

Run:  python demos/05_checkpoint_sweep.py     (about a minute)
"""

import numpy as np

from basinlab import (
    LlcConfig,
    MlpSpec,
    analyze,
    bits_per_coordinate,
    critical_nq,
    estimate_llc,
    make_teacher_task,
    train_sgd,
)

task = make_teacher_task(MlpSpec(layer_sizes=(4, 16, 16, 4)), 1024, seed=13, teacher_gain=3.0)
schedule = (400, 800, 1600, 3200, 6400, 12800, 25600, 51200)
print("training 51200 SGD steps, snapshotting on a doubling schedule...")
checkpoints = train_sgd(task, steps=51_200, learning_rate=0.03, batch_size=32, seed=1,
                        checkpoint_schedule=schedule)

cfg = LlcConfig(nbeta=30.0, gamma=300.0, step_size=2e-4, chains=8, steps_per_chain=1500,
                burn_in=300, batch_size=64, baseline_batches=16)
print("estimating the local learning coefficient at every checkpoint in one stacked call...\n")
# a (checkpoints, d) stack of w_star: one sampler steps all 8 x 8 chains at
# once, each checkpoint's estimate equal to a call with its w_star alone
estimates = estimate_llc(task, cfg, seed=7, w_star=np.stack([ck.params for ck in checkpoints]))
print(f"{'step':>7} {'train loss':>11} {'lambda_hat':>11} {'critical n_q':>13}")
lams, nqs = [], []
for ck, est in zip(checkpoints, estimates):
    nq = critical_nq(ck.params, [0.5], task.full_loss, mode="loss_min")[0].value
    lams.append(est.lambda_hat)
    nqs.append(nq)
    print(f"{ck.step:7d} {ck.train_loss:11.4f} {est.lambda_hat:11.3f} {nq:13d}")

res = analyze([c.step for c in checkpoints], lams, [float(n) for n in nqs])
print(f"\nlinear fit of critical n_q on lambda_hat: slope {res.slope:.3f}, "
      f"intercept {res.intercept:.3f}, R^2 = {res.r_squared:.3f}")

d = task.model.n_params
print(f"\nbit-budget reading: at eps = 0.5 the late checkpoint spends "
      f"{np.log2(nqs[-1]):.2f} bits per coordinate; the volume law predicts "
      f"(lambda/d) log2(1/eps) + ... = {bits_per_coordinate(lams[-1], d, 0.5):.4f} "
      f"per coordinate from the estimated exponent alone (loss landscapes of "
      f"trained networks keep far more structure than the leading term).")
print("less compressible and more complex move together: that is the point.")
