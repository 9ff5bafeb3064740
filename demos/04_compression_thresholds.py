"""Four ways to compress a trained network, and their critical thresholds.

A trained checkpoint is perturbed by symmetric quantization, low-rank
factorization, Gaussian parameter noise, and unit pruning with retraining.
For the first three, a critical search finds the most aggressive setting
whose loss increase stays within the tolerance; pruning curves are shown raw
(they are too rugged for a threshold to mean much).

Run:  python demos/04_compression_thresholds.py
"""

import numpy as np

from basinlab import (
    MlpSpec,
    critical_compression_fraction,
    critical_nq,
    critical_sigma,
    factorize,
    make_teacher_task,
    noise_delta_loss,
    prune_and_retrain,
    quantization_delta_loss,
    train_sgd,
)

EPSILON = 0.5

task = make_teacher_task(MlpSpec(layer_sizes=(4, 16, 16, 4)), 1024, seed=13, teacher_gain=3.0)
(ck,) = train_sgd(task, steps=25_600, learning_rate=0.03, batch_size=32, seed=1,
                  checkpoint_schedule=(25_600,))
base = task.full_loss(ck.params)
print(f"checkpoint at step {ck.step}: train loss {base:.4f}, "
      f"{task.model.n_params} parameters; tolerance eps = {EPSILON}\n")

print("quantization (clamp searched to minimize the quantized loss):")
for nq in (4, 8, 16, 32):
    dl = quantization_delta_loss(ck.params, nq, task.full_loss)
    print(f"  n_q = {nq:3d}: delta loss = {dl:8.4f}")
nq_star = critical_nq(ck.params, EPSILON, task.full_loss).value
print(f"  critical n_q = {nq_star}  ({np.log2(nq_star):.2f} bits per coordinate)\n")

print("low-rank factorization of the interior 16x16 layer:")
for j in (2, 4, 8, 16):
    res = factorize(task.model, ck.params, j / 16)
    print(f"  rank {j:2d}: delta loss = {task.full_loss(res.params) - base:8.4f}, "
          f"stored-parameter ratio {res.compression_fraction:.3f}")
crit = critical_compression_fraction(task.model, ck.params, EPSILON, task.full_loss)
print(f"  critical rank = {round(crit.value * 16)} (keep fraction {crit.value:.3f}, "
      f"parameter ratio {crit.critical_value:.3f})\n")

print("relative Gaussian parameter noise, mean over 8 draws:")
for sigma in (0.01, 0.05, 0.2, 0.8):
    dl = noise_delta_loss(ck.params, sigma, "relative", task.full_loss, 8, seed=2)
    print(f"  sigma = {sigma:4.2f}: delta loss = {dl:8.4f}")
sig_star = critical_sigma(ck.params, EPSILON, "relative", task.full_loss, noise_draws=8, seed=2).value
print(f"  critical sigma = {sig_star:.4f}\n")

print("random unit pruning with 1000 masked retraining steps (lr/10):")
for keep in (0.875, 0.75, 0.5, 0.25):
    res = prune_and_retrain(task, ck.params, keep_fraction=keep,
                            learning_rate=0.003, retrain_steps=1000, seed=3)
    print(f"  keep {keep:5.3f} ({res.n_pruned:2d} units pruned): "
          f"delta loss = {res.delta_loss:+8.4f}")
print("  (curves like these are rugged; no critical threshold is searched)")
