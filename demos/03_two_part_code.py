"""A two-part code whose hypothesis cost reflects parameter volume.

Sender and receiver share the singular Bernoulli model p_w(1) = 1/2 + w1 w2
and an epsilon-net of its image. A hypothesis costs log(Vol(W)/V^R) nats,
where V^R is the parameter volume mapping into the reversed-KL ball of the
chosen net center: distributions that occupy more of parameter space are
cheaper to state. The data then cost n * K_n(center) extra nats versus the
ideal code.

The total excess (redundancy) grows like lambda * log n with lambda = 1/2,
half the rate a regular two-parameter model would pay.

Run:  python demos/03_two_part_code.py
"""

import numpy as np

from basinlab import SingularBernoulli, build_eps_net, linear_fit, two_part_redundancy

model = SingularBernoulli()
q = model.truth

print("epsilon-net anatomy at eps = 1e-3:\n")
net = build_eps_net(model, epsilon=1e-3)
order = np.argsort(net.thetas)
print(f"  {net.n_centers} centers; overlap mass {net.overlap_mass:.3f}")
print(f"  {'p(1)':>8} {'V^R':>10} {'nats':>8}")
for i in order[:: max(1, len(order) // 8)]:
    print(f"  {net.thetas[i]:8.4f} {net.vr_volumes[i]:10.5f} {net.code_lengths[i]:8.3f}")
central = net.nearest(0.5)
print(f"  cheapest hypothesis is the degenerate one at p(1)={net.thetas[central]:.4f} "
      f"({net.code_lengths[central]:.3f} nats)\n")

print("redundancy growth, median over 50 data seeds, grid tolerance 0.1/n:\n")
a = 0.1
ns = [2**k for k in range(6, 15)]
medians = []
for n in ns:
    net = build_eps_net(model, a / n)
    runs = [two_part_redundancy(model, q, n=n, a=a, seed=s, net=net) for s in range(50)]
    med = float(np.median([r.redundancy for r in runs]))
    medians.append(med)
    print(f"  n = {n:6d}: median R_n = {med:6.3f} nats "
          f"(code {np.median([r.code_length for r in runs]):.3f}, "
          f"data excess {np.median([r.excess_data_nats for r in runs]):+.3f})")

slope = linear_fit(np.log(ns), np.array(medians)).slope
print(f"\n  slope of median R_n against log n: {slope:.4f}")
print("  a regular 2-parameter model pays d/2 = 1.0 per log n; the degenerate")
print("  truth costs half that, with a slowly-decaying log log n correction")
print("  still visible at these n (the slope climbs toward 0.5 from below).")

print("\ngrid-constant tradeoff at n = 2^14 (finer grids cost description length,")
print("coarser grids cost data length):\n")
n = 2**14
for a_try in (0.1, 1.0, 10.0):
    net = build_eps_net(model, a_try / n)
    runs = [two_part_redundancy(model, q, n=n, a=a_try, seed=s, net=net) for s in range(50)]
    print(f"  a = {a_try:5g}: median R_n = {np.median([r.redundancy for r in runs]):6.3f} nats")
