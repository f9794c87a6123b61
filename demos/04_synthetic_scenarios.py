"""Synthetic scenarios with hypothesis-exact discretizations.

Each scenario kind realizes one shift regime exactly on the grid, so the
discretized joints are valid fixtures for the corresponding bound: label
shift keeps the per-class conditionals identical, cofeature keeps
label-given-feature fixed, open-set controls the label-space overlap.
"""

import numpy as np

from jsda import (
    conditionals,
    discretize,
    js_divergence,
    make_scenario,
    marginals,
    sample,
)


def banner(title):
    print(f"\n{'=' * 72}\n{title}\n{'=' * 72}")


banner("Label shift: identical class conditionals, shifted label marginal")
sc = make_scenario("label-shift", source_label_marginal=(0.5, 0.5),
                   target_label_marginal=(0.8, 0.2), seed=1)
s = discretize(sc, "source", grid=32)
t = discretize(sc, "target", grid=32)
s_cond, t_cond = conditionals(s, "x|y"), conditionals(t, "x|y")
worst = max(js_divergence(s_cond[y], t_cond[y]) for y in (0, 1))
_, s_y = marginals(s)
_, t_y = marginals(t)
print(f"max per-class conditional JS on the grid: {worst:.2e} (exactly matched)")
print(f"label marginal JS: {js_divergence(s_y, t_y):.6f} nats")
print(f"joint JS:          {js_divergence(s, t):.6f} nats (equals the label term)")

banner("Cofeature shift: label-given-feature fixed, feature marginal moved")
sc2 = make_scenario("cofeature", feature_shift=(1.5, 0.5), seed=1)
s2 = discretize(sc2, "source", grid=32)
t2 = discretize(sc2, "target", grid=32)
s2_cond, t2_cond = conditionals(s2, "y|x"), conditionals(t2, "y|x")
worst2 = max(js_divergence(s2_cond[x], t2_cond[x]) for x in s2.x_atoms)
s2_x, _ = marginals(s2)
t2_x, _ = marginals(t2)
print(f"max per-cell label-conditional JS: {worst2:.2e}")
print(f"feature marginal JS: {js_divergence(s2_x, t2_x):.5f} nats")
print(f"joint JS:            {js_divergence(s2, t2):.5f} nats (equals the feature term)")

banner("Conditional shift: rotated class means")
sc3 = make_scenario("conditional-shift", rotation_deg=40.0, seed=1)
for grid in (32, 64):
    s3 = discretize(sc3, "source", grid=grid)
    t3 = discretize(sc3, "target", grid=grid)
    print(f"grid {grid:3d}x{grid:<3d} joint JS = {js_divergence(s3, t3):.6f} nats")
print("(refining the grid moves the value by well under 5%)")

banner("Open set: 10 classes per domain, half shared")
sc4 = make_scenario("open-set", n=10, alpha=0.5, seed=1)
shared = np.count_nonzero((sc4.source_label_marginal > 0)
                          & (sc4.target_label_marginal > 0))
print(f"classes: {sc4.n_classes} total, {shared} shared (= floor(0.5 * 10))")

banner("Sampling is reproducible and matches the marginals")
batch1 = sample(sc, "target", 20_000)
batch2 = sample(sc, "target", 20_000)
freq = np.bincount(batch1.ys, minlength=2) / len(batch1)
print(f"two draws identical: {np.array_equal(batch1.xs, batch2.xs)}")
print(f"target label frequencies at n=20k: {freq.round(4)} (marginal 0.8/0.2)")
