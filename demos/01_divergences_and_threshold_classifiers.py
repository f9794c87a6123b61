"""Exact divergences on finite supports, and why the threshold-classifier
divergence and Jensen-Shannon divergence are NOT interchangeable.

Two tiny constructions on the real line order the two quantities in opposite
directions: interleaved disjoint uniforms have a tiny classifier divergence
but saturated JS, while a same-support reweighting has JS strictly below the
classifier divergence. Neither can serve as a proxy for the other.
"""

import numpy as np

from jsda import (
    Pmf,
    counterexample1,
    counterexample2,
    divergence,
    h_divergence_1d,
    js_distance,
    js_divergence,
    mixture,
    pushforward,
    total_variation,
)


def banner(title):
    print(f"\n{'=' * 72}\n{title}\n{'=' * 72}")


banner("Basic divergences between two three-atom distributions")
coords = (1.0, 2.0, 3.0)
s = Pmf.uniform(coords)
t = Pmf(coords, np.array([0.25, 0.5, 0.25]))
m = mixture(t, s)
print("source          :", dict(zip(s.atoms, s.probs.round(4))))
print("target          :", dict(zip(t.atoms, t.probs.round(4))))
print("even mixture    :", dict(zip(m.atoms, m.probs.round(4))))
for kind in ("KL", "JS", "TV", "Renyi2"):
    v = divergence(kind, t, s, "2")
    print(f"{kind:7s} (base 2) = {v.value:.6f}")
print(f"JS distance (metric) = {js_distance(t, s, '2'):.6f}")

banner("Case 1: disjoint interleaved uniforms -- JS saturates, thresholds do not")
rep1 = counterexample1(1.0 / 12.0)
print(f"JS (base 2)            = {rep1.computed['js_base2']} (exactly 1)")
print(f"threshold divergence   = {rep1.computed['threshold_divergence']:.6f}")
print(f"verdict (JS >> d_H)    = {rep1.verdict}")

banner("Case 2: same support, reweighted -- JS drops below the threshold value")
rep2 = counterexample2()
for k, v in rep2.computed.items():
    print(f"{k:30s} = {v:.6f}")
print(f"verdict (JS < d_H)     = {rep2.verdict}")

banner("The threshold sweep is exactly the best CDF split")
print("err(h_t) minimized over all thresholds and both labelings;")
print(f"1 - 2*min err = {h_divergence_1d(t, s):.6f}  (= 1/12)")

banner("Data processing: divergences never grow under a deterministic map")
rng = np.random.default_rng(0)
p = Pmf(tuple(range(6)), rng.dirichlet(np.ones(6)))
q = Pmf(tuple(range(6)), rng.dirichlet(np.ones(6)))
merge = lambda a: a // 2
print(f"JS before merge = {js_divergence(p, q):.6f} nats")
print(f"JS after merge  = {js_divergence(pushforward(p, merge), pushforward(q, merge)):.6f} nats")
print(f"TV before/after = {total_variation(p, q):.4f} / "
      f"{total_variation(pushforward(p, merge), pushforward(q, merge)):.4f}")
