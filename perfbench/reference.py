"""Reference computations for the benchmark's output checks.

Written apart from jsda, with numpy and scipy only, so that a check compares
the program against a second derivation rather than against itself. Every
function takes plain arrays (or scenario parameters) and returns floats.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special, stats

LN2 = math.log(2.0)


def kl(p: np.ndarray, q: np.ndarray) -> float:
    """KL(p || q) in nats on aligned arrays; +inf when q does not dominate p."""
    return math.fsum(special.rel_entr(np.ravel(p), np.ravel(q)).tolist())


def js(p: np.ndarray, q: np.ndarray) -> float:
    """Jensen-Shannon divergence in nats on aligned arrays."""
    p, q = np.ravel(p), np.ravel(q)
    m = 0.5 * (p + q)
    return 0.5 * (kl(p, m) + kl(q, m))


def js_scale(p: np.ndarray, q: np.ndarray) -> float:
    """Sum of the absolute terms of js(p, q): the scale of its rounding error.

    A JS value far below its terms (near-equal p and q) loses relative
    accuracy to cancellation, so tolerances on it are relative to this sum.
    """
    p, q = np.ravel(p), np.ravel(q)
    m = 0.5 * (p + q)
    return 0.5 * float(np.abs(special.rel_entr(p, m)).sum()
                       + np.abs(special.rel_entr(q, m)).sum())


def tv(p: np.ndarray, q: np.ndarray) -> float:
    """Sum-of-absolute-differences total variation, in [0, 2]."""
    return math.fsum(np.abs(np.ravel(p) - np.ravel(q)).tolist())


def _row_js(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """JS of each row pair of two (n, k) arrays whose rows are distributions."""
    m = 0.5 * (a + b)
    return 0.5 * (special.rel_entr(a, m).sum(axis=1) + special.rel_entr(b, m).sum(axis=1))


def decomposition(s_mass: np.ndarray, t_mass: np.ndarray, axis: str) -> tuple[float, float]:
    """(marginal JS, summed expected conditional JS) of two |X| x |Y| grids.

    axis "x" takes the feature marginal and the label-given-feature
    conditionals; axis "y" the label marginal and the feature-given-label
    conditionals. The conditional JS is averaged once under the target's and
    once under the source's marginal, and the two averages are added.
    """
    if axis == "y":
        s_mass, t_mass = s_mass.T, t_mass.T
    s_marg, t_marg = s_mass.sum(axis=1), t_mass.sum(axis=1)
    both = (s_marg > 0) & (t_marg > 0)
    per_atom = _row_js(t_mass[both] / t_marg[both, None], s_mass[both] / s_marg[both, None])
    cond = (math.fsum((t_marg[both] * per_atom).tolist())
            + math.fsum((s_marg[both] * per_atom).tolist()))
    return js(s_marg / s_marg.sum(), t_marg / t_marg.sum()), cond


def conditional_js(s_mass: np.ndarray, t_mass: np.ndarray, axis: str) -> np.ndarray:
    """Per-atom JS between the conditionals of two grids (axis as above)."""
    if axis == "y":
        s_mass, t_mass = s_mass.T, t_mass.T
    s_marg, t_marg = s_mass.sum(axis=1), t_mass.sum(axis=1)
    return _row_js(s_mass / s_marg[:, None], t_mass / t_marg[:, None])


def prefix_gap(p_coords, p_probs, q_coords, q_probs) -> float:
    """max over thresholds t of |P(x < t) - Q(x < t)| on the real line."""
    coords = np.union1d(p_coords, q_coords)
    p_at = np.bincount(np.searchsorted(coords, p_coords), weights=p_probs,
                       minlength=coords.size)
    q_at = np.bincount(np.searchsorted(coords, q_coords), weights=q_probs,
                       minlength=coords.size)
    return float(np.max(np.abs(np.cumsum(p_at) - np.cumsum(q_at)), initial=0.0))


def midpoint_rule(source_means: np.ndarray) -> tuple[np.ndarray, float]:
    """The perpendicular bisector of two class means: predict 1 iff w.x + b > 0."""
    mu0, mu1 = np.asarray(source_means, dtype=float)
    w = mu1 - mu0
    return w, -float(w @ (mu0 + mu1)) / 2.0


def gaussian_linear_risk(means, covs, marginal, w: np.ndarray, b: float) -> float:
    """Closed-form zero-one risk of a linear rule on a two-class Gaussian mixture.

    Given class y, w.x + b is normal with mean w.mu_y + b and variance
    w' Sigma_y w, so the rule errs on class 1 with probability
    Phi(-m/sd) and on class 0 with probability Phi(m/sd).
    """
    risk = 0.0
    for y, sign in ((0, 1.0), (1, -1.0)):
        m = float(w @ means[y] + b)
        sd = math.sqrt(float(w @ covs[y] @ w))
        risk += float(marginal[y]) * float(stats.norm.cdf(sign * m / sd))
    return risk


def forward_accuracy(params: dict, xs: np.ndarray, ys: np.ndarray) -> float:
    """Accuracy of the tanh extractor + linear classifier on (xs, ys)."""
    hidden = np.tanh(xs @ params["w1"].T + params["b1"])
    feats = hidden @ params["w2"].T + params["b2"]
    logits = feats @ params["wh"].T + params["bh"]
    return float(np.mean(np.argmax(logits, axis=1) == ys))
