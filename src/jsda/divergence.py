"""Exact f-divergences and the threshold-classifier divergence.

Divergences are computed by direct summation over finite supports, after
union alignment. KL and Renyi-2 report +inf (a representable result, not an
exception) whenever the second argument fails to dominate the first; JS is
always finite and bounded by log 2 in the chosen base.

Two total-variation conventions coexist on purpose: the primary ``TV`` kind
is the sum-of-absolute-differences form (range [0, 2]) that the Pinsker-style
inequality uses, while :func:`half_total_variation` is the halved metric
(range [0, 1]) under which the sandwich ``tv^2/2 <= JS <= tv`` holds in nats.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Callable, Literal

import numpy as np

from .pmf import (Axis, DistributionError, JointPmf, LogBase, Pmf, _log_with_base,
                  align_supports, conditional_rows)

DivergenceKind = Literal["KL", "JS", "TV", "Renyi2"]


@dataclass(frozen=True)
class DivergenceValue:
    kind: DivergenceKind
    value: float
    base: LogBase

    def __post_init__(self) -> None:
        if self.value < 0 and self.value > -1e-15:
            object.__setattr__(self, "value", 0.0)
        if self.value < 0:
            raise DistributionError(f"negative divergence {self.value!r}")

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, "base": self.base, "value": self.value}


def _paired_probs(p: Pmf | JointPmf, q: Pmf | JointPmf) -> tuple[np.ndarray, np.ndarray]:
    """Union-aligned probability vectors for any same-shape pair."""
    if isinstance(p, JointPmf) and isinstance(q, JointPmf):
        if p.x_atoms != q.x_atoms or p.y_atoms != q.y_atoms:
            raise DistributionError("joint divergence requires identical supports")
        return p.mass.ravel(), q.mass.ravel()
    if isinstance(p, Pmf) and isinstance(q, Pmf):
        # coordinates on both sides still need align_supports' conflict check
        if p.atoms == q.atoms and None in (p.coords, q.coords):
            return p.probs, q.probs
        pa, qa = align_supports(p, q)
        return pa.probs, qa.probs
    raise DistributionError("divergence requires two Pmfs or two JointPmfs")


def _log_fn(base: LogBase | float):
    # computing directly in the requested base keeps e.g. the disjoint-support
    # JS bit-exact in base 2 (log2 of an exact power of two is exact)
    _log_with_base(base)
    return math.log2 if base in ("2", 2, 2.0) else math.log


def _kl(p: np.ndarray, q: np.ndarray, log) -> float:
    terms = []
    for pi, qi in zip(p.tolist(), q.tolist()):
        if pi > 0.0:
            if qi <= 0.0:
                return math.inf
            terms.append(pi * log(pi / qi))
    return math.fsum(terms)


def _js(p: np.ndarray, q: np.ndarray, log) -> float:
    # p/m taken as 2p/(p+q): the same bits as p/(0.5*(p+q)) wherever halving
    # is exact, and never a zero mixture on a subnormal atom
    p_terms, q_terms = [], []
    for pi, qi in zip(p.tolist(), q.tolist()):
        if pi > 0.0:
            p_terms.append(pi * log(2.0 * pi / (pi + qi)))
        if qi > 0.0:
            q_terms.append(qi * log(2.0 * qi / (pi + qi)))
    return 0.5 * (math.fsum(p_terms) + math.fsum(q_terms))


def _js_nats(p: np.ndarray, q: np.ndarray) -> float:
    """JS in nats of two aligned probability arrays, clamped as ``divergence`` does."""
    return DivergenceValue("JS", _js(p, q, math.log), "e").value


def _renyi2(p: np.ndarray, q: np.ndarray, log) -> float:
    total = []
    for pi, qi in zip(p.tolist(), q.tolist()):
        if pi > 0.0:
            if qi <= 0.0:
                return math.inf
            total.append(pi * pi / qi)
    return log(math.fsum(total))


def divergence(kind: DivergenceKind, p: Pmf | JointPmf, q: Pmf | JointPmf,
               base: LogBase = "e") -> DivergenceValue:
    """Exact divergence of the given kind between two same-shape objects.

    JS uses the symmetric even mixture 1/2[KL(p||m) + KL(q||m)],
    m = (p + q)/2. KL and Renyi2 return +inf on non-domination. TV ignores
    the base (it is not logarithmic).
    """
    pp, qq = _paired_probs(p, q)
    log = _log_fn(base)
    if kind == "KL":
        v = _kl(pp, qq, log)
    elif kind == "JS":
        v = _js(pp, qq, log)
    elif kind == "TV":
        v = math.fsum(abs(a - b) for a, b in zip(pp.tolist(), qq.tolist()))
    elif kind == "Renyi2":
        v = _renyi2(pp, qq, log)
    else:
        raise DistributionError(f"unknown divergence kind {kind!r}")
    base_name: LogBase = "e" if base in ("e", math.e) else "2"
    return DivergenceValue(kind, v, base_name)


def js_divergence(p, q, base: LogBase = "e") -> float:
    return divergence("JS", p, q, base).value


def kl_divergence(p, q, base: LogBase = "e") -> float:
    return divergence("KL", p, q, base).value


def total_variation(p, q) -> float:
    """Sum-of-absolute-differences total variation, in [0, 2]."""
    return divergence("TV", p, q).value


def half_total_variation(p, q) -> float:
    """Halved total variation metric, in [0, 1]."""
    return 0.5 * total_variation(p, q)


def _conditional_js(s: JointPmf, t: JointPmf, axis: Axis) -> tuple:
    """(s rows, t rows, {atom: JS}) of two same-support joints.

    Each rows entry is that joint's ``conditional_rows(·, axis)``. The JS
    (nats) between the two conditionals at each atom where both exist equals
    ``js_divergence`` of the ``conditionals`` Pmfs bit for bit.
    """
    s_rows, t_rows = conditional_rows(s, axis), conditional_rows(t, axis)
    (atoms, s_w, s_probs), (_, t_w, t_probs) = s_rows, t_rows
    js = {a: _js_nats(p, q) for a, sw, tw, p, q in zip(atoms, s_w, t_w, s_probs, t_probs)
          if sw > 0 and tw > 0}
    return s_rows, t_rows, js


def js_distance(p, q, base: LogBase = "e") -> float:
    """sqrt(JS); a valid statistical metric (triangle inequality holds)."""
    return math.sqrt(js_divergence(p, q, base))


def h_divergence_1d(p: Pmf, q: Pmf) -> float:
    """Threshold-classifier divergence 1 - 2 min_h err(h) on the real line.

    The hypothesis class is all threshold functions h_t (label 1 for x < t)
    together with their complements. err(h) is the misclassification rate of
    the balanced half/half mixture of the two distributions. Finite supports
    make the optimum exactly attainable on midpoints between consecutive
    distinct coordinates plus sentinels below and above the range; atoms with
    tied coordinates are merged first.
    """
    if p.coords is None or q.coords is None:
        raise DistributionError("threshold divergence needs real coordinates")

    def as_points(d: Pmf) -> dict[float, float]:
        pts: dict[float, float] = {}
        for c, m in zip(d.coords, d.probs.tolist()):
            pts[c] = pts.get(c, 0.0) + m
        return pts

    pp, qq = as_points(p), as_points(q)
    coords = sorted(set(pp) | set(qq))
    thresholds = [coords[0] - 1.0]
    thresholds += [0.5 * (a + b) for a, b in zip(coords, coords[1:])]
    thresholds += [coords[-1] + 1.0]
    # float() of an exact Fraction sum is correctly rounded, as math.fsum is
    p_cum = [0.0, *map(float, accumulate(Fraction(pp.get(c, 0.0)) for c in coords))]
    q_cum = [0.0, *map(float, accumulate(Fraction(qq.get(c, 0.0)) for c in coords))]

    best = 0.5
    for t in thresholds:
        # bisect keeps c < t where a midpoint of adjacent floats rounds onto c
        k = bisect_left(coords, t)
        # labeling A: h_t says "first distribution" below t
        err_a = 0.5 * (1.0 - p_cum[k]) + 0.5 * q_cum[k]
        best = min(best, err_a, 1.0 - err_a)
    return 1.0 - 2.0 * best


def pushforward(p: Pmf | JointPmf, mapping: Callable) -> Pmf:
    """Image distribution of p under a total map on its support.

    Mass of atoms colliding in the image is summed. Image atom order follows
    first appearance. Joints are flattened to Pmfs over (x, y) pairs first.
    """
    src = p.flatten() if isinstance(p, JointPmf) else p
    out: dict = {}
    order: list = []
    for atom, m in zip(src.atoms, src.probs.tolist()):
        image = mapping(atom)
        if image not in out:
            out[image] = 0.0
            order.append(image)
        out[image] += m
    probs = np.array([out[a] for a in order])
    return Pmf(tuple(order), probs / math.fsum(probs.tolist()))
