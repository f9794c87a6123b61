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
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Literal

import numpy as np

from .pmf import DistributionError, JointPmf, LogBase, Pmf, _log_with_base, align_supports

DivergenceKind = Literal["KL", "JS", "TV", "Renyi2"]


def _nonnegative(value: float) -> float:
    """``value``, with rounding noise above -1e-15 set to 0.0; below it an error."""
    if value < 0 and value > -1e-15:
        return 0.0
    if value < 0:
        raise DistributionError(f"negative divergence {value!r}")
    return value


@dataclass(frozen=True)
class DivergenceValue:
    kind: DivergenceKind
    value: float
    base: LogBase

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", _nonnegative(self.value))

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, "base": self.base, "value": self.value}


def _paired_probs(p: Pmf | JointPmf, q: Pmf | JointPmf) -> tuple[np.ndarray, np.ndarray]:
    """Union-aligned probability vectors for any same-shape pair."""
    if isinstance(p, JointPmf) and isinstance(q, JointPmf):
        if p.x_atoms != q.x_atoms or p.y_atoms != q.y_atoms:
            raise DistributionError("joint divergence requires identical supports")
        return p.mass.ravel(), q.mass.ravel()
    if isinstance(p, Pmf) and isinstance(q, Pmf):
        if p.atoms == q.atoms:
            return p.probs, q.probs
        pa, qa = align_supports(p, q)
        return pa.probs, qa.probs
    raise DistributionError("divergence requires two Pmfs or two JointPmfs")


# The kernels take aligned probability lists (``ndarray.tolist()``): a loop
# over Python floats is several times faster than one over numpy scalars.

def _kl(p: list[float], q: list[float], log) -> float:
    terms = []
    for pi, qi in zip(p, q):
        if pi > 0.0:
            if qi <= 0.0:
                return math.inf
            terms.append(pi * log(pi / qi))
    return math.fsum(terms)


def _js(p: list[float], q: list[float], log) -> float:
    # p/m taken as 2p/(p+q): the same bits as p/(0.5*(p+q)) wherever halving
    # is exact, and never a zero mixture on a subnormal atom
    p_terms, q_terms = [], []
    for pi, qi in zip(p, q):
        if pi > 0.0:
            p_terms.append(pi * log(2.0 * pi / (pi + qi)))
        if qi > 0.0:
            q_terms.append(qi * log(2.0 * qi / (pi + qi)))
    return 0.5 * (math.fsum(p_terms) + math.fsum(q_terms))


def _js_nats(p: list[float], q: list[float]) -> float:
    """JS in nats of two aligned probability lists, clamped as ``divergence`` does."""
    return _nonnegative(_js(p, q, math.log))


def _renyi2(p: list[float], q: list[float], log) -> float:
    total = []
    for pi, qi in zip(p, q):
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
    pp, qq = (a.tolist() for a in _paired_probs(p, q))
    _log_with_base(base)  # rejects an unsupported base
    # computing directly in the requested base keeps e.g. the disjoint-support
    # JS bit-exact in base 2 (log2 of an exact power of two is exact)
    log = math.log2 if base == "2" else math.log
    if kind == "KL":
        v = _kl(pp, qq, log)
    elif kind == "JS":
        v = _js(pp, qq, log)
    elif kind == "TV":
        v = math.fsum(abs(a - b) for a, b in zip(pp, qq))
    elif kind == "Renyi2":
        v = _renyi2(pp, qq, log)
    else:
        raise DistributionError(f"unknown divergence kind {kind!r}")
    return DivergenceValue(kind, v, base)


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


def js_distance(p, q, base: LogBase = "e") -> float:
    """sqrt(JS); a valid statistical metric (triangle inequality holds)."""
    return math.sqrt(js_divergence(p, q, base))


def _exact_prefix_sums(masses: list[float]) -> np.ndarray:
    """``[0, m0, m0 + m1, ...]``, each prefix its exact sum correctly rounded."""
    ratios = [m.as_integer_ratio() for m in masses]
    d = max(b for _, b in ratios)
    return np.array([0.0, *(n / d for n in accumulate(a * (d // b) for a, b in ratios))])


def h_divergence_1d(p: Pmf, q: Pmf) -> float:
    """Threshold-classifier divergence 1 - 2 min_h err(h) on the real line.

    The atoms are the points (``Pmf.coords``). The hypothesis class is all
    threshold functions h_t (label 1 for x < t) together with their
    complements. err(h) is the misclassification rate of the balanced
    half/half mixture of the two distributions. Atoms that round to the same
    float are merged first. Split k puts the first k of the n sorted distinct
    coordinates c below the threshold: t = c[k] realises it exactly, even
    between adjacent floats, and t = +inf realises split n, so the sweep
    reads all n + 1 splits (split 0 has err 0.5).

    The cumulative masses are exact: each float is an integer over a power of
    two, so over the largest denominator the numerators add exactly as ints,
    and one correctly rounded ``int / int`` per prefix gives the bits
    ``float(Fraction)`` would. One sort and one array pass: O(n log n).
    """
    def as_points(d: Pmf) -> dict[float, float]:
        pts: dict[float, float] = {}
        for c, m in zip(d.coords, d.probs.tolist()):
            pts[c] = pts.get(c, 0.0) + m
        return pts

    pp, qq = as_points(p), as_points(q)
    coords = sorted(set(pp) | set(qq))
    p_cum = _exact_prefix_sums([pp.get(c, 0.0) for c in coords])
    q_cum = _exact_prefix_sums([qq.get(c, 0.0) for c in coords])
    # labeling A: h_t says "first distribution" below t
    err_a = 0.5 * (1.0 - p_cum) + 0.5 * q_cum
    return 1.0 - 2.0 * float(min(err_a.min(), (1.0 - err_a).min()))


def pushforward(p: Pmf, mapping: Callable) -> Pmf:
    """Image distribution of the Pmf p under a total map on its support.

    Mass of atoms colliding in the image is summed. Image atom order follows
    first appearance.
    """
    out: dict = {}
    order: list = []
    for atom, m in zip(p.atoms, p.probs.tolist()):
        image = mapping(atom)
        if image not in out:
            out[image] = 0.0
            order.append(image)
        out[image] += m
    probs = np.array([out[a] for a in order])
    return Pmf(tuple(order), probs / math.fsum(probs.tolist()))
