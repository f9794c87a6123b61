"""Exact f-divergences and the threshold-classifier divergence.

Divergences are computed by direct summation over finite supports, after
union alignment. KL and Renyi-2 report +inf (a representable result, not an
exception) whenever the second argument fails to dominate the first; JS is
always finite and at most log 2 up to rounding. Each ratio fl(2p/fl(p + q))
is at most 2, so with u = 2**-53 and ``math.log`` within one ulp each log is
at most log 2 + u in nats and 1 in bits; three roundings follow. JS is thus
at most (log 2 + u)(T_p + T_q)/2 (1 + u)**3 in nats for mass totals T, and
0.5 * (fsum(p) + fsum(q)) in bits: log 2 + 4u and 1 + 2u for totals within
2u of 1. On disjoint supports the value in nats does exceed log 2 by 1 ulp.

Two total-variation conventions coexist on purpose: the primary ``TV`` kind
is the sum-of-absolute-differences form (range [0, 2]) that the Pinsker-style
inequality uses, while :func:`half_total_variation` is the halved metric
(range [0, 1]) under which the sandwich ``tv^2/2 <= JS <= tv`` holds in nats.
"""

from __future__ import annotations

import math
from typing import Callable, Literal

import numpy as np

from . import pmf
from .pmf import DistributionError, JointPmf, Pmf, _fsum, _xlogy, align_supports

DivergenceKind = Literal["KL", "JS", "TV", "Renyi2"]
LogBase = Literal["e", "2"]


def _nonnegative(value: float) -> float:
    """``value``, with rounding noise above -1e-15 set to 0.0; below it an error."""
    if value < 0 and value > -1e-15:
        return 0.0
    if value < 0:
        raise DistributionError(f"negative divergence {value!r}")
    return value


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


# The scalar kernels loop over aligned probability lists (``ndarray.tolist()``), several
# times faster than over numpy scalars; ``_js_rows`` takes whole arrays with their bits
# from ``pmf.ARRAY_MIN_CELLS`` cells on (see ``jsda.pmf`` on sums and logs).

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


def _js_rows(P: np.ndarray, Q: np.ndarray, log) -> list[float]:
    """``_js`` of each row pair of two same-shape 2-D arrays, clamped as ``divergence``
    does, bit for bit."""
    if P.size < pmf.ARRAY_MIN_CELLS:
        return [_nonnegative(_js(p, q, log)) for p, q in zip(P.tolist(), Q.tolist())]
    both = (P > 0.0) & (Q > 0.0)
    p, q = P[both], Q[both]
    halves = []
    for A, a in ((P, p), (Q, q)):
        # 2a/(a + 0) is exactly 2 where only this side has mass; a cell without it is 0.0
        terms = A * log(2.0)
        terms[both] = _xlogy(a, 2.0 * a / (p + q), log)
        halves.append(_fsum(terms))
    js = 0.5 * (halves[0] + halves[1])
    negative = js < 0.0  # NaN and -0.0 pass, as through _nonnegative
    if negative.any():
        js[negative] = list(map(_nonnegative, js[negative].tolist()))
    return js.tolist()


def _js_pair(p: np.ndarray, q: np.ndarray, log) -> float:
    """``_js_rows`` of one pair of 1-D arrays; below ARRAY_MIN_CELLS without the 2-D trip."""
    if p.size < pmf.ARRAY_MIN_CELLS:
        return _nonnegative(_js(p.tolist(), q.tolist(), log))
    return _js_rows(p[None], q[None], log)[0]


def _renyi2(p: list[float], q: list[float], log) -> float:
    total = []
    for pi, qi in zip(p, q):
        if pi > 0.0:
            if qi <= 0.0:
                return math.inf
            total.append(pi * pi / qi)
    return log(math.fsum(total))


def divergence(kind: DivergenceKind, p: Pmf | JointPmf, q: Pmf | JointPmf,
               base: LogBase = "e") -> float:
    """Exact divergence of the given kind between two same-shape objects.

    JS uses the symmetric even mixture 1/2[KL(p||m) + KL(q||m)],
    m = (p + q)/2. KL and Renyi2 return +inf on non-domination. TV ignores
    the base (it is not logarithmic). Rounding noise above -1e-15 is
    reported as 0.0.
    """
    pa, qa = _paired_probs(p, q)
    if base not in ("e", "2"):
        raise DistributionError(f"unsupported log base {base!r}; use 'e' or '2'")
    # computing directly in the requested base keeps e.g. the disjoint-support
    # JS bit-exact in base 2 (log2 of an exact power of two is exact)
    log = math.log2 if base == "2" else math.log
    if kind == "JS":
        return _js_pair(pa, qa, log)
    pp, qq = pa.tolist(), qa.tolist()
    if kind == "KL":
        v = _kl(pp, qq, log)
    elif kind == "TV":
        v = math.fsum(abs(a - b) for a, b in zip(pp, qq))
    elif kind == "Renyi2":
        v = _renyi2(pp, qq, log)
    else:
        raise DistributionError(f"unknown divergence kind {kind!r}")
    return _nonnegative(v)


def js_divergence(p, q, base: LogBase = "e") -> float:
    return divergence("JS", p, q, base)


def kl_divergence(p, q, base: LogBase = "e") -> float:
    return divergence("KL", p, q, base)


def total_variation(p, q) -> float:
    """Sum-of-absolute-differences total variation, in [0, 2]."""
    return divergence("TV", p, q)


def half_total_variation(p, q) -> float:
    """Halved total variation metric, in [0, 1]."""
    return 0.5 * total_variation(p, q)


def js_distance(p, q, base: LogBase = "e") -> float:
    """sqrt(JS); a valid statistical metric (triangle inequality holds)."""
    return math.sqrt(js_divergence(p, q, base))


def h_divergence_1d(p: Pmf, q: Pmf) -> float:
    """Threshold-classifier divergence 1 - 2 min_h err(h) on the real line.

    The atoms are the points (``Pmf.coords``). The hypothesis class is all
    threshold functions h_t (label 1 for x < t) and their complements; err(h)
    is the error on the half/half mixture, so 1 - 2 err(h_t) = P(x < t) -
    Q(x < t) and the value is max_k |P_k - Q_k| over the splits k of the
    sorted distinct float coordinates c: t = c[k] puts exactly c[:k] below,
    even between adjacent floats, and t = +inf puts all. Atoms on one float
    (ties, ints beyond 2**53, +-0.0) share every split.

    One exact sweep over both sides: on the smallest power-of-two denominator
    every mass is an integer (its frexp mantissa times 2**53, shifted); q's
    are negated, all atoms sorted once, and a running sum of Python ints is
    P_k - Q_k at the last atom of each distinct float. The largest gap is
    divided once, so the value is correctly rounded and symmetric bit for
    bit. Cost: one O(n log n) sort and linear integer work.
    """
    coords = np.array(p.coords + q.coords)
    mant, exp = np.frexp(np.concatenate([p.probs, q.probs]))
    low = int(exp.min())
    ints = (mant * 2.0**53).astype(np.int64).astype(object) << (exp - low).astype(object)
    ints[len(p):] *= -1
    order = np.argsort(coords)  # the integer sum is exact, so any tie order will do
    c, gaps = coords[order], np.cumsum(ints[order])
    split = np.append(c[1:] != c[:-1], True)  # the last atom at each distinct float
    return int(np.abs(gaps[split]).max()) / (1 << 53 - low)


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
    return Pmf(tuple(order), probs / _fsum(probs))
