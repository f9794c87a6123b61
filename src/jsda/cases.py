"""Pinned regression cases: threshold-classifier divergence vs Jensen-Shannon.

Two exactly-computable constructions on the real line demonstrate that the
two divergences order either way: interleaved disjoint uniforms make the
threshold divergence tiny while JS saturates at 1, and a same-support
reweighting makes JS smaller than the threshold divergence. The printed
reference numbers are frozen here with their tolerances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .divergence import divergence, h_divergence_1d, js_divergence
from .pmf import DistributionError, Pmf, _fsum, mixture


@dataclass(frozen=True)
class CaseReport:
    """Computed values next to expected (value, tolerance) pairs.

    ``checks`` holds named inequality verdicts that have no target number.
    The overall verdict is true iff every expected value matches within its
    tolerance and every check passed.
    """

    case_id: str
    computed: Mapping[str, float]
    expected: Mapping[str, tuple[float, float]]
    checks: Mapping[str, bool] = field(default_factory=dict)
    verdict: bool = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "verdict", all(row["ok"] for row in self.rows()))

    def rows(self) -> list[dict]:
        out = []
        for k, (v, tol) in self.expected.items():
            out.append({"case": self.case_id, "quantity": k,
                        "computed": self.computed[k], "expected": v,
                        "tolerance": tol,
                        "ok": abs(self.computed[k] - v) <= tol})
        for k, ok in self.checks.items():
            out.append({"case": self.case_id, "quantity": k,
                        "computed": self.computed.get(k, float(ok)),
                        "expected": float("nan"), "tolerance": float("nan"),
                        "ok": ok})
        return out


def _exact_uniform(coords: list[float]) -> Pmf:
    # nudge one atom by <= 1 ulp so the probabilities sum to exactly 1.0,
    # which keeps the disjoint-support JS bit-exact at 1 in base 2
    probs = np.full(len(coords), 1.0 / len(coords))
    for _ in range(3):
        residual = 1.0 - _fsum(probs)
        if residual == 0.0:
            break
        probs[0] += residual
    return Pmf(tuple(coords), probs)


def interleaved_uniforms(xi: float) -> tuple[Pmf, Pmf]:
    """Disjoint-support pair: target on even multiples of xi up to 1, source on odd."""
    if not 0.0 < xi < 1.0:
        raise DistributionError("xi must lie in (0, 1)")
    t_coords = [2 * k * xi for k in range(int(math.floor(1.0 / (2 * xi))) + 1)]
    s_coords = [(2 * k + 1) * xi
                for k in range(int(math.floor((1.0 / xi - 1.0) / 2)) + 1)]
    return _exact_uniform(t_coords), _exact_uniform(s_coords)


def counterexample1(xi: float) -> CaseReport:
    """Small threshold divergence, saturated JS: the disjoint interleaving.

    JS in base 2 must equal 1 exactly (disjoint supports); the threshold
    sweep value is recorded as computed and only required to sit strictly
    below JS.
    """
    t, s = interleaved_uniforms(xi)
    js = js_divergence(t, s, "2")
    h_div = h_divergence_1d(t, s)
    return CaseReport(
        case_id="disjoint_interleaving",
        computed={"js_base2": js, "threshold_divergence": h_div},
        expected={"js_base2": (1.0, 0.0)},
        checks={"threshold_divergence_below_js": h_div < js},
    )


def _same_support_pair() -> tuple[Pmf, Pmf]:
    """Source uniform on {1, 2, 3} and target (1/4, 1/2, 1/4)."""
    points = (1.0, 2.0, 3.0)
    return Pmf.uniform(points), Pmf(points, np.array([0.25, 0.5, 0.25]))


def case_divergence_values(base) -> list[tuple[str, float]]:
    """The same-support case's (kind, value) KL components and JS, in the requested base."""
    s, t = _same_support_pair()
    m = mixture(t, s)
    return [("KL", divergence("KL", s, m, base)), ("KL", divergence("KL", t, m, base)),
            ("JS", divergence("JS", t, s, base))]


def counterexample2() -> CaseReport:
    """Same-support reweighting where JS drops below the threshold divergence.

    Source uniform on {1,2,3}, target (1/4, 1/2, 1/4). Pinned values:
    threshold divergence exactly 1/12; in base 2 the two mixture KL
    components are 0.02110 and 0.02032 and their average is 0.0207.
    """
    s, t = _same_support_pair()
    kl_s, kl_t, js = (value for _, value in case_divergence_values("2"))
    h_div = h_divergence_1d(t, s)
    return CaseReport(
        case_id="same_support_reweighting",
        computed={"threshold_divergence": h_div, "js_base2": js,
                  "kl_source_vs_mixture_base2": kl_s,
                  "kl_target_vs_mixture_base2": kl_t},
        expected={"threshold_divergence": (1.0 / 12.0, 1e-12),
                  "js_base2": (0.0207, 5e-4),
                  "kl_source_vs_mixture_base2": (0.02110, 5e-5),
                  "kl_target_vs_mixture_base2": (0.02032, 5e-5)},
        checks={"js_below_threshold_divergence": js < h_div},
    )
