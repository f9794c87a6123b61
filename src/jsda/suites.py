"""Seeded randomized verification suites for every bound and inequality.

Each suite draws independent random instances (full-support grids so every
conditional exists), evaluates one verifier, and emits its BoundReports.
`run_suite(name, trials, seed)` is deterministic in (name, trials, seed);
the CLI turns the reports into one CSV row per instance.

The divergence inequalities (Pinsker, the half-TV sandwich, the metric
triangle inequality for sqrt(JS), data processing) are expressed as
BoundReports too, so a single violation scan covers everything.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable

import numpy as np

from .bounds import (
    BoundReport,
    TailParams,
    conditional_shift_lower_bound,
    decomposed_upper_bound,
    intrinsic_error_upper_bound,
    joint_upper_bound,
    matched_conditional_band,
    prediction_gap_lower_bound,
    zero_one_band,
)
from .divergence import (
    half_total_variation,
    js_distance,
    js_divergence,
    kl_divergence,
    pushforward,
    total_variation,
)
from .pmf import JointPmf, LossTable, Pmf, marginals
from .scenarios import _check_integer


PMF_MAX_ATOMS, JOINT_MAX_X, JOINT_MAX_Y = 10, 8, 4  # largest random support sizes


def random_pmf(rng: np.random.Generator, n: int | None = None) -> Pmf:
    if n is None:
        n = int(rng.integers(2, PMF_MAX_ATOMS + 1))
    probs = rng.uniform(1e-6, 1.0, n)
    return Pmf(tuple(range(n)), probs / math.fsum(probs.tolist()))


def random_joint(rng: np.random.Generator, nx: int | None = None,
                 ny: int | None = None) -> JointPmf:
    if nx is None:
        nx = int(rng.integers(2, JOINT_MAX_X + 1))
    if ny is None:
        ny = int(rng.integers(2, JOINT_MAX_Y + 1))
    mass = rng.uniform(1e-6, 1.0, (nx, ny))
    mass /= math.fsum(mass.ravel().tolist())
    return JointPmf(tuple(range(nx)), tuple(range(ny)), mass)


def random_joint_pair(rng: np.random.Generator) -> tuple[JointPmf, JointPmf]:
    s = random_joint(rng)
    return s, random_joint(rng, *s.shape)


def _random_loss(rng: np.random.Generator, shape: tuple[int, int],
                 zero_one: bool = False) -> LossTable:
    if zero_one:
        values = rng.integers(0, 2, shape).astype(float)
        if values.min() == values.max():
            values.flat[0] = 1.0 - values.flat[0]
        return LossTable(values)
    g = float(rng.uniform(0.5, 3.0))
    return LossTable(g * rng.random(shape))


def _joint_upper_instance(rng) -> list[BoundReport]:
    s, t = random_joint_pair(rng)
    l = _random_loss(rng, s.shape)
    g = l.range_g
    return [
        joint_upper_bound(s, t, l, TailParams("bounded", g=g)),
        joint_upper_bound(s, t, l, TailParams("subgaussian", sigma=g / 2.0)),
        joint_upper_bound(s, t, l, TailParams("subgamma", sigma=g * g / 4.0,
                                              a=0.2 * g)),
    ]


def _zero_one_band_instance(rng) -> list[BoundReport]:
    s, t = random_joint_pair(rng)
    return [zero_one_band(s, t, _random_loss(rng, s.shape, zero_one=True))]


def _decomposition_instance(axis: str) -> Callable:
    def gen(rng) -> list[BoundReport]:
        s, t = random_joint_pair(rng)
        l = _random_loss(rng, s.shape)
        joint = joint_upper_bound(s, t, l)
        split = decomposed_upper_bound(s, t, l, axis=axis)
        chain = BoundReport(
            name=f"decomposition_chain_{axis}",
            lhs=split.extras["joint_js_nats"],
            bound_hi=split.extras["marginal_js_nats"] + split.extras["conditional_js_nats"])
        dominates = BoundReport(name=f"decomposition_dominates_{axis}",
                                lhs=joint.bound_hi, bound_hi=split.bound_hi)
        return [split, chain, dominates]
    return gen


def _intrinsic_error_instance(rng) -> list[BoundReport]:
    s, t = random_joint_pair(rng)
    return [intrinsic_error_upper_bound(s, t)]


def _matched_conditional_instance(rng) -> list[BoundReport]:
    nz = int(rng.integers(2, 9))
    cond = rng.uniform(1e-6, 1.0, (2, nz))
    cond /= cond.sum(axis=1, keepdims=True)
    s_y = rng.uniform(0.05, 1.0, 2)
    s_y /= s_y.sum()
    t_y = rng.uniform(0.05, 1.0, 2)
    t_y /= t_y.sum()

    def joint(marg: np.ndarray) -> JointPmf:
        mass = cond.T * marg[None, :]
        mass /= math.fsum(mass.ravel().tolist())
        return JointPmf(tuple(range(nz)), (0, 1), mass)

    l = _random_loss(rng, (nz, 2), zero_one=True)
    return [matched_conditional_band(joint(s_y), joint(t_y), l)]


def _prediction_gap_instance(rng) -> list[BoundReport]:
    s, t = random_joint_pair(rng)
    channel = rng.uniform(1e-6, 1.0, s.shape)
    channel /= channel.sum(axis=1, keepdims=True)
    s_x, s_y = marginals(s)
    t_x, t_y = marginals(t)
    s_pred, t_pred = (Pmf(s.y_atoms, pred / pred.sum())
                      for pred in (s_x.probs @ channel, t_x.probs @ channel))
    return [prediction_gap_lower_bound(s_y, t_y, s_pred, t_pred,
                                       observed_feature_js=js_divergence(s_x, t_x, "e"))]


def _conditional_shift_instance(rng) -> list[BoundReport]:
    s, t = random_joint_pair(rng)
    return [conditional_shift_lower_bound(s, t)]


def _pinsker_instance(rng) -> list[BoundReport]:
    p = random_pmf(rng)
    q = random_pmf(rng, n=len(p))
    kl = kl_divergence(p, q, "e")
    return [BoundReport(name="pinsker", lhs=total_variation(p, q),
                        bound_hi=math.sqrt(2.0 * kl))]


def _sandwich_instance(rng) -> list[BoundReport]:
    p = random_pmf(rng)
    q = random_pmf(rng, n=len(p))
    tv = half_total_variation(p, q)
    return [BoundReport(name="js_tv_sandwich", lhs=js_divergence(p, q, "e"),
                        bound_lo=0.5 * tv * tv, bound_hi=tv)]


def _triangle_instance(rng) -> list[BoundReport]:
    n = int(rng.integers(2, 11))
    p, q, r = (random_pmf(rng, n=n) for _ in range(3))
    return [BoundReport(name="js_distance_triangle", lhs=js_distance(p, r),
                        bound_hi=js_distance(p, q) + js_distance(q, r))]


def _data_processing_instance(rng) -> list[BoundReport]:
    n = int(rng.integers(3, 11))
    k = int(rng.integers(2, n + 1))
    p = random_pmf(rng, n=n)
    q = random_pmf(rng, n=n)
    table = rng.integers(0, k, n)
    mapping = dict(zip(p.atoms, table.tolist()))
    push_p = pushforward(p, mapping.__getitem__)
    push_q = pushforward(q, mapping.__getitem__)
    return [
        BoundReport(name="data_processing_js", lhs=js_divergence(push_p, push_q, "e"),
                    bound_hi=js_divergence(p, q, "e")),
        BoundReport(name="data_processing_kl", lhs=kl_divergence(push_p, push_q, "e"),
                    bound_hi=kl_divergence(p, q, "e")),
    ]


_SUITES: dict[str, Callable] = {
    "joint-upper": _joint_upper_instance,
    "zero-one-band": _zero_one_band_instance,
    "decomposition-x": _decomposition_instance("x"),
    "decomposition-y": _decomposition_instance("y"),
    "intrinsic-error": _intrinsic_error_instance,
    "matched-conditional": _matched_conditional_instance,
    "prediction-gap": _prediction_gap_instance,
    "conditional-shift-floor": _conditional_shift_instance,
    "pinsker": _pinsker_instance,
    "sandwich": _sandwich_instance,
    "js-triangle": _triangle_instance,
    "data-processing": _data_processing_instance,
}

SUITE_NAMES: tuple[str, ...] = tuple(_SUITES)


def run_suite(name: str, trials: int, seed: int) -> list[BoundReport]:
    """All reports from ``trials`` independent instances of one suite."""
    if name not in _SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    _check_integer(trials, "trials", 1, ValueError)
    rng = np.random.default_rng([seed, SUITE_NAMES.index(name)])
    gen = _SUITES[name]
    reports: list[BoundReport] = []
    for _ in range(trials):
        reports.extend(gen(rng))
    return reports


def violations(reports: Iterable[BoundReport]) -> list[BoundReport]:
    return [r for r in reports if not r.holds]
