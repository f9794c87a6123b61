"""Risk-bound calculators and empirical verifiers.

Each function computes one bound together with the exactly-computed quantity
it constrains, and returns a :class:`BoundReport` whose ``holds`` verdict is
decided at tolerance 1e-9. All bound arithmetic is in nats: the bounded-loss
upper bound comes from a sub-Gaussian moment-generating-function argument
that only closes under natural logarithms.

Every scalar argument (a risk, a divergence, a tail constant) must be a real
number (not a bool), finite and >= 0, or the call raises ``BoundInputError``;
the overlap fraction alpha must also lie in (0, 1].

The four verifiers built on the marginal-plus-conditional split take their
conditional families from one core, ``_conditional_terms``, which holds the
rules they share: identical supports, and a ``BoundInputError`` for an atom
with mass under only one joint (it has no conditional to compare).

Verifiers run on the same pair share its joint JS, conditional families,
marginal JS and summed conditional JS (``_conditional_shift``), and each
joint's risk under a loss table, through ``functools.lru_cache``. The
marginal JS reads the mass grids; its readers call ``_conditional_terms``
first, for the support check. The memos key on the ordered pair of joints
(or a joint and a loss table), which compare by identity and are read-only,
so a term of (t, s) is never taken for (s, t) and cannot go stale; they hold
at most two entries, and a raising call is not cached.

A caution on the intrinsic-error transfer bound: the inequality as
implemented is not universally valid. Near deterministic conditionals the
entropy gap can exceed sqrt(delta2/2) (e.g. S(y|x)=(1,0) vs T(y|x)=(0.9,0.1)
with equal X-marginals violates it by ~0.19 nats). The verifier reports such
instances honestly as ``holds=False``, as it does for the decomposed upper
bound, which keeps the joint upper bound's too-tight G/sqrt(2) constant.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Literal, Mapping, Sequence

import numpy as np

from .divergence import _js_pair, _js_rows, js_divergence
from .labelshift import WeightVector, _true_label_ratio, reweighted_risk
from .pmf import (Axis, JointPmf, LossTable, MarginalAxis, Pmf, _conditional_entropy, _fsum,
                  _marginal_probs, conditional_rows, expected_risk)
from .scenarios import (_check_fraction, _check_integer, linear_zero_one_risk, make_scenario,
                        midpoint_classifier, sample)

VERDICT_TOL = 1e-9
HYPOTHESIS_TOL = 1e-9

TailVariant = Literal["bounded", "subgaussian", "subgamma"]


class BoundInputError(ValueError):
    """Inputs violate a bound's hypotheses or shapes."""


def _check_nonnegative(value: float, what: str) -> None:
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not 0.0 <= value < math.inf):  # NaN fails too
        raise BoundInputError(f"{what} must be finite and >= 0")


@dataclass(frozen=True)
class TailParams:
    """Loss tail description selecting the upper-bound variant.

    ``bounded`` uses the loss range g; ``subgaussian`` uses the
    variance-factor sigma; ``subgamma`` uses the (sigma, a) pair of its
    moment-generating-function envelope.
    """

    variant: TailVariant = "bounded"
    g: float = 1.0
    sigma: float = 0.0
    a: float = 0.0

    def __post_init__(self) -> None:
        if self.variant not in ("bounded", "subgaussian", "subgamma"):
            raise BoundInputError(f"unknown tail variant {self.variant!r}")
        _check_nonnegative(self.g, "loss range g")
        _check_nonnegative(self.sigma, "sigma")
        _check_nonnegative(self.a, "a")


@dataclass(frozen=True)
class BoundReport:
    """One verified bound: the quantity, the bound, the slack, the verdict."""

    name: str
    lhs: float
    bound_lo: float = -math.inf
    bound_hi: float = math.inf
    extras: Mapping[str, float] = field(default_factory=dict)
    slack_lo: float = field(init=False)
    slack_hi: float = field(init=False)
    holds: bool = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "slack_lo", self.lhs - self.bound_lo)
        object.__setattr__(self, "slack_hi", self.bound_hi - self.lhs)
        ok = (self.bound_lo - VERDICT_TOL <= self.lhs <= self.bound_hi + VERDICT_TOL)
        object.__setattr__(self, "holds", bool(ok))

    def to_row(self) -> dict:
        return {"name": self.name, "lhs": self.lhs, "bound_lo": self.bound_lo,
                "bound_hi": self.bound_hi, "holds": self.holds}


def _gap_term(tail: TailParams, js_nats: float) -> float:
    """The divergence-driven gap for the chosen tail variant, in nats."""
    if tail.variant == "bounded":
        return tail.g / math.sqrt(2.0) * math.sqrt(js_nats)
    if tail.variant == "subgaussian":
        return tail.sigma * math.sqrt(2.0 * js_nats)
    return (tail.sigma + 1.0) * math.sqrt(2.0 * js_nats) + 2.0 * tail.a * js_nats


def joint_upper_bound(s: JointPmf, t: JointPmf, l: LossTable,
                      tail: TailParams | None = None) -> BoundReport:
    """Upper bound on the target risk from the joint divergence.

    lhs is the exact target risk; the bound is the exact source risk plus
    the tail-dependent gap: (G/sqrt(2))*sqrt(JS) for bounded losses,
    sigma*sqrt(2 JS) for sub-Gaussian ones, and
    (sigma+1)*sqrt(2 JS) + 2a*JS for the sub-Gamma envelope. ``tail``
    defaults to bounded at the loss range; a bounded g below that range raises.
    """
    if tail is None:
        tail = TailParams("bounded", g=l.range_g)
    elif tail.variant == "bounded" and tail.g + 1e-12 < l.range_g:
        raise BoundInputError(
            f"tail range g={tail.g} smaller than actual loss range {l.range_g}")
    r_t = _risk(t, l)
    r_s = _risk(s, l)
    js = _joint_js(s, t)
    hi = r_s + _gap_term(tail, js)
    return BoundReport(
        name=f"joint_upper_{tail.variant}", lhs=r_t, bound_hi=hi,
        extras={"source_risk": r_s, "joint_js_nats": js})


def _band_limits(r_s: float, width: float) -> tuple[float, float]:
    """(R_S - width, R_S + width/sqrt(2)); the zero-one band has width sqrt(JS)."""
    return r_s - width, r_s + width / math.sqrt(2.0)


def zero_one_band(s: JointPmf, t: JointPmf, l: LossTable) -> BoundReport:
    """Two-sided band R_S - sqrt(JS) <= R_T <= R_S + sqrt(JS)/sqrt(2).

    Only valid for zero-one losses: the lower side rests on a Bernoulli
    data-processing argument that needs L in {0, 1}.
    """
    if not l.is_zero_one:
        raise BoundInputError("the risk band requires zero-one loss")
    r_t = _risk(t, l)
    r_s = _risk(s, l)
    js = _joint_js(s, t)
    lo, hi = _band_limits(r_s, math.sqrt(js))
    return BoundReport(
        name="zero_one_band", lhs=r_t, bound_lo=lo, bound_hi=hi,
        extras={"source_risk": r_s, "joint_js_nats": js})


def risk_band_from_values(r_s: float, js_nats: float) -> BoundReport:
    """The zero-one band evaluated from already-known (R_S, JS) values."""
    _check_nonnegative(js_nats, "JS divergence")
    _check_nonnegative(r_s, "source risk")
    lo, hi = _band_limits(r_s, math.sqrt(js_nats))
    return BoundReport(
        name="zero_one_band", lhs=r_s, bound_lo=lo, bound_hi=hi)


@lru_cache(maxsize=2)
def _conditional_terms(s: JointPmf, t: JointPmf, axis: Axis) -> tuple:
    """((s weights, s rows), (t weights, t rows), per-atom JS in nats).

    Each (weights, rows) pair is that joint's ``conditional_rows(·, axis)``.
    The JS at an atom where both joints have mass equals ``js_divergence``
    of the two ``conditionals`` Pmfs bit for bit; it is 0.0 where neither
    has mass. An atom with mass under only one joint is an error.
    """
    if s.x_atoms != t.x_atoms or s.y_atoms != t.y_atoms:
        raise BoundInputError("conditional terms require identical supports")
    (atoms, s_w, s_rows), (_, t_w, t_rows) = conditional_rows(s, axis), conditional_rows(t, axis)
    one_sided = np.flatnonzero((s_w > 0) != (t_w > 0))
    if one_sided.size:
        raise BoundInputError(f"missing conditional at atom {atoms[one_sided[0]]!r}")
    js = np.array(_js_rows(s_rows, t_rows, math.log))  # an all-zero row pair gives 0.0
    for a in (s_w, s_rows, t_w, t_rows, js):
        a.setflags(write=False)
    return (s_w, s_rows), (t_w, t_rows), js


_CONDITIONING = {"x": "y|x", "y": "x|y"}


@lru_cache(maxsize=1)
def _joint_js(s: JointPmf, t: JointPmf) -> float:
    """``js_divergence(s, t, "e")``."""
    return js_divergence(s, t, "e")


@lru_cache(maxsize=2)
def _risk(j: JointPmf, l: LossTable) -> float:
    """``expected_risk(j, l)``."""
    return expected_risk(j, l)


@lru_cache(maxsize=2)
def _marginal_js(s: JointPmf, t: JointPmf, axis: MarginalAxis) -> float:
    """``js_divergence`` in nats of the two joints' ``marginals`` over X or Y, bit for bit."""
    return _js_pair(_marginal_probs(s, axis), _marginal_probs(t, axis), math.log)


@lru_cache(maxsize=2)
def _conditional_shift(s: JointPmf, t: JointPmf, axis: MarginalAxis) -> float:
    """Summed expected conditional JS along one axis, in nats."""
    (s_marg, _), (t_marg, _), js = _conditional_terms(s, t, _CONDITIONING[axis])
    return _fsum(t_marg * js) + _fsum(s_marg * js)


def decomposed_upper_bound(s: JointPmf, t: JointPmf, l: LossTable,
                           axis: MarginalAxis = "x") -> BoundReport:
    """Marginal-plus-conditional decomposition of the joint upper bound.

    axis="x" splits into feature-marginal shift and label-conditional shift;
    axis="y" into label-marginal shift and per-class feature-conditional
    shift. ``extras`` holds the three JS terms (joint, marginal,
    conditional); the chain rule marginal + conditional >= joint JS that the
    decomposition rests on is checked by the decomposition suites' own
    ``decomposition_chain_{axis}`` row. Each term's gap is the bounded-loss
    one at the loss range G. Caution: the chain rule holds, but the gap
    keeps joint-upper's G/sqrt(2) constant, so the bound fails wherever that
    constant is too tight.
    """
    tail = TailParams("bounded", g=l.range_g)
    cond_js, marg_js = _conditional_shift(s, t, axis), _marginal_js(s, t, axis)
    r_t = _risk(t, l)
    r_s = _risk(s, l)
    gap = _gap_term(tail, marg_js) + _gap_term(tail, cond_js)
    return BoundReport(
        name=f"decomposed_upper_{axis}", lhs=r_t, bound_hi=r_s + gap,
        extras={"source_risk": r_s, "joint_js_nats": _joint_js(s, t),
                "marginal_js_nats": marg_js, "conditional_js_nats": cond_js})


def intrinsic_error_upper_bound(s: JointPmf, t: JointPmf) -> BoundReport:
    """Transfer bound on the target conditional entropy H(Y_t|X_t).

    Uses the tightest admissible constants: eps = H(Y_s|X_s), delta1 = the
    X-marginal JS, delta2 = the max over shared x of the conditional JS, all
    in nats; the claimed bound is eps + sqrt(delta2/2) +
    (sqrt(delta1)/2) log|Y|. This inequality can genuinely fail near
    deterministic conditionals; the report then says so.
    """
    s_side, t_side, js = _conditional_terms(s, t, "y|x")
    delta2 = float(js.max())
    delta1 = _marginal_js(s, t, "x")
    eps = _conditional_entropy(*s_side)
    lhs = _conditional_entropy(*t_side)
    n_labels = len(s.y_atoms)
    hi = eps + math.sqrt(delta2 / 2.0) + math.sqrt(delta1) / 2.0 * math.log(n_labels)
    return BoundReport(
        name="intrinsic_error_upper", lhs=lhs, bound_hi=hi,
        extras={"eps_nats": eps, "delta1_nats": delta1, "delta2_nats": delta2})


def open_set_band(r_s: float, alpha: float, delta: float,
                  r_t: float | None = None) -> BoundReport:
    """Risk band under partially overlapping uniform label spaces.

    alpha is the shared fraction of classes, delta an upper bound on the
    per-class feature-conditional JS. The band is
    R_S - (sqrt(1-alpha) + 2 sqrt(delta)) from below and
    R_S + (sqrt(1-alpha) + 2 sqrt(delta))/sqrt(2) from above. When a measured
    target risk is supplied it becomes the lhs; otherwise the report is the
    band itself around R_S.
    """
    _check_fraction(alpha, "overlap fraction alpha", BoundInputError)
    _check_nonnegative(delta, "conditional-shift level delta")
    _check_nonnegative(r_s, "source risk")
    if r_t is not None:
        _check_nonnegative(r_t, "target risk")
    width = math.sqrt(1.0 - alpha) + 2.0 * math.sqrt(delta)
    lo, hi = _band_limits(r_s, width)
    return BoundReport(
        name="open_set_band", lhs=r_s if r_t is None else r_t, bound_lo=lo, bound_hi=hi,
        extras={"source_risk": r_s, "band_width_term": width})


def open_set_label_pair(n: int, alpha: float) -> tuple[Pmf, Pmf, float]:
    """Uniform label marginals over two size-n class sets sharing floor(alpha*n).

    Returns the label marginals of ``make_scenario("open-set", n=n,
    alpha=alpha)`` as (source Pmf, target Pmf, measured JS in nats) on the
    union support, so a bad n or alpha raises its ``ScenarioError``. The
    measured JS equals (1 - shared/n) * ln 2, which never exceeds 1 - alpha,
    the quantity the band uses.
    """
    sc = make_scenario("open-set", n=n, alpha=alpha)
    union = tuple(range(sc.n_classes))
    s_y = Pmf(union, sc.source_label_marginal)
    t_y = Pmf(union, sc.target_label_marginal)
    return s_y, t_y, js_divergence(t_y, s_y, "e")


def matched_conditional_band(s: JointPmf, t: JointPmf, l: LossTable) -> BoundReport:
    """Band R_S +- sqrt(2 JS(S(y), T(y))) under matched class conditionals.

    Hypotheses are checked, not assumed: binary label space, zero-one loss,
    and per-class conditional JS below 1e-9 (violation raises).
    """
    if len(s.y_atoms) != 2 or len(t.y_atoms) != 2:
        raise BoundInputError("matched-conditional band requires |Y| = 2")
    if not l.is_zero_one:
        raise BoundInputError("matched-conditional band requires zero-one loss")
    (s_w, _), _, js = _conditional_terms(s, t, "x|y")
    for y, w, gap in zip(s.y_atoms, s_w.tolist(), js.tolist()):
        if w <= 0.0:
            raise BoundInputError(f"missing class conditional for label {y!r}")
        if gap > HYPOTHESIS_TOL:
            raise BoundInputError(
                f"matched-conditional hypothesis violated at label {y!r}: JS={gap:.3g}")
    label_js = _marginal_js(s, t, "y")
    r_s = _risk(s, l)
    r_t = _risk(t, l)
    width = math.sqrt(2.0 * label_js)
    return BoundReport(
        name="matched_conditional_band", lhs=r_t,
        bound_lo=r_s - width, bound_hi=r_s + width,
        extras={"source_risk": r_s, "label_js_nats": label_js})


def prediction_gap_lower_bound(s_y: Pmf, t_y: Pmf, s_pred: Pmf, t_pred: Pmf,
                               observed_feature_js: float | None = None) -> BoundReport:
    """Lower bound on the feature-marginal JS from pseudo-label quality.

    With P = JS(T(y) || T_pred(y)), eps1 = JS(S(y) || S_pred(y)) and
    eps2 = JS(S(y) || T(y)), the latent feature divergence is at least
    (sqrt(P) - sqrt(eps1) - sqrt(eps2))^2, clamped at zero. Supply the
    measured feature JS to verify a full pipeline.
    """
    if observed_feature_js is not None:
        _check_nonnegative(observed_feature_js, "observed feature JS")
    p = js_divergence(t_y, t_pred, "e")
    eps1 = js_divergence(s_y, s_pred, "e")
    eps2 = js_divergence(s_y, t_y, "e")
    root = math.sqrt(p) - math.sqrt(eps1) - math.sqrt(eps2)
    lo = max(0.0, root) ** 2
    lhs = lo if observed_feature_js is None else observed_feature_js
    return BoundReport(
        name="prediction_gap_lower", lhs=lhs, bound_lo=lo,
        extras={"p_nats": p, "eps1_nats": eps1, "eps2_nats": eps2})


def label_conditional_floor(js_label_nats: float, js_feature_nats: float) -> float:
    """2 (sqrt(label JS) - sqrt(feature JS))^2, clamped at zero.

    The floor the label-conditional shift cannot go below once the feature
    marginals have been matched; shrinking the feature JS with a fixed label
    JS raises it.
    """
    _check_nonnegative(js_label_nats, "label JS")
    _check_nonnegative(js_feature_nats, "feature JS")
    root = math.sqrt(js_label_nats) - math.sqrt(js_feature_nats)
    return 2.0 * max(0.0, root) ** 2


def conditional_shift_lower_bound(s: JointPmf, t: JointPmf) -> BoundReport:
    """Lower bound on the summed expected label-conditional shift over Z.

    lhs = E_{z~T} JS(S(y|z) || T(y|z)) + E_{z~S} JS(S(y|z) || T(y|z));
    the floor is :func:`label_conditional_floor` of the label-marginal and
    feature-marginal divergences.
    """
    cond_sum = _conditional_shift(s, t, "x")
    marg_js, label_js = _marginal_js(s, t, "x"), _marginal_js(s, t, "y")
    lo = label_conditional_floor(label_js, marg_js)
    return BoundReport(
        name="conditional_shift_lower", lhs=cond_sum, bound_lo=lo,
        extras={"label_js_nats": label_js, "feature_js_nats": marg_js})


def reweighted_convergence_check(scenario, n_grid: Sequence[int],
                                 repeats: int = 50, seed: int = 0) -> list[dict]:
    """Empirical convergence of the reweighted source risk to the target risk.

    For a matched-conditional scenario and the fixed midpoint classifier,
    draws ``repeats`` source samples of each size in ``n_grid``, reweights
    the empirical risk with the true label ratio, and tabulates the gap to
    the exactly-computed target risk. One row per sample size with the mean
    and median gap and the median of gap*sqrt(n); no rate constant is
    asserted, only reported.
    """
    _check_integer(repeats, "repeats", 1, BoundInputError)
    w_vec, b = midpoint_classifier(scenario)
    r_t = linear_zero_one_risk(scenario, "target", w_vec, b)
    weights = WeightVector(_true_label_ratio(scenario))
    rows = []
    for n in n_grid:
        gaps = []
        for r in range(repeats):
            batch = sample(scenario, "source", int(n), stream=(seed, r))
            preds = (batch.xs @ w_vec + b > 0).astype(int)
            losses = (preds != batch.ys).astype(float)
            gaps.append(abs(reweighted_risk(batch.ys, losses, weights) - r_t))
        gaps_arr = np.array(gaps)
        rows.append({
            "n": int(n),
            "mean_gap": float(gaps_arr.mean()),
            "median_gap": float(np.median(gaps_arr)),
            "median_gap_sqrt_n": float(np.median(gaps_arr) * math.sqrt(n)),
            "gaps": gaps_arr.tolist(),
        })
    return rows
