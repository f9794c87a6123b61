"""Bound-verifier tests.

Trivial identities, the worked band numbers, hypothesis-violation errors,
randomized mini-suites for the inequalities that are actually valid, and
pinned minimal counterexamples for the printed constants that are not
(the reports must say holds=False there; that is the honest verdict).
"""

import contextlib
import dataclasses
import hashlib
import importlib
import inspect
import math
from fractions import Fraction
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from jsda import (
    BoundReport,
    JointPmf,
    LossTable,
    Pmf,
    TailParams,
    conditional_shift_lower_bound,
    decomposed_upper_bound,
    expected_risk,
    intrinsic_error_upper_bound,
    joint_upper_bound,
    js_divergence,
    label_conditional_floor,
    marginals,
    matched_conditional_band,
    open_set_band,
    open_set_label_pair,
    prediction_gap_lower_bound,
    risk_band_from_values,
    zero_one_band,
)
from jsda.bounds import (BoundInputError, _conditional_shift, _conditional_terms, _joint_js,
                         _marginal_js, _risk)
from jsda.pmf import DistributionError
from jsda.scenarios import discretize, make_scenario, midpoint_classifier
from jsda.suites import random_joint, random_joint_pair, run_suite, violations
from test_divergence import ROW_SETTINGS, row_pairs

BOUNDS_MODULE = importlib.import_module("jsda.bounds")
LN2 = math.log(2.0)


def uniform_loss(shape, rng=None, zero_one=False):
    if rng is None:
        return LossTable(np.zeros(shape))
    if zero_one:
        v = rng.integers(0, 2, shape).astype(float)
        if v.min() == v.max():
            v.flat[0] = 1.0 - v.flat[0]
        return LossTable(v)
    return LossTable(rng.random(shape))


class TestReportInvariants:
    def test_holds_and_slack(self):
        r = BoundReport(name="x", lhs=1.0, bound_lo=0.5, bound_hi=2.0)
        assert r.holds and r.slack_lo == 0.5 and r.slack_hi == 1.0
        assert not BoundReport(name="x", lhs=3.0, bound_hi=2.0).holds
        assert BoundReport(name="x", lhs=2.0 + 5e-10, bound_hi=2.0).holds

    def test_tail_params_validation(self):
        with pytest.raises(BoundInputError):
            TailParams("subgaussian", sigma=-1.0)
        with pytest.raises(BoundInputError):
            TailParams("nonsense")  # type: ignore[arg-type]

    @pytest.mark.parametrize("name, what", [("g", "loss range g"), ("sigma", "sigma"), ("a", "a")])
    @pytest.mark.parametrize("value, accepted", [
        (-1.0, False), (math.nan, False), (math.inf, False), (-math.inf, False), (-0.0, True),
        (True, False), (False, False), ("1.0", False), (2, True), (Fraction(1, 2), True),
        (np.float64(0.5), True)],
        ids=["negative", "nan", "inf", "minus-inf", "negative-zero", "true", "false", "str",
             "int", "fraction", "numpy-float"])
    def test_tail_constant_contract(self, name, what, value, accepted):
        if accepted:
            assert getattr(TailParams(**{name: value}), name) is value
            return
        with pytest.raises(BoundInputError) as exc:
            TailParams(**{name: value})
        assert type(exc.value) is BoundInputError
        assert str(exc.value) == f"{what} must be finite and >= 0"


class TestJointUpper:
    def test_equal_joints_zero_slack(self):
        rng = np.random.default_rng(0)
        s = random_joint(rng)
        l = uniform_loss(s.shape, rng)
        r = joint_upper_bound(s, s, l)
        assert r.holds
        assert r.bound_hi == pytest.approx(r.lhs, abs=1e-12)

    def test_cofeature_joint_reduces_to_feature_marginal(self):
        # T(x,y) = T(x) S(y|x): the joint JS equals the X-marginal JS exactly
        rng = np.random.default_rng(1)
        s = random_joint(rng, 5, 3)
        t_x = rng.uniform(0.05, 1.0, 5)
        t_x /= t_x.sum()
        s_x = s.mass.sum(axis=1)
        t_mass = t_x[:, None] * (s.mass / s_x[:, None])
        t_mass /= t_mass.sum()
        t = JointPmf(s.x_atoms, s.y_atoms, t_mass)
        l = uniform_loss(s.shape, rng)
        r = joint_upper_bound(s, t, l)
        marg_js = js_divergence(Pmf(s.x_atoms, s_x), Pmf(t.x_atoms, t.mass.sum(axis=1)))
        expected = expected_risk(s, l) + l.range_g / math.sqrt(2) * math.sqrt(marg_js)
        assert r.bound_hi == pytest.approx(expected, abs=1e-12)

    def test_bounded_equals_subgaussian_at_half_range(self):
        rng = np.random.default_rng(2)
        s, t = random_joint_pair(rng)
        l = uniform_loss(s.shape, rng)
        a = joint_upper_bound(s, t, l, TailParams("bounded", g=l.range_g))
        b = joint_upper_bound(s, t, l, TailParams("subgaussian", sigma=l.range_g / 2))
        assert a.bound_hi == pytest.approx(b.bound_hi, rel=1e-12)

    def test_monotone_in_divergence(self):
        from jsda.bounds import _gap_term
        for tail in (TailParams("bounded", g=2.0),
                     TailParams("subgaussian", sigma=1.0),
                     TailParams("subgamma", sigma=1.0, a=0.3)):
            gaps = [_gap_term(tail, js) for js in (0.0, 1e-4, 1e-2, 0.2, LN2)]
            assert gaps == sorted(gaps)

    def test_tail_range_too_small(self):
        rng = np.random.default_rng(3)
        s, t = random_joint_pair(rng)
        l = LossTable(2.0 * rng.random(s.shape))
        tail = TailParams("bounded", g=0.1)
        with pytest.raises(BoundInputError, match="smaller"):
            joint_upper_bound(s, t, l, tail)

    def test_printed_constant_fails_on_disjoint_point_masses(self):
        # gap 1 vs (1/sqrt2)sqrt(ln 2) = 0.589: the printed bound is not valid
        s = JointPmf((0, 1), (0, 1), np.array([[1.0, 0.0], [0.0, 0.0]]))
        t = JointPmf((0, 1), (0, 1), np.array([[0.0, 0.0], [0.0, 1.0]]))
        l = LossTable(np.array([[0.0, 1.0], [1.0, 1.0]]))
        r = joint_upper_bound(s, t, l)
        assert r.lhs == 1.0 and r.extras["source_risk"] == 0.0
        assert r.bound_hi == pytest.approx(math.sqrt(LN2 / 2), abs=1e-12)
        assert not r.holds
        # the proof-consistent sub-Gamma variant does hold here
        g = l.range_g
        r2 = joint_upper_bound(s, t, l, TailParams("subgamma", sigma=g * g / 4, a=0.0))
        assert r2.holds

    def test_subgamma_suite_never_violates(self):
        reports = [r for r in run_suite("joint-upper", 300, seed=5)
                   if r.name == "joint_upper_subgamma"]
        assert len(reports) == 300
        assert not violations(reports)


class TestZeroOneBand:
    def test_worked_band_numbers(self):
        r = risk_band_from_values(0.2, 2e-4)
        assert r.bound_lo == pytest.approx(0.186, abs=5e-4)
        assert r.bound_hi == pytest.approx(0.21, abs=5e-4)
        for js in (-1e-3, math.nan, math.inf, True, "0.1"):
            with pytest.raises(BoundInputError, match="JS divergence must be finite and >= 0"):
                risk_band_from_values(0.2, js)
        for r_s in (math.nan, -0.1, math.inf, True, "0.2"):
            with pytest.raises(BoundInputError, match="source risk must be finite and >= 0"):
                risk_band_from_values(r_s, 0.1)

    def test_equal_joints_collapse(self):
        rng = np.random.default_rng(5)
        s = random_joint(rng)
        l = uniform_loss(s.shape, rng, zero_one=True)
        r = zero_one_band(s, s, l)
        assert r.bound_lo == pytest.approx(r.lhs, abs=1e-12)
        assert r.bound_hi == pytest.approx(r.lhs, abs=1e-12)

    def test_requires_binary_loss(self):
        rng = np.random.default_rng(6)
        s, t = random_joint_pair(rng)
        with pytest.raises(BoundInputError, match="zero-one"):
            zero_one_band(s, t, LossTable(0.5 * np.ones(s.shape)))

    def test_printed_constant_fails_on_disjoint_point_masses(self):
        s = JointPmf((0, 1), (0, 1), np.array([[1.0, 0.0], [0.0, 0.0]]))
        t = JointPmf((0, 1), (0, 1), np.array([[0.0, 0.0], [0.0, 1.0]]))
        l = LossTable(np.array([[1.0, 0.0], [0.0, 0.0]]))
        r = zero_one_band(s, t, l)  # R_S = 1, R_T = 0
        assert r.bound_lo == pytest.approx(1.0 - math.sqrt(LN2), abs=1e-12)
        assert not r.holds


class TestDecomposition:
    def test_identical_conditionals_reduce_to_marginal_only(self):
        rng = np.random.default_rng(7)
        nx, ny = 5, 3
        cond = rng.uniform(0.05, 1.0, (nx, ny))
        cond /= cond.sum(axis=1, keepdims=True)
        s_x = rng.uniform(0.05, 1.0, nx)
        s_x /= s_x.sum()
        t_x = rng.uniform(0.05, 1.0, nx)
        t_x /= t_x.sum()
        s = JointPmf(tuple(range(nx)), tuple(range(ny)), s_x[:, None] * cond)
        t = JointPmf(tuple(range(nx)), tuple(range(ny)), t_x[:, None] * cond)
        l = uniform_loss((nx, ny), rng)
        r = decomposed_upper_bound(s, t, l, axis="x")
        assert r.extras["conditional_js_nats"] == pytest.approx(0.0, abs=1e-12)
        direct = joint_upper_bound(s, t, l)
        # sqrt amplifies the ~1e-17 roundoff in the conditional term
        assert r.bound_hi == pytest.approx(direct.bound_hi, abs=1e-7)

    def test_label_shift_joint_kills_y_conditional_term(self):
        rng = np.random.default_rng(8)
        nz, ny = 6, 2
        cond = rng.uniform(0.05, 1.0, (ny, nz))
        cond /= cond.sum(axis=1, keepdims=True)

        def joint(marg):
            mass = cond.T * np.asarray(marg)[None, :]
            return JointPmf(tuple(range(nz)), tuple(range(ny)), mass / mass.sum())

        s, t = joint([0.5, 0.5]), joint([0.8, 0.2])
        r = decomposed_upper_bound(s, t, uniform_loss((nz, ny), rng), axis="y")
        assert r.extras["conditional_js_nats"] == pytest.approx(0.0, abs=1e-12)

    def test_inherited_constant_fails_on_pinned_instance(self):
        # trial 871 of run_suite("decomposition-y", 1000, 1001): the split
        # keeps joint-upper's G/sqrt2 constant and fails along with it
        s = JointPmf((0, 1), (0, 1), np.array([
            [0.2630774136741011, 0.2453175815332653],
            [0.19509810890265009, 0.2965068958899835]]))
        t = JointPmf((0, 1), (0, 1), np.array([
            [0.1124247643671909, 0.3899383089892718],
            [0.3185542853399931, 0.17908264130354423]]))
        l = LossTable(np.array([[0.07260047982048813, 1.1854824013931762],
                                [1.2234057307112343, 0.16636973497668583]]))
        r = decomposed_upper_bound(s, t, l, axis="y")
        assert r.slack_hi == pytest.approx(-0.0509, abs=1e-4)
        assert not r.holds
        ex = r.extras  # the chain rule still holds
        assert ex["marginal_js_nats"] + ex["conditional_js_nats"] >= ex["joint_js_nats"]
        assert not joint_upper_bound(s, t, l).holds

    def test_tail_variants_match_closed_form(self):
        # the closed-form bounded-loss gap at the loss range, from before it was
        # built from _gap_term, kept here as the oracle
        rng = np.random.default_rng(11)
        for _ in range(40):
            s, t = random_joint_pair(rng)
            l = uniform_loss(s.shape, rng)
            for axis in ("x", "y"):
                r = decomposed_upper_bound(s, t, l, axis=axis)
                roots = (math.sqrt(r.extras["marginal_js_nats"])
                         + math.sqrt(r.extras["conditional_js_nats"]))
                expected = r.extras["source_risk"] + l.range_g / math.sqrt(2.0) * roots
                assert r.bound_hi == pytest.approx(expected, rel=1e-12, abs=0)

    def test_chain_rule_and_dominance_suite(self):
        for axis in ("x", "y"):
            reports = run_suite(f"decomposition-{axis}", 300, seed=9)
            chain = [r for r in reports if r.name.startswith("decomposition_chain")]
            dom = [r for r in reports if r.name.startswith("decomposition_dominates")]
            assert len(chain) == 300 and len(dom) == 300
            assert not violations(chain)
            assert not violations(dom)


class TestIntrinsicError:
    def test_equal_joints(self):
        rng = np.random.default_rng(10)
        s = random_joint(rng)
        r = intrinsic_error_upper_bound(s, s)
        assert r.bound_hi == pytest.approx(r.extras["eps_nats"], abs=1e-12)
        assert r.lhs == pytest.approx(r.bound_hi, abs=1e-12)
        assert r.holds

    def test_zero_deltas_with_positive_entropy(self):
        rng = np.random.default_rng(11)
        s = random_joint(rng)
        r = intrinsic_error_upper_bound(s, s)
        assert r.extras["delta1_nats"] == pytest.approx(0.0, abs=1e-15)
        assert r.extras["delta2_nats"] == pytest.approx(0.0, abs=1e-15)
        assert r.extras["eps_nats"] > 0

    def test_pinned_counterexample_reports_false(self):
        # near-deterministic source conditional: the printed bound fails
        s = JointPmf((0,) * 1 + (1,), (0, 1), np.array([[0.5, 0.0], [0.5, 0.0]]))
        s = JointPmf((0, 1), (0, 1), np.array([[0.5, 0.0], [0.5, 0.0]]))
        t = JointPmf((0, 1), (0, 1), np.array([[0.45, 0.05], [0.45, 0.05]]))
        r = intrinsic_error_upper_bound(s, t)
        assert r.lhs == pytest.approx(0.32508, abs=1e-4)
        assert r.bound_hi == pytest.approx(0.13411, abs=1e-4)
        assert not r.holds

    def test_violation_rate_is_small_but_real(self):
        reports = run_suite("intrinsic-error", 1000, seed=13)
        bad = violations(reports)
        assert 0 < len(bad) < 20

    def test_one_sided_support_is_an_error(self):
        s = JointPmf((0, 1), (0, 1), np.array([[0.5, 0.5], [0.0, 0.0]]))
        t = JointPmf((0, 1), (0, 1), np.array([[0.25, 0.25], [0.25, 0.25]]))
        zero_one = LossTable(np.array([[0.0, 1.0], [1.0, 0.0]]))
        for a, b in ((s, t), (t, s)):
            with pytest.raises(BoundInputError, match="missing conditional at atom 1"):
                intrinsic_error_upper_bound(a, b)
            with pytest.raises(BoundInputError, match="missing conditional at atom 1"):
                decomposed_upper_bound(a, b, LossTable(np.zeros((2, 2))), axis="x")
            with pytest.raises(BoundInputError, match="missing conditional at atom 1"):
                conditional_shift_lower_bound(a, b)
        # the label axis: class 1 has mass in t only
        s_y = JointPmf((0, 1), (0, 1), np.array([[0.5, 0.0], [0.5, 0.0]]))
        with pytest.raises(BoundInputError, match="missing conditional at atom 1"):
            decomposed_upper_bound(s_y, t, LossTable(np.zeros((2, 2))), axis="y")
        with pytest.raises(BoundInputError, match="missing conditional at atom 1"):
            matched_conditional_band(s_y, t, zero_one)
        # a label with no mass in either joint still has no class conditional
        with pytest.raises(BoundInputError, match="missing class conditional for label 1"):
            matched_conditional_band(s_y, s_y, zero_one)


class TestOpenSet:
    def test_collapse_at_full_overlap(self):
        r = open_set_band(0.3, alpha=1.0, delta=0.0)
        assert r.bound_lo == pytest.approx(0.3, abs=1e-15)
        assert r.bound_hi == pytest.approx(0.3, abs=1e-15)

    def test_direct_substitution(self):
        r = open_set_band(0.3, alpha=0.5, delta=0.0)
        assert r.bound_lo == pytest.approx(0.3 - math.sqrt(0.5), abs=1e-12)
        assert r.bound_hi == pytest.approx(0.3 + math.sqrt(0.5) / math.sqrt(2),
                                           abs=1e-12)

    def test_alpha_out_of_range(self):
        with pytest.raises(BoundInputError, match="alpha"):
            open_set_band(0.3, alpha=0.0, delta=0.0)
        with pytest.raises(BoundInputError, match="alpha"):
            open_set_band(0.3, alpha=1.2, delta=0.0)
        with pytest.raises(BoundInputError, match="alpha"):
            open_set_band(0.3, alpha=math.nan, delta=0.0)

    @pytest.mark.parametrize("alpha", [True, "x", None])
    def test_alpha_that_is_not_a_real_number_is_rejected(self, alpha):
        with pytest.raises(BoundInputError, match="alpha must be a finite real number"):
            open_set_band(0.3, alpha=alpha, delta=0.0)

    def test_non_finite_or_negative_risk(self):
        for bad in (math.nan, -0.1, math.inf):
            with pytest.raises(BoundInputError, match="source risk must be finite and >= 0"):
                open_set_band(bad, alpha=0.5, delta=0.0)
            with pytest.raises(BoundInputError, match="target risk must be finite and >= 0"):
                open_set_band(0.3, alpha=0.5, delta=0.0, r_t=bad)
            with pytest.raises(BoundInputError, match="delta must be finite and >= 0"):
                open_set_band(0.3, alpha=0.5, delta=bad)

    def test_printed_upper_side_fails_on_private_target_classes(self):
        # n = 3 classes per domain sharing one: a classifier that is perfect on the
        # source classes has R_S = 0 and misses every private target class
        sc = make_scenario("open-set", n=3, alpha=1 / 3)
        s_y, t_y = np.asarray(sc.source_label_marginal), np.asarray(sc.target_label_marginal)
        r_t = math.fsum(t_y[s_y == 0])
        assert r_t == pytest.approx(2 / 3, abs=1e-15)
        r = open_set_band(0.0, alpha=1 / 3, delta=0.0, r_t=r_t)
        # R_S + sqrt(1 - alpha)/sqrt(2): the zero-one band's /sqrt(2), inherited
        assert r.bound_hi == pytest.approx(math.sqrt(1 / 3), abs=1e-15)
        assert round(r.bound_hi, 5) == 0.57735
        assert not r.holds

    def test_label_pair_js_stays_below_one_minus_alpha(self):
        for n, alpha in ((10, 0.5), (8, 0.25), (12, 0.75)):
            s_y, t_y, js = open_set_label_pair(n, alpha)
            shared = int(math.floor(alpha * n))
            assert np.count_nonzero((s_y.probs > 0) & (t_y.probs > 0)) == shared
            assert js <= (1.0 - alpha) + 1e-12
            assert js == pytest.approx((1.0 - shared / n) * LN2, abs=1e-12)

    def test_explicit_construction_falls_inside_band(self):
        # N=10, 5 shared classes, matched conditionals, a fixed classifier
        rng = np.random.default_rng(14)
        n, alpha = 10, 0.5
        s_y, t_y, _ = open_set_label_pair(n, alpha)
        n_union = len(s_y)
        nx = 5
        cond = rng.uniform(0.05, 1.0, (n_union, nx))
        cond /= cond.sum(axis=1, keepdims=True)

        def joint(marg: Pmf) -> JointPmf:
            mass = marg.probs[:, None] * cond
            return JointPmf(tuple(range(nx)), tuple(range(n_union)),
                            (mass / mass.sum()).T)

        pred = rng.integers(0, n_union, nx)
        loss = LossTable(np.array([[1.0 if pred[x] != y else 0.0
                                    for y in range(n_union)] for x in range(nx)]))
        s, t = joint(s_y), joint(t_y)
        r = open_set_band(expected_risk(s, loss), alpha=alpha, delta=0.0,
                          r_t=expected_risk(t, loss))
        assert r.holds


class TestMatchedConditionalBand:
    def _matched_pair(self, rng, s_marg, t_marg, nz=6):
        cond = rng.uniform(0.05, 1.0, (2, nz))
        cond /= cond.sum(axis=1, keepdims=True)

        def joint(marg):
            mass = cond.T * np.asarray(marg)[None, :]
            return JointPmf(tuple(range(nz)), (0, 1), mass / mass.sum())

        return joint(s_marg), joint(t_marg)

    def test_equal_marginals_collapse(self):
        rng = np.random.default_rng(15)
        s, t = self._matched_pair(rng, [0.4, 0.6], [0.4, 0.6])
        l = uniform_loss(s.shape, rng, zero_one=True)
        r = matched_conditional_band(s, t, l)
        assert r.bound_lo == pytest.approx(r.lhs, abs=1e-9)
        assert r.bound_hi == pytest.approx(r.lhs, abs=1e-9)

    def test_worked_shift_inside_band(self):
        rng = np.random.default_rng(16)
        s, t = self._matched_pair(rng, [0.5, 0.5], [0.9, 0.1])
        l = uniform_loss(s.shape, rng, zero_one=True)
        r = matched_conditional_band(s, t, l)
        assert r.holds
        # JS((0.5,0.5),(0.9,0.1)) in nats, by direct mixture-KL arithmetic
        assert r.extras["label_js_nats"] == pytest.approx(0.1017492, abs=1e-6)

    def test_hypothesis_violation_is_an_error(self):
        rng = np.random.default_rng(17)
        s, _ = random_joint_pair(rng)
        t = random_joint(rng, *s.shape)
        if len(s.y_atoms) != 2:
            s = random_joint(rng, 4, 2)
            t = random_joint(rng, 4, 2)
        l = uniform_loss(s.shape, rng, zero_one=True)
        with pytest.raises(BoundInputError, match="hypothesis violated"):
            matched_conditional_band(s, t, l)

    def test_randomized_suite_clean(self):
        assert not violations(run_suite("matched-conditional", 500, seed=18))


class TestPredictionGapLowerBound:
    def test_perfect_failure_reaches_log2(self):
        s_y = Pmf((0, 1), np.array([1.0, 0.0]))
        t_y = Pmf((0, 1), np.array([1.0, 0.0]))
        s_pred = Pmf((0, 1), np.array([1.0, 0.0]))
        t_pred = Pmf((0, 1), np.array([0.0, 1.0]))
        r = prediction_gap_lower_bound(s_y, t_y, s_pred, t_pred)
        assert r.bound_lo == pytest.approx(LN2, abs=1e-12)

    def test_clamped_at_zero(self):
        s_y = Pmf((0, 1), np.array([0.9, 0.1]))
        t_y = Pmf((0, 1), np.array([0.5, 0.5]))
        r = prediction_gap_lower_bound(s_y, t_y, s_y, t_y)
        assert r.extras["p_nats"] == 0.0
        assert r.bound_lo == 0.0

    @pytest.mark.parametrize("observed", [math.nan, -0.1, math.inf])
    def test_observed_feature_js_must_be_finite_and_nonnegative(self, observed):
        s_y = Pmf((0, 1), np.array([0.9, 0.1]))
        with pytest.raises(BoundInputError, match="observed feature JS"):
            prediction_gap_lower_bound(s_y, s_y, s_y, s_y, observed_feature_js=observed)

    def test_pipeline_suite_clean(self):
        assert not violations(run_suite("prediction-gap", 500, seed=19))


class TestConditionalShiftLowerBound:
    def test_equal_joints(self):
        rng = np.random.default_rng(20)
        s = random_joint(rng)
        r = conditional_shift_lower_bound(s, s)
        assert r.lhs == pytest.approx(0.0, abs=1e-12)
        assert r.bound_lo == 0.0

    def test_equal_feature_marginals_force_conditional_shift(self):
        # the over-matching pathology: JS(z) = 0 with label shift j > 0
        rng = np.random.default_rng(21)
        nz = 4
        z = rng.uniform(0.1, 1.0, nz)
        z /= z.sum()
        cond_s = rng.uniform(0.05, 1.0, (nz, 2))
        cond_s /= cond_s.sum(axis=1, keepdims=True)
        cond_t = rng.uniform(0.05, 1.0, (nz, 2))
        cond_t /= cond_t.sum(axis=1, keepdims=True)
        s = JointPmf(tuple(range(nz)), (0, 1), z[:, None] * cond_s)
        t = JointPmf(tuple(range(nz)), (0, 1), z[:, None] * cond_t)
        r = conditional_shift_lower_bound(s, t)
        assert r.extras["feature_js_nats"] == pytest.approx(0.0, abs=1e-12)
        j = r.extras["label_js_nats"]
        assert j > 0
        assert r.lhs >= 2 * j - 1e-9
        assert r.bound_lo == pytest.approx(2 * j, abs=1e-12)

    def test_floor_formula(self):
        assert label_conditional_floor(0.09, 0.0) == pytest.approx(0.18, abs=1e-12)
        assert label_conditional_floor(0.01, 0.04) == 0.0
        for args in ((math.nan, 0.1), (0.1, math.nan), (-1e-3, 0.1),
                     (math.inf, 0.1), (0.1, math.inf), (math.inf, math.inf)):
            with pytest.raises(BoundInputError, match="JS must be finite and >= 0"):
                label_conditional_floor(*args)

    def test_randomized_suite_clean(self):
        assert not violations(run_suite("conditional-shift-floor", 500, seed=22))


class TestReweightedConvergence:
    def _scenario(self, s=(0.5, 0.5), t=(0.8, 0.2), seed=0):
        from jsda import make_scenario
        # cov_scale 2.0 keeps the classifier risk moderate (~0.08), so the
        # gap statistics scale like 1/sqrt(n) instead of hitting the lattice
        return make_scenario("label-shift", source_label_marginal=s,
                             target_label_marginal=t, cov_scale=2.0, seed=seed)

    def test_no_shift_gap_shrinks(self):
        from jsda import reweighted_convergence_check
        sc = self._scenario(t=(0.5, 0.5))
        rows = reweighted_convergence_check(sc, [100, 10000], repeats=20, seed=1)
        assert rows[1]["mean_gap"] < rows[0]["mean_gap"]

    def test_known_shift_mean_gap_ordering(self):
        from jsda import reweighted_convergence_check
        sc = self._scenario()
        rows = reweighted_convergence_check(sc, [100, 10000], repeats=30, seed=2)
        assert rows[1]["mean_gap"] < rows[0]["mean_gap"]

    def test_no_repeats_is_an_error(self):
        from jsda import reweighted_convergence_check
        for repeats in (0, -2):
            with pytest.raises(BoundInputError, match="repeats must be >= 1"):
                reweighted_convergence_check(self._scenario(), [100], repeats=repeats)

    @pytest.mark.parametrize("repeats", [2.5, True, "3"])
    def test_repeats_that_are_not_integers_are_rejected(self, repeats):
        from jsda import reweighted_convergence_check
        with pytest.raises(BoundInputError, match="repeats must be an integer"):
            reweighted_convergence_check(self._scenario(), [100], repeats=repeats)

    def test_rate_scales_like_sqrt_n(self):
        from jsda import reweighted_convergence_check
        sc = self._scenario()
        rows = reweighted_convergence_check(sc, [2500, 10000], repeats=40, seed=3)
        ratio = rows[0]["median_gap"] / max(rows[1]["median_gap"], 1e-12)
        assert 2.0 / 1.5 <= ratio <= 2.0 * 1.5


_HALVES = Pmf((0, 1), np.array([0.5, 0.5]))
# every scalar argument of the closed-form bounds, as a call that puts a value there and
# valid values everywhere else
SCALAR_ARGUMENTS = {
    "TailParams.g": lambda v: TailParams(g=v),
    "TailParams.sigma": lambda v: TailParams(sigma=v),
    "TailParams.a": lambda v: TailParams(a=v),
    "risk_band_from_values.r_s": lambda v: risk_band_from_values(v, 0.1),
    "risk_band_from_values.js_nats": lambda v: risk_band_from_values(0.3, v),
    "open_set_band.r_s": lambda v: open_set_band(v, 0.5, 0.1),
    "open_set_band.alpha": lambda v: open_set_band(0.3, v, 0.1),
    "open_set_band.delta": lambda v: open_set_band(0.3, 0.5, v),
    "open_set_band.r_t": lambda v: open_set_band(0.3, 0.5, 0.1, r_t=v),
    "label_conditional_floor.js_label_nats": lambda v: label_conditional_floor(v, 0.1),
    "label_conditional_floor.js_feature_nats": lambda v: label_conditional_floor(0.1, v),
    "prediction_gap_lower_bound.observed_feature_js":
        lambda v: prediction_gap_lower_bound(_HALVES, _HALVES, _HALVES, _HALVES, v),
}
NEGATIVE_OR_NON_FINITE = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf]),
                                   st.floats(max_value=-math.ulp(0.0)))


@settings(derandomize=True, database=None, max_examples=50, deadline=None)
@given(NEGATIVE_OR_NON_FINITE)
def test_negative_or_non_finite_scalar_argument_raises(value):
    for argument, call in SCALAR_ARGUMENTS.items():
        call(0.25)  # a valid value passes
        with pytest.raises(BoundInputError):
            call(value)


@pytest.mark.parametrize("trials", [0, -1, 2.5, True, "3"])
def test_suite_trials_must_be_an_integer_of_at_least_one(trials):
    with pytest.raises(ValueError, match="trials must be"):
        run_suite("pinsker", trials, seed=0)


def test_suites_are_deterministic():
    a = run_suite("pinsker", 50, seed=42)
    b = run_suite("pinsker", 50, seed=42)
    assert [(r.lhs, r.bound_hi) for r in a] == [(r.lhs, r.bound_hi) for r in b]


def _grid_pair(kind, grid=24):
    """One discretized pair of a binary scenario and the midpoint zero-one loss."""
    if kind == "open-set":
        sc = make_scenario(kind, n=1, alpha=0.5)
    elif kind == "cofeature":
        sc = make_scenario(kind, source_label_marginal=(0.6, 0.4), feature_shift=(0.8, -0.3))
    elif kind == "label-shift":
        sc = make_scenario(kind, source_label_marginal=(0.5, 0.5),
                           target_label_marginal=(0.8, 0.2))
    else:
        sc = make_scenario(kind, source_label_marginal=(0.5, 0.5),
                           target_label_marginal=(0.8, 0.2), rotation_deg=35.0)
    s, t = discretize(sc, "source", grid), discretize(sc, "target", grid)
    w, b = midpoint_classifier(sc)
    predict_one = np.asarray(s.x_atoms) @ w + b > 0
    return s, t, LossTable(np.stack([predict_one, ~predict_one], axis=1).astype(float))


def _grid_verifiers(s, t, l):
    """The seven pair verifiers of a grid analysis, as zero-argument calls."""
    return (lambda: joint_upper_bound(s, t, l),
            lambda: zero_one_band(s, t, l),
            lambda: decomposed_upper_bound(s, t, l, axis="x"),
            lambda: decomposed_upper_bound(s, t, l, axis="y"),
            lambda: intrinsic_error_upper_bound(s, t),
            lambda: conditional_shift_lower_bound(s, t),
            lambda: matched_conditional_band(s, t, l))


def _outcome(call):
    """Every field of the report (floats by repr), or the error's type and message."""
    try:
        r = call()
    except ValueError as e:
        return f"{type(e).__name__}: {e}"
    return repr(tuple((f.name, getattr(r, f.name)) for f in dataclasses.fields(r)))


@contextlib.contextmanager
def _crossover(cells):
    """``ARRAY_MIN_CELLS`` set to ``cells``; its one binding selects every row-kernel path."""
    with patch.object(importlib.import_module("jsda.pmf"), "ARRAY_MIN_CELLS", cells):
        yield


@pytest.mark.parametrize("cells, reached", [(0, True), (10**9, False)], ids=["arrays", "loops"])
def test_crossover_switches_every_row_kernel(cells, reached):
    """The crossover sends a 2x2 pair's intrinsic-error bound to the array forms of both
    ``jsda.pmf`` (the entropy) and ``jsda.divergence`` (the conditional JS), or to neither:
    each array form takes its natural logs through its module's ``_xlogy``."""
    mass = np.array([[0.1, 0.2], [0.3, 0.4]])
    s, t = (JointPmf((0, 1), (0, 1), m) for m in (mass, mass[::-1]))  # new joints: the memos miss
    modules = [importlib.import_module(name) for name in ("jsda.pmf", "jsda.divergence")]
    with _crossover(cells), \
         patch.object(modules[0], "_xlogy", wraps=modules[0]._xlogy) as pmf_xlogy, \
         patch.object(modules[1], "_xlogy", wraps=modules[1]._xlogy) as divergence_xlogy:
        intrinsic_error_upper_bound(s, t)
    assert [pmf_xlogy.called, divergence_xlogy.called] == [reached, reached]


def test_grid_analysis_digest_pinned():
    """All seven verifiers on one 24² pair of each scenario kind, pinned bit for bit."""
    h = hashlib.sha256()
    for kind in ("label-shift", "conditional-shift", "cofeature", "open-set"):
        for call in _grid_verifiers(*_grid_pair(kind)):
            h.update(_outcome(call).encode() + b"\n")
    assert h.hexdigest() == (
        "380e9f935ace7ba94b87e2d998f7f3f029f68ef1abbd1cd4d4c4f79cd249bae9")


@pytest.mark.parametrize("cells", [0, 10**9], ids=["arrays", "loops"])
def test_grid_analysis_digest_pinned_on_either_path(cells):
    """The same digest with every row kernel whole-array, and with every one a loop
    (each pair is discretized afresh, so the memos miss)."""
    with _crossover(cells):
        test_grid_analysis_digest_pinned()


def test_grid_analysis_sums_no_grid_sized_list():
    """A 40² label-shift analysis sums every array of ARRAY_MIN_CELLS cells or more by
    ``pmf._fsum``'s bins, never by ``math.fsum`` over a list."""
    sizes, fsum = [], math.fsum

    def counting_fsum(terms):
        terms = list(terms)
        sizes.append(len(terms))
        return fsum(terms)

    with patch.object(math, "fsum", counting_fsum):
        for call in _grid_verifiers(*_grid_pair("label-shift", 40)):
            call()
    assert sizes and max(sizes) < importlib.import_module("jsda.pmf").ARRAY_MIN_CELLS


def _sparse_joint(rng, nx, ny):
    """A joint with zero cells and, often, an all-zero row or column."""
    mass = rng.random((nx, ny)) * (rng.random((nx, ny)) < 0.7)
    if rng.random() < 0.4:
        mass[int(rng.integers(nx)), :] = 0.0
    if rng.random() < 0.3:
        mass[:, int(rng.integers(ny))] = 0.0
    mass[int(rng.integers(nx)), int(rng.integers(ny))] += 0.1
    return JointPmf(tuple(range(nx)), tuple(range(ny)), mass / math.fsum(mass.ravel().tolist()))


def _copy(j):
    return JointPmf.from_json(j.to_json())


class TestPairTerms:
    """The memoized pair terms behind the grid verifiers."""

    def test_interleaved_pairs_match_fresh_copies(self):
        rng = np.random.default_rng(31)
        for _ in range(60):
            nx, ny = int(rng.integers(1, 6)), int(rng.integers(2, 4))
            s, t = _sparse_joint(rng, nx, ny), _sparse_joint(rng, nx, ny)
            shifted = s.mass * rng.uniform(0.2, 1.0, ny)  # a label shift of s
            t2 = JointPmf(s.x_atoms, s.y_atoms, shifted / math.fsum(shifted.ravel().tolist()))
            l = uniform_loss(s.shape, rng, zero_one=bool(rng.integers(2)))
            pairs = ((s, t), (s, t2), (t, s))
            expected = [[_outcome(call) for call in _grid_verifiers(_copy(a), _copy(b), l)]
                        for a, b in pairs]
            calls = [_grid_verifiers(a, b, l) for a, b in pairs]
            for k in range(len(calls[0])):  # every verifier, round-robin over the pairs
                for p in (0, 1, 0, 2, 2, 1):
                    assert _outcome(calls[p][k]) == expected[p][k]
            for p in (2, 0, 1):  # each pair's verifiers in reverse order
                for k in reversed(range(len(calls[p]))):
                    assert _outcome(calls[p][k]) == expected[p][k]

    def test_marginal_js_equals_js_of_the_marginals(self):
        """The marginal JS every verifier reads is ``js_divergence`` of the
        ``marginals`` Pmfs bit for bit, on full and on sparse joints."""
        rng = np.random.default_rng(0)
        for trial in range(2000):
            if trial % 2:
                s, t = random_joint_pair(rng)
            else:
                nx, ny = int(rng.integers(1, 9)), int(rng.integers(2, 5))
                s, t = _sparse_joint(rng, nx, ny), _sparse_joint(rng, nx, ny)
            for i, axis in enumerate(("x", "y")):
                want = js_divergence(marginals(s)[i], marginals(t)[i], "e")
                assert _marginal_js(s, t, axis) == want

    @ROW_SETTINGS
    @given(row_pairs(row_counts=(1, 2, 3, 8)))
    def test_verifiers_equal_on_both_paths(self, pair):
        """The verifiers that read every joint, marginal and conditional JS and the
        entropies give the same fields, bit for bit, or the same error when all of these
        are taken by the loops and when they are taken whole-array, on joints tiled from
        drawn rows (dead, deterministic and identical rows likely). The size selection is
        overridden, so small joints suffice."""
        P, Q = pair
        grids = [np.hstack(halves) for halves in ((P, Q), (Q, P))]
        totals = [math.fsum(g.ravel().tolist()) for g in grids]
        assume(min(totals) > 0.0)
        l = LossTable(np.indices(grids[0].shape).sum(axis=0) % 2.0)
        outcomes = []
        for cells in (0, 10**9):
            s, t = (JointPmf(tuple(range(g.shape[0])), tuple(range(g.shape[1])), g / total)
                    for g, total in zip(grids, totals))  # new joints: the memos miss
            with _crossover(cells):
                outcomes.append([_outcome(call) for call in (
                    lambda: decomposed_upper_bound(s, t, l, axis="x"),
                    lambda: decomposed_upper_bound(s, t, l, axis="y"),
                    lambda: intrinsic_error_upper_bound(s, t))])
        assert outcomes[0] == outcomes[1]

    def test_raising_pair_is_not_stored(self):
        s = JointPmf((0, 1), (0, 1), np.array([[0.5, 0.5], [0.0, 0.0]]))
        t = JointPmf((0, 1), (0, 1), np.array([[0.25, 0.25], [0.25, 0.25]]))
        for _ in range(2):
            with pytest.raises(BoundInputError, match="missing conditional at atom 1"):
                intrinsic_error_upper_bound(s, t)
        # the same pair's joint JS is still computed, and a valid pair follows cleanly
        assert joint_upper_bound(s, t, uniform_loss(s.shape)) == joint_upper_bound(
            _copy(s), _copy(t), uniform_loss(s.shape))
        t2 = JointPmf((0, 1), (0, 1), np.array([[0.1, 0.2], [0.3, 0.4]]))
        assert intrinsic_error_upper_bound(t, t2) == intrinsic_error_upper_bound(
            _copy(t), _copy(t2))
        with pytest.raises(BoundInputError, match="missing conditional at atom 1"):
            intrinsic_error_upper_bound(s, t)

    @staticmethod
    def _memo_keys():
        """Each memo of ``jsda.bounds`` with a key and keys that must miss after it: equal
        contents in another joint or loss table, and the reversed pair."""
        s, t = random_joint_pair(np.random.default_rng(32))
        l = uniform_loss(s.shape, np.random.default_rng(33))
        s_copy, l_copy = _copy(s), LossTable(l.values)
        return {_conditional_terms: [(s, t, "y|x"), (s_copy, t, "y|x"), (t, s, "y|x")],
                _joint_js: [(s, t), (s_copy, t), (t, s)],
                _marginal_js: [(s, t, "x"), (s_copy, t, "x"), (t, s, "x")],
                _conditional_shift: [(s, t, "x"), (s_copy, t, "x"), (t, s, "x")],
                _risk: [(s, l), (s_copy, l), (s, l_copy)]}

    def test_memo_keyed_on_identity(self):
        for memo, (key, *others) in self._memo_keys().items():
            value = memo(*key)
            info = memo.cache_info()
            assert memo(*key) is value
            assert memo.cache_info().hits == info.hits + 1
            for k, other in enumerate(others, 1):
                assert other[0] != key[0] or other[1] != key[1]
                memo(*other)
                assert memo.cache_info().misses == info.misses + k
            assert memo.cache_info().maxsize in (1, 2)
            assert memo.cache_info().currsize <= memo.cache_info().maxsize

    def test_every_memo_is_keyed_on_identity(self):
        """A memo added to ``jsda.bounds`` must join ``test_memo_keyed_on_identity``."""
        memos = {f for _, f in inspect.getmembers(BOUNDS_MODULE, callable)
                 if hasattr(f, "cache_info")}
        assert memos == set(self._memo_keys())

    def test_stored_arrays_are_read_only(self):
        rng = np.random.default_rng(33)
        s, t = random_joint_pair(rng)
        for axis in ("y|x", "x|y"):
            (s_w, s_rows), (t_w, t_rows), js = _conditional_terms(s, t, axis)
            for a in (s_w, s_rows, t_w, t_rows, js):
                assert not a.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    a.flat[0] = 0.5

    def test_support_mismatch_raises_every_time(self):
        s = JointPmf((0, 1), (0, 1), np.array([[0.1, 0.2], [0.3, 0.4]]))
        other = JointPmf((0, 2), (0, 1), np.array([[0.4, 0.3], [0.2, 0.1]]))
        l = LossTable(np.array([[0.0, 1.0], [1.0, 0.0]]))
        conditional = (lambda: decomposed_upper_bound(s, other, l, axis="x"),
                       lambda: decomposed_upper_bound(s, other, l, axis="y"),
                       lambda: intrinsic_error_upper_bound(s, other),
                       lambda: conditional_shift_lower_bound(s, other),
                       lambda: matched_conditional_band(s, other, l))
        for call in conditional:
            for _ in range(2):
                with pytest.raises(BoundInputError,
                                   match="conditional terms require identical supports"):
                    call()
        for call in (lambda: js_divergence(s, other), lambda: joint_upper_bound(s, other, l)):
            for _ in range(2):
                with pytest.raises(DistributionError,
                                   match="joint divergence requires identical supports"):
                    call()
        t = JointPmf((0, 1), (0, 1), np.array([[0.25, 0.25], [0.25, 0.25]]))
        for call, fresh in zip(_grid_verifiers(s, t, l), _grid_verifiers(_copy(s), _copy(t), l)):
            assert _outcome(call) == _outcome(fresh)

    def test_grids_of_two_scenarios_are_rejected(self):
        """Each scenario's grid is its own: two scenarios' joints do not share a support,
        and the verifiers say so with the messages of any support mismatch."""
        s, _, l = _grid_pair("conditional-shift", grid=8)
        other = discretize(make_scenario("conditional-shift", rotation_deg=60.0), "target", 8)
        assert s.x_atoms != other.x_atoms
        for call in (lambda: decomposed_upper_bound(s, other, l, axis="x"),
                     lambda: decomposed_upper_bound(s, other, l, axis="y")):
            with pytest.raises(BoundInputError,
                               match="^conditional terms require identical supports$"):
                call()
        with pytest.raises(DistributionError, match="^joint divergence requires identical supports$"):
            joint_upper_bound(s, other, l)
