"""Scenario generator tests: construction, sampling, discretization."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from jsda import (
    JointPmf,
    ShiftScenario,
    conditionals,
    discretize,
    js_divergence,
    linear_zero_one_risk,
    make_scenario,
    marginals,
    midpoint_classifier,
    sample,
)
from jsda.scenarios import ScenarioError, _grid_centers, _mixture_cell_mass, bounding_box

ROOT = Path(__file__).resolve().parents[1]


def random_cov_scenario(rng):
    """A conditional-shift scenario whose source classes have random SPD covariances."""
    d = make_scenario("conditional-shift").to_json_dict()
    a = rng.normal(size=(2, 2, 2))
    d["source_covs"] = (a @ a.transpose(0, 2, 1) + 0.1 * np.eye(2)).tolist()
    return ShiftScenario.from_json_dict(d)


def binary_js_nats(p1: float, q1: float) -> float:
    """Closed-form two-atom JS, the independent oracle for label marginals."""
    def kl(a, b):
        total = 0.0
        for x, y in ((a, b), (1 - a, 1 - b)):
            if x > 0:
                total += x * math.log(x / y)
        return total
    m1 = 0.5 * (p1 + q1)
    return 0.5 * (kl(p1, m1) + kl(q1, m1))


class TestConstruction:
    def test_label_shift_keeps_conditionals(self):
        sc = make_scenario("label-shift", source_label_marginal=(0.5, 0.5),
                           target_label_marginal=(0.8, 0.2))
        assert np.array_equal(sc.source_means, sc.target_means)
        assert np.array_equal(sc.source_covs, sc.target_covs)
        assert np.allclose(sc.target_label_marginal, [0.8, 0.2])

    def test_conditional_shift_rotates_means(self):
        sc = make_scenario("conditional-shift", rotation_deg=30.0)
        r = math.radians(30.0)
        rot = np.array([[math.cos(r), -math.sin(r)], [math.sin(r), math.cos(r)]])
        assert np.allclose(sc.target_means, sc.source_means @ rot.T, atol=1e-12)

    def test_open_set_shared_class_count(self):
        sc = make_scenario("open-set", n=10, alpha=0.5)
        shared = np.count_nonzero((sc.source_label_marginal > 0)
                                  & (sc.target_label_marginal > 0))
        assert shared == 5
        assert sc.n_classes == 15
        assert np.isclose(sc.source_label_marginal.sum(), 1.0)

    def test_open_set_needs_params(self):
        with pytest.raises(ScenarioError):
            make_scenario("open-set", n=10)

    def test_unknown_kind(self):
        with pytest.raises(ScenarioError, match="unknown scenario kind"):
            make_scenario("covariate-drift")

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["source_means", "source_covs", "target_means",
                                      "target_covs"])
    def test_non_finite_gaussians_rejected(self, name, bad):
        d = make_scenario("label-shift").to_json_dict()
        arr = np.array(d[name])
        arr.flat[0] = bad
        d[name] = arr.tolist()
        with pytest.raises(ScenarioError, match=f"{name} must be finite"):
            ShiftScenario.from_json_dict(d)

    @pytest.mark.parametrize("marginal", [(math.nan, math.nan), (math.nan, 1.0),
                                          (math.inf, 0.0)])
    def test_non_finite_label_marginal_rejected(self, marginal):
        with pytest.raises(ScenarioError, match="target_label_marginal must be finite"):
            make_scenario("label-shift", target_label_marginal=marginal)

    def test_json_round_trip(self, tmp_path):
        sc = make_scenario("conditional-shift", rotation_deg=45.0,
                           source_label_marginal=(0.3, 0.7), seed=9)
        path = tmp_path / "sc.json"
        sc.save(path)
        back = ShiftScenario.load(path)
        assert back.kind == sc.kind and back.seed == 9
        assert np.allclose(back.target_means, sc.target_means)
        assert np.allclose(back.source_label_marginal, sc.source_label_marginal)


class TestSampling:
    def test_deterministic_under_seed(self):
        sc = make_scenario("label-shift", target_label_marginal=(0.8, 0.2), seed=3)
        a = sample(sc, "source", 64)
        b = sample(sc, "source", 64)
        assert np.array_equal(a.xs, b.xs) and np.array_equal(a.ys, b.ys)

    def test_streams_differ(self):
        sc = make_scenario("label-shift", target_label_marginal=(0.8, 0.2), seed=3)
        a = sample(sc, "source", 64, stream=(0,))
        b = sample(sc, "source", 64, stream=(1,))
        assert not np.array_equal(a.xs, b.xs)

    def test_single_sample(self):
        sc = make_scenario("conditional-shift")
        batch = sample(sc, "target", 1)
        assert len(batch) == 1 and batch.xs.shape == (1, 2)

    def test_label_frequencies_match_marginal(self):
        sc = make_scenario("label-shift", source_label_marginal=(0.5, 0.5),
                           target_label_marginal=(0.8, 0.2), seed=1)
        batch = sample(sc, "target", 10_000)
        freq = np.bincount(batch.ys, minlength=2) / len(batch)
        assert np.max(np.abs(freq - [0.8, 0.2])) < 0.02

    def test_n_must_be_positive(self):
        sc = make_scenario("conditional-shift")
        with pytest.raises(ScenarioError):
            sample(sc, "source", 0)


class TestDiscretization:
    def test_label_shift_conditionals_identical_per_class(self):
        sc = make_scenario("label-shift", source_label_marginal=(0.5, 0.5),
                           target_label_marginal=(0.8, 0.2))
        s = discretize(sc, "source", grid=24)
        t = discretize(sc, "target", grid=24)
        s_cond = conditionals(s, "x|y")
        t_cond = conditionals(t, "x|y")
        for y in (0, 1):
            assert js_divergence(s_cond[y], t_cond[y]) < 1e-9

    def test_label_marginal_matches_closed_form_js(self):
        sc = make_scenario("label-shift", source_label_marginal=(0.5, 0.5),
                           target_label_marginal=(0.8, 0.2))
        s = discretize(sc, "source", grid=24)
        t = discretize(sc, "target", grid=24)
        _, s_y = marginals(s)
        _, t_y = marginals(t)
        measured = js_divergence(s_y, t_y)
        assert measured == pytest.approx(binary_js_nats(0.5, 0.8), abs=1e-9)

    def test_grid_refinement_stability(self):
        sc = make_scenario("conditional-shift", rotation_deg=25.0)
        j32 = js_divergence(discretize(sc, "source", 32), discretize(sc, "target", 32))
        j64 = js_divergence(discretize(sc, "source", 64), discretize(sc, "target", 64))
        assert abs(j64 - j32) / j32 < 0.05

    def test_cofeature_target_keeps_label_given_feature(self):
        sc = make_scenario("cofeature", feature_shift=(1.0, 0.5))
        s = discretize(sc, "source", grid=16)
        t = discretize(sc, "target", grid=16)
        s_cond = conditionals(s, "y|x")
        t_cond = conditionals(t, "y|x")
        worst = max(js_divergence(s_cond[x], t_cond[x]) for x in s.x_atoms)
        assert worst < 1e-12
        # and the feature marginal actually shifted
        s_x, _ = marginals(s)
        t_x, _ = marginals(t)
        assert js_divergence(s_x, t_x) > 1e-3

    def test_shared_grid_and_validity(self):
        sc = make_scenario("conditional-shift", rotation_deg=40.0)
        s = discretize(sc, "source", grid=8)
        t = discretize(sc, "target", grid=8)
        assert s.x_atoms == t.x_atoms
        assert isinstance(s, JointPmf)

    def test_grid_lower_bound(self):
        sc = make_scenario("conditional-shift")
        with pytest.raises(ScenarioError):
            discretize(sc, "source", grid=1)

    def test_cell_mass_equals_scipy_pdf(self):
        from scipy import stats

        rng = np.random.default_rng(8)
        for sc in [make_scenario("cofeature"), *(random_cov_scenario(rng) for _ in range(20))]:
            centers, _ = _grid_centers(sc, 16)
            means, covs, marg = sc.domain_params("source")
            expected = np.stack([marg[y] * stats.multivariate_normal(means[y], covs[y]).pdf(centers)
                                 for y in range(2)], axis=1)
            assert np.array_equal(_mixture_cell_mass(sc, "source", centers), expected)

    def test_indefinite_covariance_rejected(self):
        d = make_scenario("label-shift").to_json_dict()
        d["source_covs"][0] = [[1.0, 2.0], [2.0, 1.0]]
        with pytest.raises(ScenarioError, match="positive definite"):
            discretize(ShiftScenario.from_json_dict(d), "source", grid=8)

    def test_degenerate_bounding_box(self):
        sc = make_scenario("label-shift", target_label_marginal=(0.8, 0.2),
                           means=[[0.0, 0.0], [0.0, 0.0]], cov_scale=0.0)
        with pytest.raises(ScenarioError, match="degenerate"):
            discretize(sc, "source", grid=8)

    def test_bounding_box_covers_both_domains(self):
        sc = make_scenario("conditional-shift", rotation_deg=90.0)
        lo, hi = bounding_box(sc)
        for means in (sc.source_means, sc.target_means):
            assert np.all(means >= lo) and np.all(means <= hi)


class TestClassifierHelpers:
    def test_midpoint_classifier_split(self):
        sc = make_scenario("label-shift", target_label_marginal=(0.8, 0.2))
        w, b = midpoint_classifier(sc)
        assert float(w @ sc.source_means[0] + b) < 0 < float(w @ sc.source_means[1] + b)

    def test_closed_form_risk_matches_monte_carlo(self):
        sc = make_scenario("label-shift", source_label_marginal=(0.5, 0.5),
                           target_label_marginal=(0.8, 0.2), cov_scale=2.0, seed=5)
        w, b = midpoint_classifier(sc)
        exact = linear_zero_one_risk(sc, "target", w, b)
        batch = sample(sc, "target", 200_000)
        preds = (batch.xs @ w + b > 0).astype(int)
        mc = float(np.mean(preds != batch.ys))
        assert mc == pytest.approx(exact, abs=0.005)

    def test_closed_form_risk_equals_scipy_norm_cdf(self):
        from scipy import stats

        rng = np.random.default_rng(9)
        for _ in range(50):
            sc = random_cov_scenario(rng)
            w, b = rng.normal(size=2), float(rng.normal())
            means, covs, marg = sc.domain_params("source")
            p1 = [1.0 - stats.norm.cdf(-float(w @ means[y] + b) / math.sqrt(float(w @ covs[y] @ w)))
                  for y in range(2)]
            expected = float(marg[0] * p1[0] + marg[1] * (1.0 - p1[1]))
            assert linear_zero_one_risk(sc, "source", w, b) == expected

    def test_discretized_risk_agrees_with_closed_form(self):
        # grid-summed zero-one risk of the same rule, on a fine grid
        sc = make_scenario("label-shift", source_label_marginal=(0.5, 0.5),
                           target_label_marginal=(0.8, 0.2), cov_scale=1.0)
        w, b = midpoint_classifier(sc)
        t = discretize(sc, "target", grid=96)
        from jsda import LossTable, expected_risk
        values = np.array([[1.0 if (int(w @ np.array(x) + b > 0)) != y else 0.0
                            for y in t.y_atoms] for x in t.x_atoms])
        grid_risk = expected_risk(t, LossTable(values))
        assert grid_risk == pytest.approx(linear_zero_one_risk(sc, "target", w, b),
                                          abs=5e-3)


def test_import_leaves_scipy_stats_unloaded():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    code = "import sys, jsda, jsda.cli; sys.exit('scipy.stats' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=120).returncode == 0
