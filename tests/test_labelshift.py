"""BBSL weight estimation and reweighted risk tests."""

import tracemalloc

import numpy as np
import pytest

from jsda import (
    ConfusionMatrix,
    WeightVector,
    bbsl_weights,
    confusion_matrix,
    estimate_scenario_weights,
    labelshift,
    make_scenario,
    midpoint_classifier,
    reweighted_risk,
    sample,
)
from jsda.labelshift import LabelShiftError, _true_label_ratio
from jsda.scenarios import _CHUNK_ROWS, ScenarioError


def whole_sample_recovery(sc, n, seed):
    """estimate_scenario_weights as whole samples: the reference for its counts."""
    w, b = midpoint_classifier(sc)
    src = sample(sc, "source", n, stream=(seed, 0))
    tgt = sample(sc, "target", n, stream=(seed, 1))
    src_preds = (src.xs @ w + b > 0).astype(int)
    tgt_preds = (tgt.xs @ w + b > 0).astype(int)
    cm = confusion_matrix(src_preds, src.ys, n_classes=sc.n_classes)
    est = bbsl_weights(cm, np.bincount(tgt_preds, minlength=sc.n_classes) / n)
    truth = _true_label_ratio(sc)
    return {"true_alpha": truth, "estimated_alpha": est.alpha,
            "sup_error": float(np.max(np.abs(est.alpha - truth))),
            "source_accuracy": float(np.mean(src_preds == src.ys)), "method": est.method}


class TestConfusionMatrix:
    def test_perfect_predictor_uniform_labels(self):
        labels = np.array([0, 1] * 50)
        cm = confusion_matrix(labels, labels, n_classes=2)
        assert np.allclose(cm.c, np.diag([0.5, 0.5]))

    def test_constant_predictor(self):
        labels = np.array([0] * 60 + [1] * 40)
        preds = np.zeros(100, dtype=int)
        cm = confusion_matrix(preds, labels, n_classes=2)
        assert np.allclose(cm.c[0], [0.6, 0.4])
        assert np.allclose(cm.c[1], [0.0, 0.0])

    def test_matches_pair_counting_oracle(self):
        rng = np.random.default_rng(0)
        preds = rng.integers(0, 3, 500)
        labels = rng.integers(0, 3, 500)
        cm = confusion_matrix(preds, labels, n_classes=3)
        oracle = np.zeros((3, 3))
        for p, l in zip(preds, labels):
            oracle[p, l] += 1 / 500
        assert np.allclose(cm.c, oracle, atol=1e-12)

    @pytest.mark.parametrize("seed", range(20))
    def test_equals_pair_counts_over_n_exactly(self, seed):
        rng = np.random.default_rng(seed)
        k, n = int(rng.integers(1, 6)), int(rng.integers(1, 400))
        preds, labels = rng.integers(0, k, n), rng.integers(0, k, n)
        counts = np.zeros((k, k))
        for p, l in zip(preds, labels):
            counts[p, l] += 1.0
        assert np.array_equal(confusion_matrix(preds, labels, n_classes=k).c, counts / n)

    def test_empty_input(self):
        with pytest.raises(LabelShiftError, match="nonempty"):
            confusion_matrix([], [], n_classes=2)

    def test_must_sum_to_one(self):
        with pytest.raises(LabelShiftError, match="sum"):
            ConfusionMatrix(np.array([[0.5, 0.5], [0.5, 0.5]]))


class TestBBSLWeights:
    def test_diagonal_solve(self):
        cm = ConfusionMatrix(np.diag([0.5, 0.5]))
        w = bbsl_weights(cm, np.array([0.8, 0.2]))
        assert np.allclose(w.alpha, [1.6, 0.4], atol=1e-12)
        assert w.method == "solve" and not w.clipped

    def test_no_shift_gives_unit_weights(self):
        rng = np.random.default_rng(1)
        c = rng.uniform(0.1, 1.0, (3, 3))
        c /= c.sum()
        cm = ConfusionMatrix(c)
        w = bbsl_weights(cm, c.sum(axis=1))
        assert np.allclose(w.alpha, 1.0, atol=1e-9)

    def test_exact_recovery_pre_clipping(self):
        rng = np.random.default_rng(2)
        c = rng.uniform(0.1, 1.0, (4, 4)) + np.diag(np.full(4, 2.0))
        c /= c.sum()
        cm = ConfusionMatrix(c)
        alpha_true = rng.uniform(0.2, 2.5, 4)
        alpha_true /= alpha_true @ cm.source_label_marginal
        w = bbsl_weights(cm, cm.c @ alpha_true)
        assert np.allclose(w.alpha, alpha_true, atol=1e-9)
        assert not w.clipped

    def test_negative_solutions_clip_and_renormalize(self):
        cm = ConfusionMatrix(np.array([[0.4, 0.1], [0.1, 0.4]]))
        t_pred = np.array([0.05, 0.95])  # forces a negative component
        w = bbsl_weights(cm, t_pred)
        assert w.clipped
        assert np.all(w.alpha >= 0)
        assert w.alpha @ cm.source_label_marginal == pytest.approx(1.0, abs=1e-6)

    def test_singular_consistent_uses_lstsq(self):
        c = np.array([[0.3, 0.3], [0.2, 0.2]])
        cm = ConfusionMatrix(c)
        t_pred = np.array([0.6, 0.4])  # in the column space
        w = bbsl_weights(cm, t_pred)
        assert w.method == "lstsq"
        assert w.alpha @ cm.source_label_marginal == pytest.approx(1.0, abs=1e-6)

    def test_singular_inconsistent_falls_back_to_ones(self):
        c = np.array([[0.3, 0.3], [0.2, 0.2]])
        cm = ConfusionMatrix(c)
        w = bbsl_weights(cm, np.array([0.2, 0.8]))  # off the column space
        assert w.method == "fallback"
        assert np.allclose(w.alpha, 1.0)

    def test_all_weights_clipped_falls_back_to_ones(self):
        cm = ConfusionMatrix(np.diag([0.5, 0.5]))
        w = bbsl_weights(cm, np.array([-0.1, -0.2]))  # solves to negative weights only
        assert w.method == "fallback"
        assert np.array_equal(w.alpha, np.ones(2))

    def test_clipping_idempotent_when_solution_nonnegative(self):
        cm = ConfusionMatrix(np.diag([0.25, 0.75]))
        w = bbsl_weights(cm, np.array([0.5, 0.5]))
        assert not w.clipped


class TestReweightedRisk:
    def test_unit_weights_recover_plain_mean(self):
        rng = np.random.default_rng(3)
        labels = rng.integers(0, 2, 100)
        losses = rng.random(100)
        w = WeightVector(np.ones(2))
        assert reweighted_risk(labels, losses, w) == pytest.approx(losses.mean(),
                                                                   abs=1e-12)

    def test_zero_losses(self):
        w = WeightVector(np.array([1.6, 0.4]))
        assert reweighted_risk([0, 1, 1], [0.0, 0.0, 0.0], w) == 0.0

    def test_matches_weighted_mean_oracle(self):
        rng = np.random.default_rng(4)
        labels = rng.integers(0, 3, 200)
        losses = rng.random(200)
        alpha = np.array([1.5, 0.7, 0.9])
        w = WeightVector(alpha)
        oracle = np.mean([alpha[y] * v for y, v in zip(labels, losses)])
        assert reweighted_risk(labels, losses, w) == pytest.approx(oracle, abs=1e-12)

    def test_label_out_of_range(self):
        with pytest.raises(LabelShiftError, match="range"):
            reweighted_risk([0, 5], [0.1, 0.2], WeightVector(np.ones(2)))
        with pytest.raises(LabelShiftError, match="range"):
            reweighted_risk([-1, 0], [1.0, 1.0], WeightVector(np.array([0.5, 3.0])))


class TestScenarioRecovery:
    def test_weight_recovery_single_seed(self):
        sc = make_scenario("label-shift", source_label_marginal=(0.5, 0.5),
                           target_label_marginal=(0.8, 0.2), seed=0)
        result = estimate_scenario_weights(sc, n=10_000, seed=0)
        assert result["source_accuracy"] >= 0.95
        assert result["sup_error"] < 0.05
        assert np.allclose(result["true_alpha"], [1.6, 0.4])

    def test_recovery_across_seeds(self):
        sc = make_scenario("label-shift", source_label_marginal=(0.5, 0.5),
                           target_label_marginal=(0.8, 0.2), seed=0)
        errs = [estimate_scenario_weights(sc, n=10_000, seed=s)["sup_error"]
                for s in range(5)]
        assert max(errs) < 0.05

    @pytest.mark.parametrize("seed", range(24))
    def test_counts_equal_the_whole_samples(self, seed):
        rng = np.random.default_rng([seed, 33])
        a, b = rng.uniform(0.1, 0.9, 2)
        kind = ("label-shift", "conditional-shift")[seed % 2]
        sc = make_scenario(kind, source_label_marginal=(a, 1 - a),
                           target_label_marginal=(b, 1 - b), cov_scale=rng.uniform(0.3, 4.0),
                           seed=int(rng.integers(1000)),
                           **({"rotation_deg": rng.uniform(0, 180)} if seed % 2 else {}))
        n = max(1, _CHUNK_ROWS * int(rng.integers(0, 4)) + int(rng.integers(-1, 2)))
        got = estimate_scenario_weights(sc, n, seed=seed)
        want = whole_sample_recovery(sc, n, seed)
        assert got.keys() == want.keys()
        for key, value in want.items():
            assert (np.array_equal(got[key], value) if isinstance(value, np.ndarray)
                    else got[key] == value), key

    def test_memory_does_not_grow_with_n(self):
        sc = make_scenario("label-shift", source_label_marginal=(0.5, 0.5),
                           target_label_marginal=(0.8, 0.2), seed=0)
        estimate_scenario_weights(sc, n=1_000)  # lazy imports and caches stay out of the peak
        tracemalloc.start()
        try:
            estimate_scenario_weights(sc, n=200_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20  # whole samples of 200,000 rows peak at about 17 MiB

    def test_three_classes_raise_before_any_draw(self, monkeypatch):
        def no_draw(*args):
            raise AssertionError("drew samples")

        monkeypatch.setattr(labelshift, "_chunks", no_draw)
        sc = make_scenario("label-shift", n_classes=3)
        with pytest.raises(ScenarioError, match="^midpoint classifier needs exactly two classes$"):
            estimate_scenario_weights(sc, n=10_000)
