"""Trainer tests: init, loss terms, gradients, the loop, gating, ablation."""

import dataclasses
import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

from jsda import (
    CentroidState,
    ModelParams,
    TrainConfig,
    WeightVector,
    feature_shift_statistics,
    grad_check,
    init_models,
    lambda_schedule,
    loss_and_gradients,
    make_scenario,
    pseudo_label_step,
    run_training,
    sample,
    train_step,
)
from jsda.scenarios import SampleBatch
from jsda.training import (
    CENTROID_MOMENTUM,
    TrainingError,
    _sigmoid,
    ablate,
    features,
)

LOG4 = 2 * math.log(2.0)


def small_fixture(seed=1, ns=16, nt=12, h=6, f=4):
    cfg = TrainConfig(hidden_width=h, feature_width=f, seed=seed)
    m = init_models(cfg, n_classes=2)
    sc = make_scenario("label-shift", source_label_marginal=(0.5, 0.5),
                       target_label_marginal=(0.8, 0.2), seed=seed + 1)
    src = sample(sc, "source", ns)
    tgt_raw = sample(sc, "target", nt)
    tgt = SampleBatch(tgt_raw.xs, tgt_raw.ys)
    st = CentroidState.empty(2, f)
    rng = np.random.default_rng(seed + 2)
    st.mu[:2] = rng.normal(size=(2, f))
    st.mu[2:] = rng.normal(size=(2, f))
    st.counts[:] = 1
    w = WeightVector(np.array([1.6, 0.4]))
    return m, src, tgt, st, w


def trace_digest(trace) -> str:
    h = hashlib.sha256()
    for f in dataclasses.fields(trace):
        value = getattr(trace, f.name)
        h.update(f.name.encode())
        if f.name == "model":
            for name, arr in value.param_items():
                h.update(name.encode())
                h.update(arr.tobytes())
        else:
            for v in value:
                h.update(np.asarray(v, dtype=float).tobytes())
    return h.hexdigest()


class TestConfigAndInit:
    def test_config_validation(self):
        with pytest.raises(TrainingError):
            TrainConfig(epochs=0)
        with pytest.raises(TrainingError):
            TrainConfig(principles=frozenset())
        with pytest.raises(TrainingError):
            TrainConfig(principles=frozenset({"IV"}))
        with pytest.raises(TrainingError):
            TrainConfig(cond_multiplier=1.0)
        with pytest.raises(TrainingError):
            TrainConfig(track_feature_shift=True, feature_width=4)

    @pytest.mark.parametrize("field, value", [
        ("learning_rate", math.nan), ("learning_rate", 0.0), ("learning_rate", -0.1),
        ("cond_multiplier", math.nan), ("n_source", 0), ("n_target", 0),
        ("hidden_width", 0), ("feature_width", 0), ("feature_bins", 0),
        # values of the wrong type
        ("epochs", "3"), ("epochs", True), ("batch_size", 1.5), ("seed", None),
        ("n_source", 2000.0), ("learning_rate", "0.05"), ("cond_multiplier", True),
        ("track_feature_shift", 1), ("principles", "III"),
        ("principles", 3), ("principles", [["I"]])])
    def test_config_that_cannot_train_is_rejected(self, field, value):
        with pytest.raises(TrainingError):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("name, value", [
        (f.name, value) for f in dataclasses.fields(TrainConfig)
        for value in ("1", *((True, math.inf, -math.inf)
                             if type(f.default) in (int, float) else ()))])
    def test_every_setting_rejects_a_wrong_typed_value(self, name, value):
        # derived from the fields, so a setting added later cannot skip the check
        with pytest.raises(TrainingError, match=name):
            TrainConfig(**{name: value})

    def test_init_deterministic(self):
        cfg = TrainConfig(seed=7)
        a = init_models(cfg)
        b = init_models(cfg)
        for (_, x), (_, y) in zip(a.param_items(), b.param_items()):
            assert np.array_equal(x, y)

    def test_shape_audit(self):
        cfg = TrainConfig(hidden_width=16, feature_width=16)
        m = init_models(cfg, n_classes=3)
        assert m.w1.shape == (16, 2) and m.w2.shape == (16, 16)
        assert m.wh.shape == (3, 16) and m.wd.shape == (16,)
        assert m.hidden_width == 16 and m.feature_width == 16 and m.n_classes == 3


class TestCompositeLoss:
    def test_identical_batches_zero_conditional_and_chance_adversarial(self):
        m, src, _, _, _, = small_fixture()
        st = CentroidState.empty(2, m.feature_width)
        tgt = SampleBatch(src.xs, src.ys)
        w = WeightVector(np.ones(2))
        m.wd = np.zeros(m.feature_width)
        m.bd = np.zeros(1)
        parts, _, _ = loss_and_gradients(m, src, tgt, st, w, lam0=1.0, lam1=1.0)
        assert parts["conditional"] == pytest.approx(0.0, abs=1e-15)
        assert parts["adversarial"] == pytest.approx(-LOG4, abs=1e-12)
        assert parts["js_estimate"] == pytest.approx(0.0, abs=1e-12)

    def test_default_class_weights_are_the_pairs_label_frequencies(self):
        m, src, tgt, st, w = small_fixture()
        freq = (np.bincount(src.ys, minlength=2) / len(src)
                + np.bincount(tgt.ys, minlength=2) / len(tgt))
        parts, grads, new_st = loss_and_gradients(m, src, tgt, st, w, 0.5, 0.5)
        want = loss_and_gradients(m, src, tgt, st, w, 0.5, 0.5, class_weights=freq)
        assert parts == want[0] and np.array_equal(new_st.mu, want[2].mu)
        for (name, got), (_, ref) in zip(grads.param_items(), want[1].param_items()):
            assert got.tobytes() == ref.tobytes(), name

    def test_zero_weights_reduce_to_weighted_cross_entropy(self):
        m, src, tgt, st, w = small_fixture()
        parts, _, _ = loss_and_gradients(m, src, tgt, st, w, lam0=0.0, lam1=0.0)
        assert parts["total"] == pytest.approx(parts["weighted_source"], abs=1e-15)

    def test_class_absent_from_both_batches_is_skipped(self):
        m, src, tgt, st, w = small_fixture()
        # restrict both batches to class 0 and blank class-1 state
        keep_s = src.ys == 0
        keep_t = tgt.ys == 0
        src0 = SampleBatch(src.xs[keep_s], src.ys[keep_s])
        tgt0 = SampleBatch(tgt.xs[keep_t], tgt.ys[keep_t])
        st0 = CentroidState.empty(2, m.feature_width)
        parts, _, _ = loss_and_gradients(m, src0, tgt0, st0, w, lam0=0.0, lam1=1.0)
        # only class 0 contributes; it is finite and well-defined
        assert math.isfinite(parts["conditional"])
        # class 1 only in the source batch (a collapsed pseudo-labelling loses
        # it on the target side): its source centroid starts, its loss is skipped
        parts, _, st1 = loss_and_gradients(m, src, tgt0, st0, w, lam0=0.0, lam1=1.0)
        assert math.isfinite(parts["conditional"])
        assert st1.counts[1] == 1
        assert st1.counts[2 + 1] == 0

    @pytest.mark.parametrize("batch, label", [("source", -1), ("target", 5),
                                              ("target", -2), ("source", 2)])
    def test_label_outside_the_classes_raises(self, batch, label):
        m, src, tgt, st, w = small_fixture()
        ys = (src if batch == "source" else tgt).ys.copy()
        ys[0] = label
        if batch == "source":
            src = SampleBatch(src.xs, ys)
        else:
            tgt = SampleBatch(tgt.xs, ys)
        with pytest.raises(TrainingError, match="labels"):
            loss_and_gradients(m, src, tgt, st, w, 0.5, 0.5,
                               class_weights=np.array([0.9, 1.1]))
        with pytest.raises(TrainingError, match="labels"):  # the default class weights
            loss_and_gradients(m, src, tgt, st, w, 0.5, 0.5)
        with pytest.raises(TrainingError, match="labels"):
            train_step(m, src, tgt, st, w, 0.5, 0.5, 0.1,
                       class_weights=np.array([0.9, 1.1]))


def masked_sigmoid(u):
    """The two-branch sigmoid the trainer used before its single-pass form."""
    out = np.empty_like(u)
    pos = u >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-u[pos]))
    e = np.exp(u[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def per_class_term_ii(z_s, z_t, ys_s, ys_t, st, class_weights, lam1):
    """Term II one class at a time, as the trainer computed it before batching.

    Returns the loss, the committed centroids and the feature gradient.
    """
    rho = CENTROID_MOMENTUM
    n_classes = len(class_weights)

    def effective(stored, count, batch_mean):
        if batch_mean is not None:
            if count > 0:
                return rho * stored + (1.0 - rho) * batch_mean, 1.0 - rho
            return batch_mean, 1.0
        return (stored.copy(), 0.0) if count > 0 else (None, 0.0)

    dz = np.zeros((len(ys_s) + len(ys_t), z_s.shape[1]))
    dz_s, dz_t = dz[:len(ys_s)], dz[len(ys_s):]
    new_st = CentroidState(st.mu.copy(), st.counts.copy())
    t2 = 0.0
    for y in range(n_classes):
        idx_s = np.flatnonzero(ys_s == y)
        idx_t = np.flatnonzero(ys_t == y)
        mean_s = z_s[idx_s].mean(axis=0) if idx_s.size else None
        mean_t = z_t[idx_t].mean(axis=0) if idx_t.size else None
        mu_s, coef_s = effective(st.mu[y], st.counts[y], mean_s)
        mu_t, coef_t = effective(st.mu[n_classes + y], st.counts[n_classes + y], mean_t)
        if idx_s.size:
            new_st.mu[y] = mu_s
            new_st.counts[y] += 1
        if idx_t.size:
            new_st.mu[n_classes + y] = mu_t
            new_st.counts[n_classes + y] += 1
        if mu_s is None or mu_t is None:
            continue
        diff = mu_s - mu_t
        t2 += class_weights[y] * float(diff @ diff)
        scale = 2.0 * lam1 * class_weights[y]
        if idx_s.size:
            dz_s[idx_s] += scale * coef_s / idx_s.size * diff
        if idx_t.size:
            dz_t[idx_t] -= scale * coef_t / idx_t.size * diff
    return t2, new_st, dz


class TestClassBatchedStepOracle:
    """The class-batched step against the per-class loop and the masked sigmoid, with ==."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("stored", ["zero", "positive", "mixed"])
    @pytest.mark.parametrize("absent", ["none", "source", "target", "both"])
    @pytest.mark.parametrize("n_classes", [2, 5])
    def test_term_ii_equals_per_class_loop(self, n_classes, absent, stored, seed):
        rng = np.random.default_rng([n_classes, len(absent), len(stored), seed])
        f = 4
        m = init_models(TrainConfig(hidden_width=6, feature_width=f, seed=seed),
                        n_classes=n_classes)
        gone = int(rng.integers(n_classes))
        classes_s = [y for y in range(n_classes) if absent not in ("source", "both")
                     or y != gone]
        classes_t = [y for y in range(n_classes) if absent not in ("target", "both")
                     or y != gone]
        ns, nt = int(rng.integers(3, 40)), int(rng.integers(3, 40))
        src = SampleBatch(rng.normal(size=(ns, 2)), rng.choice(classes_s, ns))
        tgt = SampleBatch(rng.normal(size=(nt, 2)), rng.choice(classes_t, nt))
        st = CentroidState.empty(n_classes, f)
        st.mu[:n_classes] = rng.normal(size=(n_classes, f))
        st.mu[n_classes:] = rng.normal(size=(n_classes, f))
        if stored != "zero":
            low = 0 if stored == "mixed" else 1
            st.counts[:n_classes] = rng.integers(low, 4, n_classes)
            st.counts[n_classes:] = rng.integers(low, 4, n_classes)
        w = WeightVector(rng.uniform(0.2, 2.0, n_classes))
        class_weights = rng.uniform(0.1, 1.5, n_classes)
        lam1 = float(rng.uniform(0.1, 3.0))
        # terms I (zero class weights) and III off, so the gradient is term II's alone
        parts, grads, new_st = loss_and_gradients(
            m, src, tgt, st, WeightVector(np.zeros(n_classes)), 0.0, lam1, class_weights)

        z, a = features(m, np.concatenate((src.xs, tgt.xs)))
        t2, ref_st, dz = per_class_term_ii(z[:ns], z[ns:], src.ys, tgt.ys, st,
                                           class_weights, lam1)
        assert parts["conditional"] == t2
        for name in ("mu", "counts"):
            assert np.array_equal(getattr(new_st, name), getattr(ref_st, name)), name
        assert np.array_equal(grads.b2, np.add.reduce(dz))
        assert np.array_equal(grads.w2, dz.T @ a)
        da = (dz @ m.w2) * (1.0 - a * a)
        assert np.array_equal(grads.w1, da.T @ np.concatenate((src.xs, tgt.xs)))

    def test_sigmoid_equals_masked_sigmoid(self):
        special = np.array([0.0, -0.0, 745.0, -745.0, 1e308, -1e308, np.nan])
        u = np.concatenate((special, np.random.default_rng(0).normal(0, 30, 2000)))
        got, want = _sigmoid(u), masked_sigmoid(u)
        nan = np.isnan(u)
        assert np.array_equal(np.isnan(got), nan) and np.array_equal(np.isnan(want), nan)
        assert got[~nan].tobytes() == want[~nan].tobytes()


class TestGradients:
    def test_gradient_audit_all_terms(self):
        m, src, tgt, st, w = small_fixture()
        errs = grad_check(m, src, tgt, st, w, lam0=0.7, lam1=0.9)
        assert errs["weighted_source"] <= 1e-4
        assert errs["conditional"] <= 1e-4
        assert errs["adversarial"] <= 1e-4
        assert errs["composite"] <= 1e-4

    def test_gradient_audit_fresh_centroids(self):
        m, src, tgt, _, w = small_fixture(seed=3)
        st = CentroidState.empty(2, m.feature_width)
        errs = grad_check(m, src, tgt, st, w, lam0=0.5, lam1=2.0)
        assert max(errs.values()) <= 1e-4

    def test_gradient_audit_is_the_same_in_any_memory_order(self):
        m, src, tgt, st, w = small_fixture()
        fortran = ModelParams(**{name: np.asfortranarray(arr) for name, arr in m.param_items()})
        assert not fortran.w1.flags.c_contiguous
        assert grad_check(fortran, src, tgt, st, w) == grad_check(m, src, tgt, st, w)

    def test_gradient_audit_leaves_the_model_unchanged(self):
        m, src, tgt, st, w = small_fixture()
        before = [arr.tobytes() for _, arr in m.param_items()]
        grad_check(m, src, tgt, st, w)
        assert [arr.tobytes() for _, arr in m.param_items()] == before

    def test_discriminator_ascends_extractor_descends(self):
        m, src, tgt, st, w = small_fixture()
        lam0, lam1, lr = 0.8, 0.6, 0.01
        off = WeightVector(np.zeros(len(w.alpha)))  # term I off
        _, g_adv, _ = loss_and_gradients(m, src, tgt, st, off, 1.0, 0.0)
        _, grads, _ = loss_and_gradients(m, src, tgt, st, w, lam0, lam1)
        m2, _, _ = train_step(m, src, tgt, st, w, lam0, lam1, lr)
        # d moves along +grad of the adversarial term
        assert np.allclose(m2.wd - m.wd, lr * lam0 * g_adv.wd, atol=1e-12)
        # g moves along -grad of the combined objective
        assert np.allclose(m2.w1 - m.w1, -lr * grads.w1, atol=1e-12)

    def test_fused_gradient_is_linear_in_term_weights(self):
        # grad_check's per-term audit relies on this
        m, src, tgt, st, w = small_fixture()
        lam0, lam1 = 0.7, 0.9
        _, fused, _ = loss_and_gradients(m, src, tgt, st, w, lam0, lam1)
        assert isinstance(fused, ModelParams)
        off = WeightVector(np.zeros(len(w.alpha)))  # term I off
        _, g1, _ = loss_and_gradients(m, src, tgt, st, w, 0.0, 0.0)
        _, g2, _ = loss_and_gradients(m, src, tgt, st, off, 0.0, 1.0)
        _, g3, _ = loss_and_gradients(m, src, tgt, st, off, 1.0, 0.0)
        for name, _ in m.param_items():
            combined = getattr(g1, name) + lam1 * getattr(g2, name) + lam0 * getattr(g3, name)
            assert np.max(np.abs(getattr(fused, name) - combined)) <= 1e-12, name

    def test_zero_learning_rate_is_identity(self):
        m, src, tgt, st, w = small_fixture()
        m2, _, _ = train_step(m, src, tgt, st, w, 0.5, 0.5, lr=0.0)
        for (_, a), (_, b) in zip(m.param_items(), m2.param_items()):
            assert np.array_equal(a, b)

    def test_train_step_leaves_its_inputs_unchanged(self):
        m, src, tgt, st, w = small_fixture()
        before = [arr.copy() for _, arr in m.param_items()]
        mu, counts = st.mu.copy(), st.counts.copy()
        m2, _, _ = train_step(m, src, tgt, st, w, 0.5, 0.5, lr=0.1)
        for (name, arr), old in zip(m.param_items(), before):
            assert np.array_equal(arr, old), name
        assert np.array_equal(st.mu, mu) and np.array_equal(st.counts, counts)
        assert not np.array_equal(m2.w1, m.w1)

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_non_finite_parameters_raise_with_attribution(self):
        m, src, tgt, st, w = small_fixture()
        m.w2[0, 0] = np.inf  # tanh would saturate an inf in the first layer
        with pytest.raises(TrainingError, match="non-finite"):
            train_step(m, src, tgt, st, w, 0.5, 0.5, lr=0.1)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_non_finite_gradient_names_its_parameter(self):
        m = init_models(TrainConfig(hidden_width=6, feature_width=4, seed=1), n_classes=2)
        m.w1[0] = 0.0  # a hidden unit that the huge inputs below cannot saturate
        m.w2[:, 0] = 100.0
        m.wd[:] = 10.0
        rng = np.random.default_rng(0)
        src = SampleBatch(np.full((8, 2), 1e308), rng.integers(0, 2, 8))
        tgt = SampleBatch(rng.normal(size=(8, 2)), rng.integers(0, 2, 8))
        # every loss term stays finite; only w1's gradient (huge inputs) overflows
        with pytest.raises(TrainingError, match="non-finite gradient in w1"):
            train_step(m, src, tgt, CentroidState.empty(2, 4), WeightVector(np.ones(2)),
                       1.0, 0.5, lr=0.1)

    def test_single_step_decreases_source_term(self):
        m, src, tgt, st, w = small_fixture(seed=5)
        parts0, _, _ = loss_and_gradients(m, src, tgt, st, w, 0.0, 0.0)
        m2, st2, _ = train_step(m, src, tgt, st, w, 0.0, 0.0, lr=0.1)
        parts1, _, _ = loss_and_gradients(m2, src, tgt, st, w, 0.0, 0.0)
        assert parts1["weighted_source"] < parts0["weighted_source"]

    def test_centroid_momentum_commit(self):
        from jsda.training import CENTROID_MOMENTUM as rho
        from jsda.training import features
        m, src, tgt, st, w = small_fixture()
        _, _, st2 = loss_and_gradients(m, src, tgt, st, w, 0.0, 0.0)
        z_s, _ = features(m, src.xs)
        for y in (0, 1):
            idx = src.ys == y
            if idx.any():
                expected = rho * st.mu[y] + (1 - rho) * z_s[idx].mean(axis=0)
                assert np.allclose(st2.mu[y], expected, atol=1e-12)
                assert st2.counts[y] == st.counts[y] + 1


class TestPseudoLabels:
    def test_easy_scenario_perfect_pseudo_labels(self):
        sc = make_scenario("label-shift", source_label_marginal=(0.5, 0.5),
                           target_label_marginal=(0.8, 0.2), cov_scale=0.1, seed=2)
        cfg = TrainConfig(epochs=10, n_source=500, n_target=500, seed=0)
        trace = run_training(sc, cfg)
        assert trace.target_accuracy[-1] == 1.0

    def test_untrained_model_constant_predictions(self):
        m = init_models(TrainConfig(seed=0), n_classes=2)
        for _, arr in m.param_items():
            arr[...] = 0.0
        sc = make_scenario("label-shift", target_label_marginal=(0.8, 0.2), seed=1)
        tgt = sample(sc, "target", 200)
        hold = sample(sc, "source", 100, stream=(9,))
        labels, t_p, alpha = pseudo_label_step(m, tgt.xs, (hold.xs, hold.ys), 2)
        # all-zero logits break ties at class 0
        assert np.all(labels == 0)
        assert t_p[0] == 1.0
        # degenerate confusion matrix falls back gracefully
        assert alpha.method in ("lstsq", "fallback")

    def test_alpha_recovery_after_training(self):
        sc = make_scenario("label-shift", source_label_marginal=(0.5, 0.5),
                           target_label_marginal=(0.8, 0.2), cov_scale=0.5, seed=3)
        cfg = TrainConfig(epochs=20, n_source=2000, n_target=2000, seed=1)
        trace = run_training(sc, cfg)
        assert np.max(np.abs(trace.alpha_hat[-1] - [1.6, 0.4])) < 0.1


class TestTrainingLoop:
    def test_deterministic_trace(self):
        sc = make_scenario("conditional-shift", rotation_deg=30.0,
                           target_label_marginal=(0.7, 0.3), seed=3)
        cfg = TrainConfig(epochs=5, n_source=300, n_target=300, seed=9)
        a = run_training(sc, cfg)
        b = run_training(sc, cfg)
        assert a.target_accuracy == b.target_accuracy
        assert a.weighted_source_loss == b.weighted_source_loss
        for x, y in zip(a.alpha_hat, b.alpha_hat):
            assert np.array_equal(x, y)

    def test_criterion_8_trajectory_pinned(self):
        """Final accuracies of two all-principle criterion-8 runs, pinned exactly.

        The run at seed 2115743642 collapses. 0.294 records that known
        collapse and is not a target; pinning it holds the trainer step to the
        same trajectory on a run that leans on the missing-class fallback.
        """
        sc = make_scenario("conditional-shift", rotation_deg=40.0, cov_scale=1.2,
                           source_label_marginal=(0.5, 0.5),
                           target_label_marginal=(0.8, 0.2), seed=3)
        cfg = TrainConfig(epochs=60, n_source=1500, n_target=1500,
                          cond_multiplier=12.0, learning_rate=0.03)
        assert run_training(sc, replace(cfg, seed=0)).target_accuracy[-1] == 0.956
        collapsed = run_training(sc, replace(cfg, seed=2115743642))
        assert collapsed.target_accuracy[-1] == 0.294

    @pytest.mark.parametrize("case, digest", [
        ("criterion-8 seed 0",
         "cb58f186092a48a3cdf8714f94784ac5e5491c8e7e3dbfcf360ffd549e8ee910"),
        ("criterion-8 seed 2115743642",
         "6e6748c4e8db271551b5e42f041660d6c2ec0298da4b57e4c334d44f3b7ff6e9"),
        ("3 classes, batch 4",
         "95fc0e9ebed063ba1618bfbc0a369de24eddef319ddb2cc3d859fb0b945adb5e"),
        ("feature shift, width 2",
         "30a14968cf53dc49c4d27578272afb790ace8d41338e8940055b807ebcead0e6"),
        ("n_source a multiple of batch_size",
         "1fd4ec50e845d88dbe8c9967977208f825ce5c4516c67e4007999dacb4374067"),
        # ablation subsets: the step leaves out the terms their principles drop
        ("criterion-8 seed 0 / III",
         "894ad742cc0de548577a887dd2eab50d05064e20a6f9faeeb919d31621c37fd1"),
        ("criterion-8 seed 0 / I+III",
         "8dd4477df61c727a6de83ac644315f0b3987b1efe0bf496ad4b2c911699d06e4"),
        ("criterion-8 seed 0 / I+II",
         "ff8bf394ca7a3ad43d0603d94f0f902f93003bf51d514d8f45e03eea13b47bbc"),
        ("3 classes, batch 4 / I+III",
         "c62feeb35235520abcf5fc1171b38fc480c284873cfcc830cb53be68ef812d62"),
        ("3 classes, batch 4 / I+II",
         "e2f9973c34b0396aa391c50f3780fe4adf7c6209e82d37ae2290b03385eeacbe"),
    ])
    def test_trace_digest_pinned(self, case, digest):
        """sha256 over every TrainTrace field and the final parameters, pinned.

        Any change to the step's arithmetic, batch order or pseudo-label refresh
        moves some bit of the trace; a rewrite of the step must keep all of them.
        A case named "... / I+II" trains that principle subset; the subset pins
        were taken from a trainer that computed every term in every subset.
        """
        case, _, subset = case.partition(" / ")
        sc = make_scenario("conditional-shift", rotation_deg=40.0, cov_scale=1.2,
                           source_label_marginal=(0.5, 0.5),
                           target_label_marginal=(0.8, 0.2), seed=3)
        if case.startswith("criterion-8"):
            cfg = TrainConfig(epochs=60, n_source=1500, n_target=1500,
                              cond_multiplier=12.0, learning_rate=0.03,
                              seed=int(case.rsplit(" ", 1)[1]))
        elif case.startswith("feature shift"):
            cfg = TrainConfig(epochs=8, n_source=400, n_target=300, feature_width=2,
                              track_feature_shift=True, cond_multiplier=12.0,
                              learning_rate=0.03, seed=2)
        elif case.startswith("n_source"):  # the last batch is full; the target order wraps
            cfg = TrainConfig(epochs=8, n_source=512, n_target=400, batch_size=64,
                              cond_multiplier=12.0, learning_rate=0.03, seed=3)
        else:
            sc = make_scenario("label-shift", n_classes=3,
                               source_label_marginal=(0.4, 0.4, 0.2),
                               target_label_marginal=(0.7, 0.2, 0.1), seed=4)
            cfg = TrainConfig(epochs=6, n_source=120, n_target=90, batch_size=4,
                              seed=1)
        if subset:
            cfg = replace(cfg, principles=frozenset(subset.split("+")))
        assert trace_digest(run_training(sc, cfg)) == digest

    @pytest.mark.parametrize("subset", ["III", "I+III", "I+II", "II+III", "I+II+III"])
    @pytest.mark.parametrize("epochs, batch_size", [(1, 128), (3, 50)])
    def test_public_train_step_loop_equals_run_training(self, epochs, batch_size, subset):
        """run_training's epochs rebuilt from the public one-pair train_step, with ==.

        The public step computes every term in every subset, with the dropped
        principles' weights at zero; run_training leaves those terms out.
        """
        from jsda.training import _STREAM_HOLDOUT, _STREAM_SHUFFLE, HOLDOUT_FRACTION
        sc = make_scenario("conditional-shift", rotation_deg=40.0, cov_scale=1.2,
                           source_label_marginal=(0.5, 0.5),
                           target_label_marginal=(0.8, 0.2), seed=3)
        on = subset.split("+")
        cfg = TrainConfig(epochs=epochs, batch_size=batch_size, n_source=300, n_target=240,
                          cond_multiplier=12.0, learning_rate=0.03, seed=4,
                          principles=frozenset(on))
        n_hold = max(2, int(HOLDOUT_FRACTION * cfg.n_source))
        src = sample(sc, "source", cfg.n_source + n_hold, stream=(cfg.seed,))
        tgt = sample(sc, "target", cfg.n_target, stream=(cfg.seed,))
        perm = np.random.default_rng([cfg.seed, _STREAM_HOLDOUT]).permutation(len(src))
        holdout = (src.xs[perm[:n_hold]], src.ys[perm[:n_hold]])
        xs, ys = src.xs[perm[n_hold:]], src.ys[perm[n_hold:]]
        m = init_models(cfg, n_classes=2)
        st = CentroidState.empty(2, cfg.feature_width)
        s_hat = np.bincount(ys, minlength=2) / ys.size
        pseudo, t_p, alpha_hat = pseudo_label_step(m, tgt.xs, holdout, 2)
        losses = []
        for epoch in range(epochs):
            lam = lambda_schedule(epoch / max(1, epochs - 1))
            lam0 = lam if "III" in on else 0.0
            lam1 = cfg.cond_multiplier * lam if "II" in on else 0.0
            w = alpha_hat if "I" in on else WeightVector(np.ones(2))
            rng = np.random.default_rng([cfg.seed, _STREAM_SHUFFLE, epoch])
            order_s = rng.permutation(ys.size)
            order_t = np.take(rng.permutation(len(tgt)), np.arange(ys.size), mode="wrap")
            class_weights, parts = s_hat + t_p, []
            for lo in range(0, ys.size, batch_size):
                s, t = order_s[lo:lo + batch_size], order_t[lo:lo + batch_size]
                m, st, part = train_step(m, SampleBatch(xs[s], ys[s]),
                                         SampleBatch(tgt.xs[t], pseudo[t]), st, w, lam0,
                                         lam1, cfg.learning_rate, class_weights)
                parts.append(part)
            mean = {key: float(np.mean([part[key] for part in parts])) for key in parts[0]}
            losses.append((mean["weighted_source"],  # a dropped principle reports 0.0
                           mean["conditional"] if "II" in on else 0.0,
                           mean["js_estimate"] if "III" in on else 0.0))
            pseudo, t_p, alpha_hat = pseudo_label_step(m, tgt.xs, holdout, 2)
        trace = run_training(sc, cfg)
        assert list(zip(trace.weighted_source_loss, trace.conditional_loss,
                        trace.adversarial_js)) == losses
        for (name, got), (_, want) in zip(trace.model.param_items(), m.param_items()):
            assert got.tobytes() == want.tobytes(), name

    def test_lambda_schedule_shape(self):
        assert lambda_schedule(0.0) == pytest.approx(0.0, abs=1e-12)
        assert lambda_schedule(1.0) == pytest.approx(1.0, abs=1e-4)
        grid = [lambda_schedule(m) for m in np.linspace(0, 1, 11)]
        assert grid == sorted(grid)

    def test_principle_gating_in_trace(self):
        sc = make_scenario("label-shift", source_label_marginal=(0.5, 0.5),
                           target_label_marginal=(0.8, 0.2), seed=3)
        base = dict(epochs=4, n_source=300, n_target=300, seed=2)
        no_ii = run_training(sc, TrainConfig(principles=frozenset({"I", "III"}), **base))
        assert all(l == 0.0 for l in no_ii.lam1)
        no_iii = run_training(sc, TrainConfig(principles=frozenset({"I", "II"}), **base))
        assert all(l == 0.0 for l in no_iii.lam0)
        assert all(v == 0.0 for v in no_iii.adversarial_js)
        no_i = run_training(sc, TrainConfig(principles=frozenset({"II", "III"}), **base))
        assert all(np.array_equal(a, np.ones(2)) for a in no_i.alpha_used)
        only_iii = run_training(sc, TrainConfig(principles=frozenset({"III"}), **base))
        assert all(l == 0.0 for l in only_iii.lam1)
        assert all(v == 0.0 for v in only_iii.conditional_loss)
        assert all(np.array_equal(a, np.ones(2)) for a in only_iii.alpha_used)

    def test_trace_rows_structure(self):
        sc = make_scenario("label-shift", target_label_marginal=(0.8, 0.2), seed=3)
        cfg = TrainConfig(epochs=3, n_source=200, n_target=200, seed=2)
        trace = run_training(sc, cfg)
        rows = trace.rows()
        assert len(rows) == 3
        assert {"epoch", "weighted_source_loss", "conditional_loss",
                "adversarial_js", "target_accuracy", "alpha_hat_0",
                "t_p_hat_0"} <= set(rows[0])

    def test_trace_shapes_match_guideline(self):
        # source and conditional losses fall, the adversarial estimate stays small
        sc = make_scenario("conditional-shift", rotation_deg=40.0, cov_scale=1.2,
                           source_label_marginal=(0.5, 0.5),
                           target_label_marginal=(0.8, 0.2), seed=3)
        cfg = TrainConfig(epochs=40, n_source=1000, n_target=1000,
                          cond_multiplier=12.0, learning_rate=0.03, seed=0)
        tr = run_training(sc, cfg)
        assert tr.weighted_source_loss[-1] < tr.weighted_source_loss[0]
        assert tr.conditional_loss[-1] < tr.conditional_loss[0]
        assert abs(tr.adversarial_js[-1]) < 0.1


class TestFeatureShiftStatistics:
    def test_identical_clouds(self):
        rng = np.random.default_rng(0)
        z = rng.normal(size=(500, 2))
        ys = rng.integers(0, 2, 500)
        stats = feature_shift_statistics(z, z, ys, ys, 2, bins=10)
        assert stats["feature_js"] == pytest.approx(0.0, abs=1e-12)
        assert stats["conditional_floor"] == pytest.approx(0.0, abs=1e-12)

    def test_overmatching_direction(self):
        # shrinking feature JS with fixed label JS raises the floor
        rng = np.random.default_rng(1)
        z_s = rng.normal(size=(2000, 2))
        ys = rng.integers(0, 2, 2000)
        yt = (rng.random(2000) < 0.1).astype(int)
        far = feature_shift_statistics(z_s, z_s + 3.0, ys, yt, 2, bins=8)
        near = feature_shift_statistics(z_s, z_s, ys, yt, 2, bins=8)
        assert near["feature_js"] < far["feature_js"]
        assert near["conditional_floor"] > far["conditional_floor"]


class TestAblation:
    def test_rows_and_order(self):
        sc = make_scenario("label-shift", source_label_marginal=(0.5, 0.5),
                           target_label_marginal=(0.8, 0.2), seed=3)
        cfg = TrainConfig(epochs=2, n_source=150, n_target=150, seed=0)
        rows = ablate(sc, cfg, seeds=(0,))
        assert [r["principles"] for r in rows] == [
            "III", "I+III", "I+II", "II+III", "I+II+III"]
        assert all(0.0 <= r["mean_accuracy"] <= 1.0 for r in rows)

    def test_a_string_subset_is_rejected_not_split_into_letters(self):
        # frozenset("III") is {"I"}: a subset given as one string must raise
        sc = make_scenario("label-shift", seed=3)
        cfg = TrainConfig(epochs=1, n_source=40, n_target=40, seed=0)
        with pytest.raises(TrainingError, match="principles"):
            ablate(sc, cfg, subsets=["III", "II"], seeds=(0,))
        rows = ablate(sc, cfg, subsets=[["III"], {"II"}], seeds=(0,))
        assert [r["principles"] for r in rows] == ["III", "II"]
