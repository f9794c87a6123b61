"""Scenario generator tests: construction, sampling, discretization."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from jsda.pmf import _fsum
from jsda.scenarios import (_CHUNK_ROWS, _DOMAIN_CODE, _STREAM_FEATURES, _STREAM_LABELS,
                            SampleBatch, ScenarioError, _cell_mass, _chunks, _grid_centers,
                            _mixture_cell_mass, _shared_grid, bounding_box)


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

    @settings(derandomize=True, database=None, max_examples=20, deadline=None)
    @given(st.sampled_from(["source_means", "source_covs", "target_means", "target_covs",
                            "source_label_marginal", "target_label_marginal"]),
           st.sampled_from([math.nan, math.inf, -math.inf]), st.data())
    def test_non_finite_entry_rejected_in_any_position(self, name, bad, data):
        d = make_scenario("conditional-shift", n_classes=3).to_json_dict()
        arr = np.array(d[name])
        arr.flat[data.draw(st.integers(0, arr.size - 1))] = bad
        d[name] = arr.tolist()
        with pytest.raises(ScenarioError, match=f"{name} must be finite"):
            ShiftScenario.from_json_dict(d)

    @pytest.mark.parametrize("marginal", [(math.nan, math.nan), (math.nan, 1.0),
                                          (math.inf, 0.0)])
    def test_non_finite_label_marginal_rejected(self, marginal):
        with pytest.raises(ScenarioError, match="target_label_marginal must be finite"):
            make_scenario("label-shift", target_label_marginal=marginal)

    @pytest.mark.parametrize("kind, name, value", [
        *(("label-shift", "n_classes", v) for v in (2.7, 3.0, True)),
        *(("open-set", "n", v) for v in (2.0, False)),
        *((kind, "seed", v) for kind in ("label-shift", "open-set")
          for v in (1.5, np.float64(3.0), True))])
    def test_non_integral_count_or_seed_rejected(self, kind, name, value):
        params = {"n": 4, "alpha": 0.5} if kind == "open-set" else {}
        with pytest.raises(ScenarioError, match=f"{name} must be an integer"):
            make_scenario(kind, **{**params, name: value})
        make_scenario(kind, **{**params, name: np.int64(3)})  # a numpy integer passes

    @pytest.mark.parametrize("name, value", [
        ("cov_scale", "a"), ("cov_scale", math.nan), ("cov_scale", True),
        ("rotation_deg", "x"), ("rotation_deg", math.inf)])
    def test_non_real_generator_value_rejected(self, name, value):
        with pytest.raises(ScenarioError, match=f"{name} must be a finite real number"):
            make_scenario("conditional-shift", **{name: value})

    @pytest.mark.parametrize("alpha", ["a", math.nan, [0.5]])
    def test_non_real_alpha_rejected(self, alpha):
        with pytest.raises(ScenarioError, match="alpha must be a finite real number"):
            make_scenario("open-set", n=4, alpha=alpha)

    @pytest.mark.parametrize("shift, message", [
        ([1.0], "must hold 2 numbers"), ((1.0, 2.0, 3.0), "must hold 2 numbers"),
        (1.0, "must hold 2 numbers"), ((1.0, math.inf), "entry must be a finite real number"),
        ("ab", "entry must be a finite real number"),
        (np.ones((2, 2)), "entry must be a finite real number")])
    def test_feature_shift_must_be_two_finite_reals(self, shift, message):
        with pytest.raises(ScenarioError, match=f"feature_shift {message}"):
            make_scenario("cofeature", feature_shift=shift)

    @pytest.mark.parametrize("kind, name, value", [
        ("open-set", "n_classes", 3), ("open-set", "source_label_marginal", (0.9, 0.1)),
        ("open-set", "target_label_marginal", (0.9, 0.1)), ("open-set", "rotation_deg", 80.0),
        ("open-set", "feature_shift", (1.0, 0.5)), ("label-shift", "rotation_deg", 30.0),
        ("label-shift", "feature_shift", (1.0, 0.5)), ("label-shift", "n", 4),
        ("label-shift", "alpha", 0.5), ("conditional-shift", "feature_shift", (1.0, 0.5)),
        ("conditional-shift", "n", 4), ("conditional-shift", "alpha", 0.5),
        ("cofeature", "target_label_marginal", (0.8, 0.2)), ("cofeature", "rotation_deg", 30.0),
        ("cofeature", "n", 4), ("cofeature", "alpha", 0.5)])
    def test_parameter_the_kind_does_not_read_is_rejected(self, kind, name, value):
        params = {"n": 4, "alpha": 0.5} if kind == "open-set" else {}
        with pytest.raises(ScenarioError, match=f"^{kind} scenarios do not use {name}$"):
            make_scenario(kind, **{**params, name: value})
        make_scenario(kind, **{**params, name: None})  # None is the default: not passed

    def test_every_unread_parameter_is_named(self):
        with pytest.raises(ScenarioError, match="^open-set scenarios do not use "
                           "source_label_marginal, rotation_deg$"):
            make_scenario("open-set", n=4, alpha=0.5, source_label_marginal=(0.9, 0.1),
                          rotation_deg=80)

    def test_feature_shift_may_be_an_array(self):
        sc = make_scenario("cofeature", feature_shift=np.array([1.0, 0.5]))
        assert np.array_equal(sc.target_means - sc.source_means, np.full((2, 2), [1.0, 0.5]))

    @pytest.mark.parametrize("cov", [[[1.0, 0.5], [0.4, 1.0]], [[1.0, 2.0], [2.0, 1.0]],
                                     [[0.0, 0.0], [0.0, 0.0]], [[-1.0, 0.0], [0.0, 1.0]]],
                             ids=["asymmetric", "indefinite", "zero", "negative"])
    @pytest.mark.parametrize("name", ["source_covs", "target_covs"])
    def test_scenario_file_covariance_must_be_spd(self, name, cov):
        d = make_scenario("label-shift").to_json_dict()
        d[name][1] = cov
        with pytest.raises(ScenarioError, match="symmetric positive definite"):
            ShiftScenario.from_json_dict(d)

    def test_scenario_file_seed_must_be_nonnegative(self):
        d = make_scenario("label-shift").to_json_dict()
        d["seed"] = -3
        with pytest.raises(ScenarioError, match="seed must be >= 0, not -3"):
            ShiftScenario.from_json_dict(d)

    @pytest.mark.parametrize("name, value", [("n_classes", 2.7), ("seed", 3.9),
                                             ("n_classes", 2.0), ("seed", False)])
    def test_scenario_file_with_non_integral_count_or_seed_rejected(self, name, value):
        d = make_scenario("label-shift").to_json_dict()
        d[name] = value
        with pytest.raises(ScenarioError, match=f"{name} must be an integer"):
            ShiftScenario.from_json_dict(d)

    def test_scenario_file_must_hold_an_object(self):
        with pytest.raises(ScenarioError, match="must hold a JSON object"):
            ShiftScenario.from_json_dict([["kind", "label-shift"]])

    def test_scenario_file_with_unknown_key_rejected(self):
        d = make_scenario("label-shift").to_json_dict()
        with pytest.raises(ScenarioError, match=r"unknown scenario keys \['bogus'\]"):
            ShiftScenario.from_json_dict({**d, "bogus": 3})

    def test_scenario_file_with_missing_key_rejected(self):
        d = make_scenario("label-shift").to_json_dict()
        del d["target_covs"]
        with pytest.raises(ScenarioError, match=r"missing scenario keys \['target_covs'\]"):
            ShiftScenario.from_json_dict(d)

    def test_scenario_file_with_unknown_kind_rejected(self):
        d = make_scenario("cofeature").to_json_dict()
        with pytest.raises(ScenarioError, match="unknown scenario kind 'cofeatur'"):
            ShiftScenario.from_json_dict({**d, "kind": "cofeatur"})

    def test_scenarios_compare_and_hash_by_identity(self):
        sc = make_scenario("label-shift")
        twin = dataclasses.replace(sc)
        assert sc == sc and sc != twin and hash(sc) == hash(sc) and hash(sc) != hash(twin)
        assert len({sc, twin, sc}) == 2

    def test_json_round_trip(self, tmp_path):
        sc = make_scenario("conditional-shift", rotation_deg=45.0,
                           source_label_marginal=(0.3, 0.7), seed=9)
        path = tmp_path / "sc.json"
        sc.save(path)
        back = ShiftScenario.load(path)
        assert back.kind == sc.kind and back.seed == 9
        assert np.allclose(back.target_means, sc.target_means)
        assert np.allclose(back.source_label_marginal, sc.source_label_marginal)


def unchunked_sample(sc, domain, n, stream=()):
    """sample's formula as one draw of all n rows: the reference for its chunks."""
    means, covs, marg = sc.domain_params(domain)
    base = [sc.seed, _DOMAIN_CODE[domain], n, *map(int, stream)]
    ys = np.random.default_rng(base + [_STREAM_LABELS]).choice(sc.n_classes, size=n, p=marg)
    noise = np.random.default_rng(base + [_STREAM_FEATURES]).standard_normal((n, 2))
    xs = np.empty((n, 2))
    for y in range(sc.n_classes):
        mask = ys == y
        if np.any(mask):
            xs[mask] = means[y] + noise[mask] @ np.linalg.cholesky(covs[y]).T
    return xs, ys


class TestSampling:
    @pytest.mark.parametrize("n", [1, _CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1,
                                   3 * _CHUNK_ROWS + 17])
    @pytest.mark.parametrize("sc", [
        make_scenario("label-shift", source_label_marginal=(0.3, 0.7),
                      target_label_marginal=(0.8, 0.2), seed=5),
        make_scenario("conditional-shift", rotation_deg=40.0, cov_scale=1.2, seed=3),
        make_scenario("cofeature", feature_shift=(1.0, -0.5), seed=7),
        make_scenario("label-shift", n_classes=3, source_label_marginal=(0.4, 0.4, 0.2),
                      target_label_marginal=(0.7, 0.2, 0.1), seed=4),
        make_scenario("open-set", n=3, alpha=1 / 3, seed=2),  # classes of zero mass
    ], ids=["label-shift", "conditional-shift", "cofeature", "3 classes", "open-set"])
    def test_chunks_change_no_bit(self, sc, n):
        for domain, stream in (("source", ()), ("target", (4, 1))):
            batch = sample(sc, domain, n, stream=stream)
            xs, ys = unchunked_sample(sc, domain, n, stream)
            assert batch.xs.tobytes() == xs.tobytes() and batch.ys.tobytes() == ys.tobytes()
            full, rest = divmod(n, _CHUNK_ROWS)
            sizes = [len(chunk_ys) for _, chunk_ys in _chunks(sc, domain, n, stream)]
            assert sizes == [_CHUNK_ROWS] * full + [rest] * (rest > 0)

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
        with pytest.raises(ScenarioError, match="^n must be >= 1, not 0$"):
            sample(sc, "source", 0)

    @pytest.mark.parametrize("n", [2.5, True])
    def test_n_must_be_an_integer(self, n):
        sc = make_scenario("conditional-shift")
        with pytest.raises(ScenarioError, match=f"^n must be an integer, not {n}$"):
            sample(sc, "source", n)


class TestSampleBatch:
    def test_copies_what_the_caller_can_write(self):
        xs, ys = np.zeros((8, 2)), np.arange(8)
        frozen_view = xs[2:6]
        frozen_view.setflags(write=False)  # read-only, but xs can still change it
        locked_xs, locked_ys = xs.copy(), ys.copy()
        locked_xs.setflags(write=False)
        locked_ys.setflags(write=False)
        batches = [SampleBatch(xs, ys), SampleBatch(frozen_view, ys[2:6]),
                   SampleBatch(xs.astype(np.float32), ys.astype(np.int32)),
                   SampleBatch(locked_xs[2:6], locked_ys[2:6])]  # read-only all the way down
        for batch in batches:
            for got, given in ((batch.xs, xs), (batch.ys, ys), (batch.xs, locked_xs),
                               (batch.ys, locked_ys)):
                assert not np.shares_memory(got, given)
            assert not batch.xs.flags.writeable and not batch.ys.flags.writeable
            assert batch.xs.dtype == np.float64 and batch.ys.dtype == np.int64
        xs[:] = 1.0
        assert not any(batch.xs.any() for batch in batches)


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
        # the atoms are the cell centers as tuples of Python floats
        assert s.x_atoms == tuple(map(tuple, _grid_centers(sc, 8).tolist()))
        assert {type(a) for a in s.x_atoms} == {tuple}
        assert {type(c) for a in s.x_atoms for c in a} == {float}

    def test_domains_share_one_atoms_object(self):
        for sc in (make_scenario("label-shift", target_label_marginal=(0.8, 0.2)),
                   make_scenario("conditional-shift"), make_scenario("cofeature"),
                   make_scenario("open-set", n=3, alpha=0.5)):
            s, t = discretize(sc, "source", grid=12), discretize(sc, "target", grid=12)
            assert s.x_atoms is t.x_atoms

    def test_memos_match_a_fresh_grid_bit_for_bit(self):
        """Alternating grid sizes, scenarios and domains (the memos hold one grid and two
        masses) gives the atoms and the bits of a grid built from scratch each time."""
        scenarios = [make_scenario("conditional-shift", rotation_deg=25.0),
                     make_scenario("label-shift", target_label_marginal=(0.7, 0.3), cov_scale=0.8)]
        for _ in range(2):
            for grid in (9, 14, 9):
                for sc in (*scenarios, make_scenario("conditional-shift", rotation_deg=50.0)):
                    for domain in ("source", "target", "source"):
                        centers = _grid_centers(sc, grid)
                        mass = _mixture_cell_mass(sc, domain, centers)
                        j = discretize(sc, domain, grid)
                        assert j.x_atoms == tuple(map(tuple, centers.tolist()))
                        assert j.mass.tobytes() == (mass / _fsum(mass.ravel())).tobytes()

    def test_memoised_arrays_are_read_only(self):
        sc = make_scenario("cofeature")
        discretize(sc, "target", grid=8)
        for a in (_shared_grid(sc, 8)[0], _cell_mass(sc, "source", 8), _cell_mass(sc, "target", 8)):
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a.flat[0] = 0.5

    def test_cofeature_target_is_target_feature_times_source_conditional(self):
        sc = make_scenario("cofeature", source_label_marginal=(0.3, 0.7), feature_shift=(0.9, -0.4))
        s = discretize(sc, "source", grid=20)  # the target then reuses the source's masses
        centers = _grid_centers(sc, 20)
        source, target = (_mixture_cell_mass(sc, d, centers) for d in ("source", "target"))
        mass = target.sum(axis=1)[:, None] * (source / source.sum(axis=1)[:, None])
        assert discretize(sc, "target", grid=20).mass.tobytes() == (
            mass / _fsum(mass.ravel())).tobytes()
        assert s.mass.tobytes() == (source / _fsum(source.ravel())).tobytes()

    @pytest.mark.parametrize("domain", ["both", ["source"]], ids=["str", "list"])
    def test_unknown_domain_rejected(self, domain):
        with pytest.raises(ScenarioError, match="^unknown domain"):
            discretize(make_scenario("label-shift"), domain, grid=4)

    def test_grid_lower_bound(self):
        sc = make_scenario("conditional-shift")
        with pytest.raises(ScenarioError, match="^grid must be >= 2, not 1$"):
            discretize(sc, "source", grid=1)

    def test_grid_must_be_an_integer(self):
        sc = make_scenario("conditional-shift")
        with pytest.raises(ScenarioError, match="^grid must be an integer, not 2.5$"):
            discretize(sc, "source", grid=2.5)

    def test_cell_mass_equals_scipy_pdf(self):
        from scipy import stats

        rng = np.random.default_rng(8)
        for sc in [make_scenario("cofeature"), *(random_cov_scenario(rng) for _ in range(20))]:
            centers = _grid_centers(sc, 16)
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
        # +-4 sd of 1e-15 vanishes in the rounding of means at 1e8
        d = make_scenario("label-shift", target_label_marginal=(0.8, 0.2),
                          cov_scale=1e-30).to_json_dict()
        d["source_means"] = d["target_means"] = [[1e8, 1e8], [1e8, 1e8]]
        sc = ShiftScenario.from_json_dict(d)
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
