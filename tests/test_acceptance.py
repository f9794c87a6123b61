"""Acceptance criteria, one test per criterion (run with -v -s for the lines).

Every criterion prints a [PASS]/[FAIL] line with its measured values before
asserting, and asserts its stated tolerance and runtime budget.

Known honest failures: three randomized bound suites in criterion 4
(joint-upper, zero-one-band, intrinsic-error) find genuine counterexamples to
the implemented inequalities; their stated constants are not universally
valid (the achievable ones are looser by factors 2, sqrt(2), and unboundedly
near deterministic conditionals, respectively; minimal counterexamples are
pinned in tests/test_bounds.py). Those sub-cases report their violation
counts and fail as implemented, which is the intended faithful behavior.
"""

import time

import numpy as np
import pytest

from jsda import (
    CentroidState,
    TrainConfig,
    WeightVector,
    counterexample1,
    counterexample2,
    estimate_scenario_weights,
    grad_check,
    init_models,
    make_scenario,
    reweighted_convergence_check,
    risk_band_from_values,
    run_suite,
    run_training,
    sample,
    violations,
)
from jsda.scenarios import SampleBatch
from jsda.training import ablate

_suite_times: dict[str, float] = {}


def _verdict(tag: str, ok: bool, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {tag}: {detail}")
    return ok


def test_criterion_1_same_support_regression():
    t0 = time.perf_counter()
    rep = counterexample2()
    elapsed = time.perf_counter() - t0
    c = rep.computed
    ok = (abs(c["threshold_divergence"] - 1 / 12) <= 1e-12
          and abs(c["js_base2"] - 0.0207) <= 5e-4
          and abs(c["kl_source_vs_mixture_base2"] - 0.02110) <= 5e-5
          and abs(c["kl_target_vs_mixture_base2"] - 0.02032) <= 5e-5
          and rep.verdict and elapsed < 1.0)
    _verdict("criterion 1", ok,
             f"threshold div {c['threshold_divergence']:.12f} (=1/12), "
             f"JS2 {c['js_base2']:.5f} (0.0207±5e-4), "
             f"KLs {c['kl_source_vs_mixture_base2']:.5f}/"
             f"{c['kl_target_vs_mixture_base2']:.5f} ({elapsed:.2f}s)")
    assert ok


def test_criterion_2_disjoint_support_regression():
    t0 = time.perf_counter()
    rep = counterexample1(1.0 / 12.0)
    elapsed = time.perf_counter() - t0
    ok = (rep.computed["js_base2"] == 1.0
          and rep.computed["threshold_divergence"] < rep.computed["js_base2"]
          and rep.verdict and elapsed < 1.0)
    _verdict("criterion 2", ok,
             f"JS2 == 1.0 exactly: {rep.computed['js_base2'] == 1.0}, "
             f"threshold div {rep.computed['threshold_divergence']:.6f} < 1 "
             f"({elapsed:.2f}s)")
    assert ok


def test_criterion_3_worked_band():
    t0 = time.perf_counter()
    band = risk_band_from_values(0.2, 2e-4)
    elapsed = time.perf_counter() - t0
    ok = (abs(band.bound_lo - 0.186) <= 5e-4
          and abs(band.bound_hi - 0.21) <= 5e-4 and elapsed < 1.0)
    _verdict("criterion 3", ok,
             f"band [{band.bound_lo:.5f}, {band.bound_hi:.5f}] "
             f"vs [0.186, 0.21] ± 5e-4 ({elapsed:.2f}s)")
    assert ok


_BOUND_SUITES = ("joint-upper", "zero-one-band", "decomposition-x",
                 "decomposition-y", "intrinsic-error", "matched-conditional",
                 "prediction-gap", "conditional-shift-floor")

_KNOWN_DEFECT_NOTE = {
    "joint-upper": "the G/sqrt(2) and sigma*sqrt(2 JS) constants are too "
                   "tight by a factor 2 (achievable: G*sqrt(2 JS)); "
                   "sub-Gamma variant is clean",
    "zero-one-band": "the sqrt(JS) band constants are too tight by sqrt(2) "
                     "(achievable: sqrt(2 JS))",
    "intrinsic-error": "the entropy-transfer step fails near deterministic "
                       "conditionals",
}


@pytest.mark.parametrize("suite", _BOUND_SUITES)
def test_criterion_4_bound_suites(suite):
    t0 = time.perf_counter()
    reports = run_suite(suite, 1000, seed=7)
    elapsed = time.perf_counter() - t0
    _suite_times[suite] = elapsed
    bad = violations(reports)
    note = ""
    if bad and suite in _KNOWN_DEFECT_NOTE:
        note = f" [known defect: {_KNOWN_DEFECT_NOTE[suite]}]"
    ok = not bad
    _verdict(f"criterion 4 [{suite}]", ok,
             f"{len(bad)}/{len(reports)} violations at tol 1e-9 "
             f"({elapsed:.2f}s){note}")
    assert ok, f"{len(bad)} violating instances in {suite}{note}"


def test_criterion_4_runtime_budget():
    total = sum(_suite_times.get(s, 0.0) for s in _BOUND_SUITES)
    ok = total < 60.0
    _verdict("criterion 4 [runtime]", ok, f"bound suites total {total:.1f}s < 60s")
    assert ok


_DIVERGENCE_SUITES = ("pinsker", "sandwich", "js-triangle", "data-processing")


@pytest.mark.parametrize("suite", _DIVERGENCE_SUITES)
def test_criterion_5_divergence_suites(suite):
    t0 = time.perf_counter()
    reports = run_suite(suite, 1000, seed=7)
    elapsed = time.perf_counter() - t0
    _suite_times[suite] = elapsed
    bad = violations(reports)
    ok = not bad
    _verdict(f"criterion 5 [{suite}]", ok,
             f"{len(bad)}/{len(reports)} violations ({elapsed:.2f}s)")
    assert ok


def test_criterion_5_runtime_budget():
    total = sum(_suite_times.get(s, 0.0) for s in _DIVERGENCE_SUITES)
    ok = total < 30.0
    _verdict("criterion 5 [runtime]", ok, f"divergence suites total {total:.1f}s < 30s")
    assert ok


def test_criterion_6_bbsl_recovery():
    t0 = time.perf_counter()
    sc = make_scenario("label-shift", source_label_marginal=(0.5, 0.5),
                       target_label_marginal=(0.8, 0.2), seed=0)
    errors, accuracies = [], []
    for seed in range(20):
        r = estimate_scenario_weights(sc, n=10_000, seed=seed)
        errors.append(r["sup_error"])
        accuracies.append(r["source_accuracy"])
    elapsed = time.perf_counter() - t0
    ok = max(errors) <= 0.05 and min(accuracies) >= 0.95 and elapsed < 30.0
    _verdict("criterion 6", ok,
             f"max sup error {max(errors):.4f} <= 0.05 over 20 seeds, "
             f"min classifier accuracy {min(accuracies):.4f} ({elapsed:.1f}s)")
    assert ok


def test_criterion_7_gradient_audit():
    t0 = time.perf_counter()
    cfg = TrainConfig(hidden_width=6, feature_width=4, seed=1)
    m = init_models(cfg, n_classes=2)
    sc = make_scenario("label-shift", source_label_marginal=(0.5, 0.5),
                       target_label_marginal=(0.8, 0.2), seed=2)
    src = sample(sc, "source", 16)
    tgt_raw = sample(sc, "target", 12)
    tgt = SampleBatch(tgt_raw.xs, tgt_raw.ys)
    st = CentroidState.empty(2, 4)
    rng = np.random.default_rng(3)
    st.mu[:2] = rng.normal(size=(2, 4))
    st.mu[2:] = rng.normal(size=(2, 4))
    st.counts[:] = 1
    w = WeightVector(np.array([1.6, 0.4]))
    errs = grad_check(m, src, tgt, st, w, lam0=0.7, lam1=0.9)
    elapsed = time.perf_counter() - t0
    worst = max(errs.values())
    ok = worst <= 1e-4 and elapsed < 10.0
    _verdict("criterion 7", ok,
             "max rel err " + ", ".join(f"{k}={v:.2e}" for k, v in errs.items())
             + f" (limit 1e-4, {elapsed:.1f}s)")
    assert ok


def test_criterion_8_ablation_ordering():
    t0 = time.perf_counter()
    sc = make_scenario("conditional-shift", rotation_deg=40.0, cov_scale=1.2,
                       source_label_marginal=(0.5, 0.5),
                       target_label_marginal=(0.8, 0.2), seed=3)
    cfg = TrainConfig(epochs=60, n_source=1500, n_target=1500,
                      cond_multiplier=12.0, learning_rate=0.03, seed=0)
    rows = ablate(sc, cfg, seeds=list(range(10)))
    elapsed = time.perf_counter() - t0
    acc = {r["principles"]: r["mean_accuracy"] for r in rows}
    full = acc["I+II+III"]
    two_ok = all(full >= acc[s] - 0.005 for s in ("I+III", "I+II", "II+III"))
    dann_ok = full - acc["III"] >= 0.02
    ok = two_ok and dann_ok and elapsed < 300.0
    _verdict("criterion 8", ok,
             "mean acc " + ", ".join(f"{k}={v:.4f}" for k, v in acc.items())
             + f"; full>=2-subsets-0.5pp: {two_ok}, full-III="
             f"{(full - acc['III']) * 100:.1f}pp>=2pp: {dann_ok} ({elapsed:.0f}s)")
    assert ok


def test_criterion_9_overmatching_pathology():
    t0 = time.perf_counter()
    sc = make_scenario("label-shift", source_label_marginal=(0.5, 0.5),
                       target_label_marginal=(0.9, 0.1), cov_scale=1.0, seed=4)
    cfg = TrainConfig(epochs=150, batch_size=64, n_source=4000, n_target=4000,
                      principles=frozenset({"III"}), feature_width=2,
                      hidden_width=16, track_feature_shift=True,
                      learning_rate=0.07, feature_bins=8, seed=0)
    trace = run_training(sc, cfg)
    elapsed = time.perf_counter() - t0
    js0, js1 = trace.feature_js[0], trace.feature_js[-1]
    fl0, fl1 = trace.conditional_floor[0], trace.conditional_floor[-1]
    ok = fl1 > fl0 and js1 < js0 and elapsed < 120.0
    _verdict("criterion 9", ok,
             f"feature JS {js0:.4f} -> {js1:.4f} (down), conditional-shift "
             f"floor {fl0:.5f} -> {fl1:.5f} (up) ({elapsed:.0f}s)")
    assert ok


def test_criterion_10_reweighted_convergence():
    t0 = time.perf_counter()
    sc = make_scenario("label-shift", source_label_marginal=(0.5, 0.5),
                       target_label_marginal=(0.8, 0.2), cov_scale=2.0, seed=0)
    rows = reweighted_convergence_check(sc, [100, 10_000], repeats=50, seed=10)
    elapsed = time.perf_counter() - t0
    g_small = np.array(rows[0]["gaps"])
    g_large = np.array(rows[1]["gaps"])
    frac = float(np.mean(g_large < g_small))
    ok = frac >= 0.9 and elapsed < 30.0
    _verdict("criterion 10", ok,
             f"gap(N=1e4) < gap(N=1e2) in {frac:.0%} of 50 paired draws "
             f"(need >= 90%, {elapsed:.1f}s)")
    assert ok
