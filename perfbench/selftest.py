"""Show that every output check of the benchmark fails on a perturbed input.

    python3 perfbench/selftest.py        (from the root of a jsda checkout)

Each case runs one check on honest jsda output and again on the same output
with one value perturbed. A case passes when the honest run records no
failure and the perturbed run records at least one. Exits 0 when every case
passes. Takes a few seconds.
"""

from __future__ import annotations

import copy
import math
import shutil
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = Path.cwd().resolve() / "src"


def failures(check, *args) -> int:
    run = wl.Run(OUT)
    check(run, *args)
    return run.n_failures


def rewrite_csv(path: Path, edit) -> Path:
    """A copy of a suite CSV with edit(rows) applied to its data rows."""
    header, *rows = path.read_text().splitlines()
    out = path.with_name("perturbed-" + path.name)
    out.write_text("\n".join([header, *edit([r.split(",") for r in rows])]) + "\n")
    return out


def set_field(rows, index: int, col: int, value: str):
    rows[index][col] = value
    return [",".join(r) for r in rows]


def suite_cases():
    paths = {}
    for name, trials in (("sandwich", 50), ("pinsker", 50), ("joint-upper", 1000),
                         ("zero-one-band", 1000), ("intrinsic-error", 1000)):
        path = OUT / f"{name}.csv"
        rc, stdout = wl.dispatch(["verify-bounds", "--suite", name, "--trials", str(trials),
                                  "--seed", "0", "--out", str(path)])
        paths[name] = (trials, rc, stdout, path)

    def suite(name, perturb_rows=None, rc_delta=0):
        trials, rc, stdout, path = paths[name]
        honest = failures(wl.check_suite, name, trials, rc, stdout, path, False)
        bad_path = rewrite_csv(path, perturb_rows) if perturb_rows else path
        perturbed = failures(wl.check_suite, name, trials, rc + rc_delta, stdout, bad_path,
                             False)
        return honest, perturbed

    yield "suite: a valid bound reports a violation", suite(
        "sandwich", lambda rows: set_field(rows, 0, 4, "false"))
    yield "suite: a row is missing", suite("sandwich", lambda rows: [",".join(r) for r in rows[1:]])
    yield "suite: exit code disagrees with the CSV", suite("sandwich", rc_delta=1)
    yield "suite: a JS value above ln 2", suite(
        "sandwich", lambda rows: set_field(rows, 0, 1, "0.7"))
    yield "suite: a TV value above 2", suite("pinsker", lambda rows: set_field(rows, 0, 1, "2.1"))

    def defective(run, drop):
        for name in wl.DEFECTIVE_SUITES:
            trials, rc, stdout, path = paths[name]
            wl.check_suite(run, name, trials, rc, stdout, path, True)
        run.violations[drop] = 0
        wl.check_defective(run)

    yield "suite: a defective constant shows no violation", (
        failures(defective, "none"), failures(defective, "intrinsic-error"))


def grid_cases():
    rng = wl.np.random.default_rng(5)
    analyses = {kind: (sc := wl.grid_scenario(kind, rng), *wl.analyze(sc, 32))
                for kind in ("label-shift", "conditional-shift", "cofeature")}

    def grid(kind, name=None, **changes):
        sc, s, t, reports = analyses[kind]
        honest = failures(wl.check_grid, sc, s, t, reports)
        bad_t = changes.pop("target", t)
        bad = dict(reports)
        if name is not None:
            rep = reports[name]
            extras = {**rep.extras, **changes.pop("extras", {})}
            bad[name] = replace(rep, extras=extras, **changes)
        return honest, failures(wl.check_grid, sc, s, bad_t, bad)

    def scaled(kind, name, key, factor):
        return {"extras": {key: analyses[kind][3][name].extras[key] * factor}}

    def moved_within_class(kind):
        """The target grid with mass moved between two cells of class 0."""
        t = analyses[kind][2]
        mass = t.mass.copy()
        shift = 0.5 * mass[:, 0].max()
        mass[mass[:, 0].argmax(), 0] -= shift
        mass[mass[:, 0].argmin(), 0] += shift
        return wl.pmf.JointPmf(t.x_atoms, t.y_atoms, mass)

    yield "grid: joint JS off the reference by 1e-10", grid(
        "conditional-shift", "joint_upper", **scaled("conditional-shift", "joint_upper",
                                                     "joint_js_nats", 1 + 1e-10))
    yield "grid: label shift with unequal class conditionals", grid(
        "label-shift", target=moved_within_class("label-shift"))
    yield "grid: cofeature with unequal label conditionals", grid(
        "cofeature", target=moved_within_class("cofeature"))
    yield "grid: matched-conditional label JS misstated", grid(
        "label-shift", "matched_conditional", **scaled("label-shift", "matched_conditional",
                                                       "label_js_nats", 1.01))
    for axis in ("x", "y"):
        yield f"grid: decomposition marginal term on axis {axis}", grid(
            "conditional-shift", f"decomposed_{axis}",
            **scaled("conditional-shift", f"decomposed_{axis}", "marginal_js_nats", 1 + 1e-6))
    floor = analyses["conditional-shift"][3]["conditional_shift_floor"]
    yield "grid: conditional-shift floor lhs", grid(
        "conditional-shift", "conditional_shift_floor", lhs=floor.lhs * (1 + 1e-6))
    band = analyses["conditional-shift"][3]["zero_one_band"]
    cell = max(float(wl.np.diff(wl.np.unique(wl.np.asarray(analyses["conditional-shift"][1]
                                                             .x_atoms)[:, d])).max())
               for d in range(2))
    yield "grid: target risk off the closed form", grid(
        "conditional-shift", "zero_one_band", lhs=band.lhs + 2 * wl.RISK_TOL_CELLS * cell)
    yield "grid: source risk off the closed form", grid(
        "cofeature", "zero_one_band",
        extras={"source_risk": analyses["cofeature"][3]["zero_one_band"].extras["source_risk"]
                + 2 * wl.RISK_TOL_CELLS * cell})


def threshold_cases():
    inverse_xi = 400
    report = wl.cases.counterexample1(1.0 / inverse_xi)
    honest = failures(wl.check_threshold, inverse_xi, report)

    def perturbed(key, value):
        bad = copy.copy(report)
        object.__setattr__(bad, "computed", {**report.computed, key: value})
        return honest, failures(wl.check_threshold, inverse_xi, bad)

    yield "threshold: JS one ulp below 1", perturbed("js_base2", math.nextafter(1.0, 0.0))
    yield "threshold: divergence off the prefix gap by 1e-9", perturbed(
        "threshold_divergence", report.computed["threshold_divergence"] + 1e-9)


def training_cases():
    sc, cfg = wl.criterion8()
    cfg = replace(cfg, epochs=3, n_source=300, n_target=300, seed=4)
    trace = wl.training.run_training(sc, cfg)
    honest = failures(wl.check_training, sc, cfg, trace)

    def perturbed(edit):
        bad = copy.deepcopy(trace)
        edit(bad)
        return honest, failures(wl.check_training, sc, cfg, bad)

    yield "training: a non-finite loss", perturbed(
        lambda t: t.conditional_loss.__setitem__(0, math.nan))
    yield "training: final accuracy off the forward pass by one point", perturbed(
        lambda t: t.target_accuracy.__setitem__(-1, t.target_accuracy[-1] + 1.0 / 300))

    rows = [{"principles": p, "mean_accuracy": 0.9, "n_seeds": 1}
            for p in ("III", "I+III", "I+II", "II+III", "I+II+III")]
    finals = {r["principles"]: [0.9] for r in rows}
    bad_rows = copy.deepcopy(rows)
    bad_rows[-1]["mean_accuracy"] = 0.91
    yield "training: ablation table off its runs", (
        failures(wl.check_ablate, rows, finals, 1), failures(wl.check_ablate, bad_rows, finals, 1))

    ls = wl.scenarios.make_scenario("label-shift", source_label_marginal=(0.45, 0.55),
                                    target_label_marginal=(0.7, 0.3), cov_scale=0.5, seed=9)
    result = wl.labelshift.estimate_scenario_weights(ls, wl.BBSL_SAMPLES, seed=9)
    bad = dict(result, estimated_alpha=result["estimated_alpha"] + 0.06)
    margins = ((0.45, 0.55), (0.7, 0.3))
    yield "training: BBSL weights off the true ratio by 0.06", (
        failures(wl.check_bbsl, result, *margins), failures(wl.check_bbsl, bad, *margins))


def main() -> int:
    if not (SRC / "jsda" / "__init__.py").is_file():
        print(f"selftest: no jsda package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(SRC)]
    global wl, OUT
    import workloads as wl

    OUT = HERE / ".out" / "selftest"
    OUT.mkdir(parents=True, exist_ok=True)
    bad = 0
    try:
        for group in (suite_cases, grid_cases, threshold_cases, training_cases):
            for name, (honest, perturbed) in group():
                ok = honest == 0 and perturbed > 0
                bad += not ok
                print(f"{'ok  ' if ok else 'FAIL'} {name}: honest {honest}, perturbed {perturbed}")
    finally:
        shutil.rmtree(OUT, ignore_errors=True)
    print(f"{bad} case(s) failed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
