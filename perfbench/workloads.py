"""The benchmark's workloads: seeded inputs, rounds of operations, output checks.

A run repeats whole rounds. A round is the workload's batch (timed as a
whole for ``wall_s``) followed by one small probe for each end-to-end metric
the batch does not measure itself, so every workload reports every metric.
Operations are called through module attributes (``bounds.zero_one_band``,
not a name imported here) so that the traced run sees them.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import statistics
import time
import traceback
from collections import Counter, defaultdict
from dataclasses import replace
from pathlib import Path

import numpy as np

import calibrate
import reference as ref
from jsda import bounds, cases, cli, labelshift, pmf, scenarios, training

# The twelve suites jsda had when this benchmark was written. Naming them
# keeps the work fixed when suites are added.
SUITES = ("joint-upper", "zero-one-band", "decomposition-x", "decomposition-y",
          "intrinsic-error", "matched-conditional", "prediction-gap",
          "conditional-shift-floor", "pinsker", "sandwich", "js-triangle",
          "data-processing")
# Suites whose paper constants are provably too tight: they must show
# violations. About 5 in 1000 intrinsic-error instances violate, so this is
# checked over a whole run (at least two full batches), not per batch.
DEFECTIVE_SUITES = ("joint-upper", "zero-one-band", "intrinsic-error")
# Rows allowed to violate in the other suites: the decomposed upper bound
# carries joint-upper's G/sqrt(2) constant and fails on about 0.6 in 1000
# instances (the chain and dominance rows of the same suites must hold).
INHERITED_VIOLATIONS = ("decomposed_upper_x", "decomposed_upper_y")
REPORTS_PER_INSTANCE = {"joint-upper": 3, "decomposition-x": 3, "decomposition-y": 3,
                        "data-processing": 2}
SUITE_TRIALS = 1000
PROBE_SUITE_TRIALS = 100
# CSV rows carrying a JS value in nats, or a TV value (sum form), by column.
JS_COLUMNS = {"js_tv_sandwich": ("lhs",), "decomposition_chain_x": ("lhs",),
              "decomposition_chain_y": ("lhs",), "data_processing_js": ("lhs", "bound_hi")}
TV_COLUMNS = {"pinsker": ("lhs",)}

# (scenario kind, grid side): the kind fixes the grid so that every round
# does the same amount of work whatever the seed.
GRID_PLAN = (("label-shift", 40), ("conditional-shift", 36), ("cofeature", 32))
PROBE_GRID_PLAN = (("label-shift", 24),) * 3
# (1/xi, cases per round): xi ~ 1/4000 gives about 2000 atoms per side
THRESHOLD_PLAN = (4000, 2)
PROBE_THRESHOLD_PLAN = (1000, 6)
# Midpoint-rule risk on the grid vs the closed form, in cell widths: eight
# times the largest gap seen on 120 seeded scenarios at 32-48 cells a side.
RISK_TOL_CELLS = 0.05

TRAIN_SEEDS_PER_ROUND = 2
PROBE_TRAIN_RUNS = 4
PROBE_TRAIN_EPOCHS = 10
MAJORITY_RATE = 0.8                  # target label marginal of criterion 8
BBSL_PER_ROUND = 8
BBSL_SAMPLES = 100_000
BBSL_TOL = 0.05

MAX_MESSAGES = 20


def criterion8() -> tuple:
    """The scenario and trainer configuration of acceptance criterion 8."""
    sc = scenarios.make_scenario("conditional-shift", rotation_deg=40.0, cov_scale=1.2,
                                 source_label_marginal=(0.5, 0.5),
                                 target_label_marginal=(0.8, 0.2), seed=3)
    cfg = training.TrainConfig(epochs=60, n_source=1500, n_target=1500,
                               cond_multiplier=12.0, learning_rate=0.03, seed=0)
    return sc, cfg


class OperationFailed(RuntimeError):
    pass


class Run:
    """Ledger of one run: operation outcomes, metric samples, failed checks."""

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = out_dir
        self.ops: dict[str, list[int]] = defaultdict(lambda: [0, 0])
        self.samples: dict[str, list[float]] = defaultdict(list)  # reference speed
        self.unscaled: dict[str, list[float]] = defaultdict(list)
        self.failures: list[str] = []
        self.n_failures = 0
        self.rounds = 0
        self.violations: Counter = Counter()
        self.defective_trials: Counter = Counter()
        self.full_accuracy: list[float] = []
        self.speeds: list[float] = []
        self.calibration_s = 0.0
        self._speed_at = (0.0, -math.inf)  # (last speed, when it was measured)
        self._depth = 0
        self.op_s = [0.0, 0.0]  # top-level timed calls: (unscaled, scaled) seconds
        # the traced run replaces this with Tracer.span
        self.call = lambda name, fn, *args, **kwargs: fn(*args, **kwargs)

    def speed(self) -> float:
        """The machine's speed now, relative to the reference (calibrate.py)."""
        value, seconds = calibrate.speed()
        self.speeds.append(value)
        self.calibration_s += seconds
        self._speed_at = (value, time.perf_counter())
        return value

    def timed(self, fn, *args, **kwargs):
        """(fn's result, (its time in seconds, in reference-speed seconds)).

        The time is scaled by the mean machine speed measured just before,
        during (by timed calls nested in fn) and just after the call; a speed
        measured under 50 ms ago counts as before. Calibration inside fn is
        not counted in its time.
        """
        last, at = self._speed_at
        speeds = [last if time.perf_counter() - at < 0.05 else self.speed()]
        n0, cal0 = len(self.speeds), self.calibration_s
        self._depth += 1
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            self._depth -= 1
        seconds = time.perf_counter() - t0 - (self.calibration_s - cal0)
        speeds += self.speeds[n0:]
        speeds.append(self.speed())
        timing = (seconds, seconds * statistics.fmean(speeds))
        if self._depth == 0:
            self.op_s = [a + b for a, b in zip(self.op_s, timing)]
        return result, timing

    def sample(self, metric: str, work: float, timing: tuple[float, float]) -> None:
        """Record ``work`` done in ``timing`` (unscaled, scaled seconds).

        Rates (metrics ending in ``_per_s``) divide the work by the time;
        other metrics record the time of one piece of work.
        """
        for store, seconds in zip((self.unscaled, self.samples), timing):
            store[metric].append(work / seconds if metric.endswith("_per_s")
                                 else seconds / work)

    def op(self, kind: str, fn, *args, **kwargs):
        """Attempt one operation: (result, timing) as timed(), or None if it raised."""
        self.ops[kind][0] += 1
        try:
            return self.timed(self.call, f"op.{kind}", fn, *args, **kwargs)
        except Exception:
            self.ops[kind][1] += 1
            self._note(f"operation {kind} failed: {traceback.format_exc(limit=4)}")
            return None

    def check(self, ok: bool, what) -> None:
        if not ok:
            self.n_failures += 1
            self._note(what() if callable(what) else what)

    def _note(self, message: str) -> None:
        if len(self.failures) < MAX_MESSAGES:
            self.failures.append(message)

    @property
    def attempted(self) -> int:
        return sum(a for a, _ in self.ops.values())

    @property
    def failed(self) -> int:
        return sum(f for _, f in self.ops.values())


# ---------------------------------------------------------------- suites

def dispatch(argv: list[str]) -> tuple[int, str]:
    """``jsda <argv>`` in this process; (exit code, standard output)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.dispatch(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            rc = exc.code
    if err.getvalue() or rc not in (0, 1):
        raise OperationFailed(f"jsda {' '.join(argv)} exited {rc}: {err.getvalue().strip()}")
    return rc, out.getvalue()


def suite_batch(run: Run, seed: int, trials: int, tally: bool) -> None:
    """verify-bounds on each suite at ``trials`` trials; one op per suite."""
    instances, busy, scaled = 0, 0.0, 0.0
    for name in SUITES:
        path = run.out_dir / f"{name}.csv"
        argv = ["verify-bounds", "--suite", name, "--trials", str(trials),
                "--seed", str(seed), "--out", str(path)]
        done = run.op("suite", dispatch, argv)
        if done is None:
            continue
        (rc, stdout), (seconds, scaled_seconds) = done
        instances += trials
        busy += seconds
        scaled += scaled_seconds
        check_suite(run, name, trials, rc, stdout, path, tally)
    if busy:
        run.sample("suite_instances_per_s", instances, (busy, scaled))


def check_suite(run: Run, name: str, trials: int, rc: int, stdout: str, path: Path,
                tally: bool) -> None:
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    expected = trials * REPORTS_PER_INSTANCE.get(name, 1)
    run.check(len(rows) == expected, f"{name}: {len(rows)} CSV rows, expected {expected}")
    holds = [row.get("holds") for row in rows]
    run.check(set(holds) <= {"true", "false"}, f"{name}: holds column not boolean")
    bad = holds.count("false")
    run.check((rc == 0) == (bad == 0), f"{name}: exit code {rc} with {bad} violating rows")
    run.check(f"# {len(rows)} reports, {bad} violation(s)" in stdout,
              lambda: f"{name}: summary line {stdout.strip()!r} disagrees with the CSV")
    if name in DEFECTIVE_SUITES:
        if tally:
            run.violations[name] += bad
            run.defective_trials[name] += trials
    else:
        invalid = sum(row["holds"] == "false" and row["name"] not in INHERITED_VIOLATIONS
                      for row in rows)
        run.check(invalid == 0, f"{name}: {invalid} violations of a valid bound")
    for row in rows:
        for col in JS_COLUMNS.get(row["name"], ()):
            v = float(row[col])
            run.check(0.0 <= v <= ref.LN2, f"{name}: {row['name']} {col}={v} outside [0, ln 2]")
        for col in TV_COLUMNS.get(row["name"], ()):
            v = float(row[col])
            run.check(0.0 <= v <= 2.0, f"{name}: {row['name']} {col}={v} outside [0, 2]")


def check_defective(run: Run) -> None:
    for name in DEFECTIVE_SUITES:
        run.check(run.violations[name] >= 1,
                  f"{name}: no violation in {run.defective_trials[name]} trials")


# ---------------------------------------------------------------- exact grid

def grid_scenario(kind: str, rng: np.random.Generator):
    """A seeded binary scenario of the given kind (draws the same count for all)."""
    a, b, cov, rot, dx, dy = rng.uniform(size=6)
    source = (0.35 + 0.3 * a, 0.65 - 0.3 * a)
    target = (0.15 + 0.7 * b, 0.85 - 0.7 * b)
    common = dict(source_label_marginal=source, cov_scale=0.6 + 0.6 * cov,
                  seed=int(rng.integers(2**31 - 1)))
    if kind == "label-shift":
        return scenarios.make_scenario(kind, target_label_marginal=target, **common)
    if kind == "conditional-shift":
        return scenarios.make_scenario(kind, target_label_marginal=target,
                                       rotation_deg=15.0 + 45.0 * rot, **common)
    return scenarios.make_scenario(kind, feature_shift=(0.3 + 0.9 * dx, 1.2 * dy - 0.6),
                                   **common)


def analyze(sc, grid: int) -> tuple:
    """Discretize both domains and run every verifier whose hypotheses hold."""
    s = scenarios.discretize(sc, "source", grid)
    t = scenarios.discretize(sc, "target", grid)
    w, b = ref.midpoint_rule(sc.source_means)
    predict_one = np.asarray(s.x_atoms) @ w + b > 0
    loss = pmf.LossTable(np.stack([predict_one, ~predict_one], axis=1).astype(float))
    reports = {
        "joint_upper": bounds.joint_upper_bound(s, t, loss),
        "zero_one_band": bounds.zero_one_band(s, t, loss),
        "decomposed_x": bounds.decomposed_upper_bound(s, t, loss, axis="x"),
        "decomposed_y": bounds.decomposed_upper_bound(s, t, loss, axis="y"),
        "intrinsic_error": bounds.intrinsic_error_upper_bound(s, t),
        "conditional_shift_floor": bounds.conditional_shift_lower_bound(s, t),
    }
    if sc.kind == "label-shift":
        reports["matched_conditional"] = bounds.matched_conditional_band(s, t, loss)
    return s, t, reports


def grid_batch(run: Run, rng: np.random.Generator, plan) -> None:
    for kind, grid in plan:
        sc = grid_scenario(kind, rng)
        done = run.op("grid_analysis", analyze, sc, grid)
        if done is None:
            continue
        (s, t, reports), timing = done
        run.sample(f"grid_analysis_s.{kind}", 1, timing)
        check_grid(run, sc, s, t, reports)


def check_grid(run: Run, sc, s, t, reports: dict) -> None:
    kind = sc.kind
    sm, tm = np.asarray(s.mass), np.asarray(t.mass)
    joint = ref.js(sm, tm)
    scale = ref.js_scale(sm, tm)
    got = reports["joint_upper"].extras["joint_js_nats"]
    run.check(abs(got - joint) <= 1e-12 * scale,
              f"{kind}: joint JS {got!r} vs reference {joint!r}")
    half_tv = 0.5 * ref.tv(sm, tm)
    run.check(0.5 * half_tv**2 - 1e-12 <= got <= half_tv + 1e-12,
              f"{kind}: joint JS {got!r} outside the TV sandwich of {half_tv!r}")
    label_js = ref.js(sm.sum(axis=0), tm.sum(axis=0))
    if kind == "label-shift":
        run.check(abs(joint - label_js) <= 1e-9 * scale,
                  f"label-shift: joint JS {joint!r} != label-marginal JS {label_js!r}")
        worst = float(ref.conditional_js(sm, tm, "y").max())
        run.check(worst <= 1e-9, f"label-shift: class-conditional JS {worst!r} > 1e-9")
        band = reports["matched_conditional"]
        run.check(band.holds and math.isclose(band.extras["label_js_nats"], label_js,
                                              rel_tol=1e-9, abs_tol=1e-12),
                  "label-shift: matched-conditional band fails or misstates the label JS")
    if kind == "cofeature":
        feature_js = ref.js(sm.sum(axis=1), tm.sum(axis=1))
        run.check(abs(joint - feature_js) <= 1e-9 * scale,
                  f"cofeature: joint JS {joint!r} != feature-marginal JS {feature_js!r}")
    for axis in ("x", "y"):
        marg, cond = ref.decomposition(sm, tm, axis)
        run.check(marg + cond >= joint - 1e-9,
                  f"{kind}: marginal + conditional < joint on axis {axis}")
        ex = reports[f"decomposed_{axis}"].extras
        run.check(math.isclose(ex["marginal_js_nats"], marg, rel_tol=1e-9, abs_tol=1e-12)
                  and math.isclose(ex["conditional_js_nats"], cond, rel_tol=1e-9,
                                   abs_tol=1e-12),
                  f"{kind}: decomposition terms on axis {axis} disagree with the reference")
        if axis == "x":
            floor = 2.0 * max(0.0, math.sqrt(label_js) - math.sqrt(marg)) ** 2
            rep = reports["conditional_shift_floor"]
            run.check(rep.holds and cond >= floor - 1e-9
                      and math.isclose(rep.lhs, cond, rel_tol=1e-9, abs_tol=1e-12),
                      f"{kind}: conditional-shift floor {floor!r} above the shift {cond!r}")
    xs = np.asarray(s.x_atoms)
    cell = max(float(np.diff(np.unique(xs[:, d])).max()) for d in range(2))
    w, b = ref.midpoint_rule(sc.source_means)
    zero_one = reports["zero_one_band"]
    pairs = [("source", zero_one.extras["source_risk"])]
    if kind != "cofeature":  # the cofeature target is not a Gaussian mixture
        pairs.append(("target", zero_one.lhs))
    for domain, grid_risk in pairs:
        means, covs, marginal = sc.domain_params(domain)
        exact = ref.gaussian_linear_risk(means, covs, marginal, w, b)
        run.check(abs(grid_risk - exact) <= RISK_TOL_CELLS * cell,
                  f"{kind}: {domain} grid risk {grid_risk!r} vs closed form {exact!r}")


def interleaving(inverse_xi: int) -> tuple[np.ndarray, np.ndarray]:
    """Coordinates of the disjoint interleaving: even and odd multiples of xi."""
    xi = 1.0 / inverse_xi
    even = (2 * np.arange(math.floor(1.0 / (2 * xi)) + 1)) * xi
    odd = (2 * np.arange(math.floor((1.0 / xi - 1.0) / 2) + 1) + 1) * xi
    return even, odd


def threshold_batch(run: Run, rng: np.random.Generator, plan: tuple[int, int]) -> None:
    """The disjoint interleaving at xi = 1/(inverse_xi + jitter), a few times."""
    inverse_xi, count = plan
    for jitter in rng.integers(-10, 11, size=count):
        n = inverse_xi + int(jitter)
        done = run.op("threshold_case", cases.counterexample1, 1.0 / n)
        if done is None:
            continue
        report, timing = done
        run.sample("threshold_case_s", 1, timing)
        check_threshold(run, n, report)


def check_threshold(run: Run, inverse_xi: int, report) -> None:
    even, odd = interleaving(inverse_xi)
    gap = ref.prefix_gap(even, np.full(even.size, 1.0 / even.size),
                         odd, np.full(odd.size, 1.0 / odd.size))
    js2 = report.computed["js_base2"]
    h = report.computed["threshold_divergence"]
    run.check(js2 == 1.0, f"interleaving 1/{inverse_xi}: base-2 JS {js2!r} is not exactly 1")
    run.check(abs(h - gap) <= 1e-12 and h < 1.0 and report.verdict,
              f"interleaving 1/{inverse_xi}: threshold divergence {h!r} vs prefix gap {gap!r}")


# ---------------------------------------------------------------- training

def train_steps(cfg) -> int:
    return cfg.epochs * math.ceil(cfg.n_source / cfg.batch_size)


def check_training(run: Run, sc, cfg, trace) -> None:
    losses = trace.weighted_source_loss + trace.conditional_loss + trace.adversarial_js
    run.check(all(math.isfinite(v) for v in losses), f"training seed {cfg.seed}: non-finite loss")
    m = trace.model
    params = {k: getattr(m, k) for k in ("w1", "b1", "w2", "b2", "wh", "bh")}
    tgt = scenarios.sample(sc, "target", cfg.n_target, stream=(cfg.seed,))
    acc = ref.forward_accuracy(params, tgt.xs, tgt.ys)
    run.check(acc == trace.target_accuracy[-1],
              f"training seed {cfg.seed}: final accuracy {trace.target_accuracy[-1]!r} "
              f"vs forward pass {acc!r}")


def ablate_batch(run: Run, sc, cfg, rng: np.random.Generator) -> None:
    """training.ablate over the five principle subsets; every run is timed."""
    seeds = [int(x) for x in rng.integers(2**31 - 1, size=TRAIN_SEEDS_PER_ROUND)]
    captured = []
    inner = training.run_training

    def timed_run(scenario, config):
        trace, timing = run.timed(inner, scenario, config)
        captured.append((config, trace, timing))
        return trace

    training.run_training = timed_run
    try:
        done = run.op("ablate", training.ablate, sc, cfg, None, seeds)
    finally:
        training.run_training = inner
    finals = defaultdict(list)
    for config, trace, timing in captured:
        run.sample("train_steps_per_s", train_steps(config), timing)
        check_training(run, sc, config, trace)
        finals[config.principles_label()].append(trace.target_accuracy[-1])
    run.full_accuracy += finals["I+II+III"]
    if done is not None:
        check_ablate(run, done[0], finals, len(seeds))


def check_ablate(run: Run, rows: list[dict], finals: dict, n_seeds: int) -> None:
    """The ablation table must be the mean of its runs' final accuracies."""
    run.check(len(rows) == 5 and all(
        r["n_seeds"] == n_seeds
        and math.isclose(r["mean_accuracy"], float(np.mean(finals[r["principles"]])),
                         rel_tol=1e-12)
        for r in rows), "ablate: table disagrees with its runs")


def majority_summary(run: Run) -> dict:
    """Final accuracies of the all-principle runs against the majority rate.

    Reported, not checked: on some seeds the trainer collapses (seed
    2115743642 ends at 0.294), so whether a run's mean beats the rate
    depends on its seed and would make ``correct`` a coin toss.
    """
    acc = run.full_accuracy
    return {"runs": len(acc), "mean": float(np.mean(acc)) if acc else None,
            "min": min(acc, default=None), "majority_rate": MAJORITY_RATE,
            "runs_above_rate": sum(a > MAJORITY_RATE for a in acc)}


def training_probe(run: Run, sc, cfg, rng: np.random.Generator) -> None:
    for seed in rng.integers(2**31 - 1, size=PROBE_TRAIN_RUNS):
        config = replace(cfg, seed=int(seed), epochs=PROBE_TRAIN_EPOCHS)
        done = run.op("run_training", training.run_training, sc, config)
        if done is None:
            continue
        trace, timing = done
        run.sample("train_steps_per_s", train_steps(config), timing)
        check_training(run, sc, config, trace)


def bbsl_batch(run: Run, rng: np.random.Generator) -> None:
    """Black-box shift weight recovery on seeded label-shift scenarios."""
    for _ in range(BBSL_PER_ROUND):
        a, b = 0.4 + 0.2 * rng.uniform(), 0.2 + 0.6 * rng.uniform()
        seed = int(rng.integers(2**31 - 1))
        sc = scenarios.make_scenario("label-shift", source_label_marginal=(a, 1.0 - a),
                                     target_label_marginal=(b, 1.0 - b), cov_scale=0.5,
                                     seed=seed)
        done = run.op("bbsl_recovery", labelshift.estimate_scenario_weights, sc,
                      BBSL_SAMPLES, seed=seed)
        if done is None:
            continue
        check_bbsl(run, done[0], (a, 1.0 - a), (b, 1.0 - b))


def check_bbsl(run: Run, result: dict, source_marginal, target_marginal) -> None:
    """The recovered weights must be within BBSL_TOL of T(y)/S(y)."""
    truth = np.divide(target_marginal, source_marginal)
    err = float(np.max(np.abs(np.asarray(result["estimated_alpha"]) - truth)))
    run.check(err <= BBSL_TOL and math.isclose(result["sup_error"], err, rel_tol=1e-9),
              f"BBSL: sup error {err!r} (reported {result['sup_error']!r})")


# ---------------------------------------------------------------- workloads

class Workload:
    """One named workload. ``primary`` are the metrics its batch measures."""

    name = ""
    primary: tuple[str, ...] = ()

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.train_scenario, self.train_config = criterion8()

    def rng(self, r: int, salt: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, r, salt])

    def round(self, run: Run, r: int) -> None:
        t0, cal0, (raw0, scaled0) = time.perf_counter(), run.calibration_s, run.op_s
        self.batch(run, r)
        busy = time.perf_counter() - t0 - (run.calibration_s - cal0)
        raw, scaled = run.op_s[0] - raw0, run.op_s[1] - scaled0
        if raw:  # operations scale by their own speeds; checks between them by the mean
            run.sample("wall_s", 1, (busy, scaled + (busy - raw) * scaled / raw))
        if "suite_instances_per_s" not in self.primary:
            suite_batch(run, self.seed * 1000 + r, PROBE_SUITE_TRIALS, tally=False)
        if "grid_analysis_s" not in self.primary:
            grid_batch(run, self.rng(r, 11), PROBE_GRID_PLAN)
        if "threshold_case_s" not in self.primary:
            threshold_batch(run, self.rng(r, 12), PROBE_THRESHOLD_PLAN)
        if "train_steps_per_s" not in self.primary:
            training_probe(run, self.train_scenario, self.train_config, self.rng(r, 13))
        run.rounds += 1

    def batch(self, run: Run, r: int) -> None:
        raise NotImplementedError

    def finish(self, run: Run) -> None:
        """Checks over the whole run."""


class Suites(Workload):
    name = "suites"
    primary = ("suite_instances_per_s",)

    def batch(self, run: Run, r: int) -> None:
        suite_batch(run, self.seed * 1000 + r, SUITE_TRIALS, tally=True)

    def finish(self, run: Run) -> None:
        check_defective(run)


class ExactGrid(Workload):
    name = "exact-grid"
    primary = ("grid_analysis_s", "threshold_case_s")

    def batch(self, run: Run, r: int) -> None:
        grid_batch(run, self.rng(r, 1), GRID_PLAN)
        threshold_batch(run, self.rng(r, 2), THRESHOLD_PLAN)


class Training(Workload):
    name = "training"
    primary = ("train_steps_per_s",)

    def batch(self, run: Run, r: int) -> None:
        ablate_batch(run, self.train_scenario, self.train_config, self.rng(r, 1))
        bbsl_batch(run, self.rng(r, 2))


WORKLOADS = {w.name: w for w in (Suites, ExactGrid, Training)}


def warm_up(out_dir: Path) -> None:
    """One tiny operation of each kind, so lazy imports finish before timing."""
    dispatch(["verify-bounds", "--suite", "pinsker", "--trials", "2", "--seed", "0",
              "--out", str(out_dir / "warm-up.csv")])
    analyze(grid_scenario("label-shift", np.random.default_rng(0)), 8)
    cases.counterexample1(1.0 / 12.0)
    sc, cfg = criterion8()
    training.run_training(sc, replace(cfg, epochs=1, n_source=128, n_target=128))
    labelshift.estimate_scenario_weights(sc, 1000)
