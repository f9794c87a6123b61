"""Command-line front door.

Subcommands: scenario (make/sample/discretize), verify-bounds,
counterexamples, label-shift, train, ablate. Exit codes: 0 when every
verdict in the invoked suite holds, 1 on runtime errors, 2 on usage errors.
All randomness flows through --seed, so equal flags give byte-identical
reports.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import math
import sys
from dataclasses import fields as dataclass_fields

from . import cases, suites
from .labelshift import estimate_scenario_weights
from .scenarios import (ShiftScenario, _check_integer, _json_object, discretize,
                        make_scenario, sample)
from .training import TrainConfig, ablate, run_training


def _fmt(v) -> str:
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, float):
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return f"{v:.6g}"
    return str(v)


def _json_ready(v):
    if isinstance(v, bool) or not isinstance(v, float):
        return v
    if math.isinf(v) or math.isnan(v):
        return _fmt(v)
    return float(f"{v:.6g}")


def write_report(rows: list[dict], fmt: str, path: str | None) -> None:
    """Emit rows as CSV or JSON with 6 significant digits; the columns are the
    keys of the first row, in its order."""
    columns = list(rows[0])
    if fmt == "csv":
        lines = [",".join(columns)]
        lines += [",".join(_fmt(row.get(c, "")) for c in columns) for row in rows]
        text = "\n".join(lines) + "\n"
    elif fmt == "json":
        text = json.dumps([{c: _json_ready(row.get(c)) for c in columns}
                           for row in rows], indent=2) + "\n"
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    _write(text, path)


def _write(text: str, path: str | None) -> None:
    """Write text to the file at path, or to stdout when path is None."""
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as f:
            f.write(text)


def seed(text: str) -> int:
    """The argparse type of every --seed: numpy's generators take no negative seed."""
    value = int(text)
    _check_integer(value, "--seed", 0, argparse.ArgumentTypeError)
    return value


def _cmd_counterexamples(args) -> int:
    reports = [cases.counterexample1(args.xi), cases.counterexample2()]
    rows = [r for rep in reports for r in rep.rows()]
    write_report(rows, args.format, args.out)
    if args.base is not None:
        for kind, value in cases.case_divergence_values(args.base):
            print(json.dumps({"kind": kind, "base": args.base, "value": value}))
    for rep in reports:
        print(f"# {rep.case_id}: {'PASS' if rep.verdict else 'FAIL'}")
    return 0 if all(rep.verdict for rep in reports) else 1


def _cmd_verify_bounds(args) -> int:
    names = suites.SUITE_NAMES if args.suite == "all" else (args.suite,)
    all_rows = []
    bad = 0
    for name in names:
        reports = suites.run_suite(name, args.trials, args.seed)
        bad += len(suites.violations(reports))
        all_rows.extend(r.to_row() for r in reports)
    write_report(all_rows, args.format, args.out)
    print(f"# {len(all_rows)} reports, {bad} violation(s)")
    return 0 if bad == 0 else 1


def _cmd_label_shift(args) -> int:
    sc = ShiftScenario.load(args.scenario)
    result = estimate_scenario_weights(sc, args.n, seed=args.seed)
    rows = [{"class": i,
             "true_alpha": float(result["true_alpha"][i]),
             "estimated_alpha": float(result["estimated_alpha"][i])}
            for i in range(sc.n_classes)]
    write_report(rows, args.format, args.out)
    print(f"# sup error {_fmt(result['sup_error'])}, "
          f"source accuracy {_fmt(result['source_accuracy'])}, "
          f"method {result['method']}")
    return 0


def _cmd_scenario_make(args) -> int:
    params = _json_object(json.loads(args.params) if args.params else {},
                          list(inspect.signature(make_scenario).parameters)[1:],
                          "--params")  # kind is the first parameter; it comes from --kind
    make_scenario(args.kind, **{"seed": args.seed, **params}).save(args.out)
    print(f"# wrote scenario {args.kind} -> {args.out}")
    return 0


def _cmd_scenario_sample(args) -> int:
    batch = sample(ShiftScenario.load(args.scenario), args.domain, args.n, stream=(args.seed,))
    rows = [{"x0": float(x[0]), "x1": float(x[1]), "y": int(y)}
            for x, y in zip(batch.xs, batch.ys)]
    write_report(rows, args.format, args.out)
    return 0


def _cmd_scenario_discretize(args) -> int:
    joint = discretize(ShiftScenario.load(args.scenario), args.domain, grid=args.grid)
    _write(joint.to_json() + "\n", args.out)
    return 0


def _load_config(path: str | None, seed: int) -> TrainConfig:
    raw = {}
    if path:
        with open(path) as f:
            raw = _json_object(json.load(f), [c.name for c in dataclass_fields(TrainConfig)],
                               "config")
    return TrainConfig(**{"seed": seed, **raw})


def _cmd_train(args) -> int:
    sc = ShiftScenario.load(args.scenario)
    cfg = _load_config(args.config, args.seed)
    trace = run_training(sc, cfg)
    write_report(trace.rows(), args.format, args.out)
    print(f"# final target accuracy {_fmt(trace.target_accuracy[-1])}")
    return 0


def _cmd_ablate(args) -> int:
    sc = ShiftScenario.load(args.scenario)
    cfg = _load_config(args.config, args.seed)
    rows = ablate(sc, cfg, seeds=list(range(args.seeds)))
    write_report(rows, args.format, args.out)
    return 0


@functools.cache  # parse_args leaves a parser as it was, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jsda",
        description="Divergence-based shift analysis: exact bounds, synthetic "
                    "scenarios, label-shift correction, adaptation training.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(subs, name, func, help):
        p = subs.add_parser(name, help=help)
        p.set_defaults(func=func)
        return p

    def output(p):
        p.add_argument("--out", default=None)
        p.add_argument("--format", choices=["csv", "json"], default="csv")

    def common(p):
        p.add_argument("--seed", type=seed, default=0)
        output(p)

    p = command(sub, "counterexamples", _cmd_counterexamples,
                "run the pinned divergence-ordering regressions")
    output(p)
    p.add_argument("--xi", type=float, default=1.0 / 12.0)
    p.add_argument("--base", choices=["e", "2"], default=None)

    p = command(sub, "verify-bounds", _cmd_verify_bounds, "run randomized bound suites")
    common(p)
    p.add_argument("--suite", default="all", choices=("all",) + suites.SUITE_NAMES)
    p.add_argument("--trials", type=int, default=1000)

    p = command(sub, "label-shift", _cmd_label_shift, "weight recovery on a scenario file")
    common(p)
    p.add_argument("--scenario", required=True)
    p.add_argument("--n", type=int, default=10000)

    actions = sub.add_parser("scenario", help="make, sample, or discretize scenarios"
                             ).add_subparsers(dest="action", required=True)
    p = command(actions, "make", _cmd_scenario_make, "write a scenario file")
    p.add_argument("--kind", default="label-shift")
    p.add_argument("--params", default=None, help="JSON dict of generator params")
    p.add_argument("--seed", type=seed, default=0)
    p.add_argument("--out", required=True)

    p = command(actions, "sample", _cmd_scenario_sample, "draw labelled points from one domain")
    common(p)
    p.add_argument("--scenario", required=True)
    p.add_argument("--domain", choices=["source", "target"], default="source")
    p.add_argument("--n", type=int, default=100)

    p = command(actions, "discretize", _cmd_scenario_discretize, "one domain's grid joint, as JSON")
    p.add_argument("--scenario", required=True)
    p.add_argument("--domain", choices=["source", "target"], default="source")
    p.add_argument("--grid", type=int, default=32)
    p.add_argument("--out", default=None)

    p = command(sub, "train", _cmd_train, "run the three-principle trainer")
    common(p)
    p.add_argument("--scenario", required=True)
    p.add_argument("--config", default=None)

    p = command(sub, "ablate", _cmd_ablate, "principle-subset ablation table")
    common(p)
    p.add_argument("--scenario", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--seeds", type=int, default=5)
    return parser


def dispatch(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, KeyError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
