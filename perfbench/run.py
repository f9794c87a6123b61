"""Benchmark command for jsda.

    python3 perfbench/run.py --workload suites --seed 1 --seconds 25 --trace 0

Run from the root of a jsda checkout; the package is imported from its
``src``. One process runs the named workload as a closed loop with one
caller, in whole rounds until ``--seconds`` have passed (at least two
rounds), and checks every output. The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``). The line before it carries the run's metadata.

``--trace 1`` does fixed work instead: round 0 untraced, then rounds 0 and 1
with every public jsda function wrapped in spans, so that its counts repeat
exactly for a seed. ``--profile`` prints a cProfile listing of one round.
See README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / ".out"
SETUP_REPEATS = 5
MIN_ROUNDS = 2
TRACE_ROUNDS = 2
PROFILE_TOP = 30

END_TO_END = {  # metric -> unit
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MiB",
    "suite_instances_per_s": "instances/s",
    "grid_analysis_s": "s",
    "threshold_case_s": "s",
    "train_steps_per_s": "steps/s",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("suites", "exact-grid", "training"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--profile", action="store_true",
                   help="print a cProfile listing of one round and exit")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def git_sha(root: Path) -> str:
    """The checkout's commit, read from .git without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_info() -> dict:
    import numpy as np

    info: dict = {"threads_env": {k: os.environ[k] for k in
                                  ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                                  if k in os.environ}}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"))
    except (KeyError, TypeError):
        pass
    # numpy wheels ship OpenBLAS next to the package, already loaded by now
    for path in sorted(Path(np.__file__).parent.parent.glob("numpy.libs/*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def metadata(args, run, root: Path) -> dict:
    import numpy as np
    import scipy
    import workloads

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": run.rounds,
        "nproc": os.cpu_count(), "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": blas_info(), "git_sha": git_sha(root),
        "ops": {k: {"attempted": a, "failed": f} for k, (a, f) in sorted(run.ops.items())},
        "samples": {k: len(v) for k, v in sorted(run.samples.items())},
        "unscaled_medians": {k: statistics.median(v) for k, v in sorted(run.unscaled.items())},
        "machine_speed": {"median": statistics.median(run.speeds) if run.speeds else None,
                          "min": min(run.speeds, default=None),
                          "max": max(run.speeds, default=None), "n": len(run.speeds)},
        "failed_checks": run.n_failures,
        **({"all_principle_accuracy": workloads.majority_summary(run)}
           if run.full_accuracy else {}),
    }


def measure_setup(args, root: Path) -> float:
    """Median time of fresh processes that import jsda, build inputs and warm up.

    In reference-speed seconds, like every time the benchmark reports.
    """
    import calibrate

    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only", "--workload", args.workload,
           "--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        before = calibrate.speed()[0]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=120)
        seconds = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed ({proc.returncode}): {proc.stderr.strip()}")
        times.append(seconds * 0.5 * (before + calibrate.speed()[0]))
    return statistics.median(times)


def group_medians(samples: dict, name: str) -> list[float]:
    """Median of each group of a metric's samples.

    Samples of work that differs in size are kept in groups (``name.group``,
    as grid analyses by scenario kind); a metric is the mean of its group
    medians, so that the mix of groups in a run cannot move it.
    """
    return [statistics.median(v) for k, v in sorted(samples.items())
            if v and (k == name or k.startswith(name + "."))]


def timed_run(workload, run, seconds: float) -> dict:
    deadline = time.perf_counter() + seconds
    r = 0
    while r < MIN_ROUNDS or time.perf_counter() < deadline:
        workload.round(run, r)
        r += 1
    workload.finish(run)
    metrics = {}
    for name, unit in END_TO_END.items():
        if name in ("setup_s", "peak_rss_mb"):
            continue
        medians = group_medians(run.samples, name)
        run.check(bool(medians), f"no sample of {name}")
        metrics[name] = (statistics.fmean(medians) if medians else 0.0, unit)
    return metrics


def traced_run(workload, run, trace_path: Path) -> dict:
    import spans
    from workloads import SUITES

    workload.round(run, 0)
    first_traced = len(run.speeds)
    tracer = spans.Tracer()
    tracer.install()
    run.call = tracer.span
    try:
        for r in range(TRACE_ROUNDS):
            workload.round(run, r)
    finally:
        tracer.uninstall()
    workload.finish(run)
    speed = statistics.median(run.speeds[first_traced:])  # see calibrate.py
    metrics = {name: (value * speed if unit in ("s", "us") else value, unit)
               for name, (value, unit) in
               spans.layer_metrics(spans.SpanTable(tracer), SUITES).items()}
    untraced, traced = run.samples["wall_s"][:2]  # round 0 without and with spans
    metrics["trace.overhead_share"] = (traced / untraced - 1.0, "share")
    metrics["trace.spans"] = (len(tracer.start), "count")
    tracer.save(trace_path)
    if tracer.missing:
        print(f"perfbench: not in jsda, so not traced: {', '.join(tracer.missing)}",
              file=sys.stderr)
    return metrics


def profiled_round(workload, run) -> None:
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    profiler.runcall(workload.round, run, 0)
    text = []
    for key in ("cumulative", "tottime"):
        buf = io.StringIO()
        pstats.Stats(profiler, stream=buf).sort_stats(key).print_stats(PROFILE_TOP)
        text.append(buf.getvalue())
    OUT.mkdir(exist_ok=True)
    (OUT / f"profile-{workload.name}.txt").write_text("\n".join(text))
    print("\n".join(text))


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd().resolve()
    src = root / "src"
    if not (src / "jsda" / "__init__.py").is_file():
        print(f"perfbench: no jsda package under {src}; run from the root of a jsda checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(src)]
    import jsda
    import workloads

    if not Path(jsda.__file__).resolve().is_relative_to(src):
        print(f"perfbench: imported jsda from {jsda.__file__}, not {src}", file=sys.stderr)
        return 2
    out_dir = OUT / f"{args.workload}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_only:
            workloads.WORKLOADS[args.workload](args.seed)
            workloads.warm_up(out_dir)
            return 0
        setup_s = None if args.trace or args.profile else measure_setup(args, root)
        workload = workloads.WORKLOADS[args.workload](args.seed)
        workloads.warm_up(out_dir)
        run = workloads.Run(out_dir)
        if args.profile:
            profiled_round(workload, run)
            return 0
        if args.trace:
            metrics = traced_run(workload, run,
                                 OUT / f"trace-{args.workload}-seed{args.seed}.npz")
        else:
            metrics = timed_run(workload, run, args.seconds)
            metrics["setup_s"] = (setup_s, "s")
            metrics["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB")
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    for message in run.failures:
        print(f"perfbench: {message}", file=sys.stderr)
    print(json.dumps({"meta": metadata(args, run, root)}))
    print(json.dumps({
        "correct": run.n_failures == 0 and run.attempted > run.failed,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
