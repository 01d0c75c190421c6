"""wllnlab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each repetition starts a fresh
interpreter (child.py) with BLAS/OpenMP threads pinned to 1, imports wllnlab
from ``src/`` and runs the workload once, closed loop on one thread.
Repetitions continue until the next one would end after ``--seconds``
(at least MIN_REPS of them).  Timings are medians over repetitions.

Host speed on a shared machine drifts by up to 1.7x over minutes, and all
kinds of work slow down together, so medians within one run cannot remove
it.  Every child therefore also times fixed tasks that run no wllnlab code:
a fresh interpreter importing numpy and scipy, and a numpy loop plus an
interpreted loop (child.calibrate) just before and just after the timed
work.  Each child's timings are scaled to a host on which those tasks take
CALIBRATION_REF_S seconds together, and the medians of the scaled values
are reported; raw values are printed alongside.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced and
traced repetitions and prints the per-layer metrics of the traced ones,
plus ``trace.overhead_s`` (traced minus untraced median wall time).
Per-layer timings are raw seconds.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench-out"
CHILD = Path(__file__).resolve().parent / "child.py"

MIN_REPS = 3        # untraced repetitions in an untraced run
MIN_SETUPS = 5      # set-up samples behind setup_s
HARD_CAP_S = 150.0  # nothing new starts after this; the run must end by 180 s
CALIBRATION_REF_S = 0.6

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("pass_rate", "1"),
    ("throughput", "1/s"),
)

# what "throughput" counts on each workload, and the name it is printed
# under; demo-suite prints its inverse, the wall time per demo pipeline
THROUGHPUT = {
    "demo-suite": ("demo_s", "s per demo pipeline"),
    "mc-probe": ("probe_mvals_per_s", "million sampled values/s"),
    "extract-scan": ("extract_cands_per_s", "exact-mode candidates/s"),
    "tails-deep": ("tail_cells_per_s", "tail-profile cells/s"),
}


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def run_child(workload: str, inputs: dict, mode: str, deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time budget exhausted")
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), workload, json.dumps(inputs),
             str(SCRATCH), mode],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} repetition exceeded {timeout:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"{workload} repetition exited {proc.returncode}:\n"
                         + proc.stderr[-2000:])
    rec = json.loads(proc.stdout.strip().splitlines()[-1])
    rec["setup_s"] = rec["t_ready"] - t_spawn
    rec["scale"] = CALIBRATION_REF_S / (rec["t_libs"] - t_spawn
                                        + rec["calibrate_s"])
    return rec


def collect(workload: str, seed: int, seconds: float, trace: bool):
    """Runs repetitions until the budget is spent; returns
    (untraced records, traced records, set-up-only records).  The i-th
    traced repetition gets the same inputs as the i-th untraced one."""
    start = time.monotonic()
    deadline = start + 175.0
    untraced, traced, setups = [], [], []
    while True:
        use_trace = trace and len(traced) < len(untraced)
        rep = len(traced) if use_trace else len(untraced)
        inputs = workloads.make_inputs(workload, seed, rep)
        rec = run_child(workload, inputs, "1" if use_trace else "0", deadline)
        rec.update(rep=rep, traced=use_trace, inputs=inputs)
        (traced if use_trace else untraced).append(rec)
        elapsed = time.monotonic() - start
        per_rep = elapsed / (len(untraced) + len(traced))
        done = len(traced) >= 1 if trace else len(untraced) >= MIN_REPS
        if done and elapsed + per_rep > seconds or elapsed + per_rep > HARD_CAP_S:
            break
    while (len(untraced) + len(traced) + len(setups) < MIN_SETUPS
           and time.monotonic() - start < HARD_CAP_S):
        setups.append(run_child(workload, {}, "setup", deadline))
    return untraced, traced, setups


def spread(values) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    return f"n={len(values)}, min {min(values):.4g}, max {max(values):.4g}"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")

    if not (SRC / "wllnlab" / "__init__.py").is_file():
        print(f"error: no wllnlab sources at {SRC}; run from the root of a "
              "source checkout", file=sys.stderr)
        return 2
    compileall.compile_dir(str(SRC), quiet=1)
    SCRATCH.mkdir(exist_ok=True)

    try:
        untraced, traced, setups = collect(args.workload, args.seed,
                                           args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    checks: dict[str, list[int]] = {}
    for rec in untraced + traced:
        for name, ok in rec["checks"]:
            tally = checks.setdefault(name, [0, 0])
            tally[0] += 1
            tally[1] += not ok
    attempted = sum(t[0] for t in checks.values())
    failed = sum(t[1] for t in checks.values())
    unexpected = [n for n, t in checks.items()
                  if t[1] and not workloads.known_defect(n)]
    correct = attempted > 0 and not unexpected

    children = untraced + traced + setups
    setup_raw = [r["setup_s"] for r in children]
    walls = [r["wall_s"] for r in untraced]
    tp_name, tp_unit = THROUGHPUT[args.workload]
    rates = [r["work_units"] / r["work_seconds"] for r in untraced]
    scales = [r["scale"] for r in children]
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(untraced)} untraced and {len(traced)} traced repetitions, "
          "each in a fresh interpreter")
    print(f"  host-speed scale factors: median {statistics.median(scales):.4g}, "
          f"{spread(scales)}")
    for r in untraced + traced:
        print(f"  rep {r['rep']} {'traced  ' if r['traced'] else 'untraced'} "
              f"wall {r['wall_s']:.4g} s raw, scale {r['scale']:.4g}, "
              f"inputs {json.dumps(r['inputs'], sort_keys=True)}")

    if args.trace:
        metrics = {}
        for name, unit, _, _, _ in layers.LAYER_METRICS:
            if name == "trace.overhead_s":
                value = (statistics.median(r["wall_s"] for r in traced)
                         - statistics.median(walls))
            elif name in untraced[0]["direct"]:
                value = statistics.median(r["direct"][name] for r in untraced)
            else:
                value = statistics.median(r["layers"][name] for r in traced)
            metrics[name] = {"value": value, "unit": unit}
            print(f"  {name:34s} {value:14.6g} {unit}")
    else:
        raw = {"setup_s": statistics.median(setup_raw),
               "wall_s": statistics.median(walls),
               "throughput": statistics.median(rates)}
        e2e = {
            "setup_s": statistics.median(r["setup_s"] * r["scale"] for r in children),
            "wall_s": statistics.median(r["wall_s"] * r["scale"] for r in untraced),
            "peak_rss_mb": statistics.median(r["rss_mib"] for r in untraced),
            "pass_rate": 1.0 - failed / attempted,
            "throughput": statistics.median(
                r["work_units"] / r["work_seconds"] / r["scale"] for r in untraced),
        }
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END}
        notes = {name: f"raw median {raw[name]:.6g}, {spread(v)}" for name, v in
                 (("setup_s", setup_raw), ("wall_s", walls), ("throughput", rates))}
        for name, unit in END_TO_END:
            print(f"  {name:20s} {e2e[name]:12.6g} {unit:4s} {notes.get(name, '')}")
        named = e2e["throughput"]
        if args.workload == "demo-suite":
            named = 1.0 / named
        print(f"  {tp_name:20s} {named:12.6g} {tp_unit}")
        print(f"  {'fail_rate':20s} {failed / attempted:12.6g}      "
              f"({failed} of {attempted} checks failed)")

    print("  checks (attempted / failed):")
    for name, (n, bad) in sorted(checks.items()):
        why = workloads.known_defect(name) if bad else None
        print(f"    {name:36s} {n:3d} / {bad:<3d}"
              + (f" known defect: {why}" if why else ""))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
