"""One repetition of one workload, in a fresh interpreter.

The program keeps module-level state (series totals computed at import,
prefix and inverse-CDF tables filled on first use), so a second repetition
in the same process would time warm caches that a command-line user never
sees.  run.py therefore starts this script once per repetition.

Set-up (interpreter start, import, model construction) ends at the
``t_ready`` stamp, taken on the system-wide monotonic clock so the parent
can subtract its spawn time.  Tables the program fills lazily during the
work stay in the timed part, because every command-line run pays for them.
The host-speed calibration (see run.py) runs no wllnlab code: the time to
the earlier ``t_libs`` stamp, after numpy and scipy are imported, plus fixed
tasks timed just before and just after the work.

Usage: child.py WORKLOAD INPUTS_JSON SCRATCH_DIR {0,1,setup}
The last line of standard output is a JSON object.
"""

from __future__ import annotations

import json
import math
import os
import resource
import sys
import time


def install_tracer(mods: dict):
    from tracer import Tracer, all_subclasses

    tr = Tracer()
    cli, tails, corr = mods["cli"], mods["tails"], mods["correctors"]
    extract, verify, models = mods["extract"], mods["verify"], mods["models"]
    dists = mods["distributions"]

    for attr in ("write_json", "write_csv"):
        tr.patch_function(cli, attr, f"cli.{attr}", "cli")
    for attr in ("build_tail_profile", "check_weak_l1", "check_liminf_condition",
                 "check_limsup_condition", "check_energy_vanishing",
                 "check_feller_necessary"):
        tr.patch_function(tails, attr, f"tails.{attr}", "tails")
    for attr in ("zero_corrector", "corrector_iid", "corrector_independent",
                 "corrector_weak_l2", "corrector_cesaro_estimate"):
        tr.patch_function(corr, attr, f"correctors.{attr}", "correctors")
    for mod in (extract, cli):
        tr.patch_function(mod, "greedy_extract", "extract.greedy_extract",
                          "extract")
        tr.patch_function(mod, "verify_plan", "extract.verify_plan", "extract")
    tr.patch_function(extract, "exact_centered_inner_product",
                      "extract.exact_centered_inner_product", "extract")
    for mod in (verify, cli):
        for attr in ("wlln_probe", "truncation_gap_probe", "hereditary_suite"):
            tr.patch_function(mod, attr, f"verify.{attr}", "verify")
    for mod in (mods["streams"], models, verify):
        tr.patch_function(mod, "path_rng", "streams.path_rng", "streams")
    for cls in all_subclasses(models.SequenceModel):
        tr.patch_method(cls, "sample_at", f"models.{cls.__name__}.sample_at",
                        "models", units=lambda a, k: len(a[1]))
    for cls in [dists.Distribution] + all_subclasses(dists.Distribution):
        tr.patch_oracles(cls)
    return tr


def _term(k: int) -> float:
    return 1.0 / (k * k * math.log(k))


def calibrate() -> float:
    """Fixed tasks of the program's two kinds: a numpy loop like the probes'
    (counter-based random numbers, cumulative sums and comparisons over
    arrays that fit in L2) and an interpreted loop of small function calls
    like the oracles'."""
    import numpy as np

    t0 = time.perf_counter()
    gen = np.random.Generator(np.random.Philox(7))
    for _ in range(100):
        u = gen.random(65536)
        np.cumsum(u)
        np.count_nonzero(u >= 0.5)
    acc = 0.0
    for k in range(2, 100_000):
        acc += _term(k)
    return time.perf_counter() - t0


def _exponent(hi_time, lo_time, ratio):
    if not hi_time or not lo_time:
        return 0.0
    return math.log(hi_time / lo_time) / math.log(ratio)


def direct_metrics(res) -> dict:
    """Per-layer metrics taken from the benchmark's own timing of its direct
    calls, so they are free of tracing overhead."""
    import workloads

    lo, hi = workloads.EXTRACT_LENGTHS
    t = res.exact_by_length
    return {"extract.scaling_exponent": _exponent(t.get(hi), t.get(lo), hi / lo)}


def layer_metrics(tr, res, prefix_len: int) -> dict:
    c = res.counts

    def suffix_total(layer, suffix):
        return sum(t for n, t in tr.total.items()
                   if n.startswith(layer + ".") and n.endswith(suffix))

    tau_by_m: dict = {}
    for name, per_key in tr.by_key.items():
        if name.endswith(".tau_integral"):
            for M, t in per_key.items():
                tau_by_m[M] = tau_by_m.get(M, 0.0) + t
    sample_s = tr.layer_total["models"]
    values = sum(tr.units.values())
    verify_s = tr.layer_total["verify"]
    cands = c.get("extract.candidates", 0)
    writes = tr.total["cli.write_json"] + tr.total["cli.write_csv"]
    return {
        "streams.path_rng.calls": tr.calls["streams.path_rng"],
        "streams.path_rng.s": tr.total["streams.path_rng"],
        "models.sample_at.calls": tr.layer_calls["models"],
        "models.sample_at.s": sample_s,
        "models.values_sampled": values,
        "models.values_per_s": values / sample_s if sample_s else 0.0,
        "distributions.oracle_calls": tr.layer_calls["distributions"],
        "distributions.oracle.s": tr.layer_total["distributions"],
        "distributions.tau_integral.s": suffix_total("distributions", ".tau_integral"),
        "distributions.quantile_array.s": suffix_total("distributions", ".quantile_array"),
        "distributions.prefix_len": prefix_len,
        "tails.build_tail_profile.s": tr.total["tails.build_tail_profile"],
        "tails.checks.s": suffix_total("tails", "") - tr.total["tails.build_tail_profile"],
        "tails.cells": c.get("tails.cells", 0),
        "tails.feller_residual_max": c.get("tails.feller_residual_max", 0.0),
        "tails.feller_residual_fails": c.get("tails.feller_residual_fails", 0),
        "tails.scaling_exponent": _exponent(tau_by_m.get(1e6), tau_by_m.get(1e5), 10),
        "correctors.build.calls": tr.layer_calls["correctors"],
        "correctors.build.s": tr.layer_total["correctors"],
        "extract.greedy_extract.s": tr.total["extract.greedy_extract"],
        "extract.verify_plan.s": tr.total["extract.verify_plan"],
        "extract.exact_ip.calls": tr.calls["extract.exact_centered_inner_product"],
        "extract.candidates": cands,
        "extract.accept_ratio": c.get("extract.steps", 0) / cands if cands else 0.0,
        "extract.plan_entries": c.get("extract.plan_entries", 0),
        "extract.plan_max_abs_diff": c.get("extract.plan_max_abs_diff", 0.0),
        "verify.wlln_probe.s": tr.total["verify.wlln_probe"],
        "verify.truncation_gap_probe.s": tr.total["verify.truncation_gap_probe"],
        "verify.hereditary_suite.s": tr.total["verify.hereditary_suite"],
        "verify.replications": c.get("verify.replications", 0),
        "verify.self_s": tr.layer_self["verify"],
        "verify.sample_share": tr.sampling_in_verify / verify_s if verify_s else 0.0,
        "cli.write_json.s": tr.total["cli.write_json"],
        "cli.write_csv.s": tr.total["cli.write_csv"],
        "cli.files_written": c.get("cli.files_written", 0),
        "cli.bytes_written": c.get("cli.bytes_written", 0),
        "cli.write_share": writes / res.work_seconds
        if writes and res.work_seconds else 0.0,
    }


def main(argv) -> int:
    workload, inputs_json, scratch, mode = argv
    import numpy  # noqa: F401
    import scipy.special  # noqa: F401

    t_libs = time.monotonic()
    import workloads

    ctx = workloads.setup(workload)
    t_ready = time.monotonic()
    calibration = calibrate()
    if mode == "setup":
        print(json.dumps({"t_libs": t_libs, "t_ready": t_ready,
                          "calibrate_s": calibration + calibrate()}))
        return 0

    tr = install_tracer(ctx["mods"]) if mode == "1" else None
    t0 = time.perf_counter()
    res = workloads.run(workload, ctx, json.loads(inputs_json), scratch)
    wall = time.perf_counter() - t0
    calibration += calibrate()

    prefix_len = int(getattr(ctx["mods"]["distributions"], "_prefix_upto", 0))
    out = {
        "t_libs": t_libs,
        "t_ready": t_ready,
        "calibrate_s": calibration,
        "wall_s": wall,
        "rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "checks": res.checks,
        "work_units": res.work_units,
        "work_seconds": res.work_seconds,
        "direct": direct_metrics(res),
    }
    if tr is not None:
        out["layers"] = layer_metrics(tr, res, prefix_len)
        tr.write(os.path.join(scratch, f"spans-{workload}.npz"))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
