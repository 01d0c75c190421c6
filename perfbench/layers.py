"""Per-layer metrics reported by a traced run.

Each entry names the metric, its unit, which direction is better, the
end-to-end metric it should move and the workloads it should move on.  On
every other workload the prediction is no change.  BENCHMARK.json has no
field for the last two, so they live here.

The end-to-end ``throughput`` is each workload's own rate: demo pipelines/s
(the inverse of demo_s) on demo-suite, probe_mvals_per_s on mc-probe,
extract_cands_per_s on extract-scan and tail-profile cells/s on tails-deep.
``pass_rate`` is 1 - fail_rate.
"""

# name, unit, better, moves, on
LAYER_METRICS = (
    ("streams.path_rng.calls", "count", "lower", "throughput", "mc-probe, demo-suite"),
    ("streams.path_rng.s", "s", "lower", "throughput", "mc-probe, demo-suite"),
    ("models.sample_at.calls", "count", "lower", "throughput, wall_s", "mc-probe, demo-suite, extract-scan"),
    ("models.sample_at.s", "s", "lower", "throughput, wall_s", "mc-probe, demo-suite, extract-scan"),
    ("models.values_sampled", "count", "lower", "throughput", "mc-probe, demo-suite, extract-scan"),
    ("models.values_per_s", "1/s", "higher", "throughput, wall_s", "mc-probe, demo-suite, extract-scan"),
    ("distributions.oracle_calls", "count", "lower", "wall_s, throughput", "tails-deep, extract-scan"),
    ("distributions.oracle.s", "s", "lower", "wall_s, throughput", "tails-deep, extract-scan"),
    ("distributions.tau_integral.s", "s", "lower", "wall_s, throughput", "tails-deep"),
    ("distributions.quantile_array.s", "s", "lower", "throughput", "mc-probe, demo-suite"),
    ("distributions.prefix_len", "count", "lower", "peak_rss_mb", "tails-deep, extract-scan"),
    ("tails.build_tail_profile.s", "s", "lower", "wall_s, peak_rss_mb, throughput", "tails-deep"),
    ("tails.checks.s", "s", "lower", "wall_s", "tails-deep"),
    ("tails.cells", "count", "lower", "throughput", "tails-deep"),
    ("tails.feller_residual_max", "1", "lower", "pass_rate", "tails-deep"),
    ("tails.feller_residual_fails", "count", "lower", "pass_rate", "tails-deep"),
    ("tails.scaling_exponent", "1", "lower", "wall_s, throughput", "tails-deep"),
    ("correctors.build.calls", "count", "lower", "throughput", "demo-suite"),
    ("correctors.build.s", "s", "lower", "throughput", "demo-suite"),
    ("extract.greedy_extract.s", "s", "lower", "throughput, wall_s", "extract-scan, demo-suite"),
    ("extract.verify_plan.s", "s", "lower", "wall_s", "extract-scan, demo-suite"),
    ("extract.exact_ip.calls", "count", "lower", "throughput", "extract-scan, demo-suite"),
    ("extract.candidates", "count", "lower", "throughput", "extract-scan, demo-suite"),
    ("extract.accept_ratio", "1", "higher", "throughput", "extract-scan, demo-suite"),
    ("extract.plan_entries", "count", "lower", "wall_s", "extract-scan, demo-suite"),
    ("extract.plan_max_abs_diff", "1", "lower", "pass_rate", "extract-scan, demo-suite"),
    ("extract.scaling_exponent", "1", "lower", "throughput, wall_s", "extract-scan"),
    ("verify.wlln_probe.s", "s", "lower", "throughput", "mc-probe, demo-suite"),
    ("verify.truncation_gap_probe.s", "s", "lower", "throughput", "mc-probe, demo-suite"),
    ("verify.hereditary_suite.s", "s", "lower", "throughput", "mc-probe, demo-suite"),
    ("verify.replications", "count", "lower", "throughput", "mc-probe, demo-suite"),
    ("verify.self_s", "s", "lower", "throughput", "mc-probe"),
    ("verify.sample_share", "1", "higher", "throughput", "mc-probe"),
    ("cli.write_json.s", "s", "lower", "throughput", "demo-suite"),
    ("cli.write_csv.s", "s", "lower", "throughput", "demo-suite"),
    ("cli.files_written", "count", "lower", "throughput", "demo-suite"),
    ("cli.bytes_written", "bytes", "lower", "throughput", "demo-suite"),
    ("cli.write_share", "1", "lower", "throughput", "demo-suite"),
    ("trace.overhead_s", "s", "lower", "none (cost of tracing)", "all"),
)
