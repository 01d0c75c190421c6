"""Command-line behavior: exit codes, artifact layout, and manifest replay."""

import csv
import hashlib
import json
import os
import time
import tracemalloc

import pytest

from wllnlab import cli
from wllnlab.cli import main, resolve_config, write_json
from wllnlab.correctors import zero_corrector
from wllnlab.models import SequenceModel, model_from_spec
from wllnlab.verify import hereditary_suite, truncation_gap_probe, wlln_probe

TAIL_MODEL = {"kind": "tail_vanishing",
              "params": {"g": {"family": "pareto1", "scale": 1.0}}}

LATENT_MODEL = {"kind": "latent_shift",
                "params": {"factor": {"family": "finite",
                                      "atoms": [[-1.0, 0.5], [1.0, 0.5]]},
                           "noise": {"family": "finite",
                                     "atoms": [[-3.0, 0.5], [3.0, 0.5]]}}}

EXAMPLE41_MODEL = {"kind": "example41",
                   "params": {"rho": {"family": "one-minus-one-over-log"},
                              "symmetric": True}}

# rho for indices 1..3 only
TABLE_MODEL = {"kind": "example41",
               "params": {"rho": {"family": "explicit",
                                  "values": [0.5, 0.6, 0.7]}}}

IID_SIGNS = {"kind": "iid",
             "params": {"dist": {"family": "finite",
                                 "atoms": [[-1.0, 0.5], [1.0, 0.5]]}}}
IID_MODEL = {"kind": "iid",
             "params": {"dist": {"family": "finite",
                                 "atoms": [[1.0, 0.25], [5.0, 0.75]]}}}

# two heavy-log laws, neither dominating the other's tail functional by name
HEAVY_LOG_ARRAY = {"kind": "independent_array", "params": {"dists": [
    {"family": "heavy_log", "rho": 0.5, "symmetric": True},
    {"family": "heavy_log", "rho": 0.2, "symmetric": False}]}}


def write_cfg(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


def test_missing_out_dir_is_usage_error(monkeypatch, tmp_path):
    monkeypatch.delenv("WLLNLAB_OUT", raising=False)
    cfg = write_cfg(tmp_path, "c.json", {"model": TAIL_MODEL})
    assert main(["tails", "--config", cfg]) == 64


def test_out_dir_from_environment(monkeypatch, tmp_path):
    monkeypatch.setenv("WLLNLAB_OUT", str(tmp_path / "envout"))
    cfg = write_cfg(tmp_path, "c.json", {"model": TAIL_MODEL,
                                         "n_range": [1, 4]})
    assert main(["tails", "--config", cfg]) == 0
    assert (tmp_path / "envout" / "tails.csv").exists()


def test_out_dir_that_is_a_file_is_usage_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "c.json", {"model": TAIL_MODEL})
    assert main(["tails", "--config", cfg, "--out", cfg]) == 64
    assert capsys.readouterr().err.startswith("error: cannot create output")


def test_unknown_config_key(tmp_path):
    cfg = write_cfg(tmp_path, "c.json", {"model": TAIL_MODEL, "bogus": 1})
    assert main(["tails", "--config", cfg, "--out", str(tmp_path / "o")]) == 64


def test_empty_m_grid(tmp_path):
    cfg = write_cfg(tmp_path, "c.json", {"model": TAIL_MODEL, "m_grid": []})
    assert main(["tails", "--config", cfg, "--out", str(tmp_path / "o")]) == 64


def test_envelope_without_finite_bound_is_null(tmp_path):
    # example41's envelope 2c(1 - rho)/log M has no finite value at M <= 1,
    # and strict JSON has no Infinity token
    cfg = write_cfg(tmp_path, "c.json", {"model": EXAMPLE41_MODEL,
                                         "m_grid": [0.5, 1.0],
                                         "n_range": [1, 2]})
    out = tmp_path / "o"
    assert main(["tails", "--config", cfg, "--out", str(out)]) == 0
    verdict = json.loads((out / "verdicts.json").read_text())["weak_l1"]
    assert verdict["status"] == "holds-on-grid"
    assert verdict["data"]["envelope_at_largest"] is None


def test_verify_zero_reps(tmp_path):
    cfg = write_cfg(tmp_path, "c.json", {"model": TAIL_MODEL})
    assert main(["verify", "--config", cfg, "--reps", "0",
                 "--out", str(tmp_path / "o")]) == 64


def test_malformed_model(tmp_path):
    cfg = write_cfg(tmp_path, "c.json", {"model": {"kind": "nope"}})
    assert main(["tails", "--config", cfg, "--out", str(tmp_path / "o")]) == 64


def test_tails_outputs_and_expectations(tmp_path):
    cfg = write_cfg(tmp_path, "c.json",
                    {"model": TAIL_MODEL, "m_grid": [2, 8, 32],
                     "n_range": [1, 8]})
    out = tmp_path / "t"
    assert main(["tails", "--config", cfg, "--out", str(out),
                 "--expect", "weak_l1=fails", "--expect", "limsup=holds"]) == 0
    with open(out / "tails.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["n", "M", "tau", "sigma", "feller_residual"]
    assert len(rows) == 1 + 8 * 3
    verdicts = json.loads((out / "verdicts.json").read_text())
    assert verdicts["weak_l1"]["status"] == "fails"
    assert verdicts["energy"]["status"] == "holds"
    # the same run with the opposite expectation exits 2
    assert main(["tails", "--config", cfg, "--out", str(tmp_path / "t2"),
                 "--expect", "weak_l1=holds"]) == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "tails"
    assert manifest["config"]["m_grid"] == [2, 8, 32]


def test_tails_heavy_law_at_deep_levels(tmp_path):
    # the heavy law's oracles are O(1) in M: a level of 10^9 is as cheap as
    # one of 10, and the Feller relation still holds to rounding there
    cfg = write_cfg(tmp_path, "c.json", {"model": EXAMPLE41_MODEL})
    out = tmp_path / "deep"
    t0 = time.perf_counter()
    assert main(["tails", "--config", cfg, "--out", str(out),
                 "--grid", "10,1000000,1000000000"]) == 0
    assert time.perf_counter() - t0 < 30.0
    with open(out / "tails.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert {float(r["M"]) for r in rows} == {10.0, 1e6, 1e9}
    assert max(abs(float(r["feller_residual"])) for r in rows) <= 1e-12


def test_extract_success_and_failure(tmp_path):
    ok_cfg = write_cfg(tmp_path, "ok.json",
                       {"model": TAIL_MODEL, "target_length": 8,
                        "n_grid": [2, 4, 8], "search_cap": 64})
    out = tmp_path / "e"
    assert main(["extract", "--config", ok_cfg, "--out", str(out)]) == 0
    plan = json.loads((out / "plan.json").read_text())
    assert len(plan["indices"]) == 8
    assert json.loads((out / "plan_check.json").read_text())["ok"]

    # nondegenerate iid with a zero corrector cannot be near-orthogonal
    bad_cfg = write_cfg(tmp_path, "bad.json",
                        {"model": IID_MODEL, "target_length": 8,
                         "n_grid": [8], "search_cap": 32})
    out2 = tmp_path / "ef"
    assert main(["extract", "--config", bad_cfg, "--out", str(out2)]) == 3
    failure = json.loads((out2 / "extract_failure.json").read_text())
    assert failure["step"] >= 2
    assert failure["best_violation"] > 0


def test_extract_at_the_largest_level(tmp_path):
    # 2^63 - 1 is a level; it is no double, so the corrector's table is
    # read under the level itself, not under its rounded float
    cfg = write_cfg(tmp_path, "c.json", {"model": TAIL_MODEL,
                                         "target_length": 5,
                                         "n_grid": [64, 2**63 - 1]})
    out = tmp_path / "o"
    assert main(["extract", "--config", cfg, "--out", str(out)]) == 0
    plan = json.loads((out / "plan.json").read_text())
    assert plan["n_grid"] == [64, 2**63 - 1] and len(plan["indices"]) == 5


def test_sample_mode_at_a_deep_first_index(tmp_path):
    # the bank holds the rows of the search window, not of 1..search_cap
    cfg = write_cfg(tmp_path, "c.json",
                    {"model": cli._DEMOS["example41"]["model"],
                     "mode": "sample", "min_index": 10**12,
                     "target_length": 8, "n_grid": [64, 256],
                     "sample_R": 100})
    out = tmp_path / "o"
    assert main(["extract", "--config", cfg, "--out", str(out)]) == 0
    plan = json.loads((out / "plan.json").read_text())
    assert len(plan["indices"]) == 8 and plan["indices"][0] == 10**12
    check = json.loads((out / "plan_check.json").read_text())
    assert check["ok"] and check["max_abs_diff"] == 0.0


def test_sample_bank_over_its_cap_is_usage_error(tmp_path, capsys):
    # a window of 10^9 indices at R = 100 would need 745 GiB: rejected
    # before the bank is allocated or any path sampled
    cfg = write_cfg(tmp_path, "c.json",
                    {"model": {**cli._DEMOS["counterexample"]["model"],
                               "index_cap": 10**9},
                     "mode": "sample", "search_cap": 10**9, "sample_R": 100,
                     "target_length": 8, "n_grid": [64, 256]})
    out = tmp_path / "o"
    assert main(["extract", "--config", cfg, "--out", str(out)]) == 64
    assert capsys.readouterr().err == (
        "error: sample bank of 1000000000 indices x R 100 = 100000000000 "
        "values exceeds the cap of 2^25 values (256 MiB): lower search_cap "
        "or sample_R\n")
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]


@pytest.mark.parametrize("model, code", [(IID_MODEL, 0), (LATENT_MODEL, 64)],
                         ids=["iid", "latent-shift"])
def test_iid_corrector_needs_an_iid_model(tmp_path, capsys, model, code):
    # latent shift is identically distributed but not independent
    cfg = write_cfg(tmp_path, "c.json", {"model": model, "target_length": 4,
                                         "n_grid": [8], "corrector": "iid"})
    out = tmp_path / "o"
    assert main(["extract", "--config", cfg, "--out", str(out)]) == code
    if code:
        assert capsys.readouterr().err == \
            "error: corrector 'iid' needs an iid model\n"
    else:
        corrector = json.loads((out / "corrector.json").read_text())
        assert corrector["provenance"] == "iid-truncated-mean"


@pytest.mark.parametrize("bad", [
    {"mode": "bogus"},
    {"mode": "sample", "sample_R": 50},
    {"target_length": 0},
    {"search_cap": 10**10},
    {"search_cap": 0},
    {"eps_floor": float("inf")},
], ids=["unknown-mode", "sample-R-below-100", "zero-target-length",
        "search-cap-above-index-cap", "empty-search-window",
        "infinite-eps-floor"])
def test_extract_bad_config_is_usage_error(tmp_path, capsys, bad):
    cfg = write_cfg(tmp_path, "bad.json",
                    {"model": TAIL_MODEL, "target_length": 8,
                     "n_grid": [2, 4, 8], **bad})
    assert main(["extract", "--config", cfg, "--out", str(tmp_path / "o")]) == 64
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.count("\n") == 1 and err.startswith("error: ")


@pytest.mark.parametrize("command, payload", [
    ("extract", {"model": TAIL_MODEL, "target_length": "x", "n_grid": [4]}),
    # json reads 1e999 as inf, which int() cannot convert
    ("extract", {"model": TAIL_MODEL, "target_length": float("inf"),
                 "n_grid": [4]}),
    ("extract", {"model": {**EXAMPLE41_MODEL, "params": {
        "rho": {"family": "constant", "value": 0.5}, "symmetric": False}},
        "corrector": "weak_l2", "n_grid": [8]}),
    ("verify", {"model": {**IID_MODEL, "index_cap": 100}, "n_grid": [256],
                "reps": 10}),
    ("tails", {"model": TABLE_MODEL, "n_range": [1, 8]}),
    ("verify", {"model": TABLE_MODEL, "indices": [1, 2, 3, 4], "n_grid": [4],
                "reps": 10}),
    ("extract", {"model": {**TABLE_MODEL, "index_cap": 10}, "n_grid": [4]}),
    ("tails", {"model": {**EXAMPLE41_MODEL, "params": {
        "rho": {"family": "constant", "value": 1.5}}}}),
    ("tails", {"model": {**EXAMPLE41_MODEL, "params": {
        "rho": {"family": "explicit", "values": [0.5, -0.2]}}}}),
    ("tails", {"model": {**TAIL_MODEL, "index_cap": 0}}),
    ("tails", {"model": {**EXAMPLE41_MODEL, "params": {
        "rho": {"family": "one-minus-one-over-log"}, "symmetric": "no"}}}),
    ("tails", {"model": {"kind": "iid", "params": {"dist": {
        "family": "heavy_log", "rho": 0.5, "symmetric": "no"}}}}),
    ("extract", {"model": TAIL_MODEL, "target_length": True, "n_grid": [4]}),
    ("verify", {"model": TAIL_MODEL, "seed": False, "n_grid": [4],
                "reps": 10}),
    ("tails", {"model": TAIL_MODEL, "m_grid": [True, 2.0]}),
    ("tails", {"model": HEAVY_LOG_ARRAY, "n_range": [1, 2],
               "m_grid": [1e150]}),
    ("verify", {"model": IID_SIGNS, "indices": [1.5, 2, 3, 4], "n_grid": [4],
                "reps": 10}),
    ("verify", {"model": IID_SIGNS, "n_grid": ["4"], "reps": 10}),
    # a float key takes finite JSON numbers only: float() would read these
    ("verify", {"model": IID_SIGNS, "n_grid": [4], "reps": 10,
                "epsilon": "0.5", "pass_threshold": "nan"}),
    ("verify", {"model": IID_SIGNS, "n_grid": [4], "reps": 10,
                "pass_threshold": "nan"}),
    # json.dumps writes a bare NaN token, which json.load reads as a float
    ("hereditary", {"model": IID_SIGNS, "n_grid": [4], "reps": 10,
                    "pass_threshold": float("nan")}),
    ("verify", {"model": IID_SIGNS, "n_grid": [4], "reps": 10,
                "pass_threshold": 1.5}),
    ("hereditary", {"model": IID_SIGNS, "n_grid": [4], "reps": 10,
                    "pass_threshold": -0.1}),
    ("verify", {"model": IID_SIGNS, "n_grid": [4], "reps": 10,
                "epsilon": float("nan")}),
], ids=["non-numeric-value", "infinite-value", "unsupported-oracle",
        "index-cap-below-grid", "tails-past-rho-table",
        "verify-past-rho-table", "index-cap-above-rho-table",
        "rho-above-one", "rho-below-zero", "zero-index-cap",
        "example41-symmetric-not-boolean", "heavy-log-symmetric-not-boolean",
        "boolean-length", "boolean-seed", "boolean-in-level-list",
        "heavy-log-array-walk-past-cap", "fractional-index-in-config",
        "string-level", "string-epsilon-and-nan-threshold",
        "nan-string-threshold", "bare-nan-threshold", "threshold-above-one",
        "negative-threshold", "bare-nan-epsilon"])
def test_usage_errors_exit_64(tmp_path, capsys, command, payload):
    cfg = write_cfg(tmp_path, "c.json", payload)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 64
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.count("\n") == 1 and err.startswith("error: ")


@pytest.mark.parametrize("command, payload", [
    ("verify", {"indices": [1, 2, 3], "n_grid": [64]}),
    ("verify", {"epsilon": -1}),
    ("verify", {"epsilon": 0}),
    ("verify", {"n_grid": [0]}),
    ("verify", {"indices": [3, 2, 1]}),
    ("verify", {"gap_probe": True, "epsilon": -1}),
    ("hereditary", {"n_grid": [0]}),
    ("hereditary", {"indices": [3, 2, 1]}),
    ("hereditary", {"epsilon": -1}),
    ("hereditary", {"indices": [1, 2, 3], "n_grid": [64]}),
    ("extract", {"n_grid": []}),
    ("extract", {"n_grid": [0]}),
    ("extract", {"n_grid": [-4]}),
    ("extract", {"n_grid": [64, 64, 256]}),
    ("extract", {"target_length": 5, "n_grid": [1e19]}),
    ("extract", {"target_length": 5, "n_grid": [64, 2**63]}),
    ("verify", {"n_grid": [64, 256, 64]}),
    ("extract", {"target_length": None}),
    ("tails", {"m_grid": [0, 2]}),
    ("tails", {"m_grid": [-4, 2]}),
    ("tails", {"m_grid": [1e400]}),
    ("tails", {"m_grid": [2, 1e160],
               "model": {"kind": "example41",
                         "params": {"rho": {"family": "constant",
                                            "value": 0.5}}}}),
    ("tails", {"m_grid": [1e300], "model": IID_MODEL}),
    ("extract", {"min_index": 0}),
    ("extract", {"min_index": -5}),
    ("hereditary", {"patterns": []}),
    ("tails", {"feller_grid": [0, 4]}),
    ("tails", {"n_range": [1, 2, 3]}),
    ("tails", {"expect": [1]}),
    ("tails", {"n_range": [1, 2], "expect": {"bogus": "holds"}}),
    ("tails", {"expect": {"feller_tail_sum": "holds"}}),
    ("hereditary", {"patterns": 5}),
    ("hereditary", {"patterns": ["every-5th"]}),
    ("verify", {"seed": -1}),
    ("verify", {"gap_probe": "false"}),
    ("verify", {"compute_l2": True, "reps": 1}),
], ids=["verify-indices-too-short", "verify-negative-epsilon",
        "verify-zero-epsilon", "verify-zero-level", "verify-decreasing-indices",
        "verify-gap-probe-negative-epsilon", "hereditary-zero-level",
        "hereditary-decreasing-indices", "hereditary-negative-epsilon",
        "hereditary-no-pattern-long-enough", "extract-empty-grid",
        "extract-zero-level", "extract-negative-level",
        "extract-repeated-level", "extract-level-past-int64",
        "extract-level-at-2^63", "verify-repeated-level", "extract-null-length",
        "tails-zero-level", "tails-negative-level", "tails-infinite-level",
        "tails-heavy-log-level-overflows", "tails-finite-level-overflows",
        "extract-zero-min-index", "extract-negative-min-index",
        "hereditary-no-patterns",
        "tails-zero-feller-level", "tails-three-item-range",
        "tails-expect-not-an-object", "tails-expect-unknown-condition",
        "tails-expect-feller-without-grid", "hereditary-patterns-not-a-list",
        "hereditary-unknown-pattern", "verify-negative-seed",
        "verify-flag-not-boolean", "verify-l2-one-rep"])
def test_probe_and_grid_inputs_are_usage_errors(tmp_path, capsys, command,
                                                payload):
    runs = {"reps": 10} if command in ("verify", "hereditary") else {}
    cfg = write_cfg(tmp_path, "c.json", {"model": TAIL_MODEL, **runs, **payload})
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out)]) == 64
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.count("\n") == 1 and err.startswith("error: ")
    # nothing is written but the manifest, which a bad grid stops too
    assert set(os.listdir(out)) <= {"manifest.json"}


@pytest.mark.parametrize("command", ["verify", "hereditary"])
def test_grid_past_index_cap_exits_before_building_indices(tmp_path, capsys,
                                                           command):
    cfg = write_cfg(tmp_path, "c.json", {
        "model": {**IID_MODEL, "index_cap": 100}, "n_grid": [10**12],
        "reps": 1})
    tracemalloc.start()
    try:
        rc = main([command, "--config", cfg, "--out", str(tmp_path / "o")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 64
    assert capsys.readouterr().err == "error: indices outside 1..100\n"
    assert peak < 16 * 2**20


def test_hereditary_runs_what_is_long_enough(tmp_path):
    # every-3rd keeps 22 of 64 indices, short of the grid's 32: skipped with
    # a note, while the other patterns run
    cfg = write_cfg(tmp_path, "h.json",
                    {"model": TAIL_MODEL, "n_grid": [32], "reps": 100,
                     "indices": list(range(1, 65))})
    out = tmp_path / "h"
    assert main(["hereditary", "--config", cfg, "--out", str(out)]) == 0
    suite = json.loads((out / "hereditary.json").read_text())
    assert "every-3rd" not in suite["patterns"]
    assert any(n.startswith("every-3rd:") for n in suite["notes"])


def test_exhausted_window_failure_is_strict_json(tmp_path):
    # the window ends before step 5 has a candidate: no finite violation
    zero = {"kind": "iid",
            "params": {"dist": {"family": "finite", "atoms": [[0.0, 1.0]]}}}
    cfg = write_cfg(tmp_path, "c.json", {"model": zero, "target_length": 8,
                                         "n_grid": [2, 4, 8], "search_cap": 4})
    out = tmp_path / "o"
    assert main(["extract", "--config", cfg, "--out", str(out)]) == 3

    def reject(token):
        raise ValueError(f"non-JSON token {token}")

    text = (out / "extract_failure.json").read_text()
    failure = json.loads(text, parse_constant=reject)
    assert failure["best_candidate"] is None and failure["best_violation"] is None


def test_rho_table_ends_the_search_window(tmp_path, capsys):
    # the explicit rho table sets the index_cap: steps 4 and 5 find no
    # candidate, an extraction failure and not an index error
    cfg = write_cfg(tmp_path, "c.json", {"model": TABLE_MODEL,
                                         "target_length": 5, "n_grid": [4]})
    out = tmp_path / "o"
    assert main(["extract", "--config", cfg, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    # no candidate was examined, so there is no best one to name
    assert err == ("error: search window exhausted at step 4 before any "
                   "candidate (search_cap 3)\n")
    failure = json.loads((out / "extract_failure.json").read_text())
    assert failure["step"] == 4 and failure["search_cap"] == 3
    assert failure["best_candidate"] is None and failure["best_violation"] is None


@pytest.mark.parametrize("command", ["verify", "hereditary"])
def test_missing_plan_path_is_usage_error(tmp_path, capsys, command):
    cfg = write_cfg(tmp_path, "c.json",
                    {"model": TAIL_MODEL, "n_grid": [16],
                     "plan_path": str(tmp_path / "no-such-plan.json")})
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 64
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.count("\n") == 1 and "no-such-plan.json" in err


# int() would read 1.5 as 1, "1" as 1 and true as 1: an index is a JSON
# integer
@pytest.mark.parametrize("plan", [
    {"n_grid": [16]}, {"indices": ["x"]},
    {"indices": [1.5, 2.5, 3.9, 4.2, *range(5, 65)]},
    {"indices": [True, *range(2, 65)]}, {"indices": ["1", *range(2, 65)]},
], ids=["no-indices", "non-numeric-index", "fractional-index",
        "boolean-index", "string-index"])
def test_unreadable_plan_is_usage_error(tmp_path, capsys, plan):
    cfg = write_cfg(tmp_path, "c.json",
                    {"model": IID_SIGNS, "n_grid": [16, 64], "reps": 50,
                     "plan_path": write_cfg(tmp_path, "plan.json", plan)})
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 64
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.count("\n") == 1 and err.startswith("error: cannot read plan")


def test_verify_violation_exit_code(tmp_path):
    cfg = write_cfg(tmp_path, "v.json",
                    {"model": LATENT_MODEL, "epsilon": 0.5,
                     "n_grid": [4, 64], "reps": 200, "corrector": "zero"})
    out = tmp_path / "v"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 4
    report = json.loads((out / "report.json").read_text())
    assert report["verdict"] == "violation"
    with open(out / "report.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["N", "p_hat", "ci_lo", "ci_hi", "l2_hat"]


def test_verify_with_conditional_corrector(tmp_path):
    cfg = write_cfg(tmp_path, "v.json",
                    {"model": LATENT_MODEL, "epsilon": 0.5,
                     "n_grid": [64, 1024], "reps": 200,
                     "corrector": "weak_l2", "compute_l2": True})
    out = tmp_path / "vc"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["verdict"] == "consistent-with-wlln"
    assert report["markov_ok"]


def test_hereditary_command(tmp_path):
    cfg = write_cfg(tmp_path, "h.json",
                    {"model": TAIL_MODEL, "epsilon": 0.25,
                     "n_grid": [16, 64], "reps": 150, "corrector": "zero",
                     "indices": list(range(1, 129))})
    out = tmp_path / "h"
    assert main(["hereditary", "--config", cfg, "--out", str(out)]) == 0
    suite = json.loads((out / "hereditary.json").read_text())
    assert set(suite["patterns"]) == {"every-2nd", "every-3rd",
                                      "random-thinning", "prefix-shift"}


def test_demo_and_manifest_rerun_byte_identical(tmp_path):
    out = tmp_path / "demo"
    assert main(["demo", "counterexample", "--out", str(out),
                 "--reps", "300", "--seed", "11"]) == 0
    names = sorted(os.listdir(out))
    assert "summary.txt" in names and "manifest.json" in names
    out2 = tmp_path / "replay"
    assert main(["rerun", "--manifest", str(out / "manifest.json"),
                 "--out", str(out2)]) == 0
    assert sorted(os.listdir(out2)) == names
    for name in names:
        assert (out / name).read_bytes() == (out2 / name).read_bytes(), name


def test_demo_input_validation(tmp_path):
    # argparse rejects names outside the choice list
    assert main(["demo", "nope", "--out", str(tmp_path / "y")]) == 64
    assert main(["demo", "counterexample", "--out", str(tmp_path / "x"),
                 "--reps", "0"]) == 64


# SHA-256 of every file the seed-7 demos write at the default replication
# count.  tails.csv, verdicts.json, corrector.json, plan.json and
# plan_check.json come from exact oracles only; the Monte Carlo reports and
# summary.txt follow the random streams.
SEED7_DIGESTS = {
    "counterexample": {
        "corrector.json":
            "c57a5d9fe061dd83df1cd7c9fb49d22b09cd7e231d7778f9363a56771ac1484c",
        "gap_report.json":
            "c98c0f4e22bd4a3e7beb934751b91c4eb8dbe010fe106c670008839313c658b7",
        "hereditary.json":
            "8d37bad18f795a925ea7f73a788170597285ef525dbe3f1934396ed322c4a452",
        "manifest.json":
            "5f841189ecab1fa02c759a38bcc2b4a50d226e4b2f67533ce2c9a711d65a7321",
        "plan.json":
            "bf9a822fb4d4284ea9a2e2e5714cf71b55e4adc3f01fd76524570318085147a6",
        "plan_check.json":
            "803d652e99d5a5dd9c558cbaf4a2b502be6440b110f2887543d8dd40296cdd9f",
        "report.json":
            "191a3a6c949e85c03e0f96a106663bd1184baae318c3915bd43e3cc60d5370c8",
        "summary.txt":
            "074d7c9ac1decba6c49d294c2ce8f9352c92a5e6fdceaacf96830fc9dee964cc",
        "tails.csv":
            "6205a96398b2b26efcd7b53d8d26e2f852b967ee7c952e3a4ee40614440c98da",
        "verdicts.json":
            "a4e49c1e7a19c0cd98cfd0761c6ae680cd8c272cc4f6df9b8f807ef719b7db62",
    },
    "example41": {
        "corrector.json":
            "251cd5d92aa378f2aae6f17840192fa225c9e066aa9ddf843745b648c22d34fb",
        "gap_report.json":
            "e5de0d0ef52dcef2ea69cc77fd210914910dbc76fe2408366df074f4caa50143",
        "hereditary.json":
            "de6ddf07d70b9fb28582c28950fa7c207aae6ee385b396c8caca750ad187e820",
        "manifest.json":
            "d8904aa91571b2293f24d44fcb05c35567ddbb9e50698668336604410fe4d0bd",
        "plan.json":
            "e78b3f6b140eeff2a00bc01f226730458803bca8a04b601711b7aedbcb47496f",
        "plan_check.json":
            "803d652e99d5a5dd9c558cbaf4a2b502be6440b110f2887543d8dd40296cdd9f",
        "report.json":
            "9c6e03236fb8c384e7f260ff079c135cd6bf71b3060afab7d97b6d9fc6e10d6c",
        "summary.txt":
            "9462d8709ac7a589d3fb38db3da9b6b1b973ac9a9901da51e97606eb65d9cca4",
        "tails.csv":
            "bacbfeb231a2a7a96758e230cd68b7677056fc50f9d7b5137c243881585f92f2",
        "verdicts.json":
            "94ac08eb50fc5d3f3124dfdb56aec8380d7b11b9bfd9a599e382c37dc5c055ec",
    },
    "latent-shift": {
        "corrector.json":
            "2d7245d14402a47568953a45c5dc81eec6e3ea080a19edcfbe35b9985611abd9",
        "gap_report.json":
            "172a40c77e0807e4ac059ca4938982a9ed6abe5cd8dbf414112567bc78f29300",
        "hereditary.json":
            "eb4153159eebc3e879b6e77cd229f0b6d35d64f110b18982ea0dfcc4dc42f975",
        "manifest.json":
            "8c6188b28373e2eecc1ad7347485b9f5a6e3d388182e38ee13b5a0376dcd6564",
        "plan.json":
            "8fea76b85c51f648de0c802e795f5a52015d334da04d64a6f55e22212905e766",
        "plan_check.json":
            "803d652e99d5a5dd9c558cbaf4a2b502be6440b110f2887543d8dd40296cdd9f",
        "report.json":
            "8009e391979648aac1baee68d3e64541a8f81c66a5b34a485a58ede68b0d96a3",
        "report_zero_corrector.json":
            "48ccb551412f3fcef1a5f36c763bca28af126e92dd4d1597eb19cc6a78253679",
        "summary.txt":
            "b7914b4bb53807d3fe920d0778c2b0688ac1cd80a72b5a2407f46e07f1ee9217",
        "tails.csv":
            "5c6a27fc270370cf25e2558aa6a1bc70f52cdbd3ce4db5b8b8e9708bcf512233",
        "verdicts.json":
            "f816fdf609a5f55601d61a5fab8386e7aeeb1ac9b19a0c5f3138a54a764c0a6b",
    },
}


@pytest.mark.parametrize("name", sorted(SEED7_DIGESTS))
def test_seed7_demo_artifacts_pinned(tmp_path, name):
    out = tmp_path / name
    assert main(["demo", name, "--seed", "7", "--out", str(out)]) == 0
    got = {f: hashlib.sha256((out / f).read_bytes()).hexdigest()
           for f in sorted(os.listdir(out))}
    assert got == SEED7_DIGESTS[name]


def _bits(v):
    return float(v).hex()


# SHA-256 of the sample-mode plan.json below: the two-column row layout
# (estimate, half_width), which no demo plan has
SAMPLE_PLAN_SHA256 = \
    "e99243cb62712a9a99b3cc579ca43fa30e55e75b01e5387307d7990b605ea925"


# SHA-256 of the latent-shift sample-mode plan.json at floor 2.0 below,
# 81 of whose 84 estimates are non-zero
LATENT_SAMPLE_PLAN_SHA256 = \
    "fe506db7496e0e8ecf9843117419faa4cfbcdb9495eff9214151df0b218a7cbe"


def test_plan_json_rows_round_trip(tmp_path, monkeypatch):
    # the seed-7 counterexample demo's plan, from the demo's extract stage
    model = model_from_spec(cli._DEMOS["counterexample"]["model"])
    cfg = resolve_config("extract", {"seed": 7, "target_length": 4096,
                                     "corrector": "weak_l2"}, {})
    plan = cli._extract_stage(model, cfg, str(tmp_path))[0]
    raw = (tmp_path / "plan.json").read_bytes()
    assert hashlib.sha256(raw).hexdigest() == \
        SEED7_DIGESTS["counterexample"]["plan.json"]
    stored = json.loads(raw)
    assert stored["achieved_fields"] == ["j", "n", "N", "value"]
    rebuilt = {(j, n, N): v for j, n, N, v in stored["achieved"]}
    assert len(rebuilt) == len(plan.achieved) == 16796
    assert list(rebuilt) == sorted(plan.achieved)
    assert {k: _bits(v) for k, v in rebuilt.items()} == \
        {k: _bits(v) for k, (v,) in zip(plan.achieved, plan.achieved.values)}

    # sample mode: (estimate, half_width) per entry
    cfg = resolve_config("extract", {
        "model": TAIL_MODEL, "target_length": 8, "n_grid": [2, 4, 8],
        "search_cap": 64, "mode": "sample", "sample_R": 200}, {})
    sdir = tmp_path / "sample"
    sdir.mkdir()
    plan = cli._extract_stage(model_from_spec(TAIL_MODEL), cfg, str(sdir))[0]
    assert hashlib.sha256((sdir / "plan.json").read_bytes()).hexdigest() \
        == SAMPLE_PLAN_SHA256
    stored = json.loads((sdir / "plan.json").read_text())
    assert stored["achieved_fields"] == ["j", "n", "N", "estimate",
                                         "half_width"]
    rebuilt = {(j, n, N): (_bits(e), _bits(h))
               for j, n, N, e, h in stored["achieved"]}
    assert rebuilt and rebuilt == {k: (_bits(e), _bits(h)) for k, (e, h)
                                   in zip(plan.achieved, plan.achieved.values)}

    # verify reads the plan's indices from plan_path
    reports = []
    for name, source in (("p", {"plan_path": str(sdir / "plan.json")}),
                         ("i", {"indices": list(plan.indices)})):
        vcfg = write_cfg(tmp_path, name + ".json",
                         {"model": TAIL_MODEL, "n_grid": [4, 8], "reps": 100,
                          **source})
        assert main(["verify", "--config", vcfg,
                     "--out", str(tmp_path / name)]) == 0
        reports.append((tmp_path / name / "report.json").read_bytes())
    assert reports[0] == reports[1]

    # a sample plan with hits, its bank filled from 3,000-value chunks of
    # one reused buffer: each chunk must be copied before the next
    import wllnlab.models as models_mod
    monkeypatch.setattr(models_mod, "_BLOCK_VALUES", 3000)
    cfg = resolve_config("extract", {
        "model": LATENT_MODEL, "target_length": 8, "n_grid": [2, 4, 8],
        "search_cap": 128, "mode": "sample", "sample_R": 400,
        "eps_floor": 2.0, "corrector": "weak_l2"}, {})
    ldir = tmp_path / "latent"
    ldir.mkdir()
    cli._extract_stage(model_from_spec(LATENT_MODEL), cfg, str(ldir))
    raw = (ldir / "plan.json").read_bytes()
    assert hashlib.sha256(raw).hexdigest() == LATENT_SAMPLE_PLAN_SHA256
    rows = json.loads(raw)["achieved"]
    assert sum(e != 0.0 for _, _, _, e, _ in rows) == 81


def test_demo_probes_share_one_sampling_pass(tmp_path, monkeypatch):
    # --reps 50 puts the side probes' 100 replications past the main
    # probe's 50, so the pass must serve each probe its own rows
    calls = []
    sample_blocks = SequenceModel.sample_blocks

    def counted(self, *args, **kwargs):
        calls.append(args)
        return sample_blocks(self, *args, **kwargs)

    monkeypatch.setattr(SequenceModel, "sample_blocks", counted)
    out = tmp_path / "demo"
    main(["demo", "latent-shift", "--seed", "7", "--reps", "50",
          "--out", str(out)])
    # exact extraction samples nothing: the one call is the probe pass
    assert len(calls) == 1
    monkeypatch.undo()

    model = model_from_spec(cli._DEMOS["latent-shift"]["model"])
    indices = json.loads((out / "plan.json").read_text())["indices"]
    grid = [64, 256, 1024, 4096]
    D = cli.build_corrector("weak_l2", model, grid)
    separate = {
        "report.json": wlln_probe(model, indices, D, 0.5, grid, 50, 7),
        "gap_report.json": truncation_gap_probe(model, indices, grid, 100, 7,
                                                epsilon=0.5),
        "hereditary.json": hereditary_suite(model, indices, D, 0.5,
                                            [64, 256, 1024], 100, 7,
                                            pass_threshold=0.1),
        "report_zero_corrector.json": wlln_probe(
            model, indices, zero_corrector(grid), 0.5, grid, 50, 7),
    }
    for name, report in separate.items():
        write_json(str(tmp_path / name), report.to_json())
        assert (tmp_path / name).read_bytes() == (out / name).read_bytes(), name
