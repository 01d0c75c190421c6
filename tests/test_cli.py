"""Command-line behavior: exit codes, artifact layout, and manifest replay."""

import csv
import json
import os
import time

import pytest

from wllnlab.cli import main

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

IID_MODEL = {"kind": "iid",
             "params": {"dist": {"family": "finite",
                                 "atoms": [[1.0, 0.25], [5.0, 0.75]]}}}


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


def test_unknown_config_key(tmp_path):
    cfg = write_cfg(tmp_path, "c.json", {"model": TAIL_MODEL, "bogus": 1})
    assert main(["tails", "--config", cfg, "--out", str(tmp_path / "o")]) == 64


def test_empty_m_grid(tmp_path):
    cfg = write_cfg(tmp_path, "c.json", {"model": TAIL_MODEL, "m_grid": []})
    assert main(["tails", "--config", cfg, "--out", str(tmp_path / "o")]) == 64


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


@pytest.mark.parametrize("bad", [
    {"mode": "bogus"},
    {"mode": "sample", "sample_R": 50},
    {"target_length": 0},
    {"search_cap": 10**10},
], ids=["unknown-mode", "sample-R-below-100", "zero-target-length",
        "search-cap-above-index-cap"])
def test_extract_bad_config_is_usage_error(tmp_path, capsys, bad):
    cfg = write_cfg(tmp_path, "bad.json",
                    {"model": TAIL_MODEL, "target_length": 8,
                     "n_grid": [2, 4, 8], **bad})
    assert main(["extract", "--config", cfg, "--out", str(tmp_path / "o")]) == 64
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.count("\n") == 1 and err.startswith("error: ")


@pytest.mark.parametrize("command", ["verify", "hereditary"])
def test_missing_plan_path_is_usage_error(tmp_path, capsys, command):
    cfg = write_cfg(tmp_path, "c.json",
                    {"model": TAIL_MODEL, "n_grid": [16],
                     "plan_path": str(tmp_path / "no-such-plan.json")})
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 64
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.count("\n") == 1 and "no-such-plan.json" in err


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
