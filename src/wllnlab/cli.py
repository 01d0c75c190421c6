"""Command-line front end.

Subcommands: tails, extract, verify, hereditary, demo, rerun.  Every run
writes ``manifest.json`` echoing the full resolved configuration (defaults
included) plus the master seed; ``rerun --manifest`` replays it and must
reproduce byte-identical CSV/JSON artifacts.

Exit codes: 0 success, 2 expected-condition mismatch, 3 extraction failure,
4 verification violation, 64 usage error (including a config value of the
wrong type, a probe input out of range, an oracle the model does not have,
and an index past the model's index_cap).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

from . import correctors as corr
from . import tails as tails_mod
from .extract import (
    ExtractConfigError,
    ExtractionFailure,
    greedy_extract,
    verify_plan,
)
from .distributions import UnsupportedOracleError
from .models import CapacityError, SequenceModel, model_from_spec
from .verify import PATTERNS, ProbeInputError, ProbePass

EXIT_OK = 0
EXIT_EXPECT = 2
EXIT_EXTRACT = 3
EXIT_VIOLATION = 4
EXIT_USAGE = 64

SCHEMA_VERSION = 1


class UsageError(Exception):
    pass


# -------------------------------------------------------------------------
# deterministic serialization
# -------------------------------------------------------------------------

def write_json(path: str, obj) -> None:
    # strict JSON: a NaN or an infinity is a ValueError, not a bare token
    text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text + "\n")


def write_csv(path: str, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\r\n")
        w.writerow(header)
        for row in rows:
            w.writerow([repr(v) if isinstance(v, float) else str(v)
                        for v in row])


# -------------------------------------------------------------------------
# configuration
# -------------------------------------------------------------------------

_DEFAULTS = {
    "tails": {
        "model": None, "seed": 0,
        "m_grid": [2, 4, 8, 16, 32, 64, 128, 256],
        "n_range": [1, 32],
        "feller_grid": [],
        "expect": {},
    },
    "extract": {
        "model": None, "seed": 0,
        "target_length": 64,
        "n_grid": [64, 256, 1024, 4096],
        "corrector": "zero",
        "mode": "exact",
        "eps_floor": None,
        "search_cap": None,
        "min_index": 1,
        "sample_R": 400,
    },
    "verify": {
        "model": None, "seed": 0,
        "indices": None,          # explicit list; default 1..max(n_grid)
        "plan_path": None,        # or take indices from a stored plan
        "epsilon": 0.25,
        "n_grid": [64, 256, 1024, 4096],
        "reps": 2000,
        "corrector": "zero",
        "pass_threshold": 0.05,
        "compute_l2": False,
        "gap_probe": False,
    },
    "hereditary": {
        "model": None, "seed": 0,
        "indices": None,
        "plan_path": None,
        "epsilon": 0.25,
        "n_grid": [64, 256, 1024],
        "reps": 500,
        "corrector": "zero",
        "pass_threshold": 0.05,
        "patterns": list(PATTERNS),
    },
    "demo": {
        "name": None, "seed": 0, "reps": 2000,
    },
}


# the conditions of tails, the Feller pair a feller_grid adds, verdict statuses
_TAIL_CONDITIONS = ("weak_l1", "liminf", "limsup", "energy")
_FELLER_CONDITIONS = ("feller_tail_sum", "feller_square_sum")
_STATUSES = ("holds", "holds-on-grid", "fails", "inconclusive")
# key -> (number or list item type or None, whether a list, condition, wording)
_KEYS = {
    "seed": (int, False, lambda s: 0 <= s < 2**64, "an integer in [0, 2^64)"),
    "reps": (int, False, lambda R: R >= 1, ">= 1"),
    "epsilon": (float, False, lambda e: e > 0, "> 0"),
    "pass_threshold": (float, False, lambda p: 0 <= p <= 1, "in [0, 1]"),
    **dict.fromkeys(("target_length", "search_cap", "min_index", "sample_R"),
                    (int, False, None, "")),
    "eps_floor": (float, False, None, ""), "indices": (int, True, None, ""),
    "m_grid": (float, True,
               lambda g: g and all(0 < M <= tails_mod.MAX_LEVEL for M in g),
               f"a non-empty list of levels in (0, {tails_mod.MAX_LEVEL:g}]"),
    "n_range": (int, True, lambda r: len(r) == 2 and 1 <= r[0] <= r[1],
                "[lo, hi] with 1 <= lo <= hi"),
    "n_grid": (int, True, lambda g: g and 1 <= min(g) <= max(g) < 2**63
               and len(set(g)) == len(g),
               "a non-empty list of distinct levels in [1, 2^63)"),
    "feller_grid": (int, True, lambda g: all(N >= 1 for N in g),
                    "a list of levels >= 1"),
    **dict.fromkeys(("compute_l2", "gap_probe"), (
        None, False, lambda b: isinstance(b, bool), "true or false")),
    "patterns": (None, False, lambda ps: isinstance(ps, list) and ps and all(
        p in PATTERNS for p in ps), "a non-empty list of thinning patterns "
        "out of " + ", ".join(PATTERNS)),
    "expect": (None, False, lambda e: isinstance(e, dict) and all(
        s in _STATUSES for s in e.values()), "an object of condition: "
        "status, each status one of " + ", ".join(_STATUSES)),
    "plan_path": (None, False, lambda p: p is None or isinstance(p, str),
                  "a string or null"),
}


def _json_number(v, kind) -> bool:
    """Whether ``v`` may stand for a number of type ``kind``: an int key
    takes JSON integers only, since int() would turn 1.5 or "1" into 1; a
    float key takes finite numbers only, since float() would read "0.5" or
    "nan", and a flag's float() reads "nan" and "1e999" (a file's reader
    refuses them), nor an integer past the largest float, which float()
    cannot convert; no key takes a JSON boolean, although Python reads True
    as 1."""
    if kind is int:
        return type(v) is int
    return type(v) in (int, float) and abs(v) <= sys.float_info.max


def resolve_config(command: str, file_cfg: dict, flags: dict) -> dict:
    """The command's defaults, updated from ``file_cfg`` (a config file or a
    manifest's config) and then from ``flags``, and checked."""
    cfg = dict(_DEFAULTS[command])
    incoming = {**file_cfg, **flags}
    incoming.pop("schema_version", None)
    for key, val in incoming.items():
        if key not in cfg:
            raise UsageError(f"unknown config key {key!r} for {command}")
        cfg[key] = val
    for key, (kind, many, ok, what) in _KEYS.items():
        val = cfg.get(key)
        # a key may be null only where its default is
        if key not in cfg or (val is None and _DEFAULTS[command][key] is None):
            continue
        if kind and (many != isinstance(val, list) or not all(
                _json_number(v, kind) for v in (val if many else [val]))):
            raise UsageError(f"config key {key!r} must hold "
                             f"{'int' if kind is int else 'finite number'} "
                             f"values, not {val!r}")
        if kind:
            cfg[key] = val = [kind(v) for v in val] if many else kind(val)
        if ok and not ok(val):
            raise UsageError(f"{key} must be {what}")
    if cfg.get("compute_l2") and cfg["reps"] < 2:  # for its standard error
        raise UsageError("compute_l2 needs reps >= 2")
    for cond in cfg.get("expect", ()):
        if cond in _FELLER_CONDITIONS and not cfg["feller_grid"]:
            raise UsageError(f"expect condition {cond!r} needs a feller_grid")
        if cond not in _TAIL_CONDITIONS + _FELLER_CONDITIONS:
            raise UsageError(f"expect names unknown condition {cond!r}")
    cfg["schema_version"] = SCHEMA_VERSION
    return cfg


def _finite_float(text: str) -> float:
    """A JSON number or constant token as a float, refusing NaN, the
    infinities and 1e999, which json would read as floats."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text} is not a finite number")
    return value


def read_json_object(path: str, what: str) -> dict:
    """The JSON object in the ``what`` file (config, manifest, plan), in
    strict JSON, as ``write_json`` writes it: every float in it finite."""
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh, parse_float=_finite_float,
                            parse_constant=_finite_float)
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read {what} {path}: {exc}")
    if not isinstance(obj, dict):
        raise UsageError(f"{what} must be a JSON object")
    return obj


def _require_model(cfg: dict) -> SequenceModel:
    if not cfg.get("model"):
        raise UsageError("a model spec is required (config key 'model')")
    try:
        return model_from_spec(cfg["model"])
    # OverflowError: an integer past the largest float where a law wants one
    except (ValueError, KeyError, TypeError, OverflowError) as exc:
        raise UsageError(f"malformed model spec: {exc}")


def build_corrector(name: str, model: SequenceModel, n_grid) -> corr.CorrectorSeries:
    if name == "zero":
        return corr.zero_corrector(n_grid)
    if name == "weak_l2":
        return corr.corrector_weak_l2(model, n_grid)
    if name == "independent":
        return corr.corrector_independent(model, n_grid)
    raise UsageError(f"unknown corrector {name!r}; choose from "
                     f"{['independent', 'weak_l2', 'zero']}")


def write_manifest(out: str, command: str, cfg: dict) -> None:
    # the output directory itself is deliberately NOT part of the manifest,
    # so a rerun into a fresh directory reproduces it byte for byte
    write_json(os.path.join(out, "manifest.json"),
               {"schema_version": SCHEMA_VERSION, "command": command,
                "master_seed": cfg["seed"], "config": cfg})


# -------------------------------------------------------------------------
# subcommands
# -------------------------------------------------------------------------

def _verdict_json(v: tails_mod.Verdict) -> dict:
    return {"status": v.status, "witness": v.witness,
            "data": _jsonable(v.data)}


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if hasattr(obj, "item"):  # numpy scalars
        return obj.item()
    return obj


def _tails_stage(model: SequenceModel, cfg: dict, out: str,
                 conditions) -> dict:
    """tails.csv and verdicts.json (``conditions`` and, given a feller_grid,
    the Feller pair); returns the verdict block."""
    n_range = range(cfg["n_range"][0], cfg["n_range"][1] + 1)
    if max([n_range[-1], *cfg["feller_grid"]]) > model.index_cap:
        # named by the first index past the cap the stage would read
        raise CapacityError(f"index {max(n_range[0], model.index_cap + 1)} "
                            f"outside 1..{model.index_cap}")
    profile = tails_mod.build_tail_profile(model, cfg["m_grid"], n_range)
    write_csv(os.path.join(out, "tails.csv"),
              ("n", "M", "tau", "sigma", "feller_residual"), profile.rows())
    checks = {
        "weak_l1": lambda: tails_mod.check_weak_l1(profile, model),
        "liminf": lambda: tails_mod.check_liminf_condition(profile, model),
        "limsup": lambda: tails_mod.check_limsup_condition(profile, model),
        "energy": lambda: tails_mod.check_energy_vanishing(
            model, cfg["m_grid"], n_range),
    }
    block = {name: _verdict_json(checks[name]()) for name in conditions}
    if cfg["feller_grid"]:
        block.update(zip(_FELLER_CONDITIONS, map(_verdict_json, tails_mod
                         .check_feller_necessary(model, cfg["feller_grid"]))))
    write_json(os.path.join(out, "verdicts.json"), block)
    return block


def cmd_tails(cfg: dict, out: str) -> int:
    block = _tails_stage(_require_model(cfg), cfg, out, _TAIL_CONDITIONS)
    # resolve_config has checked that every expected condition is in block
    for cond, wanted in sorted(cfg["expect"].items()):
        got = block[cond]["status"]
        ok = got == wanted or (wanted == "holds" and got == "holds-on-grid")
        if not ok:
            print(f"expectation failed: {cond} is {got!r}, expected {wanted!r}")
            return EXIT_EXPECT
    return EXIT_OK


def _extract_stage(model: SequenceModel, cfg: dict, out: str):
    """plan.json, corrector.json and plan_check.json; returns (plan, D,
    check).  An ``ExtractionFailure`` goes to ``main``."""
    D = build_corrector(cfg["corrector"], model, cfg["n_grid"])
    plan = greedy_extract(model, cfg["target_length"], cfg["n_grid"], D,
                          mode=cfg["mode"], eps_floor=cfg["eps_floor"],
                          search_cap=cfg["search_cap"], seed=cfg["seed"],
                          R=cfg["sample_R"], min_index=cfg["min_index"])
    with open(os.path.join(out, "plan.json"), "w", encoding="utf-8",
              newline="") as fh:
        plan.write_json(fh)
    write_json(os.path.join(out, "corrector.json"), D.to_json())
    check = verify_plan(plan, model, D)
    write_json(os.path.join(out, "plan_check.json"), _jsonable(check))
    return plan, D, check


def cmd_extract(cfg: dict, out: str) -> int:
    check = _extract_stage(_require_model(cfg), cfg, out)[2]
    return EXIT_OK if check["ok"] else EXIT_VIOLATION


def _probe_inputs(cfg: dict):
    """(paths, corrector) of a verify or hereditary config: ``paths`` is a
    ``ProbePass`` on the indices from ``plan_path`` or ``indices``, else
    on 1..max(n_grid)."""
    model = _require_model(cfg)
    indices = cfg["indices"]
    if cfg["plan_path"]:
        plan = read_json_object(cfg["plan_path"], "plan")
        indices = plan.get("indices")
        if not isinstance(indices, list) or not all(
                _json_number(k, int) for k in indices):
            raise UsageError(f"cannot read plan {cfg['plan_path']}: indices "
                             "must be a list of integers")
    elif indices is None:  # checked first: the grid sets the range's length
        if max(cfg["n_grid"]) > model.index_cap:
            raise CapacityError(f"indices outside 1..{model.index_cap}")
        indices = range(1, max(cfg["n_grid"]) + 1)
    return (ProbePass(model, indices, cfg["seed"]),
            build_corrector(cfg["corrector"], model, cfg["n_grid"]))


def _queue_verify(paths: ProbePass, D, cfg: dict, gap_reps: int) -> list:
    """Queues the verify probe and, if ``cfg["gap_probe"]``, the gap probe
    from ``gap_reps`` replications; returns the names of their reports."""
    paths.wlln(D, cfg["epsilon"], cfg["n_grid"], cfg["reps"],
               pass_threshold=cfg["pass_threshold"],
               compute_l2=cfg["compute_l2"])
    if not cfg["gap_probe"]:
        return ["report"]
    paths.gap(cfg["n_grid"], gap_reps, cfg["epsilon"])
    return ["report", "gap_report"]


def _queue_hereditary(paths: ProbePass, D, cfg: dict) -> list:
    paths.hereditary(D, cfg["epsilon"], cfg["n_grid"], cfg["reps"],
                     patterns=cfg["patterns"],
                     pass_threshold=cfg["pass_threshold"])
    return ["hereditary"]


def _run_probes(paths: ProbePass, names, out: str) -> dict:
    """Samples the paths once and writes ``<name>.json`` for each queued
    probe; returns the reports by name."""
    reports = dict(zip(names, paths.run()))
    for name, report in reports.items():
        write_json(os.path.join(out, name + ".json"), report.to_json())
    return reports


def cmd_verify(cfg: dict, out: str) -> int:
    paths, D = _probe_inputs(cfg)
    report = _run_probes(paths, _queue_verify(
        paths, D, cfg, max(cfg["reps"], 100)), out)["report"]
    l2 = report.l2_hat or {}
    rows = [(N, report.p_hat[N], *report.ci[N], l2.get(N, ""))
            for N in report.n_grid]
    write_csv(os.path.join(out, "report.csv"),
              ("N", "p_hat", "ci_lo", "ci_hi", "l2_hat"), rows)
    return EXIT_VIOLATION if report.verdict == "violation" else EXIT_OK


def cmd_hereditary(cfg: dict, out: str) -> int:
    paths, D = _probe_inputs(cfg)
    suite = _run_probes(paths, _queue_hereditary(paths, D, cfg),
                        out)["hereditary"]
    bad = any(r.verdict == "violation" for r in suite.reports.values())
    return EXIT_VIOLATION if bad else EXIT_OK


# -------------------------------------------------------------------------
# demos: end-to-end pipelines with built-in expected outcomes
# -------------------------------------------------------------------------

# one row per scenario: the model, the probes' epsilon, the first candidate
# index of the extraction (example41's truncated energies only decay deep
# along the sequence) and the tail statuses the demo expects
_DEMOS = {
    "counterexample": {
        "model": {"kind": "tail_vanishing",
                  "params": {"g": {"family": "pareto1", "scale": 1.0}},
                  "index_cap": 10**9},
        "epsilon": 0.25, "min_index": 1,
        "tails": {"weak_l1": "fails", "limsup": "holds", "energy": "holds"},
    },
    "example41": {
        "model": {"kind": "example41",
                  "params": {"rho": {"family": "one-minus-one-over-log"},
                             "symmetric": True},
                  "joint_law": "independent",
                  "index_cap": 10**15},
        "epsilon": 0.25, "min_index": 10**12,
        "tails": {"weak_l1": "holds-on-grid", "limsup": "holds",
                  "energy": "holds"},
    },
    "latent-shift": {
        "model": {"kind": "latent_shift",
                  "params": {"factor": {"family": "finite",
                                        "atoms": [[-1.0, 0.5], [1.0, 0.5]]},
                             "noise": {"family": "finite",
                                       "atoms": [[-3.0, 0.5], [3.0, 0.5]]}},
                  "index_cap": 10**9},
        "epsilon": 0.5, "min_index": 1,
        "tails": {"weak_l1": "holds-on-grid", "limsup": "holds",
                  "energy": "fails"},
    },
}


def cmd_demo(cfg: dict, out: str) -> int:
    name, names = cfg["name"], sorted(_DEMOS)
    if name not in names:  # a list search: a manifest's name may be a list
        raise UsageError(f"unknown demo {name!r}; choose from {names}")
    demo = _DEMOS[name]
    model = model_from_spec(demo["model"])
    seed, reps, epsilon = cfg["seed"], cfg["reps"], demo["epsilon"]
    side_reps = max(reps // 4, 100)

    def stage_cfg(command, **keys):
        # the subcommand's defaults but for ``keys``
        return resolve_config(command, {"seed": seed, **keys}, {})

    verdicts = _tails_stage(model, stage_cfg("tails"), out,
                            ("weak_l1", "limsup", "energy"))
    status = {cond: v["status"] for cond, v in verdicts.items()}
    plan, D, check = _extract_stage(model, stage_cfg(
        "extract", target_length=4096, corrector="weak_l2",
        min_index=demo["min_index"]), out)
    # every probe reads one set of paths: the gap and hereditary probes the
    # first side_reps replications of the main probe's
    paths = ProbePass(model, plan.indices, seed)
    vcfg = stage_cfg("verify", reps=reps, epsilon=epsilon, gap_probe=True)
    names = _queue_verify(paths, D, vcfg, side_reps)
    # thinned grids stop at 1024, where heavy-tailed exceedance is still a
    # few percent, so the consistency bar is coarser than the main probe's
    names += _queue_hereditary(paths, D, stage_cfg(
        "hereditary", reps=side_reps, epsilon=epsilon, pass_threshold=0.1))
    conditional = D.kind == "conditional"
    if conditional:  # the zero corrector must visibly break the law
        paths.wlln(corr.zero_corrector(vcfg["n_grid"]), epsilon,
                   vcfg["n_grid"], reps)
        names.append("report_zero_corrector")
    reports = _run_probes(paths, names, out)
    report, gap, suite = (reports[k] for k in ("report", "gap_report",
                                               "hereditary"))

    items = [
        ("model", model.kind),
        ("weak-L1 condition", status["weak_l1"]),
        ("limsup condition", status["limsup"]),
        ("energy condition", status["energy"]),
        ("corrector", D.provenance + (" (all zero)" if D.is_zero() else "")),
        ("plan indices", f"{plan.indices[0]}..{plan.indices[-1]} "
                         f"({len(plan.indices)} steps)"),
        ("plan recheck", "ok" if check["ok"] else "VIOLATED"),
        ("final p_hat", repr(report.p_hat[report.n_grid[-1]])),
        ("convergence verdict", report.verdict),
        ("gap estimate dominated", gap.dominated),
        ("hereditary all consistent", suite.all_consistent),
    ]

    expected_ok = (check["ok"] and gap.dominated and suite.all_consistent
                   and report.verdict == "consistent-with-wlln"
                   and status == demo["tails"])
    if conditional:
        wrong = reports["report_zero_corrector"]
        items.append(("zero-corrector verdict", wrong.verdict))
        expected_ok = expected_ok and wrong.verdict == "violation"
    else:  # a constant weak-L2 corrector is zero under the energy condition
        expected_ok = expected_ok and D.is_zero()

    items.append(("demo outcome", "pass" if expected_ok else "FAIL"))
    title = f"demo: {name}"
    lines = [title, "=" * len(title), *(f"  {k}: {v}" for k, v in items)]
    with open(os.path.join(out, "summary.txt"), "w", encoding="utf-8",
              newline="") as fh:
        fh.write("\n".join(lines) + "\n")
    print("\n".join(lines))
    return EXIT_OK if expected_ok else EXIT_VIOLATION


_COMMANDS = {
    "tails": cmd_tails,
    "extract": cmd_extract,
    "verify": cmd_verify,
    "hereditary": cmd_hereditary,
    "demo": cmd_demo,
}


# -------------------------------------------------------------------------
# argument parsing
# -------------------------------------------------------------------------

def _grid(text: str) -> list:
    try:
        return [int(v) for v in text.split(",") if v]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad grid {text!r}; expected comma-separated integers")


class _Expect(argparse.Action):
    """Adds one ``condition=status`` pair to the ``expect`` object."""

    def __call__(self, parser, namespace, item, option_string=None):
        cond, eq, status = item.partition("=")
        if not eq:
            raise argparse.ArgumentError(
                self, f"bad --expect {item!r}; use condition=status")
        setattr(namespace, self.dest,
                {**getattr(namespace, self.dest, {}), cond: status})


def build_parser() -> argparse.ArgumentParser:
    """Each flag's ``dest`` is the config key it sets, and a flag left out
    sets nothing; only --config, --manifest and --out name no config key."""
    p = argparse.ArgumentParser(prog="wllnlab")
    sub = p.add_subparsers(dest="command", required=True)
    out_help = "output directory (default: $WLLNLAB_OUT)"

    def command(name, help, grid_key=None, grid_help=None):
        # every subcommand but demo reads a config file and takes a grid
        sp = sub.add_parser(name, help=help,
                            argument_default=argparse.SUPPRESS)
        sp.add_argument("--seed", type=int, help="master seed")
        sp.add_argument("--out", help=out_help)
        if grid_key:
            sp.add_argument("--config", help="JSON config file")
            sp.add_argument("--grid", dest=grid_key, type=_grid,
                            metavar="GRID", help=grid_help)
        return sp

    sp = command("tails", "tail functionals and condition checks",
                 "m_grid", "comma-separated M grid")
    sp.add_argument("--expect", action=_Expect, metavar="COND=STATUS",
                    help="fail (exit 2) unless the condition verdict matches")

    sp = command("extract", "greedy near-orthogonal subsequence",
                 "n_grid", "comma-separated truncation levels")
    sp.add_argument("--mode", choices=("exact", "sample"))

    for name, help in (("verify", "Monte Carlo convergence probe"),
                       ("hereditary", "thinning-pattern suite")):
        sp = command(name, help, "n_grid", "comma-separated N grid")
        sp.add_argument("--reps", type=int, help="replications")
        sp.add_argument("--epsilon", type=float)

    sp = command("demo", "end-to-end pipeline for a named scenario")
    sp.add_argument("name", choices=sorted(_DEMOS))
    sp.add_argument("--reps", type=int)

    sp = sub.add_parser("rerun", help="replay a run from its manifest")
    sp.add_argument("--manifest", required=True)
    sp.add_argument("--out", help=out_help)
    return p


def main(argv=None) -> int:
    try:
        args = vars(build_parser().parse_args(argv))
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    command = args.pop("command")
    out = args.pop("out", None) or os.environ.get("WLLNLAB_OUT")
    source = "manifest" if command == "rerun" else "config"
    try:
        if not out:
            raise UsageError("no output directory (--out or WLLNLAB_OUT)")
        try:
            os.makedirs(out, exist_ok=True)
        except OSError as exc:
            raise UsageError(f"cannot create output directory {out}: {exc}")
        file_cfg = read_json_object(args.pop(source), source) \
            if source in args else {}
        if command == "rerun":  # the manifest names the run it replays
            command, file_cfg = file_cfg.get("command"), \
                file_cfg.get("config", {})
            if not isinstance(command, str) or command not in _COMMANDS:
                raise UsageError(f"manifest names unknown command {command!r}")
            if not isinstance(file_cfg, dict):
                raise UsageError("manifest config must be a JSON object")
        cfg = resolve_config(command, file_cfg, args)
        write_manifest(out, command, cfg)
        return _COMMANDS[command](cfg, out)
    except (UsageError, ProbeInputError, UnsupportedOracleError,
            CapacityError, ExtractConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ExtractionFailure as exc:
        # an exhausted window leaves no finite violation, and JSON has no inf
        best = exc.best_violation if math.isfinite(exc.best_violation) else None
        write_json(os.path.join(out, "extract_failure.json"), {
            "step": exc.step, "epsilon": exc.eps, "search_cap": exc.search_cap,
            "best_candidate": exc.best_candidate, "best_violation": best})
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EXTRACT


if __name__ == "__main__":
    sys.exit(main())
