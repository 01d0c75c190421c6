"""Random command lines, config files and manifests: every run ends with a
documented exit code, never an exception, writes strict JSON files only,
and leaves the standard file descriptors open."""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import example, given, settings
from hypothesis import strategies as st

from wllnlab.cli import main
from wllnlab.verify import PATTERNS

EXIT_CODES = {0, 2, 3, 4, 64}

MODELS = [
    {"kind": "tail_vanishing", "params": {"g": {"family": "pareto1"}}},
    {"kind": "iid", "params": {"dist": {"family": "finite",
                                        "atoms": [[1.0, 0.25], [5.0, 0.75]]}}},
    {"kind": "latent_shift",
     "params": {"factor": {"family": "finite", "atoms": [[-1.0, 0.5], [1.0, 0.5]]},
                "noise": {"family": "finite", "atoms": [[-3.0, 0.5], [3.0, 0.5]]}}},
    {"kind": "example41", "params": {"rho": {"family": "constant", "value": 0.5}}},
    {"kind": "example41", "index_cap": 3,
     "params": {"rho": {"family": "explicit", "values": [0.5, 0.6, 0.7]}}},
]
BAD_MODELS = [
    {"kind": "nope"}, [], "x", 1,
    {**MODELS[0], "index_cap": 0},
    {"kind": "example41", "params": {"rho": {"family": "constant", "value": 0.5},
                                     "symmetric": "no"}},
    {"kind": "iid", "params": {"dist": {"family": "heavy_log", "rho": 0.5,
                                        "symmetric": "no"}}},
    {"kind": "example41", "params": {"rho": {"family": "constant",
                                             "value": 1.5}}},
]
# values of the wrong type for most keys
WRONG = st.sampled_from(["x", None, [], {}, [None], 1.5, True, -1, False,
                         [True]])
# keys that hold a number or a list of numbers, where a JSON boolean is a
# usage error although Python reads True as 1
NUMERIC = {"seed", "target_length", "search_cap", "min_index", "sample_R",
           "reps", "eps_floor", "epsilon", "pass_threshold", "m_grid",
           "n_range", "n_grid", "feller_grid", "indices"}

levels = st.integers(1, 64)
grid = st.lists(levels, min_size=1, max_size=4)
indices = st.lists(levels, min_size=1, max_size=64, unique=True).map(sorted)
# files the runs may name, relative to the run's directory: a plan file
# holds more keys, but verify and hereditary read only its indices
PLAN = json.dumps({"indices": list(range(1, 65))})
PLAN_PATHS = st.sampled_from(["plan.json", "array.json", "missing.json"])


def bad(*values):
    """Out-of-range ``values`` of a config key, or a value of the wrong type."""
    return st.one_of(st.sampled_from(values), WRONG) if values else WRONG


# per command, (small valid value, bad value) of each config key
PROBE = {
    "indices": (indices, bad([3, 2, 1], [0, 1], [10**30])),
    "plan_path": (PLAN_PATHS, bad(1, 0)),
    "epsilon": (st.floats(0.05, 1.0), bad(0.0, -1.0)),
    "n_grid": (grid, bad([0], [-4], [2**63])),
    "reps": (st.integers(1, 200), bad(0)),
    "corrector": (st.sampled_from(["zero", "weak_l2", "iid", "independent"]),
                  bad("bogus")),
    "pass_threshold": (st.floats(0.0, 1.0), bad(1.5, -0.1, "0.5", "nan")),
}
KEYS = {
    "tails": {
        "m_grid": (st.lists(st.floats(0.5, 64.0), min_size=1, max_size=4),
                   bad([0.0], [1e400], [1e160])),
        "n_range": (st.tuples(st.integers(1, 4), st.integers(0, 4)).map(
            lambda t: [t[0], t[0] + t[1]]), bad([2, 1], [1, 2, 3])),
        "feller_grid": (st.lists(levels, max_size=3), bad([0])),
        "expect": (st.dictionaries(
            st.sampled_from(["weak_l1", "limsup", "energy"]),
            st.sampled_from(["holds", "fails", "holds-on-grid"]), max_size=2),
            bad({"bogus": "holds"}, {"feller_tail_sum": "holds"})),
    },
    "extract": {
        "target_length": (st.integers(1, 8), bad(0)),
        "n_grid": (grid, bad([0], [], [1e19])),
        "corrector": PROBE["corrector"],
        "mode": (st.sampled_from(["exact", "sample"]), bad("bogus")),
        "eps_floor": (st.floats(0.0, 0.5), bad()),
        "search_cap": (st.integers(1, 200), bad(0, 10**10)),
        "min_index": (st.integers(1, 10), bad(10**30, 0, -5)),
        "sample_R": (st.integers(100, 200), bad(50)),
    },
    "verify": {**PROBE, "compute_l2": (st.booleans(), bad("false")),
               "gap_probe": (st.booleans(), bad("false"))},
    "hereditary": {**PROBE, "patterns": (
        st.lists(st.sampled_from(PATTERNS), min_size=1, max_size=4),
        bad(["every-5th"], []))},
}
for keys in KEYS.values():
    keys["model"] = (st.sampled_from(MODELS), st.sampled_from(BAD_MODELS))
    keys["seed"] = (st.integers(0, 2**64 - 1), bad(2**64, -5))
# a valid demo runs a 4,096-step extraction (the pinned demo tests run
# them), so a demo config always holds a bad value
KEYS["demo"] = {"name": (st.nothing(), st.sampled_from(["nope", [], 1])),
                "seed": (st.integers(0, 9), bad(-1)),
                "reps": (st.integers(1, 9), bad(0))}
NOT_OBJECTS = st.sampled_from([[], [1], "x", 3, None])
# the rarer branches, in about one draw in ten (hypothesis favours the
# first item of a sample, so that is the common one)
rarely = st.sampled_from([False] * 9 + [True])


@st.composite
def config(draw, command):
    """Small valid values of some keys (the model always), and sometimes a
    bad value of one key; in one draw in ten not a JSON object at all."""
    if draw(rarely):
        return draw(NOT_OBJECTS)
    keys = KEYS[command]
    required = {} if command == "demo" else {"model": keys["model"][0]}
    cfg = draw(st.fixed_dictionaries(required, optional={
        k: valid for k, (valid, _) in keys.items() if k not in required}))
    if command == "demo" or draw(st.booleans()):
        k = draw(st.sampled_from(sorted(keys)))
        cfg[k] = draw(keys[k][1])
    return cfg


def flags(command):
    """Flags after the config file, some with malformed values."""
    pool = {"--seed": ["3", "x", "-1"],
            "--grid": ["2,4", "x", "1,,y", "", "0"]}
    if command == "tails":
        pool["--expect"] = ["weak_l1=holds", "bogus", "energy="]
    if command == "extract":
        pool["--mode"] = ["exact", "bogus"]
    if command in ("verify", "hereditary"):
        pool["--reps"] = ["20", "0", "x"]
        pool["--epsilon"] = ["0.5", "-1", "x"]
    return st.lists(st.sampled_from(sorted(pool)).flatmap(
        lambda f: st.sampled_from(pool[f]).map(lambda v: [f, v])),
        max_size=1).map(lambda pairs: sum(pairs, []))


@st.composite
def runs(draw):
    """(argv without --out, text of run.json)."""
    # demo draws are all bad, so they come a third as often as the others
    command = draw(st.sampled_from(
        ["demo"] + 3 * sorted(KEYS.keys() - {"demo"})))
    cfg = draw(config(command))
    if command == "demo" or draw(rarely):
        # replayed from a manifest, which may itself be malformed
        manifest = draw(st.one_of(
            st.fixed_dictionaries({"command": st.just(command),
                                   "config": st.just(cfg)}),
            st.fixed_dictionaries({"command": st.sampled_from(
                ["nope", ["tails"], None, "rerun"])}),
            NOT_OBJECTS))
        return ["rerun", "--manifest", "run.json"], json.dumps(manifest)
    return [command, "--config", "run.json"] + draw(flags(command)), \
        json.dumps(cfg)


def boolean_number(argv, text) -> bool:
    """Whether the run's config holds a boolean for a numeric key that no
    flag replaces."""
    cfg = json.loads(text)
    if argv[0] == "rerun":
        cfg = cfg.get("config") if isinstance(cfg, dict) else None
    elif len(argv) > 3:
        return False
    return isinstance(cfg, dict) and any(
        isinstance(v, bool) or isinstance(v, list)
        and any(isinstance(x, bool) for x in v)
        for k, v in cfg.items() if k in NUMERIC)


def _reject_constant(name):
    raise ValueError(f"non-standard JSON token {name}")


def _strict_json_files(out: str) -> list:
    """The JSON files the run wrote, each parsed as strict JSON, which has
    no NaN or Infinity token; the names of those that fail."""
    bad = []
    for name in sorted(os.listdir(out)) if os.path.isdir(out) else []:
        if name.endswith(".json"):
            with open(os.path.join(out, name), encoding="utf-8") as fh:
                try:
                    json.load(fh, parse_constant=_reject_constant)
                except ValueError:
                    bad.append(name)
    return bad


def _fds_open() -> bool:
    try:
        for fd in (0, 1, 2):
            os.fstat(fd)
    except OSError:
        return False
    return True


@settings(max_examples=300, deadline=None, derandomize=True)
@given(runs())
@example((["rerun", "--manifest", "run.json"], "[]"))
@example((["verify", "--config", "run.json"], json.dumps(
    {"model": MODELS[0], "plan_path": 1, "n_grid": [4], "reps": 10})))
@example((["tails", "--config", "run.json", "--grid", "1,x"],
          json.dumps({"model": MODELS[0]})))
@example((["tails", "--config", "run.json", "--expect", "weak_l1"],
          json.dumps({"model": MODELS[0]})))
@example((["extract", "--config", "run.json"],
          json.dumps({"model": MODELS[0], "target_length": True})))
def test_cli_fuzz_exits_with_documented_codes(run):
    argv, text = run
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            for name, payload in (("run.json", text),
                                  ("plan.json", PLAN),
                                  ("array.json", "[]")):
                with open(name, "w", encoding="utf-8") as fh:
                    fh.write(payload)
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                rc = main(argv + ["--out", "out"])
            bad_json = _strict_json_files("out")
        finally:
            os.chdir(cwd)
    assert _fds_open(), argv
    assert rc in EXIT_CODES, (argv, text, rc)
    assert bad_json == [], (argv, text, bad_json)
    if boolean_number(argv, text):
        assert rc == 64, (argv, text, rc)
    if rc == 64:  # one error line, from argparse or from the run
        assert "error: " in err.getvalue().splitlines()[-1], err.getvalue()
