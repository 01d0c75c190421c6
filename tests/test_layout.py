"""Source layout rules, checked on the syntax tree of the package, and what
importing the package does."""

import ast
import inspect
import json
import os
import pathlib
import subprocess
import sys
import types

import numpy as np

from wllnlab import cli, correctors, models, verify

SRC = pathlib.Path(models.__file__).parent


def _model_class_names() -> set:
    names, todo = set(), [models.SequenceModel]
    while todo:
        cls = todo.pop()
        names.add(cls.__name__)
        todo.extend(cls.__subclasses__())
    return names


def _nodes(path: pathlib.Path):
    return ast.walk(ast.parse(path.read_text(encoding="utf-8")))


def _model_isinstance_calls(path: pathlib.Path, names: set) -> list:
    hits = []
    for node in _nodes(path):
        if not (isinstance(node, ast.Call) and len(node.args) == 2
                and getattr(node.func, "id", None) == "isinstance"):
            continue
        kinds = node.args[1]
        for kind in kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]:
            # a bare class name or a module attribute such as models.IIDModel
            name = getattr(kind, "id", None) or getattr(kind, "attr", None)
            if name in names:
                hits.append(f"{path.name}:{node.lineno}: isinstance(..., {name})")
    return hits


def test_no_isinstance_against_model_classes():
    # model-specific mathematics lives on the model: the pipeline asks a
    # model through its methods and attributes, never by testing its class
    names = _model_class_names()
    hits = [hit for path in sorted(SRC.glob("*.py"))
            for hit in _model_isinstance_calls(path, names)]
    assert hits == []


PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def _exports() -> set:
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    return {alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def _referenced_names(path: pathlib.Path) -> set:
    # names, attributes, imports, and identifier strings: the benchmark
    # patches functions by their name as a string
    names = set()
    for node in _nodes(path):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def test_every_export_is_used_outside_the_tests():
    # public API that only the tests reach is deleted, not exported
    users = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    users += sorted(PERFBENCH.glob("*.py"))
    used = set().union(*(_referenced_names(p) for p in users))
    assert sorted(_exports() - used) == []


def _unused_imports(path: pathlib.Path) -> list:
    imported, used = {}, set()
    for node in _nodes(path):
        if isinstance(node, (ast.Import, ast.ImportFrom)) \
                and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                # ``import a.b`` binds ``a``
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return [f"{path.name}:{line}: {name}"
            for name, line in sorted(imported.items()) if name not in used]


def test_tests_import_only_what_they_use():
    # an unused import makes a test module look as if it exercised a name
    tests = pathlib.Path(__file__).resolve().parent
    hits = [hit for path in sorted(tests.glob("*.py"))
            for hit in _unused_imports(path)]
    assert hits == []


def test_import_starts_no_thread():
    # the draw-ahead thread starts with the first chunk drawn ahead, and no
    # executor module is imported for it, so importing costs no set-up
    code = ("import sys, threading, wllnlab.cli\n"
            "assert threading.active_count() == 1, threading.enumerate()\n"
            "executors = ('concurrent.futures.thread', "
            "'concurrent.futures.process', 'multiprocessing.pool')\n"
            "assert not set(executors) & set(sys.modules)\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))}
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


_DEV_PIPELINE = """
import numpy as np
from wllnlab.cli import _DEMOS
from wllnlab.correctors import corrector_weak_l2
from wllnlab.models import model_from_spec
from wllnlab.verify import wlln_probe

grid = (64, 256, 1024, 4096)
for demo in _DEMOS.values():
    model = model_from_spec(demo["model"])
    idx = np.arange(demo["min_index"], demo["min_index"] + grid[-1])
    wlln_probe(model, idx, corrector_weak_l2(model, grid), demo["epsilon"],
               grid, 100, 0)
latent = model_from_spec(_DEMOS["latent-shift"]["model"])
chunks = latent.sample_blocks(np.arange(1, grid[-1] + 1), 0, 100)
next(chunks)
chunks.close()
"""


def _python(*args) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=60)


def test_sampling_runs_clean_in_dev_mode():
    # -X dev adds the runtime's debug checks and warnings (resources left
    # open, threads, unawaited work), and -W error makes each one fail the
    # run: one probe per demo law, and a call closed after its first chunk
    run = _python("-X", "dev", "-W", "error", "-c", _DEV_PIPELINE)
    assert (run.returncode, run.stderr) == (0, "")


def test_call_left_open_at_exit_does_not_hold_it_up():
    # the generator is closed as the interpreter tears its globals down,
    # and its draw-ahead thread ends with it
    run = _python("-c", "import numpy as np\n"
                  "from wllnlab.cli import _DEMOS\n"
                  "from wllnlab.models import model_from_spec\n"
                  "model = model_from_spec(_DEMOS['latent-shift']['model'])\n"
                  "chunks = model.sample_blocks(np.arange(1, 4097), 0, 1000)\n"
                  "next(chunks)\n")
    assert (run.returncode, run.stderr) == (0, "")


# -------------------------------------------------------------------------
# every function of the package runs in the pipeline
# -------------------------------------------------------------------------

_SIGNS = {"family": "finite", "atoms": [[-1.0, 0.5], [1.0, 0.5]]}
_ONE_SIDED_HEAVY_LOG = {"kind": "iid", "params": {"dist": {
    "family": "heavy_log", "rho": 0.25, "symmetric": False}}}
# g is -5, 60 or 0: candidates below 60 break the level-64 constraint
_SPIKY_SINGLE_DRAW = {"kind": "tail_vanishing", "params": {"g": {
    "family": "finite", "atoms": [[-5.0, 0.04], [60.0, 0.0033],
                                  [0.0, 0.9567]]}}}


# zero masses between 1 - 1e-3 and 1 - 1e-9, one per index
_COMONOTONE = {"kind": "example41", "joint_law": "comonotone",
               "index_cap": 120, "params": {"rho": {
                   "family": "explicit", "values": (1.0 - 10.0 ** -(
                       3.0 + 6.0 * np.random.default_rng(3).random(120)))
                   .tolist()}}}


def _pipeline_runs(root: str) -> dict:
    """The exit code of each run into ``root``: the three demos, one small
    run of each subcommand (exact, sample and comonotone extraction, sample
    extraction on a single-draw law, a failing extraction, ``tails`` with a
    ``feller_grid`` and ``--expect``,
    ``verify`` with ``compute_l2``, the gap probe and a plan's indices,
    ``hereditary``), and one call of each probe the benchmark calls."""
    def run(name, argv, cfg):
        out = os.path.join(root, name)
        if cfg is not None:
            with open(out + ".json", "w", encoding="utf-8") as fh:
                json.dump(cfg, fh)
            argv += ["--config", out + ".json"]
        codes[name] = cli.main(argv + ["--out", out])

    def plan(name):
        return os.path.join(root, name, "plan.json")

    codes = {}
    for demo in sorted(cli._DEMOS):
        run(demo, ["demo", demo, "--reps", "100"], None)
    array = {"kind": "independent_array", "params": {"dists": [_SIGNS] * 80}}
    run("extract-array", ["extract", "--grid", "2,8,64"],
        {"model": array, "target_length": 8, "corrector": "weak_l2"})
    run("verify-plan", ["verify", "--grid", "2,8", "--reps", "100"],
        {"model": array, "corrector": "independent",
         "plan_path": plan("extract-array")})
    small = {"kind": "iid", "params": {"dist": {
        "family": "finite", "atoms": [[-0.05, 0.5], [0.05, 0.5]]}}}
    run("extract-sample", ["extract", "--mode", "sample", "--grid", "2,4"],
        {"model": small, "target_length": 4, "search_cap": 32,
         "corrector": "weak_l2"})
    # the sample bank writes a mostly-zero law's entries over zeros
    run("extract-sample-single-draw", ["extract", "--mode", "sample",
                                       "--grid", "2,4"],
        {"model": {"kind": "tail_vanishing", "params": {"g": {
            "family": "pareto1"}}},
         "target_length": 4, "search_cap": 32, "corrector": "weak_l2"})
    run("extract-comonotone", ["extract", "--grid", "64,256"],
        {"model": _COMONOTONE, "target_length": 8,
         "eps_floor": 1e-7, "corrector": "weak_l2"})
    run("hereditary-plan", ["hereditary", "--grid", "2,4", "--reps", "100"],
        {"model": _COMONOTONE, "corrector": "weak_l2",
         "plan_path": plan("extract-comonotone")})
    run("extract-fails", ["extract", "--grid", "2,50,64"],
        {"model": _SPIKY_SINGLE_DRAW, "target_length": 4, "search_cap": 50})
    run("tails-single-draw", ["tails", "--grid", "2,8"],
        {"model": _SPIKY_SINGLE_DRAW, "n_range": [1, 4]})
    pareto = {"kind": "iid", "params": {"dist": {"family": "pareto1"}}}
    run("tails-pareto", ["tails", "--grid", "2,4,8", "--expect",
                         "weak_l1=fails"],
        {"model": pareto, "n_range": [1, 4], "feller_grid": [16, 64]})
    run("tails-heavy-log", ["tails", "--grid", "2,4,8", "--expect",
                            "weak_l1=holds"],
        {"model": _ONE_SIDED_HEAVY_LOG, "n_range": [1, 4],
         "feller_grid": [16, 64]})
    run("verify-l2", ["verify", "--grid", "4,16", "--reps", "50"],
        {"model": _ONE_SIDED_HEAVY_LOG, "corrector": "weak_l2",
         "compute_l2": True, "gap_probe": True})
    # the benchmark's probe calls, on a constant zero mass
    model = models.model_from_spec({
        "kind": "example41", "joint_law": "comonotone",
        "params": {"rho": {"family": "constant", "value": 0.5}}})
    grid, indices = (16, 64), range(1, 257)
    D = correctors.corrector_weak_l2(model, grid)
    verify.wlln_probe(model, indices, D, 0.5, grid, 100, 1)
    verify.truncation_gap_probe(model, indices, grid, 100, 1)
    verify.hereditary_suite(model, indices, D, 0.5, grid, 100, 1)
    return codes


def _raise_only_methods(tree: ast.Module) -> set:
    """(first line, name) of the methods whose body, a docstring aside, is
    one ``raise``: the base-class defaults that subclasses replace."""
    found = set()
    for cls in ast.walk(tree):
        for fn in cls.body if isinstance(cls, ast.ClassDef) else ():
            if not isinstance(fn, ast.FunctionDef):
                continue
            body = fn.body[1:] if ast.get_docstring(fn) is not None \
                else fn.body
            if len(body) == 1 and isinstance(body[0], ast.Raise):
                lines = [fn.lineno] + [d.lineno for d in fn.decorator_list]
                found.add((min(lines), fn.name))
    return found


def _unreached(seen) -> list:
    """The functions and lambdas of the package whose code is not in
    ``seen``, but for the raise-only methods, as ``file:line name``."""
    ran = {}
    for code in seen:
        ran.setdefault(code.co_filename, set()).add(code)
    missing = []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        exempt = _raise_only_methods(ast.parse(text))
        todo = [compile(text, str(path), "exec")]
        while todo:
            for code in todo.pop().co_consts:
                if not isinstance(code, types.CodeType):
                    continue
                todo.append(code)
                # functions and lambdas, not class bodies or comprehensions
                if not code.co_flags & inspect.CO_OPTIMIZED \
                        or code.co_name.endswith("comp>") \
                        or code.co_name == "<genexpr>" \
                        or (code.co_firstlineno, code.co_name) in exempt:
                    continue
                if code not in ran.get(str(path), ()):
                    missing.append(f"{path.name}:{code.co_firstlineno} "
                                   f"{code.co_name}")
    return sorted(missing)


_TRACE = """\
import json, sys, threading
seen = set()
def hook(frame, event, arg):
    seen.add(frame.f_code)
sys.settrace(hook)
threading.settrace(hook)
import test_layout
codes = test_layout._pipeline_runs(sys.argv[1])
sys.settrace(None)
threading.settrace(None)
with open(sys.argv[2], "w") as fh:
    json.dump({"codes": codes, "unreached": test_layout._unreached(seen)}, fh)
"""


def test_every_function_runs_in_the_pipeline(tmp_path):
    # a call hook, set before the package is imported, on every thread:
    # code that no demo, subcommand or benchmark entry point runs is deleted
    runs = tmp_path / "runs"
    runs.mkdir()
    result = tmp_path / "result.json"
    tests = pathlib.Path(__file__).resolve().parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        str(SRC.parent), str(tests), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _TRACE, str(runs),
                           str(result)], env=env, capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(result.read_text())
    codes = got["codes"]
    # the failing extraction exits 3; at 100 replications the latent-shift
    # demo does not yet flag its zero corrector (exit 4)
    assert codes.pop("extract-fails") == 3 and codes.pop("latent-shift") == 4
    assert set(codes.values()) == {0}, codes
    assert got["unreached"] == []
