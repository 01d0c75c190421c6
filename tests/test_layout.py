"""Source layout rules, checked on the syntax tree of the package, and what
importing the package does."""

import ast
import os
import pathlib
import subprocess
import sys

from wllnlab import models

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

# exported names nothing in the package or the benchmark uses, each kept
# for a stated reason
UNUSED_EXPORTS_ALLOWED = {
    "thin_indices": "the reference the hereditary-suite equivalence test "
                    "compares against",
    "check_plan_subsequence": "kept for the exact Chebyshev certificate, "
                              "whose O(N) form must match cross_product_budget",
    "cross_product_budget": "kept for the exact Chebyshev certificate",
    "sum_of_squares_check": "kept for the exact Chebyshev certificate",
}


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
    allowed = set(UNUSED_EXPORTS_ALLOWED)
    assert sorted(_exports() - used - allowed) == []
    # an allowance ends when its name is used or no longer exported
    assert allowed <= _exports() - used


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
