"""Source layout rules, checked on the syntax tree of the package."""

import ast
import pathlib

from wllnlab import models

SRC = pathlib.Path(models.__file__).parent


def _model_class_names() -> set:
    names, todo = set(), [models.SequenceModel]
    while todo:
        cls = todo.pop()
        names.add(cls.__name__)
        todo.extend(cls.__subclasses__())
    return names


def _model_isinstance_calls(path: pathlib.Path, names: set) -> list:
    hits = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
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
