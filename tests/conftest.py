"""Shared checks on what the tests write."""

import json

import pytest


def _no_bare_constant(token):
    raise ValueError(f"bare {token} token")


@pytest.fixture(autouse=True)
def strict_json_outputs(request):
    """Every JSON file a test's run writes below its ``tmp_path`` (in an
    output directory, not the config files at the top) is strict JSON: no
    NaN or Infinity token, which strict readers reject."""
    yield
    tmp = request.node.funcargs.get("tmp_path")
    for path in sorted(tmp.glob("*/**/*.json")) if tmp is not None else ():
        try:
            json.loads(path.read_text(), parse_constant=_no_bare_constant)
        except ValueError as exc:
            pytest.fail(f"{path.relative_to(tmp)}: {exc}")
