"""Every Python file parses as the oldest Python that pyproject.toml admits.

`ast.parse` with `feature_version` set to the `requires-python` floor
rejects newer syntax, such as `except*` (3.11), offline and without an
interpreter of that version.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_every_file_parses_at_the_declared_floor():
    pyproject = (ROOT / "pyproject.toml").read_text()
    major, minor = re.search(r'requires-python = ">=(\d+)\.(\d+)"', pyproject).groups()
    paths = [p for d in ("src", "tests", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))]
    assert paths
    for path in paths:
        ast.parse(path.read_text(), filename=str(path),
                  feature_version=(int(major), int(minor)))
