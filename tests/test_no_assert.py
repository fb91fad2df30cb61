"""The package states its invariants with exceptions, never with `assert`,
because `python -O` strips assert statements."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "varchenko"


def test_package_has_no_assert_statements():
    paths = sorted(SRC.glob("*.py"))
    assert paths, f"no sources found under {SRC}"
    hits = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        hits.extend(f"{path.name}:{node.lineno}"
                    for node in ast.walk(tree) if isinstance(node, ast.Assert))
    assert not hits, f"assert statements in the package: {hits}"
