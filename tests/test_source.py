"""Rules about the package's source text."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "cantorext"


def test_package_has_no_assert_statements():
    """Invariants raise (InvariantError and its kin) instead of asserting:
    ``python -O`` strips assert statements, and the checks must still run."""
    modules = sorted(SRC.rglob("*.py"))
    assert len(modules) >= 10
    found = [f"{path.name}:{node.lineno}" for path in modules
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
