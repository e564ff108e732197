"""Rules about the package's source text."""

import ast
import pathlib
import re

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


ROOT = SRC.parents[1]
TESTS = ROOT / "tests"


def test_every_definition_has_a_user():
    """Each top-level function or class of the package is named outside its
    own definition: a public one by the package itself, the benchmark, a
    script, an acceptance criterion or the README, a private one by the
    package, the benchmark or a script.  A definition only unit tests call
    belongs in tests/oracles.py.  A re-export in the package's __init__.py
    is not a user; dunders are exempt."""
    program = {path: path.read_text() for pattern in
               ("src/**/*.py", "perfbench/**/*.py", "scripts/*.py")
               for path in ROOT.glob(pattern) if path != SRC / "__init__.py"}
    texts = dict(program)
    for name in ("tests/test_acceptance.py", "README.md"):
        texts[ROOT / name] = (ROOT / name).read_text()
    unused = []
    for path in sorted(p for p in SRC.rglob("*.py") if p in texts):
        lines = texts[path].splitlines()
        for node in ast.parse(texts[path], str(path)).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    or node.name.startswith("__"):
                continue
            start = min([node.lineno] + [d.lineno for d in node.decorator_list])
            own = "\n".join(lines[:start - 1] + lines[node.end_lineno:])
            word = re.compile(rf"\b{node.name}\b")
            users = program if node.name.startswith("_") else texts
            if not any(word.search(own if p == path else text)
                       for p, text in users.items()):
                unused.append(f"{path.name}:{node.name}")
    assert unused == []


def test_every_oracle_has_a_test():
    """Each top-level public function or class of tests/oracles.py is
    imported and used by a test module, so that no oracle outlives the test
    that used it."""
    used = set()
    for path in TESTS.glob("test_*.py"):
        tree = ast.parse(path.read_text(), str(path))
        imported = {alias.name for node in tree.body
                    if isinstance(node, ast.ImportFrom)
                    and node.module == "oracles" for alias in node.names}
        used |= imported & {node.id for node in ast.walk(tree)
                            if isinstance(node, ast.Name)}
    oracles = TESTS / "oracles.py"
    assert [node.name for node in ast.parse(oracles.read_text()).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_") and node.name not in used] == []
