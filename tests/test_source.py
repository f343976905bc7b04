"""Source-level rules: no invariant of the package may be an ``assert``,
which ``python -O`` strips."""

import ast
from pathlib import Path

SOURCE_DIR = Path(__file__).resolve().parent.parent / "src" / "orthogal"


def test_no_assert_statements():
    sources = sorted(SOURCE_DIR.glob("*.py"))
    assert any(p.name == "galclass.py" for p in sources), SOURCE_DIR
    found = [f"{p.name}:{node.lineno}" for p in sources
             for node in ast.walk(ast.parse(p.read_text(), filename=str(p)))
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the package: {found}"
