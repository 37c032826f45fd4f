import ast
from pathlib import Path

import pytest

SOURCES = sorted(p for p in (Path(__file__).parents[1] / "src" / "scanseq").glob("*.py")
                 if p.name != "__init__.py")


@pytest.mark.parametrize("path", SOURCES, ids=[p.stem for p in SOURCES])
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                            and node.module != "__future__"):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert {name: line for name, line in imported.items() if name not in used} == {}
