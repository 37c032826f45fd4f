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


def _named(node, namespace):
    """The object a name or attribute chain of oracles.py refers to, or None."""
    if isinstance(node, ast.Name):
        return namespace.get(node.id)
    if isinstance(node, ast.Attribute):
        return getattr(_named(node.value, namespace), node.attr, None)
    return None


def test_composition_oracle_shares_no_metrics_code():
    # an oracle that scores with evaluate's own kernels cannot catch their faults:
    # composed_evaluation, and every oracles.py function it reaches, must name
    # neither scanseq.metrics nor anything defined there, however spelled
    import oracles
    from scanseq import metrics

    namespace = vars(oracles)
    tree = ast.parse(Path(oracles.__file__).read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    pending, reached, touched = ["composed_evaluation"], set(), set()
    while pending:
        name = pending.pop()
        if name in reached:
            continue
        reached.add(name)
        for node in ast.walk(functions[name]):
            target = _named(node, namespace)
            if target is metrics or getattr(target, "__module__", None) == metrics.__name__:
                touched.add(f"{name}: {ast.unparse(node)}")
            elif isinstance(node, ast.Name) and node.id in functions:
                pending.append(node.id)
    assert touched == set()
    assert {"composed_evaluation", "pairwise_greedy_tp"} <= reached  # the walk follows calls
