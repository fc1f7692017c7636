"""Static checks over the library's own modules: the friendliness constants
are read only where the rule lives, every flow reaches scipy's engine
through ``maxflow.max_flow`` (the one binding that tracing and the
flow-count tests wrap), and no module imports a name it never uses."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "friendlycuts"
MODULES = sorted(SRC.glob("*.py"))
CONSTANTS = {"CROSS_NUM", "CROSS_DEN"}


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def test_modules_found():
    assert {"graph", "oracle", "gomory_hu", "ss_unfriendly"} <= {p.stem for p in MODULES}


def test_only_graph_and_oracle_read_the_friendliness_constants():
    readers = set()
    for path in MODULES:
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name.rsplit(".", 1)[-1]
            else:
                continue
            if name in CONSTANTS:
                readers.add(path.stem)
    assert "graph" in readers  # the scan sees the definitions
    assert readers <= {"graph", "oracle"}


def test_only_max_flow_calls_the_flow_engine():
    importers = set()
    for path in MODULES:
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.alias) and node.name.rsplit(".", 1)[-1] == "maximum_flow":
                importers.add(path.stem)
            elif isinstance(node, ast.Attribute) and node.attr == "maximum_flow":
                importers.add(path.stem)
    assert importers == {"maxflow"}
    tree = parse(SRC / "maxflow.py")
    engine = "_scipy_maximum_flow"
    assert engine in imported_names(tree)

    def reads(node):
        return sum(isinstance(n, ast.Name) and n.id == engine for n in ast.walk(node))

    readers = {node.name: reads(node) for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
    assert {name for name, count in readers.items() if count} == {"max_flow"}
    # nor is it read, or re-bound, at module level
    assert reads(tree) == readers["max_flow"]


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Every name an import binds, with its line; ``import a.b`` binds a."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                out[alias.asname or alias.name.split(".", 1)[0]] = node.lineno
    return out


def used_names(tree: ast.Module) -> set[str]:
    """Names read anywhere in the module, plus the strings of ``__all__``."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= {elt.value for elt in node.value.elts}
    return used


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_module_imports_a_name_it_never_uses(path):
    tree = parse(path)
    unused = {name: line for name, line in imported_names(tree).items()
              if name not in used_names(tree)}
    assert not unused, f"{path.name} imports names it never uses: {unused}"
