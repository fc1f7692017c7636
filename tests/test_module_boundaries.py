"""Static checks over the library's own modules: the friendliness constants
are read only where the rule lives, every flow reaches scipy's engine
through ``maxflow.max_flow`` (the one binding that tracing and the
flow-count tests wrap), graphs are made only through ``Graph.build`` and,
for the flow graphs the library derives itself, ``Graph._trusted``, only
``graph`` range-checks node ids, artifact parsers read integer fields
only through ``graph.int_fields``, and no module imports a name it never
uses."""

import ast
import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from friendlycuts.graph import Graph

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


def test_only_graph_calls_the_graph_class():
    callers = {path.stem for path in MODULES for node in ast.walk(parse(path))
               if isinstance(node, ast.Call)
               and (getattr(node.func, "id", None) == "Graph"
                    or getattr(node.func, "attr", None) == "Graph")}
    assert callers == {"graph"}


def test_only_graph_builds_an_out_of_range_message():
    builders = {path.stem for path in MODULES for node in ast.walk(parse(path))
                if isinstance(node, ast.Constant) and isinstance(node.value, str)
                and "out of range" in node.value}
    # every other module reads caller node ids through graph.node_id(s)
    assert builders == {"graph"}


def int_callers() -> dict[str, bool]:
    """Every function of the library, by name, and whether it calls the
    builtin ``int``."""
    return {node.name: any(isinstance(n, ast.Call) and getattr(n.func, "id", None) == "int"
                           for n in ast.walk(node))
            for path in MODULES for node in ast.walk(parse(path))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}


def test_parsers_read_fields_only_through_int_fields():
    calls = int_callers()
    readers = {name for name in calls if name.startswith("parse_")}
    readers |= {"graph_from_lines", "edge_lines"}
    assert not {name for name in readers if calls.get(name)}
    assert readers <= calls.keys()
    assert {"parse_graph", "parse_node_subset", "parse_ghtree", "parse_sparsifier"} <= readers
    assert calls["int_fields"]  # the scan sees the one reader's call


def test_only_flow_graphs_skip_validation():
    users = {path.stem for path in MODULES for node in ast.walk(parse(path))
             if isinstance(node, ast.Attribute) and node.attr == "_trusted"}
    # graph's own use is Graph.build, after its checks; maxflow builds every union
    assert users == {"graph", "maxflow"}


@st.composite
def valid_arcs(draw):
    """Valid (u, v, w) rows on n nodes, with parallel arcs in both orientations."""
    n = draw(st.integers(2, 12))
    pairs = draw(st.lists(st.sampled_from(list(itertools.combinations(range(n), 2))),
                          max_size=40))
    rows = []
    for u, v in pairs:
        w = draw(st.integers(1, 2**40))
        rows.append((v, u, w) if draw(st.booleans()) else (u, v, w))
    return n, np.array(rows, dtype=np.int64).reshape(-1, 3)


@given(valid_arcs())
@settings(max_examples=200, deadline=None)
def test_trusted_graph_equals_built_graph(case):
    n, arcs = case
    built = Graph.build(n, arcs)
    trusted = Graph._trusted(n, arcs.copy())
    assert trusted == built
    assert trusted.edges.dtype == np.int64 and trusted.edges.shape == (built.edge_count, 3)
    assert not trusted.edges.flags.writeable and not trusted.extra_volume.flags.writeable
    merged = {}
    for u, v, w in arcs.tolist():
        key = (min(u, v), max(u, v))
        merged[key] = merged.get(key, 0) + w
    assert trusted.edge_list() == [(u, v, w) for (u, v), w in sorted(merged.items())]


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
