"""The specs in ``hedgeval.oracles`` stay apart from production code.

A production module that called a spec would make the spec's tests
compare the code with itself. Only ``bench`` imports ``oracles`` when it
is loaded: its pairwise baseline is ``oracles.mask_nms_bruteforce``.
Imports inside a function, such as ``evaluate._verify``'s, run only when
that function is called and are allowed.
"""

import ast
from pathlib import Path

import hedgeval

PACKAGE = Path(hedgeval.__file__).parent


def _load_time_nodes(nodes):
    """The nodes run when a module is loaded: all but function bodies."""
    for node in nodes:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        yield node
        yield from _load_time_nodes(ast.iter_child_nodes(node))


def _imports_oracles(node) -> bool:
    if isinstance(node, ast.Import):
        return any(a.name == "hedgeval.oracles" for a in node.names)
    if isinstance(node, ast.ImportFrom):
        if node.module in ("oracles", "hedgeval.oracles"):
            return True
        return node.module in (None, "hedgeval") and any(a.name == "oracles" for a in node.names)
    return False


def test_only_bench_imports_oracles_at_load_time():
    importers = {
        path.stem
        for path in PACKAGE.glob("*.py")
        if path.stem != "oracles"
        and any(map(_imports_oracles, _load_time_nodes(ast.parse(path.read_text()).body)))
    }
    assert importers == {"bench"}

