"""An import kept only for the benchmark's tracer must still be wrapped by it.

``perfbench/tracing.py`` wraps some functions at a caller's binding, so a
module may import a name it never calls, marked ``# noqa: F401``.  Once
the tracer stops wrapping that binding the import is dead, and this test
says so.  It reads ``perfbench/`` and changes nothing there.
"""

import ast
from pathlib import Path

import codedim
from test_tracer_bindings import load_tracing

SRC = Path(codedim.__file__).resolve().parent


def unused_imports():
    """(module name, bound name) for every import marked ``noqa: F401``."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and (
                "noqa: F401" in lines[node.end_lineno - 1]
            ):
                found += [
                    (path.stem, alias.asname or alias.name.split(".")[0])
                    for alias in node.names
                ]
    return found


def test_every_unused_import_is_a_traced_binding():
    tracing = load_tracing()
    wrapped = {
        (owner.__name__.rsplit(".", 1)[-1], attr)
        for owner, attr, _ in tracing.SPANS + tracing.COUNTERS
    }
    found = unused_imports()
    assert found, "no noqa: F401 import found; is the marker still spelled so?"
    assert [binding for binding in found if binding not in wrapped] == []
