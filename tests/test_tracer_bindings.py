"""Every library name the benchmark imports or wraps must still exist.

``perfbench/tracing.py`` wraps functions by name at each caller's
binding, so a refactor that renames or stops importing one of them
breaks ``perfbench/run.py --trace 1`` without failing any other test.
Likewise ``perfbench/workload.py`` imports its set-up hooks from
``codedim.linalg`` when a workload starts.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import codedim.betti as betti
import codedim.complexes as complexes

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", PERFBENCH / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_spans_and_counters_resolve():
    tracing = load_tracing()
    for owner, attr, name in tracing.SPANS + tracing.COUNTERS:
        # Tracer.installed saves vars(owner)[attr] before replacing it.
        assert attr in vars(owner), f"{owner.__name__}.{attr} ({name})"
        assert callable(getattr(owner, attr)), f"{owner.__name__}.{attr} ({name})"


def test_perfbench_imports_from_codedim_resolve():
    # The scripts are parsed, not run.
    imports = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imports += [
                    (path.name, node.lineno, alias.name, None)
                    for alias in node.names
                    if alias.name.split(".")[0] == "codedim"
                ]
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                if node.module.split(".")[0] == "codedim":
                    imports += [
                        (path.name, node.lineno, node.module, alias.name)
                        for alias in node.names
                    ]
    assert any(name == "warm_up" for *_, name in imports)
    for script, line, module_name, name in imports:
        module = importlib.import_module(module_name)
        if name is not None:
            assert hasattr(module, name), f"{script}:{line}: {module_name}.{name}"


def test_directly_wrapped_bindings_resolve():
    assert callable(vars(betti)["subset_homology_profiles"])
    assert isinstance(vars(complexes.SimplicialComplex)["from_faces"], classmethod)


def test_odd_p_table_ranks_through_the_betti_binding(monkeypatch):
    # The tracer files calls at betti.rank_array under linalg.rank.table.
    from codedim.generators import cross_polytope
    from codedim.linalg import PrimeField

    shapes = []
    rank_array = betti.rank_array

    def counted(matrix, p):
        shapes.append(matrix.shape)
        return rank_array(matrix, p)

    monkeypatch.setattr(betti, "rank_array", counted)
    betti.hochster_table(cross_polytope(3), PrimeField(3))
    assert shapes
    # A map with no column is never handed over.
    assert all(cols for _, cols in shapes)
