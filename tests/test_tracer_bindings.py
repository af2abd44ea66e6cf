"""Every library binding the benchmark tracer wraps must still exist.

``perfbench/tracing.py`` wraps functions by name at each caller's
binding, so a refactor that renames or stops importing one of them
breaks ``perfbench/run.py --trace 1`` without failing any other test.
"""

import importlib.util
from pathlib import Path

import codedim.betti as betti
import codedim.complexes as complexes

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_spans_and_counters_resolve():
    tracing = load_tracing()
    for owner, attr, name in tracing.SPANS + tracing.COUNTERS:
        # Tracer.installed saves vars(owner)[attr] before replacing it.
        assert attr in vars(owner), f"{owner.__name__}.{attr} ({name})"
        assert callable(getattr(owner, attr)), f"{owner.__name__}.{attr} ({name})"


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
