"""Per-layer tracing by wrapping library functions where their callers bind them.

``betti`` and ``homology`` both import ``rank_array`` by name, so the
wrapper on ``codedim.betti.rank_array`` sees only the table route and
the one on ``codedim.homology.rank_array`` only the direct routes.  A
span records its duration and the part of it that child spans cover, so
self time is the difference.  Spans are aggregated in memory, by name.

Only traced runs install wrappers; ``Tracer.installed`` restores every
original binding on exit.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from types import ModuleType
from typing import Any, Callable, Iterator

import codedim.betti as betti
import codedim.complexes as complexes
import codedim.dimensions as dimensions
import codedim.homology as homology
import codedim.oracle as oracle

# (owner, attribute, span name): every binding a caller looks the function up by.
SPANS = [
    (betti, "rank_array", "linalg.rank.table"),
    (homology, "rank_array", "linalg.rank.direct"),
    (betti, "chain_data", "homology.chain_data"),
    (homology, "chain_data", "homology.chain_data"),
    (dimensions, "hochster_table", "betti.table"),
    (oracle, "hochster_table", "betti.table"),
    (dimensions, "leray_dimension_direct", "dimensions.leray_direct"),
    (oracle, "leray_dimension_direct", "dimensions.leray_direct"),
    (oracle, "_euler_mismatch", "oracle.euler"),
    (complexes, "minimal_nonfaces", "complexes.minimal_nonfaces"),
    (dimensions, "minimal_nonfaces", "complexes.minimal_nonfaces"),
    (oracle, "minimal_nonfaces", "complexes.minimal_nonfaces"),
    (oracle, "random_complex", "generators"),
]
# Bindings in the benchmark's own workload module.
CALLER_SPANS = {
    "hochster_table": "betti.table",
    "minimal_nonfaces": "complexes.minimal_nonfaces",
    "complete_bipartite_clique": "generators",
    "cone_of_cross_polytope": "generators",
    "cross_polytope": "generators",
    "full_simplex": "generators",
    "random_complex": "generators",
}
# (owner, attribute, counter): calls counted without a span.
COUNTERS = [
    (dimensions, "profile_of_face_bits", "dimensions.leray_direct.restrictions"),
    (oracle, "profile_of_face_bits", "oracle.euler.restrictions"),
]

# name -> unit of every per-layer metric, in report order.
UNITS = {
    "linalg.rank.table.calls": "count",
    "linalg.rank.table.s": "s",
    "linalg.rank.table.cells": "cells",
    "linalg.rank.table.max_cells": "cells",
    "linalg.rank.direct.calls": "count",
    "linalg.rank.direct.s": "s",
    "linalg.rank.direct.cells": "cells",
    "dimensions.leray_direct.s": "s",
    "dimensions.leray_direct.self_s": "s",
    "dimensions.leray_direct.restrictions": "count",
    "betti.table.s": "s",
    "betti.table.self_s": "s",
    "betti.subsets_visited": "count",
    "betti.subsets_nonzero": "count",
    "betti.useful_ratio": "ratio",
    "homology.chain_data.calls": "count",
    "homology.chain_data.s": "s",
    "homology.chain_data.bytes": "bytes",
    "oracle.euler.s": "s",
    "oracle.euler.restrictions": "count",
    "complexes.from_faces.calls": "count",
    "complexes.from_faces.s": "s",
    "complexes.minimal_nonfaces.calls": "count",
    "complexes.minimal_nonfaces.s": "s",
    "generators.s": "s",
}


class Tracer:
    """Aggregated spans and counters for one traced batch."""

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self.max_cells = 0
        self._open: list[list[float]] = []  # child time of each open span

    def _span(self, name: str, fn: Callable, after=None) -> Callable:
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            children = [0.0]
            self._open.append(children)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._open.pop()
                self.calls[name] += 1
                self.total_s[name] += elapsed
                self.self_s[name] += elapsed - children[0]
                if self._open:
                    self._open[-1][0] += elapsed
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _count(self, name: str, fn: Callable) -> Callable:
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _visits(self, fn: Callable) -> Callable:
        def wrapper(*args: Any, **kwargs: Any) -> Iterator:
            for sigma, dims in fn(*args, **kwargs):
                self.counts["betti.subsets_visited"] += 1
                if dims:
                    self.counts["betti.subsets_nonzero"] += 1
                yield sigma, dims

        return wrapper

    def _rank_cells(self, prefix: str):
        def after(args: tuple, _rank: int) -> None:
            cells = args[0].size
            self.counts[f"{prefix}.cells"] += cells
            if prefix == "linalg.rank.table":
                self.max_cells = max(self.max_cells, cells)

        return after

    def _chain_bytes(self, _args: tuple, result: tuple) -> None:
        by_card, boundaries = result
        self.counts["homology.chain_data.bytes"] += sum(
            a.nbytes for a in (*by_card, *boundaries)
        )

    def _wrappers(self, caller: ModuleType) -> list[tuple[Any, str, Any]]:
        after = {
            "linalg.rank.table": self._rank_cells("linalg.rank.table"),
            "linalg.rank.direct": self._rank_cells("linalg.rank.direct"),
            "homology.chain_data": self._chain_bytes,
        }
        spans = SPANS + [(caller, attr, name) for attr, name in CALLER_SPANS.items()]
        out = [
            (owner, attr, self._span(name, getattr(owner, attr), after.get(name)))
            for owner, attr, name in spans
        ]
        out += [
            (owner, attr, self._count(name, getattr(owner, attr)))
            for owner, attr, name in COUNTERS
        ]
        out.append(
            (betti, "subset_homology_profiles", self._visits(betti.subset_homology_profiles))
        )
        from_faces = vars(complexes.SimplicialComplex)["from_faces"].__func__
        out.append(
            (
                complexes.SimplicialComplex,
                "from_faces",
                classmethod(self._span("complexes.from_faces", from_faces)),
            )
        )
        return out

    @contextmanager
    def installed(self, caller: ModuleType) -> Iterator["Tracer"]:
        """Wrap every traced binding, and restore the originals on exit."""
        saved = []
        try:
            for owner, attr, wrapper in self._wrappers(caller):
                saved.append((owner, attr, vars(owner)[attr]))
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric named in UNITS."""
        out: dict[str, float] = {}
        for prefix in ("linalg.rank.table", "linalg.rank.direct"):
            out[f"{prefix}.calls"] = self.calls[prefix]
            out[f"{prefix}.s"] = self.total_s[prefix]
            out[f"{prefix}.cells"] = self.counts[f"{prefix}.cells"]
        out["linalg.rank.table.max_cells"] = self.max_cells
        for name in ("dimensions.leray_direct", "betti.table"):
            out[f"{name}.s"] = self.total_s[name]
            out[f"{name}.self_s"] = self.self_s[name]
        visited = self.counts["betti.subsets_visited"]
        nonzero = self.counts["betti.subsets_nonzero"]
        out["betti.subsets_visited"] = visited
        out["betti.subsets_nonzero"] = nonzero
        # Base: subsets the table route visited.
        out["betti.useful_ratio"] = nonzero / visited if visited else 0.0
        for name in ("homology.chain_data", "complexes.from_faces", "complexes.minimal_nonfaces"):
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.s"] = self.total_s[name]
        out["oracle.euler.s"] = self.total_s["oracle.euler"]
        out["generators.s"] = self.total_s["generators"]
        for name in (
            "dimensions.leray_direct.restrictions",
            "oracle.euler.restrictions",
            "homology.chain_data.bytes",
        ):
            out[name] = self.counts[name]
        return {name: out[name] for name in UNITS}
