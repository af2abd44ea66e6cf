"""The three lower bounds on the convex embedding dimension of a code.

Each bound has two routes: the normative one reads the Betti table
(strongest restriction-homology value, step-1 maximum, and full-grading
maximum respectively), and a direct topological route recomputes it
without the table.  full_report runs both and refuses to return if
they disagree.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable

from .betti import BettiTable, ensure_sweepable, hochster_table
from .complexes import SimplicialComplex, VertexSet, minimal_nonfaces
from .errors import ConsistencyError, InputError
from .homology import (
    Chain,
    PrimeField,
    restriction_subsets,
    top_nonzero_degree,
    unreduced_homology,
)

# Unused here: perfbench/tracing.py counts calls at this binding, and
# tests/test_tracer_bindings.py checks that it exists.
from .homology import profile_of_face_bits  # noqa: F401


@dataclass(frozen=True)
class Witness:
    """Table entry (step, grading) achieving a dimension bound."""

    i: int
    sigma: VertexSet


@dataclass(frozen=True)
class DimensionReport:
    leray: int
    helly: int
    homological_betti: int
    homological_unreduced: int
    field: PrimeField
    witnesses: dict[str, Witness]
    oracle_agreement: dict[str, bool]

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.leray, self.helly, self.homological_betti)


def _best_entry(entries: Iterable[tuple[int, VertexSet]]) -> tuple[int, Witness | None]:
    """Largest |sigma| - i over the given entries, witnessed by the first to reach it."""
    best = -1
    witness = None
    for i, sigma in entries:
        value = len(sigma) - i
        if value > best:
            best = value
            witness = Witness(i, sigma)
    return (best, witness) if best >= 0 else (0, None)


def leray_dimension(t: BettiTable) -> tuple[int, Witness | None]:
    """Largest |sigma| - i over positive entries at steps >= 1."""
    return _best_entry((i, sigma) for i, sigma, _ in t.items() if i >= 1)


def helly_dimension(t: BettiTable) -> tuple[int, Witness | None]:
    """Largest |sigma| - 1 over positive entries at step 1."""
    return _best_entry((i, sigma) for i, sigma, _ in t.items() if i == 1)


def hom_dimension_betti(t: BettiTable) -> tuple[int, Witness | None]:
    """Largest n - i over positive entries graded by the full vertex set."""
    full = VertexSet.full(t.n)
    return _best_entry(
        (i, sigma) for i, sigma, _ in t.items() if i >= 1 and sigma == full
    )


def leray_dimension_direct(
    d: SimplicialComplex, field: PrimeField = PrimeField(2)
) -> int:
    """Top degree carrying homology over all induced subcomplexes, plus one.

    Ranks every restriction that is not a face of d (a face restricts to
    a full simplex) and shares no pruning with the table route, so it
    cross-checks the table-driven value.  One Chain holds the whole
    complex's boundary maps, and each restriction reads its homology
    from the top degree down, stopping at its first nonzero degree or at
    the best degree found so far, since lower degrees cannot raise the
    maximum.
    """
    ensure_sweepable(d)
    if any(f.bits == (1 << d.n) - 1 for f in d.facets):
        return 0  # every subset lies inside this facet
    faces = d._face_bits()
    chain = Chain(faces, d.n, field)
    best = -1
    for sigma in restriction_subsets(d.n, faces):
        for k, dim in chain.homology(sigma, best):
            if dim:
                best = k
                break
    return best + 1 if best >= 0 else 0


def helly_dimension_direct(d: SimplicialComplex) -> int:
    """Largest induced-hole dimension: max |sigma| - 1 over minimal nonfaces."""
    return max((len(s) for s in minimal_nonfaces(d)), default=1) - 1


def hom_dimension_unreduced(
    d: SimplicialComplex, field: PrimeField = PrimeField(2)
) -> int:
    """Top degree of ordinary homology plus one; >= 1 on nonempty complexes."""
    if not d.facets:
        raise InputError("the irrelevant complex has no vertices")
    return top_nonzero_degree(unreduced_homology(d, field), -1) + 1


def full_report(
    d: SimplicialComplex, field: PrimeField = PrimeField(2)
) -> DimensionReport:
    """All dimension bounds with witnesses, cross-checked both ways."""
    table = hochster_table(d, field)
    leray, leray_wit = leray_dimension(table)
    helly, helly_wit = helly_dimension(table)
    hom_betti, hom_wit = hom_dimension_betti(table)

    leray_direct = leray_dimension_direct(d, field)
    helly_direct = helly_dimension_direct(d)
    hom_unreduced = hom_dimension_unreduced(d, field) if d.facets else 0

    if leray != leray_direct:
        raise ConsistencyError(
            f"restriction-homology maximum {leray_direct} disagrees with the "
            f"table value {leray}"
        )
    if helly != helly_direct:
        raise ConsistencyError(
            f"minimal-nonface maximum {helly_direct} disagrees with the "
            f"table value {helly}"
        )
    if leray < helly or leray < hom_betti:
        raise ConsistencyError(
            f"bound ordering violated: leray={leray}, helly={helly}, "
            f"homological={hom_betti}"
        )

    witnesses = {}
    if leray_wit is not None:
        witnesses["leray"] = leray_wit
    if helly_wit is not None:
        witnesses["helly"] = helly_wit
    if hom_wit is not None:
        witnesses["homological_betti"] = hom_wit
    return DimensionReport(
        leray=leray,
        helly=helly,
        homological_betti=hom_betti,
        homological_unreduced=hom_unreduced,
        field=field,
        witnesses=witnesses,
        oracle_agreement={"leray": True, "helly": True},
    )


def report_to_json(report: DimensionReport) -> str:
    """Canonical JSON for a report; stable across reserialization."""
    obj = {
        "field": report.field.p,
        "leray": report.leray,
        "helly": report.helly,
        "homological_betti": report.homological_betti,
        "homological_unreduced": report.homological_unreduced,
        "witnesses": {
            name: {"i": w.i, "sigma": w.sigma.binary()}
            for name, w in report.witnesses.items()
        },
        "oracle_agreement": dict(report.oracle_agreement),
    }
    return json.dumps(obj, indent=2, sort_keys=True)
