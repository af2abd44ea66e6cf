"""The three lower bounds on the convex embedding dimension of a code.

Each bound has one shape: a reader of the Betti table returns the
largest r-value |sigma| - i over a filter of its entries (steps >= 1,
step 1, and the full grading respectively) with the first entry to
reach it, and a direct route recomputes the same number without the
table (restriction homology, minimal nonfaces, and the reduced homology
of the whole complex).  full_report runs both routes of all three and
refuses to return if any pair disagrees.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable

from .betti import BettiTable, RValue, ensure_sweepable, hochster_table
from .complexes import SimplicialComplex, VertexSet, minimal_nonfaces
from .errors import ConsistencyError
from .homology import Chain, PrimeField, reduced_homology

# Unused here: perfbench/tracing.py counts calls at this binding, and
# tests/test_tracer_bindings.py checks that it exists.
from .homology import profile_of_face_bits  # noqa: F401


@dataclass(frozen=True)
class DimensionReport:
    leray: int
    helly: int
    homological_betti: int
    homological_unreduced: int
    field: PrimeField
    witnesses: dict[str, RValue]
    oracle_agreement: dict[str, bool]

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.leray, self.helly, self.homological_betti)


def _best_entry(entries: Iterable[tuple[int, VertexSet]]) -> tuple[int, RValue | None]:
    """Largest |sigma| - i over the given entries, witnessed by the first to reach it."""
    best, witness = -1, None
    for i, sigma in entries:
        if len(sigma) - i > best:
            best = len(sigma) - i
            witness = RValue(i, sigma, best)
    return (best, witness) if witness else (0, None)


def leray_dimension(t: BettiTable) -> tuple[int, RValue | None]:
    """Largest |sigma| - i over positive entries at steps >= 1."""
    return _best_entry((i, sigma) for i, sigma, _ in t.items() if i >= 1)


def helly_dimension(t: BettiTable) -> tuple[int, RValue | None]:
    """Largest |sigma| - 1 over positive entries at step 1."""
    return _best_entry((i, sigma) for i, sigma, _ in t.items() if i == 1)


def hom_dimension_betti(t: BettiTable) -> tuple[int, RValue | None]:
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
    for sigma in range(1 << d.n):
        if sigma in faces:
            continue
        for k, dim in chain.homology(sigma, best):
            if dim:
                best = k
                break
    return best + 1 if best >= 0 else 0


def helly_dimension_direct(d: SimplicialComplex) -> int:
    """Largest induced-hole dimension: max |sigma| - 1 over minimal nonfaces."""
    return max((len(s) for s in minimal_nonfaces(d)), default=1) - 1


def hom_dimension_direct(d: SimplicialComplex, field: PrimeField = PrimeField(2)) -> int:
    """Top degree of the reduced homology of d plus one; 0 when it is trivial."""
    return max(reduced_homology(d, field).dims, default=-1) + 1


def full_report(
    d: SimplicialComplex, field: PrimeField = PrimeField(2)
) -> DimensionReport:
    """All dimension bounds with witnesses, each checked against its direct route."""
    table = hochster_table(d, field)
    bounds = {
        "leray": leray_dimension(table),
        "helly": helly_dimension(table),
        "homological_betti": hom_dimension_betti(table),
    }
    leray, helly, hom_betti = (value for value, _ in bounds.values())
    if leray < helly or leray < hom_betti:
        raise ConsistencyError(
            f"bound ordering violated: leray={leray}, helly={helly}, "
            f"homological={hom_betti}"
        )
    for what, value, direct in (
        ("restriction-homology maximum", leray, leray_dimension_direct(d, field)),
        ("minimal-nonface maximum", helly, helly_dimension_direct(d)),
        ("reduced-homology value", hom_betti, hom_dimension_direct(d, field)),
    ):
        if value != direct:
            raise ConsistencyError(
                f"{what} {direct} disagrees with the table value {value}"
            )
    return DimensionReport(
        leray=leray,
        helly=helly,
        homological_betti=hom_betti,
        # Ordinary and reduced homology differ only in degree 0.
        homological_unreduced=max(hom_betti, 1) if d.facets else 0,
        field=field,
        witnesses={name: w for name, (_, w) in bounds.items() if w is not None},
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
