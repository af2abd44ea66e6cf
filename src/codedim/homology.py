"""Reduced simplicial homology over GF(p) via boundary-matrix ranks.

The chain complex is always the augmented one: the empty face spans the
degree -1 chain group and every vertex maps onto it.  This makes
H~_{-1} of the one-point-free complex {0} one-dimensional, which is the
convention that keeps the degree-1 ideal generators of a complex with
missing vertices visible in the Betti table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .complexes import SimplicialComplex
from .errors import GuardError
from .linalg import PrimeField, rank_array

# Cap on the total cells of one complex's dense boundary matrices, 100 MB
# as int8.  The full simplex on 11 vertices needs about 6.5e5 cells; the
# hollow simplex on 20 vertices would need 1.3e11.
MAX_BOUNDARY_CELLS = 10**8


@dataclass(frozen=True)
class ReducedHomologyProfile:
    """Nonzero reduced homology dimensions by degree; absent means zero."""

    dims: dict[int, int]
    field: PrimeField

    def degree(self, k: int) -> int:
        return self.dims.get(k, 0)

    @property
    def is_trivial(self) -> bool:
        return not self.dims


def group_by_cardinality(face_bits: Iterable[int]) -> list[np.ndarray]:
    """Faces bucketed by cardinality, each bucket sorted by bit value."""
    bits = sorted(face_bits)
    if not bits:
        return []
    buckets: list[list[int]] = [[] for _ in range(max(b.bit_count() for b in bits) + 1)]
    for b in bits:
        buckets[b.bit_count()].append(b)
    return [np.array(sorted(b), dtype=np.int64) for b in buckets]


def boundary_matrix(rows_bits: np.ndarray, cols_bits: np.ndarray) -> np.ndarray:
    """Signed boundary map from the faces in cols to the faces in rows.

    Column faces lose one vertex at a time; the sign of the j-th removed
    vertex (in increasing label order) is (-1)^j.  Signs vanish mod 2
    but keep the matrices honest at every other prime.  Entries are 0
    and +-1, so int8 holds them at an eighth of the memory of int64.
    """
    mat = np.zeros((len(rows_bits), len(cols_bits)), dtype=np.int8)
    row_index = {int(b): i for i, b in enumerate(rows_bits)}
    for j in range(len(cols_bits)):
        b = int(cols_bits[j])
        remaining = b
        position = 0
        while remaining:
            low = remaining & -remaining
            mat[row_index[b ^ low], j] = 1 - 2 * (position & 1)
            position += 1
            remaining ^= low
    return mat


def chain_data(face_bits: Iterable[int]) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Faces by cardinality plus all boundary matrices.

    ``boundaries[c]`` maps cardinality-c chains down to cardinality-(c-1)
    chains; index 0 is a placeholder empty map.  Raises GuardError before
    allocating anything when the matrices would exceed MAX_BOUNDARY_CELLS.
    """
    by_card = group_by_cardinality(face_bits)
    cells = sum(len(by_card[c - 1]) * len(by_card[c]) for c in range(1, len(by_card)))
    if cells > MAX_BOUNDARY_CELLS:
        raise GuardError(
            f"boundary matrices over {sum(map(len, by_card))} faces need "
            f"{cells} cells, above the cap of {MAX_BOUNDARY_CELLS}"
        )
    boundaries: list[np.ndarray] = [np.zeros((0, 0), dtype=np.int8)]
    for c in range(1, len(by_card)):
        boundaries.append(boundary_matrix(by_card[c - 1], by_card[c]))
    return by_card, boundaries


def profile_from_counts_and_ranks(
    counts: Sequence[int], ranks: Sequence[int], field: PrimeField
) -> ReducedHomologyProfile:
    """H~_{c-1} = dim C_c - rank d_c - rank d_{c+1} for each cardinality c."""
    dims: dict[int, int] = {}
    top = len(counts) - 1
    for c in range(top + 1):
        above = ranks[c + 1] if c + 1 <= top else 0
        value = counts[c] - ranks[c] - above
        if value:
            dims[c - 1] = value
    return ReducedHomologyProfile(dims, field)


def profile_of_face_bits(
    face_bits: Iterable[int], field: PrimeField
) -> ReducedHomologyProfile:
    """Reduced homology of the complex whose faces are exactly face_bits."""
    by_card, boundaries = chain_data(face_bits)
    if not by_card:
        return ReducedHomologyProfile({}, field)
    counts = [len(arr) for arr in by_card]
    ranks = [0] + [rank_array(boundaries[c], field.p) for c in range(1, len(by_card))]
    return profile_from_counts_and_ranks(counts, ranks, field)


def reduced_homology(
    d: SimplicialComplex, field: PrimeField = PrimeField(2)
) -> ReducedHomologyProfile:
    """Reduced homology dimensions of d in every degree from -1 up."""
    return profile_of_face_bits(d._face_bits(), field)


def unreduced_homology(
    d: SimplicialComplex, field: PrimeField = PrimeField(2)
) -> ReducedHomologyProfile:
    """Ordinary homology: degree 0 gains the component count's extra one."""
    reduced = reduced_homology(d, field)
    dims = {k: v for k, v in reduced.dims.items() if k >= 1}
    if d.facets:
        dims[0] = reduced.degree(0) + 1
    return ReducedHomologyProfile(dims, field)


def top_nonzero_degree(profile: ReducedHomologyProfile, floor: int) -> int:
    """Largest degree with nonzero homology, or floor if there is none."""
    return max((k for k, v in profile.dims.items() if v > 0), default=floor)
