"""Reduced simplicial homology over GF(p) via boundary-matrix ranks.

The chain complex is always the augmented one: the empty face spans the
degree -1 chain group and every vertex maps onto it.  This makes
H~_{-1} of the one-point-free complex {0} one-dimensional, which is the
convention that keeps the degree-1 ideal generators of a complex with
missing vertices visible in the Betti table.

Every route ranks through `Chain`, the one place that picks a format by
field: packed columns reduced with clearing over GF(2), and at odd p
dense int8 matrices, sliced per subset and ranked one map at a time by
the sparse column reduction of `linalg.rank_array`.  A chain builds a
face set's boundary maps once; a vertex subset sigma then selects the
faces inside it, whose boundary faces all lie inside it too, so every
dropped entry of a kept column is zero and the ranks are those of the
induced subcomplex on sigma.  `Chain.homology` is the one place that
turns those ranks into homology dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Callable, Container, Iterable, Iterator, Sequence

import numpy as np

from .complexes import SimplicialComplex
from .errors import GuardError
from .linalg import PrimeField, rank_array, reduce_gf2

# Cap on the total cells of one Chain's boundary maps, 100 MB as dense
# int8 at odd p; the packed GF(2) columns are held to the same cap.  The full
# simplex on 11 vertices needs about 6.5e5 cells; the hollow simplex on
# 20 vertices would need 1.3e11.
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


def group_by_cardinality(face_bits: Iterable[int]) -> list[list[int]]:
    """Faces bucketed by cardinality, each bucket sorted by bit value."""
    bits = sorted(face_bits)
    if not bits:
        return []
    buckets: list[list[int]] = [[] for _ in range(max(map(int.bit_count, bits)) + 1)]
    for b in bits:
        buckets[b.bit_count()].append(b)
    return buckets


def ensure_boundary_cells(by_card: Sequence[Sequence[int]]) -> None:
    """Refuse, before anything is built, boundary maps above MAX_BOUNDARY_CELLS."""
    cells = sum(len(by_card[c - 1]) * len(by_card[c]) for c in range(1, len(by_card)))
    if cells > MAX_BOUNDARY_CELLS:
        raise GuardError(
            f"boundary matrices over {sum(map(len, by_card))} faces need "
            f"{cells} cells, above the cap of {MAX_BOUNDARY_CELLS}"
        )


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


def packed_boundary_columns(rows_bits: list[int], cols_bits: list[int]) -> list[int]:
    """The boundary map over GF(2), one int per column with a bit per row face."""
    row_bit = {b: 1 << i for i, b in enumerate(rows_bits)}
    columns = []
    for b in cols_bits:
        col = 0
        remaining = b
        while remaining:
            low = remaining & -remaining
            col |= row_bit[b ^ low]
            remaining ^= low
        columns.append(col)
    return columns


def packed_chain(face_bits: Iterable[int]) -> tuple[list[list[int]], list[list[int]]]:
    """Faces by cardinality plus every boundary map packed over GF(2).

    ``columns[c][j]`` is the boundary of face ``by_card[c][j]``, with bit
    i set for row face ``by_card[c - 1][i]``; index 0 is an empty
    placeholder.  Raises GuardError before packing anything when the maps
    would exceed MAX_BOUNDARY_CELLS.
    """
    by_card = group_by_cardinality(face_bits)
    ensure_boundary_cells(by_card)
    columns: list[list[int]] = [[]]
    for c in range(1, len(by_card)):
        columns.append(packed_boundary_columns(by_card[c - 1], by_card[c]))
    return by_card, columns


_BIT_FLAGS = bytes.maketrans(b"01", b"\0\1")


class FaceSelector:
    """Which faces of each cardinality lie inside a vertex subset.

    For each cardinality c and vertex v it holds an int whose bit j is
    set when face ``by_card[c][j]`` contains v.  The faces inside sigma
    are all of them minus those containing a vertex outside sigma, so a
    selection costs one OR per missing vertex and a decode of the kept
    bits, instead of a test of every face.  It returns the same indices
    in the same order as that test.
    """

    __slots__ = ("_vertices", "_all", "_masks")

    def __init__(self, by_card: Sequence[Sequence[int]], n: int):
        self._vertices = (1 << n) - 1
        self._all = [(1 << len(bucket)) - 1 for bucket in by_card]
        self._masks = []
        width = f"0{n}b"
        for bucket in by_card:
            # Transposing the faces' binary strings gives one string per
            # vertex, from vertex n-1 down, with face 0 in the last place.
            rows = [format(b, width) for b in reversed(bucket)] or ["0" * n]
            self._masks.append([int("".join(col), 2) for col in zip(*rows)][::-1])

    def inside(self, c: int, sigma: int) -> list[int]:
        """Indices j, increasing, of the faces by_card[c][j] inside sigma."""
        masks = self._masks[c]
        hit = 0
        missing = self._vertices & ~sigma
        while missing:
            low = missing & -missing
            hit |= masks[low.bit_length() - 1]
            missing ^= low
        keep = self._all[c] ^ hit
        if not keep:
            return []
        # Bit j of the reversed binary string is face j; flag it 1 or 0.
        flags = bin(keep)[:1:-1].encode().translate(_BIT_FLAGS)
        return list(compress(range(len(flags)), flags))


def chain_data(face_bits: Iterable[int]) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Faces by cardinality plus all boundary matrices.

    ``boundaries[c]`` maps cardinality-c chains down to cardinality-(c-1)
    chains; index 0 is a placeholder empty map.  Raises GuardError before
    allocating anything when the matrices would exceed MAX_BOUNDARY_CELLS.
    """
    by_card = [np.array(b, dtype=np.int64) for b in group_by_cardinality(face_bits)]
    ensure_boundary_cells(by_card)
    boundaries: list[np.ndarray] = [np.zeros((0, 0), dtype=np.int8)]
    for c in range(1, len(by_card)):
        boundaries.append(boundary_matrix(by_card[c - 1], by_card[c]))
    return by_card, boundaries


class Chain:
    """A face set's boundary maps, built once, giving the homology inside any sigma.

    `homology` yields the degrees from the top down, each from the ranks
    of the two maps around it.  Over GF(2) the maps are packed columns
    (`packed_chain`), reduced from the top cardinality down, each map
    clearing the columns that the map above names as pivot rows.  At odd
    p they are dense int8 matrices (`chain_data`), sliced to the faces
    inside sigma and ranked without clearing by `rank_array`, which
    reduces the slice's nonzeros as sparse columns, or by ``rank`` when a
    caller passes its own binding of it.  The face masks of a
    `FaceSelector` are built at the first proper subset, so a whole-set
    profile builds none.  Raises GuardError before building anything
    when the maps would exceed MAX_BOUNDARY_CELLS.
    """

    __slots__ = ("field", "by_card", "_maps", "_rank", "_n", "_vertices", "_select")

    def __init__(
        self,
        face_bits: Iterable[int],
        n: int,
        field: PrimeField,
        rank: Callable[[np.ndarray, int], int] | None = None,
    ):
        self.field = field
        self._rank = rank_array if rank is None else rank
        if field.p == 2:
            self.by_card, self._maps = packed_chain(face_bits)
        else:
            by_card, self._maps = chain_data(face_bits)
            self.by_card = [bucket.tolist() for bucket in by_card]
        self._n = n
        self._vertices = (1 << n) - 1
        self._select: FaceSelector | None = None

    def _inside(self, c: int, sigma: int) -> list[int]:
        """Indices j, increasing, of the faces by_card[c][j] inside sigma."""
        if not ~sigma & self._vertices:
            return list(range(len(self.by_card[c])))
        if self._select is None:
            self._select = FaceSelector(self.by_card, self._n)
        return self._select.inside(c, sigma)

    def homology(self, sigma: int, floor: int = -2) -> Iterator[tuple[int, int]]:
        """(k, dim H~_k of the faces inside sigma) for each degree k > floor.

        H~_{c-1} = |faces of cardinality c| - rank d_c - rank d_{c+1}, with
        the empty face at c = 0.  Degrees run from the largest face sigma
        can hold down, so a caller that has seen enough can stop early.
        """
        top = min(len(self.by_card) - 1, sigma.bit_count())
        stop = floor + 1 if floor >= 0 else 0
        above = 0  # rank of d_{c+1}
        if self.field.p == 2:
            pivots: Container[int] = ()
            for c in range(top, stop, -1):
                inside = self._inside(c, sigma)
                pivots = reduce_gf2(self._maps[c], inside, pivots)
                yield c - 1, len(inside) - len(pivots) - above
                above = len(pivots)
        else:
            rows = self._inside(top, sigma) if top > stop else []
            for c in range(top, stop, -1):
                cols, rows = rows, self._inside(c - 1, sigma)
                rank = 0
                if cols:
                    rank = self._rank(self._maps[c][np.ix_(rows, cols)], self.field.p)
                yield c - 1, len(cols) - rank - above
                above = rank
        if floor < -1 and top >= 0:
            # The empty face lies inside every sigma.
            yield -1, len(self.by_card[0]) - above

    def profile(self, sigma: int | None = None) -> ReducedHomologyProfile:
        """Reduced homology of the faces inside sigma, of all of them by default."""
        if sigma is None:
            sigma = self._vertices
        dims = {k: dim for k, dim in self.homology(sigma) if dim}
        return ReducedHomologyProfile(dims, self.field)


def profile_of_face_bits(
    face_bits: Iterable[int], field: PrimeField
) -> ReducedHomologyProfile:
    """Reduced homology of the complex whose faces are exactly face_bits."""
    faces = list(face_bits)
    return Chain(faces, max(faces, default=0).bit_length(), field).profile()


def reduced_homology(
    d: SimplicialComplex, field: PrimeField = PrimeField(2)
) -> ReducedHomologyProfile:
    """Reduced homology dimensions of d in every degree from -1 up."""
    if d.facets and set.intersection(*map(set, d.facets)):
        return ReducedHomologyProfile({}, field)  # a cone, such as a full simplex
    return Chain(d._face_bits(), d.n, field).profile()
