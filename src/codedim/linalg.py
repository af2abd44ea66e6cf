"""Exact rank computation over a prime field GF(p).

Every Betti number the package reports is a difference of boundary-map
ranks, computed by one of two kernels, one per kind of field:

* GF(2): `reduce_gf2`, an XOR basis over bit-packed columns (the
  word-packed elimination of M4RI, Albrecht-Bard, with Python ints as
  the words).  Each column is an int whose set bits are its nonzero rows.
  It returns the pivot rows, so a caller reducing a chain complex from
  the top down can clear the columns that those rows name;
  `rank_gf2` counts them.
* odd p: `rank_array`, the same column reduction over sparse columns,
  one dict {row: entry mod p} per column read from a dense integer
  array.  A boundary map has at most c nonzeros per column, so the
  elimination touches only those and the fill-in they produce; entries
  are Python ints kept below p, so nothing overflows.  It is correct at
  p = 2 as well, where only the tests call it.

`homology.Chain` picks between the two by field.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Container, Iterable, KeysView, Sequence

import numpy as np

from .errors import InputError


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class PrimeField:
    """The coefficient field GF(p)."""

    p: int = 2

    def __post_init__(self) -> None:
        # The cap first: trial division of a huge p would not finish.
        if self.p >= 1 << 16:
            raise InputError(f"characteristic {self.p} above the 2^16 cap")
        if not _is_prime(self.p):
            raise InputError(f"{self.p} is not prime")

    def __str__(self) -> str:
        return f"GF({self.p})"


def reduce_gf2(
    columns: Sequence[int],
    select: Iterable[int] | None = None,
    cleared: Container[int] = (),
) -> KeysView[int]:
    """Pivot rows of the GF(2) reduction of columns[j] for j in select.

    Each column is an int whose set bits are its rows.  It is reduced
    against a basis keyed by pivot row (its highest set bit) until it
    either vanishes or brings a new pivot row; select defaults to every
    column.  A column j in cleared is skipped unreduced.  This is the
    clearing of Chen and Kerber ("Persistent homology computation with a
    twist", 2011): if the next map up, reduced over the same faces, has a
    pivot in row j, its reduced column is a cycle e_j + (lower faces), so
    column j here is a sum of lower-indexed columns and adds no rank.
    """
    pivots: dict[int, int] = {}
    for j in range(len(columns)) if select is None else select:
        if j in cleared:
            continue
        col = columns[j]
        while col:
            lead = col.bit_length() - 1
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = col
                break
            col ^= pivot
    return pivots.keys()


def rank_gf2(columns: Sequence[int]) -> int:
    """Rank over GF(2) of columns given as ints whose set bits are their rows."""
    return len(reduce_gf2(columns))


def rank_array(a: np.ndarray, p: int) -> int:
    """Rank over GF(p) of a 2-D integer array of any width.  Does not mutate `a`.

    Each column becomes a dict {row: entry mod p} of its nonzeros and is
    reduced against a basis keyed by pivot row (its highest nonzero row),
    as in `reduce_gf2`, until it either vanishes or brings a new pivot
    row.  A pivot column is stored divided by its pivot entry, without
    that entry, so each elimination step is one multiply-subtract per
    entry.  The rank is the number of pivots.
    """
    if a.ndim != 2:
        raise InputError("rank expects a 2-D array")
    n_rows, n_cols = a.shape
    cols, rows = np.nonzero(a.T)
    values = np.remainder(a.T[cols, rows], p, dtype=np.int64)
    columns: list[dict[int, int]] = [{} for _ in range(n_cols)]
    for j, i, v in zip(cols.tolist(), rows.tolist(), values.tolist()):
        if v:
            columns[j][i] = v
    pivots: dict[int, list[tuple[int, int]]] = {}
    for col in columns:
        if len(pivots) == n_rows:
            break
        while col:
            lead = max(col)
            factor = col.pop(lead)
            pivot = pivots.get(lead)
            if pivot is None:
                scale = pow(factor, -1, p)
                pivots[lead] = [(i, v * scale % p) for i, v in col.items()]
                break
            for i, v in pivot:
                v = (col.get(i, 0) - factor * v) % p
                if v:
                    col[i] = v
                else:
                    del col[i]
    return len(pivots)


# The benchmark harness stamps each run with the kernel name and pays
# for `warm_up` inside its set-up time, so these three names stay.


def active_backend() -> str:
    return "numpy"


def available_backends() -> tuple[str, ...]:
    return ("numpy",)


def warm_up() -> None:
    """Run one probe rank per kernel so that first-call set-up is paid before timing."""
    rank_gf2([0b01, 0b10])
    rank_array(np.eye(2, dtype=np.int64), 3)
