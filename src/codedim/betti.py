"""Multigraded Betti tables of Stanley-Reisner rings, without resolutions.

The table is assembled degree by degree: for a subset s of the
vertices, the reduced homology of the induced subcomplex on s is read
off, and a nonzero dimension in degree k lands at step i = |s| - k - 1.
Only the lcm-lattice is visited, the unions of minimal nonfaces with
the empty set included (Gasharov-Peeva-Welker).  Any other s has a
vertex v lying in no minimal nonface inside s, so the induced
subcomplex on s is a cone with apex v and carries no reduced homology.
One `homology.Chain` holds the boundary maps over the faces under the
top of the lattice, and each subset ranks the faces it contains; the
chain picks the kernel for the field.
"""

from __future__ import annotations

import json
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterator

from .complexes import SimplicialComplex, VertexSet, minimal_nonfaces
from .errors import GuardError, InputError
from .homology import Chain
from .linalg import PrimeField, rank_array

# Unused here: perfbench/tracing.py wraps this binding by name, and
# tests/test_tracer_bindings.py checks that it exists.
from .homology import chain_data  # noqa: F401

# Fixed vertex limit for the subset sweeps (this table and the direct
# Leray route), below the ambient cap of complexes.AMBIENT_CAP.
SWEEP_GUARD = 20


@dataclass(frozen=True)
class RValue:
    """|sigma| - i attached to a positive table entry."""

    i: int
    sigma: VertexSet
    value: int


class BettiTable:
    """Map (step i, grading sigma) -> beta, positive entries only.

    The entries are held as two parallel `array('Q')`s, sorted packed
    keys ``i << 30 | |sigma| << 24 | sigma.bits`` (n <= AMBIENT_CAP = 24,
    so the bits and the size never overlap) and their betas, so a table
    a caller keeps costs 16 bytes an entry.
    """

    __slots__ = ("n", "field", "_keys", "_betas")

    def __init__(
        self,
        n: int,
        field: PrimeField,
        entries: dict[tuple[int, VertexSet], int],
    ):
        for (i, sigma), beta in entries.items():
            if not 0 < beta < 1 << 64:
                raise InputError(f"entry ({i}, {sigma.binary()}) has beta {beta}")
            if sigma.n != n:
                raise InputError("grading ambient differs from table ambient")
            if sigma:
                if not 1 <= i <= len(sigma):
                    raise InputError(
                        f"step {i} out of range for grading {sigma.binary()}"
                    )
            elif i != 0:
                raise InputError("the empty grading only appears at step 0")
        if entries.get((0, VertexSet.empty(n))) != 1:
            raise InputError("a table must carry the step-0 entry (0, {}) -> 1")
        self.n = n
        self.field = field
        packed = sorted(
            (_pack(i, sigma), beta) for (i, sigma), beta in entries.items()
        )
        self._keys = array("Q", [key for key, _ in packed])
        self._betas = array("Q", [beta for _, beta in packed])

    def beta(self, i: int, sigma: VertexSet) -> int:
        if sigma.n != self.n:
            return 0
        key = _pack(i, sigma)
        at = bisect_left(self._keys, key)
        if at < len(self._keys) and self._keys[at] == key:
            return self._betas[at]
        return 0

    def items(self) -> Iterator[tuple[int, VertexSet, int]]:
        """Entries sorted by (i, |sigma|, bit pattern)."""
        for key, beta in zip(self._keys, self._betas):
            yield key >> 30, VertexSet(key & _BITS_MASK, self.n), beta

    def entries(self) -> dict[tuple[int, VertexSet], int]:
        return {(i, sigma): beta for i, sigma, beta in self.items()}

    def max_step(self) -> int:
        return self._keys[-1] >> 30

    def __len__(self) -> int:
        return len(self._keys)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BettiTable):
            return NotImplemented
        return (
            self.n == other.n
            and self.field == other.field
            and self._keys == other._keys
            and self._betas == other._betas
        )

    def __repr__(self) -> str:
        return f"BettiTable(n={self.n}, {self.field}, {len(self)} entries)"


_BITS_MASK = (1 << 24) - 1


def _pack(i: int, sigma: VertexSet) -> int:
    """The table key of (i, sigma); keys sort by (i, |sigma|, sigma.bits)."""
    return i << 30 | len(sigma) << 24 | sigma.bits


def lcm_lattice(d: SimplicialComplex) -> set[int]:
    """Bit patterns of every union of minimal nonfaces, the empty one included."""
    lattice = {0}
    for g in minimal_nonfaces(d):
        lattice |= {x | g.bits for x in lattice}
    return lattice


def ensure_sweepable(d: SimplicialComplex) -> None:
    if d.n > SWEEP_GUARD:
        raise GuardError(
            f"a sweep over n={d.n} vertices touches up to {1 << d.n} subsets, "
            f"above the guard of n={SWEEP_GUARD} ({1 << SWEEP_GUARD} subsets)"
        )


def subset_homology_profiles(
    d: SimplicialComplex, field: PrimeField = PrimeField(2)
) -> Iterator[tuple[int, dict[int, int]]]:
    """Reduced homology of the induced subcomplex on each lattice element.

    Yields (sigma_bits, {degree: dimension}) with zero dimensions
    omitted, for every sigma in the lcm-lattice of d in increasing bit
    order.  The subsets skipped are cones and have no reduced homology.
    A table needs every degree, so nothing stops early.
    """
    ensure_sweepable(d)
    lattice = sorted(lcm_lattice(d))
    # The last element is the union of all minimal nonfaces; no visited
    # subset reaches a face outside it.
    outside = ~lattice[-1]
    # The chain ranks odd-p maps through this module's rank_array binding,
    # where perfbench/tracing.py files them under the table route.
    chain = Chain(
        (b for b in d._face_bits() if b & outside == 0), d.n, field, rank_array
    )
    for sigma in lattice:
        yield sigma, chain.profile(sigma).dims


def hochster_table(
    d: SimplicialComplex, field: PrimeField = PrimeField(2)
) -> BettiTable:
    """Betti table of the Stanley-Reisner ring of d over the given field."""
    entries: dict[tuple[int, VertexSet], int] = {}
    for sigma_bits, dims in subset_homology_profiles(d, field):
        if not dims:
            continue
        size = sigma_bits.bit_count()
        sigma = VertexSet(sigma_bits, d.n)
        for k in sorted(dims, reverse=True):
            entries[(size - k - 1, sigma)] = dims[k]
    return BettiTable(d.n, field, entries)


def r_values(t: BettiTable) -> frozenset[RValue]:
    """One |sigma| - i value per positive entry at step >= 1."""
    return frozenset(
        RValue(i, sigma, len(sigma) - i) for i, sigma, _ in t.items() if i >= 1
    )


def level_ranks(t: BettiTable) -> list[int]:
    """Total rank per resolution step; index 0 is the rank of F_0."""
    totals = [0] * (t.max_step() + 1)
    for i, _, beta in t.items():
        totals[i] += beta
    return totals


def table_to_json(t: BettiTable) -> str:
    """Canonical JSON: entry list sorted by (i, |sigma|, bits)."""
    obj = {
        "n": t.n,
        "field": t.field.p,
        "entries": [
            {"i": i, "sigma": sigma.binary(), "beta": beta}
            for i, sigma, beta in t.items()
        ],
    }
    return json.dumps(obj, indent=2, sort_keys=True)


def table_from_json(text: str) -> BettiTable:
    try:
        obj = json.loads(text)
        n = int(obj["n"])
        field = PrimeField(int(obj["field"]))
        entries = {
            (int(e["i"]), VertexSet.parse(e["sigma"], n)): int(e["beta"])
            for e in obj["entries"]
        }
    except InputError:
        raise
    except (
        AttributeError, KeyError, OverflowError, RecursionError, TypeError, ValueError
    ) as exc:
        raise InputError(f"not a serialized Betti table: {exc}") from None
    return BettiTable(n, field, entries)


def table_to_m2(t: BettiTable) -> str:
    """BettiTally-style text block, machine-normalized."""
    lines = ["BettiTally{"]
    for i, sigma, beta in t.items():
        pattern = ", ".join(sigma.binary())
        lines.append(f"  ({i}, {{{pattern}}}, {len(sigma)}) => {beta}")
    lines.append("}")
    return "\n".join(lines)
