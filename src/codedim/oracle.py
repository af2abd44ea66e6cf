"""Randomized cross-checks tying the table route to the direct routes.

Every trial builds a seeded random complex and verifies, among other
things, that the bound ordering holds, that step-1 gradings are exactly
the minimal nonfaces, that the Euler characteristic identity holds on
every induced subcomplex, and that table-driven and direct dimension
values agree at several primes.  A deliberately corrupted table (via
`table_mutator`) must make the suite fail; that hook keeps the failure
path honest.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Callable

from .betti import BettiTable, hochster_table
from .complexes import SimplicialComplex, is_clique_complex, minimal_nonfaces
from .dimensions import (
    helly_dimension,
    helly_dimension_direct,
    hom_dimension_betti,
    leray_dimension,
    leray_dimension_direct,
)
from .errors import GuardError, InputError
from .generators import random_complex
from .homology import PrimeField, profile_of_face_bits

CHECK_NAMES = (
    "bound-ordering",
    "helly-direct",
    "step-one-generators",
    "euler",
    "clique-iff-helly",
    "leray-direct",
)

_DENSITIES = (0.15, 0.3, 0.5, 0.7, 0.85)
_PRIMES = (2, 3, 5)


@dataclass
class OracleSummary:
    trials: int
    passes: dict[str, int] = dataclass_field(default_factory=dict)
    failures: list[str] = dataclass_field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def _euler_mismatch(d: SimplicialComplex, field: PrimeField) -> int | None:
    """First subset where homology and face counts disagree, else None."""
    faces = sorted(d._face_bits())
    for sigma in range(1 << d.n):
        not_sigma = ~sigma
        inside = [b for b in faces if b & not_sigma == 0]
        profile = profile_of_face_bits(inside, field)
        homological = sum((1 - 2 * (k % 2)) * v for k, v in profile.dims.items())
        combinatorial = sum(1 - 2 * ((b.bit_count() - 1) % 2) for b in inside if b) - 1
        if homological != combinatorial:
            return sigma
    return None


def run_oracle_suite(
    trials: int,
    n: int = 6,
    seed: int = 0,
    table_mutator: Callable[[BettiTable], BettiTable] | None = None,
) -> OracleSummary:
    """Run every structural check on `trials` seeded random complexes."""
    if trials < 0:
        raise InputError(f"trial count must be nonnegative, got {trials}")
    if n > 8:
        raise GuardError(
            f"oracle checks enumerate all induced subcomplexes; n={n} > 8 refused"
        )
    summary = OracleSummary(trials=trials, passes={name: 0 for name in CHECK_NAMES})
    gf2 = PrimeField(2)

    for t in range(trials):
        d = random_complex(n, _DENSITIES[t % len(_DENSITIES)], seed + t)
        label = f"trial {t} (seed {seed + t})"
        table = hochster_table(d, gf2)
        if table_mutator is not None:
            table = table_mutator(table)

        leray, _ = leray_dimension(table)
        helly, _ = helly_dimension(table)
        hom_betti, _ = hom_dimension_betti(table)
        if leray >= helly and leray >= hom_betti:
            summary.passes["bound-ordering"] += 1
        else:
            summary.failures.append(
                f"{label}: ordering broken: {leray} vs {helly}, {hom_betti}"
            )

        helly_direct = helly_dimension_direct(d)
        agreed = helly == helly_direct
        for p in _PRIMES[1:]:
            other, _ = helly_dimension(hochster_table(d, PrimeField(p)))
            agreed = agreed and other == helly_direct
        if agreed:
            summary.passes["helly-direct"] += 1
        else:
            summary.failures.append(
                f"{label}: step-1 maximum disagrees with minimal nonfaces"
            )

        step_one = {
            sigma: beta for i, sigma, beta in table.items() if i == 1
        }
        nonfaces = minimal_nonfaces(d)
        if set(step_one) == set(nonfaces) and all(
            b == 1 for b in step_one.values()
        ):
            summary.passes["step-one-generators"] += 1
        else:
            summary.failures.append(
                f"{label}: step-1 gradings are not the minimal nonfaces"
            )

        bad_sigma = _euler_mismatch(d, gf2)
        if bad_sigma is None:
            summary.passes["euler"] += 1
        else:
            summary.failures.append(
                f"{label}: Euler identity fails on subset {bad_sigma:0{n}b}"
            )

        if is_clique_complex(d) == (helly <= 1):
            summary.passes["clique-iff-helly"] += 1
        else:
            summary.failures.append(
                f"{label}: clique-complex test disagrees with helly {helly}"
            )

        if leray == leray_dimension_direct(d, gf2):
            summary.passes["leray-direct"] += 1
        else:
            summary.failures.append(
                f"{label}: restriction maximum disagrees with table value {leray}"
            )

    return summary


def corrupt_step_one(table: BettiTable) -> BettiTable:
    """Deliberately damage a table; the oracle suite must then fail."""
    from .complexes import VertexSet

    entries = table.entries()
    for (i, sigma), beta in entries.items():
        if i == 1:
            entries[(i, sigma)] = beta + 1
            return BettiTable(table.n, table.field, entries)
    entries[(1, VertexSet(1, table.n))] = 1
    return BettiTable(table.n, table.field, entries)
