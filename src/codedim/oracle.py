"""Randomized cross-checks tying the table route to the direct routes.

Every trial builds a seeded random complex and verifies, among other
things, that the bound ordering holds, that step-1 gradings are exactly
the minimal nonfaces, that the GF(2), GF(3) and GF(5) tables satisfy the
Euler identity of Hochster's formula on every grading, and that
table-driven and direct values agree: the Helly bound at GF(2), GF(3)
and GF(5), the Leray bound at GF(2).  The Euler check reads every table
but, like any Euler characteristic, cannot catch a wrong rank.  A
deliberately corrupted table (via `table_mutator`) must make the suite
fail; that hook keeps the failure path honest.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Callable, Sequence

from .betti import BettiTable, hochster_table
from .complexes import SimplicialComplex, VertexSet, is_clique_complex, minimal_nonfaces
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
_GF2 = PrimeField(2)


@dataclass
class OracleSummary:
    trials: int
    passes: dict[str, int] = dataclass_field(default_factory=dict)
    failures: list[str] = dataclass_field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def _euler_mismatch(
    d: SimplicialComplex, tables: Sequence[BettiTable]
) -> tuple[PrimeField, int] | None:
    """First (field, sigma) where Hochster's Euler identity fails, else None.

    chi~(d|sigma) for every sigma comes from one subset-sum transform of the
    face signs; the GF(2) homology of d must also give chi~(d).
    """
    faces = d._face_bits()
    chi = [2 * (b.bit_count() & 1) - 1 if b in faces else 0 for b in range(1 << d.n)]
    for v in range(d.n):
        for sigma in range(1 << d.n):
            chi[sigma] += chi[sigma ^ 1 << v] * (sigma >> v & 1)
    whole = profile_of_face_bits(faces, _GF2).dims
    if sum((1 - 2 * (k & 1)) * dim for k, dim in whole.items()) != chi[-1]:
        return _GF2, len(chi) - 1
    for table in tables:
        defects = chi.copy()
        for i, sigma, beta in table.items():
            defects[sigma.bits] -= (2 * ((len(sigma) - i) & 1) - 1) * beta
        if any(defects):
            return table.field, next(s for s, x in enumerate(defects) if x)
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

    def record(check: str, passed: bool, failure: str) -> None:
        if passed:
            summary.passes[check] += 1
        else:
            summary.failures.append(f"{label}: {failure}")

    for t in range(trials):
        d = random_complex(n, _DENSITIES[t % len(_DENSITIES)], seed + t)
        label = f"trial {t} (seed {seed + t})"
        table = hochster_table(d, _GF2)
        if table_mutator is not None:
            table = table_mutator(table)
        tables = [table] + [hochster_table(d, PrimeField(p)) for p in _PRIMES[1:]]

        leray, _ = leray_dimension(table)
        helly, _ = helly_dimension(table)
        hom_betti, _ = hom_dimension_betti(table)
        record(
            "bound-ordering",
            leray >= helly and leray >= hom_betti,
            f"ordering broken: {leray} vs {helly}, {hom_betti}",
        )

        helly_direct = helly_dimension_direct(d)
        record(
            "helly-direct",
            all(helly_dimension(other)[0] == helly_direct for other in tables),
            "step-1 maximum disagrees with minimal nonfaces",
        )

        step_one = {
            sigma: beta for i, sigma, beta in table.items() if i == 1
        }
        record(
            "step-one-generators",
            set(step_one) == set(minimal_nonfaces(d))
            and all(b == 1 for b in step_one.values()),
            "step-1 gradings are not the minimal nonfaces",
        )

        bad = _euler_mismatch(d, tables)
        field, sigma = bad or (_GF2, 0)  # read only when bad is a mismatch
        record(
            "euler",
            bad is None,
            f"Euler identity fails on subset {sigma:0{n}b} over GF({field.p})",
        )

        record(
            "clique-iff-helly",
            is_clique_complex(d) == (helly <= 1),
            f"clique-complex test disagrees with helly {helly}",
        )

        record(
            "leray-direct",
            leray == leray_dimension_direct(d, _GF2),
            f"restriction maximum disagrees with table value {leray}",
        )

    return summary


def corrupt_step_one(table: BettiTable) -> BettiTable:
    """Deliberately damage a table; the oracle suite must then fail."""
    entries = table.entries()
    for (i, sigma), beta in entries.items():
        if i == 1:
            entries[(i, sigma)] = beta + 1
            return BettiTable(table.n, table.field, entries)
    entries[(1, VertexSet(1, table.n))] = 1
    return BettiTable(table.n, table.field, entries)
