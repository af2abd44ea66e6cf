"""Exact rank computation over a prime field GF(p).

Every Betti number the package reports is a difference of boundary-map
ranks, so `rank_array` is the one kernel behind all of them.  It is a
numpy Gaussian elimination that vectorises the row operations of each
pivot.  Elimination is fraction-free (cross-multiplication instead of
pivot inversion), so entries stay below p^2 < 2^32 and int64 arithmetic
never overflows.
"""

from __future__ import annotations

from dataclasses import dataclass

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
        if not _is_prime(self.p):
            raise InputError(f"{self.p} is not prime")
        if self.p >= 1 << 16:
            raise InputError(f"characteristic {self.p} above the 2^16 cap")

    def __str__(self) -> str:
        return f"GF({self.p})"


def rank_array(a: np.ndarray, p: int) -> int:
    """Rank over GF(p) of a 2-D integer array of any width.  Does not mutate `a`."""
    if a.ndim != 2:
        raise InputError("rank expects a 2-D array")
    n_rows, n_cols = a.shape
    if n_rows == 0 or n_cols == 0:
        return 0
    a = np.remainder(a, p, dtype=np.int64)
    r = 0
    for c in range(n_cols):
        if r == n_rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        pivot_row = a[r]
        pivot_val = pivot_row[c]
        below = a[r + 1 :, c]
        hit = below != 0
        if hit.any():
            block = a[r + 1 :][hit]
            a[r + 1 :][hit] = (
                block * pivot_val - np.outer(below[hit], pivot_row)
            ) % p
        r += 1
    return r


# The benchmark harness stamps each run with the kernel name and pays
# for `warm_up` inside its set-up time, so these three names stay.


def active_backend() -> str:
    return "numpy"


def available_backends() -> tuple[str, ...]:
    return ("numpy",)


def warm_up() -> None:
    """Run one probe rank so that first-call set-up is paid before timing."""
    rank_array(np.eye(2, dtype=np.int64), 2)
