"""Exact rank computation over a prime field GF(p).

The rank kernel is the hot loop of the whole package: the subset sweep
calls it once per boundary map per subset, tens of thousands of times
for a single table.  Two interchangeable implementations exist:

* a numba ``@njit`` kernel (default when numba imports cleanly), and
* a pure-numpy fallback with identical semantics.

Set ``CODEDIM_DISABLE_NUMBA=1`` before import to force the numpy path;
``set_backend()`` switches at runtime.  Elimination is fraction-free
(cross-multiplication instead of pivot inversion), so entries stay
below p^2 < 2^32 and int64 arithmetic never overflows.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import InputError

try:  # pragma: no cover - exercised only when numba is absent
    from numba import njit

    _HAVE_NUMBA = True
except ImportError:  # pragma: no cover
    njit = None
    _HAVE_NUMBA = False


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


class FieldMatrix:
    """Dense row-major matrix of residues mod p."""

    __slots__ = ("_data",)

    def __init__(self, rows: int, cols: int, entries=None):
        if rows < 0 or cols < 0:
            raise InputError("matrix dimensions must be non-negative")
        if entries is None:
            self._data = np.zeros((rows, cols), dtype=np.int64)
        else:
            data = np.asarray(entries, dtype=np.int64).reshape(rows, cols)
            self._data = np.ascontiguousarray(data)

    @classmethod
    def from_rows(cls, rows) -> "FieldMatrix":
        data = np.asarray(rows, dtype=np.int64)
        if data.ndim != 2:
            raise InputError("from_rows expects a 2-D layout")
        return cls(data.shape[0], data.shape[1], data)

    @property
    def rows(self) -> int:
        return self._data.shape[0]

    @property
    def cols(self) -> int:
        return self._data.shape[1]

    def array(self) -> np.ndarray:
        """Read-only view of the entries."""
        view = self._data.view()
        view.flags.writeable = False
        return view

    def __repr__(self) -> str:
        return f"FieldMatrix({self.rows}x{self.cols})"


def _rank_numpy(a: np.ndarray, p: int) -> int:
    """Gaussian elimination rank mod p, vectorised per pivot."""
    a = np.remainder(a, p, dtype=np.int64)
    n_rows, n_cols = a.shape
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


if _HAVE_NUMBA:

    @njit(cache=True)
    def _rank_numba(a, p):  # pragma: no cover - compiled
        n_rows, n_cols = a.shape
        r = 0
        for c in range(n_cols):
            if r == n_rows:
                break
            piv = -1
            for i in range(r, n_rows):
                if a[i, c] % p != 0:
                    piv = i
                    break
            if piv < 0:
                continue
            if piv != r:
                for j in range(n_cols):
                    tmp = a[r, j]
                    a[r, j] = a[piv, j]
                    a[piv, j] = tmp
            pv = a[r, c] % p
            for i in range(r + 1, n_rows):
                b = a[i, c] % p
                if b == 0:
                    continue
                for j in range(c, n_cols):
                    a[i, j] = (a[i, j] * pv - b * a[r, j]) % p
            r += 1
        return r

else:  # pragma: no cover
    _rank_numba = None


_BACKENDS = {"numpy": True, "numba": _HAVE_NUMBA}


def _default_backend() -> str:
    if os.environ.get("CODEDIM_DISABLE_NUMBA", "").strip() not in ("", "0"):
        return "numpy"
    return "numba" if _HAVE_NUMBA else "numpy"


_active_backend = _default_backend()


def active_backend() -> str:
    return _active_backend


def available_backends() -> tuple[str, ...]:
    return tuple(name for name, ok in _BACKENDS.items() if ok)


def set_backend(name: str) -> None:
    """Select the rank kernel: 'numba' or 'numpy'."""
    global _active_backend
    if name not in _BACKENDS:
        raise InputError(f"unknown backend {name!r}")
    if not _BACKENDS[name]:
        raise InputError(f"backend {name!r} is not available here")
    _active_backend = name


def rank_array(a: np.ndarray, p: int) -> int:
    """Rank over GF(p) of a 2-D integer array of any width.  Does not mutate `a`."""
    if a.ndim != 2:
        raise InputError("rank expects a 2-D array")
    n_rows, n_cols = a.shape
    if n_rows == 0 or n_cols == 0:
        return 0
    if _active_backend == "numba":
        work = np.ascontiguousarray(np.remainder(a, p, dtype=np.int64))
        return int(_rank_numba(work, p))
    return _rank_numpy(a, p)


def rank(m: FieldMatrix, field: PrimeField) -> int:
    """Rank of m over the given prime field."""
    return rank_array(m.array(), field.p)


def warm_up() -> None:
    """Trigger JIT compilation so later timings measure algebra, not numba."""
    probe = np.array([[1, 0], [0, 1]], dtype=np.int64)
    rank_array(probe, 2)
