"""Codes, simplicial complexes, restriction, minimal nonfaces, cliques.

Vertices are named 1..n.  A set of vertices is stored as an int bit
pattern where bit ``i`` set means vertex ``i + 1`` is present, so the
binary string ``"1100"`` (leftmost character = vertex 1) denotes {1, 2}.
Complexes store only their maximal faces; membership is a subset query
against the facets, never a full enumeration of 2^n.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import or_
from typing import Iterable, Iterator

from .errors import GuardError, InputError, VoidComplexError

# Fixed ambient vertex cap.  Face enumeration and the subset sweeps are
# exponential in n, so constructions above this limit are refused
# outright instead of hanging.  The subset sweeps have their own, lower
# guard (betti.SWEEP_GUARD); minimal nonfaces, the Helly bound and plain
# homology need no sweep and still run on 21..24 vertices.
AMBIENT_CAP = 24


def _check_ambient(n: int) -> None:
    if not 1 <= n <= AMBIENT_CAP:
        raise GuardError(
            f"ambient vertex count n={n} outside the allowed range 1..{AMBIENT_CAP}"
        )


def _excerpt(text: str, limit: int = 40) -> str:
    """Quote outside input for an error message, cut to a bounded prefix."""
    if len(text) <= limit:
        return repr(text)
    return f"{text[:limit]!r}... ({len(text)} chars)"


@dataclass(frozen=True, order=False)
class VertexSet:
    """A subset of {1..n} as a fixed-width bit pattern."""

    bits: int
    n: int

    def __post_init__(self) -> None:
        _check_ambient(self.n)
        if self.bits < 0 or self.bits >> self.n:
            raise InputError(
                f"bit pattern {self.bits:#x} has vertices outside 1..{self.n}"
            )

    @classmethod
    def empty(cls, n: int) -> "VertexSet":
        return cls(0, n)

    @classmethod
    def full(cls, n: int) -> "VertexSet":
        _check_ambient(n)  # before 1 << n, which fails or grows without it
        return cls((1 << n) - 1, n)

    @classmethod
    def of(cls, vertices: Iterable[int], n: int) -> "VertexSet":
        """Build from 1-based vertex labels."""
        _check_ambient(n)  # before 1 << (v - 1), as in full()
        bits = 0
        for v in vertices:
            if not 1 <= v <= n:
                raise InputError(f"vertex {v} outside 1..{n}")
            bits |= 1 << (v - 1)
        return cls(bits, n)

    @classmethod
    def parse(cls, text: str, n: int | None = None) -> "VertexSet":
        """Parse ``"1100"`` (binary, leftmost = vertex 1) or ``"{1,2}"``."""
        return parse_vertex_sets([text], n)[1][0]

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __bool__(self) -> bool:
        return self.bits != 0

    def __contains__(self, vertex: int) -> bool:
        return 1 <= vertex <= self.n and bool(self.bits >> (vertex - 1) & 1)

    def __iter__(self) -> Iterator[int]:
        """Yield 1-based vertex labels in increasing order."""
        bits = self.bits
        while bits:
            low = bits & -bits
            yield low.bit_length()
            bits ^= low

    def __le__(self, other: "VertexSet") -> bool:
        self._check_same_ambient(other)
        return self.bits & ~other.bits == 0

    def __lt__(self, other: "VertexSet") -> bool:
        return self <= other and self.bits != other.bits

    def __and__(self, other: "VertexSet") -> "VertexSet":
        self._check_same_ambient(other)
        return VertexSet(self.bits & other.bits, self.n)

    def __or__(self, other: "VertexSet") -> "VertexSet":
        self._check_same_ambient(other)
        return VertexSet(self.bits | other.bits, self.n)

    def _check_same_ambient(self, other: "VertexSet") -> None:
        if self.n != other.n:
            raise InputError(
                f"ambient sizes differ: {self.n} vs {other.n}"
            )

    def vertices(self) -> tuple[int, ...]:
        return tuple(self)

    def binary(self) -> str:
        return "".join("1" if self.bits >> i & 1 else "0" for i in range(self.n))

    def braces(self) -> str:
        return "{" + ",".join(str(v) for v in self) + "}"

    def __repr__(self) -> str:
        return f"VertexSet({self.binary()!r})"


@dataclass(frozen=True)
class Code:
    """A finite set of codewords on n neurons."""

    n: int
    words: frozenset[VertexSet]

    def __post_init__(self) -> None:
        _check_ambient(self.n)
        for w in self.words:
            if w.n != self.n:
                raise InputError(
                    f"codeword on {w.n} neurons in a code on {self.n}"
                )

    @classmethod
    def of(cls, word_texts: Iterable[str], n: int | None = None) -> "Code":
        """Build from binary strings or brace sets; duplicates collapse."""
        n, words = parse_vertex_sets(word_texts, n)
        return cls(n, frozenset(words))

    def __len__(self) -> int:
        return len(self.words)

    def __contains__(self, word: VertexSet) -> bool:
        return word in self.words


def parse_vertex_sets(
    texts: Iterable[str], n: int | None = None
) -> tuple[int, list[VertexSet]]:
    """Read binary words (``"1100"``, leftmost = vertex 1) and brace sets.

    Without n, the binary words fix it by their common width; with no
    binary word, the largest brace label does.  n is checked against
    AMBIENT_CAP before any bit is set, so an oversized word is refused
    without being built.
    """
    words: list[str | list[int]] = []  # a binary word, or brace labels
    widths: set[int] = set()
    top = 0
    for text in texts:
        text = text.strip()
        if text.startswith("{"):
            if not text.endswith("}"):
                raise InputError(f"unterminated brace set: {_excerpt(text)}")
            inner = text[1:-1].strip()
            try:
                labels = [int(part) for part in inner.split(",")] if inner else []
            except ValueError:
                raise InputError(f"bad brace set: {_excerpt(text)}") from None
            top = max([top, *labels])
            words.append(labels)
        elif text and set(text) <= {"0", "1"}:
            widths.add(len(text))
            words.append(text)
        else:
            raise InputError(f"cannot parse vertex set from {_excerpt(text)}")
    if n is None:
        if len(widths) > 1:
            raise InputError(
                f"binary words of different lengths {sorted(widths)}; "
                "declare n explicitly"
            )
        n = widths.pop() if widths else top
        if not n:
            raise InputError(
                "cannot infer the ambient size; declare n"
                if words
                else "no vertex sets given and no n declared"
            )
    _check_ambient(n)
    sets = []
    for word in words:
        if isinstance(word, list):
            sets.append(VertexSet.of(word, n))
        elif len(word) != n:
            raise InputError(
                f"binary word {_excerpt(word)} has length {len(word)}, expected {n}"
            )
        else:
            sets.append(VertexSet(int(word[::-1], 2), n))
    return n, sets


def _maximal_bits(words: set[int], n: int) -> list[int]:
    """The maximal nonempty words among distinct bit patterns on n vertices.

    Largest first, a word is kept when no kept word holds all its vertices:
    bit t of holders[v] is set when kept[t] holds vertex v + 1.  A word lies
    only in a strictly larger one, so kept words join the masks only when a
    smaller word arrives.  The word that held the last dropped one is tried
    first, in one AND, which also drops the empty word.
    """
    holders = [0] * n
    kept: list[int] = []
    joined = last = 0
    size = n + 1
    for b in sorted(words, key=int.bit_count, reverse=True):
        if b & ~last == 0:
            continue
        if b.bit_count() < size:
            size = b.bit_count()
            for t in range(joined, len(kept)):
                rest = kept[t]
                while rest:
                    low = rest & -rest
                    holders[low.bit_length() - 1] |= 1 << t
                    rest ^= low
            joined = len(kept)
        held, rest = -1, b
        while held and rest:
            low = rest & -rest
            held &= holders[low.bit_length() - 1]
            rest ^= low
        if held:
            last = kept[(held & -held).bit_length() - 1]
        else:
            kept.append(b)
    return kept


@dataclass(frozen=True)
class SimplicialComplex:
    """A downward-closed face family on {1..n}, stored by its facets.

    The constructor takes VertexSets on n or int bit patterns, refuses a
    VertexSet on another ambient and keeps exactly the maximal nonempty
    ones, so equal complexes compare and hash equal however they were
    built.  Every complex contains the empty face, so the irrelevant
    complex {0} is the one with no facets.  The void complex, with no
    faces at all, has no Stanley-Reisner resolution; from_faces refuses
    it, so it is never built.
    """

    n: int
    facets: frozenset[VertexSet]

    def __post_init__(self) -> None:
        _check_ambient(self.n)
        given: set[int] = set()
        for f in self.facets:
            if isinstance(f, VertexSet) and f.n != self.n:
                raise InputError(f"facet on {f.n} vertices in ambient {self.n}")
            given.add(f.bits if isinstance(f, VertexSet) else int(f))
        VertexSet(reduce(or_, given, 0), self.n)  # refuses bits outside 1..n
        kept = frozenset(VertexSet(b, self.n) for b in _maximal_bits(given, self.n))
        object.__setattr__(self, "facets", kept)

    @classmethod
    def from_faces(
        cls, n: int, faces: Iterable[VertexSet] | Iterable[int]
    ) -> "SimplicialComplex":
        """Downward closure of the given faces: VertexSets on n or int bit patterns.

        With no face at all, not even the empty one, it refuses the void complex.
        """
        faces = list(faces)
        if not faces:
            raise VoidComplexError(
                f"no faces on {n} vertices, not even the empty one: the void "
                "complex has no Stanley-Reisner resolution"
            )
        return cls(n, faces)

    @classmethod
    def irrelevant(cls, n: int) -> "SimplicialComplex":
        return cls(n, frozenset())

    def __contains__(self, face: VertexSet) -> bool:
        if face.n != self.n:
            raise InputError(f"face on {face.n} vertices in ambient {self.n}")
        return not face or any(face.bits & ~f.bits == 0 for f in self.facets)

    def dimension(self) -> int:
        """Max face dimension; -1 for the irrelevant complex."""
        return max((len(f) for f in self.facets), default=0) - 1

    def faces(self) -> Iterator[VertexSet]:
        """All faces, the empty one included.  Enumerates; small n only."""
        for b in self._face_bits():
            yield VertexSet(b, self.n)

    def _face_bits(self) -> set[int]:
        seen = {0}
        for f in self.facets:
            sub = f.bits
            while sub:
                seen.add(sub)
                sub = (sub - 1) & f.bits
        return seen


def complex_of_code(code: Code) -> SimplicialComplex:
    """Smallest simplicial complex containing every codeword."""
    return SimplicialComplex.from_faces(code.n, code.words)


def restrict(d: SimplicialComplex, s: VertexSet) -> SimplicialComplex:
    """Induced subcomplex on s: the faces of d contained in s."""
    if s.n != d.n:
        raise InputError(f"restriction set on {s.n} vertices, complex on {d.n}")
    return SimplicialComplex(d.n, frozenset(f & s for f in d.facets))


def minimal_nonfaces(d: SimplicialComplex) -> frozenset[VertexSet]:
    """Nonfaces all of whose proper subsets are faces.

    These are the exponent sets of the minimal generators of the
    Stanley-Reisner ideal of d.
    """
    if any(f.bits == (1 << d.n) - 1 for f in d.facets):
        return frozenset()  # the full simplex has no nonface
    face_bits = d._face_bits()
    found: set[int] = set()
    # The empty face's candidates are the missing vertices.  A candidate is
    # a minimal nonface when dropping any one of its own vertices leaves a face.
    for face in face_bits:
        for v in range(d.n):
            cand = face | 1 << v
            if cand in face_bits or cand in found:
                continue
            rest = cand
            while rest:
                low = rest & -rest
                if cand ^ low not in face_bits:
                    break
                rest ^= low
            else:
                found.add(cand)
    return frozenset(VertexSet(b, d.n) for b in found)


def is_clique_complex(d: SimplicialComplex) -> bool:
    """True iff every minimal nonface is a vertex or an edge."""
    return all(len(s) <= 2 for s in minimal_nonfaces(d))


def clique_complex(n: int, edges: Iterable[VertexSet]) -> SimplicialComplex:
    """Complex whose faces are the cliques of the graph on {1..n}.

    It starts from the full simplex and, for each vertex v in turn, splits
    every facet F that holds v and a non-neighbour of v into F without v
    and F's part in v's closed neighbourhood N[v], then keeps the maximal
    pieces with `_maximal_bits`, the constructor's own pass.  After step v
    each facet that holds v lies in N[v], and later steps only shrink them.
    Every maximal clique stays inside some facet throughout, so the facets
    left at the end are exactly the maximal cliques.
    """
    _check_ambient(n)
    adjacency = [0] * n
    for e in edges:
        if e.n != n:
            raise InputError(f"edge on {e.n} vertices in ambient {n}")
        pair = e.vertices()
        if len(pair) != 2:
            raise InputError(f"edge must have exactly two vertices, got {e!r}")
        u, v = pair
        adjacency[u - 1] |= 1 << (v - 1)
        adjacency[v - 1] |= 1 << (u - 1)
    facets = [(1 << n) - 1]
    for v, adjacent in enumerate(adjacency):
        near, pieces = adjacent | 1 << v, set()  # near is N[v]
        for b in facets:
            pieces.update((b ^ 1 << v, b & near) if b >> v & 1 and b & ~near else (b,))
        facets = _maximal_bits(pieces, n)
    return SimplicialComplex(n, facets)


def face_count_by_dimension(d: SimplicialComplex) -> list[int]:
    """Counts [c_-1, c_0, ..., c_dim] of faces by dimension."""
    counts = [0] * (d.dimension() + 2)
    for b in d._face_bits():
        counts[b.bit_count()] += 1
    return counts
