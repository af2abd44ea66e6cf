"""Constructors for the recurring example families.

The cross-polytopes, their cones, complete bipartite clique complexes,
hollow simplices and the projective plane are the fixtures every golden
test is written against; the vertex numbering below is pinned so that
gradings come out as exact bit patterns (pairs (1,2), (3,4), ... and the
cone point last).
"""

from __future__ import annotations

import itertools
import random

from .complexes import Code, SimplicialComplex, VertexSet, _check_ambient, clique_complex
from .errors import InputError

# The six-vertex real projective plane, the antipodal quotient of the
# icosahedron: its H_1 is Z/2.
_RP2_TRIANGLES = (
    (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
    (2, 3, 5), (2, 4, 5), (2, 4, 6), (3, 4, 6), (3, 5, 6),
)
_L26_WORDS = (
    "0000", "1000", "0100", "0010", "0001", "1100", "1010",
    "1001", "0110", "0101", "0011", "1110", "1011", "0111",
)


def cross_polytope(i: int) -> SimplicialComplex:
    """Clique complex on 2(i+1) vertices missing only the i+1 pair edges.

    Vertex 2k+1 is never adjacent to vertex 2k+2; the facets pick one
    vertex from each pair.  Index 0 gives two isolated vertices, 1 the
    square, 2 the octahedron.
    """
    if i < 0:
        raise InputError(f"cross-polytope index must be >= 0, got {i}")
    n = 2 * (i + 1)
    _check_ambient(n)
    facets = []
    for choice in itertools.product((0, 1), repeat=i + 1):
        bits = 0
        for k, pick in enumerate(choice):
            bits |= 1 << (2 * k + pick)
        facets.append(bits)
    return SimplicialComplex.from_faces(n, facets)


def cone(d: SimplicialComplex) -> SimplicialComplex:
    """Join a fresh top-numbered vertex to every face of d."""
    n = d.n + 1
    apex = 1 << d.n
    # The apex joined to d's empty face is a face too; it is the only
    # facet of the cone over the irrelevant complex.
    return SimplicialComplex.from_faces(n, [apex, *(f.bits | apex for f in d.facets)])


def cone_of_cross_polytope(i: int) -> SimplicialComplex:
    return cone(cross_polytope(i))


def complete_bipartite_clique(r: int) -> SimplicialComplex:
    """Clique complex of K_{r,r} with sides {1..r} and {r+1..2r}."""
    if r < 1:
        raise InputError(f"side size must be >= 1, got {r}")
    n = 2 * r
    edges = [
        VertexSet.of((u, v), n)
        for u in range(1, r + 1)
        for v in range(r + 1, n + 1)
    ]
    return clique_complex(n, edges)


def hollow_simplex(m: int) -> SimplicialComplex:
    """Every proper subset of {1..m} is a face; the whole set is not."""
    if m < 2:
        raise InputError(f"a hollow simplex needs >= 2 vertices, got {m}")
    _check_ambient(m)
    full = (1 << m) - 1
    return SimplicialComplex.from_faces(m, (full ^ (1 << v) for v in range(m)))


def full_simplex(n: int) -> SimplicialComplex:
    return SimplicialComplex(n, frozenset({VertexSet.full(n)}))


def projective_plane() -> SimplicialComplex:
    """RP^2 on 6 vertices and 10 triangles.

    Its reduced homology is GF(2) in degrees 1 and 2 and zero over every
    odd prime, so its Leray dimension depends on the field: 3 over GF(2)
    and 2 over GF(3).
    """
    return SimplicialComplex.from_faces(
        6, (VertexSet.of(t, 6).bits for t in _RP2_TRIANGLES)
    )


def code_l26() -> Code:
    """The 14-word code on 4 neurons whose complex misses one triangle."""
    return Code.of(_L26_WORDS, n=4)


def random_complex(n: int, density: float, seed: int) -> SimplicialComplex:
    """Downward closure of a random face sample; all vertices always faces.

    Each subset with two or more vertices joins the sample with the
    given probability, independently, so density 0 leaves n isolated
    vertices and density 1 fills the whole simplex.  Enumerates 2^n
    candidates, so n is checked against the ambient cap first.
    """
    if not 0.0 <= density <= 1.0:
        raise InputError(f"density must lie in [0, 1], got {density}")
    _check_ambient(n)
    rng = random.Random(seed)
    faces = [1 << v for v in range(n)]
    for bits in range(1, 1 << n):
        if bits.bit_count() >= 2 and rng.random() < density:
            faces.append(bits)
    return SimplicialComplex.from_faces(n, faces)
