import pytest

from codedim import homology
from codedim.betti import hochster_table
from codedim.complexes import (
    Code,
    SimplicialComplex,
    VertexSet,
    complex_of_code,
    restrict,
)
from codedim.errors import GuardError, VoidComplexError
from codedim.generators import (
    complete_bipartite_clique,
    cone,
    cone_of_cross_polytope,
    cross_polytope,
    full_simplex,
    hollow_simplex,
    projective_plane,
    random_complex,
)
from codedim.dimensions import full_report, hom_dimension_direct, leray_dimension_direct
from codedim.homology import (
    PrimeField,
    ReducedHomologyProfile,
    chain_data,
    induced_restrictions,
    packed_chain,
    profile_of_face_bits,
    reduced_homology,
)
from codedim.linalg import reduce_gf2
from codedim.oracle import _DENSITIES

from test_linalg import sympy_rank

GF2 = PrimeField(2)


def profile_from_counts_and_ranks(counts, ranks, field):
    """H~_{c-1} = dim C_c - rank d_c - rank d_{c+1} for each cardinality c.

    The references below do this arithmetic here, apart from
    `Chain.homology`, which they check.
    """
    dims = {}
    top = len(counts) - 1
    for c in range(top + 1):
        above = ranks[c + 1] if c + 1 <= top else 0
        value = counts[c] - ranks[c] - above
        if value:
            dims[c - 1] = value
    return ReducedHomologyProfile(dims, field)


def sympy_profile_gf2(face_bits):
    """Profile from chain_data's dense matrices, ranked by sympy over GF(2)."""
    by_card, boundaries = chain_data(face_bits)
    ranks = [0] + [sympy_rank(boundaries[c], 2) for c in range(1, len(by_card))]
    return profile_from_counts_and_ranks([len(b) for b in by_card], ranks, GF2)


class TestReducedHomology:
    def test_hollow_triangle_is_a_circle(self):
        assert reduced_homology(hollow_simplex(3), GF2).dims == {1: 1}

    def test_octahedron_is_a_two_sphere(self):
        assert reduced_homology(cross_polytope(2), GF2).dims == {2: 1}

    def test_two_points(self):
        assert reduced_homology(cross_polytope(0), GF2).dims == {0: 1}

    def test_cones_are_invisible(self):
        for i in range(3):
            profile = reduced_homology(cone_of_cross_polytope(i), GF2)
            assert profile.is_trivial

    def test_cone_over_random_complexes(self):
        for seed in range(10):
            d = random_complex(5, 0.4, seed)
            assert reduced_homology(cone(d), GF2).is_trivial

    def test_void_complex(self):
        # no void complex reaches the chain: from_faces refuses it
        with pytest.raises(VoidComplexError):
            SimplicialComplex.from_faces(3, [])

    def test_irrelevant_complex_has_degree_minus_one(self):
        assert reduced_homology(SimplicialComplex.irrelevant(3), GF2).dims == {-1: 1}

    def test_full_simplex_is_contractible(self):
        assert reduced_homology(full_simplex(4), GF2).is_trivial

    def test_hollow_simplex_is_a_sphere(self):
        for m in (2, 3, 4, 5):
            assert reduced_homology(hollow_simplex(m), GF2).dims == {m - 2: 1}

    def test_boundary_memory_guard_runs_before_allocation(self, monkeypatch):
        # C(18,9) x C(18,10) alone is 2.1e9 cells; the guard must refuse on
        # every route without building a single matrix, packed column or
        # vertex mask.
        def refuse(*_):
            raise AssertionError("boundary matrix built past the memory guard")

        monkeypatch.setattr(homology, "boundary_matrix", refuse)
        monkeypatch.setattr(homology, "packed_boundary_columns", refuse)
        monkeypatch.setattr(homology.FaceSelector, "__init__", refuse)
        d = hollow_simplex(18)
        for field in (GF2, PrimeField(3)):
            with pytest.raises(GuardError, match="cells"):
                hochster_table(d, field)
            with pytest.raises(GuardError, match="cells"):
                reduced_homology(d, field)
            with pytest.raises(GuardError, match="cells"):
                leray_dimension_direct(d, field)

    @pytest.mark.parametrize("p", [2, 3])
    def test_whole_complex_builds_no_face_masks(self, monkeypatch, p):
        def refuse(*_):
            raise AssertionError("face masks built for the whole face set")

        monkeypatch.setattr(homology.FaceSelector, "__init__", refuse)
        field = PrimeField(p)
        assert reduced_homology(cross_polytope(2), field).dims == {2: 1}
        assert profile_of_face_bits(hollow_simplex(4)._face_bits(), field).dims == {2: 1}


class TestPackedProfile:
    @pytest.mark.parametrize(
        "d",
        [complete_bipartite_clique(4), cone_of_cross_polytope(4), cross_polytope(5)],
        ids=["K_4,4", "cone_4", "cross_5"],
    )
    def test_fixtures_match_sympy_reference(self, d):
        faces = d._face_bits()
        assert profile_of_face_bits(faces, GF2) == sympy_profile_gf2(faces)

    def test_oracle_seeds_match_sympy_reference(self):
        for seed in range(30):
            n = 5 + seed % 3
            d = random_complex(n, _DENSITIES[seed % len(_DENSITIES)], seed)
            # the whole complex and a spread of its restrictions
            for sigma, inside in induced_restrictions(d):
                if sigma == (1 << n) - 1 or sigma % 11 == 0:
                    assert profile_of_face_bits(inside, GF2) == sympy_profile_gf2(
                        inside
                    ), (seed, sigma)


def plain_scan(by_card, c, sigma):
    """Indices of the faces by_card[c][j] inside sigma, by scanning them all."""
    return [j for j, b in enumerate(by_card[c]) if b & ~sigma == 0]


def cleared_profile(by_card, columns, sigma):
    """Profile of the restriction to sigma from columns packed once, cleared top down."""
    ranks = [0] * len(by_card)
    above = ()
    for c in range(len(by_card) - 1, 0, -1):
        above = reduce_gf2(columns[c], plain_scan(by_card, c, sigma), above)
        ranks[c] = len(above)
    counts = [sum(1 for b in bucket if b & ~sigma == 0) for bucket in by_card]
    return profile_from_counts_and_ranks(counts, ranks, GF2)


class TestPackedChain:
    def test_every_restriction_and_degree_matches_fresh_packing(self):
        for seed in range(30):
            n = 5 + seed % 3
            d = random_complex(n, _DENSITIES[seed % len(_DENSITIES)], seed)
            by_card, columns = packed_chain(d._face_bits())
            for sigma, inside in induced_restrictions(d):
                assert cleared_profile(by_card, columns, sigma) == profile_of_face_bits(
                    inside, GF2
                ), (seed, sigma)

    # A clearing key shifted by one row skips a column that still adds
    # rank in only a few restrictions; these complexes have some.
    @pytest.mark.parametrize(
        "d",
        [projective_plane(), random_complex(9, 0.3, 1), random_complex(10, 0.3, 3)],
        ids=["RP2", "random_9", "random_10"],
    )
    def test_larger_complexes(self, d):
        by_card, columns = packed_chain(d._face_bits())
        for sigma, inside in induced_restrictions(d):
            assert cleared_profile(by_card, columns, sigma) == profile_of_face_bits(
                inside, GF2
            ), sigma

    @pytest.mark.parametrize("p", [2, 3])
    def test_chain_profile_matches_fresh_profile(self, p):
        # One Chain per complex, selected by masks, against a Chain built
        # afresh over each restriction's own faces.
        field = PrimeField(p)
        complexes = [
            random_complex(5 + seed % 3, _DENSITIES[seed % len(_DENSITIES)], seed)
            for seed in range(30)
        ] + [projective_plane()]
        for d in complexes:
            chain = homology.Chain(d._face_bits(), d.n, field)
            for sigma, inside in induced_restrictions(d):
                assert chain.profile(sigma) == profile_of_face_bits(inside, field), (
                    d,
                    sigma,
                )


class TestFaceSelector:
    """Vertex masks select exactly the faces the plain scan finds, in order."""

    @pytest.mark.parametrize(
        "d",
        [
            complete_bipartite_clique(4),
            cone_of_cross_polytope(4),
            cross_polytope(5),
            projective_plane(),
            full_simplex(4),
            SimplicialComplex.irrelevant(3),
            SimplicialComplex.from_faces(6, [0b000011, 0b000110, 0b010100]),
        ]
        + [random_complex(n, density, 2) for n in range(5, 11) for density in (0.15, 0.3)],
        ids=["K_4,4", "cone_4", "cross_5", "RP2", "full_4", "irrelevant", "missing"]
        + [f"random_{n}_{density}" for n in range(5, 11) for density in (0.15, 0.3)],
    )
    def test_every_subset_and_cardinality_matches_plain_scan(self, d):
        by_card = homology.group_by_cardinality(d._face_bits())
        select = homology.FaceSelector(by_card, d.n)
        for sigma in range(1 << d.n):
            for c in range(len(by_card)):
                expected = plain_scan(by_card, c, sigma)
                assert select.inside(c, sigma) == expected, (c, sigma)


class TestInducedRestrictions:
    def test_every_subset_with_exactly_its_faces(self):
        d = random_complex(5, 0.5, 3)
        faces = d._face_bits()
        seen = list(induced_restrictions(d))
        assert [sigma for sigma, _ in seen] == list(range(1 << 5))
        for sigma, inside in seen:
            assert inside == sorted(b for b in faces if b & ~sigma == 0)


class TestUnreducedHomology:
    """Ordinary homology is reduced homology with one more in degree 0.

    Each case states the reduced dims, and the ordinary-homology bound
    that `full_report` derives from them.
    """

    def test_single_vertex(self):
        # ordinary {0: 1}
        assert reduced_homology(full_simplex(1), GF2).dims == {}
        assert full_report(full_simplex(1), GF2).homological_unreduced == 1

    def test_two_points(self):
        # ordinary {0: 2}
        assert reduced_homology(cross_polytope(0), GF2).dims == {0: 1}
        assert full_report(cross_polytope(0), GF2).homological_unreduced == 1

    def test_octahedron(self):
        # ordinary {0: 1, 2: 1}
        assert reduced_homology(cross_polytope(2), GF2).dims == {2: 1}
        assert full_report(cross_polytope(2), GF2).homological_unreduced == 3

    def test_empty_complexes_have_no_homology(self):
        # ordinary {}: no vertex, so no degree-0 class either
        with pytest.raises(VoidComplexError):
            complex_of_code(Code(3, frozenset()))
        d = SimplicialComplex.irrelevant(3)
        assert reduced_homology(d, GF2).dims == {-1: 1}
        assert full_report(d, GF2).homological_unreduced == 0


class TestTopNonzeroDegree:
    """`hom_dimension_direct` is the top reduced degree plus one, else 0."""

    def test_octahedron_profile(self):
        assert hom_dimension_direct(cross_polytope(2), GF2) == 3

    def test_sentinel_on_zero_profile(self):
        assert hom_dimension_direct(full_simplex(3), GF2) == 0

    def test_hollow_triangle(self):
        assert hom_dimension_direct(hollow_simplex(3), GF2) == 2


class TestStructuralProperties:
    @pytest.mark.parametrize("seed", range(8))
    def test_euler_characteristic_on_all_restrictions(self, seed):
        d = random_complex(6, 0.45, seed)
        for sigma_bits in range(1 << 6):
            r = restrict(d, VertexSet(sigma_bits, 6))
            profile = reduced_homology(r, GF2)
            homological = sum(
                (1 - 2 * (k % 2)) * v for k, v in profile.dims.items()
            )
            combinatorial = (
                sum(1 - 2 * ((f.bits.bit_count() - 1) % 2) for f in r.faces() if f)
                - 1
            )
            assert homological == combinatorial

    def test_degrees_stay_in_range(self):
        for seed in range(10):
            d = random_complex(6, 0.5, seed)
            profile = reduced_homology(d, GF2)
            top = d.dimension()
            assert all(-1 <= k <= top for k in profile.dims)
            assert all(v > 0 for v in profile.dims.values())

    def test_field_independence_on_torsion_free_fixtures(self):
        fixtures = [
            cross_polytope(0),
            cross_polytope(1),
            cross_polytope(2),
            cone_of_cross_polytope(1),
            hollow_simplex(4),
        ]
        for d in fixtures:
            profiles = {
                p: reduced_homology(d, PrimeField(p)).dims for p in (2, 3, 5)
            }
            assert profiles[2] == profiles[3] == profiles[5]
