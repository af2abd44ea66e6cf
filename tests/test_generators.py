import pytest

from codedim.complexes import (
    SimplicialComplex,
    VertexSet,
    complex_of_code,
    face_count_by_dimension,
    is_clique_complex,
    minimal_nonfaces,
)
from codedim.errors import GuardError, InputError
from codedim.generators import (
    complete_bipartite_clique,
    cone,
    cross_polytope,
    full_simplex,
    hollow_simplex,
    code_l26,
    projective_plane,
    random_complex,
)


class TestCrossPolytope:
    def test_octahedron_face_counts(self):
        assert face_count_by_dimension(cross_polytope(2)) == [1, 6, 12, 8]

    def test_index_zero_is_two_isolated_vertices(self):
        d = cross_polytope(0)
        assert {f.binary() for f in d.facets} == {"10", "01"}

    def test_index_one_is_the_square(self):
        d = cross_polytope(1)
        assert {f.binary() for f in d.facets} == {"1010", "1001", "0110", "0101"}

    def test_nonfaces_are_the_antipodal_pairs(self):
        for i in range(4):
            d = cross_polytope(i)
            expected = {
                VertexSet.of([2 * k + 1, 2 * k + 2], d.n) for k in range(i + 1)
            }
            assert set(minimal_nonfaces(d)) == expected

    def test_always_a_clique_complex(self):
        for i in range(4):
            assert is_clique_complex(cross_polytope(i))

    def test_negative_index_rejected(self):
        with pytest.raises(InputError):
            cross_polytope(-1)

    def test_oversized_index_refused_before_enumerating_facets(self):
        with pytest.raises(GuardError):
            cross_polytope(40)


class TestCone:
    def test_cone_over_square(self):
        d = cone(cross_polytope(1))
        assert d.n == 5
        assert {s.binary() for s in minimal_nonfaces(d)} == {"11000", "00110"}

    def test_cone_over_irrelevant_is_a_point(self):
        d = cone(SimplicialComplex.irrelevant(3))
        assert {f.binary() for f in d.facets} == {"0001"}

    def test_cone_over_two_points_is_a_path(self):
        d = cone(cross_polytope(0))
        assert {f.binary() for f in d.facets} == {"101", "011"}

    def test_nonfaces_lift_unchanged(self):
        for seed in range(10):
            base = random_complex(5, 0.4, seed)
            lifted = {
                VertexSet(s.bits, 6) for s in minimal_nonfaces(base)
            }
            assert set(minimal_nonfaces(cone(base))) == lifted

    def test_cone_preserves_cliqueness_exactly(self):
        for seed in range(10):
            base = random_complex(5, 0.4, seed)
            assert is_clique_complex(cone(base)) == is_clique_complex(base)


class TestCompleteBipartite:
    def test_r4_has_twelve_generators(self):
        d = complete_bipartite_clique(4)
        nonfaces = minimal_nonfaces(d)
        assert len(nonfaces) == 12
        assert all(len(s) == 2 for s in nonfaces)
        sides = ({1, 2, 3, 4}, {5, 6, 7, 8})
        for s in nonfaces:
            u, v = s.vertices()
            assert any(u in side and v in side for side in sides)

    @pytest.mark.parametrize("r", range(1, 7))
    def test_facets_are_exactly_the_r_squared_edges(self, r):
        facets = {f.vertices() for f in complete_bipartite_clique(r).facets}
        assert facets == {
            (u, v) for u in range(1, r + 1) for v in range(r + 1, 2 * r + 1)
        }

    def test_r1_is_a_single_edge(self):
        assert complete_bipartite_clique(1) == full_simplex(2)

    def test_no_triangles_for_r_at_least_two(self):
        for r in (2, 3):
            d = complete_bipartite_clique(r)
            assert d.dimension() == 1

    def test_bad_size_rejected(self):
        with pytest.raises(InputError):
            complete_bipartite_clique(0)


class TestHollowSimplex:
    def test_unique_nonface_is_everything(self):
        for m in (2, 3, 5):
            d = hollow_simplex(m)
            assert set(minimal_nonfaces(d)) == {VertexSet.full(m)}

    def test_m2_is_two_points(self):
        assert hollow_simplex(2) == cross_polytope(0)

    def test_too_small_rejected(self):
        with pytest.raises(InputError):
            hollow_simplex(1)

    def test_oversize_refused_before_any_face_is_built(self, monkeypatch):
        def refuse(*_):
            raise AssertionError("faces built past the ambient guard")

        monkeypatch.setattr(SimplicialComplex, "from_faces", refuse)
        with pytest.raises(GuardError, match="n=3000"):
            hollow_simplex(3000)


class TestFullSimplex:
    def test_negative_size_refused_by_the_ambient_guard(self):
        with pytest.raises(GuardError, match="n=-1"):
            full_simplex(-1)
        with pytest.raises(GuardError, match="n=-1"):
            VertexSet.full(-1)


class TestProjectivePlane:
    def test_six_vertices_and_ten_triangles(self):
        d = projective_plane()
        assert d.n == 6
        assert face_count_by_dimension(d) == [1, 6, 15, 10]
        assert all(len(f) == 3 for f in d.facets)

    def test_every_edge_lies_on_two_triangles(self):
        d = projective_plane()
        for edge in (f for f in d.faces() if len(f) == 2):
            assert sum(edge <= t for t in d.facets) == 2


class TestCodeL26:
    def test_fourteen_words(self):
        assert len(code_l26()) == 14

    def test_full_word_absent(self):
        assert VertexSet.full(4) not in code_l26()

    def test_complex_facets(self):
        d = complex_of_code(code_l26())
        assert {f.binary() for f in d.facets} == {"1110", "1011", "0111"}


class TestRandomComplex:
    def test_density_one_fills_the_simplex(self):
        assert random_complex(5, 1.0, 3) == full_simplex(5)

    def test_density_zero_leaves_isolated_vertices(self):
        d = random_complex(5, 0.0, 3)
        assert {f.binary() for f in d.facets} == {
            "10000", "01000", "00100", "00010", "00001"
        }

    def test_seed_determinism(self):
        assert random_complex(6, 0.5, 42) == random_complex(6, 0.5, 42)
        batch = {random_complex(6, 0.3, seed) for seed in range(20)}
        assert len(batch) > 1  # seeds actually steer the sample

    def test_density_out_of_range_rejected(self):
        with pytest.raises(InputError):
            random_complex(5, 1.5, 0)

    def test_ambient_out_of_range_refused_before_enumerating(self):
        for n in (-1, 40):
            with pytest.raises(GuardError):
                random_complex(n, 0.5, 0)
