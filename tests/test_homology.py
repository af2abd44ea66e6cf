import pytest

from codedim import homology
from codedim.betti import hochster_table
from codedim.complexes import SimplicialComplex, VertexSet, restrict
from codedim.errors import GuardError
from codedim.generators import (
    cone,
    cone_of_cross_polytope,
    cross_polytope,
    full_simplex,
    hollow_simplex,
    random_complex,
)
from codedim.homology import (
    PrimeField,
    reduced_homology,
    top_nonzero_degree,
    unreduced_homology,
)

GF2 = PrimeField(2)


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
        assert reduced_homology(SimplicialComplex.void(3), GF2).dims == {}

    def test_irrelevant_complex_has_degree_minus_one(self):
        assert reduced_homology(SimplicialComplex.irrelevant(3), GF2).dims == {-1: 1}

    def test_full_simplex_is_contractible(self):
        assert reduced_homology(full_simplex(4), GF2).is_trivial

    def test_hollow_simplex_is_a_sphere(self):
        for m in (2, 3, 4, 5):
            assert reduced_homology(hollow_simplex(m), GF2).dims == {m - 2: 1}

    def test_boundary_memory_guard_runs_before_allocation(self, monkeypatch):
        # C(18,9) x C(18,10) alone is 2.1e9 cells; the guard must refuse on
        # both routes without building a single matrix.
        def refuse(*_):
            raise AssertionError("boundary matrix built past the memory guard")

        monkeypatch.setattr(homology, "boundary_matrix", refuse)
        d = hollow_simplex(18)
        with pytest.raises(GuardError, match="cells"):
            hochster_table(d, GF2)
        with pytest.raises(GuardError, match="cells"):
            reduced_homology(d, GF2)


class TestUnreducedHomology:
    def test_single_vertex(self):
        assert unreduced_homology(full_simplex(1), GF2).dims == {0: 1}

    def test_two_points(self):
        assert unreduced_homology(cross_polytope(0), GF2).dims == {0: 2}

    def test_octahedron(self):
        assert unreduced_homology(cross_polytope(2), GF2).dims == {0: 1, 2: 1}

    def test_empty_complexes_have_no_homology(self):
        assert unreduced_homology(SimplicialComplex.void(3), GF2).dims == {}
        assert unreduced_homology(SimplicialComplex.irrelevant(3), GF2).dims == {}


class TestTopNonzeroDegree:
    def test_octahedron_profile(self):
        assert top_nonzero_degree(reduced_homology(cross_polytope(2), GF2), -2) == 2

    def test_sentinel_on_zero_profile(self):
        assert top_nonzero_degree(reduced_homology(full_simplex(3), GF2), -2) == -2

    def test_hollow_triangle(self):
        assert top_nonzero_degree(reduced_homology(hollow_simplex(3), GF2), -2) == 1


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
