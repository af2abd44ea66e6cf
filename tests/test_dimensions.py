import hashlib
import json

import pytest

import codedim.dimensions as dimensions_module
from codedim.betti import hochster_table, table_to_json
from codedim.complexes import (
    SimplicialComplex,
    VertexSet,
    complex_of_code,
    is_clique_complex,
    restrict,
)
from codedim.dimensions import (
    full_report,
    helly_dimension,
    helly_dimension_direct,
    hom_dimension_betti,
    hom_dimension_direct,
    leray_dimension,
    leray_dimension_direct,
    report_to_json,
)
from codedim.errors import (
    ConsistencyError,
    GuardError,
    VoidComplexError,
)
from codedim.generators import (
    complete_bipartite_clique,
    cone_of_cross_polytope,
    cross_polytope,
    full_simplex,
    cone,
    hollow_simplex,
    code_l26,
    projective_plane,
    random_complex,
)
from codedim.homology import profile_of_face_bits, reduced_homology
from codedim.linalg import PrimeField
from codedim.oracle import _DENSITIES

from test_homology import induced_restrictions

GF2 = PrimeField(2)


def table(d, p=2):
    return hochster_table(d, PrimeField(p))


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


# sha256 of table_to_json and report_to_json over GF(2), recorded with the
# dense numpy elimination, before GF(2) ranks moved to the packed kernel.
GF2_PINS = {
    "K_4,4": (
        complete_bipartite_clique,
        "a6d32ce6adbc2943d2433a31eb1b4ba296ffff06c67c5e165c0bab51c1132948",
        "815e4985227438aa5e7c9938d728295c47133250463edac21c4b4b39d7f90c90",
    ),
    "cone_4": (
        cone_of_cross_polytope,
        "b3934f928a75b5a52f83e2f3bd4488069734663c134d6fe3d4adca4975f214c8",
        "438c47cdbaa498d610c8f408b79103fb9739f7921b68b3f78bb0d9ec43dfe055",
    ),
    "cross_5": (
        cross_polytope,
        "63790583994d46d78d9d5d2b8a4144a7961afe75eb585d99690c24b7bb047b68",
        "ebef370171b9bc2c39a9d7115b528f4f39a8d12fdfff1e12a303982efe741bfa",
    ),
}


@pytest.mark.parametrize("name", list(GF2_PINS))
def test_gf2_outputs_match_pins(name):
    make, table_sha, report_sha = GF2_PINS[name]
    d = make(int(name[-1]))
    assert sha256(table_to_json(hochster_table(d, GF2))) == table_sha
    assert sha256(report_to_json(full_report(d, GF2))) == report_sha


# The same digests over GF(3) and GF(5), recorded with the dense numpy
# elimination before the direct GF(2) route moved to columns packed once.
ODD_PINS = {
    ("K_4,4", 3): (
        "ef6a4d5f8deeba964ebfa1def54f35e61901162d636ecbfce7e12cfc9dfa0596",
        "1fb3c212e6ab9387a170995767543c0f4e88ea677109920c4c7be8492890c63c",
    ),
    ("cone_4", 3): (
        "9e415976a5077f7c3daa4486db0f71348836ed306a0b2565a7ff770ffa0d73db",
        "5c0b8e1486a5a0b4a2173720bed9604893ed972487e8542b3627cdb602572fca",
    ),
    ("cross_5", 3): (
        "8ed2171795a74f5b7b58aad330b362df07f874889b53f1d87a576fb0c7676c45",
        "66aba47531760ff587ad4d333c3e495ee0e64689565b102f46b0dc85cc45d14c",
    ),
    ("K_4,4", 5): (
        "a2408b419b95effd0e6b93f6fb15e8a77b54724769ed941dd83234c4180a126c",
        "7b87492dc2ecb1a94eade92811d92ce02d7c8aa3a530c1b7a471088d1b5e0e69",
    ),
    ("cone_4", 5): (
        "26bd0923f20f204ac182002e4b42d6ab7631a7efc1090f6e9dcf127ef78c6111",
        "408fde9d42c09bde2336a398f92b5a78d3f2ec15bceedd0b6ebe9488551faba0",
    ),
    ("cross_5", 5): (
        "5c7e376c19124fba87c689946bfb91c159426244fd7c0f8457d008ca12055750",
        "ecef7780f5e86403ee1d5de0334660aa7c0d66882f990fede10982e8fd073a21",
    ),
}


@pytest.mark.parametrize(
    "name,p", list(ODD_PINS), ids=[f"{name}-GF{p}" for name, p in ODD_PINS]
)
def test_odd_p_outputs_match_pins(name, p):
    make = GF2_PINS[name][0]
    table_sha, report_sha = ODD_PINS[(name, p)]
    d = make(int(name[-1]))
    field = PrimeField(p)
    assert sha256(table_to_json(hochster_table(d, field))) == table_sha
    assert sha256(report_to_json(full_report(d, field))) == report_sha


def suspension(d):
    """Join d with two fresh apexes, numbered n+1 and n+2."""
    apexes = (1 << d.n, 1 << (d.n + 1))
    return SimplicialComplex.from_faces(
        d.n + 2, (f.bits | a for f in d.facets for a in apexes)
    )


def leray_per_restriction(d, field):
    """The direct Leray value with every restriction's profile built afresh."""
    best = -1
    for _, inside in induced_restrictions(d):
        best = max(best, max(profile_of_face_bits(inside, field).dims, default=-1))
    return best + 1 if best >= 0 else 0


class TestProjectivePlane:
    @pytest.mark.parametrize(
        "p,expected", [(2, (3, 2, 3)), (3, (2, 2, 0)), (5, (2, 2, 0))]
    )
    def test_full_report(self, p, expected):
        assert full_report(projective_plane(), PrimeField(p)).as_tuple() == expected

    @pytest.mark.parametrize("p,dims", [(2, {1: 1, 2: 1}), (3, {}), (5, {})])
    def test_reduced_homology(self, p, dims):
        assert reduced_homology(projective_plane(), PrimeField(p)).dims == dims


class TestFieldDependence:
    # 2-torsion in H_1 of RP^2 shows over GF(2) and vanishes over GF(3);
    # the cone keeps RP^2 as an induced subcomplex and the suspension
    # lifts its homology one degree.
    @pytest.mark.parametrize(
        "make,gf2,gf3",
        [
            (projective_plane, 3, 2),
            (lambda: cone(projective_plane()), 3, 2),
            (lambda: suspension(projective_plane()), 4, 3),
        ],
        ids=["RP2", "cone", "suspension"],
    )
    def test_field_changes_the_leray_dimension(self, make, gf2, gf3):
        d = make()
        for p, expected in ((2, gf2), (3, gf3)):
            assert leray_dimension(table(d, p))[0] == expected
            assert leray_dimension_direct(d, PrimeField(p)) == expected


# Fixtures of the direct-route tests, by test id.
DIRECT_FIXTURES = {
    "K_4,4": complete_bipartite_clique(4),
    "cone_4": cone_of_cross_polytope(4),
    "cross_5": cross_polytope(5),
    "hollow_6": hollow_simplex(6),
    "full_4": full_simplex(4),
    "l26": complex_of_code(code_l26()),
    "irrelevant": SimplicialComplex.irrelevant(3),
    "RP2": projective_plane(),
    "cone_RP2": cone(projective_plane()),
    "suspension_RP2": suspension(projective_plane()),
}


class TestDirectRouteGF2:
    """The direct route on one chain against the per-restriction route.

    It started at GF(2) alone; the GF(2) cases keep their ids and the
    odd-p cases carry the field in theirs.
    """

    @pytest.mark.parametrize(
        "d,p",
        [
            pytest.param(d, p, id=name if p == 2 else f"{name}-GF{p}")
            for p in (2, 3, 5)
            for name, d in DIRECT_FIXTURES.items()
        ],
    )
    def test_fixtures(self, d, p):
        field = PrimeField(p)
        assert leray_dimension_direct(d, field) == leray_per_restriction(d, field)

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize(
        "d,leray",
        [
            (cross_polytope(1), 2),  # the square: facets 1010, 1001, 0110, 0101
            (SimplicialComplex.irrelevant(3), 0),  # only the empty face
            (SimplicialComplex.from_faces(4, [0b0011, 0b0110]), 1),  # vertex 4 missing
        ],
        ids=["square", "irrelevant", "missing"],
    )
    def test_skipped_faces_move_no_value(self, d, leray, p):
        # The skipped empty subset only carries degree -1, so no value moves.
        assert leray_dimension_direct(d, PrimeField(p)) == leray

    def test_full_simplex_is_not_packed(self):
        # every restriction lies inside the one facet, so nothing is built;
        # its boundary maps would need 5.7e8 cells, above the cap
        for p in (2, 3):
            assert leray_dimension_direct(full_simplex(16), PrimeField(p)) == 0

    def test_oracle_seeds(self):
        for p in (2, 3, 5):
            field = PrimeField(p)
            for seed in range(160):
                n = 5 + seed % 4
                d = random_complex(n, _DENSITIES[seed % len(_DENSITIES)], seed)
                assert leray_dimension_direct(d, field) == leray_per_restriction(
                    d, field
                ), (p, seed)


class TestLerayDimension:
    def test_octahedron_with_witness(self):
        value, witness = leray_dimension(table(cross_polytope(2)))
        assert value == 3
        assert (witness.i, witness.sigma.binary()) == (3, "111111")

    def test_cone_over_square_with_witness(self):
        value, witness = leray_dimension(table(cone_of_cross_polytope(1)))
        assert value == 2
        assert (witness.i, witness.sigma.binary()) == (2, "11110")

    def test_full_simplex_empty_maximum(self):
        value, witness = leray_dimension(table(full_simplex(3)))
        assert value == 0
        assert witness is None

    def test_direct_cone_over_octahedron(self):
        assert leray_dimension_direct(cone_of_cross_polytope(2), GF2) == 3

    def test_direct_l26(self):
        assert leray_dimension_direct(complex_of_code(code_l26()), GF2) == 2

    def test_direct_single_vertex(self):
        assert leray_dimension_direct(full_simplex(1), GF2) == 0

    def test_direct_route_refuses_the_void_complex(self):
        # no void complex reaches the direct route: from_faces refuses it
        with pytest.raises(VoidComplexError):
            SimplicialComplex.from_faces(3, [])

    def test_direct_route_refuses_before_enumerating(self, monkeypatch):
        def enumerate_faces(self):
            raise AssertionError("faces enumerated past the sweep guard")

        monkeypatch.setattr(SimplicialComplex, "_face_bits", enumerate_faces)
        with pytest.raises(GuardError, match="2097152"):
            leray_dimension_direct(full_simplex(21), GF2)

    def test_witness_tie_break_prefers_small_step_then_pattern(self):
        # two disjoint hollow triangles: the maximum R=2 is achieved at
        # (1, {1,2,3}) and (1, {4,5,6}); the smaller bit pattern wins
        edges = [0b000011, 0b000101, 0b000110, 0b011000, 0b101000, 0b110000]
        d = SimplicialComplex.from_faces(6, edges)
        value, witness = leray_dimension(table(d))
        assert value == 2
        assert (witness.i, witness.sigma.binary()) == (1, "111000")


class TestHellyDimension:
    def test_l26_with_witness(self):
        value, witness = helly_dimension(table(complex_of_code(code_l26())))
        assert value == 2
        assert witness.sigma.binary() == "1101"

    def test_cross_polytopes_are_all_one(self):
        for i in range(4):
            value, _ = helly_dimension(table(cross_polytope(i)))
            assert value == 1

    def test_full_simplex(self):
        value, witness = helly_dimension(table(full_simplex(3)))
        assert value == 0 and witness is None

    def test_direct_octahedron(self):
        assert helly_dimension_direct(cross_polytope(2)) == 1

    def test_direct_hollow_simplices(self):
        for m in (2, 3, 4, 5):
            assert helly_dimension_direct(hollow_simplex(m)) == m - 1

    def test_direct_cone(self):
        assert helly_dimension_direct(cone_of_cross_polytope(3)) == 1


class TestHomologicalDimension:
    def test_octahedron_betti_route(self):
        value, witness = hom_dimension_betti(table(cross_polytope(2)))
        assert value == 3
        assert (witness.i, witness.sigma.binary()) == (3, "111111")

    def test_cone_over_square_betti_route_is_zero(self):
        value, witness = hom_dimension_betti(table(cone_of_cross_polytope(1)))
        assert value == 0 and witness is None

    def test_square_betti_route(self):
        value, witness = hom_dimension_betti(table(cross_polytope(1)))
        assert value == 2
        assert (witness.i, witness.sigma.binary()) == (2, "1111")

    # The reduced-homology route and the ordinary-homology value derived
    # from it: a nonempty acyclic complex still has H_0, so its value is 1.
    def test_unreduced_l26_is_contractible(self):
        d = complex_of_code(code_l26())
        assert hom_dimension_direct(d, GF2) == 0
        assert full_report(d, GF2).homological_unreduced == 1

    def test_unreduced_cones(self):
        for i in range(3):
            d = cone_of_cross_polytope(i)
            assert hom_dimension_direct(d, GF2) == 0
            assert full_report(d, GF2).homological_unreduced == 1

    def test_unreduced_orthoplex(self):
        assert hom_dimension_direct(cross_polytope(3), GF2) == 4
        assert full_report(cross_polytope(3), GF2).homological_unreduced == 4

    def test_unreduced_irrelevant_complex_is_zero(self):
        # Its only reduced homology sits in degree -1.
        d = SimplicialComplex.irrelevant(3)
        assert hom_dimension_direct(d, GF2) == 0
        assert full_report(d, GF2).homological_unreduced == 0


class TestFullReport:
    def test_octahedron(self):
        report = full_report(cross_polytope(2), GF2)
        assert report.as_tuple() == (3, 1, 3)
        assert report.homological_unreduced == 3
        assert report.oracle_agreement == {"leray": True, "helly": True}

    def test_bipartite_four(self):
        from codedim.generators import complete_bipartite_clique

        assert full_report(complete_bipartite_clique(4), GF2).as_tuple() == (2, 1, 2)

    def test_cone_over_square(self):
        report = full_report(cone_of_cross_polytope(1), GF2)
        assert report.as_tuple() == (2, 1, 0)
        assert report.homological_unreduced == 1

    def test_full_simplex_all_zero_but_unreduced(self):
        report = full_report(full_simplex(3), GF2)
        assert report.as_tuple() == (0, 0, 0)
        assert report.homological_unreduced == 1
        assert report.witnesses == {}

    @pytest.mark.parametrize("n", [16, 20])
    def test_large_full_simplex_is_all_zero(self, n):
        # a cone's homology and a full simplex's nonfaces need no face scan
        report = full_report(full_simplex(n), GF2)
        assert report.as_tuple() == (0, 0, 0)
        assert report.homological_unreduced == 1

    def test_irrelevant_complex_has_all_bounds_zero(self):
        # every vertex is a degree-1 generator, but all values are 0
        report = full_report(SimplicialComplex.irrelevant(3), GF2)
        assert report.as_tuple() == (0, 0, 0)
        assert report.homological_unreduced == 0
        assert report.witnesses["helly"].sigma.binary() == "100"

    def test_disagreeing_oracle_is_fatal(self, monkeypatch):
        monkeypatch.setattr(
            dimensions_module, "helly_dimension_direct", lambda d: 99
        )
        with pytest.raises(ConsistencyError):
            full_report(cross_polytope(1), GF2)

    def test_leray_disagreement_is_fatal(self, monkeypatch):
        monkeypatch.setattr(
            dimensions_module, "leray_dimension_direct", lambda d, field: 99
        )
        with pytest.raises(ConsistencyError, match="restriction-homology maximum 99"):
            full_report(cross_polytope(1), GF2)

    def test_homological_disagreement_is_fatal(self, monkeypatch):
        exact = dimensions_module.hom_dimension_direct
        monkeypatch.setattr(
            dimensions_module,
            "hom_dimension_direct",
            lambda d, field: exact(d, field) + 1,
        )
        with pytest.raises(ConsistencyError, match="value 3 disagrees with the table value 2"):
            full_report(cross_polytope(1), GF2)

    def test_homological_table_fault_is_caught_in_degree_zero(self, monkeypatch):
        # Two points have reduced H_0 = 1 and ordinary H_0 = 2, so a table
        # reader that drops their value must not hide behind max(value, 1).
        monkeypatch.setattr(
            dimensions_module, "hom_dimension_betti", lambda t: (0, None)
        )
        with pytest.raises(ConsistencyError, match="reduced-homology value 1"):
            full_report(cross_polytope(0), GF2)

    def test_bound_ordering_violation_is_fatal(self, monkeypatch):
        monkeypatch.setattr(
            dimensions_module, "hom_dimension_betti", lambda t: (99, None)
        )
        with pytest.raises(ConsistencyError, match="bound ordering violated"):
            full_report(cross_polytope(1), GF2)

    def test_json_is_canonical(self):
        report = full_report(cross_polytope(2), GF2)
        text = report_to_json(report)
        assert json.dumps(json.loads(text), indent=2, sort_keys=True) == text
        parsed = json.loads(text)
        assert parsed["leray"] == 3
        assert parsed["witnesses"]["leray"] == {"i": 3, "sigma": "111111"}


class TestBoundLaws:
    @pytest.mark.parametrize("seed", range(25))
    def test_bound_ordering_and_oracle_agreement(self, seed):
        d = random_complex(6, 0.4 + 0.02 * (seed % 10), seed)
        t = table(d)
        leray, _ = leray_dimension(t)
        helly, _ = helly_dimension(t)
        hom, _ = hom_dimension_betti(t)
        assert leray >= helly
        assert leray >= hom
        assert helly == helly_dimension_direct(d)
        assert leray == leray_dimension_direct(d, GF2)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_helly_agreement_at_several_primes(self, p):
        for seed in range(10):
            d = random_complex(6, 0.5, seed)
            value, _ = helly_dimension(table(d, p))
            assert value == helly_dimension_direct(d)

    @pytest.mark.parametrize("seed", range(10))
    def test_leray_monotone_under_restriction(self, seed):
        d = random_complex(5, 0.5, seed)
        bound, _ = leray_dimension(table(d))
        for bits in range(1, 32):
            r = restrict(d, VertexSet(bits, 5))
            if r.facets:
                value, _ = leray_dimension(table(r))
                assert value <= bound

    @pytest.mark.parametrize("seed", range(15))
    def test_clique_complexes_are_exactly_helly_at_most_one(self, seed):
        d = random_complex(6, 0.45, seed)
        value, _ = helly_dimension(table(d))
        assert is_clique_complex(d) == (value <= 1)

    def test_gap_witnesses_grow_without_bound(self):
        for i in range(5):
            report = full_report(cone_of_cross_polytope(i), GF2)
            assert report.leray - report.helly == i
            assert report.leray - report.homological_betti == i + 1

    def test_hollow_simplex_five(self):
        report = full_report(hollow_simplex(5), GF2)
        assert report.leray == 4
        assert report.helly == 4
