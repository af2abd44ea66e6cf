import gc
import json
import tracemalloc

import pytest

from codedim.betti import (
    BettiTable,
    hochster_table,
    lcm_lattice,
    level_ranks,
    r_values,
    table_from_json,
    table_to_json,
    table_to_m2,
)
from codedim.complexes import (
    SimplicialComplex,
    VertexSet,
    complex_of_code,
    minimal_nonfaces,
    restrict,
)
from codedim.errors import GuardError, InputError, VoidComplexError
from codedim.generators import (
    complete_bipartite_clique,
    cone_of_cross_polytope,
    cross_polytope,
    full_simplex,
    code_l26,
    projective_plane,
    random_complex,
)
from codedim.homology import chain_data
from codedim.linalg import PrimeField, rank_array
from codedim.oracle import _DENSITIES, _euler_mismatch

from test_homology import profile_from_counts_and_ranks

GF2 = PrimeField(2)


def exhaustive_table(d, field):
    """Reference: all 2^n subsets, each selecting the columns it contains."""
    by_card, boundaries = chain_data(d._face_bits())
    entries = {}
    for sigma in range(1 << d.n):
        counts, masks = [], []
        for arr in by_card:
            mask = (arr & ~sigma) == 0
            if not mask.any():
                break
            counts.append(int(mask.sum()))
            masks.append(mask)
        ranks = [0] + [
            rank_array(boundaries[c][:, masks[c]], field.p)
            for c in range(1, len(counts))
        ]
        dims = profile_from_counts_and_ranks(counts, ranks, field).dims
        for k, beta in dims.items():
            entries[(sigma.bit_count() - k - 1, VertexSet(sigma, d.n))] = beta
    return BettiTable(d.n, field, entries)


def euler_defects(d, table):
    """sigma -> signed face count inside sigma minus the table's alternating sum.

    By Hochster's formula sum_i (-1)^(|sigma|-i-1) beta_{i,sigma} is
    chi~(d|sigma), the signed count of the faces inside sigma with the
    empty one included, so only nonzero defects are returned.
    """
    faces = d._face_bits()
    defects = {}
    for sigma in range(1 << d.n):
        chi = sum(1 - 2 * ((b.bit_count() - 1) & 1) for b in faces if b & ~sigma == 0)
        if chi:
            defects[sigma] = chi
    for i, sigma, beta in table.items():
        defects[sigma.bits] = defects.get(sigma.bits, 0) - (
            1 - 2 * ((len(sigma) - i - 1) & 1)
        ) * beta
    return {sigma: v for sigma, v in defects.items() if v}


def assert_euler_check_agrees(d, table):
    """The oracle's check names the first grading euler_defects finds, or None."""
    defects = euler_defects(d, table)
    expected = (table.field, min(defects)) if defects else None
    assert _euler_mismatch(d, [table]) == expected


def entries_of(table):
    return {(i, sigma.binary()): beta for i, sigma, beta in table.items()}


class TestHochsterTable:
    def test_square(self):
        table = hochster_table(cross_polytope(1), GF2)
        assert entries_of(table) == {
            (0, "0000"): 1,
            (1, "1100"): 1,
            (1, "0011"): 1,
            (2, "1111"): 1,
        }

    def test_octahedron(self):
        table = hochster_table(cross_polytope(2), GF2)
        assert entries_of(table) == {
            (0, "000000"): 1,
            (1, "110000"): 1,
            (1, "001100"): 1,
            (1, "000011"): 1,
            (2, "111100"): 1,
            (2, "110011"): 1,
            (2, "001111"): 1,
            (3, "111111"): 1,
        }

    def test_full_simplex_only_step_zero(self):
        table = hochster_table(full_simplex(3), GF2)
        assert entries_of(table) == {(0, "000"): 1}

    def test_void_complex_refused(self):
        # no void complex reaches the table: from_faces refuses it
        with pytest.raises(VoidComplexError):
            SimplicialComplex.from_faces(3, [])

    def test_guard_refusal_mentions_subset_count(self):
        with pytest.raises(GuardError, match="2097152"):
            hochster_table(full_simplex(21), GF2)

    def test_missing_vertices_appear_at_step_one(self):
        d = SimplicialComplex.from_faces(4, [0b0011])
        table = hochster_table(d, GF2)
        assert table.beta(1, VertexSet.parse("0010", 4)) == 1
        assert table.beta(1, VertexSet.parse("0001", 4)) == 1

    def test_entry_order_is_step_then_size_then_pattern(self):
        table = hochster_table(cross_polytope(2), GF2)
        keys = [(i, len(s), s.bits) for i, s, _ in table.items()]
        assert keys == sorted(keys)

    @pytest.mark.parametrize("n,seeds", [(4, range(30)), (5, range(20))])
    def test_step_one_is_exactly_the_minimal_nonfaces(self, n, seeds):
        for seed in seeds:
            d = random_complex(n, 0.45, seed)
            table = hochster_table(d, GF2)
            step_one = {s for i, s, _ in table.items() if i == 1}
            assert step_one == set(minimal_nonfaces(d))
            assert all(b == 1 for i, _, b in table.items() if i == 1)

    def test_grading_degree_bound(self):
        for seed in range(15):
            d = random_complex(6, 0.5, seed)
            for i, sigma, _ in hochster_table(d, GF2).items():
                if i >= 1:
                    r = restrict(d, sigma)
                    assert len(sigma) - i - 1 <= r.dimension()

    @pytest.mark.parametrize("seed", range(10))
    def test_locality_under_restriction(self, seed):
        d = random_complex(6, 0.5, seed)
        window = VertexSet(0b011011, 6)
        table = hochster_table(d, GF2)
        sub_table = hochster_table(restrict(d, window), GF2)
        inside = lambda t: {
            (i, s.binary()): b for i, s, b in t.items() if s <= window
        }
        assert inside(table) == inside(sub_table)

    def test_euler_identity_on_both_projective_plane_tables(self):
        d = projective_plane()
        gf2, gf3 = (hochster_table(d, PrimeField(p)) for p in (2, 3))
        assert gf2 != gf3
        assert euler_defects(d, gf2) == {}
        assert euler_defects(d, gf3) == {}
        assert_euler_check_agrees(d, gf2)
        assert_euler_check_agrees(d, gf3)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_euler_identity_on_every_grading(self, p):
        for seed in range(12):
            d = random_complex(6, _DENSITIES[seed % len(_DENSITIES)], seed)
            table = hochster_table(d, PrimeField(p))
            assert euler_defects(d, table) == {}
            assert_euler_check_agrees(d, table)

    def test_euler_identity_sees_a_misplaced_step(self):
        table = hochster_table(projective_plane(), GF2)
        shifted = BettiTable(
            table.n, GF2, {(i + 1, s): b for i, s, b in table.items() if i}
            | {(0, VertexSet.empty(table.n)): 1}
        )
        assert euler_defects(projective_plane(), shifted)
        assert_euler_check_agrees(projective_plane(), shifted)

    def test_field_characteristic_matters_structurally(self):
        # the table is well defined at every prime and keeps the step-0 entry
        d = complete_bipartite_clique(3)
        for p in (2, 3, 5):
            table = hochster_table(d, PrimeField(p))
            assert table.beta(0, VertexSet.empty(6)) == 1


class TestRValues:
    def test_square_values(self):
        values = sorted(v.value for v in r_values(hochster_table(cross_polytope(1), GF2)))
        assert values == [1, 1, 2]

    def test_cone_over_square(self):
        table = hochster_table(cone_of_cross_polytope(1), GF2)
        by_entry = {(v.i, v.sigma.binary()): v.value for v in r_values(table)}
        assert by_entry == {
            (1, "11000"): 1,
            (1, "00110"): 1,
            (2, "11110"): 2,
        }

    def test_full_simplex_empty(self):
        assert r_values(hochster_table(full_simplex(3), GF2)) == frozenset()


class TestLevelRanks:
    def test_bipartite_four(self):
        table = hochster_table(complete_bipartite_clique(4), GF2)
        assert level_ranks(table) == [1, 12, 52, 102, 100, 48, 9]

    def test_square(self):
        assert level_ranks(hochster_table(cross_polytope(1), GF2)) == [1, 2, 1]

    def test_full_simplex(self):
        assert level_ranks(hochster_table(full_simplex(3), GF2)) == [1]

    def test_bipartite_two_matches_square_up_to_relabeling(self):
        a = level_ranks(hochster_table(complete_bipartite_clique(2), GF2))
        b = level_ranks(hochster_table(cross_polytope(1), GF2))
        assert a == b


class TestSerialization:
    def test_json_roundtrip_is_byte_identical(self):
        table = hochster_table(complex_of_code(code_l26()), GF2)
        text = table_to_json(table)
        assert json.dumps(json.loads(text), indent=2, sort_keys=True) == text
        assert table_from_json(text) == table

    def test_json_rejects_garbage(self):
        # One test id for every malformed document: a missing key, text
        # that is not JSON, a number where a grading goes, a word for a step,
        # nesting too deep to decode, and numbers too large for an int.
        for text in (
            '{"n": 3}',
            "not json",
            '{"n": 1, "field": 2, "entries": [{"i": 0, "sigma": 0, "beta": 1}]}',
            '{"n": 1, "field": 2, "entries": [{"i": "x", "sigma": "0", "beta": 1}]}',
            "[" * 10**5,
            '{"n": 1, "field": 2, "entries": [{"i": 0, "sigma": "1", "beta": 1e400}]}',
            '{"n": 1, "field": 2, "entries": [{"i": 1e400, "sigma": "1", "beta": 1}]}',
        ):
            with pytest.raises(InputError):
                table_from_json(text)

    @pytest.mark.parametrize(
        "text, direct",
        [
            ('{"n": 1, "field": 4, "entries": []}', lambda: PrimeField(4)),
            (
                '{"n": 2, "field": 2, "entries": [{"i": 0, "sigma": "1x", "beta": 1}]}',
                lambda: VertexSet.parse("1x", 2),
            ),
        ],
        ids=["field-4", "bad-sigma"],
    )
    def test_json_passes_input_errors_through(self, text, direct):
        with pytest.raises(InputError) as expected:
            direct()
        with pytest.raises(InputError) as raised:
            table_from_json(text)
        assert str(raised.value) == str(expected.value)

    def test_m2_block_for_cone_over_square(self):
        table = hochster_table(cone_of_cross_polytope(1), GF2)
        lines = table_to_m2(table).splitlines()
        assert lines[0] == "BettiTally{"
        assert lines[-1] == "}"
        assert [ln.strip() for ln in lines[1:-1]] == [
            "(0, {0, 0, 0, 0, 0}, 0) => 1",
            "(1, {1, 1, 0, 0, 0}, 2) => 1",
            "(1, {0, 0, 1, 1, 0}, 2) => 1",
            "(2, {1, 1, 1, 1, 0}, 4) => 1",
        ]


class TestTableValidation:
    def test_rejects_nonpositive_beta(self):
        with pytest.raises(InputError):
            BettiTable(2, GF2, {(0, VertexSet.empty(2)): 1, (1, VertexSet.full(2)): 0})

    def test_requires_step_zero_anchor(self):
        with pytest.raises(InputError):
            BettiTable(2, GF2, {(1, VertexSet.full(2)): 1})

    def test_rejects_step_outside_grading_range(self):
        with pytest.raises(InputError):
            BettiTable(
                2, GF2, {(0, VertexSet.empty(2)): 1, (3, VertexSet.full(2)): 1}
            )

    def test_rejects_a_grading_on_another_ambient(self):
        with pytest.raises(InputError, match="ambient"):
            BettiTable(2, GF2, {(0, VertexSet.empty(2)): 1, (1, VertexSet(1, 3)): 1})

    def test_rejects_a_nonzero_step_on_the_empty_grading(self):
        with pytest.raises(InputError, match="empty grading"):
            BettiTable(
                2, GF2, {(0, VertexSet.empty(2)): 1, (1, VertexSet.empty(2)): 1}
            )



class TestPackedTable:
    def test_full_set_of_24_vertices_survives_json_and_m2(self):
        n = 24
        top = VertexSet.full(n)
        table = BettiTable(
            n,
            PrimeField(3),
            {
                (0, VertexSet.empty(n)): 1,
                (1, VertexSet(1 << (n - 1), n)): 2,
                (n, top): (1 << 64) - 1,
            },
        )
        assert list(table.items())[-1] == (n, top, (1 << 64) - 1)
        assert table.max_step() == n
        again = table_from_json(table_to_json(table))
        assert again == table
        assert table_to_json(again) == table_to_json(table)
        assert table_to_m2(again) == table_to_m2(table)
        assert table_to_m2(table).splitlines()[-2].endswith(
            f"({n}, {{{', '.join('1' * n)}}}, {n}) => {(1 << 64) - 1}"
        )

    def test_beta_above_the_word_refused(self):
        with pytest.raises(InputError):
            BettiTable(
                2, GF2, {(0, VertexSet.empty(2)): 1, (1, VertexSet(1, 2)): 1 << 64}
            )

    def test_absent_keys_read_zero(self):
        table = hochster_table(cross_polytope(1), GF2)
        full = VertexSet.full(4)
        assert table.beta(2, full) == 1
        assert table.beta(1, full) == 0
        assert table.beta(0, VertexSet(0b0011, 4)) == 0
        # past the last key, and before the first one
        assert table.beta(3, full) == 0
        assert table.beta(99, full) == 0
        assert table.beta(-1, VertexSet.empty(4)) == 0
        # the same pattern in another ambient
        assert table.beta(0, VertexSet.empty(5)) == 0

    def test_equality_ignores_insertion_order(self):
        table = hochster_table(cross_polytope(2), GF2)
        entries = table.entries()
        assert entries == {(i, s): b for i, s, b in table.items()}
        reordered = dict(reversed(list(entries.items())))
        rebuilt = BettiTable(table.n, GF2, reordered)
        assert rebuilt == table
        assert rebuilt.entries() == reordered
        assert list(rebuilt.items()) == list(table.items())
        assert rebuilt != BettiTable(table.n, PrimeField(3), reordered)

    def test_items_sort_by_step_then_size_then_pattern(self):
        n = 4
        entries = {
            (2, VertexSet(0b0111, n)): 1,
            (1, VertexSet(0b1000, n)): 1,
            (1, VertexSet(0b0011, n)): 1,
            (1, VertexSet(0b0100, n)): 1,
            (0, VertexSet.empty(n)): 1,
            (2, VertexSet(0b1100, n)): 1,
        }
        order = [(i, s.bits) for i, s, _ in BettiTable(n, GF2, entries).items()]
        assert order == [
            (0, 0),
            (1, 0b0100),
            (1, 0b1000),
            (1, 0b0011),
            (2, 0b1100),
            (2, 0b0111),
        ]

    def test_retained_bytes_per_entry(self):
        # A dict of (i, VertexSet) keys held about 150 bytes an entry.
        d = random_complex(10, 0.01, 1)
        hochster_table(d, PrimeField(3))
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            table = hochster_table(d, PrimeField(3))
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(table) >= 500
        assert held < 64 * len(table)


class TestLatticeSweep:
    def test_square_lattice(self):
        lattice = lcm_lattice(cross_polytope(1))
        assert {VertexSet(b, 4).binary() for b in lattice} == {
            "0000", "1100", "0011", "1111"
        }

    def test_full_simplex_lattice_is_the_empty_set(self):
        assert lcm_lattice(full_simplex(5)) == {0}

    # A clearing key shifted by one row changes a rank in only a few
    # restrictions; the random complexes at n = 9 and 10 have some.
    @pytest.mark.parametrize(
        "name,p",
        [("K_4,4", p) for p in (2, 3, 5)]
        + [("cone_4", p) for p in (2, 3, 5)]
        + [("cross_5", 2), ("random_9", 2), ("random_10", 2)],
    )
    def test_fixture_tables_match_exhaustive_sweep(self, name, p):
        d = {
            "K_4,4": lambda: complete_bipartite_clique(4),
            "cone_4": lambda: cone_of_cross_polytope(4),
            "cross_5": lambda: cross_polytope(5),
            "random_9": lambda: random_complex(9, 0.3, 1),
            "random_10": lambda: random_complex(10, 0.3, 3),
        }[name]()
        field = PrimeField(p)
        assert table_to_json(hochster_table(d, field)) == table_to_json(
            exhaustive_table(d, field)
        )

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_oracle_seed_tables_match_exhaustive_sweep(self, p):
        field = PrimeField(p)
        for seed in range(60):
            d = random_complex(7, _DENSITIES[seed % len(_DENSITIES)], seed)
            assert table_to_json(hochster_table(d, field)) == table_to_json(
                exhaustive_table(d, field)
            ), seed
