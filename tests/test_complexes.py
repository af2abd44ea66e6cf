import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codedim import complexes
from codedim.complexes import (
    Code,
    SimplicialComplex,
    VertexSet,
    clique_complex,
    complex_of_code,
    face_count_by_dimension,
    is_clique_complex,
    minimal_nonfaces,
    parse_vertex_sets,
    restrict,
)
from codedim.errors import GuardError, InputError, VoidComplexError
from codedim.files import read_code
from codedim.generators import (
    complete_bipartite_clique,
    cone,
    cone_of_cross_polytope,
    cross_polytope,
    hollow_simplex,
    code_l26,
    projective_plane,
    random_complex,
)


def vs(text, n=None):
    return VertexSet.parse(text, n)


class TestVertexSet:
    def test_binary_parse_roundtrip(self):
        s = vs("1100")
        assert s.n == 4
        assert s.vertices() == (1, 2)
        assert s.binary() == "1100"
        assert s.braces() == "{1,2}"

    def test_brace_parse(self):
        assert vs("{1,2}", 4) == vs("1100")
        assert vs("{2, 4}", 4).binary() == "0101"
        assert vs("{}", 3) == VertexSet.empty(3)

    def test_brace_infers_ambient_from_max(self):
        assert vs("{3}").n == 3

    def test_parse_rejects_garbage(self):
        with pytest.raises(InputError):
            vs("10x1")
        with pytest.raises(InputError):
            vs("{1,a}", 4)
        with pytest.raises(InputError):
            vs("101", 4)
        with pytest.raises(InputError):
            vs("{}")

    def test_subset_and_ops(self):
        a, b = vs("1100"), vs("1110")
        assert a <= b and not b <= a
        assert (a | b) == b
        assert (a & b) == a
        assert 2 in a and 3 not in a

    def test_ambient_guard(self):
        with pytest.raises(GuardError):
            VertexSet(0, 25)
        with pytest.raises(GuardError):
            VertexSet(0, 0)
        with pytest.raises(InputError):
            VertexSet(0b10000, 4)

    def test_mixed_ambients_rejected(self):
        with pytest.raises(InputError):
            vs("1100") <= vs("11000")

    def test_of_checks_the_ambient_before_building_bits(self):
        tracemalloc.start()
        try:
            with pytest.raises(GuardError):
                VertexSet.of([10**8], 10**8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestParseVertexSets:
    @pytest.mark.parametrize(
        "texts, n",
        [
            (["{1,2"], None),
            (["{1,,2}"], None),
            (["10x1"], None),
            (["{}"], None),
            (["{0}"], None),
            (["{-1,3}"], None),
            (["110", "1100"], None),
            (["1100", "{5}"], None),
            ([], None),
            (["{99999999999}"], None),
            (["1" * 30], None),
            (["101"], 4),
        ],
    )
    def test_malformed_words_raise_input_or_guard_errors(self, texts, n):
        with pytest.raises((InputError, GuardError)):
            parse_vertex_sets(texts, n)

    @pytest.mark.parametrize(
        "text, n",
        [
            ("{" + "1" * 10**6, None),
            ("{" + "x" * 10**6 + "}", None),
            ("x" * 10**6, None),
            ("1" * 10**6, 4),
        ],
        ids=["unterminated", "bad-brace-set", "unparsable", "binary-length"],
    )
    def test_long_malformed_word_gives_a_short_message(self, text, n):
        with pytest.raises(InputError) as excinfo:
            parse_vertex_sets([text], n)
        message = str(excinfo.value)
        assert f"({len(text)} chars)" in message
        assert len(message) < 200

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_both_spellings_parse_back(self, data):
        n = data.draw(st.integers(1, 24))
        sets = data.draw(
            st.lists(
                st.integers(0, (1 << n) - 1).map(lambda b: VertexSet(b, n)),
                min_size=1,
                max_size=8,
            )
        )
        for s in sets:
            assert VertexSet.parse(s.binary()) == s
            assert VertexSet.parse(s.braces(), n) == s
        texts = [
            s.binary() if data.draw(st.booleans()) else s.braces() for s in sets
        ]
        texts = data.draw(st.permutations(texts))
        expected = Code(n, frozenset(sets))
        assert Code.of(texts, n) == expected
        if any(not t.startswith("{") for t in texts):
            assert Code.of(texts) == expected


class TestCode:
    def test_codeword_ambients_must_agree(self):
        with pytest.raises(InputError):
            Code(3, frozenset({VertexSet.parse("1100")}))

    def test_duplicates_collapse(self):
        c = Code.of(["1100", "1100", "0011"])
        assert len(c) == 2

    def test_inconsistent_lengths_rejected(self):
        with pytest.raises(InputError):
            Code.of(["110", "1100"])


class TestComplexOfCode:
    def test_l26_facets(self):
        d = complex_of_code(code_l26())
        assert {f.binary() for f in d.facets} == {"1110", "1011", "0111"}

    def test_empty_word_only_gives_irrelevant_complex(self):
        d = complex_of_code(Code.of(["{}"], n=3))
        assert not d.facets
        assert d == SimplicialComplex.irrelevant(3)

    def test_maximal_word_extraction(self):
        d = complex_of_code(Code.of(["1100", "1000", "0100", "0000"]))
        assert {f.binary() for f in d.facets} == {"1100"}

    def test_empty_code_gives_void(self, tmp_path):
        # the void complex is refused where it would be built
        with pytest.raises(VoidComplexError, match="void"):
            complex_of_code(Code(3, frozenset()))
        path = tmp_path / "code.txt"
        path.write_text("n=4\n", encoding="utf-8")
        with pytest.raises(VoidComplexError, match="void"):
            complex_of_code(read_code(path))

    def test_irrelevant_complex_still_built(self):
        irrelevant = SimplicialComplex.irrelevant(4)
        assert SimplicialComplex.from_faces(4, [0]) == irrelevant
        assert restrict(cross_polytope(1), VertexSet.empty(4)) == irrelevant
        assert restrict(irrelevant, VertexSet.empty(4)) == irrelevant
        assert VertexSet.empty(4) in irrelevant
        assert irrelevant.dimension() == -1
        assert cone(irrelevant) == SimplicialComplex.from_faces(5, [0b10000])

    def test_every_word_is_a_face(self):
        code = code_l26()
        d = complex_of_code(code)
        assert all(w in d for w in code.words)


class TestRestrict:
    def test_l26_restriction_is_hollow_triangle(self):
        d = complex_of_code(code_l26())
        r = restrict(d, VertexSet.of([1, 2, 4], 4))
        assert {f.binary() for f in r.facets} == {"1100", "1001", "0101"}

    def test_full_set_is_identity(self):
        d = cross_polytope(2)
        assert restrict(d, VertexSet.full(6)) == d

    def test_ambient_mismatch_rejected(self):
        with pytest.raises(InputError):
            restrict(cross_polytope(1), VertexSet.full(3))

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        s_bits=st.integers(0, 63),
        t_bits=st.integers(0, 63),
    )
    def test_composition_is_intersection(self, seed, s_bits, t_bits):
        d = random_complex(6, 0.4, seed)
        s, t = VertexSet(s_bits, 6), VertexSet(t_bits, 6)
        assert restrict(restrict(d, s), t) == restrict(d, s & t)

    def test_composition_exhaustive_small(self):
        d = random_complex(4, 0.5, 7)
        for s_bits in range(16):
            for t_bits in range(16):
                s, t = VertexSet(s_bits, 4), VertexSet(t_bits, 4)
                assert restrict(restrict(d, s), t) == restrict(d, s & t)
                assert restrict(restrict(d, s), s) == restrict(d, s)


def brute_maximal(words):
    """The nonempty words that no other given word contains."""
    words = set(words)
    return {b for b in words if b and not any(b != c and b & ~c == 0 for c in words)}


def brute_faces(d):
    """Every subset of {1..n} that lies in d, tested one by one."""
    return {b for b in range(1 << d.n) if VertexSet(b, d.n) in d}


class TestCanonicalFacets:
    def test_nested_facets_collapse_to_the_maximal_one(self):
        given = SimplicialComplex(3, frozenset({VertexSet(1, 3), VertexSet(3, 3)}))
        built = SimplicialComplex.from_faces(3, [1, 3])
        assert given == built
        assert hash(given) == hash(built)
        assert given.facets == {VertexSet(3, 3)}

    def test_empty_set_is_dropped(self):
        d = SimplicialComplex(3, frozenset({VertexSet.empty(3), VertexSet(0b101, 3)}))
        assert d.facets == {VertexSet(0b101, 3)}
        assert SimplicialComplex(3, frozenset({VertexSet.empty(3)})) == (
            SimplicialComplex.irrelevant(3)
        )

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(1, 8),
        raw=st.lists(st.integers(0, (1 << 8) - 1), max_size=24),
        masks=st.lists(st.integers(0, (1 << 8) - 1), max_size=8),
    )
    def test_constructor_and_from_faces_keep_the_maximal_sets(self, n, raw, masks):
        top = (1 << n) - 1
        words = [b & top for b in raw]
        # nested sets, repeats and the empty set
        words += [w & m for w in words[:8] for m in masks] + words[:4] + [0]
        given = SimplicialComplex(n, [VertexSet(b, n) for b in words])
        built = SimplicialComplex.from_faces(n, words)
        assert given == built
        assert hash(given) == hash(built)
        assert {f.bits for f in built.facets} == brute_maximal(words)

    @pytest.mark.parametrize("ambient", [3, 7])
    def test_sets_on_another_ambient_are_refused(self, ambient):
        with pytest.raises(InputError, match="ambient"):
            SimplicialComplex.from_faces(5, [VertexSet(0b11, ambient)])
        with pytest.raises(InputError, match="ambient"):
            SimplicialComplex(5, frozenset({VertexSet.empty(ambient)}))

    def test_wider_binary_word_is_not_read_as_its_bits(self):
        with pytest.raises(InputError, match="ambient"):
            SimplicialComplex.from_faces(3, [VertexSet.parse("11000")])
        with pytest.raises(InputError, match="ambient"):
            SimplicialComplex.from_faces(5, [VertexSet.parse("110")])

    @pytest.mark.parametrize("bits", [0b1000, -1])
    def test_bit_patterns_outside_the_ambient_are_refused(self, bits):
        with pytest.raises(InputError, match="outside"):
            SimplicialComplex.from_faces(3, [0b1, bits])

    def test_all_middle_subsets_of_sixteen_vertices_are_facets(self):
        words = [
            sum(1 << v for v in c) for c in itertools.combinations(range(16), 8)
        ]
        d = SimplicialComplex.from_faces(16, words)
        assert len(d.facets) == 12_870

    @pytest.mark.parametrize(
        "d",
        [
            complex_of_code(code_l26()),
            cross_polytope(2),
            cross_polytope(3),
            complete_bipartite_clique(4),
            hollow_simplex(6),
            projective_plane(),
            cone(projective_plane()),
            SimplicialComplex.from_faces(5, [0b00011, 0b00110, 0b01100]),
            SimplicialComplex.irrelevant(4),
        ],
        ids=["l26", "cross_2", "cross_3", "K_4,4", "hollow_6", "RP2", "cone_RP2",
             "path", "irrelevant"],
    )
    def test_restriction_keeps_the_faces_inside_sigma(self, d):
        faces = brute_faces(d)
        for sigma in range(1 << d.n):
            r = restrict(d, VertexSet(sigma, d.n))
            inside = {b for b in faces if b & ~sigma == 0}
            assert r._face_bits() == inside
            assert {f.bits for f in r.facets} == brute_maximal(inside)


class TestMinimalNonfaces:
    def test_octahedron(self):
        found = minimal_nonfaces(cross_polytope(2))
        assert {s.binary() for s in found} == {"110000", "001100", "000011"}

    def test_full_simplex_has_none(self):
        assert minimal_nonfaces(SimplicialComplex.full_simplex(4)) == frozenset()

    def test_l26_single_missing_triangle(self):
        d = complex_of_code(code_l26())
        assert {s.binary() for s in minimal_nonfaces(d)} == {"1101"}

    def test_void_complex_refused(self):
        # no void complex reaches minimal_nonfaces: from_faces refuses it
        with pytest.raises(VoidComplexError, match="Stanley-Reisner"):
            SimplicialComplex.from_faces(3, iter(()))

    def test_missing_vertex_is_degree_one_generator(self):
        d = SimplicialComplex.from_faces(3, [0b011])
        assert {s.binary() for s in minimal_nonfaces(d)} == {"001"}

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), density=st.sampled_from([0.2, 0.5, 0.8]))
    def test_antichain_and_minimality(self, seed, density):
        d = random_complex(5, density, seed)
        nonfaces = minimal_nonfaces(d)
        for s in nonfaces:
            assert s not in d
            for v in s:
                smaller = VertexSet(s.bits ^ (1 << (v - 1)), s.n)
                assert smaller in d
        for a in nonfaces:
            for b in nonfaces:
                assert a == b or not a <= b


    @pytest.mark.parametrize("n", range(1, 13))
    def test_complete_against_brute_force_scan(self, n):
        fixtures = [
            complete_bipartite_clique(4),
            cone_of_cross_polytope(4),
            cross_polytope(5),
            projective_plane(),
            hollow_simplex(6),
        ]
        cases = [SimplicialComplex.irrelevant(n)]
        cases += [d for d in fixtures if d.n == n]
        for seed in range(12):
            d = random_complex(n, (0.15, 0.4, 0.7)[seed % 3], seed)
            cases.append(d)
            # dropping the vertices outside a window leaves them missing
            cases.append(restrict(d, VertexSet(seed * 37 % (1 << n), n)))
        for d in cases:
            faces = set(d._face_bits())
            expected = {
                b
                for b in range(1 << n)
                if b not in faces
                and all(b ^ (1 << u) in faces for u in range(n) if b >> u & 1)
            }
            assert {s.bits for s in minimal_nonfaces(d)} == expected


class TestCliqueComplex:
    def test_square_graph_gives_first_cross_polytope(self):
        edges = [VertexSet.of(e, 4) for e in ([1, 3], [1, 4], [2, 3], [2, 4])]
        assert clique_complex(4, edges) == cross_polytope(1)

    def test_no_edges_gives_isolated_vertices(self):
        d = clique_complex(2, [])
        assert {f.binary() for f in d.facets} == {"10", "01"}

    def test_complete_graph_gives_full_simplex(self):
        edges = [
            VertexSet.of([u, v], 4) for u in range(1, 5) for v in range(u + 1, 5)
        ]
        assert clique_complex(4, edges) == SimplicialComplex.full_simplex(4)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 8), seed=st.integers(0, 10_000), density=st.floats(0, 1))
    def test_faces_are_the_cliques_of_the_graph(self, n, seed, density):
        rng = random.Random(seed)
        pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
        edges = {pair for pair in pairs if rng.random() < density}
        d = clique_complex(n, [VertexSet.of(e, n) for e in edges])
        cliques = {
            b
            for b in range(1 << n)
            if all(pair in edges for pair in itertools.combinations(VertexSet(b, n), 2))
        }
        assert d._face_bits() == cliques
        assert {f.bits for f in d.facets} == brute_maximal(cliques)

    def test_bad_edge_rejected(self):
        with pytest.raises(InputError):
            clique_complex(4, [VertexSet.of([1, 2, 3], 4)])

    def test_ambient_checked_before_the_adjacency_list(self, monkeypatch):
        # Without the check, enumerating cliques on 10^7 vertices would hang.
        def refuse(n, adjacency):
            raise AssertionError(f"cliques enumerated on {n} vertices")

        monkeypatch.setattr(complexes, "_maximal_cliques", refuse)
        tracemalloc.start()
        try:
            with pytest.raises(GuardError):
                clique_complex(10**7, [])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_negative_ambient_rejected(self):
        with pytest.raises(GuardError):
            clique_complex(-5, [])

    @pytest.mark.parametrize("edge_n, n", [(6, 3), (3, 6)], ids=["larger", "smaller"])
    def test_edge_from_another_ambient_rejected(self, edge_n, n):
        with pytest.raises(InputError, match=f"edge on {edge_n} vertices in ambient {n}"):
            clique_complex(n, [VertexSet.of([1, 2], edge_n)])

    def test_clique_detection(self):
        assert is_clique_complex(cross_polytope(2))
        assert not is_clique_complex(complex_of_code(code_l26()))
        assert not is_clique_complex(hollow_simplex(3))

    def test_clique_detection_matches_nonface_sizes(self):
        for seed in range(25):
            d = random_complex(5, 0.4, seed)
            expected = all(len(s) <= 2 for s in minimal_nonfaces(d))
            assert is_clique_complex(d) == expected


class TestFaceCounts:
    def test_octahedron(self):
        assert face_count_by_dimension(cross_polytope(2)) == [1, 6, 12, 8]

    def test_irrelevant_complex(self):
        assert face_count_by_dimension(SimplicialComplex.irrelevant(3)) == [1]

    def test_square_against_brute_force(self):
        d = cross_polytope(1)
        brute = [0] * (d.dimension() + 2)
        for bits in range(16):
            if VertexSet(bits, 4) in d:
                brute[bits.bit_count()] += 1
        assert brute == [1, 4, 4]
        assert face_count_by_dimension(d) == brute


class TestDownwardClosure:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_membership_is_downward_closed(self, seed):
        d = random_complex(5, 0.45, seed)
        for bits in range(32):
            face = VertexSet(bits, 5)
            if face in d:
                sub = bits
                while sub:
                    sub = (sub - 1) & bits
                    assert VertexSet(sub, 5) in d

    def test_facets_are_incomparable(self):
        for seed in range(20):
            d = random_complex(6, 0.5, seed)
            facets = list(d.facets)
            for a in facets:
                for b in facets:
                    assert a == b or not a <= b
