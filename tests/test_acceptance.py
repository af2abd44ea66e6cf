"""Acceptance gate: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines.
Every expected value is exact; the elapsed-time ceilings are part of the
contract and are asserted, not just reported.
"""

import time
from contextlib import contextmanager

from codedim.betti import hochster_table, level_ranks, table_to_m2
from codedim.complexes import VertexSet, complex_of_code
from codedim.dimensions import full_report, helly_dimension, hom_dimension_betti
from codedim.generators import (
    complete_bipartite_clique,
    cone_of_cross_polytope,
    cross_polytope,
    code_l26,
    full_simplex,
)
from codedim.linalg import PrimeField
from codedim.oracle import run_oracle_suite

GF2 = PrimeField(2)


@contextmanager
def verdict(criterion: str, budget_seconds: float):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"acceptance {criterion}: FAIL")
        raise
    elapsed = time.perf_counter() - started
    if elapsed > budget_seconds:
        print(f"acceptance {criterion}: FAIL (took {elapsed:.2f}s > {budget_seconds}s)")
        raise AssertionError(
            f"criterion {criterion} exceeded its {budget_seconds}s budget: {elapsed:.2f}s"
        )
    print(f"acceptance {criterion}: PASS ({elapsed:.2f}s <= {budget_seconds}s)")


def table_entries(table):
    return {(i, sigma.binary()): beta for i, sigma, beta in table.items()}


def test_criterion_1_square_table():
    with verdict("1 (square Betti table)", 1.0):
        table = hochster_table(cross_polytope(1), GF2)
        assert table_entries(table) == {
            (0, "0000"): 1,
            (1, "1100"): 1,
            (1, "0011"): 1,
            (2, "1111"): 1,
        }


def test_criterion_2_octahedron():
    with verdict("2 (octahedron)", 1.0):
        octahedron = cross_polytope(2)
        table = hochster_table(octahedron, GF2)
        assert table_entries(table) == {
            (0, "000000"): 1,
            (1, "110000"): 1,
            (1, "001100"): 1,
            (1, "000011"): 1,
            (2, "111100"): 1,
            (2, "110011"): 1,
            (2, "001111"): 1,
            (3, "111111"): 1,
        }
        assert full_report(octahedron, GF2).as_tuple() == (3, 1, 3)


def test_criterion_3_cone_over_square():
    with verdict("3 (cone over square)", 1.0):
        d = cone_of_cross_polytope(1)
        table = hochster_table(d, GF2)
        assert table_entries(table) == {
            (0, "00000"): 1,
            (1, "11000"): 1,
            (1, "00110"): 1,
            (2, "11110"): 1,
        }
        report = full_report(d, GF2)
        assert report.as_tuple() == (2, 1, 0)
        assert report.homological_unreduced == 1
        reference_block = (
            "BettiTally{"
            "(0, {0, 0, 0, 0, 0}, 0) => 1 "
            "(1, {1, 1, 0, 0, 0}, 2) => 1 "
            "(1, {0, 0, 1, 1, 0}, 2) => 1 "
            "(2, {1, 1, 1, 1, 0}, 4) => 1"
            "}"
        )
        assert "".join(table_to_m2(table).split()) == "".join(
            reference_block.split()
        )


def test_criterion_4_l26_code():
    with verdict("4 (L26 code)", 1.0):
        report = full_report(complex_of_code(code_l26()), GF2)
        assert report.leray == 2
        assert report.helly == 2
        assert report.homological_unreduced == 1
        assert report.homological_betti == 0


def test_criterion_5_complete_bipartite():
    with verdict("5 (K_{4,4})", 5.0):
        d = complete_bipartite_clique(4)
        assert level_ranks(hochster_table(d, GF2)) == [1, 12, 52, 102, 100, 48, 9]
        assert full_report(d, GF2).as_tuple() == (2, 1, 2)


def test_criterion_6_family_laws_and_gap():
    with verdict("6 (family laws, gap witness)", 30.0):
        for i in range(5):
            table = hochster_table(cross_polytope(i), GF2)
            assert helly_dimension(table)[0] == 1
            assert hom_dimension_betti(table)[0] == i + 1
        for i in range(4):
            report = full_report(cone_of_cross_polytope(i), GF2)
            assert (report.leray, report.helly) == (i + 1, 1)
            assert report.leray - report.helly == i
        started = time.perf_counter()
        report = full_report(cone_of_cross_polytope(4), GF2)
        cone4_elapsed = time.perf_counter() - started
        assert (report.leray, report.helly) == (5, 1)
        assert report.leray - report.helly == 4
        assert cone4_elapsed < 30.0, f"cone_4 report took {cone4_elapsed:.2f}s"


def test_criterion_7_property_suite():
    with verdict("7 (200-trial property suite)", 60.0):
        summary = run_oracle_suite(200, n=7, seed=2026)
        assert summary.failures == []
        assert all(count == 200 for count in summary.passes.values())


def test_full_simplex_13_single_entry():
    with verdict("full simplex n=13 (table route skips cones)", 1.0):
        table = hochster_table(full_simplex(13), GF2)
        assert table.entries() == {(0, VertexSet.empty(13)): 1}
