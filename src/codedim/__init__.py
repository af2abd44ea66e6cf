"""Dimension bounds of combinatorial codes from multigraded Betti tables.

Build a simplicial complex from a code, sweep the reduced homology of
every induced subcomplex over a prime field, assemble the Betti table
of the Stanley-Reisner ring, and read off the Leray, Helly, and
homological dimension bounds with independent cross-checks.
"""

from .betti import (
    BettiTable,
    RValue,
    hochster_table,
    level_ranks,
    r_values,
    table_from_json,
    table_to_json,
    table_to_m2,
)
from .complexes import (
    Code,
    SimplicialComplex,
    VertexSet,
    clique_complex,
    complex_of_code,
    face_count_by_dimension,
    is_clique_complex,
    minimal_nonfaces,
    restrict,
)
from .dimensions import (
    DimensionReport,
    Witness,
    full_report,
    helly_dimension,
    helly_dimension_direct,
    hom_dimension_betti,
    hom_dimension_unreduced,
    leray_dimension,
    leray_dimension_direct,
    report_to_json,
)
from .errors import (
    CodedimError,
    ConsistencyError,
    GuardError,
    InputError,
    VoidComplexError,
)
from .generators import (
    complete_bipartite_clique,
    cone,
    cone_of_cross_polytope,
    cross_polytope,
    full_simplex,
    hollow_simplex,
    code_l26,
    random_complex,
)
from .homology import (
    ReducedHomologyProfile,
    reduced_homology,
    top_nonzero_degree,
    unreduced_homology,
)
from .linalg import PrimeField

__version__ = "0.1.0"

__all__ = [
    "BettiTable",
    "Code",
    "CodedimError",
    "ConsistencyError",
    "DimensionReport",
    "GuardError",
    "InputError",
    "PrimeField",
    "RValue",
    "ReducedHomologyProfile",
    "SimplicialComplex",
    "VertexSet",
    "VoidComplexError",
    "Witness",
    "clique_complex",
    "complete_bipartite_clique",
    "complex_of_code",
    "cone",
    "cone_of_cross_polytope",
    "cross_polytope",
    "face_count_by_dimension",
    "full_report",
    "full_simplex",
    "helly_dimension",
    "helly_dimension_direct",
    "hochster_table",
    "hollow_simplex",
    "hom_dimension_betti",
    "hom_dimension_unreduced",
    "is_clique_complex",
    "leray_dimension",
    "leray_dimension_direct",
    "level_ranks",
    "minimal_nonfaces",
    "code_l26",
    "r_values",
    "random_complex",
    "reduced_homology",
    "report_to_json",
    "restrict",
    "table_from_json",
    "table_to_json",
    "table_to_m2",
    "top_nonzero_degree",
    "unreduced_homology",
]
