import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.domains import GF
from sympy.polys.matrices import DomainMatrix

from codedim.errors import InputError
from codedim.linalg import (
    FieldMatrix,
    PrimeField,
    active_backend,
    available_backends,
    rank,
    rank_array,
    set_backend,
)


def sympy_rank(a: np.ndarray, p: int) -> int:
    """Independent rank oracle over GF(p)."""
    dom = GF(p)
    rows, cols = a.shape
    m = DomainMatrix([[dom(int(x)) for x in row] for row in a], (rows, cols), dom)
    return m.rank()


@pytest.fixture(params=available_backends())
def backend(request):
    previous = active_backend()
    set_backend(request.param)
    yield request.param
    set_backend(previous)


class TestPrimeField:
    def test_accepts_small_primes(self):
        for p in (2, 3, 5, 7, 65521):
            assert PrimeField(p).p == p

    def test_rejects_composites_and_units(self):
        for bad in (0, 1, 4, 9, 15):
            with pytest.raises(InputError):
                PrimeField(bad)

    def test_rejects_huge_characteristic(self):
        with pytest.raises(InputError):
            PrimeField(65537)

    def test_str(self):
        assert str(PrimeField(3)) == "GF(3)"


class TestRankExamples:
    def test_identity(self, backend):
        m = FieldMatrix.from_rows([[1, 0], [0, 1]])
        assert rank(m, PrimeField(2)) == 2

    def test_hollow_triangle_boundary(self, backend):
        # edge->vertex map of the triangle boundary; hand reduction gives 2
        m = FieldMatrix.from_rows([[1, 1, 0], [1, 0, 1], [0, 1, 1]])
        assert rank(m, PrimeField(2)) == 2

    def test_zero_matrix(self, backend):
        assert rank(FieldMatrix(4, 7), PrimeField(2)) == 0

    def test_degenerate_shapes(self, backend):
        assert rank(FieldMatrix(0, 5), PrimeField(3)) == 0
        assert rank(FieldMatrix(5, 0), PrimeField(3)) == 0
        assert rank(FieldMatrix(0, 0), PrimeField(3)) == 0

    def test_rank_depends_on_characteristic(self, backend):
        # det = -3: drops rank at p = 3 only
        arr = np.array([[1, 2], [2, 1]])
        assert rank_array(arr, 2) == 2
        assert rank_array(arr, 3) == 1
        assert rank_array(arr, 5) == 2

    def test_input_not_mutated(self, backend):
        arr = np.array([[1, 2, 3], [4, 5, 6]], dtype=np.int64)
        before = arr.copy()
        rank_array(arr, 5)
        assert np.array_equal(arr, before)

    def test_narrow_dtype_at_large_prime(self, backend):
        # int8 boundary entries must be widened before reducing mod p > 127
        arr = np.array([[1, -1, 0], [0, 1, -1], [-1, 0, 1]], dtype=np.int8)
        assert rank_array(arr, 131) == rank_array(arr.astype(np.int64), 131) == 2


class TestRankProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.integers(1, 6),
        cols=st.integers(1, 6),
        p=st.sampled_from([2, 3, 5]),
        seed=st.integers(0, 2**31),
    )
    def test_matches_sympy(self, rows, cols, p, seed):
        rng = np.random.default_rng(seed)
        a = rng.integers(0, p, size=(rows, cols), dtype=np.int64)
        assert rank_array(a, p) == sympy_rank(a, p)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**31), p=st.sampled_from([2, 3, 5]))
    def test_permutation_invariance(self, seed, p):
        rng = np.random.default_rng(seed)
        a = rng.integers(0, p, size=(5, 7), dtype=np.int64)
        base = rank_array(a, p)
        shuffled = a[rng.permutation(5)][:, rng.permutation(7)]
        assert rank_array(shuffled, p) == base

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**31))
    def test_rank_bounded_by_shape(self, seed):
        rng = np.random.default_rng(seed)
        rows, cols = int(rng.integers(1, 8)), int(rng.integers(1, 8))
        a = rng.integers(0, 2, size=(rows, cols), dtype=np.int64)
        assert rank_array(a, 2) <= min(rows, cols)

    def test_backends_agree(self):
        if len(available_backends()) < 2:
            pytest.skip("single backend build")
        rng = np.random.default_rng(11)
        previous = active_backend()
        try:
            for p in (2, 3, 5):
                for _ in range(30):
                    a = rng.integers(0, p, size=(6, 6), dtype=np.int64)
                    values = set()
                    for name in available_backends():
                        set_backend(name)
                        values.add(rank_array(a, p))
                    assert len(values) == 1
        finally:
            set_backend(previous)

    def test_composed_boundaries_obey_rank_nullity(self):
        # d1 o d2 = 0 forces rank d1 + rank d2 <= dim of the middle group
        from codedim.generators import cross_polytope
        from codedim.homology import chain_data

        by_card, boundaries = chain_data(cross_polytope(2)._face_bits())
        for p in (2, 3, 5):
            for c in range(1, len(boundaries) - 1):
                lower = rank_array(boundaries[c], p)
                upper = rank_array(boundaries[c + 1], p)
                assert lower + upper <= len(by_card[c])
                composed = (boundaries[c] @ boundaries[c + 1]) % p
                assert not composed.any()


class TestFieldMatrix:
    def test_shape_properties(self):
        m = FieldMatrix.from_rows([[1, 0, 1], [0, 1, 1]])
        assert (m.rows, m.cols) == (2, 3)

    def test_array_view_is_read_only(self):
        m = FieldMatrix.from_rows([[1]])
        with pytest.raises(ValueError):
            m.array()[0, 0] = 0

    def test_rejects_negative_shape(self):
        with pytest.raises(InputError):
            FieldMatrix(-1, 2)

    def test_backend_selection_guard(self):
        with pytest.raises(InputError):
            set_backend("fortran")
