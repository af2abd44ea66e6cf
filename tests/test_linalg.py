import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.domains import GF
from sympy.polys.matrices import DomainMatrix

from codedim.errors import InputError
from codedim.linalg import PrimeField, rank_array


def sympy_rank(a: np.ndarray, p: int) -> int:
    """Independent rank oracle over GF(p)."""
    dom = GF(p)
    rows, cols = a.shape
    m = DomainMatrix([[dom(int(x)) for x in row] for row in a], (rows, cols), dom)
    return m.rank()


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


# One entry per GF(p) rank kernel; the id names the kernel.
@pytest.mark.parametrize("kernel", [rank_array], ids=["numpy"])
class TestRankExamples:
    def test_identity(self, kernel):
        assert kernel(np.array([[1, 0], [0, 1]]), 2) == 2

    def test_hollow_triangle_boundary(self, kernel):
        # edge->vertex map of the triangle boundary; hand reduction gives 2
        assert kernel(np.array([[1, 1, 0], [1, 0, 1], [0, 1, 1]]), 2) == 2

    def test_zero_matrix(self, kernel):
        assert kernel(np.zeros((4, 7), dtype=np.int64), 2) == 0

    def test_degenerate_shapes(self, kernel):
        for shape in ((0, 5), (5, 0), (0, 0)):
            assert kernel(np.zeros(shape, dtype=np.int64), 3) == 0

    def test_rejects_non_matrix_input(self, kernel):
        for shape in ((3,), (2, 2, 2)):
            with pytest.raises(InputError):
                kernel(np.ones(shape, dtype=np.int64), 2)

    def test_rank_depends_on_characteristic(self, kernel):
        # det = -3: drops rank at p = 3 only
        arr = np.array([[1, 2], [2, 1]])
        assert kernel(arr, 2) == 2
        assert kernel(arr, 3) == 1
        assert kernel(arr, 5) == 2

    def test_input_not_mutated(self, kernel):
        arr = np.array([[1, 2, 3], [4, 5, 6]], dtype=np.int64)
        before = arr.copy()
        kernel(arr, 5)
        assert np.array_equal(arr, before)

    def test_narrow_dtype_at_large_prime(self, kernel):
        # int8 boundary entries must be widened before reducing mod p > 127
        arr = np.array([[1, -1, 0], [0, 1, -1], [-1, 0, 1]], dtype=np.int8)
        assert kernel(arr, 131) == kernel(arr.astype(np.int64), 131) == 2


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

