import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.domains import GF
from sympy.polys.matrices import DomainMatrix

from codedim import linalg
from codedim.errors import InputError
from codedim.linalg import PrimeField, rank_array, rank_gf2, reduce_gf2


def sympy_rank(a: np.ndarray, p: int) -> int:
    """Independent rank oracle over GF(p)."""
    dom = GF(p)
    rows, cols = a.shape
    m = DomainMatrix([[dom(int(x)) for x in row] for row in a], (rows, cols), dom)
    return m.rank()


def column_ints(a: np.ndarray) -> list[int]:
    """Each column as an int with bit i set when row i is odd."""
    return [
        sum(1 << i for i in range(a.shape[0]) if a[i, j] % 2)
        for j in range(a.shape[1])
    ]


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

    def test_cap_checked_before_primality(self, monkeypatch):
        # Trial division of a Mersenne prime this large would not finish.
        is_prime = linalg._is_prime

        def small_only(p):
            assert p < 1 << 16, f"primality tested for {p} above the cap"
            return is_prime(p)

        monkeypatch.setattr(linalg, "_is_prime", small_only)
        with pytest.raises(InputError, match="cap"):
            PrimeField(2**61 - 1)

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


class TestRankGF2:
    def test_no_columns(self):
        assert rank_gf2([]) == 0

    def test_zero_columns(self):
        assert rank_gf2([0, 0, 0]) == 0

    def test_repeated_and_summed_columns(self):
        # the third column is the XOR of the first two
        assert rank_gf2([0b011, 0b110, 0b101, 0b011]) == 2

    def test_columns_wider_than_a_machine_word(self):
        cols = [1 << 100, (1 << 100) | 1, 1, (1 << 200) | (1 << 64)]
        assert rank_gf2(cols) == 3

    def test_pivot_rows_are_the_highest_bits_after_reduction(self):
        # 0b110 reduces against 0b011 to 0b101, whose pivot row is 2
        assert set(reduce_gf2([0b011, 0b110, 0b101])) == {1, 2}

    def test_select_and_cleared(self):
        cols = [0b001, 0b010, 0b100, 0b111]
        assert set(reduce_gf2(cols, [1, 3])) == {1, 2}
        assert set(reduce_gf2(cols, [0, 1, 2, 3], cleared={0, 3})) == {1, 2}


class TestRankProperties:
    # Shapes from 1 to 70 give packed columns of more than one 64-bit word.
    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.integers(1, 70),
        cols=st.integers(1, 70),
        density=st.sampled_from([0.05, 0.3, 0.5, 0.9]),
        seed=st.integers(0, 2**31),
    )
    def test_packed_gf2_matches_sympy(self, rows, cols, density, seed):
        rng = np.random.default_rng(seed)
        a = (rng.random((rows, cols)) < density).astype(np.int64)
        expected = sympy_rank(a, 2)
        assert rank_gf2(column_ints(a)) == expected
        assert rank_array(a, 2) == expected

    @settings(max_examples=40, deadline=None)
    @given(
        rows=st.integers(1, 70),
        cols=st.integers(1, 70),
        seed=st.integers(0, 2**31),
    )
    def test_signed_int8_at_two_matches_sympy(self, rows, cols, seed):
        # boundary matrices carry -1 entries, which are 1 mod 2
        rng = np.random.default_rng(seed)
        a = rng.integers(-1, 2, size=(rows, cols), dtype=np.int8)
        assert rank_array(a, 2) == sympy_rank(a, 2)


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



def boundary_like(rng, rows: int, cols: int) -> np.ndarray:
    """int8 columns with up to four +-1 entries each, as in a boundary map."""
    a = np.zeros((rows, cols), dtype=np.int8)
    for j in range(cols):
        hits = rng.choice(rows, size=min(rows, int(rng.integers(0, 5))), replace=False)
        a[hits, j] = rng.choice(np.array([-1, 1], dtype=np.int8), size=hits.size)
    return a


class TestSparseOddPrimeKernel:
    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.integers(1, 70),
        cols=st.integers(1, 70),
        p=st.sampled_from([3, 5, 7, 65521]),
        boundary=st.booleans(),
        seed=st.integers(0, 2**31),
    )
    def test_matches_sympy(self, rows, cols, p, boundary, seed):
        rng = np.random.default_rng(seed)
        if boundary:
            a = boundary_like(rng, rows, cols)
        else:
            a = rng.integers(-(2**40), 2**40, size=(rows, cols), dtype=np.int64)
        before = a.copy()
        assert rank_array(a, p) == sympy_rank(a, p)
        assert np.array_equal(a, before)

    def test_rows_that_cancel_to_zero(self):
        # the second column is twice the first; the third vanishes mod 3 only
        a = np.array([[1, 2, 3], [2, 4, 0], [0, 0, 0]], dtype=np.int64)
        assert rank_array(a, 3) == 1
        assert rank_array(a, 5) == 2

    def test_read_only_and_strided_input(self):
        rng = np.random.default_rng(7)
        a = boundary_like(rng, 40, 50)
        a.flags.writeable = False
        expected = sympy_rank(a, 3)
        assert rank_array(a, 3) == expected
        assert rank_array(a.T, 3) == expected
        assert rank_array(a[::2, 1::3], 3) == sympy_rank(a[::2, 1::3], 3)

    @pytest.mark.parametrize("p", [3, 5])
    def test_ix_slices_of_a_chain_map(self, p):
        # The table route ranks np.ix_ slices of a chain_data map on
        # rows and columns that are not ranges.
        from codedim.generators import cross_polytope
        from codedim.homology import chain_data

        _, boundaries = chain_data(cross_polytope(3)._face_bits())
        rng = np.random.default_rng(p)
        for c in range(2, len(boundaries)):
            full = boundaries[c]
            n_rows, n_cols = full.shape
            for _ in range(10):
                rows = np.sort(rng.choice(n_rows, size=n_rows // 2, replace=False))
                cols = np.sort(rng.choice(n_cols, size=n_cols // 2, replace=False))
                sliced = full[np.ix_(rows, cols)]
                assert rank_array(sliced, p) == sympy_rank(sliced, p)
