import re

import numpy as np
import pytest

from leangrape import bench, sparse
from leangrape.models import TransmonCavityParams, build_transmon_cavity

from conftest import random_sparse_dense_pair


def sigma_x():
    return sparse.build_csr([(0, 1, 1.0), (1, 0, 1.0)], 2, 2)


def h1_fixture():
    h_static, h_controls, amps = bench.build_model("transmon_cavity", 50)
    combined = sparse.linear_combine([1.0, *amps], [h_static, *h_controls])
    return combined


class TestBuildCsr:
    def test_identity(self):
        m = sparse.build_csr([(0, 0, 1.0), (1, 1, 1.0)], 2, 2)
        assert m.nnz == 2
        assert np.allclose(m.to_dense(), np.eye(2))

    def test_duplicates_are_summed(self):
        m = sparse.build_csr([(0, 1, 1.0), (0, 1, 1.0)], 2, 2)
        assert m.nnz == 1
        assert m.values[0] == 2.0

    def test_exact_zero_sums_dropped(self):
        m = sparse.build_csr([(0, 1, 1.0), (0, 1, -1.0)], 2, 2)
        assert m.nnz == 0

    def test_out_of_range_index_rejected(self):
        with pytest.raises(sparse.SparseMatrixError):
            sparse.build_csr([(0, 2, 1.0)], 2, 2)
        with pytest.raises(sparse.SparseMatrixError):
            sparse.build_csr([(-1, 0, 1.0)], 2, 2)

    def test_column_indices_strictly_increasing_per_row(self, rng):
        m, _ = random_sparse_dense_pair(rng, 40)
        for r in range(m.n_rows):
            cols = m.col_indices[m.row_offsets[r] : m.row_offsets[r + 1]]
            assert (np.diff(cols) > 0).all()

    def test_h1_nnz_matches_dense_scan(self):
        h = h1_fixture()
        dense = h.to_dense()
        assert h.nnz == int(np.count_nonzero(dense))


class TestMatvec:
    def test_identity(self, rng):
        ident = sparse.identity_csr(5)
        v = rng.normal(size=5) + 1j * rng.normal(size=5)
        assert np.allclose(ident.matvec(v), v)

    def test_sigma_x_flips(self):
        out = sigma_x().matvec(np.array([1.0, 0.0], complex))
        assert np.allclose(out, [0.0, 1.0])

    def test_against_dense_oracle(self, rng):
        m, dense = random_sparse_dense_pair(rng, 32)
        v = rng.normal(size=32) + 1j * rng.normal(size=32)
        got = m.matvec(v)
        want = dense @ v
        bound = 1e-14 * m.one_norm() * np.linalg.norm(v)
        assert np.abs(got - want).max() <= bound

    def test_empty_rows(self):
        m = sparse.build_csr([(2, 0, 3.0)], 4, 3)
        out = m.matvec(np.array([1.0, 0, 0], complex))
        assert np.allclose(out, [0, 0, 3.0, 0])

    def test_dimension_mismatch(self):
        with pytest.raises(sparse.SparseMatrixError):
            sigma_x().matvec(np.zeros(3, complex))

    @pytest.mark.parametrize(
        "entries, shape",
        [
            ([(0, 1, 2.0 - 1j), (3, 0, 0.5j), (3, 2, -4.0)], (5, 3)),  # empty rows 1, 2, 4
            ([], (4, 6)),  # all-zero matrix
        ],
        ids=["empty_rows", "all_zero"],
    )
    def test_against_scipy_oracle(self, rng, entries, shape):
        from scipy.sparse import csr_array

        m = sparse.build_csr(entries, *shape)
        oracle = csr_array((m.values, m.col_indices, m.row_offsets), shape=shape)
        v = rng.normal(size=shape[1]) + 1j * rng.normal(size=shape[1])
        assert np.array_equal(m.matvec(v), oracle @ v)
        out = np.full(shape[0], np.nan + 0j)
        assert m.matvec(v, out=out) is out
        assert np.array_equal(out, oracle @ v)

    def test_float64_input_against_scipy_oracle(self, rng):
        from scipy.sparse import csr_array

        m, _ = random_sparse_dense_pair(rng, 16)
        oracle = csr_array((m.values, m.col_indices, m.row_offsets), shape=m.shape)
        v = rng.normal(size=16)
        assert np.array_equal(m.matvec(v), oracle @ v.astype(complex))

    def test_overlapping_out_rejected(self):
        m = sparse.identity_csr(4)
        buf = np.arange(8, dtype=complex)
        for out in (buf[:4], buf[2:6]):
            with pytest.raises(sparse.SparseMatrixError, match="overlap"):
                m.matvec(buf[:4], out=out)
        assert np.array_equal(buf, np.arange(8))
        m.matvec(buf[:4], out=buf[4:])  # adjacent halves of one buffer do not overlap
        assert np.array_equal(buf[4:], buf[:4])

    def test_out_of_wrong_dtype_or_length_rejected(self):
        with pytest.raises(ValueError):
            sigma_x().matvec(np.ones(2, complex), out=np.zeros(2))
        with pytest.raises(sparse.SparseMatrixError):
            sigma_x().matvec(np.ones(2, complex), out=np.zeros(3, complex))


class TestNorms:
    def test_one_norm_identity(self):
        assert sparse.identity_csr(4).one_norm() == 1.0

    def test_one_norm_scaled_sigma_x(self):
        a = sigma_x().scaled(-1j * 1.0)
        assert a.one_norm() == pytest.approx(1.0, abs=0)

    def test_one_norm_h1_vs_dense(self):
        a = h1_fixture().scaled(-1j * 0.1)
        dense = a.to_dense()
        want = np.abs(dense).sum(axis=0).max()
        assert a.one_norm() == pytest.approx(want, rel=1e-14)

    def test_one_norm_scaling_commutes(self, rng):
        m, _ = random_sparse_dense_pair(rng, 24)
        base = m.one_norm()
        for s in (1, 2, 7, 100, 1000):
            assert m.scaled(1.0 / s).one_norm() == pytest.approx(base / s, rel=4e-16)

    def test_max_row_nnz(self):
        diag = sparse.identity_csr(6)
        assert diag.max_row_nnz() == 1
        sx_kron_i = sparse.build_csr(
            [(0, 2, 1.0), (1, 3, 1.0), (2, 0, 1.0), (3, 1, 1.0)], 4, 4
        )
        assert sx_kron_i.max_row_nnz() == 1

    @pytest.mark.parametrize(
        "triplets,shape",
        [
            ([(0, 0, 1.0), (0, 1, 2.0)], (2, 2)),  # trailing empty row
            ([(1, 0, -1j), (1, 2, 3.0), (3, 1, 0.5)], (6, 3)),  # leading, interior, trailing
            ([(2, 2, 4.0)], (3, 3)),  # one element in the last row
            ([], (3, 2)),
        ],
    )
    def test_row_abs_sums_with_empty_rows_vs_dense(self, triplets, shape):
        m = sparse.build_csr(triplets, *shape)
        want = np.abs(m.to_dense()).sum(axis=1)
        assert np.array_equal(m.row_abs_sums(), want)

    def test_row_abs_sums_random_empty_rows_vs_dense(self, rng):
        dense = rng.normal(size=(12, 7)) + 1j * rng.normal(size=(12, 7))
        dense[[0, 4, 5, 10, 11]] = 0.0
        m = sparse.from_dense(dense)
        assert np.allclose(m.row_abs_sums(), np.abs(dense).sum(axis=1), rtol=1e-15, atol=0)

    def test_max_row_nnz_h1_vs_dense(self):
        h = h1_fixture()
        dense = h.to_dense()
        want = int((np.abs(dense) > 0).sum(axis=1).max())
        assert h.max_row_nnz() == want


class TestLinearCombine:
    def test_cancellation_empties(self):
        ident = sparse.identity_csr(3)
        out = sparse.linear_combine([1.0, -1.0], [ident, ident])
        assert out.nnz == 0

    def test_pauli_sum_nnz(self):
        sz = sparse.build_csr([(0, 0, 1.0), (1, 1, -1.0)], 2, 2)
        out = sparse.linear_combine([1.0, 1.0], [sigma_x(), sz])
        assert out.nnz == 4

    def test_h1_combination_vs_dense(self):
        h_static, h_controls, amps = bench.build_model("transmon_cavity", 50)
        combo = sparse.linear_combine(
            [-1j * 0.1, -1j * 0.1 * amps[0]], [h_static, h_controls[0]]
        )
        want = -1j * 0.1 * (h_static.to_dense() + amps[0] * h_controls[0].to_dense())
        assert np.abs(combo.to_dense() - want).max() <= 1e-13 * np.abs(want).max()

    def test_shape_mismatch(self):
        with pytest.raises(sparse.SparseMatrixError):
            sparse.linear_combine([1.0, 1.0], [sigma_x(), sparse.identity_csr(3)])

    def test_matvec_distributes(self, rng):
        m1, d1 = random_sparse_dense_pair(rng, 64)
        m2, d2 = random_sparse_dense_pair(rng, 64)
        v = rng.normal(size=64) + 1j * rng.normal(size=64)
        a, b = 0.7 - 0.2j, -1.3 + 0.9j
        combined = sparse.linear_combine([a, b], [m1, m2])
        lhs = combined.matvec(v)
        rhs = a * m1.matvec(v) + b * m2.matvec(v)
        assert np.linalg.norm(lhs - rhs) <= 1e-13 * np.linalg.norm(rhs)


def integer_terms(rng, n_rows, n_cols, n_terms):
    """CSR terms with small integer entries, so their sums are exact and cancel to exact zeros.

    Some rows are empty in every term, the last ones included.
    """
    denses = []
    for _ in range(n_terms):
        mask = rng.random((n_rows, n_cols)) < 0.4
        dense = (rng.integers(-2, 3, size=(n_rows, n_cols)) * mask).astype(complex)
        dense[rng.random(n_rows) < 0.3] = 0
        dense[-2:] = 0
        denses.append(dense)
    return [sparse.from_dense(d) for d in denses], denses


class TestFixedPatternSum:
    def test_linear_combine_matches_dense_sum_with_dropped_zeros(self, rng):
        n_rows, n_cols = 9, 7
        for _ in range(50):
            mats, denses = integer_terms(rng, n_rows, n_cols, 3)
            coeffs = rng.integers(-1, 2, size=3).astype(complex)
            want = sparse.from_dense(sum(c * d for c, d in zip(coeffs, denses)))
            pattern = sparse.FixedPatternSum(mats)
            for got in (sparse.linear_combine(coeffs, mats), pattern.combine(coeffs)):
                assert np.array_equal(got.row_offsets, want.row_offsets)
                assert np.array_equal(got.col_indices, want.col_indices)
                assert np.array_equal(got.values, want.values)
                assert (got.values != 0).all()

    def test_terms_are_added_in_order(self):
        # (1e16 + 1) - 1e16 is 0 in floating point; 1e16 - 1e16 + 1 is 1
        mats = [sparse.build_csr([(0, 0, v)], 1, 1) for v in (1e16, 1.0, -1e16)]
        assert sparse.linear_combine([1.0, 1.0, 1.0], mats).nnz == 0
        assert sparse.linear_combine([1.0, 1.0, 1.0], [mats[0], mats[2], mats[1]]).values[0] == 1.0

    def test_non_finite_result_refused(self):
        big = sparse.build_csr([(0, 1, 1e308), (1, 0, 1.0)], 2, 2)
        with pytest.raises(sparse.SparseMatrixError, match="finite"):
            sparse.linear_combine([10.0], [big])
        with pytest.raises(sparse.SparseMatrixError, match="finite"):
            sparse.linear_combine([1.0, 1.0], [big, big])  # finite terms, overflowing sum

    def test_coefficient_count_checked(self, rng):
        pattern = sparse.FixedPatternSum(integer_terms(rng, 4, 4, 2)[0])
        with pytest.raises(sparse.SparseMatrixError, match="coefficients"):
            pattern.combine(np.ones(3))

    def test_stack_is_a_view_of_the_terms(self, rng):
        d = 9
        mats, denses = integer_terms(rng, d, d, 5)
        pattern = sparse.FixedPatternSum(mats)
        assert pattern.values.size == pattern.positions.size == sum(m.nnz for m in mats)
        for first, stop in ((0, 5), (1, 4), (2, 3), (4, 5)):
            stack = pattern.stack(first, stop)
            assert stack.shape == ((stop - first) * d, d)
            assert np.shares_memory(stack.values, pattern.values)
            assert np.array_equal(stack.to_dense(), np.concatenate(denses[first:stop]))
            y = rng.normal(size=d) + 1j * rng.normal(size=d)
            rows = stack.matvec(y).reshape(stop - first, d)
            for t, m in enumerate(mats[first:stop]):
                assert np.array_equal(rows[t], m.matvec(y))


class TestHermiticity:
    def test_sigma_x_is_hermitian(self):
        assert sparse.is_hermitian(sigma_x())

    def test_upper_triangular_is_not(self):
        m = sparse.build_csr([(0, 1, 1.0)], 2, 2)
        assert not sparse.is_hermitian(m)

    def test_h1_is_hermitian(self):
        assert sparse.is_hermitian(h1_fixture())

    def test_anti_hermitian(self):
        a = sigma_x().scaled(-1j)
        assert sparse.is_anti_hermitian(a)
        assert not sparse.is_anti_hermitian(sigma_x())

    @pytest.mark.parametrize("b_coeff", [-1.0, 1.0])
    def test_dense_defect_matches_csr(self, rng, b_coeff):
        dense = random_sparse_dense_pair(rng, 12, 0.4)[1]
        for arr in (dense, dense + dense.conj().T):
            got = sparse._max_abs_combination(sparse.DenseMatrix(arr), b_coeff)
            assert got == sparse._max_abs_combination(sparse.from_dense(arr), b_coeff)
        assert sparse._max_abs_combination(sparse.DenseMatrix(np.zeros((0, 0))), b_coeff) == 0.0

    @pytest.mark.parametrize("b_coeff", [-1.0, 1.0])
    def test_csr_defect_matches_dense(self, rng, b_coeff):
        d = 9
        for density in (0.0, 0.2, 0.6):
            arr = random_sparse_dense_pair(rng, d, density)[1]
            arr[[2, 5]] = 0.0  # empty rows
            # one pair that cancels exactly under b_coeff, and one that doubles
            arr[0, 7], arr[7, 0] = 1.5 - 2j, -b_coeff * np.conj(1.5 - 2j)
            arr[1, 3], arr[3, 1] = 0.25j, b_coeff * np.conj(0.25j)
            for m in (arr, arr + b_coeff * arr.conj().T):
                want = np.abs(m + b_coeff * m.conj().T).max()
                assert sparse._max_abs_combination(sparse.from_dense(m), b_coeff) == want
        assert sparse._max_abs_combination(sparse.build_csr([], d, d), b_coeff) == 0.0

    def test_tolerance_is_relative_to_the_one_norm(self):
        # ||M||_1 = 1e6, so the rule allows a defect of up to 1e-6
        for defect, hermitian in ((0.9e-6, True), (1.1e-6, False)):
            m = sparse.build_csr([(0, 0, 1e6), (0, 1, defect), (1, 1, 1.0)], 2, 2)
            assert sparse.is_hermitian(m) is hermitian
            assert sparse.is_anti_hermitian(m.scaled(1j)) is hermitian

    def test_non_square_is_refused(self):
        m = sparse.build_csr([(0, 0, 1.0), (1, 2, 1j)], 2, 3)
        assert not sparse.is_hermitian(m)
        assert not sparse.is_anti_hermitian(m)


class TestDumpLoad:
    def test_round_trip(self, rng, tmp_path):
        m, _ = random_sparse_dense_pair(rng, 17)
        path = tmp_path / "m.mat"
        sparse.save_matrix(path, m)
        back = sparse.load_matrix(path)
        assert back.n_rows == m.n_rows and back.n_cols == m.n_cols
        assert np.array_equal(back.row_offsets, m.row_offsets)
        assert np.array_equal(back.col_indices, m.col_indices)
        assert np.array_equal(back.values, m.values)

    def test_vector_round_trip(self, rng, tmp_path):
        v = rng.normal(size=9) + 1j * rng.normal(size=9)
        path = tmp_path / "v.vec"
        sparse.save_vector(path, v)
        assert np.array_equal(sparse.load_vector(path), v)

    @pytest.mark.parametrize(
        "load, header",
        [
            (sparse.load_matrix, "2 2 -1"),
            (sparse.load_matrix, "2 -2 0"),
            (sparse.load_matrix, "2 2.0 1"),
            (sparse.load_vector, "-1"),
            (sparse.load_vector, "1e3"),
        ],
    )
    def test_header_counts_must_be_non_negative_integers(self, tmp_path, load, header):
        path = tmp_path / "input.txt"
        path.write_text(f"{header}\n")
        message = rf"{re.escape(str(path))}: malformed \w+ header on line 1: expected \d non-negative"
        with pytest.raises(sparse.SparseMatrixError, match=message):
            load(path)


class TestDenseMatrix:
    def test_matches_csr_operations(self, rng):
        m, dense_arr = random_sparse_dense_pair(rng, 20)
        d = sparse.DenseMatrix(dense_arr)
        v = rng.normal(size=20) + 1j * rng.normal(size=20)
        assert np.allclose(d.matvec(v), m.matvec(v))
        assert d.one_norm() == pytest.approx(m.one_norm(), rel=1e-14)
        assert np.allclose(d.row_abs_sums(), m.row_abs_sums(), rtol=1e-14, atol=0)
        assert d.max_row_nnz() == 20
        assert d.nnz == 400

    def test_fortran_order(self, rng):
        d = sparse.DenseMatrix(rng.normal(size=(5, 5)))
        assert d.array.flags.f_contiguous
