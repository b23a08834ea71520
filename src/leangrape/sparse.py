"""Complex sparse (CSR) and dense matrices used throughout the package.

All hot loops in the propagation engine are row-oriented matrix-vector
products, so compressed sparse row storage is the native format.  Matrices
are immutable after construction; exact zeros are dropped at construction
time so that the stored-element count is an honest measure of memory and
of per-row work in the rounding-error model.

CSR products run on scipy's compiled ``csr_matvec`` kernel, which
accumulates each row as one running sum into the output vector.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

import numpy as np

__all__ = [
    "SparseMatrixError",
    "CsrMatrix",
    "DenseMatrix",
    "build_csr",
    "from_dense",
    "identity_csr",
    "linear_combine",
    "FixedPatternSum",
    "aux_embed",
    "is_hermitian",
    "is_anti_hermitian",
    "save_matrix",
    "load_matrix",
    "save_vector",
    "load_vector",
]


class SparseMatrixError(ValueError):
    """Raised on malformed construction input or shape mismatch."""


@cache
def _sparsetools():
    """scipy's compiled sparse kernels, imported at the first CSR product.

    Loading ``scipy.sparse`` adds hundreds of modules to the process;
    dense-only runs never need it.
    """
    from scipy.sparse import _sparsetools

    return _sparsetools


@dataclass(frozen=True, eq=False)
class CsrMatrix:
    """Immutable complex matrix in compressed sparse row format.

    Invariants (established by :func:`build_csr`):

    * ``row_offsets`` is non-decreasing, has length ``n_rows + 1`` and its
      last entry equals ``len(col_indices) == len(values)``;
    * column indices are strictly increasing within each row;
    * all stored values are finite and none is exactly zero.
    """

    n_rows: int
    n_cols: int
    row_offsets: np.ndarray
    col_indices: np.ndarray
    values: np.ndarray

    @property
    def nnz(self) -> int:
        """Number of stored elements."""
        return int(self.values.size)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_rows, self.n_cols)

    def matvec(self, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``A v``, written into ``out`` when given; ``out`` must not overlap ``v``."""
        if out is None:
            out = np.empty(self.n_rows, dtype=np.complex128)
        self._check_operands(v, out)
        out.fill(0.0)
        return self._accumulate(v, out)

    def matvec_add(self, v: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Accumulate ``out += A v`` in place and return ``out``.

        Row ``i`` continues the running sum that starts at ``out[i]``, so
        every output entry is one sequential sum of its prior value and
        the row's products.
        """
        self._check_operands(v, out)
        return self._accumulate(v, out)

    def _check_operands(self, v: np.ndarray, out: np.ndarray) -> None:
        # the kernel trusts both lengths, and it reads v while it writes out
        if v.shape != (self.n_cols,) or out.shape != (self.n_rows,):
            raise SparseMatrixError(
                f"matvec dimension mismatch: matrix is {self.n_rows}x{self.n_cols}, "
                f"vector has shape {v.shape}, out has shape {out.shape}"
            )
        # two arrays that each own their data overlap only if they are one array
        if v is out or (
            (v.base is not None or out.base is not None) and np.may_share_memory(v, out)
        ):
            raise SparseMatrixError("out must not overlap the input vector")

    def _accumulate(self, v: np.ndarray, out: np.ndarray) -> np.ndarray:
        # raises ValueError itself when out is not a writeable complex128 array
        _sparsetools().csr_matvec(
            self.n_rows, self.n_cols, self.row_offsets, self.col_indices, self.values, v, out
        )
        return out

    def col_abs_sums(self) -> np.ndarray:
        return np.bincount(self.col_indices, weights=np.abs(self.values), minlength=self.n_cols)

    def row_abs_sums(self) -> np.ndarray:
        sums = np.zeros(self.n_rows)
        if self.nnz:
            sums = np.add.reduceat(
                np.abs(self.values), np.minimum(self.row_offsets[:-1], self.nnz - 1)
            )
            sums[self.row_offsets[:-1] == self.row_offsets[1:]] = 0.0
        return sums

    def row_nnz_counts(self) -> np.ndarray:
        return np.diff(self.row_offsets)

    def one_norm(self) -> float:
        """Maximum absolute column sum."""
        if self.nnz == 0:
            return 0.0
        return float(self.col_abs_sums().max())

    def inf_norm(self) -> float:
        """Maximum absolute row sum."""
        if self.nnz == 0:
            return 0.0
        return float(self.row_abs_sums().max())

    def max_row_nnz(self) -> int:
        """Largest per-row count of stored elements."""
        if self.n_rows == 0:
            return 0
        return int(self.row_nnz_counts().max())

    def scaled(self, factor: complex) -> "CsrMatrix":
        """Return ``factor * self`` with the same sparsity pattern."""
        if factor == 0:
            return build_csr([], self.n_rows, self.n_cols)
        return CsrMatrix(
            self.n_rows,
            self.n_cols,
            self.row_offsets,
            self.col_indices,
            self.values * complex(factor),
        )

    def conj_transpose(self) -> "CsrMatrix":
        rows, cols, vals = self.triplets()
        return build_csr_arrays(cols, rows, np.conj(vals), self.n_cols, self.n_rows)

    def triplets(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Coordinate view ``(rows, cols, values)`` of the stored elements."""
        rows = np.repeat(np.arange(self.n_rows), np.diff(self.row_offsets))
        return rows, self.col_indices.copy(), self.values.copy()

    def to_dense(self) -> np.ndarray:
        """Column-major dense copy (used by oracles and the eigensolver backend)."""
        dense = np.zeros((self.n_rows, self.n_cols), dtype=np.complex128, order="F")
        rows, cols, vals = self.triplets()
        dense[rows, cols] = vals
        return dense


@dataclass(frozen=True, eq=False)
class DenseMatrix:
    """Dense complex matrix with the same operation surface as :class:`CsrMatrix`.

    Used for the dense-storage benchmark mode, where every one of the
    ``n_rows * n_cols`` entries counts as stored.
    """

    array: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = np.asfortranarray(np.asarray(self.array, dtype=np.complex128))
        if arr.ndim != 2:
            raise SparseMatrixError("DenseMatrix expects a 2-d array")
        if not np.isfinite(arr).all():
            raise SparseMatrixError("matrix entries must be finite")
        object.__setattr__(self, "array", arr)

    @classmethod
    def _trusted(cls, arr: np.ndarray) -> "DenseMatrix":
        """Wrap an internally produced complex array without re-validation."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "array", arr)
        return obj

    @property
    def n_rows(self) -> int:
        return self.array.shape[0]

    @property
    def n_cols(self) -> int:
        return self.array.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.array.shape

    @property
    def nnz(self) -> int:
        return self.array.size

    def matvec(self, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        if v.shape != (self.n_cols,):
            raise SparseMatrixError("matvec dimension mismatch")
        if out is None:
            return self.array @ v
        np.matmul(self.array, v, out=out)
        return out

    def col_abs_sums(self) -> np.ndarray:
        return np.abs(self.array).sum(axis=0)

    def row_abs_sums(self) -> np.ndarray:
        return np.abs(self.array).sum(axis=1)

    def row_nnz_counts(self) -> np.ndarray:
        return np.full(self.n_rows, self.n_cols, dtype=np.int64)

    def one_norm(self) -> float:
        if self.array.size == 0:
            return 0.0
        return float(np.abs(self.array).sum(axis=0).max())

    def inf_norm(self) -> float:
        if self.array.size == 0:
            return 0.0
        return float(np.abs(self.array).sum(axis=1).max())

    def max_row_nnz(self) -> int:
        # Every entry is stored, so each row dot product touches n_cols elements.
        return self.n_cols

    def scaled(self, factor: complex) -> "DenseMatrix":
        return DenseMatrix._trusted(self.array * complex(factor))

    def conj_transpose(self) -> "DenseMatrix":
        return DenseMatrix(self.array.conj().T)

    def to_dense(self) -> np.ndarray:
        return self.array.copy(order="F")


Matrix = CsrMatrix | DenseMatrix


def build_csr_arrays(rows, cols, vals, n_rows: int, n_cols: int) -> CsrMatrix:
    """Build a CSR matrix from coordinate arrays, summing duplicates.

    Entries whose duplicate sum is exactly zero are dropped.
    """
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    vals = np.asarray(vals, dtype=np.complex128)
    if not (rows.shape == cols.shape == vals.shape):
        raise SparseMatrixError("rows, cols and values must have equal length")
    if n_rows < 0 or n_cols < 0:
        raise SparseMatrixError("matrix dimensions must be non-negative")
    if rows.size:
        if rows.min() < 0 or rows.max() >= n_rows:
            raise SparseMatrixError("row index out of range")
        if cols.min() < 0 or cols.max() >= n_cols:
            raise SparseMatrixError("column index out of range")
        if not np.isfinite(vals).all():
            raise SparseMatrixError("matrix entries must be finite")

    keys = rows * np.int64(n_cols) + cols
    uniq, inverse = np.unique(keys, return_inverse=True)
    summed = np.zeros(uniq.size, dtype=np.complex128)
    np.add.at(summed, inverse, vals)
    keep = summed != 0
    uniq = uniq[keep]
    summed = summed[keep]

    offsets = _row_offsets(uniq // n_cols, n_rows)
    return CsrMatrix(n_rows, n_cols, offsets, (uniq % n_cols).astype(np.int64), summed)


def _row_offsets(rows: np.ndarray, n_rows: int) -> np.ndarray:
    """CSR row offsets of elements sorted by row, given each element's row."""
    offsets = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n_rows), out=offsets[1:])
    return offsets


def build_csr(triplets, n_rows: int, n_cols: int) -> CsrMatrix:
    """Build a CSR matrix from an iterable of ``(row, col, value)`` triplets."""
    entries = list(triplets)
    if not entries:
        return build_csr_arrays(
            np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0, np.complex128),
            n_rows, n_cols,
        )
    rows, cols, vals = zip(*entries)
    return build_csr_arrays(rows, cols, vals, n_rows, n_cols)


def from_dense(array: np.ndarray) -> CsrMatrix:
    """CSR copy of a dense array, keeping exact nonzeros only."""
    array = np.asarray(array, dtype=np.complex128)
    rows, cols = np.nonzero(array)
    return build_csr_arrays(rows, cols, array[rows, cols], array.shape[0], array.shape[1])


def identity_csr(n: int) -> CsrMatrix:
    idx = np.arange(n, dtype=np.int64)
    return build_csr_arrays(idx, idx, np.ones(n, dtype=np.complex128), n, n)


def linear_combine(coeffs, mats) -> Matrix:
    """Weighted sum ``sum_i coeffs[i] * mats[i]`` of equally shaped matrices."""
    mats = list(mats)
    coeffs = [complex(c) for c in coeffs]
    if len(coeffs) != len(mats):
        raise SparseMatrixError("need one coefficient per matrix")
    if not mats:
        raise SparseMatrixError("linear_combine of no matrices")
    shape = mats[0].shape
    if any(m.shape != shape for m in mats):
        raise SparseMatrixError("shape mismatch in linear_combine")

    if any(isinstance(m, DenseMatrix) for m in mats):
        total = np.zeros(shape, dtype=np.complex128, order="F")
        work = np.empty(shape, dtype=np.complex128, order="F")
        for c, m in zip(coeffs, mats):
            if c == 0:
                continue
            source = m.array if isinstance(m, DenseMatrix) else m.to_dense()
            np.multiply(source, c, out=work)
            total += work
        return DenseMatrix._trusted(total)

    rows_all, cols_all, vals_all = [], [], []
    for c, m in zip(coeffs, mats):
        if c == 0 or m.nnz == 0:
            continue
        r, k, v = m.triplets()
        rows_all.append(r)
        cols_all.append(k)
        vals_all.append(c * v)
    if not rows_all:
        return build_csr([], shape[0], shape[1])
    return build_csr_arrays(
        np.concatenate(rows_all), np.concatenate(cols_all), np.concatenate(vals_all),
        shape[0], shape[1],
    )


class FixedPatternSum:
    """Weighted sums ``sum_i c_i M_i`` of fixed CSR matrices on their union pattern.

    The union sparsity pattern and a sparse ``(nnz_union x n_terms)``
    coefficient matrix holding every stored value are built once; each
    sum is then one product ``coef @ c`` on that pattern.  Within a
    position the terms are added in matrix order, as in
    :func:`linear_combine`, and entries that come out exactly zero are
    dropped, so the result carries the same stored elements.
    """

    def __init__(self, mats):
        mats = list(mats)
        if not mats:
            raise SparseMatrixError("FixedPatternSum of no matrices")
        self.shape = mats[0].shape
        if any(m.shape != self.shape for m in mats):
            raise SparseMatrixError("shape mismatch in FixedPatternSum")
        n_rows, n_cols = self.shape
        triplets = [m.triplets() for m in mats]
        keys = np.concatenate([r * np.int64(n_cols) + c for r, c, _ in triplets])
        terms = np.repeat(np.arange(len(mats)), [m.nnz for m in mats])
        union, position = np.unique(keys, return_inverse=True)
        self.rows = union // n_cols
        self.row_offsets = _row_offsets(self.rows, n_rows)
        self.col_indices = union % n_cols
        self.coef = build_csr_arrays(
            position, terms, np.concatenate([v for _, _, v in triplets]),
            union.size, len(mats),
        )

    def combine(self, coeffs: np.ndarray) -> CsrMatrix:
        """``sum_i coeffs[i] * M_i`` as a CSR matrix without stored zeros."""
        values = self.coef.matvec(np.asarray(coeffs, dtype=np.complex128))
        n_rows, n_cols = self.shape
        keep = values != 0
        if keep.all():
            return CsrMatrix(n_rows, n_cols, self.row_offsets, self.col_indices, values)
        offsets = _row_offsets(self.rows[keep], n_rows)
        return CsrMatrix(n_rows, n_cols, offsets, self.col_indices[keep], values[keep])


def aux_embed(h_step: Matrix, h_control: Matrix, dt: float) -> Matrix:
    """Block embedding whose exponential action yields propagator derivatives.

    Returns the ``2d x 2d`` matrix ``[[-i*h_step*dt, -i*h_control*dt],
    [0, -i*h_step*dt]]``.  Applying the exponential of this matrix to a
    stacked vector ``(0, psi)`` produces the derivative of the short-time
    propagator with respect to the control amplitude in the top block and
    the propagated state in the bottom block.  Propagation applies this
    matrix without forming it
    (:class:`leangrape.derivatives.BlockDerivativeOperator`); the
    materialized form is the reference it is tested against.
    """
    if h_step.shape != h_control.shape or h_step.n_rows != h_step.n_cols:
        raise SparseMatrixError("aux_embed expects two square matrices of equal dimension")
    d = h_step.n_rows
    scale = -1j * dt
    if isinstance(h_step, DenseMatrix) or isinstance(h_control, DenseMatrix):
        step_arr = h_step.array if isinstance(h_step, DenseMatrix) else h_step.to_dense()
        ctrl_arr = (
            h_control.array if isinstance(h_control, DenseMatrix) else h_control.to_dense()
        )
        embedded = np.zeros((2 * d, 2 * d), dtype=np.complex128, order="F")
        embedded[:d, :d] = scale * step_arr
        embedded[:d, d:] = scale * ctrl_arr
        embedded[d:, d:] = embedded[:d, :d]
        return DenseMatrix._trusted(embedded)
    hr, hc, hv = h_step.triplets()
    cr, cc, cv = h_control.triplets()
    rows = np.concatenate([hr, cr, hr + d])
    cols = np.concatenate([hc, cc + d, hc + d])
    vals = scale * np.concatenate([hv, cv, hv])
    return build_csr_arrays(rows, cols, vals, 2 * d, 2 * d)


def _max_abs_combination(a: Matrix, b_coeff: complex) -> float:
    """max |a + b_coeff * a^dagger| over stored positions of the combination."""
    combined = linear_combine([1.0, b_coeff], [a, a.conj_transpose()])
    if isinstance(combined, DenseMatrix):
        return float(np.abs(combined.array).max()) if combined.array.size else 0.0
    if combined.nnz == 0:
        return 0.0
    return float(np.abs(combined.values).max())


def is_hermitian(m: Matrix, tol: float) -> bool:
    """True when ``max |M - M^dagger|`` does not exceed ``tol``."""
    if m.n_rows != m.n_cols:
        return False
    return _max_abs_combination(m, -1.0) <= tol


def is_anti_hermitian(m: Matrix, tol: float) -> bool:
    """True when ``max |M + M^dagger|`` does not exceed ``tol``."""
    if m.n_rows != m.n_cols:
        return False
    return _max_abs_combination(m, 1.0) <= tol


def save_matrix(path, m: Matrix) -> None:
    """Write a matrix in the line-based text exchange format.

    Header line ``n_rows n_cols nnz`` followed by one ``row col re im``
    line per stored element.
    """
    if isinstance(m, DenseMatrix):
        m = from_dense(m.array)
    rows, cols, vals = m.triplets()
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{m.n_rows} {m.n_cols} {m.nnz}\n")
        for r, c, v in zip(rows, cols, vals):
            fh.write(f"{r} {c} {v.real:.17g} {v.imag:.17g}\n")


def load_matrix(path) -> CsrMatrix:
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().split()
        if len(header) != 3:
            raise SparseMatrixError(f"{path}: malformed matrix header")
        n_rows, n_cols, nnz = (int(x) for x in header)
        rows = np.empty(nnz, np.int64)
        cols = np.empty(nnz, np.int64)
        vals = np.empty(nnz, np.complex128)
        for i in range(nnz):
            parts = fh.readline().split()
            if len(parts) != 4:
                raise SparseMatrixError(f"{path}: malformed matrix entry on line {i + 2}")
            rows[i] = int(parts[0])
            cols[i] = int(parts[1])
            vals[i] = _finite_entry(parts[2], parts[3], path, i + 2)
        _refuse_extra_entries(fh, path, nnz)
    return build_csr_arrays(rows, cols, vals, n_rows, n_cols)


def save_vector(path, v: np.ndarray) -> None:
    """Write a state vector: header ``dim``, then one ``re im`` line per entry."""
    v = np.asarray(v, dtype=np.complex128)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{v.size}\n")
        for z in v:
            fh.write(f"{z.real:.17g} {z.imag:.17g}\n")


def load_vector(path) -> np.ndarray:
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().split()
        if len(header) != 1:
            raise SparseMatrixError(f"{path}: malformed vector header")
        dim = int(header[0])
        out = np.empty(dim, np.complex128)
        for i in range(dim):
            parts = fh.readline().split()
            if len(parts) != 2:
                raise SparseMatrixError(f"{path}: malformed vector entry on line {i + 2}")
            out[i] = _finite_entry(parts[0], parts[1], path, i + 2)
        _refuse_extra_entries(fh, path, dim)
    return out


def _finite_entry(real: str, imag: str, path, line_no: int) -> complex:
    z = complex(float(real), float(imag))
    if not np.isfinite(z):
        raise SparseMatrixError(f"{path}: non-finite entry on line {line_no}")
    return z


def _refuse_extra_entries(fh, path, count: int) -> None:
    """Refuse any non-blank line after the ``count`` entries the header announced."""
    for line_no, line in enumerate(fh, start=count + 2):
        if line.strip():
            raise SparseMatrixError(
                f"{path}: entry on line {line_no} beyond the header's count of {count}"
            )
