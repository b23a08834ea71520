"""Complex sparse (CSR) and dense matrices used throughout the package.

All hot loops in the propagation engine are row-oriented matrix-vector
products, so compressed sparse row storage is the native format.  Matrices
are immutable after construction; exact zeros are dropped at construction
time so that the stored-element count is an honest measure of memory and
of per-row work in the rounding-error model.

CSR products run on scipy's compiled ``csr_matvec`` kernel, which
accumulates each row as one running sum into the output vector.  Each
matrix class calls its kernel in one place, the unchecked
``_product(v, out)``; ``matvec`` checks the lengths and the overlap of
``v`` and ``out``, then calls it.  A caller that owns and has checked every
array it passes (every product of the engine in :mod:`leangrape.expm`,
and a backward step, see
:meth:`leangrape.derivatives.StepEvaluator.pull_back`) calls ``_product``
itself.  Weighted
sums of CSR matrices (:class:`FixedPatternSum`, and through it
:func:`linear_combine`) run on its transpose-product kernel
``csc_matvec``: the terms' values, stored once and term by term, are the
columns of a ``(union position x term)`` matrix, and the kernel adds each
position's terms in term order.  The Hermiticity checks merge a matrix
with its conjugate transpose (``csr_tocsc``) through ``csr_plus_csr`` or
``csr_minus_csr``.
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
    "is_hermitian",
    "is_anti_hermitian",
    "save_matrix",
    "load_matrix",
    "save_vector",
    "load_vector",
]


class SparseMatrixError(ValueError):
    """Raised on malformed construction input or shape mismatch."""


#: The one Hermiticity tolerance, relative to the one-norm: see :func:`is_hermitian`.
HERMITICITY_RTOL = 1e-12


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

    ``_row_count`` is the largest per-row count when its maker already
    knows it (:meth:`FixedPatternSum.combine`), else None and
    :meth:`max_row_nnz` counts.
    """

    n_rows: int
    n_cols: int
    row_offsets: np.ndarray
    col_indices: np.ndarray
    values: np.ndarray
    _row_count: int | None = field(default=None, init=False, repr=False)

    @property
    def nnz(self) -> int:
        """Number of stored elements."""
        return int(self.values.size)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_rows, self.n_cols)

    def matvec(self, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``A v``, written into ``out`` when given; ``out`` must not overlap ``v``."""
        n_rows, n_cols = self.n_rows, self.n_cols
        if out is None:
            out = np.empty(n_rows, dtype=np.complex128)
        # the kernel trusts both lengths, and it reads v while it writes out
        if v.shape != (n_cols,) or out.shape != (n_rows,):
            raise SparseMatrixError(
                f"matvec dimension mismatch: matrix is {n_rows}x{n_cols}, "
                f"vector has shape {v.shape}, out has shape {out.shape}"
            )
        # two arrays that each own their data overlap only if they are one array
        if v is out or (
            (v.base is not None or out.base is not None) and np.may_share_memory(v, out)
        ):
            raise SparseMatrixError("out must not overlap the input vector")
        return self._product(v, out)

    def _product(self, v: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``A v`` into ``out``, unchecked: the one call of the CSR kernel.

        The caller guarantees what :meth:`matvec` checks: ``v`` has
        ``n_cols`` entries, ``out`` has ``n_rows`` and does not overlap it.
        The kernel itself raises ValueError when ``out`` is not a writeable
        complex128 array.
        """
        out.fill(0.0)
        _sparsetools().csr_matvec(
            self.n_rows, self.n_cols, self.row_offsets, self.col_indices, self.values, v, out
        )
        return out

    def col_abs_sums(self) -> np.ndarray:
        return np.bincount(self.col_indices, weights=np.abs(self.values), minlength=self.n_cols)

    def row_abs_sums(self) -> np.ndarray:
        rows = np.repeat(np.arange(self.n_rows), self.row_nnz_counts())
        return np.bincount(rows, weights=np.abs(self.values), minlength=self.n_rows)

    def row_nnz_counts(self) -> np.ndarray:
        return np.diff(self.row_offsets)

    def one_norm(self) -> float:
        """Maximum absolute column sum."""
        if self.nnz == 0:
            return 0.0
        return float(self.col_abs_sums().max())

    def max_row_nnz(self) -> int:
        """Largest per-row count of stored elements."""
        if self._row_count is not None:
            return self._row_count
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
        if v.shape != self.array.shape[1:]:
            raise SparseMatrixError("matvec dimension mismatch")
        return self._product(v, out)

    def _product(self, v: np.ndarray, out: np.ndarray | None) -> np.ndarray:
        """``A v`` into ``out`` (a new array when None), unchecked: see :meth:`CsrMatrix._product`."""
        return np.matmul(self.array, v, out)

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

    def max_row_nnz(self) -> int:
        # Every entry is stored, so each row dot product touches n_cols elements.
        return self.n_cols

    def scaled(self, factor: complex) -> "DenseMatrix":
        return DenseMatrix._trusted(self.array * complex(factor))

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
        # the first term is written into the total, the others added through one buffer
        total = work = None
        for c, m in zip(coeffs, mats):
            if c == 0:
                continue
            source = m.array if isinstance(m, DenseMatrix) else m.to_dense()
            if total is None:
                total = np.multiply(source, c, order="F")
                continue
            if work is None:
                work = np.empty(shape, dtype=np.complex128, order="F")
            np.multiply(source, c, out=work)
            total += work
        if total is None:
            total = np.zeros(shape, dtype=np.complex128, order="F")
        return DenseMatrix._trusted(total)

    combined = FixedPatternSum(mats).combine(coeffs)
    if not np.isfinite(combined.values).all():
        raise SparseMatrixError("matrix entries must be finite")
    return combined


class FixedPatternSum:
    """Weighted sums ``sum_i c_i M_i`` of fixed CSR matrices on their union pattern.

    Every stored value of every term is kept once, term by term, in
    ``values``; term ``i``'s values are ``values[term_offsets[i]:
    term_offsets[i + 1]]``, in its own CSR order, and ``positions`` gives
    the union position each value adds into.  ``(term_offsets, positions,
    values)`` is a compressed-column ``(nnz_union x n_terms)`` matrix, so
    each sum is one scipy ``csc_matvec`` onto the union pattern
    ``(row_offsets, col_indices)``: within a position the terms are added
    in term order, and entries that come out exactly zero are dropped.
    The union's largest row count is counted once, here, and handed to
    every sum that drops no entry, whose ``sigma'`` it then is.
    :meth:`stack` row-stacks consecutive terms as views of ``values``.
    """

    def __init__(self, mats):
        self._mats = mats = tuple(mats)
        if not mats:
            raise SparseMatrixError("FixedPatternSum of no matrices")
        self.shape = mats[0].shape
        if any(m.shape != self.shape for m in mats):
            raise SparseMatrixError("shape mismatch in FixedPatternSum")
        n_rows, n_cols = self.shape
        self.term_offsets = np.array([0] + [m.nnz for m in mats], dtype=np.int64).cumsum()
        self.values = np.concatenate([m.values for m in mats])
        rows = [np.repeat(np.arange(n_rows), m.row_nnz_counts()) for m in mats]
        keys = np.concatenate([r * n_cols + m.col_indices for r, m in zip(rows, mats)])
        union, self.positions = np.unique(keys, return_inverse=True)
        self.row_offsets = _row_offsets(union // n_cols, n_rows)
        self.col_indices = union % n_cols
        self._row_count = int(np.diff(self.row_offsets).max(initial=0))

    def combine(self, coeffs: np.ndarray) -> CsrMatrix:
        """``sum_i coeffs[i] * M_i`` as a CSR matrix without stored zeros."""
        coeffs = np.asarray(coeffs, dtype=np.complex128)
        n_terms = len(self._mats)
        if coeffs.shape != (n_terms,):  # the kernel trusts the length
            raise SparseMatrixError(f"need {n_terms} coefficients, got shape {coeffs.shape}")
        values = np.zeros(self.col_indices.size, dtype=np.complex128)
        _sparsetools().csc_matvec(
            values.size, n_terms, self.term_offsets, self.positions, self.values, coeffs, values
        )
        n_rows, n_cols = self.shape
        # one count decides the common case; the mask is formed only when an entry cancelled
        if np.count_nonzero(values) == values.size:
            combined = CsrMatrix(n_rows, n_cols, self.row_offsets, self.col_indices, values)
            object.__setattr__(combined, "_row_count", self._row_count)
            return combined
        keep = values != 0
        # a row's new offset counts the kept elements before its old one
        offsets = np.concatenate(([0], np.cumsum(keep)))[self.row_offsets]
        return CsrMatrix(n_rows, n_cols, offsets, self.col_indices[keep], values[keep])

    def stack(self, first: int, stop: int) -> CsrMatrix:
        """Terms ``first .. stop - 1`` row-stacked, as :class:`CsrMatrix`.

        Row ``t d + i`` is row ``i`` of term ``first + t``.  ``values`` is
        a view into this sum's ``values``; each row keeps its term's
        elements in order, so it runs exactly that row's running sum.
        """
        mats, starts = self._mats[first:stop], self.term_offsets[first : stop + 1]
        offsets = np.concatenate(
            [m.row_offsets[:-1] + start for m, start in zip(mats, starts)] + [starts[-1:]]
        )
        return CsrMatrix(
            self.shape[0] * len(mats), self.shape[1], offsets - starts[0],
            np.concatenate([m.col_indices for m in mats]),
            self.values[starts[0] : starts[-1]],
        )


def _max_abs_combination(a: Matrix, b_coeff: float) -> float:
    """max |a + b_coeff * a^dagger| of a square matrix, for ``b_coeff`` +1 or -1."""
    if isinstance(a, DenseMatrix):
        if not a.array.size:
            return 0.0
        # one d x d temporary: the combination is formed in the conjugate's buffer
        combined = a.array.conj().T
        combined *= b_coeff
        combined += a.array
        return float(np.abs(combined).max())
    # a^T is a's compressed-column form, its row indices sorted; both operands
    # are canonical, so the kernel merges the rows, one rounding per entry
    kernels, n, nnz = _sparsetools(), a.n_rows, a.nnz
    t_offsets, t_indices = np.empty(n + 1, np.int64), np.empty(nnz, np.int64)
    t_values = np.empty(nnz, np.complex128)
    kernels.csr_tocsc(n, n, a.row_offsets, a.col_indices, a.values, t_offsets, t_indices, t_values)
    np.conjugate(t_values, out=t_values)
    binop = kernels.csr_plus_csr if b_coeff == 1.0 else kernels.csr_minus_csr
    offsets, indices = np.empty(n + 1, np.int64), np.empty(2 * nnz, np.int64)
    values = np.empty(2 * nnz, np.complex128)
    binop(
        n, n, a.row_offsets, a.col_indices, a.values,
        t_offsets, t_indices, t_values, offsets, indices, values,
    )
    # the kernel drops exact zeros; offsets[-1] counts what it kept
    return float(np.abs(values[: offsets[-1]]).max(initial=0.0))


def is_hermitian(m: Matrix) -> bool:
    """True when ``max |M - M^dagger| <= HERMITICITY_RTOL * max(1, ||M||_1)``."""
    return _meets_hermiticity_rule(m, -1.0)


def is_anti_hermitian(m: Matrix) -> bool:
    """True when ``max |M + M^dagger| <= HERMITICITY_RTOL * max(1, ||M||_1)``."""
    return _meets_hermiticity_rule(m, 1.0)


def _meets_hermiticity_rule(m: Matrix, b_coeff: float) -> bool:
    tol = HERMITICITY_RTOL * max(1.0, m.one_norm())
    return m.n_rows == m.n_cols and _max_abs_combination(m, b_coeff) <= tol


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
        n_rows, n_cols, nnz = _header_counts(fh, path, "matrix", 3)
        rows = np.empty(nnz, np.int64)
        cols = np.empty(nnz, np.int64)
        vals = np.empty(nnz, np.complex128)
        for i in range(nnz):
            parts = fh.readline().split()
            if len(parts) != 4:
                raise SparseMatrixError(f"{path}: malformed matrix entry on line {i + 2}")
            rows[i] = _index_entry(parts[0], n_rows, "row", path, i + 2)
            cols[i] = _index_entry(parts[1], n_cols, "column", path, i + 2)
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
        (dim,) = _header_counts(fh, path, "vector", 1)
        out = np.empty(dim, np.complex128)
        for i in range(dim):
            parts = fh.readline().split()
            if len(parts) != 2:
                raise SparseMatrixError(f"{path}: malformed vector entry on line {i + 2}")
            out[i] = _finite_entry(parts[0], parts[1], path, i + 2)
        _refuse_extra_entries(fh, path, dim)
    return out


def _header_counts(fh, path, what: str, count: int) -> list[int]:
    """The ``count`` non-negative integers on the header line of ``fh``."""
    header = fh.readline().split()
    if len(header) != count or not all(x.isdecimal() for x in header):
        raise SparseMatrixError(
            f"{path}: malformed {what} header on line 1: expected {count} "
            f"non-negative integers, got {' '.join(header)!r}"
        )
    return [int(x) for x in header]


def _index_entry(text: str, bound: int, what: str, path, line_no: int) -> int:
    """A matrix entry's ``what`` index: an integer in ``[0, bound)``."""
    try:
        index = int(text)
    except ValueError:
        raise SparseMatrixError(
            f"{path}: malformed {what} index {text!r} on line {line_no}"
        ) from None
    if not 0 <= index < bound:
        raise SparseMatrixError(
            f"{path}: {what} index {index} out of range [0, {bound}) on line {line_no}"
        )
    return index


def _finite_entry(real: str, imag: str, path, line_no: int) -> complex:
    try:
        z = complex(float(real), float(imag))
    except ValueError:
        raise SparseMatrixError(
            f"{path}: malformed value {real!r} {imag!r} on line {line_no}"
        ) from None
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
