"""Propagator-state products, adjoints, and control derivatives.

Two interchangeable backends evaluate ``U psi``, ``U^dagger psi`` and the
control overlaps ``<lambda| dU/da_k |psi>`` of the short-time propagator
``U = exp(-i H dt)`` with one co-state ``lambda``:

* ``SCALING_SQUARING`` works matrix-free through the certified engine in
  :mod:`leangrape.expm`.  The only stored operators are the step
  Hamiltonian ``H`` and the controls ``h_k``: the time step enters as the
  engine's ``scale`` (``-i dt`` forward, ``+i dt`` back), folded into its
  per-term scalar, so no generator ``-i dt H`` is ever materialized.
  Derivatives come from Van Loan's block-upper-triangular embedding of
  dimension ``2d``, kept in Hamiltonian units ``[[H, h_k], [0, H]]``,
  whose exponential action carries the derivative in its top block.  On
  CSR storage one :class:`BlockDerivativeOperator` fuses up to
  :data:`CHANNEL_BLOCK` channels that share the embedding's bottom block,
  and each channel still runs the arithmetic of its own embedding.  The
  embedding applied at ``+i dt`` to ``(0, lambda)`` carries the adjoint
  derivatives ``(dU/da_k)^dagger lambda`` on top and ``U^dagger lambda``
  below, so a backward step gets the co-state's overlaps and its move
  back from one application per block.
* ``DIAGONALIZATION`` factorizes ``-i H dt`` densely once per step and
  evaluates products and overlaps through the eigenbasis, the overlaps
  ``-i dt tr(W h_k)`` of every channel in one Frobenius form.  A step
  whose Hamiltonian has no nonzero imaginary part is factorized by the
  real symmetric solver: its eigenbasis is float64 and every eigenbasis
  product runs as a real matrix product.  The divided-difference kernel the derivatives need is
  built on first use, so a forward sweep never builds it.

Both sit behind :class:`StepEvaluator`, the one object that propagates
or differentiates a step.  Gradients call its
:meth:`~StepEvaluator.forward`, :meth:`~StepEvaluator.adjoint` and
:meth:`~StepEvaluator.pull_back`.  Its
:meth:`~StepEvaluator.control_derivative` and
:func:`derivative_action_diag` are the references ``pull_back`` is tested
against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

from . import expm
from .sparse import CsrMatrix, DenseMatrix, Matrix, build_csr_arrays

__all__ = [
    "Backend",
    "DiagFactorization",
    "OperatorSums",
    "ChannelBlock",
    "ControlOperators",
    "CHANNEL_BLOCK",
    "BlockDerivativeOperator",
    "diag_prepare",
    "derivative_action_diag",
    "StepEvaluator",
]


#: Channels fused into one block embedding on CSR storage.  The block's
#: work arrays hold ``CHANNEL_BLOCK + 1`` state vectors each.
CHANNEL_BLOCK = 4


class Backend(Enum):
    SCALING_SQUARING = "scaling_squaring"
    DIAGONALIZATION = "diagonalization"


@dataclass(frozen=True)
class StepContext:
    """One time step: combined Hamiltonian, dt and engine choice.

    ``h_step`` already contains the control amplitudes of the step, i.e.
    it is ``H_s + sum_k a_k h_k``; it is assembled by
    :meth:`leangrape.costs.ControlProblem.step_evaluator` from operators
    checked there.
    """

    h_step: Matrix
    dt: float
    backend: Backend
    tau: float

    @property
    def dim(self) -> int:
        return self.h_step.n_rows


@dataclass(frozen=True)
class DiagFactorization:
    """Eigenfactorization of the anti-Hermitian generator ``A = -i H dt``.

    ``eigvecs`` is unitary: float64 (real orthogonal) when ``H`` is real,
    complex128 otherwise.  ``eigvals`` holds the purely imaginary
    eigenvalues of ``A`` and ``exp_eigvals`` their elementwise
    exponentials.  ``kernel[i, j]`` is the divided difference of ``exp``
    at ``eigvals[i]`` and ``eigvals[j]``; with ``eigvals = -i w`` it is
    ``exp(-i (w_i + w_j) / 2) sinc((w_j - w_i) / 2)``, which is symmetric,
    tends to ``exp_eigvals[i]`` as the two eigenvalues meet and needs no
    degeneracy threshold.  Only derivatives read it, so it is built on
    first use.
    """

    dim: int
    eigvecs: np.ndarray = field(repr=False)
    eigvals: np.ndarray = field(repr=False)
    exp_eigvals: np.ndarray = field(repr=False)

    @cached_property
    def kernel(self) -> np.ndarray:
        w = -self.eigvals.imag
        half = np.exp(0.5 * self.eigvals)
        gap = w[None, :] - w[:, None]
        return np.outer(half, half) * np.sinc(gap / (2 * np.pi))


class OperatorSums:
    """A Hermitian operator with its column and row abs-sums and per-row element counts.

    These are the pieces the norms and the per-row element count of a
    block embedding are assembled from; they are computed once here.  The
    matrix is the operator itself, not a copy scaled by ``-i dt``.
    """

    __slots__ = ("matrix", "col_abs_sums", "row_abs_sums", "row_nnz")

    def __init__(self, matrix: Matrix):
        self.matrix = matrix
        self.col_abs_sums = matrix.col_abs_sums()
        self.row_abs_sums = matrix.row_abs_sums()
        self.row_nnz = matrix.row_nnz_counts()


class ChannelBlock:
    """Consecutive control channels whose derivatives one embedding carries.

    When every control is CSR, ``stacked`` interleaves them for the
    ``(d, w + 1)`` layout of :class:`BlockDerivativeOperator`: its row
    ``i (w + 1) + 1 + t`` holds row ``i`` of channel ``t``'s control, with
    column ``j`` moved to ``j (w + 1)``, where the block keeps ``y_j``.
    Within a row the elements keep the control's order.  With a dense
    control ``stacked`` is None.
    """

    __slots__ = ("controls", "stacked")

    def __init__(self, controls: tuple[OperatorSums, ...]):
        self.controls = controls
        self.stacked: CsrMatrix | None = None
        if all(isinstance(c.matrix, CsrMatrix) for c in controls):
            w = len(controls)
            n = controls[0].matrix.n_rows * (w + 1)
            parts = [c.matrix.triplets() for c in controls]
            self.stacked = build_csr_arrays(
                np.concatenate([r * (w + 1) + 1 + t for t, (r, _, _) in enumerate(parts)]),
                np.concatenate([k * (w + 1) for _, k, _ in parts]),
                np.concatenate([v for _, _, v in parts]),
                n, n,
            )


class ControlOperators:
    """The control operators ``h_k`` of one problem and their channel blocks.

    ``operators[k]`` is channel ``k``, holding the problem's own matrix.
    ``blocks`` groups consecutive channels :data:`CHANNEL_BLOCK` at a time
    on CSR storage and one at a time on dense storage (see
    :class:`BlockDerivativeOperator`); the last block may be narrower.  It
    is built by the first scaling-and-squaring overlaps that need it.
    Nothing here depends on ``dt``, so every step of the problem shares
    one instance, whatever its time step.
    """

    def __init__(self, h_controls, dense_storage: bool):
        self.operators = tuple(OperatorSums(hc) for hc in h_controls)
        self.width = 1 if dense_storage else CHANNEL_BLOCK

    @cached_property
    def blocks(self) -> tuple[ChannelBlock, ...]:
        ops, w = self.operators, self.width
        return tuple(ChannelBlock(ops[k : k + w]) for k in range(0, len(ops), w))


class BlockDerivativeOperator:
    """Matrix-free Van Loan embedding of one :class:`ChannelBlock`'s derivatives.

    For one channel the embedding ``E = [[H, h_k], [0, H]]``, in
    Hamiltonian units, maps ``(x, y)`` to ``(H x + h_k y, H y)``.  Its
    generator ``-i dt E`` is the :func:`leangrape.sparse.aux_embed`
    matrix, and ``exp(-i dt E)`` applied to ``(0, psi)`` is
    ``((dU/da_k) psi, U psi)``; the engine takes ``-i dt`` as its
    ``scale``, so that generator is never stored.  The channels of a block
    share the bottom block ``y``.

    CSR storage: the operator acts on a flattened C-ordered ``(d, w + 1)``
    array ``[y | x_1 .. x_w]``.  One product is two kernel calls:
    :meth:`~leangrape.sparse.CsrMatrix.matmat` multiplies ``H`` into all
    ``w + 1`` columns, and the block's stacked control accumulates
    ``h_k y`` onto column ``k``.  Top entry ``(i, k)`` is therefore one
    running sum of the ``n_H + n_k`` products of row ``i`` of ``H`` and of
    ``h_k``, in the order of the single-channel embedding, and column 0 is
    that embedding's bottom block: every channel runs exactly the
    arithmetic of its own ``2d`` embedding.

    Dense storage: a block holds one channel and the operator acts on
    ``(x, y)`` stacked as one ``2d`` vector.  The top block row
    ``T = [H | h_k]`` is kept as one column-major ``d x 2d`` matrix whose
    left half serves as ``H``: a product is the two dense products
    ``T v`` and ``H y`` on the same stored elements.  Dense storage stays
    at one channel because a fused block would turn these matrix-vector
    products into matrix-matrix products, which are relatively cheaper as
    ``d`` grows; that would bend the per-step runtime exponent that the
    dense-storage scaling study measures for the paper's per-channel
    algorithm.

    ``one_norm``, ``inf_norm`` and ``max_row_nnz`` are the maxima over the
    block's channels of each channel's ``2d`` embedding value, assembled
    exactly from column and row sums; they are not norms of the block as
    one matrix, and they are in Hamiltonian units: ``dt`` times them is
    the generator's.  ``max_row_nnz`` is the largest ``n_H + n_k`` of a top
    row, which on dense storage is one ``2d``-term dot product.  The
    certified bound grows with the norm and with ``sigma'``, so a plan
    for these maxima certifies every channel's own embedding.
    """

    def __init__(self, step: OperatorSums, block: ChannelBlock):
        self.step = step
        self.controls = block.controls
        self.width = len(block.controls)
        self._stacked = block.stacked
        d = step.matrix.n_rows
        self.n_rows = self.n_cols = d * (self.width + 1)
        self.shape = (self.n_rows, self.n_cols)
        self.nnz = (self.width + 1) * step.matrix.nnz + sum(c.matrix.nnz for c in self.controls)
        self._dense_top: np.ndarray | None = None
        if isinstance(step.matrix, DenseMatrix) or self._stacked is None:
            if self.width != 1:
                raise ValueError("a dense derivative block holds one channel")
            top = np.empty((d, 2 * d), dtype=np.complex128, order="F")
            for half, m in ((top[:, :d], step.matrix), (top[:, d:], self.controls[0].matrix)):
                half[...] = m.array if isinstance(m, DenseMatrix) else m.to_dense()
            self._dense_top = top

    def stack(self, psi: np.ndarray) -> np.ndarray:
        """The start vector: ``psi`` in the bottom block, zero derivatives."""
        v = np.zeros(self.n_rows, dtype=np.complex128)
        self.split(v)[1][...] = psi
        return v

    def split(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Views of ``v`` as the ``(d, w)`` top blocks ``[x_1 .. x_w]`` and the bottom ``y``."""
        d = self.step.matrix.n_rows
        if self._dense_top is not None:
            return v[:d, None], v[d:]
        cols = v.reshape(d, self.width + 1)
        return cols[:, 1:], cols[:, 0]

    def matvec(self, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        if v.shape != (self.n_rows,):
            raise ValueError("stacked vector dimension mismatch")
        if out is None:
            out = np.empty(self.n_rows, dtype=np.complex128)
        d = self.step.matrix.n_rows
        if self._dense_top is not None:
            np.matmul(self._dense_top, v, out=out[:d])
            np.matmul(self._dense_top[:, :d], v[d:], out=out[d:])
            return out
        shape = (d, self.width + 1)
        self.step.matrix.matmat(v.reshape(shape), out=out.reshape(shape))
        self._stacked.matvec_add(v, out)
        return out

    def one_norm(self) -> float:
        gen_cols = self.step.col_abs_sums
        if gen_cols.size == 0:
            return 0.0
        tops = [(gen_cols + c.col_abs_sums).max() for c in self.controls]
        return float(max(gen_cols.max(), *tops))

    def inf_norm(self) -> float:
        gen_rows = self.step.row_abs_sums
        if gen_rows.size == 0:
            return 0.0
        tops = [(gen_rows + c.row_abs_sums).max() for c in self.controls]
        return float(max(gen_rows.max(), *tops))

    def max_row_nnz(self) -> int:
        if self.step.row_nnz.size == 0:
            return 0
        return int(max((self.step.row_nnz + c.row_nnz).max() for c in self.controls))


def aux_plan(aux, dt: float, tau: float) -> expm.ExpmPlan:
    """Plan for the block-embedded derivative generator ``-i dt E`` of ``aux = E``.

    The embedding is not anti-Hermitian, so the bound's norm argument uses
    the general two-norm surrogate ``dt sqrt(norm1 * norm_inf)`` instead of
    the one-norm, which keeps the certificate rigorous at the cost of a
    slightly larger bound.  The plan holds for ``scale = +i dt`` as well:
    negation leaves every norm unchanged.
    """
    surrogate = dt * math.sqrt(aux.one_norm() * aux.inf_norm())
    return expm.make_plan(surrogate, aux.max_row_nnz(), tau)


def diag_prepare(ctx: StepContext) -> DiagFactorization:
    """Dense eigenfactorization of ``-i H dt`` for the current step.

    A Hermitian ``H`` whose imaginary parts are all zero is that real
    symmetric matrix: the real solver reads the same lower triangle and
    its orthogonal eigenbasis is a unitary one, at a third of the
    complex solver's cost.
    """
    h = ctx.h_step
    dense = h.array if isinstance(h, DenseMatrix) else h.to_dense()
    if dense.imag.any():
        w, vecs = np.linalg.eigh(dense * ctx.dt)
    else:
        w, vecs = np.linalg.eigh(dense.real * ctx.dt)
    eigvals = -1j * w.astype(np.complex128)
    return DiagFactorization(
        dim=ctx.dim, eigvecs=vecs, eigvals=eigvals, exp_eigvals=np.exp(eigvals)
    )


def _adjoint(s: np.ndarray) -> np.ndarray:
    """``S^dagger``: the view ``S^T`` of a real eigenbasis, a conjugate copy otherwise."""
    return s.T if s.dtype == np.float64 else s.conj().T


def _basis_product(s: np.ndarray, m: np.ndarray) -> np.ndarray:
    """``S M`` for an eigenbasis matrix ``S`` (or its adjoint) and a complex ``M``.

    A real ``S`` multiplies the float64 view of a C-contiguous ``M``: one
    real product over the interleaved real and imaginary columns, where
    numpy's mixed-type product would first copy ``S`` to complex.
    """
    if s.dtype != np.float64:
        return s @ m
    m = np.ascontiguousarray(m, dtype=np.complex128)
    prod = s @ m.view(np.float64).reshape(m.shape[0], -1)
    return prod.view(np.complex128).reshape(s.shape[0], *m.shape[1:])


def _real_congruence(t: np.ndarray, m: np.ndarray) -> np.ndarray:
    """``T M T^T`` for a real ``T``, as the two left products ``T (T M^T)^T``."""
    return _basis_product(t, _basis_product(t, m.T).T)


def _diag_propagate(fact: DiagFactorization, psi: np.ndarray, adjoint: bool) -> np.ndarray:
    coeffs = _basis_product(_adjoint(fact.eigvecs), psi)
    phases = np.conj(fact.exp_eigvals) if adjoint else fact.exp_eigvals
    return _basis_product(fact.eigvecs, phases * coeffs)


def derivative_action_diag(
    fact: DiagFactorization, da_da: Matrix | np.ndarray, psi: np.ndarray
) -> np.ndarray:
    """Derivative product ``(d exp(A) / da) psi`` through the eigenbasis.

    With ``A = S D S^dagger`` the derivative is
    ``S (K o (S^dagger (dA/da) S)) S^dagger`` where ``o`` is the
    elementwise product and ``K`` the divided-difference kernel of
    :class:`DiagFactorization`; the full inner matrix is required, so this
    path costs dense matrix products.  It is linear in ``da_da``, so the
    derivative along a control ``h_k`` is ``-i dt`` times its value at
    ``h_k``.
    """
    dense = da_da if isinstance(da_da, np.ndarray) else da_da.to_dense()
    if dense.shape != (fact.dim, fact.dim):
        raise ValueError("derivative generator dimension mismatch")
    s = fact.eigvecs
    s_h = _adjoint(s)
    inner = _real_congruence(s_h, dense) if s.dtype == np.float64 else s_h @ dense @ s
    inner *= fact.kernel
    return _basis_product(s, inner @ _basis_product(s_h, psi))


def _trace_product(w: np.ndarray, m: Matrix) -> complex:
    """``tr(W M)``, reading only the stored elements of ``M``."""
    if isinstance(m, DenseMatrix):
        return complex(np.einsum("ij,ji->", w, m.array))
    rows = np.repeat(np.arange(m.n_rows), np.diff(m.row_offsets))
    return complex(np.dot(w[m.col_indices, rows], m.values))


class StepEvaluator:
    """Propagates and differentiates one time step, caching its planning work.

    Evaluators come from :meth:`leangrape.costs.ControlProblem.step_evaluator`.
    With the scaling-and-squaring backend this holds the plan of
    ``exp(-i dt H)``, planned for ``dt ||H||_1`` and the ``sigma'`` of
    ``H``, plus lazily built block embeddings with their plans; the same
    embeddings, applied at ``+i dt`` to a co-state, give :meth:`pull_back`
    the adjoint derivatives and the moved co-state.  ``ctx.h_step`` is the
    one stored copy of the step's operator: every product scales it by
    ``-i dt`` or ``+i dt`` inside :func:`leangrape.expm.apply`.  With the
    diagonalization backend it holds the eigenfactorization.
    ``controls`` are the problem's control operators (see
    :class:`ControlOperators`), shared by every step of the problem.
    Nothing here scales with the number of time steps.
    """

    def __init__(self, ctx: StepContext, controls: ControlOperators):
        self.ctx = ctx
        self._controls = controls
        self._fact: DiagFactorization | None = None
        self._plan: expm.ExpmPlan | None = None
        self._sums: OperatorSums | None = None
        self._blocks: list[tuple[BlockDerivativeOperator, expm.ExpmPlan]] | None = None
        self._aux: dict[int, tuple[BlockDerivativeOperator, expm.ExpmPlan]] = {}

    def _factorization(self) -> DiagFactorization:
        if self._fact is None:
            self._fact = diag_prepare(self.ctx)
        return self._fact

    def _step_plan(self) -> expm.ExpmPlan:
        if self._plan is None:
            h = self.ctx.h_step
            self._plan = expm.make_plan(self.ctx.dt * h.one_norm(), h.max_row_nnz(), self.ctx.tau)
        return self._plan

    def _embedding(self, block: ChannelBlock) -> tuple[BlockDerivativeOperator, expm.ExpmPlan]:
        if self._sums is None:
            self._sums = OperatorSums(self.ctx.h_step)
        aux = BlockDerivativeOperator(self._sums, block)
        return aux, aux_plan(aux, self.ctx.dt, self.ctx.tau)

    def forward(self, psi: np.ndarray) -> np.ndarray:
        """``U psi = exp(-i dt H) psi``."""
        if self.ctx.backend is Backend.DIAGONALIZATION:
            return _diag_propagate(self._factorization(), psi, adjoint=False)
        return expm.apply(
            self.ctx.h_step, psi, self._step_plan(), validate=False, scale=-1j * self.ctx.dt
        )

    def adjoint(self, psi: np.ndarray) -> np.ndarray:
        """``U^dagger psi = exp(+i dt H) psi``, under the same plan."""
        if self.ctx.backend is Backend.DIAGONALIZATION:
            return _diag_propagate(self._factorization(), psi, adjoint=True)
        return expm.apply(
            self.ctx.h_step, psi, self._step_plan(), validate=False, scale=1j * self.ctx.dt
        )

    def pull_back(self, costate: np.ndarray, psi: np.ndarray) -> np.ndarray:
        """The overlaps ``<lambda| dU/da_k |psi>``, moving ``lambda`` back across the step.

        Returns the ``n_channels`` overlaps and overwrites the 1-D
        ``costate`` with ``U^dagger lambda``.

        On scaling and squaring each :class:`ChannelBlock`'s embedding
        ``E`` is applied at ``scale = +i dt`` to ``(0, lambda)``, planned by
        :func:`aux_plan`.  ``exp(i dt E)`` is
        ``[[U^dagger, (dU/da_k)^dagger], [0, U^dagger]]``, because ``H`` and
        the controls are Hermitian, so the top block holds
        ``(dU/da_k)^dagger lambda``, whose inner product with ``psi`` is the
        conjugate overlap, and the bottom block holds ``U^dagger lambda``.
        Once the last block has read ``lambda``, its bottom block replaces
        it: no separate adjoint runs.  That bottom block runs the products
        of :func:`leangrape.expm.apply` on ``H`` at ``+i dt`` under the
        block's plan (bit for bit on CSR storage).  The plan is certified
        for a norm and a ``sigma'`` no smaller than the step's, and the
        bound grows with both, so the moved co-state stays within ``tau``.

        On the diagonalization backend, with ``l = S^H lambda``,
        ``p = S^H psi`` and the kernel ``K``, the overlap along
        ``A_k = -i dt h_k`` is
        ``l^H (K o S^H A_k S) p = -i dt tr(W h_k)`` with ``W = S G^T S^H`` and
        ``G = (conj(l) p^T) o K``: two products of dense matrices per step,
        whatever the number of channels, and one pass over the stored
        elements of each control, which is never densified.  The co-state
        then moves by :meth:`adjoint`.
        """
        d = self.ctx.dim
        if costate.shape != (d,):
            raise ValueError(f"costate must have shape ({d},), got {costate.shape}")
        if self.ctx.backend is Backend.DIAGONALIZATION:
            fact = self._factorization()
            s = fact.eigvecs
            p = _basis_product(_adjoint(s), psi)
            g = np.multiply.outer(_basis_product(s.T, costate.conj()), p)  # conj(l) p^T
            g *= fact.kernel
            w = _real_congruence(s, g.T) if s.dtype == np.float64 else s @ g.T @ _adjoint(s)
            out = np.array([_trace_product(w, c.matrix) for c in self._controls.operators])
            out *= -1j * self.ctx.dt
            costate[...] = self.adjoint(costate)
            return out
        conj_psi = psi.conj()
        out = np.empty(len(self._controls.operators), dtype=np.complex128)
        blocks = self._derivative_blocks()
        k = 0
        for aux, plan in blocks:
            result = expm.apply(
                aux, aux.stack(costate), plan, validate=False, scale=1j * self.ctx.dt
            )
            tops, bottom = aux.split(result)
            out[k : k + aux.width] = conj_psi @ tops
            k += aux.width
            if aux is blocks[-1][0]:
                costate[...] = bottom
            # no view of a block's result outlives its overlaps
            del result, tops, bottom
        return np.conj(out, out=out)

    def _derivative_blocks(self) -> list[tuple[BlockDerivativeOperator, expm.ExpmPlan]]:
        if self._blocks is None:
            self._blocks = [self._embedding(b) for b in self._controls.blocks]
        return self._blocks

    def control_derivative(self, channel: int, psi: np.ndarray) -> np.ndarray:
        """``(dU/da_channel) psi`` for the backend of this step.

        The single-channel reference for :meth:`pull_back`: on
        scaling and squaring the channel's own block embedding, applied to
        ``(0, psi)``, carries the derivative in its top block.
        """
        operators = self._controls.operators
        if not 0 <= channel < len(operators):
            raise IndexError(f"control channel {channel} out of range")
        control = operators[channel]
        scale = -1j * self.ctx.dt
        if self.ctx.backend is Backend.DIAGONALIZATION:
            return scale * derivative_action_diag(self._factorization(), control.matrix, psi)
        if channel not in self._aux:
            self._aux[channel] = self._embedding(ChannelBlock((control,)))
        aux, plan = self._aux[channel]
        x, _ = aux.split(expm.apply(aux, aux.stack(psi), plan, validate=False, scale=scale))
        return x[:, 0].copy()
