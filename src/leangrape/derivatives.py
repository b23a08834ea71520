"""Propagator-state products, adjoints, and control derivatives.

Two interchangeable backends evaluate ``U psi``, ``U^dagger psi`` and
``(dU/da) psi`` for the short-time propagator ``U = exp(-i H dt)``:

* ``SCALING_SQUARING`` works matrix-free through the certified engine in
  :mod:`leangrape.expm`; derivatives use a block-upper-triangular
  embedding of dimension ``2d`` whose exponential action carries the
  derivative in its top block.
* ``DIAGONALIZATION`` factorizes ``-i H dt`` densely once per step and
  evaluates products and derivatives through the eigenbasis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import expm
from .sparse import DenseMatrix, Matrix, is_hermitian

__all__ = [
    "Backend",
    "StepContext",
    "DiagFactorization",
    "ScaledGenerator",
    "scale_controls",
    "BlockDerivativeOperator",
    "propagate",
    "propagate_adjoint",
    "derivative_action_aux",
    "diag_prepare",
    "derivative_action_diag",
    "StepEvaluator",
]

#: Relative threshold below which an eigenvalue gap counts as degenerate.
_DEGENERACY_RTOL = 1e-12


class Backend(Enum):
    SCALING_SQUARING = "scaling_squaring"
    DIAGONALIZATION = "diagonalization"


@dataclass(frozen=True)
class StepContext:
    """One time step: combined Hamiltonian, control operators, dt, engine choice.

    ``h_step`` already contains the control amplitudes of the step, i.e.
    it is ``H_s + sum_k a_k h_k``.  ``validate=False`` skips the
    Hermiticity check for callers that construct ``h_step`` from operators
    validated once up front.
    """

    h_step: Matrix
    h_controls: tuple[Matrix, ...]
    dt: float
    backend: Backend = Backend.SCALING_SQUARING
    tau: float = 1e-8
    validate: bool = True

    def __post_init__(self):
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        if self.validate:
            tol = 1e-12 * max(1.0, self.h_step.one_norm())
            if not is_hermitian(self.h_step, tol):
                raise ValueError("step Hamiltonian is not Hermitian within tolerance")
            for k, hc in enumerate(self.h_controls):
                if not is_hermitian(hc, 1e-12 * max(1.0, hc.one_norm())):
                    raise ValueError(f"control operator {k} is not Hermitian")

    @property
    def dim(self) -> int:
        return self.h_step.n_rows


@dataclass(frozen=True)
class DiagFactorization:
    """Eigenfactorization of the anti-Hermitian generator ``A = -i H dt``.

    ``eigvecs`` is unitary, ``eigvals`` holds the purely imaginary
    eigenvalues of ``A`` and ``exp_eigvals`` their elementwise
    exponentials.  ``exp_diffs[i, j] = exp_eigvals[j] - exp_eigvals[i]``
    and ``inv_gaps[i, j]`` is ``1 / (eigvals[j] - eigvals[i])`` with zeros
    on the diagonal and on (near-)degenerate pairs.
    """

    dim: int
    eigvecs: np.ndarray = field(repr=False)
    eigvals: np.ndarray = field(repr=False)
    exp_eigvals: np.ndarray = field(repr=False)
    exp_diffs: np.ndarray = field(repr=False)
    inv_gaps: np.ndarray = field(repr=False)


def _generator(ctx: StepContext) -> Matrix:
    return ctx.h_step.scaled(-1j * ctx.dt)


def propagate(ctx: StepContext, psi: np.ndarray) -> np.ndarray:
    """Apply the short-time propagator ``exp(-i H dt)`` to ``psi``."""
    return StepEvaluator(ctx).forward(psi)


def propagate_adjoint(ctx: StepContext, psi: np.ndarray) -> np.ndarray:
    """Apply the adjoint propagator ``exp(+i H dt)`` to ``psi``."""
    return StepEvaluator(ctx).adjoint(psi)


class ScaledGenerator:
    """A generator matrix with its column and row abs-sums and per-row element counts.

    These are the pieces the norms and the per-row element count of a
    block embedding are assembled from; they are computed once here.
    """

    __slots__ = ("matrix", "col_abs_sums", "row_abs_sums", "row_nnz")

    def __init__(self, matrix: Matrix):
        self.matrix = matrix
        self.col_abs_sums = matrix.col_abs_sums()
        self.row_abs_sums = matrix.row_abs_sums()
        self.row_nnz = matrix.row_nnz_counts()


def scale_controls(h_controls, dt: float) -> tuple[ScaledGenerator, ...]:
    """The control generators ``-i h_k dt`` of every channel."""
    return tuple(ScaledGenerator(hc.scaled(-1j * dt)) for hc in h_controls)


class BlockDerivativeOperator:
    """Matrix-free action of the block-embedded derivative generator.

    Acts on stacked vectors ``(x, y)`` as ``(A x + A_c y, A y)`` with
    ``A = -i H dt`` and ``A_c = -i h_c dt``, which is entrywise the
    :func:`leangrape.sparse.aux_embed` matrix without allocating it.  On
    CSR storage one stacked product is three state-dimension products:
    ``A x`` into the top block, ``A_c y`` accumulated onto it, and
    ``A y`` into the bottom block.  When either block is dense, the top
    block row ``T = [A | A_c]`` is kept as one column-major ``d x 2d``
    matrix whose left half serves as ``A``: a stacked product is then the
    two dense products ``T v`` and ``A y`` on the same stored elements.

    Norms and the per-row element count are assembled exactly from the
    blocks' column and row sums.  ``max_row_nnz`` is the largest
    ``n_A + n_c`` of a top-block row, and either way that row is one sum
    of its ``n_A + n_c`` products: a running sum on CSR storage, one
    ``2d``-term dot product on dense storage.  (Two partial sums of
    ``n_A`` and ``n_c`` terms plus one addition would have depth
    ``max(n_A, n_c) + 1 <= n_A + n_c`` and be covered as well.)
    """

    def __init__(self, step: ScaledGenerator, control: ScaledGenerator):
        self.step = step
        self.control = control
        d = step.matrix.n_rows
        self.n_rows = self.n_cols = 2 * d
        self.shape = (2 * d, 2 * d)
        self.nnz = 2 * step.matrix.nnz + control.matrix.nnz
        self._dense_top: np.ndarray | None = None
        if isinstance(step.matrix, DenseMatrix) or isinstance(control.matrix, DenseMatrix):
            top = np.empty((d, 2 * d), dtype=np.complex128, order="F")
            for half, m in ((top[:, :d], step.matrix), (top[:, d:], control.matrix)):
                half[...] = m.array if isinstance(m, DenseMatrix) else m.to_dense()
            self._dense_top = top

    def matvec(self, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        d = self.step.matrix.n_rows
        if v.shape != (2 * d,):
            raise ValueError("stacked vector dimension mismatch")
        if out is None:
            out = np.empty(2 * d, dtype=np.complex128)
        if self._dense_top is not None:
            np.matmul(self._dense_top, v, out=out[:d])
            np.matmul(self._dense_top[:, :d], v[d:], out=out[d:])
            return out
        gen = self.step.matrix
        gen.matvec(v[:d], out=out[:d])
        self.control.matrix.matvec_add(v[d:], out[:d])
        gen.matvec(v[d:], out=out[d:])
        return out

    def one_norm(self) -> float:
        gen_cols = self.step.col_abs_sums
        if gen_cols.size == 0:
            return 0.0
        return float(max(gen_cols.max(), (gen_cols + self.control.col_abs_sums).max()))

    def inf_norm(self) -> float:
        gen_rows = self.step.row_abs_sums
        if gen_rows.size == 0:
            return 0.0
        return float(max((gen_rows + self.control.row_abs_sums).max(), gen_rows.max()))

    def max_row_nnz(self) -> int:
        counts = self.step.row_nnz + self.control.row_nnz
        return int(counts.max()) if counts.size else 0


def aux_plan(aux, tau: float) -> expm.ExpmPlan:
    """Plan for the block-embedded derivative generator.

    The embedding is not anti-Hermitian, so the bound's norm argument uses
    the general two-norm surrogate ``sqrt(norm1 * norm_inf)`` instead of
    the one-norm, which keeps the certificate rigorous at the cost of a
    slightly larger bound.
    """
    surrogate = math.sqrt(aux.one_norm() * aux.inf_norm())
    return expm.make_plan(surrogate, aux.max_row_nnz(), tau)


def derivative_action_aux(
    ctx: StepContext, channel: int, psi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Derivative product ``(dU/da_k) psi`` via the block embedding.

    Returns ``(dU_psi, U_psi)``: applying the exponential of the embedded
    generator to the stacked vector ``(0, psi)`` yields the derivative in
    the top block and the propagated state in the bottom block.
    """
    psi = np.asarray(psi, dtype=np.complex128)
    if psi.shape != (ctx.dim,):
        raise ValueError("state dimension mismatch")
    result = StepEvaluator(ctx)._embedded_action(channel, psi)
    return result[: ctx.dim].copy(), result[ctx.dim :].copy()


def diag_prepare(ctx: StepContext) -> DiagFactorization:
    """Dense eigenfactorization of ``-i H dt`` for the current step."""
    h_dense = ctx.h_step.to_dense()
    w, vecs = np.linalg.eigh(h_dense * ctx.dt)
    eigvals = -1j * w.astype(np.complex128)
    exp_eigvals = np.exp(eigvals)
    exp_diffs = exp_eigvals[None, :] - exp_eigvals[:, None]
    gaps = eigvals[None, :] - eigvals[:, None]
    scale = float(np.abs(w).max()) if w.size else 0.0
    degenerate = np.abs(gaps) <= _DEGENERACY_RTOL * max(scale, 1e-300)
    inv_gaps = np.zeros_like(gaps)
    np.divide(1.0, gaps, out=inv_gaps, where=~degenerate)
    return DiagFactorization(
        dim=ctx.dim,
        eigvecs=vecs,
        eigvals=eigvals,
        exp_eigvals=exp_eigvals,
        exp_diffs=exp_diffs,
        inv_gaps=inv_gaps,
    )


def _diag_propagate(fact: DiagFactorization, psi: np.ndarray, adjoint: bool) -> np.ndarray:
    coeffs = fact.eigvecs.conj().T @ psi
    phases = np.conj(fact.exp_eigvals) if adjoint else fact.exp_eigvals
    return fact.eigvecs @ (phases * coeffs)


def derivative_action_diag(
    fact: DiagFactorization, da_da: Matrix | np.ndarray, psi: np.ndarray
) -> np.ndarray:
    """Derivative product ``(d exp(A) / da) psi`` through the eigenbasis.

    With ``A = S D S^dagger`` the derivative is
    ``S ((expD + E o F) o (S^dagger (dA/da) S)) S^dagger`` where ``o`` is
    the elementwise product; the full inner matrix is required, so this
    path costs dense matrix products.  Degenerate eigenvalue pairs
    contribute only through the diagonal ``expD`` term.
    """
    dense = da_da if isinstance(da_da, np.ndarray) else da_da.to_dense()
    if dense.shape != (fact.dim, fact.dim):
        raise ValueError("derivative generator dimension mismatch")
    s = fact.eigvecs
    inner = s.conj().T @ dense @ s
    hadamard = fact.exp_diffs * fact.inv_gaps
    hadamard = hadamard + np.diag(fact.exp_eigvals)
    weighted = hadamard * inner
    return s @ (weighted @ (s.conj().T @ psi))


class StepEvaluator:
    """Caches per-step planning work across forward, adjoint and derivative calls.

    With the scaling-and-squaring backend this holds the generator, its
    negation and its plan, plus lazily built block embeddings per control
    channel; with the diagonalization backend it holds the
    eigenfactorization.  ``controls`` are the scaled control generators
    of ``ctx`` (see :func:`scale_controls`), shared by every step with the
    same ``dt``; they are built here when not given.  Nothing here scales
    with the number of time steps.
    """

    def __init__(self, ctx: StepContext, controls: tuple[ScaledGenerator, ...] | None = None):
        self.ctx = ctx
        self._controls = controls
        self._fact: DiagFactorization | None = None
        self._gen: Matrix | None = None
        self._neg_gen: Matrix | None = None
        self._plan: expm.ExpmPlan | None = None
        self._step_sums: ScaledGenerator | None = None
        self._aux: dict[int, tuple[BlockDerivativeOperator, expm.ExpmPlan]] = {}

    def _factorization(self) -> DiagFactorization:
        if self._fact is None:
            self._fact = diag_prepare(self.ctx)
        return self._fact

    def _control(self, channel: int) -> ScaledGenerator:
        if not 0 <= channel < len(self.ctx.h_controls):
            raise IndexError(f"control channel {channel} out of range")
        if self._controls is None:
            self._controls = scale_controls(self.ctx.h_controls, self.ctx.dt)
        return self._controls[channel]

    def _generator_plan(self) -> tuple[Matrix, expm.ExpmPlan]:
        if self._gen is None:
            self._gen = _generator(self.ctx)
            self._plan = expm.make_plan(
                self._gen.one_norm(), self._gen.max_row_nnz(), self.ctx.tau
            )
        return self._gen, self._plan

    def forward(self, psi: np.ndarray) -> np.ndarray:
        if self.ctx.backend is Backend.DIAGONALIZATION:
            return _diag_propagate(self._factorization(), psi, adjoint=False)
        gen, plan = self._generator_plan()
        return expm.apply(gen, psi, plan, validate=False)

    def adjoint(self, psi: np.ndarray) -> np.ndarray:
        """``U^dagger psi``; the negated generator has the same norm, so the plan is shared."""
        if self.ctx.backend is Backend.DIAGONALIZATION:
            return _diag_propagate(self._factorization(), psi, adjoint=True)
        gen, plan = self._generator_plan()
        if self._neg_gen is None:
            self._neg_gen = gen.scaled(-1.0)
        return expm.apply(self._neg_gen, psi, plan, validate=False)

    def _embedded_action(self, channel: int, psi: np.ndarray) -> np.ndarray:
        """``exp(aux) (0, psi)``: the derivative on top, ``U psi`` below."""
        if channel not in self._aux:
            control = self._control(channel)
            if self._step_sums is None:
                self._step_sums = ScaledGenerator(self._generator_plan()[0])
            aux = BlockDerivativeOperator(self._step_sums, control)
            self._aux[channel] = (aux, aux_plan(aux, self.ctx.tau))
        aux, plan = self._aux[channel]
        d = self.ctx.dim
        stacked = np.zeros(2 * d, dtype=np.complex128)
        stacked[d:] = psi
        return expm.apply(aux, stacked, plan, validate=False)

    def control_derivative(self, channel: int, psi: np.ndarray) -> np.ndarray:
        """``(dU/da_channel) psi`` for the backend of this step."""
        if self.ctx.backend is Backend.DIAGONALIZATION:
            da = self._control(channel).matrix
            return derivative_action_diag(self._factorization(), da, psi)
        return self._embedded_action(channel, psi)[: self.ctx.dim].copy()
