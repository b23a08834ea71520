"""Propagator-state products, adjoints, and control derivatives.

Two interchangeable backends evaluate ``U psi``, ``U^dagger psi`` and the
control overlaps ``<lambda| dU/da_k |psi>`` of the short-time propagator
``U = exp(-i H dt)`` with one co-state ``lambda``:

* ``SCALING_SQUARING`` works matrix-free through the certified engine in
  :mod:`leangrape.expm`.  The only stored operators are the step
  Hamiltonian ``H`` and the controls ``h_k``: the time step enters as the
  engine's ``scale`` (``-i dt`` forward, ``+i dt`` back), folded into its
  per-term scalar, so no generator ``-i dt H`` is ever materialized.
  A backward step differentiates the Taylor polynomial the engine
  evaluates (Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 30, 1639,
  2009): one Taylor pass moves the co-state and the state together and
  keeps the co-state's Taylor terms, a Horner pass over the state builds
  the matching partial sums, and each pair is contracted through the controls,
  row-stacked so that one product serves several channels (see
  :class:`ControlOperators`).  Its products with
  ``H`` do not depend on the number of channels, and
  :func:`leangrape.expm.derivative_plan` certifies the overlaps.  Van
  Loan's block-upper-triangular embedding ``[[H, h_k], [0, H]]``
  (:class:`BlockDerivativeOperator`), whose exponential action carries
  one channel's derivative in its top block, is the reference it is
  tested against.
* ``DIAGONALIZATION`` factorizes ``-i H dt`` densely once per step and
  evaluates products and overlaps through the eigenbasis, the overlaps
  ``-i dt tr(W h_k)`` of every channel in one Frobenius form.  A step
  whose Hamiltonian has no nonzero imaginary part is factorized by the
  real symmetric solver: its eigenbasis is float64 and every eigenbasis
  product runs as a real matrix product.  The factorization consumes
  the step's Hamiltonian: the solver's input is the step's own assembled
  array, scaled by ``dt`` in place, and the step keeps only its
  eigenbasis and eigenvalues.  The divided-difference kernel the
  derivatives need, its real factor included, is formed per block of
  rows, never stored.

Both sit behind :class:`StepEvaluator`, the one object that propagates
or differentiates a step.  Gradients call its
:meth:`~StepEvaluator.forward` and :meth:`~StepEvaluator.pull_back`,
which moves the state and the co-state back across the step itself.  Its
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
from .sparse import DenseMatrix, FixedPatternSum, Matrix

__all__ = [
    "Backend",
    "HamiltonianReleasedError",
    "DiagFactorization",
    "ControlOperators",
    "CHANNEL_BLOCK",
    "STACK_ROWS",
    "BlockDerivativeOperator",
    "diag_prepare",
    "derivative_action_diag",
    "StepEvaluator",
]


#: Fewest channels a control stack holds (the last stack possibly fewer):
#: on large problems the contraction buffer of a backward step holds
#: ``CHANNEL_BLOCK`` state vectors.
CHANNEL_BLOCK = 4

#: Row budget of a control stack: a stack holds
#: ``max(CHANNEL_BLOCK, STACK_ROWS // d)`` channels, up to ``STACK_ROWS``
#: rows below ``d = 256``, so a small problem contracts its channels in one
#: product per Taylor term, and the contraction buffer holds at most
#: ``max(CHANNEL_BLOCK * d, STACK_ROWS)`` entries: 16 KiB below ``d = 256``.
STACK_ROWS = 1024

#: Entries of the divided-difference kernel formed at once
#: (:meth:`DiagFactorization.scale_by_kernel`): 64 KiB complex, and its
#: real factor 32 KiB.
_KERNEL_BLOCK = 4096


class Backend(Enum):
    SCALING_SQUARING = "scaling_squaring"
    DIAGONALIZATION = "diagonalization"


class HamiltonianReleasedError(RuntimeError):
    """A step's Hamiltonian was read after its factorization consumed it."""


class StepContext:
    """One time step: combined Hamiltonian, dt and engine choice.

    ``h_step`` already contains the control amplitudes of the step, i.e.
    it is ``H_s + sum_k a_k h_k``; it is assembled by
    :meth:`leangrape.costs.ControlProblem.step_evaluator` from operators
    checked there, into an array of its own.  On the diagonalization
    backend the factorization consumes it (:func:`diag_prepare`, called
    by the step's first product): the array is overwritten by ``dt H``
    and released, and reading ``h_step`` from then on raises
    :class:`HamiltonianReleasedError`.  Read it before the step's first
    product.  ``dim`` is stored, so it outlives ``h_step``.
    """

    __slots__ = ("_h_step", "dt", "backend", "tau", "dim")

    def __init__(self, h_step: Matrix, dt: float, backend: Backend, tau: float):
        self._h_step: Matrix | None = h_step
        self.dt = dt
        self.backend = backend
        self.tau = tau
        self.dim: int = h_step.n_rows

    @property
    def h_step(self) -> Matrix:
        if self._h_step is None:
            raise HamiltonianReleasedError(
                "the step's Hamiltonian was consumed by its eigenfactorization"
            )
        return self._h_step

    def release_hamiltonian(self) -> Matrix:
        """``h_step``, which the step no longer holds once this returns."""
        h = self.h_step
        self._h_step = None
        return h


@dataclass(frozen=True)
class DiagFactorization:
    """Eigenfactorization of the anti-Hermitian generator ``A = -i H dt``.

    ``eigvecs`` is unitary: float64 (real orthogonal) when ``H`` is real,
    complex128 otherwise.  ``eigvals`` holds the purely imaginary
    eigenvalues of ``A`` and ``exp_eigvals`` their elementwise
    exponentials.  ``kernel[i, j]`` is the divided difference of ``exp``
    at ``eigvals[i]`` and ``eigvals[j]``; with ``eigvals = -i w`` it is
    ``half[i] half[j] sinc[i, j]``, ``half = exp(eigvals / 2)`` and
    ``sinc[i, j] = sinc((w_j - w_i) / 2)``, which is symmetric, tends to
    ``exp_eigvals[i]`` as the two eigenvalues meet and needs no degeneracy
    threshold.  Only derivatives read it, and they read it through
    :meth:`scale_by_kernel`, which forms it, its real factor ``sinc``
    included, a block of rows at a time from the eigenvalues: it is
    formed per block, never stored.  ``half`` is a vector, built on first
    use and cached.  ``kernel`` builds the whole kernel, on each access,
    for the reference derivative.
    """

    dim: int
    eigvecs: np.ndarray = field(repr=False)
    eigvals: np.ndarray = field(repr=False)
    exp_eigvals: np.ndarray = field(repr=False)

    @cached_property
    def half(self) -> np.ndarray:
        return np.exp(0.5 * self.eigvals)

    def _sinc_rows(self, rows: slice) -> np.ndarray:
        """Rows of ``np.sinc((w_j - w_i) / (2 pi))``, by numpy's own steps run in place."""
        w = -self.eigvals.imag
        y = w[None, :] - w[rows, None]
        y /= 2 * np.pi
        y *= np.pi
        y[y == 0] = np.finfo(np.float64).eps
        s = np.sin(y)
        s /= y
        return s

    @property
    def kernel(self) -> np.ndarray:
        return np.outer(self.half, self.half) * self._sinc_rows(slice(None))

    def scale_by_kernel(self, g: np.ndarray) -> None:
        """``g *= kernel`` in place, :data:`_KERNEL_BLOCK` kernel entries at a time.

        Each block ``outer(half[b], half) * sinc[b]`` rounds every entry as
        :attr:`kernel` does, so ``g`` comes out the same bit for bit.
        """
        half = self.half
        rows = max(1, _KERNEL_BLOCK // self.dim)
        for start in range(0, self.dim, rows):
            b = slice(start, start + rows)
            block = np.outer(half[b], half)
            block *= self._sinc_rows(b)
            g[b] *= block


def _row_stack(mats: tuple[Matrix, ...]) -> DenseMatrix:
    """The dense matrix whose row ``t d + i`` is row ``i`` of ``mats[t]``.

    The same products as each control's own, summed in whatever order
    BLAS picks, which the ``gamma_n`` model covers.
    """
    dense = [m.array if isinstance(m, DenseMatrix) else m.to_dense() for m in mats]
    return DenseMatrix._trusted(np.concatenate(dense, axis=0, dtype=np.complex128).copy("F"))


class ControlOperators:
    """The control operators ``h_k`` of one problem, as the overlaps read them.

    ``matrices[k]`` is channel ``k``, the problem's own matrix.  ``stacks``
    row-stacks consecutive channels, :attr:`per_stack` at a time, the
    last stack possibly narrower, so that one product gives ``h_k y`` for
    every channel of a stack: a ``(w d) x d`` matrix whose row ``t d + i``
    is row ``i`` of channel ``t``.  A stack holds
    ``max(CHANNEL_BLOCK, STACK_ROWS // d)`` channels: below ``d = 256`` up
    to :data:`STACK_ROWS` rows, often every channel in one stack, and from
    there on :data:`CHANNEL_BLOCK` channels.  With a ``pattern``, the
    problem's :class:`~leangrape.sparse.FixedPatternSum` whose last terms are the
    controls, the stacks are CSR views of the values it holds
    (:meth:`~leangrape.sparse.FixedPatternSum.stack`): each row runs
    exactly the running sum of its channel's row, and no control value is
    stored twice.  Without one they are dense (see :func:`_row_stack`), a
    second copy of the controls.  Either way they are built by the first
    scaling-and-squaring gradient, one set per problem.  ``norm1`` and
    ``max_row_nnz`` are the largest over the channels, which is what a
    derivative plan is certified for.  Nothing here depends on ``dt``, so
    every step of the problem shares one instance, whatever its time step.
    """

    def __init__(self, h_controls, pattern: FixedPatternSum | None = None):
        self.matrices = tuple(h_controls)
        self._pattern = pattern

    @property
    def per_stack(self) -> int:
        """Channels a stack holds: ``max(CHANNEL_BLOCK, STACK_ROWS // d)``."""
        d = self.matrices[0].n_rows if self.matrices else 1
        return max(CHANNEL_BLOCK, STACK_ROWS // max(d, 1))

    @cached_property
    def stacks(self) -> tuple[Matrix, ...]:
        mats, w, pattern = self.matrices, self.per_stack, self._pattern
        if pattern is None:
            return tuple(_row_stack(mats[k : k + w]) for k in range(0, len(mats), w))
        first = pattern.term_offsets.size - 1 - len(mats)
        return tuple(
            pattern.stack(first + k, first + min(k + w, len(mats)))
            for k in range(0, len(mats), w)
        )

    @cached_property
    def layout(self) -> tuple[tuple[tuple, ...], int]:
        """Per stack its unchecked product, rows and first and stop channel; the most rows.

        Computed once per problem, so a backward step only allocates the
        arrays its contraction reads (:meth:`StepEvaluator._contraction`).
        """
        stacks, n, w = self.stacks, len(self.matrices), self.per_stack
        layout = tuple(
            (op._product, op.n_rows, k, min(k + w, n))
            for k, op in zip(range(0, n, w), stacks)
        )
        return layout, max(op.n_rows for op in stacks)

    @cached_property
    def norm1(self) -> float:
        return max((m.one_norm() for m in self.matrices), default=0.0)

    @cached_property
    def max_row_nnz(self) -> int:
        return max((m.max_row_nnz() for m in self.matrices), default=0)


class BlockDerivativeOperator:
    """Matrix-free Van Loan embedding of one channel's derivative.

    The reference that :meth:`StepEvaluator.control_derivative` applies
    and :meth:`StepEvaluator.pull_back` is tested against.  The embedding
    ``E = [[H, h_k], [0, H]]``, in Hamiltonian units, acts on ``(x, y)``
    stacked as one ``2d`` vector and maps it to ``(H x + h_k y, H y)``.
    ``exp(-i dt E)`` applied to ``(0, psi)`` is ``((dU/da_k) psi, U psi)``;
    the engine takes ``-i dt`` as its ``scale``, so the generator
    ``-i dt E`` is never stored, and the operator keeps references to ``H``
    and ``h_k``, no copies.

    ``one_norm``, ``inf_norm`` and ``max_row_nnz`` are the embedding's,
    assembled exactly from the column and row sums of ``H`` and ``h_k``
    when the embedding is planned, in Hamiltonian units: ``dt`` times them
    is the generator's.  ``max_row_nnz`` is the largest ``n_H + n_k`` of a
    top row: a top entry is the sum of two partial sums over those
    elements, whose depth the count covers.
    """

    def __init__(self, step: Matrix, control: Matrix):
        self.step = step
        self.control = control
        d = step.n_rows
        self.n_rows = self.n_cols = 2 * d
        self.shape = (self.n_rows, self.n_cols)
        self.nnz = 2 * step.nnz + control.nnz

    def stack(self, psi: np.ndarray) -> np.ndarray:
        """The start vector: ``psi`` in the bottom block, a zero derivative on top."""
        v = np.zeros(self.n_rows, dtype=np.complex128)
        v[self.n_rows // 2 :] = psi
        return v

    def split(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Views of ``v`` as the top block ``x`` and the bottom block ``y``."""
        d = self.step.n_rows
        return v[:d], v[d:]

    def matvec(self, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        if v.shape != (self.n_rows,):
            raise ValueError("stacked vector dimension mismatch")
        if out is None:
            out = np.empty(self.n_rows, dtype=np.complex128)
        (x, y), (top, bottom) = self.split(v), self.split(out)
        self.step.matvec(x, out=top)
        top += self.control.matvec(y)
        self.step.matvec(y, out=bottom)
        return out

    # a top row or column holds every element of the bottom block's, and more

    def one_norm(self) -> float:
        return float((self.step.col_abs_sums() + self.control.col_abs_sums()).max(initial=0.0))

    def inf_norm(self) -> float:
        return float((self.step.row_abs_sums() + self.control.row_abs_sums()).max(initial=0.0))

    def max_row_nnz(self) -> int:
        return int((self.step.row_nnz_counts() + self.control.row_nnz_counts()).max(initial=0))


def aux_plan(aux: BlockDerivativeOperator, dt: float, tau: float) -> expm.ExpmPlan:
    """Plan for the block-embedded derivative generator ``-i dt E`` of ``aux = E``.

    The embedding is not anti-Hermitian, so the bound's norm argument uses
    the general two-norm surrogate ``dt sqrt(norm1 * norm_inf)`` instead of
    the one-norm, which keeps the certificate rigorous at the cost of a
    slightly larger bound.
    """
    surrogate = dt * math.sqrt(aux.one_norm() * aux.inf_norm())
    return expm.make_plan(surrogate, aux.max_row_nnz(), tau)


def diag_prepare(ctx: StepContext) -> DiagFactorization:
    """Dense eigenfactorization of ``-i H dt`` for the current step; consumes ``H``.

    A Hermitian ``H`` whose imaginary parts are all zero is that real
    symmetric matrix: the real solver reads the same lower triangle and
    its orthogonal eigenbasis is a unitary one, at a third of the
    complex solver's cost.

    The step gives up ``H`` (see :meth:`StepContext.release_hamiltonian`):
    reading ``ctx.h_step`` afterwards raises
    :class:`HamiltonianReleasedError`, while ``ctx.dim`` still reads
    ``d``.  Its dense array, the assembled one or the CSR matrix's
    densified copy, is scaled by ``dt`` in place (its real-part view for
    a real ``H``) and handed to the solver: no second copy of ``H``
    exists, and none is kept.
    """
    h = ctx.release_hamiltonian()
    dense = h.array if isinstance(h, DenseMatrix) else h.to_dense()
    a = dense if dense.imag.any() else dense.real
    a *= ctx.dt
    w, vecs = np.linalg.eigh(a)
    eigvals = -1j * w.astype(np.complex128)
    return DiagFactorization(
        dim=ctx.dim, eigvecs=vecs, eigvals=eigvals, exp_eigvals=np.exp(eigvals)
    )


def _basis_product(s: np.ndarray, m: np.ndarray) -> np.ndarray:
    """``S M`` for an eigenbasis matrix ``S`` (or its transpose) and a complex ``M``.

    A real ``S`` multiplies the float64 view of a C-contiguous ``M``: one
    real product over the interleaved real and imaginary columns, where
    numpy's mixed-type product would first copy ``S`` to complex.
    """
    if s.dtype != np.float64:
        return s @ m
    m = np.ascontiguousarray(m, dtype=np.complex128)
    return (s @ _real_view(m)).view(np.complex128).reshape(s.shape[0], *m.shape[1:])


def _real_view(m: np.ndarray) -> np.ndarray:
    """The float64 view of a C-contiguous complex array, its rows two columns per entry."""
    return m.view(np.float64).reshape(m.shape[0], -1)


def _adjoint_product(s: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``S^dagger v`` without a conjugate copy of ``S``.

    A real ``S`` multiplies by the view ``S^T``; a complex one runs
    ``conj(S^T conj(v))``.  Conjugation is exact and every rounding is
    symmetric under it, so that is the product with ``S^dagger`` bit for
    bit.
    """
    if s.dtype == np.float64:
        return _basis_product(s.T, v)
    out = s.T @ v.conj()
    np.conjugate(out, out=out)
    return out


def _transposed_congruence(s: np.ndarray, g: np.ndarray) -> np.ndarray:
    """``S G^T S^dagger`` for a C-contiguous ``G``, whose buffer it overwrites.

    One more ``d x d`` array holds the first product, and the second
    writes into whichever of the two is free.  A real ``S`` runs the two
    left products ``S (S G)^T``, the second reading ``(S G)^T`` from
    ``G``'s buffer.  A complex ``S`` runs ``(S G^T) S^dagger`` as
    ``conj(conj(S G^T) S^T)``, the same number bit for bit (see
    :func:`_adjoint_product`).
    """
    if s.dtype == np.float64:
        first = _basis_product(s, g)
        np.copyto(g, first.T)
        np.matmul(s, _real_view(g), out=_real_view(first))
        return first
    first = s @ g.T
    np.conjugate(first, out=first)
    np.matmul(first, s.T, out=g)
    np.conjugate(g, out=g)
    return g


def _diag_propagate(fact: DiagFactorization, psi: np.ndarray, adjoint: bool) -> np.ndarray:
    coeffs = _adjoint_product(fact.eigvecs, psi)
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
    s_h = s.T if s.dtype == np.float64 else s.conj().T
    inner = _transposed_congruence(s_h, dense.T.copy())
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
    ``H``, and the :class:`~leangrape.expm.DerivativePlan` of a backward
    step.  ``ctx.h_step`` is the one stored copy of the step's operator:
    every product scales it by ``-i dt`` or ``+i dt`` inside
    :func:`leangrape.expm.move`, :func:`leangrape.expm.move_pair` or a
    Horner pass, each product ``H``'s unchecked one.  With the
    diagonalization backend the first product factorizes the step and
    consumes ``ctx.h_step`` (see :func:`diag_prepare`); from then on the
    step holds its eigenfactorization only.
    ``controls`` are the problem's control operators (see
    :class:`ControlOperators`), shared by every step of the problem.
    Nothing here scales with the number of time steps; the block
    embedding of :meth:`control_derivative`, the reference path, is
    built and planned on each call and keeps references to ``H`` and the
    control only.
    """

    def __init__(self, ctx: StepContext, controls: ControlOperators):
        self.ctx = ctx
        self._controls = controls
        self._fact: DiagFactorization | None = None
        self._plan: expm.ExpmPlan | None = None
        self._dplan: expm.DerivativePlan | None = None

    @property
    def plans(self) -> tuple[expm.ExpmPlan | None, expm.DerivativePlan | None]:
        """The step's plan and its derivative plan, each None until a product made it.

        Both depend only on the step's Hamiltonian, ``dt`` and ``tau``, so
        another evaluator of the same step of the same field may be handed
        them (:func:`leangrape.costs._step_evaluators` does): its products
        then skip planning and run under the very same plans.
        """
        return self._plan, self._dplan

    @plans.setter
    def plans(self, kept: tuple[expm.ExpmPlan | None, expm.DerivativePlan | None]) -> None:
        self._plan, self._dplan = kept

    def _factorization(self) -> DiagFactorization:
        if self._fact is None:
            self._fact = diag_prepare(self.ctx)
        return self._fact

    def _step_plan(self) -> expm.ExpmPlan:
        if self._plan is None:
            h = self.ctx.h_step
            self._plan = expm.make_plan(self.ctx.dt * h.one_norm(), h.max_row_nnz(), self.ctx.tau)
        return self._plan

    def _derivative_plan(self) -> expm.DerivativePlan:
        if self._dplan is None:
            c = self._controls
            self._dplan = expm.derivative_plan(
                self._step_plan(), self.ctx.dt * c.norm1, c.max_row_nnz, self.ctx.dim
            )
        return self._dplan

    def forward(self, psi: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``U psi = exp(-i dt H) psi``, into ``out`` when given, else into a new array.

        ``psi`` is left as it is unless ``out`` is ``psi``: ``forward(psi,
        psi)`` moves it in place, with the same bits.  ``out`` is returned.
        On scaling and squaring ``out`` starts as a copy of ``psi`` (none
        when it is ``psi``) and moves in place under the step's plan
        through :func:`leangrape.expm.move`, every product ``H``'s
        unchecked one: bit for bit ``expm.apply(h_step, psi, plan,
        scale=-i dt)``.  Scratch: two vectors, the Taylor term and the
        product.  On the diagonalization backend the eigenbasis products
        form a new array, copied into ``out`` when one is given.
        """
        return self._move(psi, out, adjoint=False)

    def adjoint(self, psi: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``U^dagger psi = exp(+i dt H) psi``, under the same plan; as :meth:`forward`."""
        return self._move(psi, out, adjoint=True)

    def _move(self, psi: np.ndarray, out: np.ndarray | None, adjoint: bool) -> np.ndarray:
        """:meth:`forward`, or :meth:`adjoint` when ``adjoint``."""
        d = self.ctx.dim
        if out is not None and (out.shape != (d,) or out.dtype != np.complex128):
            raise ValueError(
                f"out must be a complex128 array of shape ({d},), got {out.dtype} {out.shape}"
            )
        if self.ctx.backend is Backend.DIAGONALIZATION:
            moved = _diag_propagate(self._factorization(), psi, adjoint)
            if out is None:
                return moved
            np.copyto(out, moved)
            return out
        # out is psi was checked as out
        if out is not psi and np.shape(psi) != (d,):
            raise ValueError(f"psi has shape {np.shape(psi)}, expected ({d},)")
        if out is None:
            out = np.array(psi, dtype=np.complex128)
        elif out is not psi:
            np.copyto(out, psi)
        scale = (1j if adjoint else -1j) * self.ctx.dt
        term, work = np.empty(d, dtype=np.complex128), np.empty(d, dtype=np.complex128)
        expm.move(self.ctx.h_step, out, self._step_plan(), scale, term, work)
        return out

    def pull_back(self, costate: np.ndarray, psi: np.ndarray) -> np.ndarray:
        """The overlaps ``<lambda| dU/da_k |psi_{n-1}>``, moving both vectors back a step.

        ``psi`` holds ``psi_n`` and ``costate`` holds ``lambda``, both 1-D
        complex arrays; they are overwritten with ``psi_{n-1} = U^dagger
        psi_n`` and ``U^dagger lambda``, and the ``n_channels`` overlaps are
        returned.

        On scaling and squaring the step runs its
        :class:`~leangrape.expm.DerivativePlan` ``(m_d, s)`` stage by stage,
        from the last stage.  Each stage first moves the co-state and ``psi``
        at ``+i dt`` in one Taylor pass, :func:`leangrape.expm.move_pair`:
        the co-state row runs to ``m_d`` and keeps its Taylor terms ``u_i``,
        the ``psi`` row stops at the order of the step's plan.  Then a
        Horner pass at ``-i dt`` over the stage's moved ``psi`` (``m_d - 1``
        products) contracts each ``Y_i`` against ``conj(u_i)``, weighted by
        ``1 / (i + 1)``, through the row-stacked controls,
        ``w = min(K, max(CHANNEL_BLOCK, STACK_ROWS // d))`` channels per
        product (:attr:`ControlOperators.stacks`).  Each stage sums its
        overlaps from zero and the stage sums are added last: the
        accumulation depth ``m_d + s`` that
        :func:`leangrape.expm.derivative_bound` charges.  A step costs
        ``m s + (2 m_d - 1) s`` products with ``H``, whatever the number of
        channels.  The two moves run the products, scalars and additions of
        one application each, so the moved co-state is
        ``expm.apply(h_step, lambda, dplan.costate, scale=+i dt)`` and the
        moved ``psi`` is ``expm.apply(h_step, psi_n, dplan.state, scale=+i
        dt)``, bit for bit; ``dplan.state`` is the step's plan whenever that
        certifies, and ``psi`` then moves as :meth:`adjoint` moves it.  The
        step checks its two vectors once, here, and owns every other array
        it touches, so each product with ``H`` and with a stack runs the
        matrix's unchecked product (``_product``), never ``matvec`` or
        ``expm.apply``.  Its per-term scalars, the Horner scalars and the
        contraction weights are read from
        :func:`leangrape.expm.term_scalars`.  Scratch, allocated on entry
        and held to the end: the ``m_d`` terms, ``psi``'s term vector
        during the moves, which is the Horner vector after them, and one
        contraction buffer of ``w d`` entries, at most ``max(CHANNEL_BLOCK d, STACK_ROWS)``, whose first
        ``d`` entries take every product with ``H`` (and the co-state's last
        term, ``u_{m_d}``, which nothing reads): ``m_d d + d + w d`` complex
        entries.

        On the diagonalization backend ``psi`` moves by :meth:`adjoint`
        first.  With ``l = S^H lambda``, ``p = S^H psi`` and the kernel
        ``K``, the overlap along ``A_k = -i dt h_k`` is
        ``l^H (K o S^H A_k S) p = -i dt tr(W h_k)`` with ``W = S G^T S^H`` and
        ``G = (conj(l) p^T) o K``: two products of dense matrices per step,
        whatever the number of channels, and one pass over the stored
        elements of each control, which is never densified.  The co-state
        then moves by :meth:`adjoint`.  Scratch, besides the step's
        eigenbasis (the step holds no ``H`` once factorized): ``G``, formed
        in place (the kernel scales it a block of rows at a time, see
        :meth:`DiagFactorization.scale_by_kernel`) and one more ``d x d``
        complex array for the products (see
        :func:`_transposed_congruence`): two complex ``d x d`` arrays at
        most.
        """
        d = self.ctx.dim
        for name, v in (("costate", costate), ("psi", psi)):
            if v.shape != (d,) or v.dtype != np.complex128:
                raise ValueError(
                    f"{name} must be a complex128 array of shape ({d},), "
                    f"got {v.dtype} {v.shape}"
                )
        if self.ctx.backend is Backend.DIAGONALIZATION:
            return self._pull_back_eigen(costate, psi)
        return self._pull_back_taylor(costate, psi)

    def _pull_back_eigen(self, costate: np.ndarray, psi: np.ndarray) -> np.ndarray:
        self.adjoint(psi, psi)
        fact = self._factorization()
        s = fact.eigvecs
        p = _adjoint_product(s, psi)
        g = np.multiply.outer(_basis_product(s.T, costate.conj()), p)  # conj(l) p^T
        fact.scale_by_kernel(g)
        w = _transposed_congruence(s, g)
        del g  # a real basis leaves W in the other buffer; this one is spent
        out = np.array([_trace_product(w, m) for m in self._controls.matrices])
        out *= -1j * self.ctx.dt
        self.adjoint(costate, costate)
        return out

    def _pull_back_taylor(self, costate: np.ndarray, psi: np.ndarray) -> np.ndarray:
        plan = self._derivative_plan()
        h, d, dt = self.ctx.h_step, self.ctx.dim, self.ctx.dt
        product, scaling, m_d = h._product, plan.costate.scaling, plan.costate.order
        ahead = -1j * dt / scaling
        # the Horner scalars ahead / (i + 1) and the contraction weights 1 / (i + 1)
        horner, weights = expm.term_scalars(ahead, m_d), expm.term_scalars(1.0, m_d)
        # every array the step reads or writes besides the two it moves
        stacks, work, parts = self._contraction(d)
        terms = np.empty((m_d, d), dtype=np.complex128)
        y = np.empty(d, dtype=np.complex128)  # psi's term in the moves, then the Horner vector
        acc = np.zeros(parts.size, dtype=np.complex128)
        for _ in range(scaling):
            expm.move_pair(h, costate, psi, plan, 1j * dt, terms, y, work)
            np.conjugate(terms, out=terms)
            # each stage sums its terms from zero, then the stage sums add up:
            # the depth m_d + s that expm.derivative_bound charges
            total = np.zeros(parts.size, dtype=np.complex128)
            np.copyto(y, psi)  # Y_{m_d - 1}
            for i in range(m_d - 1, -1, -1):
                term = terms[i]
                for stack_product, out, rows, part in stacks:
                    stack_product(y, out)
                    np.dot(rows, term, part)
                np.multiply(parts, weights[i], parts)  # the terms' overlaps, by channel
                np.add(total, parts, total)
                if i:  # Y_{i-1} = psi + B Y_i / (i + 1)
                    product(y, work)
                    np.multiply(work, horner[i], y)
                    np.add(y, psi, y)
            np.add(acc, total, acc)
        acc *= ahead
        return acc

    def _contraction(self, d: int):
        """One buffer of ``w d`` for the stacks' and the Horner products, ``w`` the widest stack's.

        Returns, per stack, its unchecked product, the buffer it writes
        ``h_k y`` into, that buffer as ``(w, d)`` rows and the ``w`` entries
        of ``parts`` the rows' overlaps with one Taylor term go to; then the
        buffer's first ``d`` entries, where the moves' and the Horner
        products go (each stack's product is read before the next Horner
        product), and ``parts``.  The layout is the problem's
        (:attr:`ControlOperators.layout`); only the arrays are the step's.
        """
        layout, size = self._controls.layout
        buf = np.empty(size, dtype=np.complex128)
        parts = np.empty(len(self._controls.matrices), dtype=np.complex128)
        stacks = []
        for product, n_rows, first, stop in layout:
            rows = buf if n_rows == size else buf[:n_rows]
            stacks.append((product, rows, rows.reshape(-1, d), parts[first:stop]))
        return stacks, buf if size == d else buf[:d], parts

    def control_derivative(self, channel: int, psi: np.ndarray) -> np.ndarray:
        """``(dU/da_channel) psi`` for the backend of this step.

        The single-channel reference for :meth:`pull_back`: on scaling and
        squaring the channel's own block embedding (see
        :class:`BlockDerivativeOperator`), applied to ``(0, psi)``, carries
        the derivative in its top block.
        """
        matrices = self._controls.matrices
        if not 0 <= channel < len(matrices):
            raise IndexError(f"control channel {channel} out of range")
        control = matrices[channel]
        scale = -1j * self.ctx.dt
        if self.ctx.backend is Backend.DIAGONALIZATION:
            return scale * derivative_action_diag(self._factorization(), control, psi)
        aux = BlockDerivativeOperator(self.ctx.h_step, control)
        plan = aux_plan(aux, self.ctx.dt, self.ctx.tau)
        x, _ = aux.split(expm.apply(aux, aux.stack(psi), plan, validate=False, scale=scale))
        return x.copy()
