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
  2009): one application moves the co-state and hands its Taylor terms
  to a term sink, a Horner pass over the state builds the matching
  partial sums, and each pair is contracted through the controls,
  :data:`CHANNEL_BLOCK` at a time on CSR storage.  Its products with
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
    "BlockDerivativeOperator",
    "diag_prepare",
    "derivative_action_diag",
    "StepEvaluator",
]


#: Channels contracted at once on CSR storage: the contraction buffer of a
#: backward step holds ``CHANNEL_BLOCK`` state vectors.
CHANNEL_BLOCK = 4

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
    row-stacks consecutive channels :data:`CHANNEL_BLOCK` at a time, the
    last stack possibly narrower, so that one product gives ``h_k y`` for
    every channel of a stack: a ``(w d) x d`` matrix whose row ``t d + i``
    is row ``i`` of channel ``t``.  With a ``pattern``, the problem's
    :class:`~leangrape.sparse.FixedPatternSum` whose last terms are the
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

    @cached_property
    def stacks(self) -> tuple[Matrix, ...]:
        mats, w, pattern = self.matrices, CHANNEL_BLOCK, self._pattern
        if pattern is None:
            return tuple(_row_stack(mats[k : k + w]) for k in range(0, len(mats), w))
        first = pattern.term_offsets.size - 1 - len(mats)
        return tuple(
            pattern.stack(first + k, first + min(k + w, len(mats)))
            for k in range(0, len(mats), w)
        )

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
    :func:`leangrape.expm.apply` or a Horner pass.  With the
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
        """The overlaps ``<lambda| dU/da_k |psi_{n-1}>``, moving both vectors back a step.

        ``psi`` holds ``psi_n`` and ``costate`` holds ``lambda``, both 1-D
        complex arrays; they are overwritten with ``psi_{n-1} = U^dagger
        psi_n`` and ``U^dagger lambda``, and the ``n_channels`` overlaps are
        returned.

        On scaling and squaring the step runs its
        :class:`~leangrape.expm.DerivativePlan` ``(m_d, s)`` stage by stage,
        from the last stage.  Each stage moves the co-state with one
        :func:`leangrape.expm.apply` at ``+i dt`` whose term sink keeps its
        Taylor terms ``u_i``, then moves ``psi`` back under the step's plan,
        then runs a Horner pass at ``-i dt`` over the stage's ``psi``
        (``m_d - 1`` products), contracting each ``Y_i`` against
        ``conj(u_i)``, weighted by ``1 / (i + 1)``, through the row-stacked
        controls, :data:`CHANNEL_BLOCK` channels per product
        (:attr:`ControlOperators.stacks`).  Each stage sums its overlaps
        from zero and the stage sums are added last: the accumulation
        depth ``m_d + s`` that :func:`leangrape.expm.derivative_bound`
        charges.  A step costs ``m s + (2 m_d - 1) s`` products with ``H``,
        whatever the number of channels.  Stage by stage runs the scalars
        and products of one application, so the moved co-state is
        ``expm.apply(h_step, lambda, dplan.costate, scale=+i dt)`` and the
        moved ``psi`` is ``expm.apply(h_step, psi_n, dplan.state, scale=+i
        dt)``, bit for bit; ``dplan.state`` is the step's plan whenever that
        certifies, and ``psi`` then moves as :meth:`adjoint` moves it.
        Scratch: the ``m_d`` terms the pass reads (the sink drops
        ``u_{m_d}``), and besides them either the engine's three vectors,
        during a move, or, once both moves are done, the Horner vector (the
        moved ``psi``'s own array) and one contraction buffer of
        ``min(K, CHANNEL_BLOCK) d`` that the Horner product shares: at most
        ``(m_d + max(3, 1 + min(K, CHANNEL_BLOCK))) d`` complex entries.

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
        psi[...] = self.adjoint(psi)
        fact = self._factorization()
        s = fact.eigvecs
        p = _adjoint_product(s, psi)
        g = np.multiply.outer(_basis_product(s.T, costate.conj()), p)  # conj(l) p^T
        fact.scale_by_kernel(g)
        w = _transposed_congruence(s, g)
        del g  # a real basis leaves W in the other buffer; this one is spent
        out = np.array([_trace_product(w, m) for m in self._controls.matrices])
        out *= -1j * self.ctx.dt
        costate[...] = self.adjoint(costate)
        return out

    def _pull_back_taylor(self, costate: np.ndarray, psi: np.ndarray) -> np.ndarray:
        plan = self._derivative_plan()
        h, d, scaling = self.ctx.h_step, self.ctx.dim, plan.costate.scaling
        state, moves = plan.state.stage(), plan.costate.stage()
        back, ahead = 1j * self.ctx.dt / scaling, -1j * self.ctx.dt / scaling
        order = moves.order
        terms = np.empty((order, d), dtype=np.complex128)

        def keep(j: int, term: np.ndarray) -> None:
            if j < order:  # the last term, u_{m_d}, is never read
                terms[j] = term

        # each stage sums its terms from zero, then the stage sums add up:
        # the depth m_d + s that expm.derivative_bound charges
        acc = np.zeros(len(self._controls.matrices), dtype=np.complex128)
        for _ in range(scaling):
            costate[...] = expm.apply(h, costate, moves, validate=False, scale=back, sink=keep)
            np.conjugate(terms, out=terms)
            acc += self._stage_overlaps(terms, psi, state, back, ahead)
        acc *= ahead
        return acc

    def _stage_overlaps(
        self,
        terms: np.ndarray,
        psi: np.ndarray,
        state: expm.ExpmPlan,
        back: complex,
        ahead: complex,
    ) -> np.ndarray:
        """Move ``psi`` back one stage and sum the stage's overlaps from zero.

        The moved state's own array is the Horner vector ``Y_{m_d - 1}``,
        and the contraction buffer is allocated only once the engine's
        scratch is freed; both are freed on return, before the next stage
        moves.
        """
        h, d = self.ctx.h_step, self.ctx.dim
        y = expm.apply(h, psi, state, validate=False, scale=back)
        psi[...] = y
        stacks, work, parts = self._contraction(d)
        total = np.zeros(parts.size, dtype=np.complex128)
        for i in range(len(terms) - 1, -1, -1):
            for matvec, out, rows, part in stacks:
                matvec(y, out=out)
                np.dot(rows, terms[i], out=part)
            parts *= 1.0 / (i + 1)  # the terms' overlaps, by channel
            total += parts
            if i:  # Y_{i-1} = psi + B Y_i / (i + 1)
                h.matvec(y, out=work)
                np.multiply(work, ahead / (i + 1), out=y)
                y += psi
        return total

    def _contraction(self, d: int):
        """One buffer of ``min(K, CHANNEL_BLOCK) d`` for the stacks' and the Horner products.

        Returns, per stack, its ``matvec``, the buffer it writes ``h_k y``
        into, that buffer as ``(w, d)`` rows and the ``w`` entries of
        ``parts`` the rows' overlaps with one Taylor term go to; then the
        buffer's first ``d`` entries, where the Horner product goes (each
        stack's product is read before the next Horner product), and
        ``parts``.  Where a product fills the whole buffer it writes into
        the buffer itself, not a view, so it skips the overlap test
        :meth:`~leangrape.sparse.CsrMatrix.matvec` runs on views.
        """
        stacks = self._controls.stacks
        buf = np.empty(max(op.n_rows for op in stacks), dtype=np.complex128)
        parts = np.empty(len(self._controls.matrices), dtype=np.complex128)
        out, k = [], 0
        for op in stacks:
            w = op.n_rows // d
            rows = buf if op.n_rows == buf.size else buf[: op.n_rows]
            out.append((op.matvec, rows, rows.reshape(w, d), parts[k : k + w]))
            k += w
        return out, buf if buf.size == d else buf[:d], parts

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
