"""Cost contributions and their analytic gradients.

Gradients are assembled by forward-backward propagation: one forward pass
produces the final state (plus any running scalars a cost needs), and the
backward pass recovers earlier states by adjoint propagation while
accumulating gradient components in descending step order.  No state
trajectory is ever stored, so the number of live state vectors is
independent of the number of time steps.  Recovering ``psi_n`` by adjoint
propagation doubles the propagation error (to at most ``2 N tau``
accumulated) in exchange for that constant memory footprint.

The backward pass carries one co-state ``lambda``, the adjoint
``dC/d<psi|`` of the cost, whatever the number of cost terms: every
term's backward recursion is linear in its co-state, so their weighted
sum is one recursion.  At each step it asks the step for all control
overlaps ``<lambda| dU/da_k |psi_{n-1}>`` at once and has it move the
state and the co-state back across the step, in place, in the same call
(:meth:`leangrape.derivatives.StepEvaluator.pull_back`); it holds no
derivative vector and no loop over channels.  A gate gradient propagates
each basis state forward once and back once; only the running gate cost
runs an extra forward sweep first, to collect the trace factor of every
step before its co-states start.

A line search evaluates cost-only trials (:func:`composite_cost`) and then
the gradient at the accepted one.  A :class:`SweepRecord` carries the
accepted trial's state sweep, its final state ``psi_N`` and cost, to
:func:`composite_grad`, which then runs only the backward pass: one
forward sweep per trial and one backward sweep per gradient.

Live-vector instrumentation: every gradient routine counts the state
vectors it holds through a :class:`VectorMeter` and reports the peak in
its :class:`GradientResult`.  A step stores its Hamiltonian once (on
the diagonalization backend only until it factorizes), and the problem
its controls once, whatever ``dt``; the first
scaling-and-squaring gradient adds the controls' row stacks, per
problem: on CSR storage views of the values the problem's step pattern
holds, which add only their indices, and on dense storage a second copy
of the controls.  The engine takes the time step as a scale.
The propagation engine itself adds a per-step scratch overhead that is
not metered.  A forward step on scaling and squaring moves its state in
place and holds two work vectors besides it, the Taylor term and the
product.  One pull-back on scaling and squaring holds the ``m_d`` Taylor
terms of its derivative plan that it reads and, besides them, ``psi``'s
term vector, which is the Horner vector after the moves, and one
contraction buffer that every product with ``H`` shares, of ``w * d``
elements for ``w`` channels to a stack, at most
``max(CHANNEL_BLOCK * d, STACK_ROWS)`` (see
:class:`~leangrape.derivatives.ControlOperators`): ``m_d * d + d + w * d``
elements.
On the diagonalization backend the factorization consumes the step's
Hamiltonian, scaling its assembled array in place as the eigensolver's
input, so a step holds only its eigenbasis; a pull-back holds, besides
it, at most two complex ``d x d`` arrays: the matrix it contracts and
one product.  The divided-difference kernel is formed a block of rows
at a time, never stored.  The state and the co-state are moved back in
their own arrays.  None of this depends on the number of time steps, of channels
or of cost terms.

A gate cost or gradient adds, besides its per-step arrays, one target
image ``U_T |h>`` (which the final cost's co-state starts in), built
after its basis state's forward sweep unless the running cost reads it
at every step, and no ``d x d`` array: a computational basis state is
built when its sweep starts, its target image is a copy of one column
of ``U_T``, a real
``U_T`` is read as float64, and the target's unitarity check forms one
column of ``U_T^dagger U_T`` at a time.  On CSR storage with scaling and
squaring a gate gradient's bytes are therefore ``O(nnz + m_d d)``, like a
state gradient's; the caller's ``U_T`` is ``d x d`` and held outside the
sweeps.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, partial

import numpy as np

from .derivatives import Backend, ControlOperators, StepContext, StepEvaluator
from .sparse import DenseMatrix, FixedPatternSum, Matrix, is_hermitian, linear_combine

__all__ = [
    "CostKind",
    "ControlField",
    "ControlProblem",
    "CostTerm",
    "GradientResult",
    "VectorMeter",
    "forward_propagate",
    "c1_state_grad",
    "c2_state_grad",
    "c3_state_grad",
    "c1_gate_grad",
    "c3_gate_grad",
    "composite_grad",
    "composite_cost",
    "SweepRecord",
]


class CostKind(Enum):
    STATE_INFIDELITY = "state_infidelity"
    STATE_PENALTY = "state_penalty"
    STATE_RUNNING_INFIDELITY = "state_running_infidelity"
    GATE_INFIDELITY = "gate_infidelity"
    GATE_RUNNING_INFIDELITY = "gate_running_infidelity"


_STATE_KINDS = (
    CostKind.STATE_INFIDELITY,
    CostKind.STATE_PENALTY,
    CostKind.STATE_RUNNING_INFIDELITY,
)


@dataclass(frozen=True)
class ControlField:
    """Piecewise-constant control amplitudes on ``n_steps x n_channels``.

    ``amplitudes`` is a private, read-only float64 copy of the given array,
    so a field never changes after construction.
    """

    n_steps: int
    n_channels: int
    dt: float
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=np.float64)
        amps.flags.writeable = False
        if amps.shape != (self.n_steps, self.n_channels):
            raise ValueError(
                f"amplitudes shape {amps.shape} does not match "
                f"({self.n_steps}, {self.n_channels})"
            )
        if self.n_steps < 1 or self.n_channels < 1:
            raise ValueError("need at least one step and one channel")
        if not 0.0 < self.dt < math.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not np.isfinite(amps).all():
            raise ValueError("control amplitudes must be finite")
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def constant(cls, value: float, n_steps: int, n_channels: int, dt: float) -> "ControlField":
        return cls(n_steps, n_channels, dt, np.full((n_steps, n_channels), value))

    def replace_amplitudes(self, amps: np.ndarray) -> "ControlField":
        return ControlField(self.n_steps, self.n_channels, self.dt, amps)


@dataclass(frozen=True)
class ControlProblem:
    """Static Hamiltonian, control operators and engine configuration.

    ``initial_state`` seeds state-transfer costs evaluated through
    :func:`composite_grad`; gate costs sweep the computational basis.

    Step Hamiltonians of CSR problems are assembled on the union
    sparsity pattern of ``h_static`` and ``h_controls``
    (:class:`~leangrape.sparse.FixedPatternSum`), built on first use and
    kept on the instance; it holds every stored value once.  Dense
    problems use :func:`leangrape.sparse.linear_combine`.  The control
    operators are wrapped once, with the pattern; the first
    scaling-and-squaring gradient adds their row-stacked channel blocks,
    views of the pattern's values on CSR storage.
    None of this depends on ``dt``: a step takes its time step as the
    propagation engine's scale, so fields with different ``dt`` share it.
    """

    h_static: Matrix
    h_controls: tuple[Matrix, ...]
    backend: Backend = Backend.SCALING_SQUARING
    tau: float = 1e-8
    initial_state: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "h_controls", tuple(self.h_controls))
        if not is_hermitian(self.h_static):
            raise ValueError("static Hamiltonian is not Hermitian within tolerance")
        for k, hc in enumerate(self.h_controls):
            if hc.shape != self.h_static.shape:
                raise ValueError(f"control operator {k} has mismatched shape")
            if not is_hermitian(hc):
                raise ValueError(f"control operator {k} is not Hermitian")

    @property
    def dim(self) -> int:
        return self.h_static.n_rows

    @property
    def n_channels(self) -> int:
        return len(self.h_controls)

    @cached_property
    def _pattern(self) -> FixedPatternSum | None:
        """Union-pattern assembler of the step Hamiltonians; None for dense storage."""
        ops = (self.h_static, *self.h_controls)
        if any(isinstance(m, DenseMatrix) for m in ops):
            return None
        return FixedPatternSum(ops)

    @cached_property
    def _controls(self) -> ControlOperators:
        """The control operators shared by every step evaluator of this problem."""
        return ControlOperators(self.h_controls, self._pattern)

    def step_evaluator(self, a: ControlField, n: int) -> StepEvaluator:
        """Evaluator for step ``n`` with the step's amplitudes folded in."""
        coeffs = np.empty(self.n_channels + 1, dtype=np.complex128)
        coeffs[0] = 1.0
        coeffs[1:] = a.amplitudes[n]
        if self._pattern is None:
            h_step = linear_combine(coeffs, [self.h_static, *self.h_controls])
        else:
            h_step = self._pattern.combine(coeffs)
        ctx = StepContext(h_step, a.dt, self.backend, self.tau)
        return StepEvaluator(ctx, self._controls)


@dataclass(frozen=True)
class CostTerm:
    """One weighted cost contribution with its target payload."""

    kind: CostKind
    weight: float = 1.0
    target_state: np.ndarray | None = None
    target_gate: np.ndarray | None = None
    penalty_op: Matrix | None = None

    def __post_init__(self):
        if not 0.0 <= self.weight < math.inf:
            raise ValueError(f"cost weights must be finite and non-negative, got {self.weight}")
        if self.target_state is not None:
            _check_state(np.asarray(self.target_state, dtype=np.complex128), "target_state")
        if self.kind in (CostKind.STATE_INFIDELITY, CostKind.STATE_RUNNING_INFIDELITY):
            if self.target_state is None:
                raise ValueError(f"{self.kind.value} requires target_state")
        elif self.kind is CostKind.STATE_PENALTY:
            if self.penalty_op is None:
                raise ValueError("state_penalty requires penalty_op")
            if not is_hermitian(self.penalty_op):
                raise ValueError("penalty operator must be Hermitian")
        else:
            if self.target_gate is None:
                raise ValueError(f"{self.kind.value} requires target_gate")
            u = np.asarray(self.target_gate)
            if u.ndim != 2 or u.shape[0] != u.shape[1]:
                raise ValueError(f"target gate must be square, got shape {u.shape}")
            defect = _unitarity_defect(u)
            # a finite gate whose products overflow is refused below, as not unitary
            if not math.isfinite(defect) and not all(np.isfinite(c).all() for c in u.T):
                raise ValueError("target gate has non-finite entries")
            if not defect <= 1e-10:
                raise ValueError(f"target gate is not unitary (defect {defect:.2e})")


@dataclass(frozen=True)
class GradientResult:
    """Cost value, gradient over (step, channel), and the live-vector peak.

    ``live_vector_peak`` is the largest number of state vectors the
    gradient algorithm held concurrently (engine scratch excluded; see the
    module docstring).  It must not depend on the number of time steps.
    """

    cost: float
    grad: np.ndarray
    live_vector_peak: int


class VectorMeter:
    """Counts concurrently held state vectors, in units of the state dimension."""

    def __init__(self, dim: int):
        self.dim = max(int(dim), 1)
        self.live = 0
        self.peak = 0

    def grab(self, vec: np.ndarray) -> np.ndarray:
        self.live += max(1, round(vec.size / self.dim))
        self.peak = max(self.peak, self.live)
        return vec

    def release(self, vec: np.ndarray) -> None:
        self.live -= max(1, round(vec.size / self.dim))


def _check_state(psi: np.ndarray, name: str) -> None:
    """Refuse states for which a certified cost means nothing."""
    if not np.isfinite(psi).all():
        raise ValueError(f"{name} has non-finite entries")
    norm = np.linalg.norm(psi)
    if abs(norm - 1.0) > 1e-10:
        raise ValueError(f"{name} is not normalized (norm {norm:.12g})")


def _unitarity_defect(u: np.ndarray) -> float:
    """``max |U^dagger U - 1|`` over the entries of a square ``U``; not finite unless ``U`` is.

    Column ``j`` of ``U^dagger U`` is ``conj(U^T conj(u_j))``, a product
    with the transpose view, so no conjugate copy of ``U`` and no other
    ``d x d`` array is formed; the outer ``conj`` leaves the moduli alone
    and is skipped.  A non-finite entry of column ``j`` makes diagonal
    entry ``j`` non-finite, and ``np.maximum`` keeps it.
    """
    worst = np.zeros(u.shape[1])
    modulus = np.empty(u.shape[1])
    with np.errstate(over="ignore", invalid="ignore"):  # the caller reads a non-finite defect
        for j, u_j in enumerate(u.T):
            column = u.T @ np.conj(u_j)
            column[j] -= 1.0
            np.maximum(worst, np.abs(column, out=modulus), out=worst)
    return float(worst.max())


def _as_state(psi: np.ndarray, dim: int, name: str) -> np.ndarray:
    psi = np.asarray(psi, dtype=np.complex128)
    if psi.shape != (dim,):
        raise ValueError(f"{name} has shape {psi.shape}, expected ({dim},)")
    _check_state(psi, name)
    return psi


class _StepMemo:
    """Step evaluators of one field: the last one reused, every step planned once.

    ``memo(n)`` is ``problem.step_evaluator(a, n)``.  A field whose channel
    count is not the problem's is refused when the memo is made.

    Consecutive sweeps meet at a repeated step: a forward sweep ends where
    its backward sweep starts, a backward sweep ends where the next basis
    state's forward sweep starts, and with a single step every visit is
    step 0 (a one-step gate gradient then builds one evaluator, not 3d).
    Only one step's operators are alive at a time: the memo lets the last
    evaluator go before it assembles the next step, so a forward sweep
    never holds the previous step's Hamiltonian (or, on the
    diagonalization backend, its eigenbasis) beside the new step's total
    and its assembly buffer.

    The memo also keeps, by step index, the plans each evaluator made
    (:attr:`~leangrape.derivatives.StepEvaluator.plans`) when the next
    step replaces it, and hands them to the step's next evaluator, so a
    revisit only assembles ``H``: a step is planned once per field, and
    its derivative plan once, by its first backward step.  On the
    diagonalization backend the plan is that of the step's certified
    forward moves, and no derivative plan is made.  That is two lists of
    one reference per step, and no vector.
    """

    __slots__ = ("_build", "_n", "_evaluator", "_plans", "_dplans")

    def __init__(self, problem: ControlProblem, a: ControlField):
        if a.n_channels != problem.n_channels:
            raise ValueError(
                f"field has {a.n_channels} channels, problem has {problem.n_channels}"
            )
        self._build = partial(problem.step_evaluator, a)
        self._n, self._evaluator = -1, None
        self._plans, self._dplans = [None] * a.n_steps, [None] * a.n_steps

    def __call__(self, n: int) -> StepEvaluator:
        if n == self._n:
            return self._evaluator
        if self._evaluator is not None:
            self._plans[self._n], self._dplans[self._n] = self._evaluator.plans
            self._n, self._evaluator = -1, None  # released before the next step is assembled
        evaluator = self._build(n)
        evaluator.plans = self._plans[n], self._dplans[n]
        self._n, self._evaluator = n, evaluator
        return evaluator


# ---------------------------------------------------------------------------
# state-transfer costs
#
# The three state costs share one backward recursion
#   lambda_n = U_{n+1}^+ lambda_{n+1} + dC/d<psi_n|,
# and the gradient at step n is Re <lambda_n| dU_n/da_k |psi_{n-1}>.
# Each term adds its weight w times its own drive:
#   final-state infidelity:  -2 w phi_T <phi_T|psi_N>       at n = N only
#   running penalty:          (2 w / N) Omega psi_n          at every n
#   running infidelity:      -(2 w / N) phi_T <phi_T|psi_n>  at every n
# so any subset runs as one pass with one co-state.


def _state_forward(
    step: Callable[[int], StepEvaluator],
    a: ControlField,
    psi0: np.ndarray,
    terms: list[CostTerm],
    meter: VectorMeter,
) -> tuple[np.ndarray, float]:
    """Forward sweep of the state costs from a validated ``psi0``.

    Returns the final state (still held on ``meter``) and the weighted
    cost of ``terms``.  With no terms this is plain propagation.  ``psi0``
    is only read: the sweep copies it once and every step moves that copy
    in place (``forward(psi, psi)``), so the sweep holds one state vector.
    """
    n_steps = a.n_steps
    penalty_sums = {}
    overlap_sums = {}
    psi = meter.grab(psi0.copy())
    for n in range(n_steps):
        step(n).forward(psi, psi)  # out=psi: in place
        for i, term in enumerate(terms):
            if term.kind is CostKind.STATE_PENALTY:
                w = meter.grab(term.penalty_op.matvec(psi))
                penalty_sums[i] = penalty_sums.get(i, 0.0) + np.vdot(psi, w).real
                meter.release(w)
            elif term.kind is CostKind.STATE_RUNNING_INFIDELITY:
                o = np.vdot(term.target_state, psi)
                overlap_sums[i] = overlap_sums.get(i, 0.0) + abs(o) ** 2

    cost = 0.0
    for i, term in enumerate(terms):
        if term.kind is CostKind.STATE_INFIDELITY:
            cost += term.weight * (1.0 - abs(np.vdot(psi, term.target_state)) ** 2)
        elif term.kind is CostKind.STATE_PENALTY:
            cost += term.weight * penalty_sums[i] / n_steps
        else:
            cost += term.weight * (1.0 - overlap_sums[i] / n_steps)
    return psi, cost


def forward_propagate(
    problem: ControlProblem, a: ControlField, psi0: np.ndarray
) -> np.ndarray:
    """Propagate ``psi0`` through all steps; only O(1) vectors are live."""
    psi0 = _as_state(psi0, problem.dim, "psi0")
    step = _StepMemo(problem, a)
    return _state_forward(step, a, psi0, [], VectorMeter(problem.dim))[0]


def _drive(
    lam: np.ndarray, terms: list[CostTerm], psi: np.ndarray, n_steps: int, meter: VectorMeter
) -> None:
    """Add the running terms' share of ``dC/d<psi_n|`` at ``psi = psi_n`` to ``lam``."""
    for term in terms:
        if term.kind is CostKind.STATE_PENALTY:
            drive = meter.grab(term.penalty_op.matvec(psi))
            drive *= 2.0 * term.weight / n_steps
            lam += drive
            meter.release(drive)
        elif term.kind is CostKind.STATE_RUNNING_INFIDELITY:
            z = np.vdot(term.target_state, psi)  # <phi_T | psi_n>
            lam += (-2.0 * term.weight / n_steps * z) * np.asarray(term.target_state)


def _state_backward(
    step: Callable[[int], StepEvaluator],
    a: ControlField,
    psi: np.ndarray,
    cost: float,
    terms: list[CostTerm],
    meter: VectorMeter,
) -> GradientResult:
    """Backward sweep of the state costs from ``psi_N`` and their cost.

    ``psi`` is held on ``meter`` and is moved back in place, together with
    the one co-state, by adjoint propagation.
    """
    n_steps, n_channels = a.n_steps, a.n_channels
    lam = meter.grab(np.zeros(psi.size, dtype=np.complex128))
    for term in terms:
        if term.kind is CostKind.STATE_INFIDELITY:
            z = np.vdot(term.target_state, psi)  # <phi_T | psi_N>
            lam += (-2.0 * term.weight * z) * np.asarray(term.target_state)
    _drive(lam, terms, psi, n_steps, meter)

    grad = np.zeros((n_steps, n_channels))
    for n in range(n_steps - 1, -1, -1):
        grad[n] = step(n).pull_back(lam, psi).real  # psi <- psi_{n-1}, lam <- U_n^+ lam
        if n > 0:
            _drive(lam, terms, psi, n_steps, meter)
    return GradientResult(cost=float(cost), grad=grad, live_vector_peak=meter.peak)


def _state_pass(
    problem: ControlProblem,
    a: ControlField,
    psi0: np.ndarray,
    terms: list[CostTerm],
) -> GradientResult:
    step = _StepMemo(problem, a)
    meter = VectorMeter(problem.dim)
    psi, cost = _state_forward(step, a, psi0, terms, meter)
    return _state_backward(step, a, psi, cost, terms, meter)


def c1_state_grad(
    problem: ControlProblem, a: ControlField, psi0: np.ndarray, phi_target: np.ndarray
) -> GradientResult:
    """Final-state transfer infidelity ``1 - |<phi_T|psi_N>|^2`` and its gradient."""
    d = problem.dim
    term = CostTerm(CostKind.STATE_INFIDELITY, target_state=_as_state(phi_target, d, "phi_target"))
    return _state_pass(problem, a, _as_state(psi0, d, "psi0"), [term])


def c2_state_grad(
    problem: ControlProblem, a: ControlField, psi0: np.ndarray, penalty_op: Matrix
) -> GradientResult:
    """Running expectation penalty ``(1/N) sum_n <psi_n|Omega|psi_n>`` and gradient."""
    term = CostTerm(CostKind.STATE_PENALTY, penalty_op=penalty_op)
    d = problem.dim
    if penalty_op.shape != (d, d):
        raise ValueError(f"penalty_op has shape {penalty_op.shape}, expected ({d}, {d})")
    return _state_pass(problem, a, _as_state(psi0, d, "psi0"), [term])


def c3_state_grad(
    problem: ControlProblem, a: ControlField, psi0: np.ndarray, phi_target: np.ndarray
) -> GradientResult:
    """Running transfer infidelity ``1 - (1/N) sum_n |<phi_T|psi_n>|^2`` and gradient."""
    d = problem.dim
    term = CostTerm(
        CostKind.STATE_RUNNING_INFIDELITY, target_state=_as_state(phi_target, d, "phi_target")
    )
    return _state_pass(problem, a, _as_state(psi0, d, "psi0"), [term])


# ---------------------------------------------------------------------------
# gate costs


def _gate_target(problem: ControlProblem, u_target: np.ndarray) -> np.ndarray:
    """The target gate as float64 when real and complex128 otherwise, not copied when it is."""
    u_target = np.asarray(u_target)
    if u_target.shape != (problem.dim, problem.dim):
        raise ValueError("target gate dimension mismatch")
    return np.asarray(u_target, np.complex128 if np.iscomplexobj(u_target) else np.float64)


def _basis_state(d: int, h: int) -> np.ndarray:
    """Computational basis state ``h``, built for one sweep."""
    state = np.zeros(d, dtype=np.complex128)
    state[h] = 1.0
    return state


def _target_image(u_target: np.ndarray, h: int) -> np.ndarray:
    """``U_T |h>``: a complex copy of column ``h`` of ``U_T``, with no product."""
    return u_target[:, h].astype(np.complex128)


def _gate_cost(traces: np.ndarray, d: int, running: bool) -> float:
    """The gate cost from its trace factors (see :func:`_gate_forward`)."""
    if running:
        return 1.0 - float(np.sum(np.abs(traces) ** 2)) / (len(traces) * d * d)
    return 1.0 - abs(traces[-1]) ** 2 / (d * d)


def _gate_forward(
    step: Callable[[int], StepEvaluator],
    a: ControlField,
    u_target: np.ndarray,
    running: bool,
    meter: VectorMeter,
) -> tuple[np.ndarray, float]:
    """Forward-propagate every basis state; return the trace factors and the cost.

    ``traces[n]`` is ``tr(U_T^+ U_{n,1})``, accumulated at every step for the
    running cost and at the last step only otherwise.  ``u_target`` comes
    from :func:`_gate_target`.
    """
    d = u_target.shape[0]
    n_steps = a.n_steps
    traces = np.zeros(n_steps, dtype=np.complex128)
    for h in range(d):
        # the running cost reads U_T |h> at every step, the final cost after the sweep
        target_image = meter.grab(_target_image(u_target, h)) if running else None
        psi = meter.grab(_basis_state(d, h))  # built for this sweep, so moved in place
        for n in range(n_steps):
            step(n).forward(psi, psi)  # out=psi: in place
            if running:
                traces[n] += np.vdot(target_image, psi)
        if not running:
            target_image = meter.grab(_target_image(u_target, h))
            traces[-1] += np.vdot(target_image, psi)
        meter.release(psi)
        meter.release(target_image)
    return traces, _gate_cost(traces, d, running)


def _gate_pass(
    problem: ControlProblem,
    a: ControlField,
    u_target: np.ndarray,
    running: bool,
) -> GradientResult:
    """Gate gradient from one forward-backward pair per basis state.

    The final gate cost needs one sweep over the basis states.  The trace
    factor ``tr(U_T^+ U_R)`` enters its gradient only as a common factor,
    so each forward pass adds its basis state's share to the trace, the
    backward pass starts its co-state at ``U_T |h>`` and the factor
    multiplies the accumulated overlaps once, after the last basis state.
    The running cost seeds every step's co-state with that step's trace
    factor, so it first runs :func:`_gate_forward` over all basis states
    to accumulate one complex scalar per step, then the same sweep.  At
    each backward step :meth:`~leangrape.derivatives.StepEvaluator.pull_back`
    gives the overlaps and moves the co-state back.  Live vectors stay
    O(1); only the per-step arrays persist: N trace factors, the complex
    overlap accumulator and the gradient, all allocated before the first
    sweep.

    In bytes, besides those arrays, a sweep holds what a state gradient
    holds plus the target image, and no ``d x d`` array: a computational
    basis state is built when its sweep starts and every step moves it in
    place, its target image is a copy of column ``h`` of ``U_T`` made when
    its forward sweep is done, and a
    real ``U_T`` is not copied to complex.  ``u_target`` is not checked
    for unitarity here; the gate gradients check it through
    :class:`CostTerm`, and a composite term was checked when it was made.
    """
    u_target = _gate_target(problem, u_target)
    d = problem.dim
    n_steps, n_channels = a.n_steps, a.n_channels
    step = _StepMemo(problem, a)
    meter = VectorMeter(d)
    if running:
        traces, cost = _gate_forward(step, a, u_target, True, meter)
    else:
        traces = np.zeros(n_steps, dtype=np.complex128)

    accum = np.zeros((n_steps, n_channels), dtype=np.complex128)
    # held from the start: the sweeps peak with every per-step array already live
    grad = np.empty((n_steps, n_channels))
    for h in range(d):
        psi = meter.grab(_basis_state(d, h))  # built for this sweep, so moved in place
        for n in range(n_steps):
            step(n).forward(psi, psi)  # out=psi: in place
        # built once the forward sweep is done, where the backward sweep reads it
        target_image = meter.grab(_target_image(u_target, h))
        if running:
            costate = meter.grab(target_image * traces[n_steps - 1])
        else:
            # the trace is the last read of target_image: the co-state starts in it
            traces[-1] += np.vdot(target_image, psi)
            costate = target_image
        for n in range(n_steps - 1, -1, -1):
            # psi <- psi_{n-1} and costate <- U_n^+ costate
            accum[n] += step(n).pull_back(costate, psi)
            if running and n > 0:
                costate += target_image * traces[n - 1]
        if running:
            meter.release(costate)
        meter.release(psi)
        meter.release(target_image)

    if running:
        np.multiply(accum.real, -2.0 / (n_steps * d * d), out=grad)
    else:
        cost = _gate_cost(traces, d, False)
        accum *= np.conj(traces[-1])
        np.multiply(accum.real, -2.0 / (d * d), out=grad)
    return GradientResult(cost=float(cost), grad=grad, live_vector_peak=meter.peak)


def c1_gate_grad(problem: ControlProblem, a: ControlField, u_target: np.ndarray) -> GradientResult:
    """Gate infidelity ``1 - |tr(U_T^+ U_R)/d|^2`` and its gradient."""
    term = CostTerm(CostKind.GATE_INFIDELITY, target_gate=u_target)
    return _gate_pass(problem, a, term.target_gate, running=False)


def c3_gate_grad(problem: ControlProblem, a: ControlField, u_target: np.ndarray) -> GradientResult:
    """Running gate infidelity ``1 - sum_n |tr(U_T^+ U_{n,1})|^2 / (N d^2)``."""
    term = CostTerm(CostKind.GATE_RUNNING_INFIDELITY, target_gate=u_target)
    return _gate_pass(problem, a, term.target_gate, running=True)


# ---------------------------------------------------------------------------
# composite costs
#
# State-transfer terms are fused into one state pass (they share the
# trajectory); each gate term runs its own basis sweep.  The cost-only and
# gradient entry points split the terms the same way and share the sweeps.
# A cost-only call can keep its state sweep in a SweepRecord, so that the
# gradient at the same point runs only the backward pass.


class SweepRecord:
    """The state terms' forward sweep of one :func:`composite_cost` call.

    ``composite_cost(problem, a, terms, record)`` empties the record, runs
    its sweeps and keeps here the problem, field and terms it ran, the
    state terms' weighted cost, their final state ``psi_N`` and the step
    memo that reached it.  ``composite_grad(problem, a, terms, record)``
    on the same field object, problem and terms then runs only the
    backward pass, moving that ``psi_N`` back in place, and empties the
    record; it refuses a record made for anything else, or an empty one.
    Gate terms keep nothing here (a gate sweep ends in ``d`` states), so
    their gradients still run their own forward sweeps.
    """

    def __init__(self):
        self.clear()

    def clear(self) -> None:
        self.problem = self.field = self.terms = None
        self.step = self.psi = None
        self.cost = 0.0

    def _keep(self, problem, a, terms, step, psi, cost) -> None:
        self.problem, self.field, self.terms = problem, a, tuple(terms)
        self.step, self.psi, self.cost = step, psi, cost

    def _take(
        self, problem: ControlProblem, a: ControlField, terms: list[CostTerm]
    ) -> tuple[Callable[[int], StepEvaluator], np.ndarray | None, float]:
        """The step memo, ``psi_N`` and state cost kept for exactly this point; empties."""
        if self.field is None:
            raise ValueError("sweep record is empty: it holds no composite_cost sweep")
        if self.problem is not problem:
            raise ValueError("sweep record was made for another problem")
        if self.field is not a:
            raise ValueError("sweep record was made for another field")
        if len(self.terms) != len(terms) or any(
            mine is not given for mine, given in zip(self.terms, terms)
        ):
            raise ValueError("sweep record was made for other terms")
        kept = self.step, self.psi, self.cost
        self.clear()
        return kept


def _split_terms(
    problem: ControlProblem, terms: list[CostTerm]
) -> tuple[np.ndarray | None, list[CostTerm], list[CostTerm]]:
    """Checked initial state with the state terms, and the gate terms.

    A term whose target or penalty operator does not fit ``problem.dim``
    is refused here, by its index, before any sweep runs.
    """
    if not terms:
        raise ValueError("composite cost needs at least one term")
    d = problem.dim
    for i, term in enumerate(terms):
        if term.kind in (CostKind.STATE_INFIDELITY, CostKind.STATE_RUNNING_INFIDELITY):
            name, shape, expected = "target_state", np.shape(term.target_state), (d,)
        elif term.kind is CostKind.STATE_PENALTY:
            name, shape, expected = "penalty_op", term.penalty_op.shape, (d, d)
        else:
            name, shape, expected = "target_gate", np.shape(term.target_gate), (d, d)
        if shape != expected:
            raise ValueError(
                f"terms[{i}] ({term.kind.value}): {name} has shape {shape}, expected {expected}"
            )
    state_terms = [t for t in terms if t.kind in _STATE_KINDS]
    psi0 = None
    if state_terms:
        if problem.initial_state is None:
            raise ValueError("state-transfer terms require problem.initial_state")
        psi0 = _as_state(problem.initial_state, d, "initial_state")
    return psi0, state_terms, [t for t in terms if t.kind not in _STATE_KINDS]


def composite_grad(
    problem: ControlProblem,
    a: ControlField,
    terms: list[CostTerm],
    record: SweepRecord | None = None,
) -> GradientResult:
    """Weighted sum of cost terms and gradients.

    With a ``record`` filled by :func:`composite_cost` at this very point
    (see :class:`SweepRecord`), the state terms skip their forward sweep.
    """
    psi0, state_terms, gate_terms = _split_terms(problem, terms)
    if record is not None:
        step, psi, cost = record._take(problem, a, terms)
    total_cost = 0.0
    total_grad = np.zeros((a.n_steps, a.n_channels))
    peak = 0
    if state_terms:
        if record is None:
            result = _state_pass(problem, a, psi0, state_terms)
        else:
            meter = VectorMeter(problem.dim)
            result = _state_backward(step, a, meter.grab(psi), cost, state_terms, meter)
        total_cost += result.cost
        total_grad += result.grad
        peak = max(peak, result.live_vector_peak)
    for term in gate_terms:
        running = term.kind is CostKind.GATE_RUNNING_INFIDELITY
        result = _gate_pass(problem, a, term.target_gate, running=running)
        total_cost += term.weight * result.cost
        total_grad += term.weight * result.grad
        peak = max(peak, result.live_vector_peak)
    return GradientResult(cost=float(total_cost), grad=total_grad, live_vector_peak=peak)


def composite_cost(
    problem: ControlProblem,
    a: ControlField,
    terms: list[CostTerm],
    record: SweepRecord | None = None,
) -> float:
    """Weighted cost only (forward sweeps, no gradient); used by line searches.

    A given ``record`` is emptied first and, once the sweeps complete,
    keeps the state terms' sweep for :func:`composite_grad`.
    """
    if record is not None:
        record.clear()
    psi0, state_terms, gate_terms = _split_terms(problem, terms)
    step = _StepMemo(problem, a)
    meter = VectorMeter(problem.dim)
    total = 0.0
    psi, state_cost = None, 0.0
    if state_terms:
        psi, state_cost = _state_forward(step, a, psi0, state_terms, meter)
        total += state_cost
    for term in gate_terms:
        u_target = _gate_target(problem, term.target_gate)
        running = term.kind is CostKind.GATE_RUNNING_INFIDELITY
        total += term.weight * _gate_forward(step, a, u_target, running, meter)[1]
    if record is not None:
        record._keep(problem, a, terms, step, psi, state_cost)
    return float(total)
