"""Cost contributions and their analytic gradients.

Gradients are assembled by forward-backward propagation: one forward pass
produces the final state (plus any running scalars a cost needs), and the
backward pass recovers earlier states by adjoint propagation while
accumulating gradient components in descending step order.  No state
trajectory is ever stored, so the number of live state vectors is
independent of the number of time steps.  Recovering ``psi_n`` by adjoint
propagation doubles the propagation error (to at most ``2 N tau``
accumulated) in exchange for that constant memory footprint.

Live-vector instrumentation: every gradient routine counts the state
vectors it holds through a :class:`VectorMeter` and reports the peak in
its :class:`GradientResult`.  Vectors of the doubled derivative-embedding
dimension count as two.  The propagation engine itself adds a constant
per-call scratch overhead (three work vectors, plus the stacked in/out
pair for derivative embeddings) that does not grow with anything and is
not metered.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, lru_cache, partial

import numpy as np

from .derivatives import Backend, ScaledGenerator, StepContext, StepEvaluator, scale_controls
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
    """Piecewise-constant control amplitudes on ``n_steps x n_channels``."""

    n_steps: int
    n_channels: int
    dt: float
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=np.float64)
        if amps.shape != (self.n_steps, self.n_channels):
            raise ValueError(
                f"amplitudes shape {amps.shape} does not match "
                f"({self.n_steps}, {self.n_channels})"
            )
        if self.n_steps < 1 or self.n_channels < 1:
            raise ValueError("need at least one step and one channel")
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
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
    :func:`composite_grad`; gate costs use ``basis`` (computational basis
    when omitted).

    Step Hamiltonians of CSR problems are assembled on the union
    sparsity pattern of ``h_static`` and ``h_controls``, built on first
    use and kept on the instance; dense problems use
    :func:`leangrape.sparse.linear_combine`.  The scaled control
    generators of the most recent ``dt`` are kept as well.
    """

    h_static: Matrix
    h_controls: tuple[Matrix, ...]
    backend: Backend = Backend.SCALING_SQUARING
    tau: float = 1e-8
    initial_state: np.ndarray | None = None
    basis: tuple[np.ndarray, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "h_controls", tuple(self.h_controls))
        tol = 1e-12 * max(1.0, self.h_static.one_norm())
        if not is_hermitian(self.h_static, tol):
            raise ValueError("static Hamiltonian is not Hermitian within tolerance")
        for k, hc in enumerate(self.h_controls):
            if hc.shape != self.h_static.shape:
                raise ValueError(f"control operator {k} has mismatched shape")
            if not is_hermitian(hc, 1e-12 * max(1.0, hc.one_norm())):
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

    def _scaled_controls(self, dt: float) -> tuple[ScaledGenerator, ...]:
        cached = self.__dict__.get("_controls_at")
        if cached is None or cached[0] != dt:
            cached = (dt, scale_controls(self.h_controls, dt))
            self.__dict__["_controls_at"] = cached
        return cached[1]

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
        return StepEvaluator(ctx, self._scaled_controls(a.dt))


@dataclass(frozen=True)
class CostTerm:
    """One weighted cost contribution with its target payload."""

    kind: CostKind
    weight: float = 1.0
    target_state: np.ndarray | None = None
    target_gate: np.ndarray | None = None
    penalty_op: Matrix | None = None

    def __post_init__(self):
        if self.weight < 0.0:
            raise ValueError("cost weights must be non-negative")
        if self.target_state is not None:
            _check_state(np.asarray(self.target_state, dtype=np.complex128), "target_state")
        if self.kind in (CostKind.STATE_INFIDELITY, CostKind.STATE_RUNNING_INFIDELITY):
            if self.target_state is None:
                raise ValueError(f"{self.kind.value} requires target_state")
        elif self.kind is CostKind.STATE_PENALTY:
            if self.penalty_op is None:
                raise ValueError("state_penalty requires penalty_op")
            if not is_hermitian(self.penalty_op, 1e-12 * max(1.0, self.penalty_op.one_norm())):
                raise ValueError("penalty operator must be Hermitian")
        else:
            if self.target_gate is None:
                raise ValueError(f"{self.kind.value} requires target_gate")
            u = np.asarray(self.target_gate)
            defect = np.abs(u.conj().T @ u - np.eye(u.shape[0])).max()
            if defect > 1e-10:
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


def _as_state(psi: np.ndarray, dim: int, name: str) -> np.ndarray:
    psi = np.asarray(psi, dtype=np.complex128)
    if psi.shape != (dim,):
        raise ValueError(f"{name} has shape {psi.shape}, expected ({dim},)")
    _check_state(psi, name)
    return psi


def _step_evaluators(problem: ControlProblem, a: ControlField) -> Callable[[int], StepEvaluator]:
    """``n -> problem.step_evaluator(a, n)``, reusing the last evaluator when ``n`` repeats.

    Consecutive sweeps meet at a repeated step: a forward sweep ends where
    its backward sweep starts, a backward sweep ends where the next basis
    state's forward sweep starts, and with a single step every visit is
    step 0 (a one-step gate gradient then builds one evaluator, not 3d).
    Only one step's operators are alive at a time.
    """
    if a.n_channels != problem.n_channels:
        raise ValueError(
            f"field has {a.n_channels} channels, problem has {problem.n_channels}"
        )
    return lru_cache(maxsize=1)(partial(problem.step_evaluator, a))


# ---------------------------------------------------------------------------
# state-transfer costs
#
# The three state costs share one backward recursion pattern, differing in
# the co-state they drag along:
#   final-state infidelity:  phi_n   = U_{n+1}^+ phi_{n+1}
#   running penalty:         Phi_n   = U_{n+1}^+ Phi_{n+1} + Omega psi_n
#   running infidelity:      Phi_T,n = U_{n+1}^+ Phi_T,n+1 + phi_T <phi_T|psi_n>
# The fused implementation below evaluates any subset in a single pass.


def _state_forward(
    step: Callable[[int], StepEvaluator],
    a: ControlField,
    psi0: np.ndarray,
    terms: list[CostTerm],
    meter: VectorMeter,
) -> tuple[np.ndarray, float, dict[int, complex]]:
    """Forward sweep of the state costs from a validated ``psi0``.

    Returns the final state (still held on ``meter``), the weighted cost of
    ``terms`` and, per final-infidelity term, the overlap ``<psi_N|phi_T>``.
    With no terms this is plain propagation.
    """
    n_steps = a.n_steps
    penalty_sums = {}
    overlap_sums = {}
    psi = meter.grab(psi0.copy())
    for n in range(n_steps):
        nxt = meter.grab(step(n).forward(psi))
        meter.release(psi)
        psi = nxt
        for i, term in enumerate(terms):
            if term.kind is CostKind.STATE_PENALTY:
                w = meter.grab(term.penalty_op.matvec(psi))
                penalty_sums[i] = penalty_sums.get(i, 0.0) + np.vdot(psi, w).real
                meter.release(w)
            elif term.kind is CostKind.STATE_RUNNING_INFIDELITY:
                o = np.vdot(term.target_state, psi)
                overlap_sums[i] = overlap_sums.get(i, 0.0) + abs(o) ** 2

    cost = 0.0
    final_overlaps = {}
    for i, term in enumerate(terms):
        if term.kind is CostKind.STATE_INFIDELITY:
            z = np.vdot(psi, term.target_state)  # <psi_N | phi_T>
            final_overlaps[i] = z
            cost += term.weight * (1.0 - abs(z) ** 2)
        elif term.kind is CostKind.STATE_PENALTY:
            cost += term.weight * penalty_sums[i] / n_steps
        else:
            cost += term.weight * (1.0 - overlap_sums[i] / n_steps)
    return psi, cost, final_overlaps


def forward_propagate(
    problem: ControlProblem, a: ControlField, psi0: np.ndarray
) -> np.ndarray:
    """Propagate ``psi0`` through all steps; only O(1) vectors are live."""
    psi0 = _as_state(psi0, problem.dim, "psi0")
    step = _step_evaluators(problem, a)
    return _state_forward(step, a, psi0, [], VectorMeter(problem.dim))[0]


def _state_pass(
    problem: ControlProblem,
    a: ControlField,
    psi0: np.ndarray,
    terms: list[CostTerm],
) -> GradientResult:
    n_steps, n_channels = a.n_steps, a.n_channels
    step = _step_evaluators(problem, a)
    meter = VectorMeter(problem.dim)
    psi, cost, final_overlaps = _state_forward(step, a, psi0, terms, meter)

    # ---- backward sweep: adjoint-propagate psi_N and all co-states
    costates: dict[int, np.ndarray] = {}
    for i, term in enumerate(terms):
        if term.kind is CostKind.STATE_INFIDELITY:
            costates[i] = meter.grab(np.asarray(term.target_state, np.complex128).copy())
        elif term.kind is CostKind.STATE_PENALTY:
            costates[i] = meter.grab(term.penalty_op.matvec(psi))
        else:
            costates[i] = meter.grab(
                np.asarray(term.target_state, np.complex128) * np.vdot(term.target_state, psi)
            )

    grad = np.zeros((n_steps, n_channels))
    for n in range(n_steps - 1, -1, -1):
        ev = step(n)
        prev = meter.grab(ev.adjoint(psi))  # psi_{n-1}
        meter.release(psi)
        psi = prev
        for k in range(n_channels):
            du_psi = meter.grab(ev.control_derivative(k, psi))
            for i, term in enumerate(terms):
                inner = np.vdot(costates[i], du_psi)
                if term.kind is CostKind.STATE_INFIDELITY:
                    contrib = -2.0 * (inner * final_overlaps[i]).real
                elif term.kind is CostKind.STATE_PENALTY:
                    contrib = 2.0 / n_steps * inner.real
                else:
                    contrib = -2.0 / n_steps * inner.real
                grad[n, k] += term.weight * contrib
            meter.release(du_psi)
        if n > 0:
            for i, term in enumerate(terms):
                moved = meter.grab(ev.adjoint(costates[i]))
                meter.release(costates[i])
                if term.kind is CostKind.STATE_PENALTY:
                    drive = meter.grab(term.penalty_op.matvec(psi))
                    moved += drive
                    meter.release(drive)
                elif term.kind is CostKind.STATE_RUNNING_INFIDELITY:
                    moved += np.asarray(term.target_state, np.complex128) * np.vdot(
                        term.target_state, psi
                    )
                costates[i] = moved
    return GradientResult(cost=float(cost), grad=grad, live_vector_peak=meter.peak)


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
    return _state_pass(problem, a, _as_state(psi0, problem.dim, "psi0"), [term])


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


def _gate_inputs(
    problem: ControlProblem, u_target: np.ndarray, basis
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Checked target gate and the basis states (computational when omitted)."""
    d = problem.dim
    u_target = np.asarray(u_target, dtype=np.complex128)
    if u_target.shape != (d, d):
        raise ValueError("target gate dimension mismatch")
    if basis is None:
        basis = problem.basis
    if basis is None:
        eye = np.eye(d, dtype=np.complex128)
        return u_target, [eye[:, h] for h in range(d)]
    states = [_as_state(b, d, f"basis[{i}]") for i, b in enumerate(basis)]
    if len(states) != d:
        raise ValueError(f"basis must contain {d} states, got {len(states)}")
    gram = np.array([[np.vdot(x, y) for y in states] for x in states])
    if np.abs(gram - np.eye(d)).max() > 1e-10:
        raise ValueError("gate basis is not orthonormal")
    return u_target, states


def _gate_forward(
    step: Callable[[int], StepEvaluator],
    a: ControlField,
    u_target: np.ndarray,
    states: list[np.ndarray],
    running: bool,
    meter: VectorMeter,
) -> tuple[np.ndarray, float]:
    """Forward-propagate every basis state; return the trace factors and the cost.

    ``traces[n]`` is ``tr(U_T^+ U_{n,1})``, accumulated at every step for the
    running cost and at the last step only otherwise.
    """
    d = len(states)
    n_steps = a.n_steps
    traces = np.zeros(n_steps, dtype=np.complex128)
    for h in range(d):
        target_image = meter.grab(u_target @ states[h])  # U_T |psi_0^h>
        psi = meter.grab(states[h].copy())
        for n in range(n_steps):
            nxt = meter.grab(step(n).forward(psi))
            meter.release(psi)
            psi = nxt
            if running or n == n_steps - 1:
                traces[n] += np.vdot(target_image, psi)
        meter.release(psi)
        meter.release(target_image)

    if running:
        cost = 1.0 - float(np.sum(np.abs(traces) ** 2)) / (n_steps * d * d)
    else:
        cost = 1.0 - abs(traces[-1]) ** 2 / (d * d)
    return traces, cost


def _gate_pass(
    problem: ControlProblem,
    a: ControlField,
    u_target: np.ndarray,
    basis,
    running: bool,
) -> GradientResult:
    """Two-sweep gate gradient, one sequential forward-backward pair per basis state.

    Sweep one forward-propagates every basis state to accumulate the trace
    factor (final only, or one complex scalar per step for the running
    cost).  Sweep two re-propagates each basis state and assembles the
    gradient during the shared backward recursion.  Live vectors stay O(1)
    per pass; only N scalars (running cost) and the gradient accumulator
    persist.
    """
    u_target, states = _gate_inputs(problem, u_target, basis)
    d = problem.dim
    n_steps, n_channels = a.n_steps, a.n_channels
    step = _step_evaluators(problem, a)
    meter = VectorMeter(d)
    traces, cost = _gate_forward(step, a, u_target, states, running, meter)

    # sweep 2: forward again, then backward with derivative products
    accum = np.zeros((n_steps, n_channels), dtype=np.complex128)
    for h in range(d):
        target_image = meter.grab(u_target @ states[h])
        psi = _state_forward(step, a, states[h], [], meter)[0]
        if running:
            costate = meter.grab(target_image * traces[n_steps - 1])
        else:
            costate = meter.grab(target_image.copy())
        for n in range(n_steps - 1, -1, -1):
            ev = step(n)
            prev = meter.grab(ev.adjoint(psi))
            meter.release(psi)
            psi = prev
            for k in range(n_channels):
                du_psi = meter.grab(ev.control_derivative(k, psi))
                accum[n, k] += np.vdot(costate, du_psi)
                meter.release(du_psi)
            if n > 0:
                moved = meter.grab(ev.adjoint(costate))
                meter.release(costate)
                if running:
                    moved += target_image * traces[n - 1]
                costate = moved
        meter.release(costate)
        meter.release(psi)
        meter.release(target_image)

    if running:
        grad = -2.0 / (n_steps * d * d) * accum.real
    else:
        grad = -2.0 / (d * d) * (accum * np.conj(traces[-1])).real
    return GradientResult(cost=float(cost), grad=grad, live_vector_peak=meter.peak)


def c1_gate_grad(
    problem: ControlProblem, a: ControlField, u_target: np.ndarray, basis=None
) -> GradientResult:
    """Gate infidelity ``1 - |tr(U_T^+ U_R)/d|^2`` and its gradient."""
    return _gate_pass(problem, a, u_target, basis, running=False)


def c3_gate_grad(
    problem: ControlProblem, a: ControlField, u_target: np.ndarray, basis=None
) -> GradientResult:
    """Running gate infidelity ``1 - sum_n |tr(U_T^+ U_{n,1})|^2 / (N d^2)``."""
    return _gate_pass(problem, a, u_target, basis, running=True)


# ---------------------------------------------------------------------------
# composite costs
#
# State-transfer terms are fused into one state pass (they share the
# trajectory); each gate term runs its own basis sweep.  The cost-only and
# gradient entry points split the terms the same way and share the sweeps.


def _split_terms(
    problem: ControlProblem, terms: list[CostTerm]
) -> tuple[np.ndarray | None, list[CostTerm], list[CostTerm]]:
    """Checked initial state with the state terms, and the gate terms."""
    if not terms:
        raise ValueError("composite cost needs at least one term")
    state_terms = [t for t in terms if t.kind in _STATE_KINDS]
    psi0 = None
    if state_terms:
        if problem.initial_state is None:
            raise ValueError("state-transfer terms require problem.initial_state")
        psi0 = _as_state(problem.initial_state, problem.dim, "initial_state")
    return psi0, state_terms, [t for t in terms if t.kind not in _STATE_KINDS]


def composite_grad(
    problem: ControlProblem, a: ControlField, terms: list[CostTerm]
) -> GradientResult:
    """Weighted sum of cost terms and gradients."""
    psi0, state_terms, gate_terms = _split_terms(problem, terms)
    total_cost = 0.0
    total_grad = np.zeros((a.n_steps, a.n_channels))
    peak = 0
    if state_terms:
        result = _state_pass(problem, a, psi0, state_terms)
        total_cost += result.cost
        total_grad += result.grad
        peak = max(peak, result.live_vector_peak)
    for term in gate_terms:
        running = term.kind is CostKind.GATE_RUNNING_INFIDELITY
        result = _gate_pass(problem, a, term.target_gate, None, running=running)
        total_cost += term.weight * result.cost
        total_grad += term.weight * result.grad
        peak = max(peak, result.live_vector_peak)
    return GradientResult(cost=float(total_cost), grad=total_grad, live_vector_peak=peak)


def composite_cost(problem: ControlProblem, a: ControlField, terms: list[CostTerm]) -> float:
    """Weighted cost only (forward sweeps, no gradient); used by line searches."""
    psi0, state_terms, gate_terms = _split_terms(problem, terms)
    step = _step_evaluators(problem, a)
    meter = VectorMeter(problem.dim)
    total = 0.0
    if state_terms:
        total += _state_forward(step, a, psi0, state_terms, meter)[1]
    for term in gate_terms:
        u_target, states = _gate_inputs(problem, term.target_gate, None)
        running = term.kind is CostKind.GATE_RUNNING_INFIDELITY
        total += term.weight * _gate_forward(step, a, u_target, states, running, meter)[1]
    return float(total)
