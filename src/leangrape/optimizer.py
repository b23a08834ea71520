"""Pulse optimization over composite costs: L-BFGS or steepest descent.

Three schedules move the control amplitudes ``a``:

* ``lbfgs`` (the default) steps along the limited-memory BFGS direction,
  built by the two-loop recursion from the last :data:`LBFGS_MEMORY`
  pairs ``s = a_{k+1} - a_k``, ``y = grad C(a_{k+1}) - grad C(a_k)``,
  with an Armijo backtracking line search on cost-only trials.  Until a
  pair with positive curvature exists it takes steepest-descent steps
  whose length adapts like ``backtracking``'s.  Quasi-Newton GRAPE:
  de Fouquieres et al., J. Magn. Reson. 212, 412 (2011); Machnes et al.,
  Phys. Rev. A 84, 022305 (2011).
* ``backtracking`` is steepest descent ``a <- a - eta * grad C(a)``; eta
  shrinks by :data:`SHRINK` on a rejected step and grows by :data:`GROW`
  after an accepted one.
* ``constant`` is steepest descent at a fixed ``eta0``.

``lbfgs`` and ``backtracking`` accept a step only when the cost does not
rise, so their recorded cost sequences are non-increasing; a line search
whose :data:`MAX_BACKTRACKS` trials are all rejected ends the run with
stop reason ``line_search_stalled``.  Each of their
iterations runs one forward sweep per line-search trial and one backward
sweep: the accepted trial's state sweep is kept in a
:class:`~leangrape.costs.SweepRecord`, and the gradient starts its
backward pass from it (gate terms still sweep forward again).  The last two
are kept unchanged as the reproduction baseline.
"""

from __future__ import annotations

import logging
import math
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .costs import (
    ControlField,
    ControlProblem,
    CostTerm,
    SweepRecord,
    composite_cost,
    composite_grad,
)

__all__ = [
    "OptimizerConfig",
    "IterationRecord",
    "OptimizationTrace",
    "grape_optimize",
]

logger = logging.getLogger(__name__)

#: Learning-rate schedules: ``constant`` replays eta0 forever,
#: ``backtracking`` shrinks on cost increase and regrows on acceptance,
#: ``lbfgs`` steps along the L-BFGS direction under an Armijo line search.
ETA_SCHEDULES = ("constant", "backtracking", "lbfgs")

#: Curvature pairs ``(s, y)`` the L-BFGS direction is built from.
LBFGS_MEMORY = 10
#: Sufficient-decrease constant of the L-BFGS line search.
ARMIJO_C1 = 1e-4
#: Trials one line search runs before it gives up as stalled.
MAX_BACKTRACKS = 60
#: Factor on the trial length after a rejected line-search trial.
SHRINK = 0.5
#: Factor on the accepted length that starts the next steepest-descent search.
GROW = 1.1
#: A pair is stored only when ``s.y > CURVATURE_EPS * |s| |y|``, so the
#: inverse-Hessian estimate stays positive definite.
CURVATURE_EPS = 1.5e-8


@dataclass(frozen=True)
class OptimizerConfig:
    max_iters: int = 100
    eta0: float = 0.1
    eta_schedule: str = "lbfgs"
    stop_cost: float = 0.0
    stop_grad_norm: float = 0.0

    def __post_init__(self):
        if not isinstance(self.max_iters, (int, np.integer)) or self.max_iters < 1:
            raise ValueError(f"max_iters must be a positive integer, got {self.max_iters!r}")
        if not 0.0 < self.eta0 < math.inf:
            raise ValueError("eta0 must be positive and finite")
        if self.eta_schedule not in ETA_SCHEDULES:
            raise ValueError(f"unknown eta schedule {self.eta_schedule!r}")
        for name in ("stop_cost", "stop_grad_norm"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and non-negative")


@dataclass(frozen=True)
class IterationRecord:
    """One gradient evaluation.

    ``eta_used`` is the step length the schedule holds at this point on
    ``constant`` and ``backtracking``; on ``lbfgs`` it is the accepted
    length of the step that reached this point (0 at the start).
    """

    iteration: int
    cost: float
    grad_inf_norm: float
    eta_used: float
    wall_seconds: float


@dataclass
class OptimizationTrace:
    records: list[IterationRecord] = field(default_factory=list)
    final_field: ControlField | None = None
    stop_reason: str = "max_iters"
    #: Line-search trials, one ``composite_cost`` call each.
    cost_evals: int = 0

    @property
    def final_cost(self) -> float:
        return self.records[-1].cost if self.records else float("nan")

    def to_csv_lines(self) -> list[str]:
        lines = ["iter,cost,grad_inf_norm,eta,wall_ms"]
        for r in self.records:
            lines.append(
                f"{r.iteration},{r.cost:.17g},{r.grad_inf_norm:.17g},"
                f"{r.eta_used:.17g},{r.wall_seconds * 1e3:.6f}"
            )
        return lines


class _LbfgsHistory:
    """The last :data:`LBFGS_MEMORY` curvature pairs, in control space.

    It holds ``2 * LBFGS_MEMORY`` arrays of ``n_steps x n_channels``
    floats, independent of the state dimension, and no state vector.
    """

    def __init__(self):
        self.pairs: deque[tuple[np.ndarray, np.ndarray, float]] = deque(maxlen=LBFGS_MEMORY)

    def push(self, s: np.ndarray, y: np.ndarray) -> None:
        sy = float(np.vdot(s, y))
        if sy > CURVATURE_EPS * float(np.linalg.norm(s) * np.linalg.norm(y)):
            self.pairs.append((s, y, 1.0 / sy))

    def direction(self, grad: np.ndarray) -> np.ndarray:
        """``-H grad`` by the two-loop recursion, ``H_0 = (s.y / y.y) I`` from the newest pair."""
        q = grad.copy()
        alphas = []
        for s, y, rho in reversed(self.pairs):
            alpha = rho * float(np.vdot(s, q))
            q -= alpha * y
            alphas.append(alpha)
        _, y, rho = self.pairs[-1]
        q /= rho * float(np.vdot(y, y))
        for (s, y, rho), alpha in zip(self.pairs, reversed(alphas)):
            q += (alpha - rho * float(np.vdot(y, q))) * s
        return -q


def _line_search(
    problem: ControlProblem,
    terms: list[CostTerm],
    current: ControlField,
    cost: float,
    direction: np.ndarray,
    length: float,
    slope: float,
    trace: OptimizationTrace,
    record: SweepRecord,
) -> tuple[ControlField, float] | None:
    """First trial ``current + length * direction`` with sufficient decrease.

    A trial is accepted when its cost is at most
    ``cost + ARMIJO_C1 * length * slope``; ``slope = 0`` asks for simple
    decrease.  ``length`` shrinks by :data:`SHRINK` after each rejected
    trial.  Returns the accepted field and length, or None when
    :data:`MAX_BACKTRACKS` trials were all rejected.  ``record`` keeps the
    last trial's state sweep, so the gradient at an accepted field starts
    from it.
    """
    for _ in range(MAX_BACKTRACKS):
        candidate = current.replace_amplitudes(current.amplitudes + length * direction)
        trace.cost_evals += 1
        if composite_cost(problem, candidate, terms, record) <= cost + ARMIJO_C1 * slope * length:
            return candidate, length
        length *= SHRINK
    return None


def grape_optimize(
    problem: ControlProblem,
    terms: list[CostTerm],
    a0: ControlField,
    cfg: OptimizerConfig,
) -> OptimizationTrace:
    """Minimize the weighted cost from ``a0`` under ``cfg.eta_schedule``.

    Iterates until ``max_iters`` gradient evaluations, until the cost
    drops to ``stop_cost``, or until the gradient infinity norm drops to
    ``stop_grad_norm``.  Every record is exactly one ``composite_grad``
    call, made only at an accepted point; line-search trials call
    ``composite_cost`` and are counted in ``trace.cost_evals``.  After a
    line search the gradient starts from the accepted trial's state sweep,
    so it propagates backward only.  The L-BFGS history lives in control
    space (``2 * LBFGS_MEMORY`` arrays of ``n_steps x n_channels``
    floats), so the live state vectors of a gradient, and the paper's
    bound on them, are unchanged.  Runs are
    deterministic for identical inputs: every reduction happens in a
    fixed order.
    """
    if a0.n_channels != problem.n_channels:
        raise ValueError("initial field channel count does not match the problem")
    trace = OptimizationTrace()
    current = a0
    eta = cfg.eta0
    lbfgs = cfg.eta_schedule == "lbfgs"
    history = _LbfgsHistory()
    record = SweepRecord()
    accepted_length = 0.0
    start = time.perf_counter()

    try:
        result = composite_grad(problem, current, terms)
    except Exception as exc:
        raise ValueError(f"cost evaluation failed at the initial point: {exc}") from exc
    for iteration in range(cfg.max_iters):
        if not np.isfinite(result.cost):
            trace.stop_reason = "evaluation_failure: non-finite cost"
            logger.warning("aborting at iteration %d: non-finite cost", iteration)
            break
        grad_norm = float(np.abs(result.grad).max())
        trace.records.append(
            IterationRecord(
                iteration=iteration,
                cost=result.cost,
                grad_inf_norm=grad_norm,
                eta_used=accepted_length if lbfgs else eta,
                wall_seconds=time.perf_counter() - start,
            )
        )
        if result.cost <= cfg.stop_cost:
            trace.stop_reason = "stop_cost"
            break
        if grad_norm <= cfg.stop_grad_norm:
            trace.stop_reason = "stop_grad_norm"
            break
        if iteration == cfg.max_iters - 1:
            trace.stop_reason = "max_iters"
            break

        try:
            if cfg.eta_schedule == "constant":
                current = current.replace_amplitudes(
                    current.amplitudes - eta * result.grad
                )
                result = composite_grad(problem, current, terms)
                continue

            direction, length, slope = -result.grad, eta, 0.0
            quasi_newton = False
            if lbfgs:
                slope = float(np.vdot(result.grad, direction))
                if history.pairs:
                    qn_direction = history.direction(result.grad)
                    qn_slope = float(np.vdot(result.grad, qn_direction))
                    # a positive definite H gives a descent direction; rounding may not
                    quasi_newton = qn_slope < 0.0
                    if quasi_newton:
                        direction, length, slope = qn_direction, 1.0, qn_slope
            found = _line_search(
                problem, terms, current, result.cost, direction, length, slope, trace, record
            )
            if found is None:
                trace.stop_reason = "line_search_stalled"
                logger.info("line search stalled at iteration %d", iteration)
                break
            previous, previous_grad = current, result.grad
            current, accepted_length = found
            result = composite_grad(problem, current, terms, record)
            if not quasi_newton:
                eta = accepted_length * GROW
            if lbfgs:
                history.push(current.amplitudes - previous.amplitudes, result.grad - previous_grad)
        except Exception as exc:
            # keep the partial trace; the caller can inspect how far it got
            trace.stop_reason = f"evaluation_failure: {exc}"
            logger.warning("aborting at iteration %d: %s", iteration, exc)
            break

    trace.final_field = current
    return trace
