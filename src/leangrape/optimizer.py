"""Steepest-descent pulse optimization over composite costs.

The update rule is plain gradient descent on the control amplitudes,
``a <- a - eta * grad C(a)``.  The learning rate is either held constant
or adapted by simple backtracking (shrink on a rejected step, grow gently
after an accepted one); backtracking guarantees a monotone non-increasing
cost sequence.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field

import numpy as np

from .costs import ControlField, ControlProblem, CostTerm, composite_cost, composite_grad

__all__ = [
    "OptimizerConfig",
    "IterationRecord",
    "OptimizationTrace",
    "grape_optimize",
]

logger = logging.getLogger(__name__)

#: Learning-rate schedules: ``constant`` replays eta0 forever,
#: ``backtracking`` shrinks on cost increase and regrows on acceptance.
ETA_SCHEDULES = ("constant", "backtracking")


@dataclass(frozen=True)
class OptimizerConfig:
    max_iters: int = 100
    eta0: float = 0.1
    eta_schedule: str = "backtracking"
    shrink: float = 0.5
    grow: float = 1.1
    stop_cost: float = 0.0
    stop_grad_norm: float = 0.0
    max_backtracks: int = 60

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.eta0 <= 0.0:
            raise ValueError("eta0 must be positive")
        if self.eta_schedule not in ETA_SCHEDULES:
            raise ValueError(f"unknown eta schedule {self.eta_schedule!r}")
        if not 0.0 < self.shrink < 1.0:
            raise ValueError("shrink must lie in (0, 1)")
        if self.grow <= 1.0:
            raise ValueError("grow must exceed 1")
        if self.stop_cost < 0.0 or self.stop_grad_norm < 0.0:
            raise ValueError("stop thresholds must be non-negative")


@dataclass(frozen=True)
class IterationRecord:
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


def grape_optimize(
    problem: ControlProblem,
    terms: list[CostTerm],
    a0: ControlField,
    cfg: OptimizerConfig,
) -> OptimizationTrace:
    """Minimize the weighted cost by steepest descent from ``a0``.

    Iterates until ``max_iters`` evaluations, until the cost drops to
    ``stop_cost``, or until the gradient infinity norm drops to
    ``stop_grad_norm``.  With the backtracking schedule every accepted
    step satisfies simple decrease, so the recorded cost sequence is
    non-increasing.  Runs are deterministic for identical inputs: every
    reduction happens in a fixed order.
    """
    if a0.n_channels != problem.n_channels:
        raise ValueError("initial field channel count does not match the problem")
    trace = OptimizationTrace()
    current = a0
    eta = cfg.eta0
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
                eta_used=eta,
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

            # backtracking: shrink eta until simple decrease holds
            accepted = False
            for _ in range(cfg.max_backtracks):
                candidate = current.replace_amplitudes(
                    current.amplitudes - eta * result.grad
                )
                cost_new = composite_cost(problem, candidate, terms)
                if cost_new <= result.cost:
                    accepted = True
                    break
                eta *= cfg.shrink
            if not accepted:
                trace.stop_reason = "line_search_stalled"
                logger.info("backtracking stalled at iteration %d", iteration)
                break
            current = candidate
            result = composite_grad(problem, current, terms)
            eta *= cfg.grow
        except Exception as exc:
            # keep the partial trace; the caller can inspect how far it got
            trace.stop_reason = f"evaluation_failure: {exc}"
            logger.warning("aborting at iteration %d: %s", iteration, exc)
            break

    trace.final_field = current
    return trace
