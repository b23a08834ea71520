"""The benchmark's four workloads and the seeded inputs they run on.

Each workload is a closed loop with one caller: the next operation starts
only after the previous one has returned.  An operation is one gradient
evaluation, or for ``solve_chain3`` one optimization run to a fixed cost.
The seed draws the control amplitudes as ``base * (1 + 0.1 * N(0, 1))``;
the library receives only these generated inputs.

Why these four (sizes measured with BLAS pinned to one thread):

* ``state_chain`` is the largest-d state transfer (d = 1024, 20 channels,
  50 steps).  Derivative actions and CSR products dominate, so kernel and
  fused-derivative changes show here.
* ``gate_transmons`` runs the same layers in another proportion: 27 basis
  states revisit every step with tiny vectors, and the capacity-one step
  memo rebuilds about 1.5k step operators per gradient.  Per-call
  overhead, assembly and batching dominate, not the product rate.
* ``solve_chain3`` is the user's end-to-end task, time to a stated
  accuracy; it is the only workload that runs ``optimizer`` and the line
  search's ``composite_cost``.  Three seeded starts are solved per run,
  because the iteration count depends on the start.
* ``dense_eig`` uses dense storage and the diagonalization backend, so it
  bypasses ``expm`` and the CSR kernel: sparse, plan or batching changes
  should leave it unchanged.  It is the only workload on the second
  derivative backend and the dense BLAS path.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable

import numpy as np

from leangrape import costs, models, optimizer
from leangrape.derivatives import Backend
from leangrape.sparse import DenseMatrix

#: Certified tolerance of every propagator application.
TAU = 1e-8
#: Cost the solve workload must reach.
STOP_COST = 1e-4
#: Iteration cap of a solve; reaching it counts as a failed operation.
SOLVE_MAX_ITERS = 5000

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "state", "gate" or "solve"
    build: Callable[[int], tuple]
    size: int
    smoke_size: int
    n_steps: int
    smoke_steps: int
    dt: float
    base_amp: float
    backend: Backend = Backend.SCALING_SQUARING
    dense: bool = False
    cases: int = 1
    #: Report operation times in units of the speed probe run beside them
    #: (see ``harness.PROBE_S``).  A solve takes seconds, longer than the
    #: host's speed holds still, so a probe between solves cannot follow it.
    speed_probe: bool = True


@dataclass
class Inputs:
    """Everything one run needs, produced by :func:`set_up`."""

    problem: costs.ControlProblem
    terms: list[costs.CostTerm]
    fields: list[costs.ControlField]
    run: Callable  # field -> GradientResult or OptimizationTrace (the timed operation)
    gradient: Callable  # field -> GradientResult
    root_name: str  # span name of one operation
    pass_names: tuple[str, ...]  # spans that are one forward(-backward) cost pass

    def cost(self, field: costs.ControlField) -> float:
        return costs.composite_cost(self.problem, field, self.terms)


def _qubit_chain(n):
    return models.build_qubit_chain(models.QubitChainParams(n_qubits=n))


def _three_transmons(n):
    return models.build_three_transmons(models.ThreeTransmonParams(d_each=n))


def _fluxonium_pair(n):
    return models.build_fluxonium_pair(models.FluxoniumPairParams(d_each=n))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "state_chain",
            "state", _qubit_chain, 10, 4, 50, 6, 0.02, _TWO_PI * 0.5,
        ),
        Workload(
            "gate_transmons",
            "gate", _three_transmons, 3, 2, 20, 4, 0.02, _TWO_PI * 0.1,
        ),
        Workload(
            "solve_chain3",
            "solve", _qubit_chain, 3, 1, 20, 8, 0.1, 0.5, cases=3, speed_probe=False,
        ),
        Workload(
            "dense_eig",
            "state", _fluxonium_pair, 12, 4, 20, 4, 0.02, 0.05,
            backend=Backend.DIAGONALIZATION, dense=True,
        ),
    )
}


def set_up(w: Workload, seed: int, smoke: bool, span=lambda name: nullcontext()) -> Inputs:
    """Build the model, the problem (Hermiticity checks included) and the seeded fields."""
    size = w.smoke_size if smoke else w.size
    n_steps = w.smoke_steps if smoke else w.n_steps
    with span("models.build"):
        h_static, h_controls = w.build(size)
    if w.dense:
        h_static = DenseMatrix(h_static.to_dense())
        h_controls = [DenseMatrix(h.to_dense()) for h in h_controls]
    d = h_static.n_rows
    psi0 = models.fock_state(d, 0)
    if w.kind == "gate":
        target = models.hadamard_target(3, size)
        terms = [costs.CostTerm(costs.CostKind.GATE_INFIDELITY, target_gate=target)]
    else:
        target = models.fock_state(d, d - 1)
        terms = [costs.CostTerm(costs.CostKind.STATE_INFIDELITY, target_state=target)]
    problem = costs.ControlProblem(
        h_static, tuple(h_controls), w.backend, TAU, initial_state=psi0
    )
    rng = np.random.default_rng(seed)
    k = len(h_controls)
    fields = [
        costs.ControlField(
            n_steps, k, w.dt, w.base_amp * (1.0 + 0.1 * rng.standard_normal((n_steps, k)))
        )
        for _ in range(w.cases)
    ]

    if w.kind == "state":
        def run(field):
            return costs.c1_state_grad(problem, field, psi0, target)
        gradient, root = run, "costs.c1_state_grad"
    elif w.kind == "gate":
        def run(field):
            return costs.c1_gate_grad(problem, field, target)
        gradient, root = run, "costs.c1_gate_grad"
    else:
        config = optimizer.OptimizerConfig(max_iters=SOLVE_MAX_ITERS, stop_cost=STOP_COST)

        def run(field):
            return optimizer.grape_optimize(problem, terms, field, config)

        def gradient(field):
            return costs.composite_grad(problem, field, terms)

        root = "optimizer.grape_optimize"
    passes = (
        ("optimizer.composite_grad", "optimizer.composite_cost") if w.kind == "solve" else (root,)
    )
    return Inputs(problem, terms, fields, run, gradient, root, passes)


def fingerprint(result) -> tuple:
    """Exact identity of an operation's output, for bit-for-bit comparisons."""
    if isinstance(result, costs.GradientResult):
        return (result.cost, result.grad.tobytes(), result.live_vector_peak)
    return (
        tuple(r.cost for r in result.records),
        result.final_field.amplitudes.tobytes(),
        result.stop_reason,
    )


def output_error(result) -> str | None:
    """Why an operation's output is wrong, or None when it passes."""
    if isinstance(result, costs.GradientResult):
        if not (np.isfinite(result.cost) and np.isfinite(result.grad).all()):
            return "non-finite cost or gradient"
        return None
    history = [r.cost for r in result.records]
    if result.stop_reason != "stop_cost" or not history or history[-1] > STOP_COST:
        return f"solve stopped at cost {result.final_cost:.3g} ({result.stop_reason})"
    if any(b > a for a, b in zip(history, history[1:])):
        return "cost sequence increased"
    return None


def grad_evals(result) -> int:
    """Gradient evaluations one operation made."""
    if isinstance(result, costs.GradientResult):
        return 1
    return len(result.records)
