"""Memory-frugal GRAPE quantum optimal control.

Hard-coded analytic gradients evaluated by forward-backward propagation,
a certified scaling-and-squaring engine for propagator-state products,
and a benchmark harness for scaling studies.
"""

from .sparse import (
    CsrMatrix,
    DenseMatrix,
    build_csr,
    from_dense,
    identity_csr,
    linear_combine,
    aux_embed,
    is_hermitian,
)
from .expm import ExpmPlan, PlanningError, make_plan, apply, expm_multiply
from .derivatives import Backend, DiagFactorization
from .costs import (
    ControlField,
    ControlProblem,
    CostKind,
    CostTerm,
    GradientResult,
    forward_propagate,
    c1_state_grad,
    c2_state_grad,
    c3_state_grad,
    c1_gate_grad,
    c3_gate_grad,
    composite_grad,
    composite_cost,
)
from .optimizer import OptimizerConfig, OptimizationTrace, grape_optimize

__all__ = [
    "CsrMatrix",
    "DenseMatrix",
    "build_csr",
    "from_dense",
    "identity_csr",
    "linear_combine",
    "aux_embed",
    "is_hermitian",
    "ExpmPlan",
    "PlanningError",
    "make_plan",
    "apply",
    "expm_multiply",
    "Backend",
    "DiagFactorization",
    "ControlField",
    "ControlProblem",
    "CostKind",
    "CostTerm",
    "GradientResult",
    "forward_propagate",
    "c1_state_grad",
    "c2_state_grad",
    "c3_state_grad",
    "c1_gate_grad",
    "c3_gate_grad",
    "composite_grad",
    "composite_cost",
    "OptimizerConfig",
    "OptimizationTrace",
    "grape_optimize",
]
