"""Measurement harness: matvec-count scaling, step runtimes, live-vector peaks.

The harness records how many matrix-vector products one propagator-state
product costs (``mu``), how that count scales with generator norm and
Hilbert space dimension, and how long a single gradient step takes under
sparse or dense operator storage.  Memory is tracked as instrumented
live-vector counts and stored-element counts, not process RSS, which
reproduces the scaling trends without profiler dependencies.

Runtime points are medians over repeated runs after one warmup; sweeps
run sequentially so timing points never contend with each other.  Timing
runs are pinned to one BLAS thread through ``threadpoolctl``; where it is
not installed, through the thread setter of every OpenBLAS library mapped
into the process.  When neither limiter is available the run emits a
``RuntimeWarning`` naming the reason and times at the library's default
thread count.
"""

from __future__ import annotations

import ctypes
import math
import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from . import costs, expm, models
from .derivatives import Backend
from .sparse import CsrMatrix, DenseMatrix, Matrix, build_csr

__all__ = [
    "BenchRecord",
    "PowerLawFit",
    "Task",
    "KappaScaling",
    "MuScaling",
    "StrategyMethod",
    "StrategyRecommendation",
    "MODEL_NAMES",
    "build_model",
    "measure_mu",
    "measure_step_runtime",
    "mu_vs_norm_sweep",
    "mu_vs_dim_sweep",
    "fit_power_law",
    "fit_line",
    "strategy_advise",
    "records_to_csv",
    "BENCH_CSV_HEADER",
]

# ---------------------------------------------------------------------------
# BLAS thread pinning for timing runs

#: Thread-count getter/setter pairs exported by the OpenBLAS builds numpy
#: and scipy ship (plain, 64-bit-integer and scipy-prefixed symbol names).
_OPENBLAS_THREAD_SYMBOLS = (
    ("openblas_get_num_threads", "openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
)


def _openblas_pools() -> list[tuple[Callable[[], int], Callable[[int], None]]]:
    """Thread-count (getter, setter) of every OpenBLAS library in this process.

    The mapped libraries are read from ``/proc/self/maps``; on a system
    without it the list is empty.
    """
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return []
    pools = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_THREAD_SYMBOLS:
            getter = getattr(lib, get_name, None)
            setter = getattr(lib, set_name, None)
            if getter is None or setter is None:
                continue
            getter.argtypes = []
            getter.restype = ctypes.c_int
            setter.argtypes = [ctypes.c_int]
            setter.restype = None
            pools.append((getter, setter))
            break
    return pools


@contextmanager
def _openblas_limits(limits: int):
    """Set every mapped OpenBLAS pool to ``limits`` threads, then restore it.

    Warns with ``RuntimeWarning`` when no pool can be found, because the
    block then runs at the library's default thread count.
    """
    pools = _openblas_pools()
    if not pools:
        warnings.warn(
            "BLAS threads are not pinned: threadpoolctl is not installed and no "
            "OpenBLAS library with a thread setter is mapped into this process, "
            "so timings run at the BLAS default thread count",
            RuntimeWarning,
            stacklevel=3,
        )
        yield
        return
    previous = [get_threads() for get_threads, _ in pools]
    for _, set_threads in pools:
        set_threads(limits)
    try:
        yield
    finally:
        for (_, set_threads), n in zip(pools, previous):
            set_threads(n)


try:
    from threadpoolctl import threadpool_limits
except ImportError:
    threadpool_limits = _openblas_limits


BENCH_CSV_HEADER = "model,d,N,tau,norm1,sigma_prime,mu,kappa,wall_ns,live_peak"


class Task(Enum):
    STATE_TRANSFER = "state_transfer"
    GATE = "gate"


@dataclass(frozen=True)
class BenchRecord:
    """One measurement point of the scaling studies."""

    model: str
    d: int
    n_steps: int
    tau: float
    norm1: float
    sigma_prime: int
    matvecs: int | None  # None when no feasible plan exists at this tolerance
    kappa: int
    wall_ns: int = 0
    live_vector_peak: int = 0

    def to_csv_row(self) -> str:
        mu = "" if self.matvecs is None else str(self.matvecs)
        return (
            f"{self.model},{self.d},{self.n_steps},{self.tau:.17g},{self.norm1:.17g},"
            f"{self.sigma_prime},{mu},{self.kappa},{self.wall_ns},{self.live_vector_peak}"
        )


@dataclass(frozen=True)
class PowerLawFit:
    """Least-squares fit of ``log y = exponent * log x + log_prefactor``."""

    exponent: float
    log_prefactor: float
    r_squared: float


MODEL_NAMES = tuple(sorted([*models.FAMILIES, "zero"]))


def build_model(model: str, size: int) -> tuple[CsrMatrix, list[CsrMatrix], list[float]]:
    """Model operators and their fixture drive amplitudes.

    ``size`` is the family's sweep parameter (``models.Family.size_field``):
    cavity dimension, per-mode dimension, or qubit count.
    """
    if model == "zero":
        # one empty control at zero amplitude: a control field needs a channel
        return build_csr([], size, size), [build_csr([], size, size)], [0.0]
    try:
        family = models.FAMILIES[model]
    except KeyError:
        raise ValueError(f"unknown model {model!r}; choose from {MODEL_NAMES}") from None
    h_static, h_controls = family.build(family.params(**{family.size_field: size}))
    return h_static, h_controls, [2.0 * math.pi * family.drive_ghz] * len(h_controls)


def _kappa(h_static: Matrix, h_controls) -> int:
    """Stored Hamiltonian elements: static plus every control operator."""
    return h_static.nnz + sum(hc.nnz for hc in h_controls)


def _step_plan_record(problem: costs.ControlProblem, field: costs.ControlField):
    """``(norm1, sigma', mu)`` of the plan step 0 of ``field`` runs under.

    ``mu`` is None when planning fails; ``norm1`` and ``sigma'`` are then
    the ones the plan was asked for.
    """
    step = problem.step_evaluator(field, 0)
    try:
        plan = step._step_plan()
    except expm.PlanningError:
        h = step.ctx.h_step
        return field.dt * h.one_norm(), h.max_row_nnz(), None
    return plan.norm1, plan.sigma_prime, plan.matvecs


def measure_mu(model: str, size: int, dt: float, tau: float) -> BenchRecord:
    """Plan one propagator-state product and record its matvec count.

    The record carries the plan of the model's first step at its fixture
    amplitudes.  A planning failure (tolerance unreachable at this norm in
    working precision) is recorded with ``matvecs=None`` rather than raised.
    """
    h_static, h_controls, amps = build_model(model, size)
    problem = costs.ControlProblem(h_static, tuple(h_controls), Backend.SCALING_SQUARING, tau)
    field = costs.ControlField(1, len(h_controls), dt, np.reshape(amps, (1, -1)))
    norm1, sigma, matvecs = _step_plan_record(problem, field)
    return BenchRecord(
        model=model,
        d=h_static.n_rows,
        n_steps=1,
        tau=tau,
        norm1=norm1,
        sigma_prime=sigma,
        matvecs=matvecs,
        kappa=_kappa(h_static, h_controls),
    )


def _canonical_targets(model: str, h_static, size: int):
    """Initial state and gate target used for runtime measurements."""
    d = h_static.n_rows
    params_cls = models.FAMILIES[model].params if model in models.FAMILIES else None
    psi0 = models.fock_state(d, 0)
    if params_cls is models.TransmonCavityParams:
        # transmon ground, highest populated cavity Fock level we can ask for
        phi = models.fock_state(d, min(20, size - 1))
    else:
        phi = models.fock_state(d, d - 1)
    if params_cls is models.ThreeTransmonParams:
        gate = models.hadamard_target(3, size)
    elif params_cls is models.QubitChainParams:
        gate = models.hadamard_target(size, 2)
    else:
        gate = np.eye(d, dtype=np.complex128)
    return psi0, phi, gate


def measure_step_runtime(
    model: str,
    size: int,
    task: Task,
    tau: float,
    reps: int = 5,
    *,
    dt: float = 0.02,
    storage: str = "sparse",
    n_steps: int = 1,
) -> BenchRecord:
    """Time one gradient evaluation (monotonic clock, median of ``reps``).

    ``storage`` selects sparse CSR operators or dense storage where every
    matrix element counts as stored (kappa = d^2 per operator).

    The warmup and the timed runs hold BLAS at one thread, through
    ``threadpoolctl`` or else the OpenBLAS thread setter, and the prior
    thread count is restored afterwards.  With no limiter available a
    ``RuntimeWarning`` is emitted and the run is timed unpinned.
    """
    if not isinstance(reps, (int, np.integer)) or reps < 1:
        raise ValueError(f"reps must be a positive integer, got {reps!r}")
    if storage not in ("sparse", "dense"):
        raise ValueError("storage must be 'sparse' or 'dense'")
    h_static, h_controls, amps = build_model(model, size)
    if storage == "dense":
        h_static = DenseMatrix(h_static.to_dense())
        h_controls = [DenseMatrix(hc.to_dense()) for hc in h_controls]
    psi0, phi, gate = _canonical_targets(model, h_static, size)

    problem = costs.ControlProblem(
        h_static, tuple(h_controls), Backend.SCALING_SQUARING, tau
    )
    field = costs.ControlField(
        n_steps, len(h_controls), dt, np.tile(amps, (n_steps, 1))
    )

    def run() -> costs.GradientResult:
        if task is Task.STATE_TRANSFER:
            return costs.c1_state_grad(problem, field, psi0, phi)
        return costs.c1_gate_grad(problem, field, gate)

    # timing runs are pinned to one BLAS thread so sweep points compare
    # per-core work rather than thread-pool behaviour
    with threadpool_limits(limits=1):
        result = run()  # warmup, also provides the instrumentation numbers
        samples = []
        for _ in range(reps):
            t0 = time.perf_counter_ns()
            run()
            samples.append(time.perf_counter_ns() - t0)
    wall = int(np.median(samples))

    norm1, sigma, matvecs = _step_plan_record(problem, field)
    return BenchRecord(
        model=model,
        d=h_static.n_rows,
        n_steps=n_steps,
        tau=tau,
        norm1=norm1,
        sigma_prime=sigma,
        matvecs=matvecs,
        kappa=_kappa(h_static, h_controls),
        wall_ns=wall,
        live_vector_peak=result.live_vector_peak,
    )


def mu_vs_norm_sweep(model: str, size: int, dts, tau: float) -> list[BenchRecord]:
    """Matvec counts across a time-step sweep (norm grows linearly in dt)."""
    return [measure_mu(model, size, float(dt), tau) for dt in dts]


def mu_vs_dim_sweep(model: str, sizes, tau: float, dt: float) -> list[BenchRecord]:
    """Matvec counts across a dimension sweep at fixed time step."""
    return [measure_mu(model, int(size), dt, tau) for size in sizes]


def fit_power_law(points) -> PowerLawFit:
    """Least squares in log-log space over ``(x, y)`` pairs.

    Requires at least four strictly positive points.
    """
    pts = [(float(x), float(y)) for x, y in points]
    if len(pts) < 4:
        raise ValueError("power-law fit needs at least 4 points")
    if any(x <= 0 or y <= 0 for x, y in pts):
        raise ValueError("power-law fit needs positive data")
    return PowerLawFit(*fit_line(np.log([x for x, _ in pts]), np.log([y for _, y in pts])))


def fit_line(xs, ys) -> tuple[float, float, float]:
    """Least-squares ``y = slope * x + intercept``: ``(slope, intercept, r_squared)``.

    Requires at least two points.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.size < 2:
        raise ValueError(f"line fit needs at least 2 points, got {xs.size}")
    slope, intercept = np.polyfit(xs, ys, 1)
    pred = slope * xs + intercept
    ss_res = float(((ys - pred) ** 2).sum())
    ss_tot = float(((ys - ys.mean()) ** 2).sum())
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), float(r_squared)


# ---------------------------------------------------------------------------
# strategy advisor


class KappaScaling(Enum):
    SUB_QUADRATIC = "sub_quadratic"
    QUADRATIC = "quadratic"


class MuScaling(Enum):
    SUBLINEAR = "sublinear"
    LINEAR_OR_WORSE = "linear_or_worse"


class StrategyMethod(Enum):
    FULL_AD = "full_ad"
    SEMI_AD = "semi_ad"
    HG_SCALING_SQUARING = "hg_scaling_squaring"
    HG_DIAGONALIZATION = "hg_diagonalization"


@dataclass(frozen=True)
class StrategyRecommendation:
    method: StrategyMethod
    rationale: str


def strategy_advise(
    d: int,
    n_steps: int,
    kappa_scaling: KappaScaling,
    mu_vs_d: MuScaling,
    task: Task,
    memory_budget_ok_for_ad: bool,
    gradients_available: bool,
) -> StrategyRecommendation:
    """Deterministic rule table for choosing the gradient strategy.

    First tier: if the memory cost of a full reverse-mode tape fits, use
    it and skip hand-derived gradients.  If it does not fit and analytic
    gradients are unavailable, fall back to the semi-automatic hybrid.
    Otherwise use hard-coded gradients, picking the propagator engine:
    sub-quadratic operator storage favors scaling and squaring; with
    quadratic storage, state transfer still favors scaling and squaring
    whenever the matvec count grows sublinearly in the dimension, while
    gate optimization favors diagonalization (its per-step cost already
    carries the extra factor of d).
    """
    context = f"d={d}, N={n_steps}"
    if memory_budget_ok_for_ad:
        return StrategyRecommendation(
            StrategyMethod.FULL_AD,
            f"{context}: tape memory fits, so automatic differentiation avoids "
            "hand-derived gradients entirely",
        )
    if not gradients_available:
        return StrategyRecommendation(
            StrategyMethod.SEMI_AD,
            f"{context}: tape memory does not fit and analytic gradients are "
            "unavailable; the hybrid keeps memory independent of the matvec count",
        )
    if kappa_scaling is KappaScaling.SUB_QUADRATIC:
        return StrategyRecommendation(
            StrategyMethod.HG_SCALING_SQUARING,
            f"{context}: sparse storage beats the d^2 memory of a dense "
            "eigenfactorization, and matvec-based propagation exploits it",
        )
    if task is Task.GATE:
        return StrategyRecommendation(
            StrategyMethod.HG_DIAGONALIZATION,
            f"{context}: with dense storage a gate gradient costs mu*d^3 through "
            "matvec propagation, so the d^3 eigensolver route is preferable",
        )
    if mu_vs_d is MuScaling.SUBLINEAR:
        return StrategyRecommendation(
            StrategyMethod.HG_SCALING_SQUARING,
            f"{context}: state-transfer cost mu*d^2 with sublinear mu(d) beats "
            "the d^3 eigensolver route",
        )
    return StrategyRecommendation(
        StrategyMethod.HG_DIAGONALIZATION,
        f"{context}: matvec count grows at least linearly with d, so mu*d^2 "
        "no longer undercuts the d^3 eigensolver route",
    )


def records_to_csv(records) -> str:
    lines = [BENCH_CSV_HEADER]
    lines.extend(r.to_csv_row() for r in records)
    return "\n".join(lines) + "\n"
