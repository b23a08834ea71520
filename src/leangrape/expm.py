"""Certified evaluation of ``exp(A) @ psi`` by scaling and squaring.

The action of the exponential is approximated as ``(T_m(A/s))^s @ psi``
where ``T_m`` is the order-``m`` Taylor polynomial, evaluated with matrix-
vector products only.  The pair ``(m, s)`` is selected from a rigorous
upper bound on the combined truncation and floating-point rounding error,
so the relative error of the returned vector is guaranteed to stay below
the requested tolerance for anti-Hermitian generators.

The bound combines two pieces, both driven by the scalar remainder
``R_m(x) = sum_{q>m} x^q / q!`` evaluated at ``x = ||A||_1 / s``:

* truncation:  ``s * R_m(x) * (1 - (s R_m(x))^s) / (1 - s R_m(x))``
* rounding:    ``(alpha + beta)^s - alpha^s`` with ``alpha = 1 + R_m(x)``
  and ``beta = sum_{k=0}^m gamma_{k(sigma'+2)+m+2} x^k / k!``,

where ``gamma_n = n u' / (1 - n u')`` accumulates elementary relative
errors of complex arithmetic (``u' = 2 sqrt(2) u / (1 - 2u)`` for unit
roundoff ``u``) and ``sigma'`` is the largest per-row count of stored
matrix elements, which limits how many rounding errors a single dot
product can pick up.

The ``gamma_n`` bound on an ``n``-term sum holds for any summation order
(sequential, pairwise, blocked BLAS), so swapping the product kernel
leaves the certificate and ``sigma'`` unchanged.  A sum assembled from
two partial sums of ``n_1`` and ``n_2`` terms plus one addition has depth
``max(n_1, n_2) + 1 <= n_1 + n_2``, so it is also covered by the count of
its stored elements.

:func:`apply` takes a ``scale`` and evaluates ``exp(scale A) @ psi``:
a Hermitian ``H`` with ``scale = -i dt`` is propagated without the
generator ``-i dt H`` ever being stored, and under the same rounding
model, because the scale only enters the one scalar per Taylor term.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .sparse import Matrix, is_anti_hermitian

__all__ = [
    "ErrorModelConstants",
    "BINARY64",
    "ExpmPlan",
    "PlanningError",
    "remainder_rm",
    "gamma_n",
    "rounding_bound",
    "truncation_bound",
    "error_bound",
    "make_plan",
    "apply",
    "expm_multiply",
    "DEFAULT_M_MAX",
    "DEFAULT_S_MAX",
]

#: Search limits for the (m, s) selection.  They comfortably cover every
#: generator norm exercised by the benchmark suite; the scan cost is
#: negligible next to the matrix-vector products it certifies.
DEFAULT_M_MAX = 60
DEFAULT_S_MAX = 10_000

_TAIL_TERM_LIMIT = 500
_TAIL_REL_CUTOFF = 1e-20


class PlanningError(RuntimeError):
    """No feasible (order, scaling) pair within the search limits."""


class BoundInfeasibleError(ArithmeticError):
    """The rounding model breaks down (n * u' >= 1); treat as unbounded."""


@dataclass(frozen=True)
class ErrorModelConstants:
    """Unit roundoff of the working precision and its complex-arithmetic inflation."""

    u: float
    u_prime: float

    @classmethod
    def from_unit_roundoff(cls, u: float) -> "ErrorModelConstants":
        if not 0.0 < u < 0.5:
            raise ValueError(f"unit roundoff must lie in (0, 0.5), got {u}")
        return cls(u=u, u_prime=2.0 * math.sqrt(2.0) * u / (1.0 - 2.0 * u))


#: Constants for IEEE binary64, the working precision of this package.
BINARY64 = ErrorModelConstants.from_unit_roundoff(2.0**-53)


@dataclass(frozen=True)
class ExpmPlan:
    """A certified (order, scaling) choice for one generator.

    ``scaling`` is the smallest factor admitting any feasible truncation
    order within the search limits, and ``order`` is the smallest feasible
    order at that scaling.  ``bound`` is the certified error upper bound,
    guaranteed to be at most ``tau``.
    """

    order: int
    scaling: int
    tau: float
    norm1: float
    sigma_prime: int
    bound: float

    @property
    def matvecs(self) -> int:
        """Matrix-vector products consumed by one application: order * scaling."""
        return self.order * self.scaling


def remainder_rm(x: float, m: int) -> float:
    """Tail ``sum_{q=m+1}^inf x^q / q!`` of the exponential series.

    Summed in ascending order from the first discarded term, never as
    ``exp(x) - partial_sum``, which would cancel catastrophically once the
    tail is small.  Terms beyond the 500th are covered by a geometric tail
    estimate (the term ratio is below 1 long before that point).
    """
    if x < 0:
        raise ValueError("remainder_rm expects a non-negative argument")
    if x == 0.0:
        return 0.0
    # First tail term x^(m+1)/(m+1)! built incrementally to dodge overflow
    # of numerator and denominator separately.
    term = 1.0
    for q in range(1, m + 2):
        term *= x / q
        if math.isinf(term):
            return math.inf
    total = term
    q = m + 1
    for _ in range(_TAIL_TERM_LIMIT):
        q += 1
        term *= x / q
        total += term
        if term < _TAIL_REL_CUTOFF * total:
            return total
    # Remaining terms decay at least geometrically by ratio x/(q+1).
    ratio = x / (q + 1)
    if ratio < 1.0:
        total += term * ratio / (1.0 - ratio)
    else:  # pragma: no cover - unreachable for x below the overflow range
        return math.inf
    return total


def gamma_n(n: int, consts: ErrorModelConstants = BINARY64) -> float:
    """Accumulated relative error factor ``n u' / (1 - n u')``."""
    if n < 0:
        raise ValueError("gamma_n expects a non-negative count")
    nu = n * consts.u_prime
    if nu >= 1.0:
        raise BoundInfeasibleError(f"rounding model infeasible: n*u' = {nu} >= 1")
    return nu / (1.0 - nu)


def _beta_sum(norm1_b: float, m: int, sigma_prime: int, consts: ErrorModelConstants) -> float:
    """Accumulated per-application rounding amplitude.

    ``sum_{k=0}^m gamma_{k(sigma'+2)+m+2} * norm1_b^k / k!``; grows
    monotonically with the order m.
    """
    beta = 0.0
    power = 1.0  # norm1_b^k / k!
    step = sigma_prime + 2
    for k in range(m + 1):
        if k > 0:
            power *= norm1_b / k
        beta += gamma_n(k * step + m + 2, consts) * power
    return beta


def rounding_bound(
    norm1_b: float,
    m: int,
    s: int,
    sigma_prime: int,
    consts: ErrorModelConstants = BINARY64,
) -> float:
    """Upper bound on the rounding error of ``(T_m(B))^s @ psi``.

    Evaluates ``(alpha + beta)^s - alpha^s`` through the algebraically
    identical ``alpha^s * expm1(s * log1p(beta / alpha))``, which stays
    accurate when ``beta`` is many orders of magnitude below ``alpha``.
    """
    rm = remainder_rm(norm1_b, m)
    if math.isinf(rm):
        return math.inf
    alpha = 1.0 + rm
    try:
        beta = _beta_sum(norm1_b, m, sigma_prime, consts)
    except BoundInfeasibleError:
        return math.inf
    try:
        return alpha**s * math.expm1(s * math.log1p(beta / alpha))
    except OverflowError:
        return math.inf


def truncation_bound(norm1_b: float, m: int, s: int) -> float:
    """Upper bound on the Taylor truncation error of ``(T_m(B))^s @ psi``.

    Returns infinity when ``s * R_m`` reaches 1, where the geometric-sum
    form of the bound no longer holds and the pair must be rejected.
    """
    rm = remainder_rm(norm1_b, m)
    x = s * rm
    if math.isinf(x) or x >= 1.0:
        return math.inf
    if x == 0.0:
        return 0.0
    return x * (1.0 - x**s) / (1.0 - x)


def error_bound(
    norm1_a: float,
    m: int,
    s: int,
    sigma_prime: int,
    consts: ErrorModelConstants = BINARY64,
) -> float:
    """Combined truncation plus rounding bound for ``exp(A) @ psi`` at ``(m, s)``."""
    norm1_b = norm1_a / s
    trunc = truncation_bound(norm1_b, m, s)
    if math.isinf(trunc):
        return math.inf
    return trunc + rounding_bound(norm1_b, m, s, sigma_prime, consts)


@lru_cache(maxsize=8192)
def _cached_plan(
    norm1_a: float,
    sigma_prime: int,
    tau: float,
    m_max: int,
    s_max: int,
    consts: ErrorModelConstants,
) -> ExpmPlan:
    # Hard floor of the whole search: for any order, the rounding bound is
    # at least s * beta >= s * gamma_3 (binomial lower bound with alpha >= 1
    # and the k = 0 term of beta), so scalings beyond tau / gamma_3 can
    # never certify and the scan may stop there.
    gamma3 = gamma_n(3, consts)
    for s in range(1, s_max + 1):
        if s * gamma3 > tau:
            raise PlanningError(
                f"tolerance {tau:g} is below the rounding floor for "
                f"norm1={norm1_a:g} in this working precision "
                f"(every scaling >= {s} certifies at best {s * gamma3:.2e})"
            )
        norm1_b = norm1_a / s
        # The truncation piece decreases monotonically with the order, so
        # if it already exceeds tau at m_max this scaling is hopeless.
        if truncation_bound(norm1_b, m_max, s) > tau:
            continue
        for m in range(1, m_max + 1):
            # beta grows with the order, so once s * beta alone exceeds
            # tau no larger order can rescue this scaling
            try:
                if s * _beta_sum(norm1_b, m, sigma_prime, consts) > tau:
                    break
            except BoundInfeasibleError:
                break
            bound = error_bound(norm1_a, m, s, sigma_prime, consts)
            if bound <= tau:
                return ExpmPlan(
                    order=m,
                    scaling=s,
                    tau=tau,
                    norm1=norm1_a,
                    sigma_prime=sigma_prime,
                    bound=bound,
                )
    raise PlanningError(
        f"no feasible (order, scaling) pair for norm1={norm1_a:g}, "
        f"sigma_prime={sigma_prime}, tau={tau:g} within order<={m_max}, scaling<={s_max}"
    )


def make_plan(
    norm1_a: float,
    sigma_prime: int,
    tau: float,
    *,
    m_max: int = DEFAULT_M_MAX,
    s_max: int = DEFAULT_S_MAX,
    consts: ErrorModelConstants = BINARY64,
) -> ExpmPlan:
    """Select the smallest feasible scaling, then the smallest order for it.

    The scan ascends through scalings ``s = 1, 2, ...`` and inside each
    through orders ``m = 1, ..., m_max``, returning the first pair whose
    certified bound does not exceed ``tau``.  Minimizing the product
    ``m * s`` systematically would require evaluating the full frontier,
    which costs more than it saves; the smallest-scaling rule is used
    instead.
    """
    if not 0.0 <= norm1_a < math.inf:
        raise ValueError(f"norm1_a must be finite and non-negative, got {norm1_a}")
    if sigma_prime < 0:
        raise ValueError("sigma_prime must be non-negative")
    if not 0.0 < tau < math.inf:
        raise ValueError(f"tau must be positive and finite, got {tau}")
    return _cached_plan(float(norm1_a), int(sigma_prime), float(tau), m_max, s_max, consts)


def apply(
    a: Matrix,
    psi: np.ndarray,
    plan: ExpmPlan,
    *,
    validate: bool = True,
    scale: complex = 1.0,
) -> np.ndarray:
    """Evaluate ``exp(scale A) @ psi`` under a plan for ``scale A``.

    Runs the inner Taylor recursion ``b_j = (B / j) b_{j-1}`` with
    ``B = scale A / s`` accumulated into the current iterate, repeated
    ``scaling`` times for the outer squaring loop, consuming exactly
    ``plan.matvecs`` matrix-vector products.  The factor ``scale / (s j)``
    is one scalar multiply after each product, so neither ``B`` nor
    ``scale A`` is ever materialized and the entries enter exactly as
    stored in ``A``.  Exactly three work vectors of the state dimension
    are live at any time; that constant is this module's memory contract.

    ``scale`` folds a time step into that scalar, as in Al-Mohy & Higham's
    ``expmv`` (SIAM J. Sci. Comput. 33, 488, 2011): a Hermitian ``H`` with
    ``scale = -i dt`` gives ``exp(-i H dt) @ psi``, planned for
    ``dt ||H||_1`` and the ``sigma'`` of ``H``.  The rounding model is
    unchanged.  ``fl(scale / (s j))`` is still a single rounding, real
    ``scale`` or purely imaginary, and multiplying a complex term by a
    real or a purely imaginary scalar rounds each part once.  The stored
    entries are ``H``'s own, so no rounding of a materialized generator
    ``-i dt H`` is left uncounted.  Negation is exact, so ``scale=-1.0``
    equals ``apply`` on the negated matrix bit for bit.

    ``validate`` enforces the precondition under which the certified
    bound holds: ``scale A`` is anti-Hermitian.  Callers applying the
    block-embedded derivative generator disable it and certify through
    the generalized two-norm surrogate instead (see
    :mod:`leangrape.derivatives`).
    """
    scale = complex(scale)
    if not cmath.isfinite(scale):
        raise ValueError(f"scale must be finite, got {scale}")
    psi = np.asarray(psi, dtype=np.complex128)
    if a.n_rows != a.n_cols or psi.shape != (a.n_cols,):
        raise ValueError("apply expects a square matrix and a matching vector")
    if validate:
        generator = a if scale == 1.0 else a.scaled(scale)
        if not is_anti_hermitian(generator, 1e-12 * max(generator.one_norm(), 1.0)):
            raise ValueError("scale times the matrix is not anti-Hermitian within tolerance")

    current = np.array(psi, dtype=np.complex128, copy=True)
    term = np.empty_like(current)
    work = np.empty_like(current)
    s = plan.scaling
    for _ in range(s):
        np.copyto(term, current)
        for j in range(1, plan.order + 1):
            a.matvec(term, out=work)
            np.multiply(work, scale / (s * j), out=term)
            current += term
    return current


def expm_multiply(
    a: Matrix,
    psi: np.ndarray,
    tau: float,
    *,
    validate: bool = True,
    m_max: int = DEFAULT_M_MAX,
    s_max: int = DEFAULT_S_MAX,
    consts: ErrorModelConstants = BINARY64,
) -> tuple[np.ndarray, int]:
    """Plan-and-apply convenience; returns the result and the matvec count used."""
    plan = make_plan(
        a.one_norm(), a.max_row_nnz(), tau, m_max=m_max, s_max=s_max, consts=consts
    )
    result = apply(a, psi, plan, validate=validate)
    return result, plan.matvecs
