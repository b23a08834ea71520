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

:func:`derivative_plan` certifies the other half of a GRAPE step: the
overlaps ``<lambda| L(A, E) |psi>`` of the Fréchet derivative of
``exp(A)`` along a direction ``E``, contracted from the co-state's Taylor
terms (see :class:`DerivativePlan`).

One Taylor recursion runs every application, in place, and every
product is the matrix's unchecked ``_product``.  :func:`move` moves the
caller's own vector and holds two more, the caller's ``term`` and
``work``.  :func:`apply` is the checked public entry: it checks its
inputs once, copies its start vector, so the caller's is left as it is,
and moves the copy with :func:`move`, holding three work vectors of the
state dimension, the returned one among them.  :func:`move_pair` runs a
backward step's pair, the co-state and ``psi`` moved together in one
pass stage by stage.  It keeps the co-state's ``m_d`` terms and holds,
besides them and the two moved vectors, ``psi``'s term vector and one
product vector: ``m_d + 2`` vectors, all of them the caller's.  It runs
the same products, scalars and additions per vector as :func:`move`, so
it moves each vector bit for bit as :func:`apply` would.  The per-term
scalars ``(scale / s) / j`` are computed once per stage scale and order,
by that very Python expression, and kept as read-only 0-d arrays
(:func:`term_scalars`).

The working precision is IEEE binary64, the package's only one:
``UNIT_ROUNDOFF`` is ``u = 2^-53`` and ``U_PRIME`` is ``u'``.  Both
planners find the least certified order at a given scaling through one
scan, over orders up to ``M_MAX = 60`` and scalings up to
``S_MAX = 10_000``.  These limits are fixed, not parameters.  A scaling
``s`` with ``s gamma_3 > tau`` is the rounding floor: neither it nor any
larger scaling certifies, and both planners refuse it by that name.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .sparse import Matrix, is_anti_hermitian

__all__ = [
    "UNIT_ROUNDOFF",
    "U_PRIME",
    "ExpmPlan",
    "DerivativePlan",
    "PlanningError",
    "remainder_rm",
    "gamma_n",
    "rounding_bound",
    "truncation_bound",
    "error_bound",
    "make_plan",
    "derivative_bound",
    "derivative_plan",
    "term_scalars",
    "apply",
    "move",
    "move_pair",
    "expm_multiply",
]

#: Unit roundoff of IEEE binary64 and its complex-arithmetic inflation
#: ``u' = 2 sqrt(2) u / (1 - 2u)``.
UNIT_ROUNDOFF = 2.0**-53
U_PRIME = 2.0 * math.sqrt(2.0) * UNIT_ROUNDOFF / (1.0 - 2.0 * UNIT_ROUNDOFF)

#: Search limits for the (m, s) selection.  They comfortably cover every
#: generator norm exercised by the benchmark suite; the scan cost is
#: negligible next to the matrix-vector products it certifies.
M_MAX = 60
S_MAX = 10_000

_TAIL_TERM_LIMIT = 500
_TAIL_REL_CUTOFF = 1e-20


class PlanningError(RuntimeError):
    """No feasible (order, scaling) pair within the search limits."""


class BoundInfeasibleError(ArithmeticError):
    """The rounding model breaks down (n * u' >= 1); treat as unbounded."""


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


def gamma_n(n: int) -> float:
    """Accumulated relative error factor ``n u' / (1 - n u')``."""
    if n < 0:
        raise ValueError("gamma_n expects a non-negative count")
    nu = n * U_PRIME
    if nu >= 1.0:
        raise BoundInfeasibleError(f"rounding model infeasible: n*u' = {nu} >= 1")
    return nu / (1.0 - nu)


def _beta_sum(norm1_b: float, m: int, sigma_prime: int) -> float:
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
        beta += gamma_n(k * step + m + 2) * power
    return beta


def rounding_bound(norm1_b: float, m: int, s: int, sigma_prime: int) -> float:
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
        beta = _beta_sum(norm1_b, m, sigma_prime)
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


def error_bound(norm1_a: float, m: int, s: int, sigma_prime: int) -> float:
    """Combined truncation plus rounding bound for ``exp(A) @ psi`` at ``(m, s)``."""
    return _stage_bound(norm1_a / s, m, s, sigma_prime)


@lru_cache(maxsize=4096)
def _stage_bound(norm1_b: float, m: int, s: int, sigma_prime: int) -> float:
    """:func:`error_bound` of ``s`` stages, each with generator norm ``norm1_b``.

    Cached: a derivative plan reads its step plan's bound again.
    """
    trunc = truncation_bound(norm1_b, m, s)
    if math.isinf(trunc):
        return math.inf
    return trunc + rounding_bound(norm1_b, m, s, sigma_prime)


#: Rounding floor per stage: for any order the rounding bound is at least
#: ``s * beta >= s * gamma_3`` (binomial lower bound with ``alpha >= 1`` and
#: the ``k = 0`` term of ``beta``), so a scaling with ``s * gamma_3 > tau``
#: can never certify, nor can any larger one.
_GAMMA_3 = gamma_n(3)


def _least_order(norm1_a: float, s: int, sigma_prime: int, tau: float) -> ExpmPlan | None:
    """The smallest certified order at scaling ``s``, as a plan; None if there is none.

    Raises :class:`PlanningError` once ``s`` is at the rounding floor, where
    no scaling from ``s`` on certifies.  The two prunes skip only orders
    that cannot certify, so the result is that of trying every order up
    to ``M_MAX`` in turn.
    """
    if s * _GAMMA_3 > tau:
        raise PlanningError(
            f"tolerance {tau:g} is below the rounding floor for "
            f"norm1={norm1_a:g} in this working precision "
            f"(every scaling >= {s} certifies at best {s * _GAMMA_3:.2e})"
        )
    norm1_b = norm1_a / s
    # The truncation piece decreases monotonically with the order, so
    # if it already exceeds tau at M_MAX this scaling is hopeless.
    if truncation_bound(norm1_b, M_MAX, s) > tau:
        return None
    for m in range(1, M_MAX + 1):
        # beta grows with the order, so once s * beta alone exceeds
        # tau no larger order can rescue this scaling
        try:
            if s * _beta_sum(norm1_b, m, sigma_prime) > tau:
                return None
        except BoundInfeasibleError:
            return None
        bound = error_bound(norm1_a, m, s, sigma_prime)
        if bound <= tau:
            return ExpmPlan(m, s, tau, norm1_a, sigma_prime, bound)
    return None


@lru_cache(maxsize=8192)
def _cached_plan(norm1_a: float, sigma_prime: int, tau: float) -> ExpmPlan:
    for s in range(1, S_MAX + 1):
        plan = _least_order(norm1_a, s, sigma_prime, tau)
        if plan is not None:
            return plan
    raise PlanningError(
        f"no feasible (order, scaling) pair for norm1={norm1_a:g}, "
        f"sigma_prime={sigma_prime}, tau={tau:g} within order<={M_MAX}, scaling<={S_MAX}"
    )


def make_plan(norm1_a: float, sigma_prime: int, tau: float) -> ExpmPlan:
    """Select the smallest feasible scaling, then the smallest order for it.

    The scan ascends through scalings ``s = 1, 2, ...`` and inside each
    through orders ``m = 1, ..., M_MAX``, returning the first pair whose
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
    return _cached_plan(float(norm1_a), int(sigma_prime), float(tau))


@dataclass(frozen=True)
class DerivativePlan:
    """A certified backward step: derivative overlaps and both moves across the step.

    For ``U = exp(A)`` with ``A = -i dt H`` and a direction ``E = -i dt h_k``,
    a backward step returns ``<lambda| L(A, E) |psi_{n-1}>``, where ``L`` is
    the Fréchet derivative of the exponential, and moves ``psi_n`` and
    ``lambda`` back across the step.  ``state`` moves ``psi``; it is the
    step's own plan whenever that certifies.  ``costate`` moves ``lambda`` at
    the same scaling and an order ``m_d >= state.order``, and hands the
    terms ``u_i = (B^dagger)^i lambda / i!``, ``i < m_d``, of each stage
    ``B = A / s`` to the overlaps.  A Horner pass over the stage's state
    builds ``Y_{m_d - 1} = psi`` and ``Y_i = psi + B Y_{i+1} / (i + 2)``, and
    ``sum_i <u_i| E / s |Y_i> / (i + 1)`` is the stage's share of the
    derivative of ``T_{m_d}(B)^s`` (Al-Mohy & Higham, SIAM J. Matrix Anal.
    Appl. 30, 1639, 2009).  ``bound`` is the certified error of every
    overlap for unit ``lambda`` and ``psi_n`` (see :func:`derivative_bound`),
    and ``costate.bound`` that of the moved co-state; both are at most
    ``tau``.
    """

    state: ExpmPlan
    costate: ExpmPlan
    norm1_direction: float
    bound: float

    @property
    def matvecs(self) -> int:
        """Generator products of one backward step: ``m s + (2 m_d - 1) s``."""
        c = self.costate
        return self.state.matvecs + c.matvecs + (c.order - 1) * c.scaling


def derivative_bound(
    norm1_a: float,
    norm1_e: float,
    order: int,
    s: int,
    sigma_prime: int,
    sigma_e: int,
    dim: int,
    state_order: int,
) -> float:
    """Upper bound on the error of one overlap of a :class:`DerivativePlan`.

    ``norm1_a`` and ``norm1_e`` are the one-norms of ``A`` and of the
    direction ``E``, ``sigma_e`` the direction's largest per-row count of
    stored elements, ``order`` the co-state order ``m_d`` and
    ``state_order`` the order that moves ``psi``; ``lambda`` and ``psi_n``
    are unit vectors.  With ``b = norm1_a / s`` each stage contributes, per
    ``norm1_e / s`` of the direction:

    * truncation ``R_{m_d - 1}(b)``, which bounds ``L(B, .) - L_{T_{m_d}}(B, .)``
      term by term;
    * rounding ``gamma_n sum_{q < m_d} b^q / q!``, the magnitude of the
      contracted terms, with ``n = (m_d - 1)(sigma' + 3) + sigma_e + dim + m_d
      + s + 4``: ``u_i`` takes ``i (sigma' + 2)`` roundings in the engine, the
      Horner levels of ``Y_i`` ``sigma' + 3`` each, and the contraction one
      control row, a ``dim``-term dot product, two roundings for the weight
      ``1 / (i + 1)``, the sums over ``i`` and over the stages, and two
      roundings for the final ``-i dt / s``;
    * for ``s > 1``, the stage's ``lambda`` and ``psi`` are propagated
      vectors: their errors after at most ``s - 1`` stages, ``eps_lambda``
      and ``eps_psi`` from :func:`error_bound`, enter through
      ``||L(B, E / s)|| <= norm1_e / s``, and ``1 + eps_lambda`` scales the
      stage's own error.

    Every stage's ``psi`` has norm at most ``nu = 1 + error_bound(norm1_a,
    state_order, s)``, so the bound is ``norm1_e nu ((R + rounding)
    (1 + eps_lambda) + eps_lambda + eps_psi)``.  For Hermitian ``H`` and
    ``h_k`` the one-norms bound the two-norms of ``|B|`` and ``|E|``.
    """
    norm1_b = norm1_a / s
    trunc = remainder_rm(norm1_b, order - 1)
    partial = term = 1.0
    for q in range(1, order):
        term *= norm1_b / q
        partial += term
    try:
        n = (order - 1) * (sigma_prime + 3) + sigma_e + dim + order + s + 4
        rounding = gamma_n(n) * partial
    except BoundInfeasibleError:
        return math.inf
    eps_lam = eps_psi = 0.0
    if s > 1:
        eps_lam = _stage_bound(norm1_b, order, s - 1, sigma_prime)
        eps_psi = _stage_bound(norm1_b, state_order, s - 1, sigma_prime)
    nu = 1.0 + _stage_bound(norm1_b, state_order, s, sigma_prime)
    return norm1_e * nu * ((trunc + rounding) * (1.0 + eps_lam) + eps_lam + eps_psi)


def _first_certified(
    least: ExpmPlan, norm1_e: float, sigma_e: int, dim: int, *, raise_state: bool
) -> DerivativePlan | None:
    """The lowest co-state order at ``least``'s scaling whose plan certifies.

    ``psi`` moves under ``least`` or, with ``raise_state``, at the co-state's
    order.  Stops once the bound stops falling: rounding then dominates and
    a higher order only adds to it.
    """
    a, sigma, tau, s = least.norm1, least.sigma_prime, least.tau, least.scaling
    last = math.inf
    for m in range(least.order, M_MAX + 1):
        state_order = m if raise_state else least.order
        bound = derivative_bound(a, norm1_e, m, s, sigma, sigma_e, dim, state_order)
        if bound <= tau:
            moved = ExpmPlan(m, s, tau, a, sigma, error_bound(a, m, s, sigma))
            if moved.bound <= tau:
                return DerivativePlan(moved if raise_state else least, moved, norm1_e, bound)
        if bound >= last:
            return None
        last = bound
    return None


@lru_cache(maxsize=8192)
def _cached_derivative_plan(
    step: ExpmPlan, norm1_e: float, sigma_e: int, dim: int
) -> DerivativePlan:
    a, sigma, tau = step.norm1, step.sigma_prime, step.tau
    failure = (
        f"no certified derivative plan for norm1={a:g}, direction norm1={norm1_e:g}, "
        f"sigma_prime={sigma}, tau={tau:g}"
    )
    for s in range(step.scaling, S_MAX + 1):
        # every order's bound is at least its order-1 rounding term, which grows with s
        try:
            direction_floor = norm1_e * gamma_n(sigma_e + dim + s + 5)
        except BoundInfeasibleError:
            direction_floor = math.inf
        if direction_floor > tau:
            raise PlanningError(
                f"{failure}: tau is below the direction's rounding floor "
                f"(every scaling >= {s} certifies at best {direction_floor:.2e})"
            )
        try:
            least = step if s == step.scaling else _least_order(a, s, sigma, tau)
        except PlanningError as floor:
            raise PlanningError(f"{failure}: {floor}") from None
        if least is None:
            continue
        for raise_state in (False, True) if s > 1 else (False,):
            plan = _first_certified(least, norm1_e, sigma_e, dim, raise_state=raise_state)
            if plan is not None:
                return plan
    raise PlanningError(f"{failure} within order<={M_MAX}, scaling<={S_MAX}")


def derivative_plan(step: ExpmPlan, norm1_e: float, sigma_e: int, dim: int) -> DerivativePlan:
    """The cheapest certified :class:`DerivativePlan` for a step planned by ``step``.

    ``norm1_e`` is the largest one-norm of a direction ``E`` (the bound
    grows with it, so it certifies every smaller one), ``sigma_e`` the
    largest per-row count of stored elements of a direction and ``dim``
    the state dimension.  The step's own scaling is kept and ``psi``
    moves under the step's plan; the co-state order rises from the step's
    until :func:`derivative_bound` and the moved co-state's bound are both
    at most ``tau``.  If no order certifies, ``psi`` moves at the co-state's
    order instead; only if that fails too does the scaling rise, starting
    from its smallest certified order.  A scaling at the rounding floor
    ends the search with a :class:`PlanningError` that names the floor,
    and so does one at the direction's rounding floor: every overlap bound
    at scaling ``s`` is at least ``norm1_e gamma_{sigma_e + dim + s + 5}``,
    its order-1 rounding term, so once that exceeds ``tau`` neither ``s``
    nor any larger scaling certifies.
    """
    if not 0.0 <= norm1_e < math.inf:
        raise ValueError(f"norm1_e must be finite and non-negative, got {norm1_e}")
    return _cached_derivative_plan(step, float(norm1_e), int(sigma_e), int(dim))


def term_scalars(numerator: complex | float, order: int) -> tuple[np.ndarray, ...]:
    """``numerator / j`` for ``j = 1 .. order``, entry ``j - 1``, as read-only 0-d arrays.

    Each entry is that Python expression, computed once and kept: the
    Taylor scalars ``(scale / s) / j`` of a stage scale ``scale / s``, the
    Horner scalars of a backward step and, for ``numerator = 1.0``, its
    contraction weights ``1 / (i + 1)``.  A ufunc given a 0-d array skips
    the conversion of a Python scalar that it otherwise makes on every
    call, and multiplies by the same number.  The table is cached per
    numerator, its type and the signs of its parts (``==`` does not tell
    ``-0.0`` from ``0.0``), and order.
    """
    real, imag = math.copysign(1.0, numerator.real), math.copysign(1.0, numerator.imag)
    return _scalar_table(numerator, order, real, imag)


@lru_cache(maxsize=256, typed=True)
def _scalar_table(numerator, order: int, *_signs: float) -> tuple[np.ndarray, ...]:
    table = tuple(np.array(numerator / j) for j in range(1, order + 1))
    for scalar in table:
        scalar.flags.writeable = False
    return table


def _taylor_pass(
    product,
    stage_scale: complex,
    order: int,
    work: np.ndarray,
    current: np.ndarray,
    terms: np.ndarray,
    second: tuple[np.ndarray, np.ndarray, int] | None = None,
) -> None:
    """One stage of the Taylor recursion, in place: the one recursion of this module.

    ``current`` holds the vector ``v`` the stage starts from, and so does a
    1-D ``terms``, or row 0 of a 2-D one.  Each term
    ``b_j = (stage_scale / j) A b_{j-1}``, ``j = 1 .. order``, is one
    ``product(b_{j-1}, work)`` and one multiply by the scalar
    ``stage_scale / j`` (from :func:`term_scalars`), and is added into
    ``current`` as it is formed, so ``current`` ends as ``v + b_1 + ... +
    b_order``.  A 1-D ``terms`` is overwritten by each term.  A 2-D
    ``terms`` keeps them: term ``j`` goes to row ``j`` and, past the last
    row, into ``work`` itself.  ``second = (current, term, order)`` is a
    second row of at most ``order`` terms, run beside the first term by
    term with the same scalars, its terms overwriting its 1-D ``term``.
    """
    scalars = term_scalars(stage_scale, order)
    keep = terms.ndim == 2
    src, last = (terms[0], len(terms)) if keep else (terms, 0)
    if second is not None:
        current_2, term_2, order_2 = second
    for j in range(1, order + 1):
        scalar = scalars[j - 1]
        product(src, work)
        dst = (terms[j] if j < last else work) if keep else src
        np.multiply(work, scalar, dst)
        np.add(current, dst, current)
        src = dst
        if second is not None and j <= order_2:
            product(term_2, work)
            np.multiply(work, scalar, term_2)
            np.add(current_2, term_2, current_2)


def apply(a: Matrix, psi: np.ndarray, plan: ExpmPlan, *, scale: complex = 1.0) -> np.ndarray:
    """Evaluate ``exp(scale A) @ psi`` under a plan for ``scale A``; the checked entry.

    Checks its inputs once, copies ``psi`` and moves the copy with
    :func:`move`: the inner Taylor recursion ``b_j = (B / j) b_{j-1}`` with
    ``B = scale A / s`` accumulated into the current iterate, repeated
    ``scaling`` times for the outer squaring loop, consuming exactly
    ``plan.matvecs`` products, each ``A``'s unchecked ``_product``.  The
    factor ``(scale / s) / j`` is one scalar multiply after each product,
    so neither ``B`` nor ``scale A`` is ever materialized and the entries
    enter exactly as stored in ``A``.  The result is a new array and
    ``psi`` is left as it is.  Exactly three work vectors of the state
    dimension are live at any time, the result among them; that constant
    is this module's memory contract for one vector.

    ``scale`` folds a time step into that scalar, as in Al-Mohy & Higham's
    ``expmv`` (SIAM J. Sci. Comput. 33, 488, 2011): a Hermitian ``H`` with
    ``scale = -i dt`` gives ``exp(-i H dt) @ psi``, planned for
    ``dt ||H||_1`` and the ``sigma'`` of ``H``.  The rounding model is
    unchanged.  For a real or purely imaginary ``scale`` the two real
    divisions of ``(scale / s) / j`` have a combined relative error of at
    most ``2u + u^2``, below the ``u'`` the model charges for the scalar
    (one exact division at ``s = 1``), and multiplying a complex term by
    that scalar rounds each part once.  The stored entries are ``H``'s own,
    so no rounding of a materialized generator ``-i dt H`` is left
    uncounted.  Negation is exact, so ``scale=-1.0`` equals ``apply`` on
    the negated matrix bit for bit.

    The checks are the preconditions of the certified bound: a finite
    ``scale``, a square ``A``, a ``psi`` of matching length with finite
    entries and an anti-Hermitian ``scale A``.  Each failure raises
    ValueError before any product.  The steps of a
    :class:`~leangrape.derivatives.StepEvaluator` do not call this: they
    move through :func:`move` and :func:`move_pair`, which check nothing,
    because :class:`~leangrape.costs.ControlProblem` checked ``H_s`` and
    each ``h_k`` Hermitian when it was made, so a step Hamiltonian with
    real amplitudes is Hermitian and ``scale = -i dt`` or ``+i dt`` makes
    it anti-Hermitian.
    """
    scale = complex(scale)
    if not cmath.isfinite(scale):
        raise ValueError(f"scale must be finite, got {scale}")
    current = np.array(psi, dtype=np.complex128)  # the caller's vector is left as it is
    if a.n_rows != a.n_cols or current.shape != (a.n_cols,):
        raise ValueError("apply expects a square matrix and a matching vector")
    if not np.isfinite(current).all():
        raise ValueError("psi has a non-finite entry")
    if not is_anti_hermitian(a if scale == 1.0 else a.scaled(scale)):
        raise ValueError("scale times the matrix is not anti-Hermitian within tolerance")
    move(a, current, plan, scale, np.empty_like(current), np.empty_like(current))
    return current


def move(
    h: Matrix, v: np.ndarray, plan: ExpmPlan, scale: complex, term: np.ndarray, work: np.ndarray
) -> None:
    """Move ``v`` to ``exp(scale h) v`` under ``plan``, in place: :func:`apply` unchecked.

    The one-vector sibling of :func:`move_pair`: the ``plan.scaling``
    stages of ``plan``, each one Taylor pass at ``scale / s``, so ``v`` ends
    as ``apply(h, v, plan, scale=scale)`` bit for bit.  Every product is
    ``h``'s unchecked one and nothing is validated: the caller owns the
    arrays and guarantees their shapes (``v``, ``term`` and ``work`` are
    complex128 with ``d`` entries, and none of them overlaps another).
    ``term`` holds each Taylor term, ``work`` each product; no vector is
    allocated.
    """
    stage_scale = complex(scale) / plan.scaling
    for _ in range(plan.scaling):
        np.copyto(term, v)
        _taylor_pass(h._product, stage_scale, plan.order, work, v, term)


def move_pair(
    h: Matrix,
    costate: np.ndarray,
    psi: np.ndarray,
    plan: DerivativePlan,
    scale: complex,
    terms: np.ndarray,
    spare: np.ndarray,
    work: np.ndarray,
) -> None:
    """Move a backward step's co-state and ``psi`` across one stage, in one pass.

    The two moves of a :class:`DerivativePlan` stage, ``exp(scale H / s)``
    on ``costate`` under ``plan.costate`` and on ``psi`` under
    ``plan.state``, run as the two rows of one Taylor recursion: the scalars
    ``(scale / s) / j`` of :func:`apply`, and each term of each row added
    into the caller's own array, which ends the stage moved.  The co-state
    row runs to ``m_d = plan.costate.order`` and leaves its terms
    ``u_i = B^i lambda / i!``, ``i < m_d``, in the ``m_d`` rows of
    ``terms`` for the overlaps; the ``psi`` row stops at
    ``plan.state.order``.  Every product is ``h``'s unchecked one: the
    caller owns the scratch and guarantees its shapes (``terms`` is
    ``(m_d, d)``, ``spare`` and ``work`` have ``d`` entries, and none of
    them overlaps another or the two moved vectors).  ``spare`` is the
    ``psi`` row's term vector and ``work`` takes every product, and the
    last co-state term, ``u_{m_d}``, which nothing reads.  Row by row these
    are the products, scalars and additions of :func:`apply` under the
    stage plans, so ``s`` stages move ``costate`` and ``psi`` exactly as
    ``apply(h, ., plan.costate, scale=scale)`` and ``apply(h, .,
    plan.state, scale=scale)`` do, bit for bit, at a memory contract of
    ``m_d + 2`` vectors besides the two moved ones.
    """
    c = plan.costate
    np.copyto(terms[0], costate)
    np.copyto(spare, psi)
    second = (psi, spare, plan.state.order)
    _taylor_pass(h._product, complex(scale) / c.scaling, c.order, work, costate, terms, second)


def expm_multiply(a: Matrix, psi: np.ndarray, tau: float) -> tuple[np.ndarray, int]:
    """Plan-and-apply convenience; returns the result and the matvec count used.

    ``psi`` and ``a`` are checked as :func:`apply` checks them.
    """
    plan = make_plan(a.one_norm(), a.max_row_nnz(), tau)
    return apply(a, psi, plan), plan.matvecs
