"""Error-bound machinery: remainder tail, gamma factors, bound pieces, planning.

Expected values marked as frozen were computed with the 60-digit mpmath
oracle implemented in ``_mp_*`` below; the oracle is re-run here so any
drift between it and the frozen literals fails loudly.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from leangrape import expm

mp.mp.dps = 60

_U = mp.mpf(2) ** -53
_UP = 2 * mp.sqrt(2) * _U / (1 - 2 * _U)


def _mp_remainder(x, m, terms=400):
    x = mp.mpf(x)
    term = x ** (m + 1) / mp.factorial(m + 1)
    total = term
    q = m + 1
    for _ in range(terms):
        q += 1
        term *= x / q
        total += term
    return total


def _mp_gamma(n):
    return n * _UP / (1 - n * _UP)


def _mp_rounding(x, m, s, sigma):
    x = mp.mpf(x)
    alpha = 1 + _mp_remainder(x, m)
    beta = mp.mpf(0)
    for k in range(m + 1):
        beta += _mp_gamma(k * (sigma + 2) + m + 2) * x**k / mp.factorial(k)
    return (alpha + beta) ** s - alpha**s


def _mp_truncation(x, m, s):
    sr = s * _mp_remainder(x, m)
    return sr * (1 - sr**s) / (1 - sr)


class TestRemainder:
    def test_zero_argument(self):
        for m in (0, 1, 7, 60):
            assert expm.remainder_rm(0.0, m) == 0.0

    def test_m_zero_collapses_to_expm1(self):
        # frozen: e - 1
        assert expm.remainder_rm(1.0, 0) == pytest.approx(1.718281828459045, abs=1e-12)

    def test_against_extended_precision(self):
        frozen = 0.001615161792378568693620805  # _mp_remainder(1, 5)
        live = float(_mp_remainder(1, 5))
        assert live == pytest.approx(frozen, rel=1e-15)
        assert expm.remainder_rm(1.0, 5) == pytest.approx(frozen, rel=1e-12)

    @pytest.mark.parametrize("x,m", [(0.25, 3), (2.0, 10), (7.5, 25), (16.0, 55)])
    def test_more_extended_precision_points(self, x, m):
        assert expm.remainder_rm(x, m) == pytest.approx(float(_mp_remainder(x, m)), rel=1e-12)

    def test_negative_argument_rejected(self):
        with pytest.raises(ValueError):
            expm.remainder_rm(-1.0, 3)


class TestGamma:
    def test_zero(self):
        assert expm.gamma_n(0) == 0.0

    def test_one_matches_definition(self):
        up = expm.U_PRIME
        assert expm.gamma_n(1) == pytest.approx(up / (1 - up), rel=0)

    def test_monotone(self):
        assert expm.gamma_n(10) > expm.gamma_n(9)

    def test_infeasible(self):
        with pytest.raises(expm.BoundInfeasibleError):
            expm.gamma_n(2**53)


class TestRoundingBound:
    def test_s_one_equals_beta(self):
        # (alpha + beta)^1 - alpha^1 == beta for any inputs
        got = expm.rounding_bound(0.3, 4, 1, 3)
        beta = float(_mp_rounding(0.3, 4, 1, 3))
        assert got == pytest.approx(beta, rel=1e-12)

    def test_zero_norm_m1_s1_is_gamma3(self):
        frozen_gamma3 = 9.420554752102661e-16  # _mp_gamma(3)
        assert float(_mp_gamma(3)) == pytest.approx(frozen_gamma3, rel=1e-15)
        assert expm.rounding_bound(0.0, 1, 1, 5) == pytest.approx(frozen_gamma3, rel=1e-12)

    def test_against_extended_precision(self):
        frozen = 1.553186900115791e-14  # _mp_rounding(0.5, 10, 2, 4)
        live = float(_mp_rounding(0.5, 10, 2, 4))
        assert live == pytest.approx(frozen, rel=1e-14)
        assert expm.rounding_bound(0.5, 10, 2, 4) == pytest.approx(frozen, rel=1e-10)

    def test_large_s_cancellation_regime(self):
        # s*beta/alpha ~ 1e-12: the naive difference would lose most digits
        got = expm.rounding_bound(0.01, 5, 1000, 2)
        want = float(_mp_rounding(0.01, 5, 1000, 2))
        assert got == pytest.approx(want, rel=1e-10)


class TestTruncationBound:
    def test_zero_norm(self):
        assert expm.truncation_bound(0.0, 5, 3) == 0.0

    def test_s_one_collapses_to_remainder(self):
        x, m = 0.8, 6
        assert expm.truncation_bound(x, m, 1) == pytest.approx(
            expm.remainder_rm(x, m), rel=1e-13
        )

    def test_against_extended_precision(self):
        frozen = 3.005407950636189e-18  # _mp_truncation(0.5, 15, 4)
        live = float(_mp_truncation(0.5, 15, 4))
        assert live == pytest.approx(frozen, rel=1e-14)
        assert expm.truncation_bound(0.5, 15, 4) == pytest.approx(frozen, rel=1e-10)

    def test_geometric_form_invalid_returns_inf(self):
        assert math.isinf(expm.truncation_bound(5.0, 1, 4))


class TestErrorBound:
    def test_zero_norm_pure_rounding(self):
        assert expm.error_bound(0.0, 1, 1, 5) == pytest.approx(9.420554752102661e-16, rel=1e-12)

    def test_non_increasing_while_truncation_dominates(self):
        """The bound falls with the order until the rounding floor takes over.

        At norm 3, scaling 2 the truncation term dominates through m = 19;
        beyond that the rounding term (which grows linearly in m) turns the
        total gently upward, so strict monotonicity holds only on the
        truncation-dominated prefix.
        """
        values = [expm.error_bound(3.0, m, 2, 4) for m in range(5, 20)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        tail = expm.error_bound(3.0, 20, 2, 4)
        assert tail <= values[-1] * 1.01

    def test_feasible_frontier_matches_exhaustive_scan(self):
        """The selected plan agrees with a brute-force scan of the whole grid."""
        norm, sigma, tau = 10.0, 4, 1e-8
        best = None
        for s in range(1, 1001):
            for m in range(1, 61):
                if expm.error_bound(norm, m, s, sigma) <= tau:
                    best = (m, s)
                    break
            if best is not None:
                break
        plan = expm.make_plan(norm, sigma, tau)
        assert (plan.order, plan.scaling) == best


class TestMakePlan:
    def test_zero_norm_plans_identity_cost(self):
        plan = expm.make_plan(0.0, 5, 1e-8)
        assert (plan.order, plan.scaling, plan.matvecs) == (1, 1, 1)
        assert plan.bound <= 1e-8

    def test_random_inputs_respect_tau(self, rng):
        for _ in range(100):
            norm = float(rng.uniform(0.1, 30.0))
            sigma = int(rng.integers(1, 17))
            tau = float(rng.choice([1e-4, 1e-8, 1e-12]))
            try:
                plan = expm.make_plan(norm, sigma, tau)
            except expm.PlanningError:
                # tight tolerances are unreachable at large norms in binary64
                assert tau == 1e-12 and norm > 40.0
                continue
            assert plan.bound <= tau
            assert expm.error_bound(norm, plan.order, plan.scaling, sigma) <= tau

    def test_minimality_of_selection(self, rng):
        for _ in range(20):
            norm = float(rng.uniform(0.5, 25.0))
            sigma = int(rng.integers(1, 9))
            plan = expm.make_plan(norm, sigma, 1e-8)
            if plan.order > 1:
                assert expm.error_bound(norm, plan.order - 1, plan.scaling, sigma) > 1e-8
            for s in range(1, plan.scaling):
                feasible = any(
                    expm.error_bound(norm, m, s, sigma) <= 1e-8 for m in range(1, 61)
                )
                assert not feasible

    def test_planning_failure_diagnostic(self):
        with pytest.raises(expm.PlanningError, match="norm1=1000"):
            expm.make_plan(1000.0, 5, 1e-12)

    def test_tau_validation(self):
        with pytest.raises(ValueError):
            expm.make_plan(1.0, 1, 0.0)

    def test_infinite_tau_refused(self):
        # any plan meets an infinite tolerance, so m = s = 1 would claim a certificate
        with pytest.raises(ValueError, match="tau must be positive and finite"):
            expm.make_plan(1.0, 2, np.inf)

    def test_non_finite_norm_refused(self):
        with pytest.raises(ValueError, match="norm1_a must be finite"):
            expm.make_plan(np.inf, 2, 1e-8)

    def test_mu_monotone_in_norm_at_moderate_tolerances(self):
        """Matvec count never drops as the norm grows (tau = 1e-4, 1e-8).

        At tau = 1e-12 the smallest-scaling rule produces sub-percent dips
        at scaling steps, so strict monotonicity is only asserted for the
        moderate tolerances.
        """
        for tau in (1e-4, 1e-8):
            prev = 0
            for norm in np.linspace(0.0, 40.0, 401):
                plan = expm.make_plan(float(norm), 5, tau)
                assert plan.matvecs >= prev
                prev = plan.matvecs
