"""Certified application of the exponential action."""

import numpy as np
import pytest

from leangrape import expm, sparse

from conftest import (
    CountingOperator,
    expm_action_oracle,
    random_anti_hermitian,
    random_hermitian,
    random_state,
)


def csr_from(dense):
    return sparse.from_dense(dense)


class TestApply:
    def test_zero_generator_is_identity(self, rng):
        a = sparse.build_csr([], 6, 6)
        psi = random_state(rng, 6)
        plan = expm.make_plan(0.0, 0, 1e-10)
        out = expm.apply(a, psi, plan)
        assert np.allclose(out, psi, atol=1e-14)

    def test_counted_matvecs_equal_plan(self, rng):
        a = csr_from(random_anti_hermitian(rng, 12, scale=3.0))
        plan = expm.make_plan(a.one_norm(), a.max_row_nnz(), 1e-10)
        counting = CountingOperator(a)
        out = expm.apply(counting, random_state(rng, 12), plan, validate=False)
        assert plan.matvecs > 1
        assert counting.calls == plan.matvecs
        assert np.isfinite(out).all()

    def test_half_pi_sigma_x_rotation(self):
        a = sparse.build_csr([(0, 1, -1j * np.pi / 2), (1, 0, -1j * np.pi / 2)], 2, 2)
        plan = expm.make_plan(a.one_norm(), a.max_row_nnz(), 1e-10)
        out = expm.apply(a, np.array([1.0, 0.0], complex), plan)
        assert np.linalg.norm(out - np.array([0.0, -1j])) <= 1e-10

    def test_random_matches_diagonalization_oracle(self, rng):
        dense = random_anti_hermitian(rng, 16, scale=1.5)
        a = csr_from(dense)
        psi = random_state(rng, 16)
        plan = expm.make_plan(a.one_norm(), a.max_row_nnz(), 1e-10)
        out = expm.apply(a, psi, plan)
        want = expm_action_oracle(dense, psi)
        assert np.linalg.norm(out - want) / np.linalg.norm(want) <= 1e-10

    def test_extended_precision_taylor_cross_check(self, rng):
        """Cross-check the binary64 oracle against a 40-digit matrix Taylor sum."""
        import mpmath as mp

        mp.mp.dps = 40
        d = 8
        dense = random_anti_hermitian(rng, d, scale=0.8)
        psi = random_state(rng, d)
        a_mp = mp.matrix([[mp.mpc(z.real, z.imag) for z in row] for row in dense])
        psi_mp = mp.matrix([mp.mpc(z.real, z.imag) for z in psi])
        out_mp = mp.expm(a_mp) * psi_mp
        want = np.array([complex(z.real, z.imag) for z in out_mp])
        oracle = expm_action_oracle(dense, psi)
        assert np.linalg.norm(oracle - want) <= 1e-13

        a = csr_from(dense)
        plan = expm.make_plan(a.one_norm(), a.max_row_nnz(), 1e-12)
        out = expm.apply(a, psi, plan)
        assert np.linalg.norm(out - want) / np.linalg.norm(want) <= 1e-12

    @pytest.mark.parametrize("storage", ["csr", "dense"])
    def test_negate_equals_negated_generator(self, rng, storage):
        dense = random_anti_hermitian(rng, 14, scale=2.0)
        a = csr_from(dense) if storage == "csr" else sparse.DenseMatrix(dense)
        psi = random_state(rng, 14)
        plan = expm.make_plan(a.one_norm(), a.max_row_nnz(), 1e-10)
        got = expm.apply(a, psi, plan, scale=-1.0)
        assert np.array_equal(got, expm.apply(a.scaled(-1.0), psi, plan))
        assert np.linalg.norm(got - expm_action_oracle(-dense, psi)) <= 1e-10

    @pytest.mark.parametrize("storage", ["csr", "dense"])
    def test_imaginary_scale_is_the_time_step(self, rng, storage):
        d, dt, tau = 14, 0.37, 1e-10
        h_dense = random_hermitian(rng, d, scale=2.0)
        h = csr_from(h_dense) if storage == "csr" else sparse.DenseMatrix(h_dense)
        psi = random_state(rng, d)
        plan = expm.make_plan(dt * h.one_norm(), h.max_row_nnz(), tau)
        counting = CountingOperator(h)
        got = expm.apply(counting, psi, plan, scale=-1j * dt)
        assert counting.calls == plan.matvecs > 1
        materialized = expm.apply(h.scaled(-1j * dt), psi, plan)
        assert np.linalg.norm(got - materialized) <= 1e-14
        assert np.linalg.norm(got - expm_action_oracle(-1j * dt * h_dense, psi)) <= tau
        # validation reads scale times the matrix: H itself is Hermitian, not anti-Hermitian
        with pytest.raises(ValueError, match="anti-Hermitian"):
            expm.apply(h, psi, plan)

    @pytest.mark.parametrize(
        "scale", [np.nan, np.inf, -np.inf, complex(0.0, np.inf), complex(np.nan, 1.0)]
    )
    def test_non_finite_scale_refused(self, rng, scale):
        a = csr_from(random_anti_hermitian(rng, 4))
        plan = expm.make_plan(a.one_norm(), a.max_row_nnz(), 1e-8)
        with pytest.raises(ValueError, match="scale must be finite"):
            expm.apply(a, random_state(rng, 4), plan, scale=scale)

    def test_non_anti_hermitian_rejected(self, rng):
        dense = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        a = csr_from(dense)
        plan = expm.make_plan(a.one_norm(), a.max_row_nnz(), 1e-8)
        with pytest.raises(ValueError, match="anti-Hermitian"):
            expm.apply(a, random_state(rng, 4), plan)

    def test_dimension_mismatch(self, rng):
        a = csr_from(random_anti_hermitian(rng, 4))
        plan = expm.make_plan(a.one_norm(), a.max_row_nnz(), 1e-8)
        with pytest.raises(ValueError):
            expm.apply(a, np.zeros(5, complex), plan)


class TestProperties:
    @pytest.mark.parametrize("tau", [1e-4, 1e-8, 1e-12])
    def test_certified_accuracy_random_panel(self, rng, tau):
        # norms drawn inside the certifiable range for the tightest tolerance
        # (the rounding floor grows with the norm; see the planning tests)
        for _ in range(10):
            d = int(rng.integers(4, 33))
            dense = random_anti_hermitian(rng, d)
            a = csr_from(dense)
            target_norm = float(rng.uniform(0.5, 18.0))
            dense *= target_norm / a.one_norm()
            a = csr_from(dense)
            psi = random_state(rng, d)
            plan = expm.make_plan(a.one_norm(), a.max_row_nnz(), tau)
            out = expm.apply(a, psi, plan)
            want = expm_action_oracle(dense, psi)
            assert np.linalg.norm(out - want) / np.linalg.norm(want) <= tau

    def test_unitarity(self, rng):
        tau = 1e-9
        for _ in range(10):
            d = int(rng.integers(4, 25))
            dense = random_anti_hermitian(rng, d, scale=1.0)
            a = csr_from(dense)
            psi = random_state(rng, d)
            out, _ = expm.expm_multiply(a, psi, tau)
            assert abs(np.linalg.norm(out) - 1.0) <= 2 * tau

    def test_inverse_property(self, rng):
        tau = 1e-10
        for _ in range(10):
            d = int(rng.integers(4, 25))
            dense = random_anti_hermitian(rng, d, scale=1.2)
            a = csr_from(dense)
            neg = a.scaled(-1.0)
            psi = random_state(rng, d)
            plan = expm.make_plan(a.one_norm(), a.max_row_nnz(), tau)
            there = expm.apply(a, psi, plan)
            back = expm.apply(neg, there, plan)
            assert np.linalg.norm(back - psi) <= 4 * tau

    def test_matvec_count_monotone_in_norm(self):
        sigma, tau = 6, 1e-8
        prev = 0
        for norm in np.linspace(0.5, 25.0, 50):
            plan = expm.make_plan(float(norm), sigma, tau)
            assert plan.matvecs >= prev
            prev = plan.matvecs


class TestExpmMultiply:
    def test_zero_generator(self, rng):
        a = sparse.build_csr([], 5, 5)
        psi = random_state(rng, 5)
        out, mu = expm.expm_multiply(a, psi, 1e-8)
        assert mu == 1
        assert np.allclose(out, psi, atol=1e-14)

    def test_rotation_case(self):
        a = sparse.build_csr([(0, 1, -1j * np.pi / 2), (1, 0, -1j * np.pi / 2)], 2, 2)
        out, mu = expm.expm_multiply(a, np.array([1.0, 0.0], complex), 1e-10)
        assert np.linalg.norm(out - np.array([0.0, -1j])) <= 1e-10
        assert mu >= 1

    def test_mu_equals_plan_product(self, rng):
        dense = random_anti_hermitian(rng, 8, scale=2.0)
        a = csr_from(dense)
        plan = expm.make_plan(a.one_norm(), a.max_row_nnz(), 1e-8)
        _, mu = expm.expm_multiply(a, random_state(rng, 8), 1e-8)
        assert mu == plan.order * plan.scaling
