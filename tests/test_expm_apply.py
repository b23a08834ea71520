"""Certified application of the exponential action."""

import dataclasses

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
        out = expm.apply(counting, random_state(rng, 12), plan)
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    def test_non_finite_psi_refused_before_any_product(self, rng, bad):
        a = csr_from(random_anti_hermitian(rng, 4))
        plan = expm.make_plan(a.one_norm(), a.max_row_nnz(), 1e-8)
        psi = random_state(rng, 4)
        psi[2] = bad
        counting = CountingOperator(a)
        with pytest.raises(ValueError, match="psi has a non-finite entry"):
            expm.apply(counting, psi, plan)
        with pytest.raises(ValueError, match="psi has a non-finite entry"):
            expm.expm_multiply(counting, psi, 1e-10)
        assert counting.calls == 0

    def test_no_opt_out_of_the_checks(self, rng):
        a = csr_from(random_anti_hermitian(rng, 4))
        plan = expm.make_plan(a.one_norm(), a.max_row_nnz(), 1e-8)
        with pytest.raises(TypeError):
            expm.apply(a, random_state(rng, 4), plan, **{"validate": False})


class TestTaylorTerms:
    def test_move_pair_keeps_every_costate_term_of_every_stage(self, rng, monkeypatch):
        d, dt = 9, 0.45
        h_dense = random_hermitian(rng, d, scale=2.0)
        h = csr_from(h_dense)
        lam, psi_n = random_state(rng, d), random_state(rng, d)
        step = expm.make_plan(dt * h.one_norm(), h.max_row_nnz(), 1e-10)
        m, m_d = step.order, step.order + 2
        state = dataclasses.replace(step, scaling=3)
        plan = expm.DerivativePlan(state, dataclasses.replace(state, order=m_d), 0.0, 0.0)
        counted = []
        real_product = sparse.CsrMatrix._product

        def counting_product(matrix, v, out):
            counted.append(matrix)
            return real_product(matrix, v, out)

        monkeypatch.setattr(sparse.CsrMatrix, "_product", counting_product)
        costate, psi = lam.copy(), psi_n.copy()
        terms = np.empty((m_d, d), dtype=complex)
        spare, work = np.empty(d, dtype=complex), np.empty(d, dtype=complex)
        b = 1j * dt / 3 * h_dense
        for stage in range(3):
            start = costate.copy()
            expm.move_pair(h, costate, psi, plan, 1j * dt, terms, spare, work)
            # both rows of the stage, on h alone: m_d co-state products and m for psi
            assert len(counted) == (stage + 1) * (m + m_d)
            assert all(matrix is h for matrix in counted)
            # the terms B^j v / j!, j < m_d, of the vector v the stage starts from
            power = start
            for j in range(m_d):
                assert np.linalg.norm(terms[j] - power) <= 1e-13 * max(np.linalg.norm(power), 1.0)
                power = b @ power / (j + 1)
            # the moved co-state is every term of the stage, u_{m_d} the last
            assert np.linalg.norm(costate - terms.sum(axis=0) - power) <= 1e-13
        monkeypatch.undo()
        # three stages move each vector as one application under its own plan
        back = 1j * dt
        assert np.array_equal(costate, expm.apply(h, lam, plan.costate, scale=back))
        assert np.array_equal(psi, expm.apply(h, psi_n, state, scale=back))

    @pytest.mark.parametrize("storage", ["csr", "dense"])
    def test_move_is_apply_in_place(self, rng, monkeypatch, storage):
        d, dt = 12, 0.7
        h_dense = random_hermitian(rng, d, scale=4.0)
        h = csr_from(h_dense) if storage == "csr" else sparse.DenseMatrix(h_dense)
        psi = random_state(rng, d)
        plan = expm.make_plan(dt * h.one_norm(), h.max_row_nnz(), 1e-10)
        assert plan.scaling > 1
        want = expm.apply(h, psi, plan, scale=-1j * dt)
        counted = []
        real_product = type(h)._product

        def counting_product(matrix, v, out):
            counted.append(matrix)
            return real_product(matrix, v, out)

        monkeypatch.setattr(type(h), "_product", counting_product)
        monkeypatch.setattr(type(h), "matvec", lambda *args: pytest.fail("matvec ran"))
        v = psi.copy()
        term, work = np.empty(d, dtype=complex), np.empty(d, dtype=complex)
        assert expm.move(h, v, plan, -1j * dt, term, work) is None
        assert np.array_equal(v, want)
        assert len(counted) == plan.matvecs and all(matrix is h for matrix in counted)

    def test_stages_run_one_application_bit_for_bit(self, rng):
        d, dt = 12, 0.7
        h = csr_from(random_hermitian(rng, d, scale=4.0))
        psi = random_state(rng, d)
        plan = expm.make_plan(dt * h.one_norm(), h.max_row_nnz(), 1e-10)
        assert plan.scaling > 1
        # one stage: the same order at scaling 1, for the stage generator's norm
        norm1_b = plan.norm1 / plan.scaling
        bound = expm.error_bound(norm1_b, plan.order, 1, plan.sigma_prime)
        stage = dataclasses.replace(plan, scaling=1, norm1=norm1_b, bound=bound)
        v = psi
        for _ in range(plan.scaling):
            v = expm.apply(h, v, stage, scale=-1j * dt / plan.scaling)
        assert np.array_equal(v, expm.apply(h, psi, plan, scale=-1j * dt))


class TestTermScalars:
    @pytest.mark.parametrize(
        "numerator", [-1j * 0.3 / 2, 1j * 0.3, complex(-0.0, 0.5), complex(0.0, 0.5), 1.0, 1 + 0j]
    )
    def test_each_scalar_is_its_python_expression(self, numerator):
        table = expm.term_scalars(numerator, 9)
        assert len(table) == 9
        for j, scalar in enumerate(table, start=1):
            want = np.array(numerator / j)
            assert scalar.shape == () and scalar.dtype == want.dtype
            # bit for bit, the sign of a zero part included
            assert scalar.tobytes() == want.tobytes()
        assert expm.term_scalars(numerator, 9) is table

    def test_tables_tell_signed_zeros_and_types_apart(self):
        assert expm.term_scalars(complex(-0.0, 0.5), 3) is not expm.term_scalars(0.5j, 3)
        assert expm.term_scalars(1.0, 3)[0].dtype == np.float64
        assert expm.term_scalars(1 + 0j, 3)[0].dtype == np.complex128

    def test_scalars_are_read_only(self):
        table = expm.term_scalars(-0.25j, 4)
        for scalar in table:
            with pytest.raises(ValueError):
                scalar[...] = 0.0
            with pytest.raises(ValueError):
                np.multiply(scalar, 2.0, out=scalar)
        assert [complex(x) for x in table] == [-0.25j / j for j in range(1, 5)]


class TestDerivativePlan:
    def test_keeps_the_step_plan_and_raises_the_costate_order(self):
        step = expm.make_plan(2.0, 8, 1e-10)
        plan = expm.derivative_plan(step, 1.5, 4, 100)
        assert plan.state == step
        assert plan.costate.scaling == step.scaling
        assert plan.costate.order >= step.order
        assert plan.bound <= 1e-10 and plan.costate.bound <= 1e-10
        m, m_d, s = step.order, plan.costate.order, step.scaling
        assert plan.matvecs == m * s + (2 * m_d - 1) * s
        # the smallest certified co-state order
        below = expm.derivative_bound(2.0, 1.5, m_d - 1, s, 8, 4, 100, m)
        assert m_d == m or below > 1e-10

    def test_bound_grows_with_the_direction_and_the_dimension(self):
        args = dict(norm1_a=3.0, order=20, s=1, sigma_prime=10, sigma_e=5, state_order=18)
        small = expm.derivative_bound(norm1_e=0.5, dim=10, **args)
        assert expm.derivative_bound(norm1_e=1.0, dim=10, **args) == pytest.approx(2 * small)
        assert expm.derivative_bound(norm1_e=0.5, dim=10**5, **args) > small
        assert expm.derivative_bound(norm1_e=0.0, dim=10, **args) == 0.0

    def test_zero_direction_needs_no_extra_order(self):
        step = expm.make_plan(4.0, 6, 1e-8)
        plan = expm.derivative_plan(step, 0.0, 0, 50)
        assert plan.costate.order == step.order and plan.bound == 0.0

    def test_non_finite_direction_refused(self):
        step = expm.make_plan(1.0, 2, 1e-8)
        with pytest.raises(ValueError, match="norm1_e"):
            expm.derivative_plan(step, np.inf, 2, 10)

    def test_uncertifiable_direction_is_a_planning_error(self):
        step = expm.make_plan(1.0, 2, 1e-12)
        with pytest.raises(expm.PlanningError, match="derivative"):
            expm.derivative_plan(step, 1e6, 2, 10)

    def test_rounding_floor_is_named(self):
        # 1e6 gamma_{2 + 10 + 1 + 5} > tau: the direction alone sinks scaling 1 and above
        step = expm.make_plan(1.0, 2, 1e-12)
        floor = r"derivative plan .* below the direction's rounding floor .*\(every scaling >= 1 "
        with pytest.raises(expm.PlanningError, match=floor):
            expm.derivative_plan(step, 1e6, 2, 10)

    def test_direction_floor_refuses_where_the_scaling_reaches_it(self):
        step = expm.make_plan(1.0, 2, 1e-8)
        # the order-1 rounding term of every overlap bound, at scalings 14 and 15
        assert 1e6 * expm.gamma_n(2 + 10 + 14 + 5) <= 1e-8 < 1e6 * expm.gamma_n(2 + 10 + 15 + 5)
        with pytest.raises(expm.PlanningError, match=r"\(every scaling >= 15 certifies"):
            expm.derivative_plan(step, 1e6, 2, 10)

    @pytest.mark.parametrize("s", [1, 2, 7])
    def test_direction_floor_bounds_every_order(self, s):
        floor = 3.0 * expm.gamma_n(4 + 50 + s + 5)
        for order in range(1, 40):
            assert expm.derivative_bound(2.0, 3.0, order, s, 6, 4, 50, order) >= floor

    def test_scaling_rises_to_its_least_certified_order_and_raises_psi(self):
        step = expm.make_plan(6.0, 5, 1e-10)
        assert (step.order, step.scaling) == (31, 1)
        plan = expm.derivative_plan(step, 3.0, 4, 64)
        assert plan.costate.scaling == plan.state.scaling == 2
        assert plan.state.order == plan.costate.order == 23
        # the least certified order at s = 2 is 21, so psi's order was raised
        least = [m for m in range(1, 61) if expm.error_bound(6.0, m, 2, 5) <= 1e-10]
        assert least[0] == 21
        assert plan.bound <= 1e-10 and plan.state.bound <= 1e-10


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
