"""Propagation and control-derivative backends."""

import numpy as np
import pytest
from scipy.linalg import expm as scipy_expm

from leangrape import expm, sparse
from leangrape.derivatives import (
    Backend,
    BlockDerivativeOperator,
    ScaledGenerator,
    aux_plan,
    derivative_action_diag,
    diag_prepare,
)

from conftest import make_step, random_hermitian, random_state


def fd_derivative(h_dense, hc_dense, a, dt, psi, eps=1e-6):
    up = scipy_expm(-1j * (h_dense + (a + eps) * hc_dense) * dt) @ psi
    dn = scipy_expm(-1j * (h_dense + (a - eps) * hc_dense) * dt) @ psi
    return (up - dn) / (2 * eps)


class TestPropagate:
    def test_zero_hamiltonian(self, rng):
        psi = random_state(rng, 5)
        step = make_step(np.zeros((5, 5)), [np.eye(5)], 0.3)
        assert np.allclose(step.forward(psi), psi, atol=1e-12)

    def test_rabi_half_period(self):
        # H = omega * sigma_x with omega * dt = pi / 2 sends |0> to -i|1>
        sx = np.array([[0, 1], [1, 0]], complex)
        step = make_step(np.pi / 2 * sx, [sx], 1.0)
        out = step.forward(np.array([1.0, 0.0], complex))
        assert np.linalg.norm(out - np.array([0.0, -1j])) <= 1e-10

    def test_backends_agree(self, rng):
        d = 24
        h = random_hermitian(rng, d)
        psi = random_state(rng, d)
        tau = 1e-10
        out_ss = make_step(h, [], 0.4, Backend.SCALING_SQUARING, tau).forward(psi)
        out_dg = make_step(h, [], 0.4, Backend.DIAGONALIZATION, tau).forward(psi)
        assert np.linalg.norm(out_ss - out_dg) <= 2 * tau

    def test_non_hermitian_step_rejected(self, rng):
        bad = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        with pytest.raises(ValueError, match="Hermitian"):
            make_step(bad, [], 0.1)


class TestAdjoint:
    def test_round_trip(self, rng):
        d = 10
        h = random_hermitian(rng, d)
        step = make_step(h, [], 0.7)
        psi = random_state(rng, d)
        back = step.adjoint(step.forward(psi))
        assert np.linalg.norm(back - psi) <= 4e-10

    def test_zero_hamiltonian(self, rng):
        psi = random_state(rng, 4)
        step = make_step(np.zeros((4, 4)), [], 0.2)
        assert np.allclose(step.adjoint(psi), psi, atol=1e-12)

    def test_matches_diagonalization_on_random(self, rng):
        d = 16
        h = random_hermitian(rng, d)
        psi = random_state(rng, d)
        step = make_step(h, [], 0.5)
        fact = diag_prepare(step.ctx)
        want = fact.eigvecs @ (np.conj(fact.exp_eigvals) * (fact.eigvecs.conj().T @ psi))
        got = step.adjoint(psi)
        assert np.linalg.norm(got - want) <= 1e-10


class TestAuxDerivative:
    def test_zero_control_gives_zero_derivative(self, rng):
        d = 6
        h = random_hermitian(rng, d)
        psi = random_state(rng, d)
        step = make_step(h, [np.zeros((d, d))], 0.3)
        du = step.control_derivative(0, psi)
        assert np.linalg.norm(du) <= 1e-12
        # the embedding's bottom block carries U psi
        aux = BlockDerivativeOperator(
            ScaledGenerator(step.ctx.h_step.scaled(-1j * 0.3)),
            ScaledGenerator(sparse.build_csr([], d, d)),
        )
        stacked = np.concatenate([np.zeros(d, complex), psi])
        u_psi = expm.apply(aux, stacked, aux_plan(aux, step.ctx.tau), validate=False)[d:]
        assert np.linalg.norm(u_psi - step.forward(psi)) <= 2e-10

    def test_commuting_closed_form(self, rng):
        # H = a sigma_x driven by sigma_x: dU/da = -i dt sigma_x U exactly
        sx = np.array([[0, 1], [1, 0]], complex)
        a, dt = 0.8, 0.9
        psi = random_state(rng, 2)
        step = make_step(a * sx, [sx], dt)
        du = step.control_derivative(0, psi)
        want = -1j * dt * sx @ step.forward(psi)
        assert np.linalg.norm(du - want) <= 1e-10

    def test_against_finite_differences(self, rng):
        d = 12
        h0 = random_hermitian(rng, d)
        hc = random_hermitian(rng, d)
        a, dt = 0.41, 0.27
        psi = random_state(rng, d)
        du = make_step(h0 + a * hc, [hc], dt).control_derivative(0, psi)
        fd = fd_derivative(h0, hc, a, dt, psi)
        assert np.linalg.norm(du - fd) / np.linalg.norm(fd) <= 1e-7

    def test_bad_channel(self, rng):
        step = make_step(random_hermitian(rng, 3), [], 0.1)  # one zero control
        with pytest.raises(IndexError):
            step.control_derivative(1, random_state(rng, 3))

    def test_block_operator_matches_materialized_embedding(self, rng):
        d, dt = 9, 0.37
        h = sparse.from_dense(random_hermitian(rng, d))
        hc = sparse.from_dense(random_hermitian(rng, d))
        op = BlockDerivativeOperator(
            ScaledGenerator(h.scaled(-1j * dt)), ScaledGenerator(hc.scaled(-1j * dt))
        )
        aux = sparse.aux_embed(h, hc, dt)
        v = rng.normal(size=2 * d) + 1j * rng.normal(size=2 * d)
        assert np.linalg.norm(op.matvec(v) - aux.matvec(v)) <= 1e-13 * np.linalg.norm(v)
        assert op.one_norm() == pytest.approx(aux.one_norm(), rel=1e-13)
        assert op.inf_norm() == pytest.approx(aux.inf_norm(), rel=1e-13)
        # each top-block row is one running sum over both blocks' elements
        assert op.max_row_nnz() == aux.max_row_nnz()

    def test_dense_block_operator_matches_materialized_embedding(self, rng):
        d, dt = 7, 0.29
        h = sparse.DenseMatrix(random_hermitian(rng, d))
        hc = sparse.DenseMatrix(random_hermitian(rng, d))
        op = BlockDerivativeOperator(
            ScaledGenerator(h.scaled(-1j * dt)), ScaledGenerator(hc.scaled(-1j * dt))
        )
        aux = sparse.aux_embed(h, hc, dt)
        v = rng.normal(size=2 * d) + 1j * rng.normal(size=2 * d)
        out = np.full(2 * d, np.nan + 0j)
        assert op.matvec(v, out=out) is out
        assert np.linalg.norm(out - aux.matvec(v)) <= 1e-13 * np.linalg.norm(v)
        assert op.one_norm() == pytest.approx(aux.one_norm(), rel=1e-13)
        assert op.inf_norm() == pytest.approx(aux.inf_norm(), rel=1e-13)
        assert op.max_row_nnz() == aux.max_row_nnz() == 2 * d


class TestDiagPrepare:
    def test_zero_hamiltonian(self):
        fact = diag_prepare(make_step(np.zeros((3, 3)), [], 0.5).ctx)
        assert np.allclose(fact.eigvecs, np.eye(3))
        assert np.allclose(fact.eigvals, 0.0)

    def test_sigma_z_eigenvalues(self):
        sz = np.diag([1.0, -1.0]).astype(complex)
        fact = diag_prepare(make_step(sz, [], 0.4).ctx)
        got = sorted(fact.eigvals, key=lambda z: z.imag)
        assert np.allclose(got, [-0.4j, 0.4j])

    def test_reconstruction(self, rng):
        d = 32
        h = random_hermitian(rng, d)
        dt = 0.6
        fact = diag_prepare(make_step(h, [], dt).ctx)
        a_dense = -1j * dt * h
        rebuilt = fact.eigvecs @ np.diag(fact.eigvals) @ fact.eigvecs.conj().T
        norm1 = np.abs(a_dense).sum(axis=0).max()
        assert np.abs(rebuilt - a_dense).max() <= 1e-12 * norm1

    def test_factorization_invariants(self, rng):
        d = 20
        fact = diag_prepare(make_step(random_hermitian(rng, d), [], 0.8).ctx)
        unitary_defect = np.abs(
            fact.eigvecs @ fact.eigvecs.conj().T - np.eye(d)
        ).max()
        assert unitary_defect <= 1e-10
        assert np.abs(fact.eigvals.real).max() <= 1e-10
        # exact in real arithmetic; numpy's complex products may round
        # half_i * half_j and half_j * half_i an ulp apart
        assert np.abs(fact.kernel - fact.kernel.T).max() <= 1e-15
        assert np.abs(np.diag(fact.kernel) - fact.exp_eigvals).max() <= 1e-15


class TestDiagDerivative:
    def test_zero_generator_derivative(self, rng):
        d = 5
        fact = diag_prepare(make_step(random_hermitian(rng, d), [], 0.3).ctx)
        out = derivative_action_diag(fact, np.zeros((d, d), complex), random_state(rng, d))
        assert np.linalg.norm(out) == 0.0

    def test_commuting_closed_form(self, rng):
        sx = np.array([[0, 1], [1, 0]], complex)
        a, dt = 0.8, 0.9
        psi = random_state(rng, 2)
        step = make_step(a * sx, [sx], dt)
        fact = diag_prepare(step.ctx)
        du = derivative_action_diag(fact, -1j * dt * sx, psi)
        u_psi = step.forward(psi)
        assert np.linalg.norm(du - (-1j * dt * sx @ u_psi)) <= 1e-10

    def test_agrees_with_aux_backend(self, rng):
        d = 12
        h0 = random_hermitian(rng, d)
        hc = random_hermitian(rng, d)
        a, dt = -0.23, 0.31
        psi = random_state(rng, d)
        step = make_step(h0 + a * hc, [hc], dt)
        du_aux = step.control_derivative(0, psi)
        du_diag = derivative_action_diag(diag_prepare(step.ctx), -1j * dt * hc.astype(complex), psi)
        assert np.linalg.norm(du_aux - du_diag) / np.linalg.norm(du_diag) <= 1e-8


class TestCrossBackendProperties:
    def test_agreement_panel(self, rng):
        tau = 1e-10
        for _ in range(50):
            d = int(rng.integers(3, 33))
            h0 = random_hermitian(rng, d)
            hc = random_hermitian(rng, d)
            a = float(rng.normal(scale=0.5))
            dt = float(rng.uniform(0.05, 0.6))
            psi = random_state(rng, d)
            step = make_step(h0 + a * hc, [hc], dt, tau=tau)
            du_aux = step.control_derivative(0, psi)
            du_diag = derivative_action_diag(
                diag_prepare(step.ctx), -1j * dt * hc.astype(complex), psi
            )
            denom = max(np.linalg.norm(du_diag), 1e-300)
            assert np.linalg.norm(du_aux - du_diag) / denom <= max(10 * tau, 1e-8)

    def test_second_order_fd_convergence(self, rng):
        d = 8
        h0 = random_hermitian(rng, d, scale=2.0)
        hc = random_hermitian(rng, d, scale=2.0)
        a, dt = 0.9, 0.8
        psi = random_state(rng, d)
        du = make_step(h0 + a * hc, [hc], dt, tau=1e-12).control_derivative(0, psi)
        errs = []
        for eps in (1e-4, 5e-5):
            fd = fd_derivative(h0, hc, a, dt, psi, eps=eps)
            errs.append(np.linalg.norm(du - fd))
        ratio = errs[0] / errs[1]
        assert 2.5 <= ratio <= 6.0  # central differences: halving eps quarters the error

    def test_exact_degeneracy_is_safe(self, rng):
        h0 = np.diag([1.0, 1.0, 2.0]).astype(complex)
        hc = random_hermitian(rng, 3)
        a, dt = 0.0, 0.6  # the step itself is degenerate; hc couples the pair
        psi = random_state(rng, 3)
        fact = diag_prepare(make_step(h0 + a * hc, [hc], dt, tau=1e-12).ctx)
        du = derivative_action_diag(fact, -1j * dt * hc.astype(complex), psi)
        assert np.isfinite(du).all()
        fd = fd_derivative(h0, hc, a, dt, psi)
        assert np.linalg.norm(du - fd) / np.linalg.norm(fd) <= 1e-7
