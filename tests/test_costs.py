"""Cost contributions, hard-coded gradients, and the constant-memory contract."""

import numpy as np
import pytest

from leangrape import costs, expm, models, sparse
from leangrape.costs import CostKind, CostTerm
from leangrape.derivatives import Backend

from conftest import CountingOperator, random_hermitian, random_state

SX = np.array([[0, 1], [1, 0]], complex)

BACKENDS = [Backend.SCALING_SQUARING, Backend.DIAGONALIZATION]


def make_problem(rng, d, k, backend=Backend.SCALING_SQUARING, tau=1e-12, psi0=None):
    hs = sparse.from_dense(random_hermitian(rng, d))
    hcs = tuple(sparse.from_dense(random_hermitian(rng, d)) for _ in range(k))
    return costs.ControlProblem(hs, hcs, backend, tau, initial_state=psi0)


def fd_gradient(eval_cost, field, eps=1e-6):
    amps = field.amplitudes
    grad = np.zeros_like(amps)
    for n in range(amps.shape[0]):
        for k in range(amps.shape[1]):
            up = amps.copy()
            up[n, k] += eps
            dn = amps.copy()
            dn[n, k] -= eps
            grad[n, k] = (
                eval_cost(field.replace_amplitudes(up))
                - eval_cost(field.replace_amplitudes(dn))
            ) / (2 * eps)
    return grad


def assert_fd_match(result, eval_cost, field, rtol=1e-6):
    fd = fd_gradient(eval_cost, field)
    denom = max(np.linalg.norm(fd), 1e-300)
    assert np.linalg.norm(result.grad - fd) / denom <= rtol


class TestForwardPropagate:
    def test_single_zero_step(self, rng):
        d = 4
        hs = sparse.build_csr([], d, d)
        problem = costs.ControlProblem(hs, (sparse.identity_csr(d),))
        field = costs.ControlField.constant(0.0, 1, 1, 0.5)
        psi0 = random_state(rng, d)
        out = costs.forward_propagate(problem, field, psi0)
        assert np.allclose(out, psi0, atol=1e-12)

    def test_rabi_pi_pulse(self):
        # one sigma_x step with a * dt = pi / 2 transfers |0> to |1|
        problem = costs.ControlProblem(
            sparse.build_csr([], 2, 2), (sparse.from_dense(SX),), tau=1e-12
        )
        field = costs.ControlField.constant(np.pi / 2, 1, 1, 1.0)
        out = costs.forward_propagate(problem, field, np.array([1.0, 0.0], complex))
        assert abs(abs(out[1]) - 1.0) <= 1e-10

    def test_norm_preserved(self, rng):
        d, n, tau = 8, 12, 1e-10
        problem = make_problem(rng, d, 2, tau=tau)
        field = costs.ControlField(n, 2, 0.2, rng.normal(scale=0.4, size=(n, 2)))
        out = costs.forward_propagate(problem, field, random_state(rng, d))
        assert abs(np.linalg.norm(out) - 1.0) <= n * 2 * tau


class TestC1State:
    def test_already_at_target(self, rng):
        d = 4
        psi0 = random_state(rng, d)
        problem = costs.ControlProblem(
            sparse.build_csr([], d, d), (sparse.build_csr([], d, d),)
        )
        field = costs.ControlField.constant(0.0, 3, 1, 0.4)
        res = costs.c1_state_grad(problem, field, psi0, psi0)
        assert res.cost <= 1e-12
        assert np.abs(res.grad).max() <= 1e-12

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_single_step_closed_form(self, backend):
        # H = a sigma_x, psi0 = |0>, target = |1>:
        # cost = cos^2(a dt), dC/da = -dt sin(2 a dt)
        a, dt = np.pi / 8, 1.0
        problem = costs.ControlProblem(
            sparse.build_csr([], 2, 2), (sparse.from_dense(SX),), backend, 1e-12
        )
        field = costs.ControlField.constant(a, 1, 1, dt)
        res = costs.c1_state_grad(
            problem, field, np.array([1, 0], complex), np.array([0, 1], complex)
        )
        assert res.cost == pytest.approx(np.cos(a * dt) ** 2, abs=1e-10)
        assert res.grad[0, 0] == pytest.approx(-dt * np.sin(2 * a * dt), abs=1e-9)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_finite_difference(self, rng, backend):
        d, n, k = 8, 5, 2
        psi0, phi = random_state(rng, d), random_state(rng, d)
        problem = make_problem(rng, d, k, backend)
        field = costs.ControlField(n, k, 0.3, rng.normal(scale=0.5, size=(n, k)))
        res = costs.c1_state_grad(problem, field, psi0, phi)
        assert_fd_match(
            res, lambda f: costs.c1_state_grad(problem, f, psi0, phi).cost, field
        )


    def test_backends_agree_on_degenerate_spectrum(self, rng):
        # qubit_chain(3) at zero drive has repeated eigenvalues that its controls couple
        h, ctrls = models.build_qubit_chain(models.QubitChainParams(n_qubits=3))
        d = h.n_rows
        psi0, phi = random_state(rng, d), random_state(rng, d)
        field = costs.ControlField.constant(0.0, 5, len(ctrls), 0.1)
        grads = [
            costs.c1_state_grad(
                costs.ControlProblem(h, tuple(ctrls), backend, 1e-12), field, psi0, phi
            ).grad
            for backend in BACKENDS
        ]
        assert np.linalg.norm(grads[1] - grads[0]) <= 1e-8 * np.linalg.norm(grads[0])


class TestC2State:
    def test_identity_penalty_is_constant(self, rng):
        d, n, k = 5, 4, 1
        problem = make_problem(rng, d, k)
        field = costs.ControlField(n, k, 0.2, rng.normal(size=(n, k)))
        res = costs.c2_state_grad(problem, field, random_state(rng, d), sparse.identity_csr(d))
        assert res.cost == pytest.approx(1.0, abs=1e-9)
        assert np.abs(res.grad).max() <= 1e-8  # norm conservation

    def test_zero_penalty(self, rng):
        d, n, k = 4, 3, 1
        problem = make_problem(rng, d, k)
        field = costs.ControlField(n, k, 0.2, rng.normal(size=(n, k)))
        res = costs.c2_state_grad(
            problem, field, random_state(rng, d), sparse.build_csr([], d, d)
        )
        assert res.cost == 0.0
        assert np.abs(res.grad).max() == 0.0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_finite_difference(self, rng, backend):
        d, n, k = 8, 4, 2
        psi0 = random_state(rng, d)
        omega = sparse.from_dense(random_hermitian(rng, d))
        problem = make_problem(rng, d, k, backend)
        field = costs.ControlField(n, k, 0.25, rng.normal(scale=0.5, size=(n, k)))
        res = costs.c2_state_grad(problem, field, psi0, omega)
        assert_fd_match(
            res, lambda f: costs.c2_state_grad(problem, f, psi0, omega).cost, field
        )

    def test_non_hermitian_penalty_rejected(self, rng):
        d = 3
        problem = make_problem(rng, d, 1)
        field = costs.ControlField.constant(0.1, 2, 1, 0.2)
        bad = sparse.build_csr([(0, 1, 1.0)], d, d)
        with pytest.raises(ValueError, match="Hermitian"):
            costs.c2_state_grad(problem, field, random_state(rng, d), bad)


class TestC3State:
    def test_stationary_at_target(self, rng):
        d = 4
        psi0 = random_state(rng, d)
        problem = costs.ControlProblem(
            sparse.build_csr([], d, d), (sparse.build_csr([], d, d),)
        )
        field = costs.ControlField.constant(0.0, 4, 1, 0.3)
        res = costs.c3_state_grad(problem, field, psi0, psi0)
        assert res.cost <= 1e-12

    def test_single_step_reduces_to_final_state_cost(self, rng):
        d, k = 6, 2
        psi0, phi = random_state(rng, d), random_state(rng, d)
        problem = make_problem(rng, d, k)
        field = costs.ControlField(1, k, 0.4, rng.normal(size=(1, k)))
        r1 = costs.c1_state_grad(problem, field, psi0, phi)
        r3 = costs.c3_state_grad(problem, field, psi0, phi)
        assert r3.cost == pytest.approx(r1.cost, abs=1e-12)
        assert np.abs(r3.grad - r1.grad).max() <= 1e-12

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_finite_difference(self, rng, backend):
        d, n, k = 8, 4, 2
        psi0, phi = random_state(rng, d), random_state(rng, d)
        problem = make_problem(rng, d, k, backend)
        field = costs.ControlField(n, k, 0.3, rng.normal(scale=0.5, size=(n, k)))
        res = costs.c3_state_grad(problem, field, psi0, phi)
        assert_fd_match(
            res, lambda f: costs.c3_state_grad(problem, f, psi0, phi).cost, field
        )


class TestC1Gate:
    def test_identity_dynamics_identity_target(self, rng):
        d = 3
        problem = costs.ControlProblem(
            sparse.build_csr([], d, d), (sparse.build_csr([], d, d),)
        )
        field = costs.ControlField.constant(0.0, 2, 1, 0.3)
        res = costs.c1_gate_grad(problem, field, np.eye(d, dtype=complex))
        assert res.cost <= 1e-12

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_single_qubit_closed_form(self, backend):
        # H = a sigma_x, target sigma_x: cost = 1 - sin^2(a dt) = cos^2(a dt)
        a, dt = np.pi / 8, 1.0
        problem = costs.ControlProblem(
            sparse.build_csr([], 2, 2), (sparse.from_dense(SX),), backend, 1e-12
        )
        field = costs.ControlField.constant(a, 1, 1, dt)
        res = costs.c1_gate_grad(problem, field, SX.copy())
        assert res.cost == pytest.approx(1.0 - np.sin(a * dt) ** 2, abs=1e-10)
        assert res.grad[0, 0] == pytest.approx(-dt * np.sin(2 * a * dt), abs=1e-9)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_finite_difference(self, rng, backend):
        d, n, k = 6, 3, 2
        problem = make_problem(rng, d, k, backend)
        u_target, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        field = costs.ControlField(n, k, 0.3, rng.normal(scale=0.5, size=(n, k)))
        res = costs.c1_gate_grad(problem, field, u_target)
        assert_fd_match(
            res, lambda f: costs.c1_gate_grad(problem, f, u_target).cost, field
        )

    def test_non_orthonormal_basis_rejected(self, rng):
        d = 3
        problem = make_problem(rng, d, 1)
        field = costs.ControlField.constant(0.1, 1, 1, 0.2)
        basis = [random_state(rng, d) for _ in range(d)]
        with pytest.raises(ValueError, match="orthonormal"):
            costs.c1_gate_grad(problem, field, np.eye(d, dtype=complex), basis)


class TestC3Gate:
    def test_identity_everything(self, rng):
        d = 3
        problem = costs.ControlProblem(
            sparse.build_csr([], d, d), (sparse.build_csr([], d, d),)
        )
        field = costs.ControlField.constant(0.0, 3, 1, 0.3)
        res = costs.c3_gate_grad(problem, field, np.eye(d, dtype=complex))
        assert res.cost <= 1e-12

    def test_single_step_reduces_to_gate_infidelity(self, rng):
        d, k = 4, 2
        problem = make_problem(rng, d, k)
        u_target, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        field = costs.ControlField(1, k, 0.35, rng.normal(size=(1, k)))
        r1 = costs.c1_gate_grad(problem, field, u_target)
        r3 = costs.c3_gate_grad(problem, field, u_target)
        assert r3.cost == pytest.approx(r1.cost, abs=1e-12)
        assert np.abs(r3.grad - r1.grad).max() <= 1e-12

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_finite_difference(self, rng, backend):
        d, n, k = 4, 3, 2
        problem = make_problem(rng, d, k, backend)
        u_target, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        field = costs.ControlField(n, k, 0.3, rng.normal(scale=0.5, size=(n, k)))
        res = costs.c3_gate_grad(problem, field, u_target)
        assert_fd_match(
            res, lambda f: costs.c3_gate_grad(problem, f, u_target).cost, field
        )


class TestComposite:
    def test_single_term_matches_direct(self, rng):
        d, n, k = 5, 3, 2
        psi0, phi = random_state(rng, d), random_state(rng, d)
        problem = make_problem(rng, d, k, psi0=psi0)
        field = costs.ControlField(n, k, 0.3, rng.normal(size=(n, k)))
        direct = costs.c1_state_grad(problem, field, psi0, phi)
        combo = costs.composite_grad(
            problem, field, [CostTerm(CostKind.STATE_INFIDELITY, 1.0, target_state=phi)]
        )
        assert combo.cost == pytest.approx(direct.cost, abs=1e-14)
        assert np.abs(combo.grad - direct.grad).max() <= 1e-14

    def test_zero_weight_selects_other_term(self, rng):
        d, n, k = 5, 3, 1
        psi0, phi = random_state(rng, d), random_state(rng, d)
        omega = sparse.from_dense(random_hermitian(rng, d))
        problem = make_problem(rng, d, k, psi0=psi0)
        field = costs.ControlField(n, k, 0.3, rng.normal(size=(n, k)))
        combo = costs.composite_grad(
            problem,
            field,
            [
                CostTerm(CostKind.STATE_INFIDELITY, 0.0, target_state=phi),
                CostTerm(CostKind.STATE_PENALTY, 1.0, penalty_op=omega),
            ],
        )
        direct = costs.c2_state_grad(problem, field, psi0, omega)
        assert combo.cost == pytest.approx(direct.cost, abs=1e-13)
        assert np.abs(combo.grad - direct.grad).max() <= 1e-13

    def test_fused_equals_unfused_sum(self, rng):
        d, n, k = 6, 4, 2
        psi0, phi = random_state(rng, d), random_state(rng, d)
        omega = sparse.from_dense(random_hermitian(rng, d))
        problem = make_problem(rng, d, k, psi0=psi0)
        field = costs.ControlField(n, k, 0.25, rng.normal(size=(n, k)))
        w1, w2 = 0.7, 0.4
        fused = costs.composite_grad(
            problem,
            field,
            [
                CostTerm(CostKind.STATE_INFIDELITY, w1, target_state=phi),
                CostTerm(CostKind.STATE_PENALTY, w2, penalty_op=omega),
            ],
        )
        r1 = costs.c1_state_grad(problem, field, psi0, phi)
        r2 = costs.c2_state_grad(problem, field, psi0, omega)
        assert fused.cost == pytest.approx(w1 * r1.cost + w2 * r2.cost, abs=1e-12)
        assert np.abs(fused.grad - (w1 * r1.grad + w2 * r2.grad)).max() <= 1e-12

    @pytest.mark.parametrize(
        "kinds",
        [(kind,) for kind in CostKind] + [tuple(CostKind)],
        ids=[kind.value for kind in CostKind] + ["mixed"],
    )
    def test_composite_cost_matches_grad_cost(self, rng, kinds):
        # the line search and the gradient must see the very same number
        d, n, k = 5, 5, 2
        psi0, phi = random_state(rng, d), random_state(rng, d)
        omega = sparse.from_dense(random_hermitian(rng, d))
        u_target, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        problem = make_problem(rng, d, k, psi0=psi0)
        field = costs.ControlField(n, k, 0.3, rng.normal(size=(n, k)))
        terms = [
            CostTerm(kind, 0.3 + 0.2 * i, target_state=phi, target_gate=u_target, penalty_op=omega)
            for i, kind in enumerate(kinds)
        ]
        cost = costs.composite_cost(problem, field, terms)
        assert cost == costs.composite_grad(problem, field, terms).cost

    def test_requires_terms(self, rng):
        problem = make_problem(rng, 3, 1)
        field = costs.ControlField.constant(0.1, 2, 1, 0.2)
        with pytest.raises(ValueError):
            costs.composite_grad(problem, field, [])


class TestCostTermValidation:
    def test_missing_payload(self):
        with pytest.raises(ValueError, match="target_state"):
            CostTerm(CostKind.STATE_INFIDELITY, 1.0)

    def test_non_unitary_gate(self, rng):
        with pytest.raises(ValueError, match="unitary"):
            CostTerm(
                CostKind.GATE_INFIDELITY,
                1.0,
                target_gate=rng.normal(size=(3, 3)).astype(complex),
            )

    def test_negative_weight(self, rng):
        with pytest.raises(ValueError, match="weight"):
            CostTerm(CostKind.STATE_INFIDELITY, -0.5, target_state=random_state(rng, 3))


class TestStateValidation:
    """States that make a certified cost meaningless are refused by name."""

    @staticmethod
    def rabi_problem(initial_state=None):
        return costs.ControlProblem(
            sparse.build_csr([], 2, 2), (sparse.from_dense(SX),), initial_state=initial_state
        )

    def test_unnormalized_target_refused(self):
        problem = self.rabi_problem()
        field = costs.ControlField.constant(0.3, 2, 1, 0.5)
        psi0 = np.array([1.0, 0.0], complex)
        for grad in (costs.c1_state_grad, costs.c3_state_grad):
            with pytest.raises(ValueError, match="phi_target"):
                grad(problem, field, psi0, np.array([0.0, 3.0]))
        with pytest.raises(ValueError, match="target_state"):
            CostTerm(CostKind.STATE_INFIDELITY, target_state=np.array([0.0, 3.0]))

    def test_non_finite_psi0_refused(self):
        problem = self.rabi_problem()
        field = costs.ControlField.constant(0.3, 2, 1, 0.5)
        phi = np.array([0.0, 1.0], complex)
        with pytest.raises(ValueError, match="psi0"):
            costs.c1_state_grad(problem, field, np.array([np.nan, 1.0]), phi)
        with pytest.raises(ValueError, match="psi0"):
            costs.forward_propagate(problem, field, np.array([np.inf, 0.0]))

    def test_unnormalized_initial_state_refused(self):
        problem = self.rabi_problem(initial_state=np.array([1.0, 1.0], complex))
        field = costs.ControlField.constant(0.3, 2, 1, 0.5)
        terms = [CostTerm(CostKind.STATE_INFIDELITY, target_state=np.array([0.0, 1.0]))]
        for evaluate in (costs.composite_cost, costs.composite_grad):
            with pytest.raises(ValueError, match="initial_state"):
                evaluate(problem, field, terms)


class TestInvariantsAndInstrumentation:
    def test_cost_ranges(self, rng):
        tau = 1e-10
        for _ in range(10):
            d = int(rng.integers(3, 9))
            n, k = int(rng.integers(1, 5)), int(rng.integers(1, 3))
            psi0, phi = random_state(rng, d), random_state(rng, d)
            problem = make_problem(rng, d, k, tau=tau)
            u_target, _ = np.linalg.qr(
                rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            )
            field = costs.ControlField(n, k, 0.3, rng.normal(scale=0.3, size=(n, k)))
            slack = 10 * tau
            for res in (
                costs.c1_state_grad(problem, field, psi0, phi),
                costs.c3_state_grad(problem, field, psi0, phi),
                costs.c1_gate_grad(problem, field, u_target),
                costs.c3_gate_grad(problem, field, u_target),
            ):
                assert -slack <= res.cost <= 1.0 + slack

    def test_gate_cost_gauge_invariant(self, rng):
        d, n, k = 4, 2, 1
        problem = make_problem(rng, d, k)
        u_target, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        field = costs.ControlField(n, k, 0.3, rng.normal(size=(n, k)))
        base = costs.c1_gate_grad(problem, field, u_target)
        shifted = costs.c1_gate_grad(problem, field, np.exp(0.7j) * u_target)
        assert shifted.cost == pytest.approx(base.cost, abs=1e-10)
        assert np.abs(shifted.grad - base.grad).max() <= 1e-10

    def test_live_peak_independent_of_steps(self, rng):
        d, k = 6, 1
        psi0, phi = random_state(rng, d), random_state(rng, d)
        problem = make_problem(rng, d, k)
        peaks = []
        for n in (5, 50):
            field = costs.ControlField(n, k, 0.05, rng.normal(scale=0.2, size=(n, k)))
            peaks.append(costs.c1_state_grad(problem, field, psi0, phi).live_vector_peak)
        assert peaks[0] == peaks[1]
        assert peaks[0] <= 6

    def test_gradients_deterministic(self, rng):
        d, n, k = 5, 3, 2
        psi0, phi = random_state(rng, d), random_state(rng, d)
        problem = make_problem(rng, d, k)
        field = costs.ControlField(n, k, 0.3, rng.normal(size=(n, k)))
        r1 = costs.c1_state_grad(problem, field, psi0, phi)
        r2 = costs.c1_state_grad(problem, field, psi0, phi)
        assert r1.cost == r2.cost
        assert np.array_equal(r1.grad, r2.grad)


class TestStepAssembly:
    """The fixed-pattern step Hamiltonian against a fresh ``linear_combine``."""

    @staticmethod
    def assert_same_step(problem, field, n):
        got = problem.step_evaluator(field, n).ctx.h_step
        want = sparse.linear_combine(
            [1.0, *field.amplitudes[n]], [problem.h_static, *problem.h_controls]
        )
        assert isinstance(got, sparse.CsrMatrix)
        assert np.array_equal(got.row_offsets, want.row_offsets)
        assert np.array_equal(got.col_indices, want.col_indices)
        assert got.max_row_nnz() == want.max_row_nnz()
        scale = max(np.abs(want.values).max(initial=0.0), 1e-300)
        assert np.abs(got.values - want.values).max(initial=0.0) <= 1e-15 * scale
        gen, ref = got.scaled(-1j * field.dt), want.scaled(-1j * field.dt)
        plan = expm.make_plan(gen.one_norm(), gen.max_row_nnz(), problem.tau)
        assert plan == expm.make_plan(ref.one_norm(), ref.max_row_nnz(), problem.tau)
        return got

    def test_random_amplitudes(self, rng):
        problem = make_problem(rng, 12, 3, tau=1e-10)
        field = costs.ControlField(4, 3, 0.2, rng.normal(size=(4, 3)))
        for n in range(4):
            self.assert_same_step(problem, field, n)

    def test_zero_amplitudes_and_cancellation(self):
        hs = sparse.from_dense(np.diag([1.0, 2.0, 0.0]).astype(complex))
        h1 = sparse.from_dense(np.array([[1, 1, 0], [1, 0, 0], [0, 0, 0]], complex))
        h2 = sparse.from_dense(np.array([[0, 0, 1j], [0, 0, 0], [-1j, 0, 3]], complex))
        problem = costs.ControlProblem(hs, (h1, h2), tau=1e-10)
        amps = np.array(
            [
                [-1.0, 0.5],  # (0, 0) cancels: 1 - 1
                [0.3, 0.0],  # the second channel is exactly off
                [0.0, 0.0],  # both channels off
                [2.5, -1.5],  # nothing vanishes
            ]
        )
        field = costs.ControlField(4, 2, 0.1, amps)
        nnz = [self.assert_same_step(problem, field, n).nnz for n in range(4)]
        assert nnz == [6, 4, 2, 7]


class TestCountedMatvecs:
    def test_one_gradient_runs_the_planned_products(self, rng, monkeypatch):
        real_apply = expm.apply
        planned, counted = [], []

        def counting_apply(a, psi, plan, **kwargs):
            op = CountingOperator(a)
            out = real_apply(op, psi, plan, **kwargs)
            planned.append(plan.matvecs)
            counted.append(op.calls)
            return out

        monkeypatch.setattr(expm, "apply", counting_apply)
        d, n, k = 6, 3, 2
        problem = make_problem(rng, d, k, tau=1e-10)
        field = costs.ControlField(n, k, 0.3, rng.normal(size=(n, k)))
        costs.c1_state_grad(problem, field, random_state(rng, d), random_state(rng, d))
        # n forward, 2n - 1 adjoint and n * k derivative applications
        assert len(planned) == n + (2 * n - 1) + n * k
        assert counted == planned
        assert sum(counted) > len(counted)
