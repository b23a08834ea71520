"""Cost contributions, hard-coded gradients, and the constant-memory contract."""

import dataclasses
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm as scipy_expm

from leangrape import costs, derivatives, expm, models, sparse
from leangrape.costs import CostKind, CostTerm
from leangrape.derivatives import CHANNEL_BLOCK, Backend

from conftest import expm_action_oracle, random_hermitian, random_state

SX = np.array([[0, 1], [1, 0]], complex)

BACKENDS = [Backend.SCALING_SQUARING, Backend.DIAGONALIZATION]


def make_problem(rng, d, k, backend=Backend.SCALING_SQUARING, tau=1e-12, psi0=None):
    hs = sparse.from_dense(random_hermitian(rng, d))
    hcs = tuple(sparse.from_dense(random_hermitian(rng, d)) for _ in range(k))
    return costs.ControlProblem(hs, hcs, backend, tau, initial_state=psi0)


def state_terms(rng, d):
    """One term of each state kind: infidelity, running infidelity and penalty."""
    phi = random_state(rng, d)
    omega = sparse.from_dense(random_hermitian(rng, d))
    return [
        CostTerm(CostKind.STATE_INFIDELITY, 0.7, target_state=phi),
        CostTerm(CostKind.STATE_RUNNING_INFIDELITY, 0.4, target_state=phi),
        CostTerm(CostKind.STATE_PENALTY, 0.3, penalty_op=omega),
    ]


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

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_cost_is_the_trace_infidelity_of_the_propagator(self, rng, backend):
        d, n, k = 5, 3, 2
        problem = make_problem(rng, d, k, backend)
        u_target, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        field = costs.ControlField(n, k, 0.3, rng.normal(scale=0.5, size=(n, k)))
        h_static = problem.h_static.to_dense()
        u = np.eye(d, dtype=complex)
        for amps in field.amplitudes:
            h = h_static + sum(a * hc.to_dense() for a, hc in zip(amps, problem.h_controls))
            u = scipy_expm(-1j * field.dt * h) @ u
        want = 1.0 - abs(np.trace(u_target.conj().T @ u)) ** 2 / d**2
        assert costs.c1_gate_grad(problem, field, u_target).cost == pytest.approx(want, abs=1e-10)

    def test_problem_takes_no_gate_basis(self, rng):
        # a trace is the same in every orthonormal basis: gate sweeps use the computational one
        d = 3
        problem = make_problem(rng, d, 1)
        with pytest.raises(TypeError, match="basis"):
            dataclasses.replace(problem, basis=list(np.eye(d)))


class TestGateTargets:
    """The gate gradients check their target as :class:`CostTerm` does, and read a real one as it is."""

    @staticmethod
    def chain_point():
        h_static, h_controls = models.build_qubit_chain(models.QubitChainParams(n_qubits=2))
        problem = costs.ControlProblem(h_static, tuple(h_controls))
        k = len(h_controls)
        return problem, costs.ControlField.constant(0.3, 3, k, 0.1)

    @pytest.mark.parametrize("gradient", [costs.c1_gate_grad, costs.c3_gate_grad])
    def test_non_finite_target_refused(self, gradient):
        problem, field = self.chain_point()
        target = np.eye(problem.dim, dtype=complex)
        target[1, 2] = np.nan
        with pytest.raises(ValueError, match="target gate has non-finite entries"):
            gradient(problem, field, target)

    @pytest.mark.parametrize("gradient", [costs.c1_gate_grad, costs.c3_gate_grad])
    def test_non_unitary_target_refused(self, gradient):
        problem, field = self.chain_point()
        with pytest.raises(ValueError, match=r"target gate is not unitary \(defect 3.00e\+00\)"):
            gradient(problem, field, 2.0 * np.eye(problem.dim))

    @pytest.mark.parametrize("gradient", [costs.c1_gate_grad, costs.c3_gate_grad])
    def test_non_square_target_refused(self, gradient):
        problem, field = self.chain_point()
        with pytest.raises(ValueError, match="target gate must be square"):
            gradient(problem, field, np.eye(problem.dim, 3))

    def test_composite_terms_are_not_checked_again(self, monkeypatch):
        problem, field = self.chain_point()
        term = CostTerm(CostKind.GATE_INFIDELITY, target_gate=np.eye(problem.dim))
        checks = []
        monkeypatch.setattr(costs, "_unitarity_defect", lambda u: checks.append(u) or 0.0)
        costs.composite_grad(problem, field, [term])
        costs.composite_cost(problem, field, [term])
        assert not checks
        costs.c1_gate_grad(problem, field, term.target_gate)
        assert len(checks) == 1

    @staticmethod
    def real_target(rng, d):
        u, _ = np.linalg.qr(rng.normal(size=(d, d)))
        return u

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("gradient", [costs.c1_gate_grad, costs.c3_gate_grad])
    def test_real_target_equals_its_complex_copy(self, rng, backend, gradient):
        d, n, k = 5, 3, 2
        problem = make_problem(rng, d, k, backend)
        u_real = self.real_target(rng, d)
        field = costs.ControlField(n, k, 0.3, rng.normal(scale=0.5, size=(n, k)))
        want = gradient(problem, field, u_real.astype(complex))
        got = gradient(problem, field, u_real)
        assert got.cost == want.cost
        assert np.array_equal(got.grad, want.grad)

    @pytest.mark.parametrize("gradient", [costs.c1_gate_grad, costs.c3_gate_grad])
    def test_real_target_adds_no_square_array(self, rng, gradient):
        d, n, k = 96, 2, 2
        band = np.abs(np.subtract.outer(np.arange(d), np.arange(d))) <= 1
        controls = tuple(sparse.from_dense(random_hermitian(rng, d) * band) for _ in range(k))
        problem = costs.ControlProblem(
            sparse.from_dense(random_hermitian(rng, d) * band), controls, tau=1e-10
        )
        u_real = self.real_target(rng, d)
        u_complex = u_real.astype(complex)
        field = costs.ControlField(n, k, 0.05, rng.normal(scale=0.3, size=(n, k)))
        peaks = []
        for target in (u_complex, u_real):
            gradient(problem, field, target)  # fill the caches first
            peaks.append(
                TestBytesIndependentOfSteps.traced_peak(
                    lambda: gradient(problem, field, target)
                )[0]
            )
        # a float64 copy of the target would add 8 d^2 bytes, a complex one 16 d^2
        assert peaks[1] - peaks[0] <= 16 * d, peaks


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

    @pytest.mark.parametrize(
        "kinds",
        [(0, 2), (0, 1), (1, 2), (0, 1, 2)],
        ids=["infidelity+penalty", "infidelity+running", "running+penalty", "all"],
    )
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_fused_equals_unfused_sum(self, rng, backend, kinds):
        d, n, k = 6, 4, 2
        psi0 = random_state(rng, d)
        problem = make_problem(rng, d, k, backend, psi0=psi0)
        field = costs.ControlField(n, k, 0.25, rng.normal(size=(n, k)))
        every_kind = state_terms(rng, d)
        terms = [every_kind[i] for i in kinds]
        fused = costs.composite_grad(problem, field, terms)
        grad_fns = {
            CostKind.STATE_INFIDELITY: (costs.c1_state_grad, "target_state"),
            CostKind.STATE_RUNNING_INFIDELITY: (costs.c3_state_grad, "target_state"),
            CostKind.STATE_PENALTY: (costs.c2_state_grad, "penalty_op"),
        }
        cost, grad = 0.0, np.zeros((n, k))
        for term in terms:
            grad_fn, payload = grad_fns[term.kind]
            r = grad_fn(problem, field, psi0, getattr(term, payload))
            cost += term.weight * r.cost
            grad += term.weight * r.grad
        assert fused.cost == pytest.approx(cost, abs=1e-12)
        assert np.abs(fused.grad - grad).max() <= 1e-12

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

    def test_nan_weight_refused(self, rng):
        with pytest.raises(ValueError, match="weights must be finite"):
            CostTerm(CostKind.STATE_INFIDELITY, np.nan, target_state=random_state(rng, 3))

    def test_non_finite_target_gate_refused(self):
        gate = np.eye(3, dtype=complex)
        gate[1, 2] = np.nan
        with pytest.raises(ValueError, match="target gate has non-finite entries"):
            CostTerm(CostKind.GATE_INFIDELITY, target_gate=gate)

    def test_non_square_target_gate_refused(self):
        with pytest.raises(ValueError, match=r"target gate must be square, got shape \(2, 3\)"):
            CostTerm(CostKind.GATE_INFIDELITY, target_gate=np.eye(2, 3, dtype=complex))


class TestControlFieldValidation:
    @pytest.mark.parametrize("dt", [np.nan, np.inf])
    def test_non_finite_dt_refused(self, dt):
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            costs.ControlField.constant(0.1, 2, 1, dt)

    def test_source_array_does_not_change_the_field(self):
        source = np.full((2, 1), 0.3)
        field = costs.ControlField(2, 1, 0.5, source)
        source[0, 0] = 7.0
        assert field.amplitudes[0, 0] == 0.3

    def test_amplitudes_are_read_only(self):
        field = costs.ControlField(2, 1, 0.5, np.full((2, 1), 0.3))
        with pytest.raises(ValueError, match="read-only"):
            field.amplitudes[0, 0] = 7.0
        assert field.amplitudes[0, 0] == 0.3


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


class TestStateTermShapes:
    """A term that does not fit the problem is refused by name, before any sweep."""

    @staticmethod
    def refuse_sweeps(monkeypatch):
        def no_step(*args):
            raise AssertionError("a sweep ran before the terms were checked")

        monkeypatch.setattr(costs.ControlProblem, "step_evaluator", no_step)

    @staticmethod
    def count_steps(monkeypatch) -> list:
        """Counts ``ControlProblem.step_evaluator`` calls, which still run."""
        calls = []
        build = costs.ControlProblem.step_evaluator

        def counted(self, a, n):
            calls.append(n)
            return build(self, a, n)

        monkeypatch.setattr(costs.ControlProblem, "step_evaluator", counted)
        return calls

    @pytest.mark.parametrize("evaluate", [costs.composite_cost, costs.composite_grad])
    def test_gate_target_of_wrong_size_refused(self, monkeypatch, evaluate):
        h_static, h_controls = models.build_qubit_chain(models.QubitChainParams(n_qubits=2))
        problem = costs.ControlProblem(
            h_static, tuple(h_controls), initial_state=models.fock_state(4, 0)
        )
        field = costs.ControlField.constant(0.3, 3, len(h_controls), 0.2)
        terms = [
            CostTerm(CostKind.STATE_INFIDELITY, target_state=models.fock_state(4, 3)),
            CostTerm(CostKind.GATE_INFIDELITY, target_gate=models.hadamard_target(1, 2)),
        ]
        calls = self.count_steps(monkeypatch)
        with pytest.raises(
            ValueError, match=r"terms\[1\] \(gate_infidelity\): target_gate has shape \(2, 2\), "
            r"expected \(4, 4\)"
        ):
            evaluate(problem, field, terms)
        assert calls == []

    def test_c2_penalty_of_wrong_shape_refused(self, rng, monkeypatch):
        problem = make_problem(rng, 4, 1)
        field = costs.ControlField.constant(0.3, 3, 1, 0.2)
        omega = sparse.from_dense(random_hermitian(rng, 3))
        calls = self.count_steps(monkeypatch)
        with pytest.raises(ValueError, match=r"penalty_op has shape \(3, 3\), expected \(4, 4\)"):
            costs.c2_state_grad(problem, field, random_state(rng, 4), omega)
        assert calls == []

    @pytest.mark.parametrize("kind", [CostKind.STATE_INFIDELITY, CostKind.STATE_RUNNING_INFIDELITY])
    @pytest.mark.parametrize("evaluate", [costs.composite_cost, costs.composite_grad])
    def test_target_of_wrong_length_refused(self, rng, monkeypatch, kind, evaluate):
        problem = make_problem(rng, 2, 1, psi0=random_state(rng, 2))
        field = costs.ControlField.constant(0.3, 3, 1, 0.2)
        terms = [
            CostTerm(CostKind.STATE_INFIDELITY, target_state=random_state(rng, 2)),
            CostTerm(kind, target_state=random_state(rng, 3)),
        ]
        self.refuse_sweeps(monkeypatch)
        with pytest.raises(
            ValueError, match=rf"terms\[1\] \({kind.value}\): target_state has shape \(3,\)"
        ):
            evaluate(problem, field, terms)

    @pytest.mark.parametrize("evaluate", [costs.composite_cost, costs.composite_grad])
    def test_penalty_of_wrong_shape_refused(self, rng, monkeypatch, evaluate):
        problem = make_problem(rng, 2, 1, psi0=random_state(rng, 2))
        field = costs.ControlField.constant(0.3, 3, 1, 0.2)
        omega = sparse.from_dense(random_hermitian(rng, 3))
        terms = [CostTerm(CostKind.STATE_PENALTY, penalty_op=omega)]
        self.refuse_sweeps(monkeypatch)
        with pytest.raises(
            ValueError, match=r"terms\[0\] \(state_penalty\): penalty_op has shape \(3, 3\)"
        ):
            evaluate(problem, field, terms)


class TestSweepRecord:
    """A cost-only sweep handed to the gradient at the same point."""

    @staticmethod
    def point(rng, backend=Backend.SCALING_SQUARING, gate=False):
        d, n, k = 5, 6, 2
        problem = make_problem(rng, d, k, backend, psi0=random_state(rng, d))
        terms = state_terms(rng, d)
        if gate:
            u_target, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
            terms.append(CostTerm(CostKind.GATE_INFIDELITY, 0.5, target_gate=u_target))
        field = costs.ControlField(n, k, 0.25, rng.normal(scale=0.5, size=(n, k)))
        return problem, field, terms

    @pytest.mark.parametrize("gate", [False, True], ids=["state", "state+gate"])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_gradient_from_record_is_bit_identical(self, rng, backend, gate):
        problem, field, terms = self.point(rng, backend, gate)
        plain = costs.composite_grad(problem, field, terms)
        record = costs.SweepRecord()
        cost = costs.composite_cost(problem, field, terms, record)
        seeded = costs.composite_grad(problem, field, terms, record)
        assert cost == seeded.cost == plain.cost
        assert np.array_equal(seeded.grad, plain.grad)
        assert seeded.live_vector_peak == plain.live_vector_peak

    def test_record_is_emptied_by_the_gradient(self, rng):
        problem, field, terms = self.point(rng)
        record = costs.SweepRecord()
        costs.composite_cost(problem, field, terms, record)
        costs.composite_grad(problem, field, terms, record)
        assert record.psi is None and record.field is None
        with pytest.raises(ValueError, match="sweep record is empty"):
            costs.composite_grad(problem, field, terms, record)

    def test_other_field_problem_or_terms_refused(self, rng):
        problem, field, terms = self.point(rng)
        record = costs.SweepRecord()
        costs.composite_cost(problem, field, terms, record)
        same_values = field.replace_amplitudes(field.amplitudes)
        other_problem = dataclasses.replace(problem)
        refusals = [
            (problem, same_values, terms, "another field"),
            (other_problem, field, terms, "another problem"),
            (problem, field, terms[:2], "other terms"),
            (problem, field, [*terms[:2], dataclasses.replace(terms[2])], "other terms"),
        ]
        for got_problem, got_field, got_terms, reason in refusals:
            with pytest.raises(ValueError, match=f"sweep record was made for {reason}"):
                costs.composite_grad(got_problem, got_field, got_terms, record)
        # a refusal leaves the record for its own point
        assert costs.composite_grad(problem, field, list(terms), record).cost == (
            costs.composite_grad(problem, field, terms).cost
        )

    def test_a_new_trial_replaces_the_record(self, rng):
        problem, field, terms = self.point(rng)
        record = costs.SweepRecord()
        costs.composite_cost(problem, field, terms, record)
        trial = field.replace_amplitudes(field.amplitudes * 0.5)
        costs.composite_cost(problem, trial, terms, record)
        with pytest.raises(ValueError, match="another field"):
            costs.composite_grad(problem, field, terms, record)

    def test_failed_trial_leaves_an_empty_record(self, rng):
        problem, field, terms = self.point(rng)
        record = costs.SweepRecord()
        costs.composite_cost(problem, field, terms, record)
        with pytest.raises(ValueError, match="channels"):
            costs.composite_cost(
                problem, costs.ControlField.constant(0.1, 6, 3, 0.25), terms, record
            )
        with pytest.raises(ValueError, match="sweep record is empty"):
            costs.composite_grad(problem, field, terms, record)


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

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("gradient", [costs.c1_gate_grad, costs.c3_gate_grad])
    def test_gate_cost_is_the_same_in_every_frame(self, rng, backend, gradient):
        # V H V^dagger and V U_T V^dagger leave tr(U_T^dagger U_n) unchanged, so the
        # computational-basis sweep must give the cost and gradient of the original frame
        d, n, k = 5, 3, 2
        problem = make_problem(rng, d, k, backend)
        v, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))

        def rotate(op):
            m = v @ op.to_dense() @ v.conj().T
            return sparse.from_dense((m + m.conj().T) / 2)

        rotated = costs.ControlProblem(
            rotate(problem.h_static), tuple(rotate(hc) for hc in problem.h_controls),
            backend, problem.tau,
        )
        u_target, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        field = costs.ControlField(n, k, 0.3, rng.normal(scale=0.5, size=(n, k)))
        want = gradient(problem, field, u_target)
        got = gradient(rotated, field, v @ u_target @ v.conj().T)
        assert got.cost == pytest.approx(want.cost, abs=1e-10)
        assert np.abs(got.grad - want.grad).max() <= 1e-10

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

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_composite_state_cost_holds_one_costate(self, rng, backend):
        # psi, the co-state and the adjoint's result (or a penalty drive)
        d, k = 6, 2
        problem = make_problem(rng, d, k, backend, psi0=random_state(rng, d))
        terms = state_terms(rng, d)
        for n in (5, 50):
            field = costs.ControlField(n, k, 0.05, rng.normal(scale=0.2, size=(n, k)))
            assert costs.composite_grad(problem, field, terms).live_vector_peak == 3

    @pytest.mark.parametrize("grad_fn", [costs.c1_gate_grad, costs.c3_gate_grad])
    def test_gate_live_peak_independent_of_steps(self, rng, grad_fn):
        d, k = 4, 1
        problem = make_problem(rng, d, k)
        u_target, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        peaks = []
        for n in (10, 100):
            field = costs.ControlField(n, k, 0.05, rng.normal(scale=0.2, size=(n, k)))
            peaks.append(grad_fn(problem, field, u_target).live_vector_peak)
        assert peaks[0] == peaks[1]
        assert peaks[0] <= 4

    def test_final_gate_costate_starts_in_target_image(self, rng):
        # forward: psi and the step's new array, the target image not yet built;
        # backward: psi and the target image holding the co-state, both moved in place
        d, k = 4, 1
        problem = make_problem(rng, d, k)
        u_target, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        for n in (10, 100):
            field = costs.ControlField(n, k, 0.05, rng.normal(scale=0.2, size=(n, k)))
            assert costs.c1_gate_grad(problem, field, u_target).live_vector_peak == 2

    def test_gradients_deterministic(self, rng):
        d, n, k = 5, 3, 2
        psi0, phi = random_state(rng, d), random_state(rng, d)
        problem = make_problem(rng, d, k)
        field = costs.ControlField(n, k, 0.3, rng.normal(size=(n, k)))
        r1 = costs.c1_state_grad(problem, field, psi0, phi)
        r2 = costs.c1_state_grad(problem, field, psi0, phi)
        assert r1.cost == r2.cost
        assert np.array_equal(r1.grad, r2.grad)


class TestControlsIndependentOfDt:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_two_time_steps_share_one_controls_object(self, rng, backend):
        d, n, k = 5, 3, 2
        psi0, phi = random_state(rng, d), random_state(rng, d)
        problem = make_problem(rng, d, k, backend, tau=1e-12)
        amps = rng.normal(scale=0.5, size=(n, k))
        fields = [costs.ControlField(n, k, dt, amps) for dt in (0.3, 0.07)]
        controls, grads = [], []
        for field in fields:
            controls.append(problem.step_evaluator(field, 0)._controls)
            result = costs.c1_state_grad(problem, field, psi0, phi)
            assert_fd_match(
                result, lambda f: costs.c1_state_grad(problem, f, psi0, phi).cost, field
            )
            grads.append(result.grad)
        assert controls[0] is controls[1] is problem._controls
        # going back to the first dt finds no state left by the second
        again = costs.c1_state_grad(problem, fields[0], psi0, phi)
        assert np.array_equal(again.grad, grads[0])
        fields_of_problem = {f.name for f in dataclasses.fields(problem)}
        assert set(vars(problem)) - fields_of_problem == {"_pattern", "_controls"}


class TestBytesIndependentOfSteps:
    """The traced allocation peak of a gradient does not grow with the number of steps.

    The live-vector meter counts only the vectors the cost code holds; this
    counts every byte.  Only the arrays indexed by step may grow: the
    gradient, for a gate cost its complex overlap accumulator and its
    trace factors, and the step memo's table of plans, one reference per
    step and plan, on either backend.  A stored trajectory, or any
    other copy kept per step, adds at least a state vector per step.  No ``gc.collect()`` before a
    measurement: a full collection empties the interpreter's free lists,
    and refilling them shows up as traced blocks that grow with the steps.
    """

    @staticmethod
    def traced_peak(gradient):
        tracemalloc.start()
        try:
            result = gradient()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak, result

    @pytest.mark.parametrize("cost", ["state", "gate"])
    @pytest.mark.parametrize(
        "backend, storage",
        [(Backend.SCALING_SQUARING, "csr"), (Backend.DIAGONALIZATION, "dense")],
    )
    def test_peak_minus_step_arrays_is_independent_of_steps(self, rng, backend, storage, cost):
        d, k, n = 16, 3, 10
        wrap = sparse.from_dense if storage == "csr" else sparse.DenseMatrix
        controls = tuple(wrap(random_hermitian(rng, d)) for _ in range(k))
        problem = costs.ControlProblem(wrap(random_hermitian(rng, d)), controls, backend, 1e-10)
        psi0, phi = random_state(rng, d), random_state(rng, d)
        u_target, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))

        def gradient(field):
            if cost == "state":
                return costs.c1_state_grad(problem, field, psi0, phi)
            return costs.c1_gate_grad(problem, field, u_target)

        fields = [
            costs.ControlField(m, k, 0.05, rng.normal(scale=0.3, size=(m, k))) for m in (n, 4 * n)
        ]
        for field in fields:
            gradient(field)  # fill the problem's and the planner's caches first
        net = []
        for field in fields:
            peak, result = self.traced_peak(lambda: gradient(field))
            step_arrays = result.grad.nbytes
            if cost == "gate":
                # the complex accumulator, twice the gradient, and one complex trace per step
                step_arrays += 2 * result.grad.nbytes + 16 * field.n_steps
            # the step memo's plan table: one list of step plans, one of derivative plans
            step_arrays += 2 * sys.getsizeof([None] * field.n_steps)
            net.append(peak - step_arrays)
        assert abs(net[1] - net[0]) <= 16 * d, net


class TestGateBytesLinearInDimension:
    """A gate cost or gradient holds no ``d x d`` array: its traced peak grows like ``d``.

    On ``three_transmons`` with CSR storage and scaling and squaring the
    step operators hold ``O(d)`` stored values, so the peak, minus the
    per-step arrays, is the state vectors a sweep holds plus the step's
    operators.  Going from d=27 to d=216 it may grow by at most 1.25 times
    the ratio of dimensions; an identity matrix, a complex copy of the
    target or a ``U^dagger U`` in its unitarity check would each add
    ``16 d^2`` bytes, 729 KiB at d=216.  The target gate belongs to the
    caller and is built outside the count.
    """

    @staticmethod
    def net_peaks(d_each, n=4):
        h_static, h_controls = models.build_three_transmons(
            models.ThreeTransmonParams(d_each=d_each)
        )
        problem = costs.ControlProblem(h_static, tuple(h_controls), tau=1e-8)
        k = len(h_controls)
        field = costs.ControlField.constant(0.6, n, k, 0.02)
        u_target = models.hadamard_target(3, d_each)
        term = CostTerm(CostKind.GATE_INFIDELITY, target_gate=u_target)
        # each gradient's step arrays: the gradient, its complex accumulator and the traces
        step_arrays = 3 * 8 * n * k + 16 * n
        calls = {
            "c1_gate_grad": (lambda: costs.c1_gate_grad(problem, field, u_target), step_arrays),
            "c3_gate_grad": (lambda: costs.c3_gate_grad(problem, field, u_target), step_arrays),
            "composite_cost": (lambda: costs.composite_cost(problem, field, [term]), 16 * n),
        }
        net = {}
        for name, (call, held) in calls.items():
            call()  # fill the problem's and the planner's caches first
            net[name] = TestBytesIndependentOfSteps.traced_peak(call)[0] - held
        return problem.dim, net

    def test_peak_grows_like_the_dimension(self):
        d_small, small = self.net_peaks(3)
        d_large, large = self.net_peaks(6)
        assert (d_small, d_large) == (27, 216)
        for name in small:
            assert large[name] <= 1.25 * (d_large / d_small) * small[name], (name, small, large)
            assert large[name] < 16 * d_large**2, (name, large)


class TestHeldBytes:
    """After its first gradient a CSR problem holds its step pattern and its stacks' indices only.

    The pattern holds every stored value once; the row stacks are views of
    those values and add only their own row offsets and column indices.

    Everything else a gradient builds is freed when it returns.  The plan
    caches are shared by every problem, so an earlier problem on the same
    operators fills them first.  A second one does the same under tracing
    before the count starts, so that the interpreter's and numpy's free
    lists hold traced blocks at both ends of the count.  The 8 KiB of slack
    cover the Python objects around the arrays; 3 to 5 KiB were measured.
    """

    def test_problem_holds_its_pattern_and_stacks(self, rng):
        d, k, n = 128, 8, 4
        band = np.abs(np.subtract.outer(np.arange(d), np.arange(d))) <= 2
        h_static = sparse.from_dense(random_hermitian(rng, d) * band)
        controls = tuple(sparse.from_dense(random_hermitian(rng, d) * band) for _ in range(k))
        psi0, phi = random_state(rng, d), random_state(rng, d)
        field = costs.ControlField(n, k, 0.05, rng.normal(scale=0.3, size=(n, k)))

        def first_gradient():
            problem = costs.ControlProblem(h_static, controls)
            costs.c1_state_grad(problem, field, psi0, phi)
            return problem

        first_gradient()
        tracemalloc.start()
        try:
            first_gradient()
            before = tracemalloc.get_traced_memory()[0]
            problem = first_gradient()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()

        pattern, stacks = problem._pattern, problem._controls.stacks
        assert stacks and all(np.shares_memory(m.values, pattern.values) for m in stacks)
        arrays = sum(m.row_offsets.nbytes + m.col_indices.nbytes for m in stacks)
        arrays += sum(
            a.nbytes
            for a in (
                pattern.values, pattern.positions, pattern.term_offsets,
                pattern.row_offsets, pattern.col_indices,
            )
        )
        assert held <= arrays + 8192, (held, arrays)


class TestBytesIndependentOfChannels:
    """A backward step's scratch does not grow with the number of channels.

    Channels are contracted :data:`CHANNEL_BLOCK` at a time, so the traced
    peak of a gradient, minus its ``N x K`` gradient, is the same at K = 4
    and K = 12 within one state vector.  The operators are banded, so the
    pull-back's scratch of some ``m_d + CHANNEL_BLOCK`` vectors, not the
    step assembly, sets the peak; the controls are one banded Hermitian
    matrix conjugated by random diagonal phases, at zero amplitudes, so
    every step is ``H_s`` and plans alike for both K.
    """

    def test_peak_minus_gradient_is_independent_of_channels(self, rng):
        d, n = 512, 4
        band = np.abs(np.subtract.outer(np.arange(d), np.arange(d))) <= 1
        h0, hc = random_hermitian(rng, d) * band, random_hermitian(rng, d) * band
        psi0, phi = random_state(rng, d), random_state(rng, d)
        net = []
        for k in (CHANNEL_BLOCK, 3 * CHANNEL_BLOCK):
            phases = np.exp(2j * np.pi * rng.random((k, d)))
            controls = tuple(
                sparse.from_dense(p[:, None] * hc * p.conj()[None, :]) for p in phases
            )
            problem = costs.ControlProblem(
                sparse.from_dense(h0), controls, Backend.SCALING_SQUARING, 1e-10
            )
            field = costs.ControlField.constant(0.0, n, k, 0.05)
            costs.c1_state_grad(problem, field, psi0, phi)  # fill the caches first
            peak, result = TestBytesIndependentOfSteps.traced_peak(
                lambda: costs.c1_state_grad(problem, field, psi0, phi)
            )
            assert np.abs(result.grad).max() > 0
            net.append(peak - result.grad.nbytes)
        assert abs(net[1] - net[0]) <= 16 * d, net


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


class ProductCounter:
    """Counts the products of every forward step and of every backward step.

    Each matrix class's unchecked ``_product`` is where every product runs:
    ``matvec`` calls it after its checks, and a step's own moves call it
    directly.  ``forward_steps`` holds ``(plan.matvecs, products with the
    step's H)`` per ``StepEvaluator.forward`` call, which runs no other
    product; ``backward_steps`` holds ``(DerivativePlan.matvecs, products
    with the step's H)`` per ``pull_back`` call, with the plan itself.
    """

    def __init__(self, monkeypatch):
        self.forward_steps, self.backward_steps, seen = [], [], []
        for kind in (sparse.CsrMatrix, sparse.DenseMatrix):

            def counting_product(matrix, v, out, real=kind._product):
                seen.append(matrix)
                return real(matrix, v, out)

            monkeypatch.setattr(kind, "_product", counting_product)
        real_forward = derivatives.StepEvaluator.forward
        real_pull_back = derivatives.StepEvaluator.pull_back

        def counting_forward(step, psi, out=None):
            first, h = len(seen), step.ctx.h_step
            moved = real_forward(step, psi, out)
            assert all(m is h for m in seen[first:])
            self.forward_steps.append((step.plans[0].matvecs, len(seen) - first))
            return moved

        def counting_pull_back(step, costate, psi):
            first, h = len(seen), step.ctx.h_step
            out = real_pull_back(step, costate, psi)
            dplan = step.plans[1]
            self.backward_steps.append(
                (dplan.matvecs, sum(m is h for m in seen[first:]), dplan)
            )
            return out

        monkeypatch.setattr(derivatives.StepEvaluator, "forward", counting_forward)
        monkeypatch.setattr(derivatives.StepEvaluator, "pull_back", counting_pull_back)

    def assert_planned(self):
        """Every forward and every backward step ran exactly its planned products."""
        assert [c for _, c in self.forward_steps] == [p for p, _ in self.forward_steps]
        assert [c for _, c, _ in self.backward_steps] == [p for p, _, _ in self.backward_steps]
        for planned, _, dplan in self.backward_steps:
            m, m_d, s = dplan.state.order, dplan.costate.order, dplan.costate.scaling
            assert planned == m * s + (2 * m_d - 1) * s


class TestEigenBackendFactorizesToDifferentiate:
    """On the diagonalization backend a step factorizes only to differentiate.

    Its forward steps run the certified engine while its plan passes
    ``plan.matvecs * nnz <= d^3``.  On ``qubit_chain(3)`` (d = 8, 28 stored
    elements per step on CSR, 64 dense), at amplitudes of about 0.5, CSR
    steps pass at dt = 0.2 and dense ones at dt = 0.02, while dense ones
    at dt = 0.5 do not.
    """

    @staticmethod
    def chain3(storage):
        h, hcs = models.build_qubit_chain(models.QubitChainParams(n_qubits=3))
        ops = (h, *hcs)
        if storage == "dense":
            ops = tuple(sparse.DenseMatrix(m.to_dense()) for m in ops)
        return costs.ControlProblem(ops[0], ops[1:], Backend.DIAGONALIZATION, 1e-10)

    @staticmethod
    def counting_factorizations(monkeypatch):
        calls = []
        real = derivatives.diag_prepare

        def counted(ctx):
            calls.append(ctx)
            return real(ctx)

        monkeypatch.setattr(derivatives, "diag_prepare", counted)
        return calls

    @pytest.mark.parametrize("storage, dt", [("csr", 0.2), ("dense", 0.02)])
    def test_forward_under_the_rule_runs_its_plan(self, rng, monkeypatch, storage, dt):
        problem = self.chain3(storage)
        field = costs.ControlField(2, 6, dt, rng.normal(scale=0.5, size=(2, 6)))
        counter, factorized = ProductCounter(monkeypatch), self.counting_factorizations(monkeypatch)
        for n in range(field.n_steps):
            step = problem.step_evaluator(field, n)
            h, d = step.ctx.h_step, problem.dim
            h_dense = h.to_dense()
            psi = random_state(rng, d)
            got = step.forward(psi)
            plan = step.plans[0]
            assert plan.matvecs * h.nnz <= d**3
            assert step.ctx.h_step is h  # not factorized
            err = np.linalg.norm(got - expm_action_oracle(-1j * dt * h_dense, psi))
            assert err <= problem.tau, err
        assert factorized == []
        counter.assert_planned()  # each forward ran plan.matvecs products with its own H
        assert len(counter.forward_steps) == field.n_steps

    @pytest.mark.parametrize("storage, tau", [("dense", 1e-10), ("csr", 1e-17)])
    def test_step_over_the_rule_factorizes_at_its_forward(self, rng, monkeypatch, storage, tau):
        # dense steps at dt = 0.5 fail the rule; at tau = 1e-17, below the
        # rounding floor, no plan certifies at all
        problem = dataclasses.replace(self.chain3(storage), tau=tau)
        field = costs.ControlField(1, 6, 0.5, rng.normal(scale=0.5, size=(1, 6)))
        factorized = self.counting_factorizations(monkeypatch)
        step = problem.step_evaluator(field, 0)
        h, d = step.ctx.h_step, problem.dim
        h_dense = h.to_dense()
        if storage == "dense":
            assert step._step_plan().matvecs * h.nnz > d**3
        else:
            with pytest.raises(expm.PlanningError):
                step._step_plan()
        psi = random_state(rng, d)
        got = step.forward(psi)
        assert len(factorized) == 1
        with pytest.raises(derivatives.HamiltonianReleasedError):
            step.ctx.h_step
        assert np.linalg.norm(got - expm_action_oracle(-0.5j * h_dense, psi)) <= 1e-12

    @pytest.mark.parametrize("cost", ["state", "gate"])
    def test_gradient_factorizes_each_backward_step_once(self, rng, monkeypatch, cost):
        problem, n = self.chain3("csr"), 5
        d = problem.dim
        field = costs.ControlField(n, 6, 0.2, rng.normal(scale=0.5, size=(n, 6)))
        factorized = self.counting_factorizations(monkeypatch)
        if cost == "state":
            costs.c1_state_grad(problem, field, random_state(rng, d), random_state(rng, d))
            # N, where factorizing every forward step too made 2N - 1
            assert len(factorized) == n
        else:
            costs.c1_gate_grad(problem, field, models.hadamard_target(3, 2))
            # one per backward step of each basis state's sweep
            assert len(factorized) == d * n

    @pytest.mark.parametrize("grad_fn", [costs.c1_gate_grad, costs.c3_gate_grad])
    def test_gate_gradient_agrees_with_scaling_and_squaring(self, rng, grad_fn):
        problem = self.chain3("csr")
        taylor = dataclasses.replace(problem, backend=Backend.SCALING_SQUARING)
        field = costs.ControlField(3, 6, 0.2, rng.normal(scale=0.5, size=(3, 6)))
        target = models.hadamard_target(3, 2)
        got = grad_fn(problem, field, target)
        want = grad_fn(taylor, field, target)
        assert abs(got.cost - want.cost) <= 1e-8 * abs(want.cost)
        assert np.linalg.norm(got.grad - want.grad) <= 1e-8 * np.linalg.norm(want.grad)
        assert_fd_match(got, lambda f: grad_fn(problem, f, target).cost, field)


class TestStartStateIsOnlyRead:
    """The sweeps move a copy of the start state in place, never the caller's array."""

    @pytest.mark.parametrize("backend", list(Backend))
    def test_entry_points_leave_psi0_and_the_initial_state(self, rng, backend):
        d, n, k = 6, 3, 2
        psi0 = random_state(rng, d)
        problem = make_problem(rng, d, k, backend, tau=1e-10, psi0=psi0)
        field = costs.ControlField(n, k, 0.3, rng.normal(size=(n, k)))
        terms = state_terms(rng, d)
        kept = psi0.copy()
        record = costs.SweepRecord()
        costs.forward_propagate(problem, field, psi0)
        costs.composite_cost(problem, field, terms)
        costs.composite_cost(problem, field, terms, record)
        costs.composite_grad(problem, field, terms, record)
        costs.composite_grad(problem, field, terms)
        costs.c1_state_grad(problem, field, psi0, terms[0].target_state)
        assert problem.initial_state is psi0
        assert np.array_equal(psi0, kept)


class TestCountedMatvecs:
    @staticmethod
    def assert_one_gradient_runs_the_planned_products(rng, monkeypatch, k, composite=False):
        counter = ProductCounter(monkeypatch)
        d, n = 6, 3
        psi0 = random_state(rng, d)
        problem = make_problem(rng, d, k, tau=1e-10, psi0=psi0)
        field = costs.ControlField(n, k, 0.3, rng.normal(size=(n, k)))
        if composite:
            costs.composite_grad(problem, field, state_terms(rng, d))
        else:
            costs.c1_state_grad(problem, field, psi0, random_state(rng, d))
        # n forward steps, and n backward steps, each moving psi and the one
        # co-state back, however many channels and however many terms drive it
        assert len(counter.forward_steps) == n
        assert len(counter.backward_steps) == n
        counter.assert_planned()
        counted = [c for _, c in counter.forward_steps] + [c for _, c, _ in counter.backward_steps]
        assert sum(counted) > len(counted)

    def test_one_gradient_runs_the_planned_products(self, rng, monkeypatch):
        self.assert_one_gradient_runs_the_planned_products(rng, monkeypatch, k=2)

    def test_partial_channel_block_runs_the_planned_products(self, rng, monkeypatch):
        # one full contraction block of CHANNEL_BLOCK channels and one partial block
        self.assert_one_gradient_runs_the_planned_products(rng, monkeypatch, k=5)

    @pytest.mark.parametrize("k", [2, 5])
    def test_composite_state_cost_runs_one_costate(self, rng, monkeypatch, k):
        self.assert_one_gradient_runs_the_planned_products(rng, monkeypatch, k, composite=True)


class TestGateSweeps:
    """The final gate cost runs one sweep over the basis states, the running cost two."""

    @staticmethod
    def count_gradient(rng, monkeypatch, grad_fn, d, n, k):
        real_step_evaluator = costs.ControlProblem.step_evaluator
        counter, builds = ProductCounter(monkeypatch), []

        def counting_step_evaluator(self, a, step):
            builds.append(step)
            return real_step_evaluator(self, a, step)

        monkeypatch.setattr(costs.ControlProblem, "step_evaluator", counting_step_evaluator)
        problem = make_problem(rng, d, k, tau=1e-10)
        u_target, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        field = costs.ControlField(n, k, 0.3, rng.normal(size=(n, k)))
        grad_fn(problem, field, u_target)
        counter.assert_planned()
        return len(counter.forward_steps), len(counter.backward_steps), len(builds)

    @pytest.mark.parametrize("n", [2, 5])
    def test_final_cost_runs_one_sweep(self, rng, monkeypatch, n):
        d = 3
        forward_steps, backward_steps, builds = self.count_gradient(
            rng, monkeypatch, costs.c1_gate_grad, d, n, k=2
        )
        # per basis state: n forward steps and n backward steps, and each
        # sweep but the first reuses the step where the last one ended
        assert forward_steps == d * n
        assert backward_steps == d * n
        assert builds == 2 * d * (n - 1) + 1

    def test_running_cost_runs_two_sweeps(self, rng, monkeypatch):
        d, n = 3, 4
        forward_steps, backward_steps, builds = self.count_gradient(
            rng, monkeypatch, costs.c3_gate_grad, d, n, k=2
        )
        # the trace sweep adds n forward steps and n builds per basis state
        assert forward_steps == 2 * d * n
        assert backward_steps == d * n
        assert builds == d * n + 2 * d * (n - 1) + 1

    @pytest.mark.parametrize("n", [1, 4])
    def test_final_cost_equals_composite_cost(self, rng, n):
        d, k = 4, 2
        problem = make_problem(rng, d, k)
        u_target, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        field = costs.ControlField(n, k, 0.3, rng.normal(size=(n, k)))
        term = CostTerm(CostKind.GATE_INFIDELITY, target_gate=u_target)
        got = costs.c1_gate_grad(problem, field, u_target).cost
        assert got == costs.composite_cost(problem, field, [term])


class TestStepPlansOncePerField:
    """A gradient plans each step of its field once, however often its sweeps revisit it."""

    @staticmethod
    def counting(monkeypatch):
        calls = {"make_plan": 0, "derivative_plan": 0}
        for name in calls:
            real = getattr(expm, name)

            def counted(*args, _real=real, _name=name):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(expm, name, counted)
        return calls

    @pytest.mark.parametrize("grad_fn", [costs.c1_gate_grad, costs.c3_gate_grad])
    def test_gate_gradient_plans_each_step_once(self, rng, monkeypatch, grad_fn):
        d, n, k = 4, 5, 2
        problem = make_problem(rng, d, k, tau=1e-10)
        u_target, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        field = costs.ControlField(n, k, 0.3, rng.normal(size=(n, k)))
        calls = self.counting(monkeypatch)
        result = grad_fn(problem, field, u_target)
        assert calls == {"make_plan": n, "derivative_plan": n}

        # without the kept plans every rebuilt step plans again, to the same numbers
        forgetful = property(lambda self: (None, None), lambda self, kept: None)
        monkeypatch.setattr(derivatives.StepEvaluator, "plans", forgetful)
        calls.update(make_plan=0, derivative_plan=0)
        again = grad_fn(problem, field, u_target)
        builds = 2 * d * (n - 1) + 1 + (d * n if grad_fn is costs.c3_gate_grad else 0)
        assert calls == {"make_plan": builds, "derivative_plan": d * n}
        assert again.cost == result.cost
        assert np.array_equal(again.grad, result.grad)

    def test_accepted_trial_hands_its_plans_to_the_gradient(self, rng, monkeypatch):
        d, n, k = 5, 4, 2
        problem = make_problem(rng, d, k, tau=1e-10, psi0=random_state(rng, d))
        terms = state_terms(rng, d)
        field = costs.ControlField(n, k, 0.3, rng.normal(size=(n, k)))
        calls = self.counting(monkeypatch)
        record = costs.SweepRecord()
        costs.composite_cost(problem, field, terms, record)
        # a cost-only sweep makes no derivative plan
        assert calls == {"make_plan": n, "derivative_plan": 0}
        result = costs.composite_grad(problem, field, terms, record)
        assert calls == {"make_plan": n, "derivative_plan": n}
        want = costs.composite_grad(problem, field, terms)
        assert result.cost == want.cost
        assert np.array_equal(result.grad, want.grad)

    def test_eigen_backend_keeps_the_forward_plans(self, rng, monkeypatch):
        # a forward step plans itself to choose between the certified engine
        # and its eigenbasis; a revisit reads the kept plan
        d, n, k = 4, 3, 2
        problem = make_problem(rng, d, k, Backend.DIAGONALIZATION, psi0=random_state(rng, d))
        field = costs.ControlField(n, k, 0.3, rng.normal(size=(n, k)))
        memo = costs._StepMemo(problem, field)
        for step in (0, 1, 2):
            memo(step).forward(random_state(rng, d))
        memo(0)  # lets step 2 go, with its plan
        assert all(plan is not None for plan in memo._plans)
        assert memo._dplans == [None] * n
        calls = self.counting(monkeypatch)
        for step in (1, 2):
            memo(step).forward(random_state(rng, d))
        assert calls == {"make_plan": 0, "derivative_plan": 0}

    def test_memo_refuses_a_field_of_another_channel_count(self, rng):
        d = 4
        problem = make_problem(rng, d, 2, psi0=random_state(rng, d))
        field = costs.ControlField.constant(0.1, 3, 3, 0.2)
        with pytest.raises(ValueError, match="field has 3 channels, problem has 2"):
            costs._StepMemo(problem, field)
        psi, phi = random_state(rng, d), random_state(rng, d)
        with pytest.raises(ValueError, match="field has 3 channels, problem has 2"):
            costs.forward_propagate(problem, field, psi)
        with pytest.raises(ValueError, match="field has 3 channels, problem has 2"):
            costs.c1_state_grad(problem, field, psi, phi)
