"""Propagation and control-derivative backends."""

import tracemalloc
import weakref

import numpy as np
import pytest
from scipy.linalg import expm as scipy_expm
from scipy.linalg import expm_frechet

from leangrape import costs, derivatives, expm, models, sparse
from leangrape.derivatives import (
    CHANNEL_BLOCK,
    STACK_ROWS,
    Backend,
    BlockDerivativeOperator,
    ControlOperators,
    DiagFactorization,
    aux_plan,
    derivative_action_diag,
    diag_prepare,
)

from conftest import (
    make_step,
    random_hermitian,
    random_real_symmetric,
    random_sparse_dense_pair,
    random_state,
)


def dense_embedding(h, hc, dt):
    """The derivative generator ``-i dt [[H, h_k], [0, H]]`` as a dense array."""
    gen, ctrl = -1j * dt * h.to_dense(), -1j * dt * hc.to_dense()
    return np.block([[gen, ctrl], [np.zeros_like(gen), gen]])


def transient_peak(call) -> int:
    """Bytes ``call()`` holds at its peak beyond what was allocated before it."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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


class TestMoveContract:
    """``forward(psi)`` and ``adjoint(psi)`` only read ``psi``; ``out=psi`` moves it in place."""

    @pytest.mark.parametrize("backend", list(Backend))
    @pytest.mark.parametrize("move", ["forward", "adjoint"])
    def test_psi_is_read_and_out_gives_the_same_bits(self, rng, backend, move):
        d, dt = 12, 1.3
        step = make_step(random_hermitian(rng, d, scale=2.0), [], dt, backend)
        if backend is Backend.SCALING_SQUARING:
            assert step._step_plan().scaling > 1
        psi = random_state(rng, d)
        kept = psi.copy()
        got = getattr(step, move)(psi)
        assert got is not psi and np.array_equal(psi, kept)
        out = np.empty(d, dtype=complex)
        assert getattr(step, move)(psi, out) is out
        assert np.array_equal(out, got) and np.array_equal(psi, kept)
        assert getattr(step, move)(psi, psi) is psi
        assert np.array_equal(psi, got)

    def test_scaling_squaring_moves_as_the_checked_apply(self, rng):
        d, dt = 12, 1.3
        step = make_step(random_hermitian(rng, d, scale=2.0), [], dt)
        psi = random_state(rng, d)
        h, plan = step.ctx.h_step, step._step_plan()
        want = expm.apply(h, psi, plan, validate=False, scale=-1j * dt)
        assert np.array_equal(step.forward(psi), want)
        want = expm.apply(h, psi, plan, validate=False, scale=1j * dt)
        assert np.array_equal(step.adjoint(psi), want)

    @pytest.mark.parametrize("backend", list(Backend))
    def test_mismatched_out_refused(self, rng, backend):
        d = 6
        step = make_step(random_hermitian(rng, d), [], 0.3, backend)
        psi = random_state(rng, d)
        for out in (np.empty(d + 1, dtype=complex), np.empty(d), np.empty((d, 1), dtype=complex)):
            with pytest.raises(ValueError, match="out must be"):
                step.forward(psi, out)
        if backend is Backend.SCALING_SQUARING:
            with pytest.raises(ValueError, match="psi has shape"):
                step.forward(psi[:-1])


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
        fact = diag_prepare(make_step(h, [], 0.5).ctx)
        want = fact.eigvecs @ (np.conj(fact.exp_eigvals) * (fact.eigvecs.conj().T @ psi))
        got = make_step(h, [], 0.5).adjoint(psi)
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
        aux = BlockDerivativeOperator(step.ctx.h_step, sparse.build_csr([], d, d))
        plan = aux_plan(aux, 0.3, step.ctx.tau)
        out = expm.apply(aux, aux.stack(psi), plan, validate=False, scale=-1j * 0.3)
        u_psi = aux.split(out)[1]
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
        op = BlockDerivativeOperator(h, hc)
        # the materialized embedding is the generator: -i dt times the operator
        aux = dense_embedding(h, hc, dt)
        v = rng.normal(size=2 * d) + 1j * rng.normal(size=2 * d)
        got = -1j * dt * op.matvec(v)
        assert np.linalg.norm(got - aux @ v) <= 1e-13 * np.linalg.norm(v)
        assert dt * op.one_norm() == pytest.approx(np.abs(aux).sum(axis=0).max(), rel=1e-13)
        assert dt * op.inf_norm() == pytest.approx(np.abs(aux).sum(axis=1).max(), rel=1e-13)
        # each top-block row sums over both blocks' elements
        assert op.max_row_nnz() == (aux != 0).sum(axis=1).max()

    def test_dense_block_operator_matches_materialized_embedding(self, rng):
        d, dt = 7, 0.29
        h = sparse.DenseMatrix(random_hermitian(rng, d))
        hc = sparse.DenseMatrix(random_hermitian(rng, d))
        op = BlockDerivativeOperator(h, hc)
        aux = dense_embedding(h, hc, dt)
        v = rng.normal(size=2 * d) + 1j * rng.normal(size=2 * d)
        out = np.full(2 * d, np.nan + 0j)
        assert op.matvec(v, out=out) is out
        assert np.linalg.norm(-1j * dt * out - aux @ v) <= 1e-13 * np.linalg.norm(v)
        assert dt * op.one_norm() == pytest.approx(np.abs(aux).sum(axis=0).max(), rel=1e-13)
        assert dt * op.inf_norm() == pytest.approx(np.abs(aux).sum(axis=1).max(), rel=1e-13)
        assert op.max_row_nnz() == (aux != 0).sum(axis=1).max() == 2 * d

    @pytest.mark.parametrize("storage", ["csr", "dense"])
    @pytest.mark.parametrize(
        "d, widths",
        # STACK_ROWS // d channels to a stack while that exceeds CHANNEL_BLOCK
        [(11, [CHANNEL_BLOCK + 2]), (300, [CHANNEL_BLOCK, 2])],
    )
    def test_row_stacked_controls_run_each_channels_arithmetic(self, rng, storage, d, widths):
        k = CHANNEL_BLOCK + 2
        wrap = (lambda m: m) if storage == "csr" else (lambda m: sparse.DenseMatrix(m.to_dense()))
        controls = [
            wrap(random_sparse_dense_pair(rng, d, 0.3)[0].scaled(10.0 ** (t % 3 - 1)))
            for t in range(k)
        ]
        pattern = None
        if storage == "csr":  # a problem's pattern: the static term first, then the controls
            static = random_sparse_dense_pair(rng, d, 0.3)[0]
            pattern = sparse.FixedPatternSum([static, *controls])
        ops = ControlOperators(controls, pattern)
        assert ops.per_stack == max(CHANNEL_BLOCK, STACK_ROWS // d)
        assert [s.n_rows for s in ops.stacks] == [w * d for w in widths]
        assert all(type(s) is type(controls[0]) for s in ops.stacks)
        if storage == "csr":
            assert all(np.shares_memory(s.values, pattern.values) for s in ops.stacks)
        y = rng.normal(size=d) + 1j * rng.normal(size=d)
        rows = np.concatenate([s.matvec(y) for s in ops.stacks]).reshape(k, d)
        for t, control in enumerate(controls):
            want = control.matvec(y)
            if storage == "csr":
                assert np.array_equal(rows[t], want)
            else:  # the same products; BLAS may sum a taller matrix's rows in another order
                assert np.abs(rows[t] - want).max() <= 1e-14 * np.abs(want).max()
        assert ops.norm1 == max(c.one_norm() for c in controls)
        assert ops.max_row_nnz == max(c.max_row_nnz() for c in controls)


class TestDiagPrepare:
    def test_factorization_consumes_the_hamiltonian(self, rng):
        d = 6
        ctx = make_step(random_hermitian(rng, d), [], 0.3).ctx
        diag_prepare(ctx)
        with pytest.raises(derivatives.HamiltonianReleasedError):
            ctx.h_step
        assert ctx.dim == d

    def test_released_step_is_not_factorized_again(self, rng):
        # a second factorization would read H already scaled by dt in place
        ctx = make_step(random_hermitian(rng, 4), [], 0.3).ctx
        diag_prepare(ctx)
        with pytest.raises(derivatives.HamiltonianReleasedError):
            diag_prepare(ctx)

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
        fact = diag_prepare(make_step(a * sx, [sx], dt).ctx)
        du = derivative_action_diag(fact, -1j * dt * sx, psi)
        u_psi = make_step(a * sx, [sx], dt).forward(psi)
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


def make_overlap_step(rng, d, n_channels, backend, storage, dt=0.3, scales=None):
    """A step driven by ``n_channels`` controls, at nonzero amplitudes.

    Without ``scales`` the controls are one Hermitian matrix conjugated by
    random diagonal phases: their entries have equal magnitudes, so every
    channel block plans exactly as each of its channels would, and a block
    column runs its channel's own arithmetic.  ``scales`` multiplies the
    channels' norms instead.
    """
    mask = rng.random((d, d)) < 0.5
    h0 = random_hermitian(rng, d) * (mask | mask.T | np.eye(d, dtype=bool))
    hc = random_hermitian(rng, d) * (mask | mask.T)
    hcs = []
    for k in range(n_channels):
        if scales is None:
            phase = np.exp(2j * np.pi * rng.random(d))
            hcs.append(phase[:, None] * hc * phase.conj()[None, :])
        else:
            hcs.append(scales[k % len(scales)] * random_hermitian(rng, d) * (mask | mask.T))
    wrap = sparse.from_dense if storage == "csr" else sparse.DenseMatrix
    problem = costs.ControlProblem(wrap(h0), tuple(wrap(h) for h in hcs), backend, 1e-10)
    field = costs.ControlField(1, n_channels, dt, 0.2 * rng.normal(size=(1, n_channels)))
    return problem, field, problem.step_evaluator(field, 0)


class TestControlOverlaps:
    @pytest.mark.parametrize("n_channels", [1, 3, 4, 5, 9])
    @pytest.mark.parametrize("storage", ["csr", "dense"])
    @pytest.mark.parametrize("backend", list(Backend))
    def test_match_single_channel_reference(self, rng, backend, storage, n_channels):
        d = 10
        step = make_overlap_step(rng, d, n_channels, backend, storage)[2]
        psi_n = random_state(rng, d)
        costates = np.array([random_state(rng, d), random_state(rng, d)])
        moved = [psi_n.copy() for _ in costates]
        got = np.array([step.pull_back(lam.copy(), p) for lam, p in zip(costates, moved)])
        psi = moved[0]
        want = np.array(
            [[np.vdot(lam, step.control_derivative(k, psi)) for k in range(n_channels)]
             for lam in costates]
        )
        assert got.shape == (2, n_channels)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_unequal_channel_norms_stay_certified(self, rng):
        d, n_channels, dt = 8, 5, 0.3
        problem, field, step = make_overlap_step(
            rng, d, n_channels, Backend.SCALING_SQUARING, "csr", dt, scales=(1.0, 10.0, 0.1)
        )
        tau = problem.tau
        psi_n = random_state(rng, d)
        # unit co-states read out every entry of every channel's derivative
        moved = [psi_n.copy() for _ in range(d)]
        derivs = np.array([step.pull_back(e, p) for e, p in zip(np.eye(d, dtype=complex), moved)])
        psi = moved[0]
        assert all(np.array_equal(p, psi) for p in moved)

        h_step = step.ctx.h_step
        stacked = np.concatenate([np.zeros(d, complex), psi])
        for k, hc in enumerate(problem.h_controls):
            exact = scipy_expm(dense_embedding(h_step, hc, dt)) @ stacked
            assert np.linalg.norm(derivs[:, k] - exact[:d]) <= tau
        # one plan for every channel, certified for the largest control norm
        plan = step._derivative_plan()
        norms = [hc.one_norm() for hc in problem.h_controls]
        assert plan.norm1_direction == dt * max(norms)
        assert plan.bound <= tau
        step_plan = step._step_plan()
        for norm, hc in zip(norms, problem.h_controls):
            own = expm.derivative_bound(
                step_plan.norm1, dt * norm, plan.costate.order, plan.costate.scaling,
                step_plan.sigma_prime, hc.max_row_nnz(), d, plan.state.order,
            )
            assert own <= plan.bound

    @pytest.mark.parametrize("n_costates", [1, 5])
    def test_eigen_path_never_densifies_a_csr_control(self, rng, monkeypatch, n_costates):
        d = 9
        step = make_overlap_step(rng, d, 3, Backend.DIAGONALIZATION, "csr")[2]
        densified = []
        real_to_dense = sparse.CsrMatrix.to_dense

        def recording_to_dense(self):
            densified.append(self)
            return real_to_dense(self)

        monkeypatch.setattr(sparse.CsrMatrix, "to_dense", recording_to_dense)
        h = step.ctx.h_step  # the factorization consumes it
        psi = random_state(rng, d)
        for _ in range(n_costates):
            step.pull_back(random_state(rng, d), psi)
        assert densified == [h]  # the eigensolver's input only

    def test_costate_shape_checked(self, rng):
        step = make_step(random_hermitian(rng, 4), [random_hermitian(rng, 4)], 0.2)
        with pytest.raises(ValueError, match="costate"):
            step.pull_back(random_state(rng, 4)[None, :], random_state(rng, 4))


def moved_stages(h, plan, scale, lam, psi_n):
    """Per stage of ``plan``, the co-state's ``m_d`` conjugated terms and the moved ``psi``.

    The stages of ``expm.move_pair`` on copies of ``lam`` and ``psi_n``:
    the terms ``u_i = B^i lambda / i!`` of the stage's start, as its
    ``terms`` array keeps them (``TestMovePair`` in ``test_expm_apply.py``
    pins them to the recursion), and ``psi`` moved under ``plan.state``.
    """
    d = psi_n.size
    costate, psi = lam.copy(), psi_n.copy()
    terms = np.empty((plan.costate.order, d), dtype=complex)
    spare, work = np.empty(d, dtype=complex), np.empty(d, dtype=complex)
    for _ in range(plan.costate.scaling):
        expm.move_pair(h, costate, psi, plan, scale, terms, spare, work)
        yield terms.conj(), psi.copy()


class TestPullBack:
    @pytest.mark.parametrize("n_costates", [1, 3])
    @pytest.mark.parametrize(
        "backend, storage, n_channels",
        [
            (Backend.SCALING_SQUARING, "csr", 2),
            (Backend.SCALING_SQUARING, "csr", 5),  # one full and one partial block
            (Backend.SCALING_SQUARING, "dense", 2),
            (Backend.DIAGONALIZATION, "csr", 2),
            (Backend.DIAGONALIZATION, "dense", 5),
        ],
    )
    def test_matches_derivatives_then_adjoint(
        self, rng, backend, storage, n_channels, n_costates
    ):
        d = 10
        problem, _, step = make_overlap_step(
            rng, d, n_channels, backend, storage, scales=(1.0, 3.0, 0.5)
        )
        psi_n = random_state(rng, d)
        costates = np.array([random_state(rng, d) for _ in range(n_costates)])
        moved = costates.copy()
        states = np.array([psi_n] * n_costates)
        got = np.array([step.pull_back(back, psi) for back, psi in zip(moved, states)])
        psi = states[0]
        assert np.linalg.norm(psi - step.adjoint(psi_n)) <= 2 * problem.tau
        want = np.array(
            [[np.vdot(lam, step.control_derivative(k, psi)) for k in range(n_channels)]
             for lam in costates]
        )
        assert got.shape == (n_costates, n_channels)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        for lam, back in zip(costates, moved):
            assert np.linalg.norm(back - step.adjoint(lam)) <= 2 * problem.tau

    @pytest.mark.parametrize("n_channels", [2, 5])
    def test_one_costate_moves_under_the_derivative_plan(self, rng, monkeypatch, n_channels):
        d = 8
        step = make_overlap_step(
            rng, d, n_channels, Backend.SCALING_SQUARING, "csr", scales=(1.0, 10.0, 0.1)
        )[2]
        psi_n, lam = random_state(rng, d), random_state(rng, d)
        plan = step._derivative_plan()
        assert plan.costate.scaling == plan.state.scaling
        assert max(plan.bound, plan.costate.bound, plan.state.bound) <= step.ctx.tau
        monkeypatch.setattr(
            derivatives.StepEvaluator, "adjoint", lambda self, v: pytest.fail("adjoint ran")
        )
        costate, psi = lam.copy(), psi_n.copy()
        step.pull_back(costate, psi)
        back = 1j * step.ctx.dt
        h = step.ctx.h_step
        # stage by stage, the scalars and products of one application each
        want = expm.apply(h, lam, plan.costate, validate=False, scale=back)
        assert np.array_equal(costate, want)
        assert np.array_equal(psi, expm.apply(h, psi_n, plan.state, validate=False, scale=back))

    @pytest.mark.parametrize("n_channels", [2, 5])
    def test_each_stage_sums_its_overlaps_from_zero(self, rng, n_channels):
        # the accumulation depth m_d + s that expm.derivative_bound charges, not m_d * s
        d = 8
        problem, _, step = make_overlap_step(
            rng, d, n_channels, Backend.SCALING_SQUARING, "csr", dt=1.5, scales=(1.0, 3.0)
        )
        plan = step._derivative_plan()
        s, m_d = plan.costate.scaling, plan.costate.order
        assert s >= 2
        psi_n, lam = random_state(rng, d), random_state(rng, d)
        got = step.pull_back(lam.copy(), psi_n.copy())

        h, ahead = step.ctx.h_step, -1j * step.ctx.dt / s
        want = np.zeros(n_channels, dtype=complex)
        for terms, psi in moved_stages(h, plan, 1j * step.ctx.dt, lam, psi_n):
            y, stage = psi.copy(), np.zeros(n_channels, dtype=complex)
            for i in range(m_d - 1, -1, -1):
                stage += np.concatenate(
                    [np.dot(op.matvec(y).reshape(-1, d), terms[i])
                     for op in problem._controls.stacks]
                ) * (1.0 / (i + 1))
                if i:
                    y = h.matvec(y) * (ahead / (i + 1)) + psi
            want += stage
        assert np.array_equal(got, want * ahead)

    @pytest.mark.parametrize(
        "tau, dt, orders, scaling",
        [
            (1e-8, 0.1, (7, 8), 1),  # solve_chain3's tau, dt and base amplitude
            (1e-10, 2.0, (23, 24), 2),
        ],
    )
    def test_unequal_orders_move_as_their_plans(self, rng, tau, dt, orders, scaling):
        # the pair's co-state row runs to m_d, its psi row stops at m, both in one pass
        h, hcs = models.build_qubit_chain(models.QubitChainParams(n_qubits=3))
        problem = costs.ControlProblem(h, tuple(hcs), Backend.SCALING_SQUARING, tau)
        step = problem.step_evaluator(costs.ControlField.constant(0.5, 1, len(hcs), dt), 0)
        plan = step._derivative_plan()
        assert (plan.state.order, plan.costate.order) == orders
        assert plan.state.scaling == plan.costate.scaling == scaling
        d, k = problem.dim, len(hcs)
        psi_n, lam = random_state(rng, d), random_state(rng, d)
        costate, psi = lam.copy(), psi_n.copy()
        got = step.pull_back(costate, psi)

        h, back, ahead = step.ctx.h_step, 1j * dt, -1j * dt / scaling
        assert np.array_equal(costate, expm.apply(h, lam, plan.costate, validate=False, scale=back))
        assert np.array_equal(psi, expm.apply(h, psi_n, plan.state, validate=False, scale=back))
        # the overlaps of the stage recursion, each stage summed from zero
        m_d = plan.costate.order
        want = np.zeros(k, dtype=complex)
        for terms, moved in moved_stages(h, plan, back, lam, psi_n):
            y, stage = moved.copy(), np.zeros(k, dtype=complex)
            for i in range(m_d - 1, -1, -1):
                stage += np.concatenate(
                    [np.dot(op.matvec(y).reshape(-1, d), terms[i])
                     for op in problem._controls.stacks]
                ) * (1.0 / (i + 1))
                if i:
                    y = h.matvec(y) * (ahead / (i + 1)) + moved
            want += stage
        assert np.array_equal(got, want * ahead)

    @pytest.mark.parametrize("storage", ["csr", "dense"])
    @pytest.mark.parametrize("d", [8, 27, 300])
    @pytest.mark.parametrize("n_channels", [1, 4, 6, 13])
    def test_stacked_overlaps_match_per_channel_products(self, rng, storage, d, n_channels):
        # the stage recursion with each channel contracted on its own: vdot(u_i, h_k Y_i)
        problem, _, step = make_overlap_step(
            rng, d, n_channels, Backend.SCALING_SQUARING, storage, dt=2.4 / d,
            scales=(1.0, 3.0, 0.5),
        )
        plan = step._derivative_plan()
        s, m_d = plan.costate.scaling, plan.costate.order
        psi_n, lam = random_state(rng, d), random_state(rng, d)
        got = step.pull_back(lam.copy(), psi_n.copy())

        h, ahead = step.ctx.h_step, -1j * step.ctx.dt / s
        want = np.zeros(n_channels, dtype=complex)
        for terms, psi in moved_stages(h, plan, 1j * step.ctx.dt, lam, psi_n):
            y = psi.copy()
            for i in range(m_d - 1, -1, -1):
                want += [np.dot(terms[i], hc.matvec(y)) / (i + 1) for hc in problem.h_controls]
                if i:
                    y = h.matvec(y) * (ahead / (i + 1)) + psi
        want *= ahead
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    @pytest.mark.parametrize("d", [8, 27, 255, 256, 300, 1024])
    @pytest.mark.parametrize("n_channels", [1, 4, 6, 13, 200])
    def test_contraction_buffer_is_bounded(self, d, n_channels):
        diagonal = sparse.build_csr([(i, i, 1.0 + i) for i in range(d)], d, d)
        problem = costs.ControlProblem(
            diagonal, (diagonal,) * n_channels, Backend.SCALING_SQUARING, 1e-10
        )
        step = problem.step_evaluator(costs.ControlField.constant(0.0, 1, n_channels, 0.1), 0)
        stacks, horner, parts = step._contraction(d)
        buffer = stacks[0][1] if stacks[0][1].base is None else stacks[0][1].base
        assert all(rows.base is None or rows.base is buffer for _, rows, _, _ in stacks)
        assert horner.size == d and np.shares_memory(horner, buffer) and parts.size == n_channels
        per_stack = problem._controls.per_stack
        assert buffer.size == min(n_channels, per_stack) * d
        assert buffer.size <= max(CHANNEL_BLOCK * d, STACK_ROWS)
        if d >= 256:  # the layout of large problems: CHANNEL_BLOCK channels to a stack
            assert per_stack == CHANNEL_BLOCK
        else:
            assert len(stacks) == -(-n_channels // (STACK_ROWS // d))

    @pytest.mark.parametrize("storage", ["csr", "dense"])
    @pytest.mark.parametrize("h_scale, dt", [(1.0, 0.3), (3.0, 0.6)])
    def test_products_per_step_do_not_depend_on_channels(
        self, rng, monkeypatch, storage, h_scale, dt
    ):
        d = 10
        wrap = sparse.from_dense if storage == "csr" else sparse.DenseMatrix
        h0 = random_hermitian(rng, d, scale=h_scale)
        hc = random_hermitian(rng, d, scale=0.05)
        kind = type(wrap(h0))
        real_product = kind._product
        counted = []

        # every product runs the unchecked one, which matvec calls after its checks
        def counting_product(self, v, out):
            counted.append(self)
            return real_product(self, v, out)

        monkeypatch.setattr(kind, "_product", counting_product)
        per_step = []
        for k in (1, 2, 5, 9):
            # equal channel norms and, at zero amplitudes, the same step: one plan for every K
            phases = np.exp(2j * np.pi * rng.random((k, d)))
            controls = tuple(wrap(p[:, None] * hc * p.conj()[None, :]) for p in phases)
            problem = costs.ControlProblem(wrap(h0), controls, Backend.SCALING_SQUARING, 1e-10)
            step = problem.step_evaluator(costs.ControlField.constant(0.0, 1, k, dt), 0)
            plan = step._derivative_plan()
            counted.clear()
            step.pull_back(random_state(rng, d), random_state(rng, d))
            products = sum(m is step.ctx.h_step for m in counted)
            m, m_d, s = plan.state.order, plan.costate.order, plan.costate.scaling
            assert products == plan.matvecs == m * s + (2 * m_d - 1) * s
            per_step.append(products)
        assert len(set(per_step)) == 1
        assert (plan.costate.scaling > 1) == (h_scale > 1)

    def test_dense_step_keeps_one_copy_of_its_hamiltonian(self, rng):
        d, k = 64, 3
        problem, field, step = make_overlap_step(rng, d, k, Backend.SCALING_SQUARING, "dense")
        psi, lam = random_state(rng, d), random_state(rng, d)
        step.pull_back(lam.copy(), psi.copy())  # plan the step and its derivative first
        assert problem._controls.stacks  # the problem's copy of its controls, built once
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            step.pull_back(lam, psi)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # a copy of H (or a d x 2d embedding row) per channel would add 16 d^2 bytes each
        assert kept < 16 * d * d, kept

    @pytest.mark.parametrize("dt, scaling", [(0.05, 1), (1.0, 2)])
    def test_taylor_step_peaks_at_terms_plus_moves_or_horner(self, dt, scaling):
        # m_d terms, then the engine's three vectors or the Horner vector and
        # the contraction buffer, never both
        h, hcs = models.build_qubit_chain(models.QubitChainParams(n_qubits=8))
        problem = costs.ControlProblem(h, tuple(hcs), Backend.SCALING_SQUARING, 1e-10)
        step = problem.step_evaluator(costs.ControlField.constant(0.3, 1, len(hcs), dt), 0)
        d, w = problem.dim, min(len(hcs), CHANNEL_BLOCK)
        psi, lam = models.fock_state(d, 0), models.fock_state(d, d - 1)
        step.pull_back(lam.copy(), psi.copy())  # plans the step and builds the stacks
        plan = step._derivative_plan()
        m_d = plan.costate.order
        assert plan.costate.scaling == scaling and w == CHANNEL_BLOCK
        peak = transient_peak(lambda: step.pull_back(lam, psi))
        assert peak <= 16 * d * (m_d + max(3, 1 + w)) + 8192, (peak, 16 * d)

    def test_taylor_step_holds_its_arrays_and_few_python_objects(self):
        # qubit_chain(3): d=8, K=6 channels in one stack.  The step's arrays are its
        # m_d terms, psi's term vector (the Horner vector after the moves) and the
        # w d contraction buffer; closures, lists or views built per Taylor term
        # would pass the 2 KiB left for the step's few Python objects
        h, hcs = models.build_qubit_chain(models.QubitChainParams(n_qubits=3))
        problem = costs.ControlProblem(h, tuple(hcs), Backend.SCALING_SQUARING, 1e-10)
        step = problem.step_evaluator(costs.ControlField.constant(0.3, 1, len(hcs), 0.1), 0)
        d, w = problem.dim, min(len(hcs), problem._controls.per_stack)
        psi, lam = models.fock_state(d, 0), models.fock_state(d, d - 1)
        step.pull_back(lam.copy(), psi.copy())  # plans the step and builds the stacks
        m_d = step._derivative_plan().costate.order
        assert (d, w, m_d) == (8, 6, 8)
        peak = transient_peak(lambda: step.pull_back(lam, psi))
        assert peak <= 16 * d * (m_d + 1 + w) + 2048, (peak, 16 * d)

    @pytest.mark.parametrize("real", [True, False])
    def test_eigen_step_peaks_at_the_arrays_it_reads(self, rng, real):
        # G and one more d x d array for the products; the kernel, its real
        # factor included, is formed a block of rows at a time
        d = 160
        h = random_real_symmetric(rng, d) if real else random_hermitian(rng, d)
        controls = tuple(sparse.DenseMatrix(random_real_symmetric(rng, d)) for _ in range(2))
        problem = costs.ControlProblem(
            sparse.DenseMatrix(h), controls, Backend.DIAGONALIZATION, 1e-10
        )
        step = problem.step_evaluator(costs.ControlField.constant(0.0, 1, 2, 0.3), 0)
        psi, lam = random_state(rng, d), random_state(rng, d)
        step.forward(psi)  # factorize the step first
        assert (step._factorization().eigvecs.dtype == np.float64) == real
        peak = transient_peak(lambda: step.pull_back(lam, psi))
        assert peak <= 2 * 16 * d * d + 16 * 16 * d, (peak, 16 * d * d)

    @pytest.mark.parametrize("real", [True, False])
    def test_eigen_gradient_holds_no_hamiltonian_beside_its_eigenbasis(self, rng, real):
        # a step's H is the eigensolver's input, scaled in place and released
        # with it, and no kernel factor is stored: the peak is step assembly
        # (the total and linear_combine's work buffer) beside the previous
        # step's eigenbasis, which the step memo still holds
        d, n_steps = 144, 10
        h = random_real_symmetric(rng, d) if real else random_hermitian(rng, d)
        controls = tuple(sparse.DenseMatrix(random_real_symmetric(rng, d)) for _ in range(2))
        problem = costs.ControlProblem(
            sparse.DenseMatrix(h), controls, Backend.DIAGONALIZATION, 1e-10
        )
        field = costs.ControlField(n_steps, 2, 0.02, 0.05 * rng.normal(size=(n_steps, 2)))
        psi0, target = random_state(rng, d), random_state(rng, d)

        def gradient():
            return costs.c1_state_grad(problem, field, psi0, target)

        gradient()  # warm up
        peak = transient_peak(gradient)
        limit = 2.75 if real else 3.25
        assert peak <= limit * 16 * d * d, (peak / (16 * d * d), limit)

    @pytest.mark.parametrize("storage", ["csr", "dense"])
    def test_eigen_step_releases_its_hamiltonian_when_it_factorizes(self, rng, storage):
        d = 12
        step = make_overlap_step(rng, d, 2, Backend.DIAGONALIZATION, storage)[2]
        h = step.ctx.h_step
        held = [weakref.ref(h)] + ([weakref.ref(h.array)] if storage == "dense" else [])
        del h
        step.forward(random_state(rng, d))
        assert [ref() for ref in held] == [None] * len(held)
        with pytest.raises(derivatives.HamiltonianReleasedError):
            step.ctx.h_step
        assert step.ctx.dim == d


class TestFrechetOracle:
    """Overlaps against ``scipy.linalg.expm_frechet``: within ``tau`` for unit vectors."""

    @staticmethod
    def check(h_dense, hc_denses, dt, storage, tau):
        d = h_dense.shape[0]
        wrap = sparse.from_dense if storage == "csr" else sparse.DenseMatrix
        problem = costs.ControlProblem(
            wrap(h_dense), tuple(wrap(hc) for hc in hc_denses), Backend.SCALING_SQUARING, tau
        )
        step = problem.step_evaluator(costs.ControlField.constant(0.0, 1, len(hc_denses), dt), 0)
        rng = np.random.default_rng(7)
        psi_n, lam = random_state(rng, d), random_state(rng, d)
        psi, costate = psi_n.copy(), lam.copy()
        got = step.pull_back(costate, psi)
        a = -1j * dt * h_dense
        want = [
            np.vdot(lam, expm_frechet(a, -1j * dt * hc, compute_expm=False) @ psi)
            for hc in hc_denses
        ]
        assert np.abs(got - want).max() <= tau
        back = scipy_expm(-a)
        assert np.linalg.norm(psi - back @ psi_n) <= tau
        assert np.linalg.norm(costate - back @ lam) <= tau
        return step

    @pytest.mark.parametrize("storage", ["csr", "dense"])
    def test_single_stage(self, rng, storage):
        d = 12
        h, hcs = random_hermitian(rng, d), [random_hermitian(rng, d) for _ in range(3)]
        step = self.check(h, hcs, 0.3, storage, 1e-10)
        assert step._derivative_plan().costate.scaling == 1

    @pytest.mark.parametrize("storage", ["csr", "dense"])
    def test_several_stages(self, rng, storage):
        d = 12
        h = random_hermitian(rng, d, scale=3.0)
        hcs = [random_hermitian(rng, d, scale=0.05) for _ in range(2)]
        step = self.check(h, hcs, 0.6, storage, 1e-10)
        plan = step._derivative_plan()
        assert plan.costate.scaling == step._step_plan().scaling > 1
        assert plan.state == step._step_plan()

    def test_plan_at_the_edge_of_its_bound(self, rng):
        d, tau = 10, 1e-10
        h, hc = random_hermitian(rng, d), random_hermitian(rng, d)
        sums = ControlOperators([sparse.from_dense(hc)])
        h_csr = sparse.from_dense(h)
        for dt in np.linspace(0.2, 0.4, 401):
            step_plan = expm.make_plan(dt * h_csr.one_norm(), h_csr.max_row_nnz(), tau)
            plan = expm.derivative_plan(step_plan, dt * sums.norm1, sums.max_row_nnz, d)
            if plan.bound > 0.9 * tau:
                break
        assert plan.bound > 0.9 * tau
        self.check(h, [hc], dt, "csr", tau)


def real_step_problem(rng, d, storage):
    """A real ``H_s`` with two real controls and a sigma_y-like one (``i`` times antisymmetric)."""
    mask = rng.random((d, d)) < 0.5
    mask = mask | mask.T
    h0 = random_real_symmetric(rng, d) * (mask | np.eye(d, dtype=bool))
    skew = rng.normal(size=(d, d)) * mask
    hcs = [random_real_symmetric(rng, d) * mask for _ in range(2)] + [1j * (skew - skew.T)]
    wrap = sparse.from_dense if storage == "csr" else sparse.DenseMatrix
    controls = tuple(wrap(h) for h in hcs)
    return costs.ControlProblem(wrap(h0), controls, Backend.DIAGONALIZATION, 1e-10)


def complex_diag_prepare(ctx):
    """The complex solver's factorization of the step: the reference for a real step."""
    w, vecs = np.linalg.eigh(ctx.release_hamiltonian().to_dense() * ctx.dt)
    eigvals = -1j * w.astype(np.complex128)
    return DiagFactorization(ctx.dim, vecs, eigvals, np.exp(eigvals))


def max_rel(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


class TestRealEigenbasis:
    @pytest.mark.parametrize("storage", ["csr", "dense"])
    def test_eigvecs_dtype_follows_the_hamiltonian(self, rng, storage):
        d = 8
        problem = real_step_problem(rng, d, storage)
        field = costs.ControlField(1, 3, 0.3, np.array([[0.4, -0.2, 0.0]]))
        fact = diag_prepare(problem.step_evaluator(field, 0).ctx)
        assert fact.eigvecs.dtype == np.float64
        # a nonzero amplitude on the sigma_y-like control makes the step complex
        field = field.replace_amplitudes(np.array([[0.4, -0.2, 0.1]]))
        fact = diag_prepare(problem.step_evaluator(field, 0).ctx)
        assert fact.eigvecs.dtype == np.complex128

    def test_real_path_invariants(self, rng):
        d, dt = 24, 0.6
        h = random_real_symmetric(rng, d)
        fact = diag_prepare(make_step(h, [], dt).ctx)
        assert fact.eigvecs.dtype == np.float64
        rebuilt = fact.eigvecs @ np.diag(fact.eigvals) @ fact.eigvecs.T
        norm1 = np.abs(dt * h).sum(axis=0).max()
        assert np.abs(rebuilt - (-1j * dt * h)).max() <= 1e-12 * norm1
        assert np.abs(fact.eigvecs @ fact.eigvecs.T - np.eye(d)).max() <= 1e-10
        assert np.abs(fact.eigvals.real).max() == 0.0
        assert np.abs(fact.kernel - fact.kernel.T).max() <= 1e-15
        assert np.abs(np.diag(fact.kernel) - fact.exp_eigvals).max() <= 1e-15

    @pytest.mark.parametrize("storage", ["csr", "dense"])
    @pytest.mark.parametrize("n_costates", [1, 5])
    def test_real_step_agrees_with_complex_solver(self, rng, monkeypatch, storage, n_costates):
        d = 10
        problem = real_step_problem(rng, d, storage)
        field = costs.ControlField(1, 3, 0.3, np.array([[0.4, -0.7, 0.0]]))
        psi = random_state(rng, d)
        costates = np.array([random_state(rng, d) for _ in range(n_costates)])

        def results(step):
            return [
                step.forward(psi),
                step.adjoint(psi),
                *(step.pull_back(lam.copy(), psi.copy()) for lam in costates),
                *(step.control_derivative(k, psi) for k in range(3)),
            ]

        step = problem.step_evaluator(field, 0)
        got = results(step)
        assert step._factorization().eigvecs.dtype == np.float64
        monkeypatch.setattr(derivatives, "diag_prepare", complex_diag_prepare)
        ref = problem.step_evaluator(field, 0)
        want = results(ref)
        assert ref._factorization().eigvecs.dtype == np.complex128
        for g, w in zip(got, want):
            assert max_rel(g, w) <= 1e-13

    @pytest.mark.parametrize("real", [True, False])
    def test_kernel_is_built_on_first_use(self, rng, real):
        d, dt = 9, 0.4
        h = random_real_symmetric(rng, d) if real else random_hermitian(rng, d)
        step = make_step(h, [random_hermitian(rng, d)], dt, Backend.DIAGONALIZATION)
        psi = random_state(rng, d)
        step.adjoint(step.forward(psi))
        fact = step._factorization()
        step.pull_back(psi.copy(), psi)
        # neither the kernel nor its real factor is stored: only vectors are cached
        cached = [v for v in vars(fact).values() if isinstance(v, np.ndarray) and v.ndim > 1]
        assert [a.shape for a in cached] == [(d, d)] and cached[0] is fact.eigvecs
        # the eager formula, from the eigenvalues of the solver diag_prepare picks for h
        w = np.linalg.eigh(h * dt)[0]
        half = np.exp(0.5 * fact.eigvals)
        eager = np.outer(half, half) * np.sinc((w[None, :] - w[:, None]) / (2 * np.pi))
        assert np.array_equal(fact.kernel, eager)


class TestEigenbasisArithmetic:
    """The in-place forms of the eigen backward step give the unshared forms' numbers."""

    @pytest.mark.parametrize("real", [True, False])
    def test_blocked_kernel_scaling_is_the_full_product(self, rng, real):
        d = 150  # the last block of rows is partial
        h = random_real_symmetric(rng, d) if real else random_hermitian(rng, d)
        fact = diag_prepare(make_step(h, [], 0.4, Backend.DIAGONALIZATION).ctx)
        g = np.multiply.outer(random_state(rng, d), random_state(rng, d))
        # in place, as the product was written: numpy's complex product is not
        # commutative bit for bit, and `g * kernel` may run as `kernel *= g`
        want = g.copy()
        want *= fact.kernel
        fact.scale_by_kernel(g)
        assert np.array_equal(g, want)

    @pytest.mark.parametrize("real", [True, False])
    def test_shared_buffers_give_the_unshared_products(self, rng, real):
        d = 40
        h = random_real_symmetric(rng, d) if real else random_hermitian(rng, d)
        s = diag_prepare(make_step(h, [], 0.4, Backend.DIAGONALIZATION).ctx).eigvecs
        assert (s.dtype == np.float64) == real
        g = np.multiply.outer(random_state(rng, d), random_state(rng, d))
        v = random_state(rng, d)
        if real:
            basis = derivatives._basis_product
            want = basis(s, basis(s, g).T)
            assert np.array_equal(derivatives._adjoint_product(s, v), basis(s.T, v))
        else:
            want = s @ g.T @ s.conj().T
            assert np.array_equal(derivatives._adjoint_product(s, v), s.conj().T @ v)
        assert np.array_equal(derivatives._transposed_congruence(s, g), want)


def fd_gradient(cost, field, eps=1e-6):
    grad = np.zeros_like(field.amplitudes)
    for idx in np.ndindex(grad.shape):
        up, dn = field.amplitudes.copy(), field.amplitudes.copy()
        up[idx] += eps
        dn[idx] -= eps
        diff = cost(field.replace_amplitudes(up)) - cost(field.replace_amplitudes(dn))
        grad[idx] = diff / (2 * eps)
    return grad


class TestRealModelGradients:
    """Gradients of a real model on the eigen backend, every step on the real path."""

    @pytest.fixture
    def problem(self):
        h, hcs = models.build_fluxonium_pair(models.FluxoniumPairParams(d_each=4))
        return costs.ControlProblem(h, tuple(hcs), Backend.DIAGONALIZATION, 1e-10)

    @pytest.fixture
    def field(self, rng):
        return costs.ControlField(3, 2, 0.1, rng.normal(size=(3, 2)))

    def test_steps_are_real(self, problem, field):
        for n in range(field.n_steps):
            assert diag_prepare(problem.step_evaluator(field, n).ctx).eigvecs.dtype == np.float64

    @pytest.mark.parametrize("grad_fn", ["c1", "c2", "c3"])
    def test_state_gradients_match_finite_differences(self, problem, field, grad_fn):
        d = problem.dim
        psi0 = models.fock_state(d, 0)
        if grad_fn == "c2":
            arg = sparse.from_dense(np.diag(np.arange(d, dtype=float)))
        else:
            arg = models.fock_state(d, 1)
        grad = getattr(costs, f"{grad_fn}_state_grad")
        result = grad(problem, field, psi0, arg)
        fd = fd_gradient(lambda f: grad(problem, f, psi0, arg).cost, field)
        assert np.linalg.norm(result.grad - fd) <= 1e-6 * np.linalg.norm(fd)

    def test_gate_gradient_matches_finite_differences(self, problem, field):
        target = models.hadamard_target(2, 4)
        result = costs.c1_gate_grad(problem, field, target)
        fd = fd_gradient(lambda f: costs.c1_gate_grad(problem, f, target).cost, field)
        assert np.linalg.norm(result.grad - fd) <= 1e-6 * np.linalg.norm(fd)


class TestComplexModelUnchanged:
    """A complex Hamiltonian keeps the complex solver's arithmetic bit for bit.

    The cost was recorded before the real-symmetric path existed and the
    gradient once the state pass carried a single co-state, with numpy
    2.4's bundled OpenBLAS on x86-64; another BLAS or CPU kernel may round
    differently.
    """

    def test_state_gradient(self):
        h, hcs = models.build_qubit_chain(models.QubitChainParams(n_qubits=3))
        problem = costs.ControlProblem(h, tuple(hcs), Backend.DIAGONALIZATION, 1e-10)
        # every sigma_y amplitude is nonzero, so every step is complex
        amps = ((np.arange(12).reshape(2, 6) % 5) - 2.5) / 2
        field = costs.ControlField(2, 6, 0.5, amps)
        psi0, target = models.fock_state(8, 0), models.fock_state(8, 7)
        result = costs.c1_state_grad(problem, field, psi0, target)
        assert result.cost == 0.9413564879781222
        assert np.array_equal(result.grad, [
            [0.03178804808743035, 0.012499209174433992, 0.02584960432948826,
             -0.15469607051240863, 0.03760454966045257, 0.0360863827617011],
            [0.013872993741562823, 0.015580364043894311, 0.014899430391309622,
             -0.08414817500899141, -0.029585143079256526, 0.041505293469919206],
        ])


class TestTaylorBackendUnchanged:
    """The scaling-and-squaring gradients keep their arithmetic bit for bit.

    Recorded at 671b06a, before the per-term scalars were cached, with
    numpy 2.4's bundled OpenBLAS on x86-64; another BLAS or CPU kernel may
    round differently.  The state gradient's first step runs two stages
    at unequal orders (``m = 23``, ``m_d = 24``); the gate gradient runs
    one stage per step.
    """

    def test_state_gradient(self):
        h, hcs = models.build_qubit_chain(models.QubitChainParams(n_qubits=3))
        problem = costs.ControlProblem(h, tuple(hcs), Backend.SCALING_SQUARING, 1e-10)
        amps = ((np.arange(12).reshape(2, 6) % 5) - 2.5) / 2
        field = costs.ControlField(2, 6, 1.5, amps)
        psi0, target = models.fock_state(8, 0), models.fock_state(8, 7)
        result = costs.c1_state_grad(problem, field, psi0, target)
        assert result.cost == 0.9905885280484688
        assert np.array_equal(result.grad, [
            [0.05230851743894055, 0.011593429926089634, -0.09014019073456042,
             -0.053736715062535904, 0.02198564955372232, 0.006750453735896559],
            [0.10187525880629086, 0.06694455383088815, 0.04054416168110559,
             -0.022244420753777517, -0.002855638058848949, 0.024322538959950672],
        ])

    def test_final_gate_gradient(self):
        h, hcs = models.build_three_transmons(models.ThreeTransmonParams(d_each=2))
        problem = costs.ControlProblem(h, tuple(hcs), Backend.SCALING_SQUARING, 1e-10)
        amps = ((np.arange(9).reshape(3, 3) % 4) - 1.5) * 0.8
        field = costs.ControlField(3, 3, 0.5, amps)
        result = costs.c1_gate_grad(problem, field, models.hadamard_target(3, 2))
        assert result.cost == 0.9942688762728372
        assert np.array_equal(result.grad, [
            [0.00957505942795973, 0.0015397638957698537, 0.009602361840526066],
            [0.00908666366619574, -0.001611640097044116, 0.010569217916631055],
            [0.00629582101884656, -0.0031159102435054297, 0.010828390682079563],
        ])
