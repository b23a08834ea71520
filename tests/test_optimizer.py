"""Optimization loop: convergence, monotonicity, determinism, counted evaluations."""

import numpy as np
import pytest

from leangrape import costs, models, optimizer, sparse
from leangrape.costs import CostKind, CostTerm
from leangrape.derivatives import StepEvaluator

from conftest import random_hermitian, random_state

SX = np.array([[0, 1], [1, 0]], complex)


def rabi_problem(tau=1e-10):
    """Single qubit, one sigma_x channel, transfer |0> -> |1>."""
    problem = costs.ControlProblem(
        sparse.build_csr([], 2, 2),
        (sparse.from_dense(SX),),
        tau=tau,
        initial_state=np.array([1.0, 0.0], complex),
    )
    terms = [
        CostTerm(CostKind.STATE_INFIDELITY, 1.0, target_state=np.array([0.0, 1.0], complex))
    ]
    return problem, terms


class TestGrapeOptimize:
    @pytest.mark.parametrize("schedule", optimizer.ETA_SCHEDULES)
    def test_zero_gradient_terminates_immediately(self, rng, schedule):
        d = 3
        problem = costs.ControlProblem(
            sparse.from_dense(random_hermitian(rng, d)),
            (sparse.build_csr([], d, d),),  # control couples to nothing
            initial_state=random_state(rng, d),
        )
        terms = [
            CostTerm(CostKind.STATE_INFIDELITY, 1.0, target_state=random_state(rng, d))
        ]
        a0 = costs.ControlField.constant(0.3, 4, 1, 0.2)
        cfg = optimizer.OptimizerConfig(
            max_iters=10, eta_schedule=schedule, stop_grad_norm=1e-12
        )
        trace = optimizer.grape_optimize(problem, terms, a0, cfg)
        assert trace.stop_reason == "stop_grad_norm"
        assert len(trace.records) == 1
        assert trace.cost_evals == 0
        assert np.array_equal(trace.final_field.amplitudes, a0.amplitudes)

    def test_rabi_transfer_converges(self):
        problem, terms = rabi_problem()
        a0 = costs.ControlField.constant(0.1, 10, 1, 0.1)
        cfg = optimizer.OptimizerConfig(
            max_iters=200, eta0=0.1, eta_schedule="backtracking", stop_cost=1e-7
        )
        trace = optimizer.grape_optimize(problem, terms, a0, cfg)
        assert trace.final_cost <= 1e-6
        assert trace.stop_reason == "stop_cost"

    @pytest.mark.parametrize("schedule", ["backtracking", "lbfgs"])
    def test_backtracking_costs_non_increasing(self, rng, schedule):
        for seed in range(20):
            local = np.random.default_rng(seed)
            d, n, k = 4, 5, 2
            psi0 = random_state(local, d)
            problem = costs.ControlProblem(
                sparse.from_dense(random_hermitian(local, d)),
                tuple(sparse.from_dense(random_hermitian(local, d)) for _ in range(k)),
                tau=1e-10,
                initial_state=psi0,
            )
            terms = [
                CostTerm(
                    CostKind.STATE_INFIDELITY, 1.0, target_state=random_state(local, d)
                )
            ]
            a0 = costs.ControlField(n, k, 0.2, local.normal(scale=0.3, size=(n, k)))
            cfg = optimizer.OptimizerConfig(max_iters=15, eta0=0.5, eta_schedule=schedule)
            trace = optimizer.grape_optimize(problem, terms, a0, cfg)
            cost_seq = [r.cost for r in trace.records]
            assert all(a >= b - 1e-15 for a, b in zip(cost_seq, cost_seq[1:]))

    def test_constant_schedule_runs_to_budget(self):
        problem, terms = rabi_problem()
        a0 = costs.ControlField.constant(0.1, 5, 1, 0.1)
        cfg = optimizer.OptimizerConfig(
            max_iters=5, eta0=0.05, eta_schedule="constant"
        )
        trace = optimizer.grape_optimize(problem, terms, a0, cfg)
        assert len(trace.records) == 5
        assert trace.stop_reason == "max_iters"

    @pytest.mark.parametrize("schedule", ["backtracking", "lbfgs"])
    def test_deterministic_traces(self, schedule):
        problem, terms = rabi_problem()
        a0 = costs.ControlField.constant(0.1, 8, 1, 0.1)
        cfg = optimizer.OptimizerConfig(max_iters=30, eta0=0.2, eta_schedule=schedule)
        t1 = optimizer.grape_optimize(problem, terms, a0, cfg)
        t2 = optimizer.grape_optimize(problem, terms, a0, cfg)
        assert [r.cost for r in t1.records] == [r.cost for r in t2.records]
        assert [r.grad_inf_norm for r in t1.records] == [
            r.grad_inf_norm for r in t2.records
        ]
        assert np.array_equal(t1.final_field.amplitudes, t2.final_field.amplitudes)

    def test_csv_lines_shape(self):
        problem, terms = rabi_problem()
        a0 = costs.ControlField.constant(0.1, 4, 1, 0.1)
        cfg = optimizer.OptimizerConfig(max_iters=3)
        trace = optimizer.grape_optimize(problem, terms, a0, cfg)
        lines = trace.to_csv_lines()
        assert lines[0] == "iter,cost,grad_inf_norm,eta,wall_ms"
        assert len(lines) == len(trace.records) + 1

    def test_config_validation(self):
        with pytest.raises(ValueError):
            optimizer.OptimizerConfig(eta0=-1.0)
        with pytest.raises(ValueError):
            optimizer.OptimizerConfig(eta_schedule="adam")
        with pytest.raises(ValueError):
            optimizer.OptimizerConfig(shrink=1.5)

    @pytest.mark.parametrize("max_iters", [2.5, 0, -3, "10"])
    def test_max_iters_must_be_a_positive_integer(self, max_iters):
        with pytest.raises(ValueError, match="max_iters must be a positive integer"):
            optimizer.OptimizerConfig(max_iters=max_iters)

    def test_line_search_cap_is_a_constant(self):
        assert optimizer.MAX_BACKTRACKS == 60
        with pytest.raises(TypeError):
            optimizer.OptimizerConfig(max_backtracks=4)

    @pytest.mark.parametrize("name", ["eta0", "grow", "stop_cost", "stop_grad_norm"])
    def test_nan_config_refused(self, name):
        with pytest.raises(ValueError, match=f"{name} must"):
            optimizer.OptimizerConfig(**{name: float("nan")})

    def test_divergence_aborts_with_partial_trace(self):
        # a wildly large constant step blows the amplitudes up; the run must
        # return what it recorded so far instead of raising
        problem, terms = rabi_problem()
        a0 = costs.ControlField.constant(0.1, 5, 1, 0.1)
        cfg = optimizer.OptimizerConfig(
            max_iters=400, eta0=1e9, eta_schedule="constant"
        )
        trace = optimizer.grape_optimize(problem, terms, a0, cfg)
        assert trace.records
        assert trace.stop_reason.startswith("evaluation_failure") or trace.stop_reason in (
            "max_iters",
            "stop_cost",
        )


class TestLbfgs:
    def test_rabi_needs_fewer_gradients_than_backtracking(self):
        problem, terms = rabi_problem()
        a0 = costs.ControlField.constant(0.1, 10, 1, 0.1)
        traces = {}
        for schedule in ("backtracking", "lbfgs"):
            cfg = optimizer.OptimizerConfig(
                max_iters=200, eta0=0.1, eta_schedule=schedule, stop_cost=1e-7
            )
            traces[schedule] = optimizer.grape_optimize(problem, terms, a0, cfg)
            assert traces[schedule].stop_reason == "stop_cost"
        assert len(traces["lbfgs"].records) < len(traces["backtracking"].records)

    def test_default_schedule_is_lbfgs(self):
        assert optimizer.OptimizerConfig().eta_schedule == "lbfgs"

    @pytest.mark.parametrize("schedule", ["backtracking", "lbfgs"])
    def test_all_rejected_line_search_stalls(self, monkeypatch, schedule):
        problem, terms = rabi_problem()
        a0 = costs.ControlField.constant(0.1, 5, 1, 0.1)
        monkeypatch.setattr(optimizer, "composite_cost", lambda *args: float("inf"))
        monkeypatch.setattr(optimizer, "MAX_BACKTRACKS", 4)
        cfg = optimizer.OptimizerConfig(max_iters=10, eta_schedule=schedule)
        trace = optimizer.grape_optimize(problem, terms, a0, cfg)
        assert trace.stop_reason == "line_search_stalled"
        assert len(trace.records) == 1
        assert trace.cost_evals == 4
        assert np.array_equal(trace.final_field.amplitudes, a0.amplitudes)

    @pytest.mark.parametrize("schedule", optimizer.ETA_SCHEDULES)
    def test_one_record_per_gradient_and_counted_costs(self, monkeypatch, schedule):
        calls = {"grad": 0, "cost": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(
            optimizer, "composite_grad", counted("grad", optimizer.composite_grad)
        )
        monkeypatch.setattr(
            optimizer, "composite_cost", counted("cost", optimizer.composite_cost)
        )
        problem, terms = rabi_problem()
        a0 = costs.ControlField.constant(0.1, 10, 1, 0.1)
        cfg = optimizer.OptimizerConfig(
            max_iters=200, eta0=0.1, eta_schedule=schedule, stop_cost=1e-7
        )
        trace = optimizer.grape_optimize(problem, terms, a0, cfg)
        assert calls["grad"] == len(trace.records)
        assert calls["cost"] == trace.cost_evals
        if schedule == "lbfgs":
            assert trace.stop_reason == "stop_cost"
            assert trace.records[0].eta_used == 0.0
            assert all(r.eta_used > 0.0 for r in trace.records[1:])

    def test_curvature_check_and_initial_scaling(self):
        history = optimizer._LbfgsHistory()
        s = np.array([[1.0, -2.0], [0.5, 0.0]])
        history.push(s, -s)
        history.push(s, np.array([[2.0, 1.0], [0.0, 1.0]]))  # s.y = 0
        assert not history.pairs
        history.push(s, 3.0 * s)
        assert len(history.pairs) == 1
        # one pair with y = 3 s: H_0 = (s.y / y.y) I = I / 3 is also the update
        grad = np.array([[0.5, 1.0], [-2.0, 0.25]])
        assert np.allclose(history.direction(grad), -grad / 3.0, rtol=1e-14, atol=0.0)

    def test_two_loop_recursion_is_newton_step_on_a_quadratic(self):
        # conjugate steps on f = x.A x / 2 with diagonal A give H = A^-1 exactly
        lam = np.array([0.5, 2.0, 7.0, 30.0])
        history = optimizer._LbfgsHistory()
        for i in range(lam.size):
            s = np.zeros((lam.size, 1))
            s[i] = 1.0 + i
            history.push(s, lam[:, None] * s)
        grad = np.array([[1.0], [-3.0], [0.25], [4.0]])
        expected = -grad / lam[:, None]
        assert np.allclose(history.direction(grad), expected, rtol=1e-13, atol=0.0)

    def test_history_keeps_the_newest_pairs(self):
        history = optimizer._LbfgsHistory()
        pushed = []
        for i in range(optimizer.LBFGS_MEMORY + 2):
            s = np.full((3, 2), 1.0 + i)
            y = 2.0 * s  # positive curvature: every pair is stored
            history.push(s, y)
            pushed.append((s, y))
        assert len(history.pairs) == optimizer.LBFGS_MEMORY
        # the two oldest pairs are dropped and the rest keep their order
        for (s, y, rho), (s_in, y_in) in zip(history.pairs, pushed[2:]):
            assert s is s_in and y is y_in
            assert rho == 1.0 / float(np.vdot(s_in, y_in))

    def test_history_is_bounded_in_control_space(self):
        problem, terms = rabi_problem()
        n_steps = 10
        a0 = costs.ControlField.constant(0.1, n_steps, 1, 0.1)
        seen = []
        real_push = optimizer._LbfgsHistory.push

        def push(self, s, y):
            real_push(self, s, y)
            seen.append((len(self.pairs), s.shape, y.shape))

        cfg = optimizer.OptimizerConfig(max_iters=40, stop_cost=1e-14)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(optimizer._LbfgsHistory, "push", push)
            optimizer.grape_optimize(problem, terms, a0, cfg)
        assert seen
        assert max(n for n, _, _ in seen) <= optimizer.LBFGS_MEMORY
        assert {shape for _, s, y in seen for shape in (s, y)} == {(n_steps, 1)}


def chain3_problem(gate=False):
    """``qubit_chain(3)``, ``|000> -> |111>``, and a seeded start (the benchmark's solve)."""
    h_static, h_controls = models.build_qubit_chain(models.QubitChainParams(n_qubits=3))
    d = h_static.n_rows
    problem = costs.ControlProblem(
        h_static, tuple(h_controls), tau=1e-8, initial_state=models.fock_state(d, 0)
    )
    terms = [CostTerm(CostKind.STATE_INFIDELITY, 1.0, target_state=models.fock_state(d, d - 1))]
    if gate:
        omega = sparse.from_dense(np.diag(np.linspace(0.0, 1.0, d)).astype(complex))
        terms += [
            CostTerm(CostKind.STATE_PENALTY, 0.1, penalty_op=omega),
            CostTerm(CostKind.GATE_INFIDELITY, 0.3, target_gate=np.eye(d, dtype=complex)),
        ]
    rng = np.random.default_rng(1)
    k = len(h_controls)
    a0 = costs.ControlField(20, k, 0.1, 0.5 * (1.0 + 0.1 * rng.standard_normal((20, k))))
    return problem, terms, a0


class TestSweepHandOver:
    """The accepted trial's state sweep seeds the gradient's backward pass."""

    @staticmethod
    def solve(problem, terms, a0, schedule):
        cfg = optimizer.OptimizerConfig(
            max_iters=30, eta0=0.1, eta_schedule=schedule, stop_cost=1e-4
        )
        trace = optimizer.grape_optimize(problem, terms, a0, cfg)
        return (
            [(r.cost, r.grad_inf_norm, r.eta_used) for r in trace.records],
            trace.final_field.amplitudes.tobytes(),
            trace.stop_reason,
            trace.cost_evals,
        )

    @pytest.mark.parametrize("case", ["rabi", "chain3", "chain3+gate"])
    @pytest.mark.parametrize("schedule", ["backtracking", "lbfgs"])
    def test_trace_bit_identical_to_fresh_gradients(self, monkeypatch, schedule, case):
        if case == "rabi":
            problem, terms = rabi_problem()
            a0 = costs.ControlField.constant(0.1, 10, 1, 0.1)
        else:
            problem, terms, a0 = chain3_problem(gate=case.endswith("gate"))
        handed_over = self.solve(problem, terms, a0, schedule)
        # the gradient without the record sweeps forward itself
        monkeypatch.setattr(
            optimizer, "composite_grad", lambda *args: costs.composite_grad(*args[:3])
        )
        fresh = self.solve(problem, terms, a0, schedule)
        assert handed_over == fresh
        assert len(handed_over[0]) > 2

    @pytest.mark.parametrize("schedule", ["backtracking", "lbfgs"])
    def test_one_forward_sweep_per_trial(self, monkeypatch, schedule):
        problem, terms, a0 = chain3_problem()
        calls = {"forward": 0, "pull_back": 0}
        for name in calls:
            original = getattr(StepEvaluator, name)

            def counted(self, *args, _original=original, _name=name):
                calls[_name] += 1
                return _original(self, *args)

            monkeypatch.setattr(StepEvaluator, name, counted)
        cfg = optimizer.OptimizerConfig(max_iters=30, eta0=0.1, eta_schedule=schedule)
        trace = optimizer.grape_optimize(problem, terms, a0, cfg)
        n = a0.n_steps
        assert trace.cost_evals > 0
        assert calls["forward"] == (trace.cost_evals + 1) * n
        assert calls["pull_back"] == len(trace.records) * n
