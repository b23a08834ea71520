"""Acceptance suite: one test per exit criterion, one verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines; add ``-m "not slow"`` to skip the long runtime-scaling criterion.

Two facts discovered while building the suite shape how some criteria
are checked; both are analyzed in detail in the repository notes:

* The certified error bound has a rounding floor of roughly
  ``2e-14 * norm1`` in binary64, so tolerance 1e-12 is provably
  unreachable once the generator one-norm exceeds about 50.  Criteria 1
  and 4 therefore assert their claims over every (case, tolerance)
  combination that admits a certified plan, and assert that every
  refusal happens in the provably infeasible regime.
* The transmon-cavity one-norm is dominated by the dimension-independent
  transmon diagonal throughout the benchmark range (the square-root
  coupling growth overtakes it only around cavity dimension 50000), so
  the dimension-scaling exponent for that model comes out near 0.2, not
  0.5.  Criterion 5 asserts the stated band and fails honestly there.
"""

import numpy as np
import pytest

from leangrape import bench, costs, expm, models, optimizer, sparse
from leangrape.bench import KappaScaling, MuScaling, StrategyMethod, Task
from leangrape.costs import CostKind, CostTerm, VectorMeter
from leangrape.derivatives import (
    CHANNEL_BLOCK,
    Backend,
    derivative_action_diag,
    diag_prepare,
)

from conftest import expm_action_oracle, make_step, random_hermitian, random_state

TAUS = (1e-4, 1e-8, 1e-12)

#: Every observed planning refusal at the tight tolerance happens above
#: this one-norm; the exact ceiling depends on the per-row element count
#: through the rounding floor (about 2e-14 * norm1 at sigma' = 5, higher
#: for denser rows).  The planner's scan is exhaustive over the provable
#: search region, so a refusal is itself the infeasibility certificate;
#: this constant only sanity-checks that refusals stay in the expected
#: regime.
TIGHT_TAU_NORM_FLOOR_MIN = 15.0


def _verdict(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} [{name}]: {status} {detail}")


def _fixture_generator(model, size, dt):
    h_static, h_controls, amps = bench.build_model(model, size)
    combined = sparse.linear_combine([1.0, *amps], [h_static, *h_controls])
    return combined


class TestCriterion1CertifiedAccuracy:
    def test_certified_expm_accuracy(self, rng):
        """Relative error vs the dense-diagonalization oracle stays below tau."""
        evaluated = 0
        refused = []
        worst = 0.0

        # random anti-Hermitian panel
        for _ in range(110):
            d = int(rng.integers(4, 65))
            dense = random_hermitian(rng, d) * -1j
            a = sparse.from_dense(dense)
            target = float(rng.uniform(0.1, 25.0))
            dense *= target / a.one_norm()
            a = sparse.from_dense(dense)
            psi = random_state(rng, d)
            for tau in TAUS:
                try:
                    plan = expm.make_plan(a.one_norm(), a.max_row_nnz(), tau)
                except expm.PlanningError:
                    refused.append((a.one_norm(), tau))
                    continue
                out = expm.apply(a, psi, plan)
                want = expm_action_oracle(dense, psi)
                rel = np.linalg.norm(out - want) / np.linalg.norm(want)
                worst = max(worst, rel / tau)
                assert rel <= tau
                evaluated += 1

        # model fixtures across the time-step sweep
        for model, size in (("transmon_cavity", 50), ("three_transmons", 6)):
            h = _fixture_generator(model, size, 1.0)
            h_dense = h.to_dense()
            w, v = np.linalg.eigh(h_dense)
            psi = random_state(rng, h.n_rows)
            for dt in np.linspace(1.0, 10.0, 10):
                a = h.scaled(-1j * dt)
                want = v @ (np.exp(-1j * w * dt) * (v.conj().T @ psi))
                for tau in TAUS:
                    try:
                        plan = expm.make_plan(a.one_norm(), a.max_row_nnz(), tau)
                    except expm.PlanningError:
                        refused.append((a.one_norm(), tau))
                        continue
                    out = expm.apply(a, psi, plan)
                    rel = np.linalg.norm(out - want) / np.linalg.norm(want)
                    worst = max(worst, rel / tau)
                    assert rel <= tau
                    evaluated += 1

        # refusals may only happen at the tight tolerance, in the
        # rounding-floor regime
        for norm1, tau in refused:
            assert tau == 1e-12 and norm1 > TIGHT_TAU_NORM_FLOOR_MIN
        assert evaluated >= 300
        _verdict(
            1,
            "certified expm accuracy",
            True,
            f"{evaluated} certified evaluations, worst rel_err/tau = {worst:.3f}, "
            f"{len(refused)} provably-infeasible refusals at tau=1e-12",
        )


class TestCriterion2GradientCorrectness:
    def test_gradients_match_finite_differences(self, rng):
        """Fifty random instances, five cost kinds, both backends."""
        kinds = list(CostKind)
        backends = (Backend.SCALING_SQUARING, Backend.DIAGONALIZATION)
        checked = 0
        worst = 0.0
        for i in range(50):
            kind = kinds[i % len(kinds)]
            backend = backends[(i // len(kinds)) % 2]
            d = int(rng.integers(2, 9))
            n = int(rng.integers(1, 6))
            k = int(rng.integers(1, 3))
            hs = sparse.from_dense(random_hermitian(rng, d))
            hcs = tuple(sparse.from_dense(random_hermitian(rng, d)) for _ in range(k))
            problem = costs.ControlProblem(hs, hcs, backend, 1e-12)
            field = costs.ControlField(n, k, 0.3, rng.normal(scale=0.4, size=(n, k)))
            psi0, phi = random_state(rng, d), random_state(rng, d)
            omega = sparse.from_dense(random_hermitian(rng, d))
            u_target, _ = np.linalg.qr(
                rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            )

            def evaluate(f):
                if kind is CostKind.STATE_INFIDELITY:
                    return costs.c1_state_grad(problem, f, psi0, phi)
                if kind is CostKind.STATE_PENALTY:
                    return costs.c2_state_grad(problem, f, psi0, omega)
                if kind is CostKind.STATE_RUNNING_INFIDELITY:
                    return costs.c3_state_grad(problem, f, psi0, phi)
                if kind is CostKind.GATE_INFIDELITY:
                    return costs.c1_gate_grad(problem, f, u_target)
                return costs.c3_gate_grad(problem, f, u_target)

            grad = evaluate(field).grad
            eps = 1e-6
            fd = np.zeros_like(grad)
            for nn in range(n):
                for kk in range(k):
                    up = field.amplitudes.copy()
                    up[nn, kk] += eps
                    dn = field.amplitudes.copy()
                    dn[nn, kk] -= eps
                    fd[nn, kk] = (
                        evaluate(field.replace_amplitudes(up)).cost
                        - evaluate(field.replace_amplitudes(dn)).cost
                    ) / (2 * eps)
            denom = max(np.linalg.norm(fd), 1e-12)
            rel = np.linalg.norm(grad - fd) / denom
            worst = max(worst, rel)
            assert rel <= 1e-6, f"instance {i}: {kind} {backend} rel={rel:.2e}"
            checked += 1
        assert checked == 50
        _verdict(2, "gradient correctness", True, f"50 instances, worst rel = {worst:.2e}")


class TestCriterion3ConstantMemory:
    def test_live_vector_peak_independent_of_steps(self, rng):
        h_static, h_controls, _ = bench.build_model("qubit_chain", 6)  # d = 64
        problem = costs.ControlProblem(h_static, tuple(h_controls), tau=1e-8)
        psi0 = models.fock_state(64, 0)
        phi = models.fock_state(64, 63)
        peaks = {}
        for n in (10, 100, 1000):
            field = costs.ControlField.constant(0.05, n, len(h_controls), 0.02)
            peaks[n] = costs.c1_state_grad(problem, field, psi0, phi).live_vector_peak
        assert peaks[10] == peaks[100] == peaks[1000]

        # contrast: a trajectory-storing variant grows linearly with N
        def stored_trajectory_peak(n):
            field = costs.ControlField.constant(0.05, n, len(h_controls), 0.02)
            meter = VectorMeter(64)
            psi = meter.grab(psi0.copy())
            trajectory = [psi]
            for step in range(n):
                psi = meter.grab(problem.step_evaluator(field, step).forward(psi))
                trajectory.append(psi)
            for vec in trajectory:
                meter.release(vec)
            return meter.peak

        grow = {n: stored_trajectory_peak(n) for n in (10, 100)}
        assert grow[100] - grow[10] == 90
        _verdict(
            3,
            "constant-memory contract",
            True,
            f"forward-backward peak {peaks[10]} at N=10,100,1000; "
            f"stored-trajectory peak grows {grow[10]} -> {grow[100]}",
        )


class TestCriterion4MuNormLinearity:
    def test_mu_linear_in_norm(self):
        dts = np.linspace(1.0, 10.0, 15)
        results = []
        for model, size in (("transmon_cavity", 50), ("three_transmons", 6)):
            for tau in TAUS:
                records = bench.mu_vs_norm_sweep(model, size, dts, tau)
                feasible = [r for r in records if r.matvecs is not None]
                infeasible = [r for r in records if r.matvecs is None]
                for r in infeasible:
                    assert tau == 1e-12 and r.norm1 > TIGHT_TAU_NORM_FLOOR_MIN
                if len(feasible) >= 4:
                    xs = np.array([r.norm1 for r in feasible])
                    ys = np.array([float(r.matvecs) for r in feasible])
                    slope, intercept = np.polyfit(xs, ys, 1)
                    pred = slope * xs + intercept
                    r2 = 1 - ((ys - pred) ** 2).sum() / ((ys - ys.mean()) ** 2).sum()
                    assert r2 >= 0.98, f"{model} tau={tau}: R^2 = {r2:.4f}"
                    results.append(f"{model[:7]}@{tau:g}: R2={r2:.4f}")
                else:
                    # the tight tolerance is certifiable for at most one
                    # sweep point before the rounding floor cuts in
                    assert tau == 1e-12
                    results.append(f"{model[:7]}@{tau:g}: bound floor, {len(feasible)} pts")
        _verdict(4, "mu-norm linearity", True, "; ".join(results))


class TestCriterion5MuDimensionExponents:
    def test_transmon_cavity_exponent(self):
        """Asserts the square-root band; fails honestly at these parameters.

        The transmon diagonal (detuning times occupation, constant in the
        cavity dimension) dominates the one-norm across the whole sweep,
        so the measured exponent sits near 0.2.  The asymptotic 1/2 law
        only takes over around cavity dimension 50000.
        """
        records = bench.mu_vs_dim_sweep(
            "transmon_cavity", (50, 75, 100, 150, 200, 300, 400, 600), 1e-8, dt=0.1
        )
        fit = bench.fit_power_law([(r.d, r.matvecs) for r in records])
        ok = abs(fit.exponent - 0.5) <= 0.1
        _verdict(
            5,
            "mu(d) exponent, transmon-cavity",
            ok,
            f"measured {fit.exponent:.3f} vs 0.5 +- 0.1 "
            "(transmon diagonal dominates the norm at benchmark scale; see notes)",
        )
        assert ok, (
            f"transmon-cavity mu(d) exponent {fit.exponent:.3f} outside 0.5 +- 0.1; "
            "known-unattainable at the pinned parameters (see repository notes)"
        )

    def test_three_transmon_exponent(self):
        records = bench.mu_vs_dim_sweep("three_transmons", range(4, 11), 1e-8, dt=0.2)
        fit = bench.fit_power_law([(r.d, r.matvecs) for r in records])
        ok = abs(fit.exponent - 0.67) <= 0.1
        _verdict(5, "mu(d) exponent, three-transmon", ok, f"measured {fit.exponent:.3f}")
        assert ok

    def test_qubit_chain_log_linearity(self):
        records = bench.mu_vs_dim_sweep("qubit_chain", range(2, 13), 1e-8, dt=0.1)
        xs = np.array([np.log2(r.d) for r in records])
        ys = np.array([float(r.matvecs) for r in records])
        slope, intercept = np.polyfit(xs, ys, 1)
        pred = slope * xs + intercept
        r2 = 1 - ((ys - pred) ** 2).sum() / ((ys - ys.mean()) ** 2).sum()
        ok = r2 >= 0.95
        _verdict(5, "mu vs log2(d), qubit chain", ok, f"R2 = {r2:.4f}")
        assert ok

    def test_fluxonium_exponent_reported(self):
        records = bench.mu_vs_dim_sweep("fluxonium_pair", (8, 12, 16, 22, 30, 40), 1e-8, dt=0.2)
        fit = bench.fit_power_law([(r.d, r.matvecs) for r in records])
        assert np.isfinite(fit.exponent)
        _verdict(
            5,
            "mu(d) exponent, fluxonium pair",
            True,
            f"reported {fit.exponent:.3f} (not asserted: flux-placement convention)",
        )


@pytest.mark.slow
class TestCriterion6RuntimeScaling:
    def test_state_transfer_runtime_exponent(self):
        # The points are milliseconds, so minutes-scale external load can
        # corrupt a single sweep.  Three interleaved sweeps are taken and
        # each point keeps its fastest median, which discards measurement
        # windows that hit background contention.
        sizes = (17, 25, 34, 50, 75, 100)

        def sweep():
            return [
                bench.measure_step_runtime(
                    "transmon_cavity", size, Task.STATE_TRANSFER, 1e-8,
                    reps=5, dt=0.1, storage="dense",
                )
                for size in sizes
            ]

        runs = [sweep() for _ in range(3)]
        records = runs[0]
        assert all(r.kappa >= r.d * r.d for r in records)
        walls = [min(run[i].wall_ns for run in runs) for i in range(len(sizes))]
        fit = bench.fit_power_law(
            [(r.d, w) for r, w in zip(records, walls)]
        )
        ok = abs(fit.exponent - 2.5) <= 0.4
        _verdict(
            6, "state-transfer runtime exponent", ok,
            f"measured {fit.exponent:.3f} vs 2.5 +- 0.4 over d in [102, 600]",
        )
        assert ok, f"state-transfer runtime exponent {fit.exponent:.3f}"

    def test_gate_runtime_exponent(self):
        records = [
            bench.measure_step_runtime(
                "three_transmons", size, Task.GATE, 1e-8,
                reps=5, dt=0.1, storage="dense",
            )
            for size in (4, 5, 6, 7, 8)
        ]
        fit = bench.fit_power_law([(r.d, r.wall_ns) for r in records])
        ok = abs(fit.exponent - 11.0 / 3.0) <= 0.4
        _verdict(
            6, "gate runtime exponent", ok,
            f"measured {fit.exponent:.3f} vs 3.667 +- 0.4 over d in [64, 512]",
        )
        assert ok, f"gate runtime exponent {fit.exponent:.3f}"


class TestCriterion7BackendEquivalence:
    def test_derivative_backends_agree(self, rng):
        worst = 0.0
        for i in range(50):
            d = int(rng.integers(3, 33))
            if i == 0:
                h0 = np.diag(np.repeat([1.0, 2.0], [2, d - 2])).astype(complex)
            else:
                h0 = random_hermitian(rng, d)
            hc = random_hermitian(rng, d)
            a = float(rng.normal(scale=0.5))
            if i == 0:
                a = 0.0  # the step itself is degenerate
            dt = float(rng.uniform(0.05, 0.6))
            psi = random_state(rng, d)
            step = make_step(h0 + a * hc, [hc], dt, Backend.SCALING_SQUARING, 1e-10)
            du_aux = step.control_derivative(0, psi)
            du_diag = derivative_action_diag(
                diag_prepare(step.ctx), -1j * dt * hc.astype(complex), psi
            )
            rel = np.linalg.norm(du_aux - du_diag) / max(np.linalg.norm(du_diag), 1e-300)
            worst = max(worst, rel)
            assert rel <= 1e-8
        _verdict(7, "backend equivalence", True, f"50 instances, worst rel = {worst:.2e}")

    @pytest.mark.parametrize("n_channels", [1, 5])  # 5: one full and one partial block
    def test_pull_back_agrees_across_backends(self, rng, n_channels):
        # the backward step gradients run, beside the reference derivatives above
        assert n_channels % CHANNEL_BLOCK
        tau = 1e-10
        worst = 0.0
        for instance in range(50):
            d = int(rng.integers(3, 33))
            hcs = [random_hermitian(rng, d) for _ in range(n_channels)]
            if instance == 0:
                # a degenerate step at zero drive, the controls coupling the degenerate pair
                h0 = np.diag([1.0, 1.0, *range(2, d)]).astype(complex)
                amps = np.zeros(n_channels)
            else:
                h0 = random_hermitian(rng, d)
                amps = rng.normal(scale=0.5, size=n_channels)
            dt = float(rng.uniform(0.05, 0.6))
            psi_n, lam = random_state(rng, d), random_state(rng, d)
            moved = []
            for backend in Backend:
                problem = costs.ControlProblem(
                    sparse.from_dense(h0), tuple(map(sparse.from_dense, hcs)), backend, tau
                )
                step = problem.step_evaluator(costs.ControlField(1, n_channels, dt, [amps]), 0)
                psi, costate = psi_n.copy(), lam.copy()
                moved.append((step.pull_back(costate, psi), psi, costate))
            (overlaps, psi, costate), (overlaps_diag, psi_diag, costate_diag) = moved
            err, scale = np.abs(overlaps - overlaps_diag).max(), np.abs(overlaps_diag).max()
            assert err <= 1e-8 * scale
            worst = max(worst, err / max(scale, 1e-300))
            assert np.linalg.norm(psi - psi_diag) <= 2 * tau
            assert np.linalg.norm(costate - costate_diag) <= 2 * tau
        _verdict(
            7, f"backward-step equivalence, K={n_channels}", True,
            f"50 instances, worst overlap rel = {worst:.2e}",
        )


class TestCriterion8EndToEndOptimization:
    def test_rabi_transfer(self):
        sx = sparse.build_csr([(0, 1, 1.0), (1, 0, 1.0)], 2, 2)
        problem = costs.ControlProblem(
            sparse.build_csr([], 2, 2), (sx,), tau=1e-10,
            initial_state=np.array([1.0, 0.0], complex),
        )
        terms = [
            CostTerm(CostKind.STATE_INFIDELITY, 1.0, target_state=np.array([0.0, 1.0], complex))
        ]
        a0 = costs.ControlField.constant(0.1, 10, 1, 0.1)
        cfg = optimizer.OptimizerConfig(
            max_iters=200, eta0=0.1, eta_schedule="backtracking", stop_cost=1e-7
        )
        traces = [optimizer.grape_optimize(problem, terms, a0, cfg) for _ in range(2)]
        for trace in traces:
            assert trace.final_cost <= 1e-6
            assert len(trace.records) <= 200
            seq = [r.cost for r in trace.records]
            assert all(x >= y for x, y in zip(seq, seq[1:]))
        assert [r.cost for r in traces[0].records] == [r.cost for r in traces[1].records]
        _verdict(
            8, "end-to-end optimization", True,
            f"final cost {traces[0].final_cost:.2e} in {len(traces[0].records)} iterations",
        )


class TestCriterion9AdvisorTable:
    def test_quoted_rules_and_totality(self):
        full_ad = bench.strategy_advise(
            64, 100, KappaScaling.SUB_QUADRATIC, MuScaling.SUBLINEAR,
            Task.STATE_TRANSFER, memory_budget_ok_for_ad=True, gradients_available=False,
        )
        assert full_ad.method is StrategyMethod.FULL_AD

        sparse_state = bench.strategy_advise(
            4096, 1000, KappaScaling.SUB_QUADRATIC, MuScaling.SUBLINEAR,
            Task.STATE_TRANSFER, memory_budget_ok_for_ad=False, gradients_available=True,
        )
        assert sparse_state.method is StrategyMethod.HG_SCALING_SQUARING

        dense_gate = bench.strategy_advise(
            512, 100, KappaScaling.QUADRATIC, MuScaling.SUBLINEAR,
            Task.GATE, memory_budget_ok_for_ad=False, gradients_available=True,
        )
        assert dense_gate.method is StrategyMethod.HG_DIAGONALIZATION

        count = 0
        for kappa in KappaScaling:
            for mu in MuScaling:
                for task in Task:
                    for mem in (True, False):
                        for grads in (True, False):
                            rec = bench.strategy_advise(256, 50, kappa, mu, task, mem, grads)
                            assert isinstance(rec.method, StrategyMethod)
                            count += 1
        _verdict(9, "advisor table", True, f"3 quoted rules exact, grid of {count} total")
