"""Measurement harness: matvec counts, runtime points, fits, advisor."""

import numpy as np
import pytest

from leangrape import bench, costs, expm, sparse
from leangrape.bench import KappaScaling, MuScaling, StrategyMethod, Task


class TestMeasureMu:
    def test_zero_model_costs_one_matvec(self):
        rec = bench.measure_mu("zero", 16, 0.5, 1e-8)
        assert rec.matvecs == 1
        assert rec.norm1 == 0.0
        assert rec.kappa == 0

    def test_records_are_deterministic(self):
        r1 = bench.measure_mu("three_transmons", 5, 0.3, 1e-8)
        r2 = bench.measure_mu("three_transmons", 5, 0.3, 1e-8)
        assert r1 == r2

    def test_matvecs_match_direct_plan(self):
        rec = bench.measure_mu("qubit_chain", 4, 0.2, 1e-8)
        plan = expm.make_plan(rec.norm1, rec.sigma_prime, 1e-8)
        assert rec.matvecs == plan.matvecs

    def test_infeasible_tolerance_recorded_not_raised(self):
        # at dt = 10 the transmon-cavity norm is ~945; the rounding floor
        # of the certified bound sits far above 1e-12 there
        rec = bench.measure_mu("transmon_cavity", 50, 10.0, 1e-12)
        assert rec.matvecs is None

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError, match="unknown model"):
            bench.measure_mu("nope", 4, 0.1, 1e-8)

    def test_mu_norm_linearity_quick(self):
        # acceptance covers the full grid; spot-check one (model, tau) leg
        records = bench.mu_vs_norm_sweep("three_transmons", 6, np.linspace(1, 10, 10), 1e-8)
        xs = np.array([r.norm1 for r in records])
        ys = np.array([float(r.matvecs) for r in records])
        slope, intercept = np.polyfit(xs, ys, 1)
        pred = slope * xs + intercept
        r2 = 1 - ((ys - pred) ** 2).sum() / ((ys - ys.mean()) ** 2).sum()
        assert r2 >= 0.98


def step_plan(model, size, dt, storage="sparse"):
    """The plan of step 0 of a one-step field at the model's fixture amplitudes."""
    h_static, h_controls, amps = bench.build_model(model, size)
    if storage == "dense":
        h_static = sparse.DenseMatrix(h_static.to_dense())
        h_controls = [sparse.DenseMatrix(hc.to_dense()) for hc in h_controls]
    problem = costs.ControlProblem(h_static, tuple(h_controls), tau=1e-8)
    field = costs.ControlField(1, len(h_controls), dt, np.reshape(amps, (1, -1)))
    return problem.step_evaluator(field, 0)._step_plan()


class TestRecordedPlan:
    """A record carries the norm, ``sigma'`` and ``mu`` of the plan its step runs under."""

    @pytest.mark.parametrize(
        "model, size, dt",
        [
            ("qubit_chain", 4, 0.37),  # the scaled copy of H read one ulp off at these points
            ("three_transmons", 3, 0.2),
            ("fluxonium_pair", 4, 0.1),
            ("transmon_cavity", 10, 0.05),
        ],
    )
    def test_mu_records_the_step_plan(self, model, size, dt):
        rec = bench.measure_mu(model, size, dt, 1e-8)
        plan = step_plan(model, size, dt)
        assert (rec.norm1, rec.sigma_prime, rec.matvecs) == (
            plan.norm1, plan.sigma_prime, plan.matvecs
        )

    @pytest.mark.parametrize("storage", ["sparse", "dense"])
    def test_runtime_records_the_step_plan(self, storage):
        rec = bench.measure_step_runtime(
            "qubit_chain", 3, Task.STATE_TRANSFER, 1e-8, reps=1, dt=0.37, storage=storage
        )
        plan = step_plan("qubit_chain", 3, 0.37, storage)
        assert (rec.norm1, rec.sigma_prime, rec.matvecs) == (
            plan.norm1, plan.sigma_prime, plan.matvecs
        )


class TestMeasureStepRuntime:
    def test_state_transfer_record(self):
        rec = bench.measure_step_runtime(
            "qubit_chain", 3, Task.STATE_TRANSFER, 1e-8, reps=2, dt=0.1
        )
        assert rec.wall_ns > 0
        assert rec.live_vector_peak >= 1
        assert rec.d == 8

    @pytest.mark.parametrize("reps", [0, -1, 2.5])
    def test_reps_must_be_a_positive_integer(self, reps):
        with pytest.raises(ValueError, match="reps must be a positive integer"):
            bench.measure_step_runtime(
                "qubit_chain", 2, Task.STATE_TRANSFER, 1e-8, reps=reps, dt=0.1
            )

    def test_dt_is_required(self):
        with pytest.raises(TypeError, match="dt"):
            bench.measure_step_runtime("qubit_chain", 2, Task.STATE_TRANSFER, 1e-8, reps=1)

    def test_unknown_storage_refused(self):
        with pytest.raises(ValueError, match=r"storage must be one of \('sparse', 'dense'\)"):
            bench.measure_step_runtime(
                "qubit_chain", 2, Task.STATE_TRANSFER, 1e-8, reps=1, dt=0.1, storage="csc"
            )

    def test_dense_storage_kappa(self):
        rec = bench.measure_step_runtime(
            "qubit_chain", 2, Task.GATE, 1e-8, reps=1, dt=0.1, storage="dense"
        )
        d = 4
        n_ops = 1 + 4  # static plus sigma_x, sigma_y per qubit
        assert rec.kappa == n_ops * d * d
        assert rec.sigma_prime == d

    def test_live_peak_constant_in_steps(self):
        peaks = {
            n: bench.measure_step_runtime(
                "qubit_chain", 3, Task.STATE_TRANSFER, 1e-8, reps=1, dt=0.05, n_steps=n
            ).live_vector_peak
            for n in (10, 100, 1000)
        }
        assert peaks[10] == peaks[100] == peaks[1000]

    def test_runtime_grows_with_dimension(self):
        walls = []
        for size in (4, 6, 8, 10):
            rec = bench.measure_step_runtime(
                "qubit_chain", size, Task.STATE_TRANSFER, 1e-8, reps=3, dt=0.1
            )
            walls.append(rec.wall_ns)
        assert walls[-1] > walls[0]


class TestBlasPinning:
    @pytest.mark.skipif(
        not bench._openblas_pools(), reason="no OpenBLAS library mapped into this process"
    )
    def test_pins_one_thread_and_restores_prior_count(self):
        pools = bench._openblas_pools()
        original = [get_threads() for get_threads, _ in pools]
        try:
            # a prior count other than 1, so the restore is observable
            for _, set_threads in pools:
                set_threads(2)
            with bench.threadpool_limits(limits=1):
                assert [get_threads() for get_threads, _ in pools] == [1] * len(pools)
            assert [get_threads() for get_threads, _ in pools] == [2] * len(pools)
        finally:
            for (_, set_threads), n in zip(pools, original):
                set_threads(n)

    def test_warns_when_no_limiter_available(self, monkeypatch):
        monkeypatch.setattr(bench, "threadpool_limits", bench._openblas_limits)
        monkeypatch.setattr(bench, "_openblas_pools", lambda: [])
        with pytest.warns(RuntimeWarning, match="not pinned"):
            bench.measure_step_runtime(
                "qubit_chain", 2, Task.STATE_TRANSFER, 1e-8, reps=1, dt=0.1
            )


class TestFitPowerLaw:
    def test_exact_cubic(self):
        xs = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
        fit = bench.fit_power_law(list(zip(xs, 2 * xs**3)))
        assert fit.exponent == pytest.approx(3.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert np.exp(fit.log_prefactor) == pytest.approx(2.0, rel=1e-12)

    def test_constant_data(self):
        xs = [1.0, 2.0, 3.0, 4.0]
        fit = bench.fit_power_law([(x, 5.0) for x in xs])
        assert fit.exponent == pytest.approx(0.0, abs=1e-12)

    def test_noisy_square(self):
        rng = np.random.default_rng(99)
        xs = np.logspace(0, 2, 12)
        ys = xs**2 * (1 + rng.normal(scale=0.05, size=xs.size))
        fit = bench.fit_power_law(list(zip(xs, ys)))
        assert fit.exponent == pytest.approx(2.0, abs=0.1)

    def test_needs_four_positive_points(self):
        with pytest.raises(ValueError):
            bench.fit_power_law([(1.0, 1.0), (2.0, 2.0), (3.0, 3.0)])
        with pytest.raises(ValueError):
            bench.fit_power_law([(1.0, 1.0), (2.0, 2.0), (3.0, 3.0), (4.0, -1.0)])


class TestFitLine:
    def test_exact_line(self):
        slope, intercept, r_squared = bench.fit_line([0.5, 1.0, 2.0, 4.0], [2.0, 3.0, 5.0, 9.0])
        assert slope == pytest.approx(2.0, abs=1e-12)
        assert intercept == pytest.approx(1.0, abs=1e-12)
        assert r_squared == pytest.approx(1.0, abs=1e-12)

    def test_two_points_give_the_line_through_them(self):
        slope, intercept, r_squared = bench.fit_line([1.0, 3.0], [4.0, 0.0])
        assert slope == pytest.approx(-2.0, abs=1e-12)
        assert intercept == pytest.approx(6.0, abs=1e-12)
        assert r_squared == pytest.approx(1.0, abs=1e-12)

    def test_needs_two_points(self):
        with pytest.raises(ValueError, match="line fit needs at least 2 points, got 0"):
            bench.fit_line([], [])
        with pytest.raises(ValueError, match="got 1"):
            bench.fit_line([1.0], [2.0])

    def test_power_law_is_the_line_in_log_space(self):
        pts = [(1.0, 3.0), (2.0, 7.0), (5.0, 40.0), (9.0, 150.0)]
        fit = bench.fit_power_law(pts)
        line = bench.fit_line(np.log([x for x, _ in pts]), np.log([y for _, y in pts]))
        assert (fit.exponent, fit.log_prefactor, fit.r_squared) == line


class TestStrategyAdvise:
    def test_memory_fits_prefers_full_ad(self):
        rec = bench.strategy_advise(
            64, 100, KappaScaling.SUB_QUADRATIC, MuScaling.SUBLINEAR,
            Task.STATE_TRANSFER, memory_budget_ok_for_ad=True, gradients_available=False,
        )
        assert rec.method is StrategyMethod.FULL_AD

    def test_sparse_state_transfer_prefers_scaling_squaring(self):
        rec = bench.strategy_advise(
            4096, 1000, KappaScaling.SUB_QUADRATIC, MuScaling.SUBLINEAR,
            Task.STATE_TRANSFER, memory_budget_ok_for_ad=False, gradients_available=True,
        )
        assert rec.method is StrategyMethod.HG_SCALING_SQUARING

    def test_dense_gate_prefers_diagonalization(self):
        rec = bench.strategy_advise(
            512, 100, KappaScaling.QUADRATIC, MuScaling.SUBLINEAR,
            Task.GATE, memory_budget_ok_for_ad=False, gradients_available=True,
        )
        assert rec.method is StrategyMethod.HG_DIAGONALIZATION

    def test_no_gradients_falls_back_to_semi_ad(self):
        rec = bench.strategy_advise(
            512, 100, KappaScaling.QUADRATIC, MuScaling.LINEAR_OR_WORSE,
            Task.GATE, memory_budget_ok_for_ad=False, gradients_available=False,
        )
        assert rec.method is StrategyMethod.SEMI_AD

    def test_dense_state_transfer_linear_mu_prefers_diagonalization(self):
        rec = bench.strategy_advise(
            512, 100, KappaScaling.QUADRATIC, MuScaling.LINEAR_OR_WORSE,
            Task.STATE_TRANSFER, memory_budget_ok_for_ad=False, gradients_available=True,
        )
        assert rec.method is StrategyMethod.HG_DIAGONALIZATION

    def test_total_over_input_grid(self):
        for kappa in KappaScaling:
            for mu in MuScaling:
                for task in Task:
                    for mem in (True, False):
                        for grads in (True, False):
                            rec = bench.strategy_advise(128, 10, kappa, mu, task, mem, grads)
                            assert isinstance(rec.method, StrategyMethod)
                            assert rec.rationale


class TestCsvOutput:
    def test_header_and_rows(self):
        recs = [bench.measure_mu("zero", 4, 0.1, 1e-8)]
        text = bench.records_to_csv(recs)
        lines = text.strip().split("\n")
        assert lines[0] == bench.BENCH_CSV_HEADER
        assert lines[1].startswith("zero,4,1,")

    def test_infeasible_mu_serializes_empty(self):
        rec = bench.measure_mu("transmon_cavity", 50, 10.0, 1e-12)
        row = rec.to_csv_row()
        fields = row.split(",")
        assert fields[6] == ""
