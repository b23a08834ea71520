"""Benchmark Hamiltonian builders and target objects."""

import numpy as np
import pytest

from leangrape import bench, models, sparse
from leangrape.models import (
    FluxoniumPairParams,
    QubitChainParams,
    ThreeTransmonParams,
    TransmonCavityParams,
)

TWO_PI = 2 * np.pi


def all_hermitian(h_static, controls):
    return all(sparse.is_hermitian(op) for op in [h_static, *controls])


class TestTransmonCavity:
    def test_hermiticity(self):
        h, ctrls = models.build_transmon_cavity(TransmonCavityParams())
        assert all_hermitian(h, ctrls)
        assert len(ctrls) == 2

    def test_dimension_is_product(self):
        for d_c in (50, 120):
            h, _ = models.build_transmon_cavity(TransmonCavityParams(d_cavity=d_c))
            assert h.n_rows == 6 * d_c

    def test_benchmark_fixture_values(self):
        # spot-check the diagonal of the default parameter set:
        # <n_t, n_c| H |n_t, n_c> = delta n_t + (alpha/2) n_t(n_t-1)
        p = TransmonCavityParams()
        h, _ = models.build_transmon_cavity(p)
        dense = h.to_dense()
        d_c = p.d_cavity
        for n_t in (0, 1, 5):
            idx = n_t * d_c  # cavity vacuum column
            want = TWO_PI * (p.delta * n_t + 0.5 * p.anharmonicity * n_t * (n_t - 1))
            assert dense[idx, idx] == pytest.approx(want, rel=1e-12)
        # exchange coupling element <1, 0| g c b+ ... |0, 1>
        assert dense[d_c, 1] == pytest.approx(TWO_PI * p.g, rel=1e-12)

    def test_transmon_number_op(self):
        p = TransmonCavityParams(d_cavity=7)
        op = models.transmon_number_op(p)
        dense = op.to_dense()
        assert np.allclose(np.diag(dense), np.repeat(np.arange(6), 7))


class TestThreeTransmons:
    def test_hermiticity_and_channels(self):
        h, ctrls = models.build_three_transmons(ThreeTransmonParams())
        assert all_hermitian(h, ctrls)
        assert len(ctrls) == 3
        assert h.n_rows == 6**3

    def test_qubit_truncation_kills_anharmonicity(self):
        # at two levels per mode, n(n-1) vanishes; with g = 0 nothing is left
        h, _ = models.build_three_transmons(ThreeTransmonParams(d_each=2, g=0.0))
        assert h.nnz == 0

    def test_coupling_matches_dense_kron(self):
        p = ThreeTransmonParams(d_each=3, anharmonicity=0.0)
        h, _ = models.build_three_transmons(p)
        b = np.diag(np.sqrt(np.arange(1, 3)), k=1).astype(complex)
        eye = np.eye(3, dtype=complex)
        hop12 = np.kron(np.kron(b, b.conj().T), eye)
        hop23 = np.kron(eye, np.kron(b, b.conj().T))
        want = TWO_PI * p.g * (hop12 + hop12.conj().T + hop23 + hop23.conj().T)
        assert np.abs(h.to_dense() - want).max() <= 1e-12 * np.abs(want).max()


class TestQubitChain:
    def test_single_qubit_has_no_static_part(self):
        h, ctrls = models.build_qubit_chain(QubitChainParams(n_qubits=1))
        assert h.nnz == 0
        assert len(ctrls) == 2

    def test_static_is_diagonal(self):
        h, _ = models.build_qubit_chain(QubitChainParams(n_qubits=4))
        assert h.max_row_nnz() == 1
        rows, cols, _ = h.triplets()
        assert np.array_equal(rows, cols)

    def test_controls_match_dense_paulis(self):
        nq = 3
        _, ctrls = models.build_qubit_chain(QubitChainParams(n_qubits=nq))
        sx = np.array([[0, 1], [1, 0]], complex)
        sy = np.array([[0, -1j], [1j, 0]], complex)
        eye = np.eye(2, dtype=complex)
        for nu in range(nq):
            want_x, want_y = np.array([[1.0]]), np.array([[1.0]])
            for pos in range(nq):
                want_x = np.kron(want_x, sx if pos == nu else eye)
                want_y = np.kron(want_y, sy if pos == nu else eye)
            assert np.abs(ctrls[2 * nu].to_dense() - want_x).max() <= 1e-14
            assert np.abs(ctrls[2 * nu + 1].to_dense() - want_y).max() <= 1e-14

    def test_kappa_scales_as_d_log_d(self):
        # stored elements of H_s plus all controls, versus d(2 n_q + 1)
        for nq in range(2, 9):
            h, ctrls = models.build_qubit_chain(QubitChainParams(n_qubits=nq))
            d = 2**nq
            kappa = h.nnz + sum(c.nnz for c in ctrls)
            upper = d * (2 * nq + 1)
            assert d * 2 * nq <= kappa <= upper  # H_s diagonal may drop exact zeros


class TestFluxoniumPair:
    def test_hermiticity(self):
        h, ctrls = models.build_fluxonium_pair(FluxoniumPairParams(d_each=12))
        assert all_hermitian(h, ctrls)
        assert len(ctrls) == 2
        assert h.n_rows == 144

    def test_phase_charge_commutator(self):
        from leangrape.models import _fluxonium_single

        p = FluxoniumPairParams(d_each=40)
        _, phi, n_op = _fluxonium_single(p.e_c1, p.e_j1, p.e_l1, p.ext_flux, p.d_each)
        comm = phi @ n_op - n_op @ phi
        lower = comm[:20, :20]
        assert np.abs(lower - 1j * np.eye(20)).max() <= 1e-6

    def test_control_is_scaled_phase_operator(self):
        from leangrape.models import _fluxonium_single

        p = FluxoniumPairParams(d_each=8)
        _, phi, _ = _fluxonium_single(p.e_c1, p.e_j1, p.e_l1, p.ext_flux, p.d_each)
        _, ctrls = models.build_fluxonium_pair(p)
        want = np.kron(-TWO_PI * p.e_l1 * phi, np.eye(8))
        assert np.abs(ctrls[0].to_dense() - want).max() <= 1e-10


class TestTargets:
    def test_fock_state_basics(self):
        assert np.array_equal(models.fock_state(4, 0), [1, 0, 0, 0])
        with pytest.raises(ValueError):
            models.fock_state(4, 4)

    def test_hadamard_single_qubit(self):
        h = models.hadamard_target(1, 2)
        want = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        assert np.abs(h - want).max() <= 1e-15

    def test_hadamard_three_qubits_unitary(self):
        u = models.hadamard_target(3, 2)
        assert np.abs(u.conj().T @ u - np.eye(8)).max() <= 1e-14

    def test_hadamard_truncated_levels_identity(self):
        u = models.hadamard_target(1, 4)
        assert np.allclose(u[2:, 2:], np.eye(2))
        assert np.allclose(u[2:, :2], 0)


class TestScalingInvariants:
    def test_generators_pass_anti_hermitian_gate(self):
        for name, size in (
            ("transmon_cavity", 50),
            ("three_transmons", 4),
            ("qubit_chain", 3),
            ("fluxonium_pair", 8),
        ):
            h_static, ctrls, amps = bench.build_model(name, size)
            gen = sparse.linear_combine(
                [1.0, *amps], [h_static, *ctrls]
            ).scaled(-1j * 0.1) if ctrls else h_static.scaled(-1j * 0.1)
            assert sparse.is_anti_hermitian(gen)

    def test_sigma_prime_constant_in_dimension(self):
        h1_sigmas = set()
        for d_c in (50, 100, 200, 400):
            h, ctrls = models.build_transmon_cavity(TransmonCavityParams(d_cavity=d_c))
            combined = sparse.linear_combine([1.0, 1.0, 1.0], [h, *ctrls])
            h1_sigmas.add(combined.max_row_nnz())
        assert len(h1_sigmas) == 1

        h2_sigmas = set()
        for d_e in (4, 6, 8, 10):
            h, ctrls = models.build_three_transmons(ThreeTransmonParams(d_each=d_e))
            combined = sparse.linear_combine([1.0] * 4, [h, *ctrls])
            h2_sigmas.add(combined.max_row_nnz())
        assert len(h2_sigmas) == 1

    def test_norm_scaling_exponents(self):
        """Fitted one-norm growth across the benchmark dimension sweeps.

        The chain model's norm is exactly linear in the qubit count, i.e.
        logarithmic in the dimension.  The three-transmon model approaches
        its asymptotic two-thirds power from above; fitting over per-mode
        dimensions 8..20 keeps the finite-size curvature of the n(n-1)
        anharmonicity inside the +-0.1 band.
        """
        h2_points = []
        for d_e in (8, 10, 12, 14, 16, 20):
            h, ctrls, amps = bench.build_model("three_transmons", d_e)
            gen = sparse.linear_combine([1.0, *amps], [h, *ctrls]).scaled(-1j)
            h2_points.append((d_e**3, gen.one_norm()))
        fit2 = bench.fit_power_law(h2_points)
        assert fit2.exponent == pytest.approx(2.0 / 3.0, abs=0.1)

        h3_points = []
        for nq in range(2, 13):
            h, ctrls, amps = bench.build_model("qubit_chain", nq)
            gen = sparse.linear_combine([1.0, *amps], [h, *ctrls]).scaled(-1j)
            h3_points.append((nq, gen.one_norm()))
        xs = np.array([x for x, _ in h3_points], dtype=float)
        ys = np.array([y for _, y in h3_points])
        slope, intercept = np.polyfit(xs, ys, 1)
        pred = slope * xs + intercept
        r2 = 1 - ((ys - pred) ** 2).sum() / ((ys - ys.mean()) ** 2).sum()
        assert r2 >= 0.999  # norm linear in qubit count = log2(d)

    def test_transmon_cavity_norm_exponent(self):
        """Asserts the asymptotic square-root law; fails honestly here.

        Over the benchmark range (cavity dimension 50..600) the
        dimension-independent transmon diagonal dominates the one-norm and
        the measured exponent sits near 0.15; it is still below 0.4 at
        cavity dimension 30000.  The assertion keeps the claimed band so
        the discrepancy stays visible; the analysis lives in the
        repository notes.
        """
        h1_points = []
        for d_c in (50, 100, 200, 300, 400, 600):
            h, ctrls, amps = bench.build_model("transmon_cavity", d_c)
            gen = sparse.linear_combine([1.0, *amps], [h, *ctrls]).scaled(-1j)
            h1_points.append((6 * d_c, gen.one_norm()))
        fit1 = bench.fit_power_law(h1_points)
        assert fit1.exponent == pytest.approx(0.5, abs=0.1), (
            f"transmon-cavity one-norm exponent {fit1.exponent:.3f} vs asymptotic "
            "1/2 (known unattainable at benchmark scale; see notes)"
        )
