"""Shared test helpers: random operator factories and dense oracles."""

import numpy as np
import pytest

from leangrape import costs, sparse
from leangrape.derivatives import Backend


def random_hermitian(rng, dim, scale=1.0):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * 0.5 * (m + m.conj().T)


def random_real_symmetric(rng, dim):
    m = rng.normal(size=(dim, dim))
    return 0.5 * (m + m.T)


def random_anti_hermitian(rng, dim, scale=1.0):
    return -1j * random_hermitian(rng, dim, scale)


def random_state(rng, dim):
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return psi / np.linalg.norm(psi)


def random_sparse_dense_pair(rng, dim, density=0.2):
    """A random sparse complex matrix as (CsrMatrix, dense ndarray)."""
    mask = rng.random((dim, dim)) < density
    dense = np.where(mask, rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)), 0.0)
    return sparse.from_dense(dense), dense


class CountingOperator:
    """Delegates to ``op`` and counts its unchecked products, where every engine product runs."""

    def __init__(self, op):
        self.op = op
        self.calls = 0

    def __getattr__(self, name):
        return getattr(self.op, name)

    def _product(self, v, out):
        self.calls += 1
        return self.op._product(v, out)


def make_step(h_dense, hc_denses, dt, backend=Backend.SCALING_SQUARING, tau=1e-10):
    """The step evaluator of ``H = h_dense`` driven by ``hc_denses``.

    Built through ``ControlProblem.step_evaluator`` at zero amplitudes, so
    the step Hamiltonian is ``h_dense`` itself; a step with no controls
    gets one zero control.
    """
    d = h_dense.shape[0]
    controls = tuple(sparse.from_dense(hc) for hc in hc_denses) or (sparse.build_csr([], d, d),)
    problem = costs.ControlProblem(sparse.from_dense(h_dense), controls, backend, tau)
    return problem.step_evaluator(costs.ControlField.constant(0.0, 1, len(controls), dt), 0)


def expm_action_oracle(a_dense, psi):
    """Dense-diagonalization evaluation of exp(A) @ psi for anti-Hermitian A."""
    h = 1j * a_dense  # Hermitian
    w, v = np.linalg.eigh(h)
    return v @ (np.exp(-1j * w) * (v.conj().T @ psi))


@pytest.fixture
def rng():
    return np.random.default_rng(20250808)
