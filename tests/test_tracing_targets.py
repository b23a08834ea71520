"""Every name the benchmark tracer patches is defined where it patches it.

``perfbench/harness.py`` imports ``perfbench/tracing.py`` at module level,
and :func:`tracing.patched` reads each target as ``vars(owner)[attr]``: a
name deleted from the library, or moved out of its owner's own
``__dict__``, makes every benchmark run fail at import or at patching.
The harness also calls some of them itself, in the forms checked here.
"""

import importlib.util
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import pytest

from leangrape import costs, models
from leangrape.derivatives import Backend

_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
_SPEC = importlib.util.spec_from_file_location("perfbench_tracing", _PATH)
tracing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)


@pytest.mark.parametrize(
    "owner, attr",
    [(owner, attr) for owner, attr, _, _ in tracing.TARGETS],
    ids=[name for _, _, name, _ in tracing.TARGETS],
)
def test_target_is_defined_by_its_owner(owner, attr):
    assert attr in vars(owner), f"{owner.__name__}.{attr} is not in its owner's __dict__"


@pytest.mark.parametrize("traced", [False, True])
def test_forward_with_one_argument_returns_the_moved_vector(traced):
    """``harness._oracle_checks`` calls ``evaluator.forward(psi)`` and reads its result."""
    h, hcs = models.build_qubit_chain(models.QubitChainParams(n_qubits=2))
    problem = costs.ControlProblem(h, tuple(hcs), Backend.SCALING_SQUARING, 1e-10)
    field = costs.ControlField.constant(0.4, 1, len(hcs), 0.3)
    evaluator = problem.step_evaluator(field, 0)
    d = problem.dim
    psi = np.full(d, d**-0.5, dtype=complex)
    kept = psi.copy()
    w, v = np.linalg.eigh(evaluator.ctx.h_step.to_dense())
    exact = v @ (np.exp(-1j * w * field.dt) * (v.conj().T @ psi))
    with tracing.patched(tracing.Tracer()) if traced else nullcontext():
        got = evaluator.forward(psi)
    assert tracing.all_restored()
    assert isinstance(got, np.ndarray) and got is not psi
    assert np.linalg.norm(got - exact) <= problem.tau
    assert np.array_equal(psi, kept)
