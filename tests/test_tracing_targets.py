"""Every name the benchmark tracer patches is defined where it patches it.

``perfbench/harness.py`` imports ``perfbench/tracing.py`` at module level,
and :func:`tracing.patched` reads each target as ``vars(owner)[attr]``: a
name deleted from the library, or moved out of its owner's own
``__dict__``, makes every benchmark run fail at import or at patching.
"""

import importlib.util
from pathlib import Path

import pytest

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
