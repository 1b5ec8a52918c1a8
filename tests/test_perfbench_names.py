"""The library names the benchmark harness looks up must keep resolving.

``perfbench/tracing.py`` wraps each ``(module, attr)`` of ``TARGETS`` with
``getattr`` and no default, and ``perfbench/run.py`` reads the kernel
backend names; a refactor that drops one of them breaks the traced
benchmark without failing any library test.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracing as module
    finally:
        sys.path.remove(str(PERFBENCH))
    return module


def test_every_traced_target_resolves(tracing):
    missing = [f"{module.__name__}.{attr}" for module, attr, _, _ in tracing.TARGETS if not hasattr(module, attr)]
    assert missing == []


def test_kernel_names_read_by_the_harness_exist():
    from willingness_gossip import kernels

    assert isinstance(kernels.NUMBA_ENABLED, bool)
    assert callable(kernels.backend) and callable(kernels.warmup)
