"""The end-to-end benchmark's traced mode, installed and restored.

``e2e_bench/run.py --trace 1`` wraps program callables by attribute
name (:mod:`e2e_bench.tracing`).  Installing each workload's wrappers
here makes a rename or deletion in ``src/`` fail tier-1 rather than
only the traced benchmark run.
"""

import inspect

import pytest

from e2e_bench import tracing


@pytest.mark.parametrize("install", [tracing.install_server,
                                     tracing.install_campaign],
                         ids=["server", "campaign"])
def test_install_wraps_and_restore_undoes_it(install):
    tracer = tracing.Tracer()
    try:
        install(tracer)
        patched = list(tracer._restore)
        assert patched
        for owner, attr, original in patched:
            assert inspect.getattr_static(owner, attr) is not original
    finally:
        tracer.restore()
    for owner, attr, original in patched:
        assert inspect.getattr_static(owner, attr) is original
