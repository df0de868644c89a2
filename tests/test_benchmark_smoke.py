"""Every benchmark workload runs one op that passes its own checks.

``perfbench/workloads.py`` calls the library by its public names; this test
fails when one of them changes, before a benchmark run does.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# No perfbench/__pycache__ may be left behind: the benchmark's set-up time
# counts compiling these modules from source.
_write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
sys.path.insert(0, str(PERFBENCH))
try:
    import tracing
    import workloads
finally:
    sys.path.remove(str(PERFBENCH))
    sys.dont_write_bytecode = _write_bytecode


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_op_passes_its_checks(name, tmp_path):
    wl = workloads.WORKLOADS[name](1, tmp_path)
    out = wl.op(0, tracing.NullTracer())
    assert wl.check(0, out) == []
    assert isinstance(wl.stats(out), dict)
