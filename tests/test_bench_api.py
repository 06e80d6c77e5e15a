"""The benchmark's traced passes on tiny inputs.

Each workload's traced pass drives its inputs through the public functions
of every layer (several have no other caller), and its outputs must pass
the benchmark's own checks.  An API change that would break
`bench/run.py --trace 1` fails here.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

from tracer import Tracer  # noqa: E402
from workloads import Clock, SingleRuns, SwitchSweep, TimingSweep  # noqa: E402

SIZES = {
    TimingSweep: {"n_h": 4, "n_dtv": 3},
    SwitchSweep: {"n_c1a": 3, "n_f_ba": 3},
    Clock: {},
    SingleRuns: {},
}


@pytest.mark.parametrize("workload_type", list(SIZES), ids=lambda w: w.name)
def test_traced_pass_outputs_pass_checks(workload_type, tmp_path):
    workload = workload_type(3, tmp_path)
    if SIZES[workload_type]:
        workload.spec.update(SIZES[workload_type])
    tracer = Tracer()
    try:
        outputs, rate, extra = workload.traced(tracer, 0)
    finally:
        workload.close()
    assert outputs and rate > 0.0
    assert all(value >= 0.0 for value in extra.values())
    for output in outputs:
        assert workload.check(output) == (0, [])
    assert tracer.spans
