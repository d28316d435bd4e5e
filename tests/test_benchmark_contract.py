"""The benchmark's checker accepts what the library answers today.

Draws seed 0, repetition 0 of each workload in benchmark/workloads.py, runs
it in this process through benchmark/worker.run, passes the outputs through
JSON as benchmark/run.py receives them, and asks benchmark/check.check about
each one. A changed output format or a wrong answer fails here, in tier-1,
before a benchmark run. Reads benchmark/ and changes nothing there.
"""

import json
import sys
from pathlib import Path

import pytest

pytest.importorskip("sympy")

# imported without writing bytecode, so no __pycache__ appears in benchmark/
BENCHMARK = str(Path(__file__).resolve().parents[1] / "benchmark")
sys.path.insert(0, BENCHMARK)
sys.dont_write_bytecode, writes = True, sys.dont_write_bytecode
try:
    import check
    import worker
    import workloads
finally:
    sys.path.remove(BENCHMARK)
    sys.dont_write_bytecode = writes


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_checker_accepts_every_output(workload):
    requests = workloads.draw(workload, 0, 0)
    report = worker.run([(r.kind, r.args) for r in requests], None)
    outputs = json.loads(json.dumps(report["outputs"]))
    assert len(outputs) == len(requests)
    failures = [
        (r.kind, r.args, reason)
        for r, out in zip(requests, outputs)
        if (reason := check.check(r.kind, r.args, r.meta, out)) is not None
    ]
    assert failures == []
