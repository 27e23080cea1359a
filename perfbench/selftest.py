"""Self-tests of the benchmark.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these tests out of the package's own test run; they
start the benchmark itself, which takes about a minute.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

import flagpde as fp  # noqa: E402
from perfbench import reference as ref  # noqa: E402
from perfbench import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_smoke_run(name, tmp_path):
    """Every operation kind at a small size passes its check, defects aside."""
    workload = workloads.WORKLOADS[name](7, str(tmp_path))
    ops = workload.block(0, tiny=True)
    assert ops
    unexpected = []
    for op in ops:
        try:
            reason = op.check(op.run())
        except Exception as err:  # reported with the input below
            reason = f"raised {err!r}"
        if reason and not op.defect:
            unexpected.append((op.label, reason))
    assert not unexpected


def test_reference_flags_the_large_ode(tmp_path):
    """y'' = -100 y, y(0) = 1, y'(0) = 0 at t = 5 is cos 50, not what the series prints."""
    coeffs, init, t, defect = workloads.ode_case(random.Random(0), "canonical")
    assert (coeffs, init, t) == ((0, -100), (1, 0), 5.0) and defect
    assert ref.check_ode(math.cos(50.0), coeffs, init, t) is None
    assert ref.check_ode(fp.solve_constant_ode(fp.OdeProblem(coeffs, init), t), coeffs, init, t)
    op = workloads.WORKLOADS["cli"](7, str(tmp_path)).ode_op(coeffs, init, t, defect)
    reason = op.check(op.run())
    assert reason and reason.endswith('with "verified": true')


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_printed_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        result = _run("certify", trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["attempted"] >= 1
        assert {name: m["unit"] for name, m in result["metrics"].items()} == \
            {m["name"]: m["unit"] for m in listed}
