"""Certificate bytes against the benchmark's reference digests.

Runs the first pass through each benchmark workload's op pattern at the
default seed, through the benchmark's own op runner (perfbench/ops.py) and
op lists (perfbench/workloads.py), both loaded read-only.  Every op's checks
must pass and every produced certificate must hash to the digest stored in
perfbench/reference/, so a change to certificate bytes fails here and not
only in a benchmark run.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from folnerlab import cli, groups, weights

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SEED = 1


def _load(name: str):
    """A module of perfbench/ by file path, without writing bytecode there."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    written = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = written
    return module


workloads = _load("workloads")
ops = _load("ops")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_first_pattern_pass_matches_reference(tmp_path, workload):
    reference = json.loads((PERFBENCH / "reference" / f"{workload}.json").read_text(encoding="utf-8"))
    assert reference["seed"] == SEED
    op_list = workloads.generate(workload, SEED, groups, weights)
    for index in range(len(workloads.PATTERNS[workload])):
        result = ops.run_op(cli, op_list[index], tmp_path)
        assert result.error is None, f"{workload} op {index}: {result.error}"
        assert result.digest == reference["digests"][index], f"{workload} op {index}: certificate bytes changed"
