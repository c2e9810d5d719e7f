"""Certificate bytes against the benchmark's reference digests.

Runs the first pass through each benchmark workload's op pattern at the
default seed, through the benchmark's own op runner (perfbench/ops.py) and
op lists (perfbench/workloads.py), both loaded read-only.  Every op's checks
must pass and every produced certificate must hash to the digest stored in
perfbench/reference/, so a change to certificate bytes fails here and not
only in a benchmark run.  The benchmark's span tracer (perfbench/tracer.py)
is entered and left here too, so a rename of a function it wraps fails here
as well.
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
tracer = _load("tracer")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_first_pattern_pass_matches_reference(tmp_path, workload):
    reference = json.loads((PERFBENCH / "reference" / f"{workload}.json").read_text(encoding="utf-8"))
    assert reference["seed"] == SEED
    op_list = workloads.generate(workload, SEED, groups, weights)
    for index in range(len(workloads.PATTERNS[workload])):
        result = ops.run_op(cli, op_list[index], tmp_path)
        assert result.error is None, f"{workload} op {index}: {result.error}"
        assert result.digest == reference["digests"][index], f"{workload} op {index}: certificate bytes changed"


def test_tracer_wraps_and_restores_every_traced_name():
    def bindings():
        out = {}
        for _, module, path, *_ in tracer.SPANS + tracer.COUNTS:
            holder = sys.modules[f"folnerlab.{module}"]
            *owner, attr = path.split(".")
            if owner:
                holder = getattr(holder, owner[0])
            out[path] = holder.__dict__[attr]
        return out

    before = bindings()
    F = groups.window(groups.make_model("lattice", dim=1), [(0,), (1,), (2,)])
    with tracer.Tracer() as trace:
        assert all(bindings()[path] is not fn for path, fn in before.items())
        groups.translate_window(F[1], F)
    assert bindings() == before
    totals = trace.metrics()
    assert totals["groups.translate_window.calls"] == 1
    assert totals["groups.translate_window.elements"] == len(F)
