"""Seeded scenario benchmark for folnerlab.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`.  One client in one thread sends ops in a closed loop: each op is a
produce call and a verify call through `folnerlab.cli.run_scenario_config`,
and the next op starts when the previous one has returned.  The op list
comes from the seed (see workloads.py); the loop runs through it in order,
wrapping round if the time allows, until `--seconds` have passed.

With `--trace 0` the last line of stdout is a JSON object carrying the
end-to-end metrics; with `--trace 1` the same ops run under the span tracer
(tracer.py), a sixteenth of them run again untraced and traced in pairs to
price the tracing, and the object carries the per-layer metrics instead.
A line before it holds the input properties of the workload and, untraced,
the host's median slowdown and the unscaled end-to-end figures.  Every op
is checked (ops.py); for the default seed each certificate digest must
also match perfbench/reference/.

End-to-end times are scaled to a nominal host speed: a probe of fixed
pure-Python work runs before every op, and each time is divided by the
host's slowdown around it (hostspeed.py).  On a shared VM the raw times
swing by up to half within a minute; the scaled ones follow the code.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE_DIR = HERE / "reference"
DEFAULT_SEED = 1
SETUP_EVERY_S = 2.0

sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import ops as oplib  # noqa: E402
import workloads  # noqa: E402
import tracer as tracing  # noqa: E402
from tracer import Tracer  # noqa: E402


def _load_package():
    """Import folnerlab afresh from src/ and return (cli, groups, weights)."""
    for name in [n for n in sys.modules if n == "folnerlab" or n.startswith("folnerlab.")]:
        del sys.modules[name]
    cli = importlib.import_module("folnerlab.cli")
    return cli, sys.modules["folnerlab.groups"], sys.modules["folnerlab.weights"]


class Setup:
    """Rounds of set-up: importing folnerlab and building the op list.

    One round runs before the timed phase and the rest between ops across
    it, so that `setup_s`, the median of their scaled times, samples the
    host over the whole run as the op timings do.  Every round must give a
    byte-identical op list.
    """

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.times: list[tuple[float, int]] = []  # (seconds, index of the op before)
        self.texts: set[str] = set()
        self.last = 0.0

    def round(self, index: int = 0):
        """One round; returns the fresh package's cli module and op list."""
        start = time.perf_counter()
        cli, groups, weights = _load_package()
        op_list = workloads.generate(self.workload, self.seed, groups, weights)
        self.last = time.perf_counter()
        self.times.append((self.last - start, index))
        self.texts.add(workloads.canonical(op_list))
        return cli, op_list

    def between_ops(self, index: int) -> None:
        """A round every SETUP_EVERY_S seconds; the ops keep their modules."""
        if time.perf_counter() < self.last + SETUP_EVERY_S:
            return
        kept = {n: m for n, m in sys.modules.items() if n == "folnerlab" or n.startswith("folnerlab.")}
        self.round(index)
        for name in [n for n in sys.modules if n == "folnerlab" or n.startswith("folnerlab.")]:
            del sys.modules[name]
        sys.modules.update(kept)

    def median(self, slow: list[float]) -> float:
        return statistics.median(t / slow[min(i, len(slow) - 1)] for t, i in self.times)


def load_reference(workload: str) -> list[str]:
    path = REFERENCE_DIR / f"{workload}.json"
    return json.loads(path.read_text(encoding="utf-8"))["digests"]


class Loop:
    """Closed loop over the op list; collects timings, digests and failures."""

    def __init__(self, cli, op_list: list[dict], work_dir: Path, tracer: Tracer | None = None):
        self.cli = cli
        self.op_list = op_list
        self.work_dir = work_dir
        self.tracer = tracer
        self.probes: list[float] = []
        self.produce: list[float] = []
        self.verify: list[float] = []
        self.digests: list[str] = []
        self.failures: list[tuple[int, str]] = []

    def run_one(self, index: int) -> None:
        op = self.op_list[index % len(self.op_list)]
        sid = self.tracer.open("bench.probe") if self.tracer else None
        self.probes.append(hostspeed.probe())
        if sid is not None:
            self.tracer.close(sid)
        sid = self.tracer.open("bench.op") if self.tracer else None
        try:
            result = oplib.run_op(self.cli, op, self.work_dir)
        except Exception as exc:  # a crashing op is a failed op; keep measuring
            result = oplib.OpResult(0.0, 0.0, "", f"{type(exc).__name__}: {exc}")
        finally:
            if sid is not None:
                self.tracer.close(sid)
        self.produce.append(result.produce_s)
        self.verify.append(result.verify_s)
        self.digests.append(result.digest)
        if result.error:
            self.failures.append((index, result.error))

    def failed_ops(self) -> int:
        """Ops with at least one failed check; a whole-run failure counts all."""
        indexes = {index for index, _ in self.failures}
        return len(self.produce) if -1 in indexes else len(indexes)

    def for_seconds(self, seconds: float, between_ops=None) -> float:
        """Run ops until `seconds` have passed; return the wall time taken."""
        start = time.perf_counter()
        index = 0
        while index == 0 or time.perf_counter() < start + seconds:
            self.run_one(index)
            if between_ops is not None:
                between_ops(index)
            index += 1
        return time.perf_counter() - start

    def for_count(self, count: int) -> None:
        for index in range(count):
            self.run_one(index)

    def cycle_rate(self, cycle: int, slow: list[float]) -> float:
        """Ops per second of scaled produce and verify time, over the median
        pass through the workload pattern.

        Every pass holds the same mix of op sizes, so the median pass is
        steadier than the whole run against bursts of host contention; the
        benchmark's own checks and clean-up between calls are left out.
        """
        times = [(p + v) / s for p, v, s in zip(self.produce, self.verify, slow)]
        passes = [sum(times[k:k + cycle]) for k in range(0, len(times) - cycle + 1, cycle)]
        if not passes:
            return len(times) / sum(times)
        return cycle / statistics.median(passes)


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def properties(op_list: list[dict], done: int) -> dict:
    """Input properties of the ops run: model mix, op kinds, repeated keys."""
    ran = [op_list[i % len(op_list)] for i in range(done)]
    seen: set[str] = set()
    repeats = 0
    for op in ran:
        repeats += op["key"] in seen
        seen.add(op["key"])
    return {
        "ops_by_model": dict(sorted(Counter(op["model"] for op in ran).items())),
        "ops_by_kind": dict(sorted(Counter(op["kind"] for op in ran).items())),
        "repeat_key_share": repeats / len(ran),
        "list_length": len(op_list),
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(loop: Loop, cycle: int, setup: Setup, slow: list[float]) -> dict:
    """End-to-end metrics, every time divided by the host slowdown `slow`
    around it (all 1.0 gives the raw times)."""
    done = len(loop.produce)
    produce = [t / s for t, s in zip(loop.produce, slow)]
    verify = [t / s for t, s in zip(loop.verify, slow)]
    return {
        "setup_s": _metric(setup.median(slow), "s"),
        "ops_per_s": _metric(loop.cycle_rate(cycle, slow), "1/s"),
        "produce_p50_s": _metric(statistics.median(produce), "s"),
        "produce_p90_s": _metric(_p90(produce), "s"),
        "verify_p50_s": _metric(statistics.median(verify), "s"),
        "verify_p90_s": _metric(_p90(verify), "s"),
        "ok_ratio": _metric((done - loop.failed_ops()) / done, "ratio"),
        "peak_rss_mib": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def paired_overhead(cli, op_list: list[dict], work_dir: Path, count: int) -> tuple[float, bool]:
    """Traced over untraced time of the first `count` ops, each op run
    untraced and then traced back to back so that drift in host speed
    cancels; also whether both runs gave the same digests."""
    plain = Loop(cli, op_list, work_dir)
    traced = Loop(cli, op_list, work_dir, Tracer())
    for index in range(count):
        plain.run_one(index)
        with traced.tracer:
            traced.run_one(index)
    spent = [sum(loop.produce) + sum(loop.verify) for loop in (traced, plain)]
    return spent[0] / spent[1], plain.digests == traced.digests


def per_layer(tracer: Tracer, wall: float, overhead: float) -> tuple[dict, dict]:
    """Per-layer metrics of a traced run, and seminorm support sizes by engine.

    The coverage is the share of the timed phase spent inside top-level op
    and host-probe spans.
    """
    totals = tracer.metrics()
    totals["trace.overhead"] = overhead
    totals["trace.coverage"] = sum(tracer.root_durations("bench.op", "bench.probe")) / wall
    totals["trace.spans"] = len(tracer.spans)
    supports = {
        engine: sorted(tracer.work.get(f"weights.lipschitz_seminorm._support_{engine}", []))
        for engine in ("simplex", "flow")
    }
    metrics = {}
    for name in tracing.metric_names():
        unit = tracing.unit(name)
        metrics[name] = _metric(int(totals[name]) if unit == "count" else totals[name], unit)
    return metrics, supports


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "folnerlab" / "cli.py").is_file():
        print(f"error: no folnerlab sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    rounds = Setup(args.workload, args.seed)
    cli, op_list = rounds.round()
    work_dir = ROOT / ".bench_tmp" / f"{args.workload}-{args.seed}-{args.trace}"
    tracer = Tracer() if args.trace else None
    try:
        loop = Loop(cli, op_list, work_dir, tracer)
        if tracer:
            with tracer:
                sid = tracer.open("bench.setup")
                workloads.generate(args.workload, args.seed, sys.modules["folnerlab.groups"], sys.modules["folnerlab.weights"])
                tracer.close(sid)
                wall = loop.for_seconds(args.seconds)
            # A sixteenth of the ops again, untraced and traced in pairs, to price the tracing.
            overhead, same_digests = paired_overhead(cli, op_list, work_dir, max(1, len(loop.produce) // 16))
            if not same_digests:
                loop.failures.append((-1, "traced and untraced runs gave different digests"))
        else:
            wall = loop.for_seconds(args.seconds, rounds.between_ops)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):  # left alone while another run uses it
            work_dir.parent.rmdir()

    if args.seed == DEFAULT_SEED:
        reference = load_reference(args.workload)
        for index, digest in enumerate(loop.digests):
            want = reference[index % len(reference)]
            if digest and digest != want:
                loop.failures.append((index, f"certificate digest {digest} differs from reference {want}"))
    if len(rounds.texts) != 1:
        loop.failures.append((-1, "the same seed gave different op lists"))

    props = properties(op_list, len(loop.produce))
    host = {}
    if tracer:
        metrics, props["seminorm_support_by_engine"] = per_layer(tracer, wall, overhead)
    else:
        cycle = len(workloads.PATTERNS[args.workload])
        slow = hostspeed.slowdowns(loop.probes)
        metrics = end_to_end(loop, cycle, rounds, slow)
        raw = end_to_end(loop, cycle, rounds, [1.0] * len(slow))
        host = {
            "slowdown_median": statistics.median(slow),
            "unscaled": {name: m["value"] for name, m in raw.items()},
        }
    print(json.dumps({"properties": props, "host": host}, sort_keys=True))
    for index, reason in loop.failures[:20]:
        print(f"failed op {index}: {reason}", file=sys.stderr)
    done = len(loop.produce)
    print(json.dumps({
        "correct": not loop.failures,
        "attempted": done,
        "failed": loop.failed_ops(),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
