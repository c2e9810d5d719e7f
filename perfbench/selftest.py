"""Self-test of the benchmark itself (not part of the package's test suite).

    python3 perfbench/selftest.py

Checks that op lists are a function of the seed, that forged certificates
make their ops fail, that tracing changes no output, that BENCHMARK.json
names exactly the metrics the runs print, and that the benchmark refuses to
run without the package sources.  Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run

CHECKS = []


def check(fn):
    CHECKS.append(fn)
    return fn


def _modules():
    cli = sys.modules["folnerlab.cli"]
    return cli, sys.modules["folnerlab.groups"], sys.modules["folnerlab.weights"]


def _op_list(workload: str, seed: int) -> list[dict]:
    _, groups, weights = _modules()
    return run.workloads.generate(workload, seed, groups, weights)


def _run(op: dict, mutate=None):
    cli, _, _ = _modules()
    work_dir = run.ROOT / ".bench_tmp" / "selftest"
    try:
        return run.oplib.run_op(cli, op, work_dir, mutate)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def _first(workload: str, kind: str, where=lambda op: True) -> dict:
    return next(op for op in _op_list(workload, run.DEFAULT_SEED) if op["kind"] == kind and where(op))


@check
def op_lists_follow_the_seed():
    for workload in run.workloads.WORKLOADS:
        first = run.workloads.canonical(_op_list(workload, 1))
        assert first == run.workloads.canonical(_op_list(workload, 1)), f"{workload}: same seed, different lists"
        assert first != run.workloads.canonical(_op_list(workload, 2)), f"{workload}: seeds 1 and 2 agree"


def _theta(op, cert):
    cert["theta"] = "1/3" if cert["theta"] != "1/3" else "1/2"
    return cert


def _pairing(op, cert):
    n = len(cert["F"])
    entry = next(m for m in cert["matchings"].values() if m["pairing"])
    i, j = entry["pairing"][0]
    entry["pairing"][0] = [i, (j + 1) % n]
    return cert


def _table(op, cert):
    pieces = [piece["elements"] for piece in cert["A"] + cert["B"]]
    k = next(k for k, piece in enumerate(pieces) if piece)
    pieces[(k + 1) % len(pieces)].append(pieces[k].pop(0))
    return cert


@check
def forged_certificates_fail():
    radius0 = _first("certify", "defect", lambda op: op["produce"]["params"]["radius"] == "0")
    radius1 = _first("certify", "defect", lambda op: op["produce"]["params"]["radius"] == "1")
    table = _first("paradox", "paradox-search")
    for op, mutate in ((radius1, _theta), (radius0, _pairing), (table, _table)):
        assert _run(op).error is None, f"{op['kind']} fails unmutated"
        assert _run(op, mutate).error is not None, f"{mutate.__name__} mutation of a {op['kind']} op passed"


@check
def tracing_changes_no_output():
    cli, _, _ = _modules()
    for workload in run.workloads.WORKLOADS:
        op_list = _op_list(workload, run.DEFAULT_SEED)
        work_dir = run.ROOT / ".bench_tmp" / "selftest"
        try:
            plain = run.Loop(cli, op_list, work_dir)
            plain.for_count(10)
            tracer = run.Tracer()
            traced = run.Loop(cli, op_list, work_dir, tracer)
            with tracer:
                traced.for_count(10)
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
        assert plain.digests == traced.digests, f"{workload}: traced digests differ"
        assert not plain.failures and not traced.failures, f"{workload}: {plain.failures or traced.failures}"
        assert plain.digests == run.load_reference(workload)[:10], f"{workload}: digests differ from reference"


@check
def benchmark_json_names_the_printed_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    cli, _, _ = _modules()
    loop = run.Loop(cli, _op_list("certify", 1), run.ROOT / ".bench_tmp" / "selftest")
    try:
        loop.for_count(2)
    finally:
        shutil.rmtree(loop.work_dir, ignore_errors=True)
    setup = run.Setup("certify", 1)
    setup.times.append((0.1, 0))
    printed = {name: m["unit"] for name, m in run.end_to_end(loop, 1, setup, [1.0, 1.0]).items()}
    assert printed == {m["name"]: m["unit"] for m in spec["end_to_end"]}, "end_to_end metrics differ"
    layers = {name: run.tracing.unit(name) for name in run.tracing.metric_names()}
    assert layers == {m["name"]: m["unit"] for m in spec["per_layer"]}, "per_layer metrics differ"
    assert [w["name"] for w in spec["workloads"]] == list(run.workloads.WORKLOADS), "workloads differ"


@check
def refuses_to_run_without_sources():
    bare = run.ROOT / ".bench_tmp" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(run.HERE, bare / run.HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        out = subprocess.run(
            [sys.executable, f"{run.HERE.name}/run.py", "--workload", "certify", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert out.returncode != 0 and not out.stdout.strip(), f"exit {out.returncode}, stdout {out.stdout!r}"


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    run._load_package()
    failed = 0
    for fn in CHECKS:
        try:
            fn()
            print(f"[PASS] {fn.__name__}")
        except Exception as exc:  # report every check, whatever breaks
            failed += 1
            print(f"[FAIL] {fn.__name__}: {type(exc).__name__}: {exc}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
