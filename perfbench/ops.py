"""Running one op: a produce call, then a verify call fed from the produced file.

Both calls go through `folnerlab.cli.run_scenario_config`, the engine behind
`folnerlab --config`.  Only the two calls, the read of the produced file and
the build of the verify config are timed; output checks run after the clock
stops.  A check that fails makes the op fail, with the reason kept.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional


class CheckFailed(Exception):
    pass


@dataclass
class OpResult:
    produce_s: float
    verify_s: float
    digest: str
    error: Optional[str] = None


def _fresh(path: Path) -> Path:
    """An empty output directory, emptied file by file to keep I/O small."""
    path.mkdir(parents=True, exist_ok=True)
    for child in path.iterdir():
        child.unlink()
    return path


def _call(cli, config: dict, out_dir: Path) -> tuple[int, str]:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.run_scenario_config(config, out_dir=out_dir)
    return code, stdout.getvalue()


def _expect(what: str, got, want) -> None:
    if got != want:
        raise CheckFailed(f"{what}: got {got!r}, expected {want!r}")


def _json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def _csv_rows(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))[1:]


def _window_params(params: dict) -> dict:
    return {k: params[k] for k in ("window", "window_resolution") if k in params}


def verify_config(op: dict, cert: dict) -> dict:
    """The CLI verify task that re-checks a produced certificate file."""
    kind = op["kind"]
    produce = op["produce"]
    if kind == "defect":
        return {"task": "defect", "params": {"certificate": cert}}
    if kind == "search":
        return {"task": "defect", "params": {"certificate": cert["certificate"]}}
    if kind in ("precompact", "build"):
        action = cert["action"] if kind == "precompact" else cert
        params = {"mode": "verify", "action": action, "radius": produce["params"]["radius"]}
        return {"task": "perturb", "model": produce["model"], "params": params}
    params = {"certificate": cert, **_window_params(produce["params"])}
    return {"task": "paradox-verify", "model": produce["model"], "params": params}


def _seminorm_value(out_dir: Path) -> str:
    return _csv_rows(out_dir / "report.csv")[0][1]


def _check(op: dict, code: int, produced: Path, vcode: int, vout: str, verified: Path) -> None:
    kind = op["kind"]
    expect = op["expect"]
    _expect("produce exit code", code, expect["code"])
    if kind in ("defect", "search"):
        cert = _json(produced / "certificate.json")
        if kind == "search":
            _expect("search found", cert["found"], expect["code"] == 0)
            _expect("search best_theta", cert["best_theta"], cert["certificate"]["theta"])
            theta = cert["best_theta"]
        else:
            theta = cert["theta"]
        if "theta" in expect:
            _expect("theta oracle", theta, expect["theta"])
        _expect("verify exit code", vcode, 0)
        _expect("verified theta", f"theta={theta} " in vout, True)
    elif kind in ("precompact", "build"):
        if kind == "precompact":
            cert = _json(produced / "certificate.json")
            _expect("order divides |F|!", cert["order_bound"] % cert["group_order"], 0)
        _expect("verify exit code", vcode, 0)
        _expect("verify violations", _json(verified / "report.json")["violations"], [])
    elif kind == "paradox-search":
        report = _json(produced / "report.json")
        best = min(
            (r for r in report["per_piece_count"] if r["best_defect"] is not None),
            key=lambda r: (r["best_defect"], r["pieces"]),
        )
        _expect("verify exit code", vcode, 0 if best["best_defect"] == 0 else 2)
        interior = sum(e["interior_violations"] for e in _json(verified / "report.json")["equations"])
        _expect("interior violations against best_defect", interior, best["best_defect"])
    elif kind == "paradox-standard":
        report = _json(produced / "report.json")
        _expect("standard interior violations", sum(e["interior_violations"] for e in report["equations"]), 0)
        _expect("verify exit code", vcode, 0)
        _expect("re-verified report", _json(verified / "report.json"), report)
    elif kind in ("two-point", "difference"):
        value = _seminorm_value(produced)
        if "value" in expect:
            _expect("two-point oracle", Fraction(value), Fraction(expect["value"]))
        _expect("verify exit code", vcode, 0)
        _expect("seminorm of the negated weight", _seminorm_value(verified), value)
    elif kind == "invariance":
        rows = {row[0]: row[1] for row in _csv_rows(produced / "report.csv")}
        g = op["produce"]["params"]["E"][0]
        _expect("verify exit code", vcode, 0)
        _expect(f"seminorm of a - {g}.a against the invariance row", _seminorm_value(verified), rows[g])
    else:
        raise CheckFailed(f"unknown op kind {kind!r}")


def digest_of(out_dir: Path) -> str:
    """Digest of the produced certificate file (report.csv when there is none)."""
    path = out_dir / "certificate.json"
    if not path.exists():
        path = out_dir / "report.csv"
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


def run_op(
    cli,
    op: dict,
    work_dir: Path,
    mutate: Optional[Callable[[dict, dict], dict]] = None,
) -> OpResult:
    """Produce, then verify from the produced file; check both afterwards.

    `mutate(op, certificate)` may rewrite the certificate between the two
    calls; the benchmark's self-test uses it to show forged files fail.
    """
    produced = _fresh(work_dir / "produce")
    verified = _fresh(work_dir / "verify")
    start = time.perf_counter()
    code, _ = _call(cli, op["produce"], produced)
    produce_s = time.perf_counter() - start
    digest = digest_of(produced)
    if mutate is not None:
        cert_path = produced / "certificate.json"
        cert_path.write_text(json.dumps(mutate(op, _json(cert_path)), sort_keys=True, indent=2) + "\n")

    start = time.perf_counter()
    if "verify" in op:
        config = op["verify"]
    else:
        config = verify_config(op, _json(produced / "certificate.json"))
    vcode, vout = _call(cli, config, verified)
    verify_s = time.perf_counter() - start

    result = OpResult(produce_s, verify_s, digest)
    try:
        _check(op, code, produced, vcode, vout, verified)
    except (CheckFailed, OSError, KeyError, ValueError) as exc:
        result.error = f"{type(exc).__name__}: {exc}"
    return result
