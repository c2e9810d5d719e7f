"""Scenario-driven command line.

Every subcommand assembles a scenario (or loads one from --config), runs it
under the shared engine, and writes three kinds of artifact into the output
directory: certificate JSON (canonical: sorted keys, exact rationals as
strings, no timestamps), a report CSV, and a manifest carrying the config
hash, versions, and wall time.  Timing lives only in the manifest so that
certificates stay byte-reproducible.

Exit codes: 0 success, 2 target not met or budget exhausted (partial
reports are still written), 1 malformed input or internal error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import platform
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

from . import __version__
from .folner import (
    STRATEGIES,
    FolnerCertificate,
    check_strategy,
    discrete_defect,
    folner_search,
    pairwise_defect,
    seminorm_crosscheck,
    topological_defect,
)
from .groups import (
    CertificateError,
    Entourage,
    FiniteWindow,
    GroupElement,
    GroupModel,
    InvariantPseudoMetric,
    ScaledMetric,
    canonical_json,
    grid_sample,
    make_model,
    metric_from_json,
    model_from_json,
    parse_bool,
    parse_fraction,
    parse_index,
    write_canonical_json,
)
from .matching import build_graph, max_matching
from .paradox import (
    MIN_PIECES,
    ClassifierError,
    ParadoxCertificate,
    f2_standard_certificate,
    search_small_paradox,
    verify_on_window,
)
from .perturb import PerturbedAction, build_perturbation, decompose_wobbling, precompact_perturbation, verify_perturbation
from .suite import run_suite
from .weights import FiniteWeight, invariance_defect, lipschitz_seminorm

TASKS = (
    "defect",
    "search",
    "seminorm",
    "perturb",
    "precompact",
    "paradox-verify",
    "paradox-search",
    "suite",
)


class ConfigError(ValueError):
    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def _expect(obj: dict, path: str, required: tuple[str, ...], optional: tuple[str, ...] = ()) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(path, "expected an object")
    for key in required:
        if key not in obj:
            raise ConfigError(f"{path}.{key}", "missing required field")
    unknown = set(obj) - set(required) - set(optional)
    if unknown:
        raise ConfigError(f"{path}.{sorted(unknown)[0]}", "unknown field (strict schema)")


def _rational(obj, path: str) -> Fraction:
    try:
        return parse_fraction(obj)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(path, str(exc))


def _integer(obj, path: str) -> int:
    try:
        return parse_index(obj, path)
    except ValueError:
        raise ConfigError(path, f"expected a JSON integer, got {obj!r}")


def _boolean(obj, path: str) -> bool:
    try:
        return parse_bool(obj, path)
    except ValueError:
        raise ConfigError(path, f"expected a JSON boolean, got {obj!r}")


def _integers(obj, path: str) -> list[int]:
    if not isinstance(obj, list):
        raise ConfigError(path, "expected a list of JSON integers")
    return [_integer(v, f"{path}[{k}]") for k, v in enumerate(obj)]


def _load_model(obj, path: str) -> GroupModel:
    _expect(obj, path, ("kind",), ("params", "generators", "metric"))
    try:
        return model_from_json(obj)
    except (KeyError, ValueError) as exc:
        raise ConfigError(path, str(exc))


def _encoding(obj, path: str) -> str:
    if not isinstance(obj, str):
        raise ConfigError(path, f"expected an element encoding (a JSON string), got {obj!r}")
    return obj


def _element(obj, model: GroupModel, path: str) -> GroupElement:
    text = _encoding(obj, path)
    try:
        return model.parse(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(path, str(exc))


def _load_window(obj, model: GroupModel, path: str) -> FiniteWindow:
    if not isinstance(obj, list):
        raise ConfigError(path, "expected a list of element encodings")
    for k, item in enumerate(obj):
        _encoding(item, f"{path}[{k}]")
    try:
        return FiniteWindow.from_json(obj, model)
    except (ValueError, ZeroDivisionError) as exc:
        for k, item in enumerate(obj):  # name the first element that does not parse
            _element(item, model, f"{path}[{k}]")
        raise ConfigError(path, str(exc))


def _window_or_grid(params: dict, model: GroupModel, key: str, resolution_key: str, default: int) -> FiniteWindow:
    """The window at params[key], else the grid sample at params[resolution_key]."""
    if key in params:
        return _load_window(params[key], model, f"params.{key}")
    path = f"params.{resolution_key}"
    resolution = _integer(params.get(resolution_key, default), path)
    try:
        return grid_sample(model, resolution)
    except ValueError as exc:  # a resolution below 1, or a grid past the cap
        raise ConfigError(path, str(exc))


def _load_weight(obj, model: GroupModel, path: str) -> FiniteWeight:
    _expect(obj, path, ("support", "weights"))
    support, weights = obj["support"], obj["weights"]
    if not isinstance(support, list):
        raise ConfigError(f"{path}.support", "expected a list of element encodings")
    if not isinstance(weights, list) or len(weights) != len(support):
        raise ConfigError(f"{path}.weights", f"expected a list of {len(support)} rationals, one per support point")
    return FiniteWeight(
        model,
        [
            (_element(x, model, f"{path}.support[{k}]"), _rational(w, f"{path}.weights[{k}]"))
            for k, (x, w) in enumerate(zip(support, weights))
        ],
    )


def _certificate_error(exc: CertificateError, path: str) -> ConfigError:
    """The certificate's own field path, under the config path it came from."""
    return ConfigError(f"{path}.{exc.path}" if exc.path else path, exc.reason)


def _load_action(obj, model: GroupModel, path: str) -> PerturbedAction:
    _expect(obj, path, ("window", "pool", "rows", "radius"), ("involution", "folner_windows", "folner_pools"))
    try:
        return PerturbedAction.from_json(obj, model)
    except CertificateError as exc:
        raise _certificate_error(exc, path)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(path, str(exc))


def _load_metric(obj, model: GroupModel, path: str) -> InvariantPseudoMetric:
    if isinstance(obj, dict) and obj.get("rule") == "scaled":
        _expect(obj, path, ("rule", "factor", "base"))
        base = _load_metric(obj["base"], model, f"{path}.base")
        factor = _rational(obj["factor"], f"{path}.factor")
        try:
            return ScaledMetric(base, factor)
        except ValueError as exc:
            raise ConfigError(f"{path}.factor", str(exc))
    _expect(obj, path, ("rule",))
    try:
        return metric_from_json(obj, model)
    except ValueError as exc:
        raise ConfigError(f"{path}.rule", str(exc))


def _load_entourage(params: dict, model: GroupModel, path: str) -> Entourage:
    if "radius" not in params:
        raise ConfigError(f"{path}.radius", "missing required field")
    radius = _rational(params["radius"], f"{path}.radius")
    metric_obj = params.get("metric")
    metric = _load_metric(metric_obj, model, f"{path}.metric") if metric_obj else model.default_metric()
    return Entourage(metric, radius)


# ---------------------------------------------------------------------------
# Artifact helpers
# ---------------------------------------------------------------------------


class Artifacts:
    def __init__(self, out_dir: Optional[Path]):
        self.out_dir = out_dir
        self.written: list[str] = []

    def write_json(self, name: str, payload) -> None:
        if self.out_dir is not None:
            write_canonical_json(self.out_dir, name, payload)
            self.written.append(name)

    def write_csv(self, name: str, header: list[str], rows: list[list]) -> None:
        if self.out_dir is None:
            return
        self.out_dir.mkdir(parents=True, exist_ok=True)
        with open(self.out_dir / name, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
        self.written.append(name)


def _manifest(config: dict, artifacts: Artifacts, wall: float) -> None:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    payload = {
        "config_hash": hashlib.sha256(canonical.encode()).hexdigest(),
        "package_version": __version__,
        "python_version": platform.python_version(),
        "wall_time_s": wall,
        "artifacts": sorted(a for a in artifacts.written),
    }
    write_canonical_json(artifacts.out_dir, "manifest.json", payload)


# ---------------------------------------------------------------------------
# Task runners
# ---------------------------------------------------------------------------

# Largest |F| whose certificate a requested seminorm crosscheck measures.
CROSSCHECK_MAX_F = 200


def _crosscheck_bound(crosscheck: bool, cert: FolnerCertificate) -> str:
    """Run the seminorm crosscheck when asked for and |F| is small enough;
    the bound it asserted as report text, empty when it did not run."""
    if not crosscheck or len(cert.F) > CROSSCHECK_MAX_F:
        return ""
    return str(seminorm_crosscheck(cert)[1])


def _run_defect(config: dict, artifacts: Artifacts) -> int:
    params = config["params"]
    if "certificate" in params:
        _expect(params, "params", ("certificate",), ("crosscheck",))
        crosscheck = _boolean(params.get("crosscheck", False), "params.crosscheck")
        try:
            cert = FolnerCertificate.from_json(params["certificate"])
        except CertificateError as exc:
            raise _certificate_error(exc, "params.certificate")
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise ConfigError("params.certificate", f"malformed certificate: {exc!r}")
        try:
            cert.verify()
        except ValueError as exc:
            print(f"certificate INVALID: {exc}")
            return 2
        _crosscheck_bound(crosscheck, cert)
        print(f"certificate valid: theta={cert.theta} |F|={len(cert.F)}")
        return 0
    _expect(params, "params", ("F", "E"), ("radius", "metric", "mode", "crosscheck"))
    crosscheck = _boolean(params.get("crosscheck", False), "params.crosscheck")
    model = _load_model(config["model"], "model")
    F = _load_window(params["F"], model, "params.F")
    E = _load_window(params["E"], model, "params.E")
    mode = params.get("mode", "topological")
    if mode == "discrete":
        theta = discrete_defect(F, E)
        artifacts.write_csv("report.csv", ["mode", "|F|", "theta"], [["discrete", len(F), str(theta)]])
        print(f"discrete defect: {theta}")
        return 0
    U = _load_entourage(params, model, "params")
    if mode == "pairwise":
        theta = pairwise_defect(F, E, U)
        artifacts.write_csv("report.csv", ["mode", "|F|", "theta"], [["pairwise", len(F), str(theta)]])
        print(f"pairwise defect: {theta}")
        return 0
    if mode != "topological":
        raise ConfigError("params.mode", f"unknown mode {mode!r}")
    theta, cert = topological_defect(F, E, U)
    bound = _crosscheck_bound(crosscheck, cert)
    artifacts.write_json("certificate.json", cert.to_json())
    artifacts.write_csv(
        "report.csv",
        ["candidate_id", "|F|", "theta", "seminorm_bound", "passed"],
        [[0, len(F), str(theta), bound, "yes"]],
    )
    print(f"topological defect: {theta}")
    return 0


def _run_search(config: dict, artifacts: Artifacts, seed: Optional[int], budget_flag: Optional[int]) -> int:
    params = config["params"]
    _expect(params, "params", ("E", "theta", "strategy"), ("radius", "metric", "budget", "crosscheck"))
    crosscheck = _boolean(params.get("crosscheck", False), "params.crosscheck")
    model = _load_model(config["model"], "model")
    E = _load_window(params["E"], model, "params.E")
    U = _load_entourage(params, model, "params")
    theta = _rational(params["theta"], "params.theta")
    budget = budget_flag if budget_flag is not None else _integer(params.get("budget", 50), "params.budget")
    if budget <= 0:
        raise ConfigError("--budget" if budget_flag is not None else "params.budget", "budget must be positive")
    strategy = params["strategy"]
    try:
        check_strategy(model, strategy)
    except ValueError as exc:
        raise ConfigError("params.strategy", str(exc))
    result = folner_search(model, E, U, theta, strategy=strategy, budget=budget, seed=seed)
    rows = []
    if result.certificate is not None:
        cert = result.certificate
        passed = "yes" if result.found else "no"
        bound = _crosscheck_bound(crosscheck, cert)
        rows.append([result.best_index, len(cert.F), str(cert.theta), bound, passed])
        artifacts.write_json("certificate.json", result.to_json())
    artifacts.write_csv("report.csv", ["candidate_id", "|F|", "theta", "seminorm_bound", "passed"], rows)
    print(
        f"search: found={result.found} best_theta={result.best_theta} "
        f"tried={result.candidates_tried} budget_exhausted={result.budget_exhausted}"
    )
    return 0 if result.found else 2


def _run_seminorm(config: dict, artifacts: Artifacts) -> int:
    params = config["params"]
    _expect(params, "params", ("weight",), ("metric", "E", "radius"))
    model = _load_model(config["model"], "model")
    weight = _load_weight(params["weight"], model, "params.weight")
    metric_obj = params.get("metric")
    metric = _load_metric(metric_obj, model, "params.metric") if metric_obj else model.default_metric()
    if "E" in params:
        E = _load_window(params["E"], model, "params.E")
        defect = invariance_defect(weight, E, metric)
        rows = [
            [model.format(r.g), str(r.full), r.pivots, str(r.witness_range)]
            for r in defect.rows
        ]
        artifacts.write_csv("report.csv", ["g", "p_d_defect", "lp_pivots", "witness_range"], rows)
        print(f"invariance defect: full={defect.full} restricted={defect.restricted}")
        return 0
    result = lipschitz_seminorm(weight, metric)
    artifacts.write_csv(
        "report.csv",
        ["g", "p_d_defect", "lp_pivots", "witness_range"],
        [["", str(result.value), result.pivots, str(result.witness_range())]],
    )
    print(f"seminorm: {result.value} (engine {result.engine})")
    return 0


def _run_matching(config: dict, artifacts: Artifacts) -> int:
    params = config["params"]
    _expect(params, "params", ("E", "F"), ("radius", "metric"))
    model = _load_model(config["model"], "model")
    E = _load_window(params["E"], model, "params.E")
    F = _load_window(params["F"], model, "params.F")
    U = _load_entourage(params, model, "params")
    instance = build_graph(E, F, U)
    result = max_matching(instance)
    artifacts.write_json("instance.json", instance.to_json())
    artifacts.write_json("certificate.json", result.to_json())
    artifacts.write_csv(
        "report.csv",
        ["|E|", "|F|", "edges", "mu", "perfect", "deficiency"],
        [[len(E), len(F), instance.edge_count(), result.mu, result.perfect, result.witness_deficiency()]],
    )
    print(f"matching: mu={result.mu} perfect={result.perfect}")
    return 0


def _run_perturb(config: dict, artifacts: Artifacts) -> int:
    params = config["params"]
    _expect(
        params,
        "params",
        ("mode",),
        ("indices", "radius", "metric", "budget", "action", "window_resolution",
         "sample_resolution", "window", "pool", "permutation"),
    )
    model = _load_model(config["model"], "model")
    mode = params["mode"]
    if mode == "build":
        if "indices" not in params:
            raise ConfigError("params.indices", "missing required field")
        U = _load_entourage(params, model, "params")
        family = []
        for k, idx in enumerate(params["indices"]):
            _expect(idx, f"params.indices[{k}]", ("E", "n"))
            E = _load_window(idx["E"], model, f"params.indices[{k}].E")
            n = _integer(idx["n"], f"params.indices[{k}].n")
            if n < 2:
                raise ConfigError(f"params.indices[{k}].n", "index multiplicities start at 2")
            family.append((E, n))
        budget = _integer(params.get("budget", 60), "params.budget")
        if budget <= 0:
            raise ConfigError("params.budget", "budget must be positive")
        assembled = build_perturbation(model, family, U, budget=budget)
        artifacts.write_json("certificate.json", assembled.action.to_json())
        artifacts.write_json("report.json", assembled.report.to_json())
        print(f"build: window={len(assembled.action.window)} violations={len(assembled.report.violations)}")
        return 0
    if mode == "verify":
        if "action" not in params:
            raise ConfigError("params.action", "missing required field")
        U = _load_entourage(params, model, "params")
        action = _load_action(params["action"], model, "params.action")
        report = verify_perturbation(action, U)
        artifacts.write_json("report.json", report.to_json())
        rows = [[v.g.model.format(v.g), v.g.model.format(v.h), str(v.distance)] for v in report.violations]
        artifacts.write_csv("report.csv", ["g", "h", "distance"], rows)
        print(f"verify: violations={len(report.violations)} max_deviation={report.max_deviation}")
        return 0 if report.ok else 2
    if mode == "precompact":
        U = _load_entourage(params, model, "params")
        win = _window_or_grid(params, model, "window", "window_resolution", 60)
        sample = _window_or_grid(params, model, "pool", "sample_resolution", 12)
        result = precompact_perturbation(model, U, win, sample)
        artifacts.write_json("certificate.json", result.to_json())
        print(
            f"precompact: |F|={len(result.centers)} order={result.group_order} "
            f"bound={result.order_bound} lift={result.lift_mode}"
        )
        return 0
    if mode == "wobble":
        for key in ("window", "pool", "permutation"):
            if key not in params:
                raise ConfigError(f"params.{key}", "missing required field")
        win = _load_window(params["window"], model, "params.window")
        pool = _load_window(params["pool"], model, "params.pool")
        permutation = _integers(params["permutation"], "params.permutation")
        element = decompose_wobbling(permutation, win, pool)
        artifacts.write_json(
            "certificate.json",
            {
                "window": win.to_json(),
                "pieces": [
                    {"translator": model.format(g), "piece": piece.to_json()}
                    for g, piece in element.pieces
                ],
            },
        )
        print(f"wobble: {len(element.pieces)} pieces")
        return 0
    raise ConfigError("params.mode", f"unknown mode {mode!r}")


def _run_paradox_verify(config: dict, artifacts: Artifacts) -> int:
    params = config["params"]
    _expect(params, "params", (), ("certificate", "standard", "window", "window_resolution", "action"))
    model = _load_model(config["model"], "model")
    standard = _boolean(params.get("standard", False), "params.standard")
    if standard and "certificate" in params:
        raise ConfigError("params.standard", "give a certificate or standard: true, not both")
    if standard:
        try:
            cert = f2_standard_certificate(model)
        except ValueError as exc:
            raise ConfigError("params.standard", str(exc))
    elif "certificate" in params:
        try:
            cert = ParadoxCertificate.from_json(params["certificate"], model)
        except CertificateError as exc:
            raise _certificate_error(exc, "params.certificate")
    else:
        raise ConfigError("params.certificate", "need a certificate or standard: true")
    win = _window_or_grid(params, model, "window", "window_resolution", 4)
    action = _load_action(params["action"], model, "params.action") if "action" in params else None
    try:
        report = verify_on_window(cert, win, action)
    except ClassifierError as exc:
        raise _certificate_error(exc, "params.certificate")
    artifacts.write_json("certificate.json", cert.to_json())
    artifacts.write_json("report.json", report.to_json())
    artifacts.write_csv(
        "report.csv",
        ["equation", "checkable", "violations", "boundary_defects"],
        [[e.name, e.checkable, e.interior_violations, e.boundary_defects] for e in report.equations],
    )
    print(f"paradox verify: interior={report.interior_violations} boundary={report.boundary_defects}")
    return 0 if report.interior_violations == 0 else 2


def _run_paradox_search(config: dict, artifacts: Artifacts, budget_flag: Optional[int]) -> int:
    params = config["params"]
    _expect(params, "params", ("pool", "max_pieces"), ("window", "window_resolution", "budget"))
    model = _load_model(config["model"], "model")
    win = _window_or_grid(params, model, "window", "window_resolution", 4)
    pool = _load_window(params["pool"], model, "params.pool")
    budget = budget_flag if budget_flag is not None else _integer(params.get("budget", 2_000_000), "params.budget")
    if budget <= 0:
        raise ConfigError("--budget" if budget_flag is not None else "params.budget", "budget must be positive")
    max_pieces = _integer(params["max_pieces"], "params.max_pieces")
    if max_pieces < MIN_PIECES:
        raise ConfigError("params.max_pieces", f"must be at least {MIN_PIECES}, the least pieces a paradox can use")
    report = search_small_paradox(win, pool, max_pieces, budget=budget)
    artifacts.write_json("report.json", report.to_json())
    best = report.best()
    if best is not None and best.certificate is not None:
        artifacts.write_json("certificate.json", best.certificate.to_json())
    artifacts.write_csv(
        "report.csv",
        ["pieces", "best_defect", "checkable", "exhausted"],
        [[r.pieces, r.best_defect, r.checkable, r.exhausted] for r in report.reports],
    )
    for r in report.reports:
        print(f"pieces={r.pieces} best_defect={r.best_defect} exhausted={r.exhausted}")
    return 0 if report.exhausted else 2


def _run_suite_task(config: dict, artifacts: Artifacts) -> int:
    params = config.get("params", {})
    _expect(params, "params", (), ("criteria", "scenarios"))
    if "scenarios" in params:
        directory = Path(params["scenarios"])
        rows = []
        status = 0
        for path in sorted(directory.glob("*.json")):
            sub_out = artifacts.out_dir / path.stem if artifacts.out_dir else None
            code = run_scenario(path, out_dir=sub_out)
            rows.append([path.name, code])
            status = max(status, 0 if code == 0 else 2)
        artifacts.write_csv("report.csv", ["scenario", "exit_code"], rows)
        for name, code in rows:
            print(f"{name}: exit {code}")
        return status
    numbers = _integers(params["criteria"], "params.criteria") if "criteria" in params else None
    results = run_suite(out_dir=artifacts.out_dir, numbers=numbers)
    artifacts.write_csv(
        "report.csv",
        ["criterion", "name", "passed", "measured"],
        [[r.number, r.name, r.passed, r.measured] for r in results],
    )
    for r in results:
        print(r.row())
    return 0 if all(r.passed for r in results) else 2


# ---------------------------------------------------------------------------
# Scenario engine
# ---------------------------------------------------------------------------


def run_scenario_config(
    config: dict,
    out_dir: Optional[Path] = None,
    seed: Optional[int] = None,
    budget: Optional[int] = None,
) -> int:
    started = time.time()
    _expect(config, "scenario", ("task",), ("model", "params", "seed", "out_dir"))
    task = config["task"]
    if task not in TASKS and task != "matching":
        raise ConfigError("task", f"unknown task {task!r}")
    if "params" not in config and task != "suite":
        raise ConfigError("params", "missing required field")
    cert_only = (
        task == "defect"
        and isinstance(config.get("params"), dict)
        and "certificate" in config["params"]
    )
    if task != "suite" and not cert_only and "model" not in config:
        raise ConfigError("model", "missing required field")
    if seed is None and "seed" in config:
        seed = _integer(config["seed"], "seed")
    if out_dir is None and "out_dir" in config:
        out_dir = Path(config["out_dir"])
    artifacts = Artifacts(out_dir)
    if task == "defect":
        code = _run_defect(config, artifacts)
    elif task == "search":
        code = _run_search(config, artifacts, seed, budget)
    elif task == "seminorm":
        code = _run_seminorm(config, artifacts)
    elif task == "matching":
        code = _run_matching(config, artifacts)
    elif task == "perturb":
        code = _run_perturb(config, artifacts)
    elif task == "precompact":
        merged = dict(config)
        merged_params = dict(config["params"])
        merged_params.setdefault("mode", "precompact")
        merged["params"] = merged_params
        code = _run_perturb(merged, artifacts)
    elif task == "paradox-verify":
        code = _run_paradox_verify(config, artifacts)
    elif task == "paradox-search":
        code = _run_paradox_search(config, artifacts, budget)
    else:
        code = _run_suite_task(config, artifacts)
    _manifest(config, artifacts, time.time() - started)
    return code


def _read_config(path: Path | str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot read config: {exc}")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"config is not valid JSON: {exc}")


def _run_reporting_errors(
    load: Callable[[], dict], out_dir: Optional[Path], seed: Optional[int], budget: Optional[int]
) -> int:
    """Load and run a scenario; malformed input (a ConfigError is a ValueError)
    or a failed construction is one `error:` line on stderr and exit 1."""
    try:
        return run_scenario_config(load(), out_dir=out_dir, seed=seed, budget=budget)
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run_scenario(
    path: Path | str,
    out_dir: Optional[Path] = None,
    seed: Optional[int] = None,
    budget: Optional[int] = None,
) -> int:
    return _run_reporting_errors(lambda: _read_config(path), out_dir, seed, budget)


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, help="scenario JSON (overrides other flags)")
    parser.add_argument("--out-dir", type=Path, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--budget", type=int, default=None)


def _window_arg(path_or_inline: str) -> list[str]:
    p = Path(path_or_inline)
    if p.suffix == ".json" and p.exists():
        return json.loads(p.read_text(encoding="utf-8"))
    return [s for s in path_or_inline.split(";") if s]


def _model_arg(args) -> dict:
    if args.model is not None:
        return json.loads(Path(args.model).read_text(encoding="utf-8"))
    params = {}
    if args.dim is not None:
        params["dim"] = args.dim
    if args.rank is not None:
        params["rank"] = args.rank
    if args.modulus is not None:
        params["modulus"] = args.modulus
    return {"kind": args.kind, "params": params}


def _model_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", type=Path, help="model descriptor JSON file")
    parser.add_argument("--kind", choices=["lattice", "free", "heisenberg", "circle", "torus", "cyclic"])
    parser.add_argument("--dim", type=int)
    parser.add_argument("--rank", type=int)
    parser.add_argument("--modulus", type=int)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="folnerlab",
        description="matching-based amenability certificates at exact desk scale",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_model = sub.add_parser("model", help="emit a model descriptor")
    _model_flags(p_model)
    p_model.add_argument("--out", type=Path, default=None)

    p_matching = sub.add_parser("matching", help="bipartite matching between two windows")
    _model_flags(p_matching)
    _add_common(p_matching)
    p_matching.add_argument("--E", dest="E")
    p_matching.add_argument("--F", dest="F")
    p_matching.add_argument("--radius")

    p_defect = sub.add_parser("folner-defect", help="matching defect of a window")
    _model_flags(p_defect)
    _add_common(p_defect)
    p_defect.add_argument("--F", dest="F")
    p_defect.add_argument("--E", dest="E")
    p_defect.add_argument("--radius")
    p_defect.add_argument("--mode", choices=["topological", "discrete", "pairwise"], default="topological")
    p_defect.add_argument("--verify-cert", type=Path, help="re-verify a certificate file instead")

    p_search = sub.add_parser("folner-search", help="search for a window meeting a defect target")
    _model_flags(p_search)
    _add_common(p_search)
    p_search.add_argument("--E", dest="E")
    p_search.add_argument("--radius")
    p_search.add_argument("--theta")
    p_search.add_argument("--strategy", choices=STRATEGIES, default="balls")

    p_semi = sub.add_parser("seminorm", help="bounded-Lipschitz seminorm / invariance defects")
    _model_flags(p_semi)
    _add_common(p_semi)
    p_semi.add_argument("--weight", type=Path, help="weight JSON file")
    p_semi.add_argument("--E", dest="E")

    p_perturb = sub.add_parser("perturb", help="build / verify / precompact / wobble")
    p_perturb.add_argument("mode", choices=["build", "verify", "precompact", "wobble"])
    _model_flags(p_perturb)
    _add_common(p_perturb)
    p_perturb.add_argument("--radius")
    p_perturb.add_argument("--window-resolution", type=int, default=60)
    p_perturb.add_argument("--sample-resolution", type=int, default=12)

    p_pre = sub.add_parser("precompact", help="finite-group perturbation on a precompact model")
    _model_flags(p_pre)
    _add_common(p_pre)
    p_pre.add_argument("--radius")
    p_pre.add_argument("--window-resolution", type=int, default=60)
    p_pre.add_argument("--sample-resolution", type=int, default=12)

    p_paradox = sub.add_parser("paradox", help="verify or search paradox certificates")
    p_paradox.add_argument("mode", choices=["verify", "search"])
    _model_flags(p_paradox)
    _add_common(p_paradox)
    p_paradox.add_argument("--cert", type=Path)
    p_paradox.add_argument("--standard", action="store_true")
    p_paradox.add_argument("--window-resolution", type=int, default=4)
    p_paradox.add_argument("--pool")
    p_paradox.add_argument("--max-pieces", type=int, default=4)

    p_suite = sub.add_parser("suite", help="run the built-in verification suite")
    _add_common(p_suite)
    p_suite.add_argument("--criteria", help="comma-separated criterion numbers")
    p_suite.add_argument("--scenarios", type=Path, help="directory of scenario configs to run instead")

    args = parser.parse_args(argv)

    if args.command == "model":
        descriptor = make_model(args.kind or "lattice", **{
            k: v for k, v in (("dim", args.dim), ("rank", args.rank), ("modulus", args.modulus)) if v is not None
        }).to_json()
        text = canonical_json(descriptor)
        if args.out:
            args.out.write_text(text, encoding="utf-8")
        else:
            print(text, end="")
        return 0

    if getattr(args, "config", None) is not None:
        return run_scenario(args.config, out_dir=args.out_dir, seed=args.seed, budget=args.budget)
    return _run_reporting_errors(lambda: _config_from_flags(args), args.out_dir, args.seed, args.budget)


def _read_json_flag(path: Path, flag: str):
    """A JSON file named by a CLI flag; unreadable or non-JSON is a ConfigError."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ConfigError(flag, str(exc))


def _config_from_flags(args) -> dict:
    command = args.command
    if command == "suite":
        params: dict = {}
        if args.criteria:
            params["criteria"] = [int(n) for n in args.criteria.split(",")]
        if args.scenarios:
            params["scenarios"] = str(args.scenarios)
        return {"task": "suite", "params": params}

    model = _model_arg(args)
    if command == "matching":
        return {
            "task": "matching",
            "model": model,
            "params": {"E": _window_arg(args.E), "F": _window_arg(args.F), "radius": args.radius},
        }
    if command == "folner-defect":
        if args.verify_cert is not None:
            cert = _read_json_flag(args.verify_cert, "--verify-cert")
            return {"task": "defect", "params": {"certificate": cert}}
        params = {"F": _window_arg(args.F), "E": _window_arg(args.E), "mode": args.mode}
        if args.mode != "discrete":
            if args.radius is None:
                raise ConfigError("params.radius", "missing required field")
            params["radius"] = args.radius
        return {"task": "defect", "model": model, "params": params}
    if command == "folner-search":
        return {
            "task": "search",
            "model": model,
            "params": {
                "E": _window_arg(args.E),
                "radius": args.radius,
                "theta": args.theta,
                "strategy": args.strategy,
                "budget": args.budget or 50,
            },
        }
    if command == "seminorm":
        if args.weight is None:
            raise ConfigError("--weight", "missing required flag")
        params = {"weight": _read_json_flag(args.weight, "--weight")}
        if args.E:
            params["E"] = _window_arg(args.E)
        return {"task": "seminorm", "model": model, "params": params}
    if command in ("perturb", "precompact"):
        mode = args.mode if command == "perturb" else "precompact"
        params = {
            "mode": mode,
            "radius": args.radius,
            "window_resolution": args.window_resolution,
            "sample_resolution": args.sample_resolution,
        }
        return {"task": "perturb", "model": model, "params": params}
    if command == "paradox":
        if args.mode == "verify":
            params = {"window_resolution": args.window_resolution}
            if args.standard:
                params["standard"] = True
            elif args.cert:
                params["certificate"] = _read_json_flag(args.cert, "--cert")
            return {"task": "paradox-verify", "model": model, "params": params}
        params = {
            "window_resolution": args.window_resolution,
            "pool": _window_arg(args.pool),
            "max_pieces": args.max_pieces,
        }
        if args.budget:
            params["budget"] = args.budget
        return {"task": "paradox-search", "model": model, "params": params}
    raise ConfigError("command", f"unhandled command {command!r}")


if __name__ == "__main__":
    raise SystemExit(main())
