"""Scenario-driven command line.

Every subcommand loads a scenario from --config or builds one from its flags
(`main` is the one place where flags become a scenario: a flag left out
leaves its field out, and the task fills in the field's default), runs it
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
    DEFAULT_STRATEGY,
    SEARCH_BUDGET,
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
    PARADOX_BUDGET,
    ClassifierError,
    ParadoxCertificate,
    f2_standard_certificate,
    search_small_paradox,
    verify_on_window,
)
from .perturb import (
    PACKAGE_BUDGET, PerturbedAction, build_perturbation, decompose_wobbling, precompact_perturbation,
    verify_perturbation,
)
from .suite import CRITERIA, run_suite
from .weights import FiniteWeight, SupportSizeError, invariance_defect, lipschitz_seminorm


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


def _path(obj, path: str) -> str:
    if not isinstance(obj, str):
        raise ConfigError(path, f"expected a file system path (a JSON string), got {obj!r}")
    return obj


def _load_model(obj, path: str) -> GroupModel:
    _expect(obj, path, ("kind",), ("params", "generators", "metric"))
    if not isinstance(obj.get("params", {}), dict):
        raise ConfigError(f"{path}.params", "expected an object")
    try:
        return model_from_json(obj)
    except CertificateError as exc:
        raise _certificate_error(exc, path)
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


def _budget(params: dict, default: int) -> int:
    budget = _integer(params.get("budget", default), "params.budget")
    if budget <= 0:
        raise ConfigError("params.budget", "budget must be positive")
    return budget


def _load_weight(obj, model: GroupModel, path: str) -> FiniteWeight:
    _expect(obj, path, ("support", "weights"))
    support, weights = obj["support"], obj["weights"]
    if not isinstance(support, list):
        raise ConfigError(f"{path}.support", "expected a list of element encodings")
    if not isinstance(weights, list) or len(weights) != len(support):
        raise ConfigError(f"{path}.weights", f"expected a list of {len(support)} rationals, one per support point")
    pairs = []
    for k, (x, w) in enumerate(zip(support, weights)):  # field paths are formatted only for a bad entry
        if not isinstance(x, str):
            _encoding(x, f"{path}.support[{k}]")
        try:
            g = model.parse(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"{path}.support[{k}]", str(exc))
        try:
            pairs.append((g, parse_fraction(w)))
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"{path}.weights[{k}]", str(exc))
    return FiniteWeight(model, pairs)


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
    except CertificateError as exc:
        raise _certificate_error(exc, path)


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
        for key in ("radius", "metric"):
            if key in params:
                raise ConfigError(f"params.{key}", "not read in discrete mode")
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


def _run_search(config: dict, artifacts: Artifacts) -> int:
    params = config["params"]
    _expect(params, "params", ("E", "theta", "strategy"), ("radius", "metric", "budget", "crosscheck"))
    crosscheck = _boolean(params.get("crosscheck", False), "params.crosscheck")
    model = _load_model(config["model"], "model")
    E = _load_window(params["E"], model, "params.E")
    U = _load_entourage(params, model, "params")
    theta = _rational(params["theta"], "params.theta")
    budget = _budget(params, SEARCH_BUDGET)
    strategy = params["strategy"]
    try:
        check_strategy(model, strategy)
    except ValueError as exc:
        raise ConfigError("params.strategy", str(exc))
    result = folner_search(model, E, U, theta, strategy=strategy, budget=budget, seed=config.get("seed"))
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
    _expect(params, "params", ("weight",), ("metric", "E"))
    model = _load_model(config["model"], "model")
    weight = _load_weight(params["weight"], model, "params.weight")
    metric_obj = params.get("metric")
    metric = _load_metric(metric_obj, model, "params.metric") if metric_obj else model.default_metric()
    if "E" in params:
        if not weight.is_stochastic():
            raise ConfigError("params.weight", "invariance defect is defined for stochastic weights")
        E = _load_window(params["E"], model, "params.E")
        try:
            defect = invariance_defect(weight, E, metric)
        except SupportSizeError as exc:  # a - g.a holds up to twice the points of a
            raise ConfigError("params.weight", f"a - g.a: {exc}")
        rows = [
            [model.format(r.g), str(r.full), r.pivots, str(r.witness_range)]
            for r in defect.rows
        ]
        artifacts.write_csv("report.csv", ["g", "p_d_defect", "lp_pivots", "witness_range"], rows)
        print(f"invariance defect: full={defect.full} restricted={defect.restricted}")
        return 0
    try:
        result = lipschitz_seminorm(weight, metric)
    except SupportSizeError as exc:
        raise ConfigError("params.weight.support", str(exc))
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


PRECOMPACT_FIELDS = ("radius", "metric", "window", "window_resolution", "pool", "sample_resolution")


def _precompact(params: dict, model: GroupModel, artifacts: Artifacts) -> int:
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


def _run_precompact(config: dict, artifacts: Artifacts) -> int:
    _expect(config["params"], "params", (), PRECOMPACT_FIELDS)
    return _precompact(config["params"], _load_model(config["model"], "model"), artifacts)


def _run_perturb(config: dict, artifacts: Artifacts) -> int:
    params = config["params"]
    _expect(
        params,
        "params",
        ("mode",),
        ("indices", "budget", "action", "permutation") + PRECOMPACT_FIELDS,
    )
    model = _load_model(config["model"], "model")
    mode = params["mode"]
    if mode == "build":
        if "indices" not in params:
            raise ConfigError("params.indices", "missing required field")
        if not isinstance(params["indices"], list):
            raise ConfigError("params.indices", "expected a list of {E, n} objects")
        U = _load_entourage(params, model, "params")
        family = []
        for k, idx in enumerate(params["indices"]):
            _expect(idx, f"params.indices[{k}]", ("E", "n"))
            E = _load_window(idx["E"], model, f"params.indices[{k}].E")
            if model.identity() not in E:
                raise ConfigError(f"params.indices[{k}].E", "every index pool must contain the identity")
            n = _integer(idx["n"], f"params.indices[{k}].n")
            if n < 2:
                raise ConfigError(f"params.indices[{k}].n", "index multiplicities start at 2")
            family.append((E, n))
        assembled = build_perturbation(model, family, U, budget=_budget(params, PACKAGE_BUDGET))
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
        return _precompact(params, model, artifacts)
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


# Default word radius of the window a paradox certificate is checked or searched on.
PARADOX_WINDOW_RESOLUTION = 4


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
    win = _window_or_grid(params, model, "window", "window_resolution", PARADOX_WINDOW_RESOLUTION)
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


def _run_paradox_search(config: dict, artifacts: Artifacts) -> int:
    params = config["params"]
    _expect(params, "params", ("pool", "max_pieces"), ("window", "window_resolution", "budget"))
    model = _load_model(config["model"], "model")
    win = _window_or_grid(params, model, "window", "window_resolution", PARADOX_WINDOW_RESOLUTION)
    pool = _load_window(params["pool"], model, "params.pool")
    budget = _budget(params, PARADOX_BUDGET)
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
        if "criteria" in params:
            raise ConfigError("params.criteria", "give criteria or scenarios, not both")
        directory = Path(_path(params["scenarios"], "params.scenarios"))
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
    for k, number in enumerate(numbers or ()):
        if number not in (n for n, _, _ in CRITERIA):
            raise ConfigError(f"params.criteria[{k}]", f"unknown criterion {number}")
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

TASKS: dict[str, Callable[[dict, Artifacts], int]] = {
    "defect": _run_defect,
    "search": _run_search,
    "seminorm": _run_seminorm,
    "matching": _run_matching,
    "perturb": _run_perturb,
    "precompact": _run_precompact,
    "paradox-verify": _run_paradox_verify,
    "paradox-search": _run_paradox_search,
    "suite": _run_suite_task,
}


def run_scenario_config(config: dict, out_dir: Optional[Path] = None) -> int:
    started = time.time()
    _expect(config, "scenario", ("task",), ("model", "params", "seed", "out_dir"))
    task = config["task"]
    if not isinstance(task, str) or task not in TASKS:
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
    if "seed" in config:
        _integer(config["seed"], "seed")
    if out_dir is None and "out_dir" in config:
        out_dir = Path(_path(config["out_dir"], "out_dir"))
    artifacts = Artifacts(out_dir)
    code = TASKS[task](config, artifacts)
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


def _reporting_errors(run: Callable[[], int]) -> int:
    """Run a command; malformed input (a ConfigError is a ValueError) or a
    failed construction is one `error:` line on stderr and exit 1."""
    try:
        return run()
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run_scenario(path: Path | str, out_dir: Optional[Path] = None) -> int:
    return _reporting_errors(lambda: run_scenario_config(_read_config(path), out_dir=out_dir))


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _command(sub, name: str, summary: str, with_model: bool = True):
    """A scenario subcommand: --config or the flags that build the same
    scenario, and --out-dir."""
    parser = sub.add_parser(name, help=summary)
    parser.add_argument(
        "--config", type=Path, help="scenario JSON; replaces every flag but --out-dir, --seed and --budget"
    )
    parser.add_argument("--out-dir", type=Path)
    if with_model:
        _model_flags(parser)
    return parser


def _model_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", type=Path, help="model descriptor JSON file")
    parser.add_argument("--kind", choices=["lattice", "free", "heisenberg", "circle", "torus", "cyclic"])
    parser.add_argument("--dim", type=int)
    parser.add_argument("--rank", type=int)
    parser.add_argument("--modulus", type=int)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="folnerlab",
        description="matching-based amenability certificates at exact desk scale",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_model = sub.add_parser("model", help="emit a model descriptor")
    _model_flags(p_model)
    p_model.set_defaults(kind="lattice")
    p_model.add_argument("--out", type=Path)

    p_matching = _command(sub, "matching", "bipartite matching between two windows")
    p_matching.add_argument("--E", dest="E")
    p_matching.add_argument("--F", dest="F")
    p_matching.add_argument("--radius")

    p_defect = _command(sub, "folner-defect", "matching defect of a window")
    p_defect.add_argument("--F", dest="F")
    p_defect.add_argument("--E", dest="E")
    p_defect.add_argument("--radius")
    p_defect.add_argument("--mode", choices=["topological", "discrete", "pairwise"])
    p_defect.add_argument("--verify-cert", type=Path, help="re-verify a certificate file instead")

    p_search = _command(sub, "folner-search", "search for a window meeting a defect target")
    p_search.add_argument("--E", dest="E")
    p_search.add_argument("--radius")
    p_search.add_argument("--theta")
    p_search.add_argument("--strategy", choices=STRATEGIES, default=DEFAULT_STRATEGY)
    p_search.add_argument("--seed", type=int, help="seed of the local strategy's restarts")
    p_search.add_argument("--budget", type=int, help=f"candidates to try (default {SEARCH_BUDGET})")

    p_semi = _command(sub, "seminorm", "bounded-Lipschitz seminorm / invariance defects")
    p_semi.add_argument("--weight", type=Path, help="weight JSON file")
    p_semi.add_argument("--E", dest="E")

    p_perturb = sub.add_parser("perturb", help="run a perturb scenario: build / verify / precompact / wobble")
    p_perturb.add_argument("--config", type=Path, required=True, help="scenario JSON")
    p_perturb.add_argument("--out-dir", type=Path)

    p_pre = _command(sub, "precompact", "finite-group perturbation on a precompact model")
    p_pre.add_argument("--radius")
    p_pre.add_argument("--window-resolution", type=int)
    p_pre.add_argument("--sample-resolution", type=int)

    p_paradox = _command(sub, "paradox", "verify or search paradox certificates")
    p_paradox.add_argument("mode", choices=["verify", "search"])
    p_paradox.add_argument("--cert", type=Path)
    p_paradox.add_argument("--standard", action="store_true", default=None)  # None: left out of the scenario
    p_paradox.add_argument("--window-resolution", type=int)
    p_paradox.add_argument("--pool")
    p_paradox.add_argument("--max-pieces", type=int, default=MIN_PIECES)
    p_paradox.add_argument("--budget", type=int, help=f"DP nodes to spend (default {PARADOX_BUDGET})")

    p_suite = _command(sub, "suite", "run the built-in verification suite", with_model=False)
    p_suite.add_argument("--criteria", help="comma-separated criterion numbers")
    p_suite.add_argument("--scenarios", type=Path, help="directory of scenario configs to run instead")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "model":
        return _reporting_errors(lambda: _emit_model(args))
    return _reporting_errors(lambda: run_scenario_config(_scenario(args), out_dir=args.out_dir))


def _emit_model(args) -> int:
    text = canonical_json(_load_model(_model_arg(args), "model").to_json())
    if args.out:
        args.out.write_text(text, encoding="utf-8")
    else:
        print(text, end="")
    return 0


def _scenario(args) -> dict:
    """The scenario a command line runs: its --config file, else the one its
    flags build; --seed and --budget are written into it either way."""
    config = _read_config(args.config) if args.config is not None else _config_from_flags(args)
    if not isinstance(config, dict):
        raise ConfigError("scenario", "expected an object")
    seed, budget = getattr(args, "seed", None), getattr(args, "budget", None)
    if seed is not None:
        config["seed"] = seed
    if budget is not None:
        if budget < 1:
            raise ConfigError("--budget", "budget must be positive")
        params = config.setdefault("params", {})
        if isinstance(params, dict):
            params["budget"] = budget
    return config


def _read_json_flag(path: Path, flag: str):
    """A JSON file named by a CLI flag; unreadable or non-JSON is a ConfigError."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ConfigError(flag, str(exc))


def _required(value, flag: str):
    if value is None:
        raise ConfigError(flag, "missing required flag")
    return value


def _window_arg(value: Optional[str], flag: str) -> list:
    """A window flag: a JSON file of element encodings, or the encodings
    joined by semicolons."""
    if _required(value, flag).endswith(".json"):
        return _read_json_flag(Path(value), flag)
    return [s for s in value.split(";") if s]


def _criteria_arg(text: Optional[str]) -> Optional[list[int]]:
    if not text:
        return None
    try:
        return [int(n) for n in text.split(",")]
    except ValueError:
        raise ConfigError("--criteria", f"expected comma-separated criterion numbers, got {text!r}")


def _model_arg(args) -> dict:
    if args.model is not None:
        return _read_json_flag(args.model, "--model")
    if args.kind is None:
        raise ConfigError("--kind", "missing required flag (or give --model FILE)")
    return {"kind": args.kind, "params": _given(dim=args.dim, rank=args.rank, modulus=args.modulus)}


def _given(**fields) -> dict:
    """The fields whose flags were given; the task fills in the rest."""
    return {key: value for key, value in fields.items() if value is not None}


def _config_from_flags(args) -> dict:
    command = args.command
    if command == "suite":
        scenarios = str(args.scenarios) if args.scenarios else None
        return {"task": "suite", "params": _given(criteria=_criteria_arg(args.criteria), scenarios=scenarios)}
    if command == "folner-defect" and args.verify_cert is not None:
        return {"task": "defect", "params": {"certificate": _read_json_flag(args.verify_cert, "--verify-cert")}}

    model = _model_arg(args)
    if command == "matching":
        params = _given(E=_window_arg(args.E, "--E"), F=_window_arg(args.F, "--F"), radius=args.radius)
        return {"task": "matching", "model": model, "params": params}
    if command == "folner-defect":
        if args.mode == "discrete" and args.radius is not None:
            raise ConfigError("--radius", "not read with --mode discrete")
        params = _given(F=_window_arg(args.F, "--F"), E=_window_arg(args.E, "--E"), radius=args.radius, mode=args.mode)
        return {"task": "defect", "model": model, "params": params}
    if command == "folner-search":
        params = _given(E=_window_arg(args.E, "--E"), radius=args.radius, theta=args.theta, strategy=args.strategy)
        return {"task": "search", "model": model, "params": params}
    if command == "seminorm":
        weight = _read_json_flag(_required(args.weight, "--weight"), "--weight")
        params = _given(weight=weight, E=_window_arg(args.E, "--E") if args.E else None)
        return {"task": "seminorm", "model": model, "params": params}
    if command == "precompact":
        params = _given(radius=args.radius, window_resolution=args.window_resolution,
                        sample_resolution=args.sample_resolution)
        return {"task": "precompact", "model": model, "params": params}
    if command == "paradox" and args.mode == "verify":
        cert = _read_json_flag(args.cert, "--cert") if args.cert is not None else None
        params = _given(window_resolution=args.window_resolution, standard=args.standard, certificate=cert)
        return {"task": "paradox-verify", "model": model, "params": params}
    # paradox search, the one command left
    params = _given(window_resolution=args.window_resolution, pool=_window_arg(args.pool, "--pool"),
                    max_pieces=args.max_pieces)
    return {"task": "paradox-search", "model": model, "params": params}


if __name__ == "__main__":
    raise SystemExit(main())
