"""Scenario-driven command line.

Every subcommand loads a scenario from --config or builds one from its flags
(each fills the params field it is named for; a flag left out leaves its
field out, and the task fills in the field's default), runs it under the
shared engine, and writes three kinds of artifact into the output
directory: certificate JSON (canonical: sorted keys, exact rationals as
strings, no timestamps), a report CSV, and a manifest carrying the config
hash, versions, and wall time.  Timing lives only in the manifest so that
certificates stay byte-reproducible.  Only this module writes files: the
suite's criteria hand theirs back in their rows, and `Artifacts` writes them.

Each task, and each mode of a task, declares its fields once in `TASKS`: a
name, a parser and a default or `REQUIRED`.  `_load` applies these tables to
the scenario and its params, so runners receive parsed values only.

Exit codes: 0 success, 2 target not met or budget exhausted (partial
reports are still written), 1 malformed input or internal error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import io
import json
import platform
import sys
import time
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable, NamedTuple, Optional

from . import __version__
from .folner import (
    DEFAULT_STRATEGY,
    SEARCH_BUDGET,
    STRATEGIES,
    FolnerCertificate,
    bridge_metric,
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
    GroupModel,
    WindowSizeError,
    _KINDS,
    canonical_json,
    certificate_fraction,
    grid_sample,
    metric_from_json,
    model_from_json,
    parse_bool,
    parse_index,
    parse_radius,
    parse_window,
    require_fields,
)
from .matching import build_graph, max_matching
from .paradox import (
    MIN_PIECES,
    PARADOX_BUDGET,
    ParadoxCertificate,
    f2_standard_certificate,
    search_small_paradox,
    verify_on_window,
)
from .perturb import (
    PACKAGE_BUDGET, BudgetError, ConstructionError, PerturbedAction, build_perturbation, decompose_wobbling,
    precompact_perturbation, verify_perturbation,
)
from .suite import CRITERIA, run_suite
from .weights import FiniteWeight, SupportSizeError, invariance_defect, lipschitz_seminorm


class ConfigError(ValueError):
    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


# The default of a field that must be given.
REQUIRED = object()


def _at(path: str, key: str) -> str:
    """The path of `key` in the object at `path` ("" is the scenario itself)."""
    return f"{path}.{key}" if path else key


def _certificate_error(exc: CertificateError, path: str) -> ConfigError:
    """The certificate's own field path, under the config path it came from."""
    return ConfigError(_at(path, exc.path) if exc.path else path or "scenario", exc.reason)


def _from_json(load: Callable[[Any, Optional[GroupModel]], Any]) -> Callable:
    """The parser of load(obj, model), with its CertificateError under the field's path."""

    def parse(obj, path: str, model=None):
        try:
            return load(obj, model)
        except CertificateError as exc:
            raise _certificate_error(exc, path)

    return parse


def _expect(obj, path: str, required, optional=(), mode: str = "", siblings=()) -> None:
    """`require_fields` on a config object, under `path`; an unknown field
    that one of the `siblings` tables reads is "not read in <mode> mode"."""
    try:
        require_fields(obj, required, optional)
    except CertificateError as exc:
        if exc.path and exc.path in obj and any(exc.path in fields for fields in siblings):
            raise ConfigError(_at(path, exc.path), f"not read in {mode} mode") from None
        raise _certificate_error(exc, path) from None


def _load(obj, path: str, fields: dict, model=None, mode: str = "", siblings=()) -> SimpleNamespace:
    """Apply a field table {name: (parser, default)} to a config object: after
    `_expect`, each given field is parsed by parser(value, path, model) in
    table order and each absent one takes its default (a callable default is
    called with the model)."""
    _expect(obj, path, [key for key, (_, default) in fields.items() if default is REQUIRED], fields, mode, siblings)
    return SimpleNamespace(**{
        key: parse(obj[key], _at(path, key), model) if key in obj else default(model) if callable(default) else default
        for key, (parse, default) in fields.items()
    })


def _as_is(obj, path: str, model=None):
    return obj


def _checked(parse: Callable, ok: Callable[[Any], bool], message: str) -> Callable:
    """The parser `parse`, refusing a parsed value v that `ok` rejects with `message.format(v)`."""

    def parse_checked(obj, path: str, model=None):
        value = parse(obj, path, model)
        if not ok(value):
            raise ConfigError(path, message.format(value))
        return value

    return parse_checked


_integer = _from_json(lambda obj, model: parse_index(obj, ""))
_boolean = _from_json(lambda obj, model: parse_bool(obj, ""))
_rational = _from_json(lambda obj, model: certificate_fraction(obj, ""))
_radius = _from_json(lambda obj, model: parse_radius(obj, ""))
_path = _checked(_as_is, lambda v: isinstance(v, str), "expected a file system path (a JSON string), got {!r}")
_encoding = _checked(_as_is, lambda v: isinstance(v, str), "expected an element encoding (a JSON string), got {!r}")


def _integers(obj, path: str, model=None, item: Callable = _integer) -> list[int]:
    if not isinstance(obj, list):
        raise ConfigError(path, "expected a list of JSON integers")
    return [item(v, f"{path}[{k}]") for k, v in enumerate(obj)]


def _load_window(obj, path: str, model: GroupModel) -> FiniteWindow:
    if not isinstance(obj, list):
        raise ConfigError(path, "expected a list of element encodings")
    for k, item in enumerate(obj):
        _encoding(item, f"{path}[{k}]")
    try:
        return parse_window(obj, model, path)
    except CertificateError as exc:  # its path is the config path given
        raise ConfigError(exc.path, exc.reason) from None


_load_model = _from_json(lambda obj, model: model_from_json(obj))
_folner_certificate = _from_json(lambda obj, model: FolnerCertificate.from_json(obj))
_paradox_certificate = _from_json(ParadoxCertificate.from_json)
_load_metric = _from_json(metric_from_json)
_load_weight = _from_json(FiniteWeight.from_json)
_load_action = _from_json(PerturbedAction.from_json)
_task = _checked(_as_is, lambda task: isinstance(task, str) and task in TASKS, "unknown task {!r}")
_budget = _checked(_integer, lambda n: n >= 1, "budget must be positive")
_resolution = _checked(_integer, lambda n: n >= 1, "resolution must be >= 1")
_max_pieces = _checked(_integer, lambda n: n >= MIN_PIECES,
                       f"must be at least {MIN_PIECES}, the least pieces a paradox can use")
_defect_window = _checked(_load_window, len, "defect of an empty window")
_search_pool = _checked(_load_window, len, "search of an empty pool")
_search_window = _checked(_load_window, len, "search of an empty window")
_criterion = _checked(_integer, lambda n: n in {number for number, _, _ in CRITERIA}, "unknown criterion {}")
_criteria = functools.partial(_integers, item=_criterion)
_not_standard = _checked(_boolean, lambda standard: not standard, "give a certificate or standard: true, not both")
# in `scenarios` mode: any criteria at all
_criteria_with_scenarios = _checked(_as_is, lambda criteria: False, "give criteria or scenarios, not both")
INDEX_FIELDS = {
    "E": (_checked(_load_window, lambda E: E.model.identity() in E, "every index pool must contain the identity"),
          REQUIRED),
    "n": (_checked(_integer, lambda n: n >= 2, "index multiplicities start at 2"), REQUIRED),
}


def _indices(obj, path: str, model: GroupModel) -> list[tuple[FiniteWindow, int]]:
    if not isinstance(obj, list):
        raise ConfigError(path, "expected a list of {E, n} objects")
    if not obj:
        raise ConfigError(path, "index family must be non-empty")
    family = (_load(index, f"{path}[{k}]", INDEX_FIELDS, model) for k, index in enumerate(obj))
    return [(index.E, index.n) for index in family]


def _strategy(obj, path: str, model: GroupModel) -> str:
    try:
        check_strategy(model, obj)
    except ValueError as exc:
        raise ConfigError(path, str(exc))
    return obj


def _standard_certificate(obj, path: str, model: GroupModel) -> ParadoxCertificate:
    if not _boolean(obj, path):
        raise ConfigError("params.certificate", "need a certificate or standard: true")
    try:
        return f2_standard_certificate(model)
    except ValueError as exc:
        raise ConfigError(path, str(exc))


# ---------------------------------------------------------------------------
# Artifact helpers
# ---------------------------------------------------------------------------


class Artifacts:
    def __init__(self, out_dir: Optional[Path]):
        self.out_dir = out_dir
        self.written: list[str] = []

    def write_json(self, name: str, payload) -> None:
        self._write(name, canonical_json(payload))

    def write_csv(self, name: str, header: list[str], rows: list[list]) -> None:
        text = io.StringIO()
        csv.writer(text).writerows([header, *rows])
        self._write(name, text.getvalue())

    def _write(self, name: str, text: str) -> None:
        """Write one artifact; with no directory nothing is written."""
        if self.out_dir is not None:
            self.out_dir.mkdir(parents=True, exist_ok=True)
            (self.out_dir / name).write_text(text, encoding="utf-8", newline="")
            self.written.append(name)


def _manifest(config: dict, artifacts: Artifacts, wall: float) -> None:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    payload = {
        "config_hash": hashlib.sha256(canonical.encode()).hexdigest(),
        "package_version": __version__,
        "python_version": platform.python_version(),
        "wall_time_s": wall,
        "artifacts": sorted(artifacts.written),
    }
    artifacts.write_json("manifest.json", payload)


# ---------------------------------------------------------------------------
# Task runners: run(scenario, artifacts) -> exit code, on parsed fields
# ---------------------------------------------------------------------------

# Largest |F| whose certificate a requested seminorm crosscheck measures.
CROSSCHECK_MAX_F = 200
# Default word radius of the window a paradox certificate is checked or searched on.
PARADOX_WINDOW_RESOLUTION = 4
SEARCH_HEADER = ["candidate_id", "|F|", "theta", "seminorm_bound", "passed"]


def _crosscheck_bound(crosscheck: bool, cert: FolnerCertificate) -> str:
    """Run the seminorm crosscheck when asked for and |F| is small enough;
    the bound it asserted as report text, empty when it did not run."""
    if not crosscheck or len(cert.F) > CROSSCHECK_MAX_F:
        return ""
    try:
        bridge_metric(cert.U)
    except ValueError as exc:  # a radius-0 entourage of a dense metric
        raise ConfigError("params.crosscheck", str(exc)) from None
    try:
        return str(seminorm_crosscheck(cert)[1])
    except SupportSizeError as exc:  # a - g.a holds up to twice the points of F
        raise ConfigError("params.crosscheck", f"a - g.a: {exc}") from None


def _window_or_grid(model: GroupModel, window, resolution, default: int, path: str) -> FiniteWindow:
    """The given window, else the grid sample at the given resolution (at
    `default` when none is given); a resolution beside a window is not read."""
    if window is not None:
        if resolution is not None:
            raise ConfigError(path, "not read when the window is given")
        return window
    try:
        return grid_sample(model, default if resolution is None else resolution)
    except WindowSizeError as exc:
        raise ConfigError(path, str(exc))


def _run_defect_certificate(s: SimpleNamespace, artifacts: Artifacts) -> int:
    cert = s.params.certificate
    try:
        cert.verify()
    except ValueError as exc:
        print(f"certificate INVALID: {exc}")
        return 2
    _crosscheck_bound(s.params.crosscheck, cert)
    print(f"certificate valid: theta={cert.theta} |F|={len(cert.F)}")
    return 0


def _run_defect(s: SimpleNamespace, artifacts: Artifacts) -> int:
    p = s.params
    if p.mode == "topological":
        theta, cert = topological_defect(p.F, p.E, Entourage(p.metric, p.radius))
        bound = _crosscheck_bound(p.crosscheck, cert)
        artifacts.write_json("certificate.json", cert.to_json())
        artifacts.write_csv("report.csv", SEARCH_HEADER, [[0, len(p.F), str(theta), bound, "yes"]])
    else:
        theta = (discrete_defect(p.F, p.E) if p.mode == "discrete"
                 else pairwise_defect(p.F, p.E, Entourage(p.metric, p.radius)))
        artifacts.write_csv("report.csv", ["mode", "|F|", "theta"], [[p.mode, len(p.F), str(theta)]])
    print(f"{p.mode} defect: {theta}")
    return 0


def _run_search(s: SimpleNamespace, artifacts: Artifacts) -> int:
    p = s.params
    U = Entourage(p.metric, p.radius)
    result = folner_search(p.E, U, p.theta, strategy=p.strategy, budget=p.budget, seed=s.seed)
    rows = []
    if result.certificate is not None:
        cert = result.certificate
        passed = "yes" if result.found else "no"
        bound = _crosscheck_bound(p.crosscheck, cert)
        rows.append([result.best_index, len(cert.F), str(cert.theta), bound, passed])
        artifacts.write_json("certificate.json", result.to_json())
    artifacts.write_csv("report.csv", SEARCH_HEADER, rows)
    print(f"search: found={result.found} best_theta={result.best_theta} "
          f"tried={result.candidates_tried} budget_exhausted={result.budget_exhausted}")
    return 0 if result.found else 2


def _run_seminorm(s: SimpleNamespace, artifacts: Artifacts) -> int:
    p = s.params
    header = ["g", "p_d_defect", "lp_pivots", "witness_range"]
    if p.E is not None:
        if not p.weight.is_stochastic():
            raise ConfigError("params.weight", "invariance defect is defined for stochastic weights")
        try:
            defect = invariance_defect(p.weight, p.E, p.metric)
        except SupportSizeError as exc:  # a - g.a holds up to twice the points of a
            raise ConfigError("params.weight", f"a - g.a: {exc}")
        rows = [[s.model.format_data(r.g), str(r.full), r.pivots, str(r.witness_range)] for r in defect.rows]
        artifacts.write_csv("report.csv", header, rows)
        print(f"invariance defect: full={defect.full} restricted={defect.restricted}")
        return 0
    try:
        result = lipschitz_seminorm(p.weight, p.metric)
    except SupportSizeError as exc:
        raise ConfigError("params.weight.support", str(exc))
    artifacts.write_csv("report.csv", header, [["", str(result.value), result.pivots, str(result.witness_range())]])
    print(f"seminorm: {result.value} (engine {result.engine})")
    return 0


def _run_matching(s: SimpleNamespace, artifacts: Artifacts) -> int:
    p = s.params
    instance = build_graph(p.E, p.F, Entourage(p.metric, p.radius))
    result = max_matching(instance)
    artifacts.write_json("instance.json", instance.to_json())
    artifacts.write_json("certificate.json", result.to_json())
    row = [len(p.E), len(p.F), instance.edge_count(), result.mu, result.perfect, result.witness_deficiency()]
    artifacts.write_csv("report.csv", ["|E|", "|F|", "edges", "mu", "perfect", "deficiency"], [row])
    print(f"matching: mu={result.mu} perfect={result.perfect}")
    return 0


def _run_precompact(s: SimpleNamespace, artifacts: Artifacts) -> int:
    p, model = s.params, s.model
    win = _window_or_grid(model, p.window, p.window_resolution, 60, "params.window_resolution")
    sample = _window_or_grid(model, p.pool, p.sample_resolution, 12, "params.sample_resolution")
    try:
        result = precompact_perturbation(Entourage(p.metric, p.radius), win, sample)
    except ValueError as exc:  # a model, radius or window that admits no finite lift
        raise ConfigError("params", str(exc))
    artifacts.write_json("certificate.json", result.to_json())
    print(f"precompact: |F|={len(result.centers)} order={result.group_order} "
          f"bound={result.order_bound} lift={result.lift_mode}")
    return 0


def _run_build(s: SimpleNamespace, artifacts: Artifacts) -> int:
    p = s.params
    try:
        assembled = build_perturbation(p.indices, Entourage(p.metric, p.radius), budget=p.budget)
    except (ConstructionError, BudgetError) as exc:  # no package within the model, family, radius and budget
        raise ConfigError("params", str(exc))
    artifacts.write_json("certificate.json", assembled.action.to_json())
    artifacts.write_json("report.json", assembled.report.to_json())
    print(f"build: window={len(assembled.action.window)} violations={len(assembled.report.violations)}")
    return 0


def _run_verify(s: SimpleNamespace, artifacts: Artifacts) -> int:
    report = verify_perturbation(s.params.action, Entourage(s.params.metric, s.params.radius))
    artifacts.write_json("report.json", report.to_json())
    text = report.model.format_data
    rows = [[text(v.g), text(v.h), str(v.distance)] for v in report.violations]
    artifacts.write_csv("report.csv", ["g", "h", "distance"], rows)
    print(f"verify: violations={len(report.violations)} max_deviation={report.max_deviation}")
    return 0 if report.ok else 2


def _run_wobble(s: SimpleNamespace, artifacts: Artifacts) -> int:
    p, model = s.params, s.model
    try:
        element = decompose_wobbling(p.permutation, p.window, p.pool)
    except ValueError as exc:  # not a permutation of the window, or not one the pool moves
        raise ConfigError("params.permutation", str(exc))
    pieces = [{"translator": model.format_data(g), "piece": piece.to_json()} for g, piece in element.pieces]
    artifacts.write_json("certificate.json", {"window": p.window.to_json(), "pieces": pieces})
    print(f"wobble: {len(element.pieces)} pieces")
    return 0


def _run_paradox_verify(s: SimpleNamespace, artifacts: Artifacts) -> int:
    p = s.params
    cert = p.standard or p.certificate  # `standard` holds the standard certificate, or False beside a given one
    win = _window_or_grid(s.model, p.window, p.window_resolution, PARADOX_WINDOW_RESOLUTION, "params.window_resolution")
    report = verify_on_window(cert, win, p.action)
    artifacts.write_json("certificate.json", cert.to_json())
    artifacts.write_json("report.json", report.to_json())
    artifacts.write_csv("report.csv", ["equation", "checkable", "violations", "boundary_defects"],
                        [[e.name, e.checkable, e.interior_violations, e.boundary_defects] for e in report.equations])
    print(f"paradox verify: interior={report.interior_violations} boundary={report.boundary_defects}")
    return 0 if report.interior_violations == 0 else 2


def _run_paradox_search(s: SimpleNamespace, artifacts: Artifacts) -> int:
    p = s.params
    win = _window_or_grid(s.model, p.window, p.window_resolution, PARADOX_WINDOW_RESOLUTION, "params.window_resolution")
    report = search_small_paradox(win, p.pool, p.max_pieces, budget=p.budget)
    artifacts.write_json("report.json", report.to_json())
    best = report.best()
    if best is not None and best.certificate is not None:
        artifacts.write_json("certificate.json", best.certificate.to_json())
    artifacts.write_csv("report.csv", ["pieces", "best_defect", "checkable", "exhausted"],
                        [[r.pieces, r.best_defect, r.checkable, r.exhausted] for r in report.reports])
    for r in report.reports:
        print(f"pieces={r.pieces} best_defect={r.best_defect} exhausted={r.exhausted}")
    return 0 if report.exhausted else 2


def _run_nested(path: Path, out_dir: Optional[Path]) -> int:
    """A scenario that a scenarios run found; scenario runs do not nest, so
    one in `scenarios` mode (the run itself, say) is refused, not run."""
    config = _read_config(path)
    if _mode(config)[1].run is _run_scenarios:
        raise ConfigError("params.scenarios", "scenario runs do not nest")
    return run_scenario_config(config, out_dir=out_dir)


def _run_scenarios(s: SimpleNamespace, artifacts: Artifacts) -> int:
    rows, status = [], 0
    for path in sorted(Path(s.params.scenarios).glob("*.json")):
        sub_out = artifacts.out_dir / path.stem if artifacts.out_dir else None
        code = _reporting_errors(lambda: _run_nested(path, sub_out))
        rows.append([path.name, code])
        status = max(status, 0 if code == 0 else 2)
    artifacts.write_csv("report.csv", ["scenario", "exit_code"], rows)
    for name, code in rows:
        print(f"{name}: exit {code}")
    return status


def _run_suite(s: SimpleNamespace, artifacts: Artifacts) -> int:
    results = run_suite(numbers=s.params.criteria)
    for r in results:
        for name, payload in r.files.items():
            artifacts.write_json(name, payload)
    artifacts.write_csv("report.csv", ["criterion", "name", "passed", "measured"],
                        [[r.number, r.name, r.passed, r.measured] for r in results])
    for r in results:
        print(r.row())
    return 0 if all(r.passed for r in results) else 2


# ---------------------------------------------------------------------------
# Field tables and the scenario engine
# ---------------------------------------------------------------------------

ENVELOPE = {
    "task": (_task, REQUIRED),
    "model": (_load_model, REQUIRED),
    "params": (_as_is, REQUIRED),  # loaded against the mode's own table
    "seed": (_integer, None),
    "out_dir": (_path, None),
}
WITHOUT_MODEL = {key: field for key, field in ENVELOPE.items() if key != "model"}
SUITE_ENVELOPE = {**WITHOUT_MODEL, "params": (_as_is, {})}


class Mode(NamedTuple):
    """A task in one mode: its runner, its params fields and its envelope."""

    run: Callable[[SimpleNamespace, Artifacts], int]
    fields: dict
    envelope: dict = ENVELOPE


METRIC = (_load_metric, lambda model: model.default_metric())
ENTOURAGE = {"radius": (_radius, REQUIRED), "metric": METRIC}
WINDOW_OR_GRID = {"window": (_load_window, None), "window_resolution": (_resolution, None)}
PRECOMPACT = {**ENTOURAGE, **WINDOW_OR_GRID, "pool": (_load_window, None), "sample_resolution": (_resolution, None)}
DEFECT = {"F": (_defect_window, REQUIRED), "E": (_load_window, REQUIRED), "mode": (_as_is, REQUIRED)}
PERTURB = {"mode": (_as_is, REQUIRED)}
PARADOX_VERIFY = {**WINDOW_OR_GRID, "action": (_load_action, None)}

# Each task: a Mode, or the chooser that names the mode from the raw params
# and the task's modes.
TASKS: dict[str, Mode | tuple[Callable[[dict], Any], dict[str, Mode]]] = {
    "defect": (lambda params: "certificate" if "certificate" in params else params.get("mode", "topological"), {
        "topological": Mode(_run_defect, {**DEFECT, "mode": (_as_is, "topological"), **ENTOURAGE,
                                          "crosscheck": (_boolean, False)}),
        "pairwise": Mode(_run_defect, {**DEFECT, **ENTOURAGE}),
        "discrete": Mode(_run_defect, DEFECT),
        "certificate": Mode(_run_defect_certificate, {"certificate": (_folner_certificate, REQUIRED),
                                                      "crosscheck": (_boolean, False)}, WITHOUT_MODEL),
    }),
    "search": Mode(_run_search, {"E": (_load_window, REQUIRED), "theta": (_rational, REQUIRED),
                                 "strategy": (_strategy, REQUIRED), **ENTOURAGE, "budget": (_budget, SEARCH_BUDGET),
                                 "crosscheck": (_boolean, False)}),
    "seminorm": Mode(_run_seminorm, {"weight": (_load_weight, REQUIRED), "metric": METRIC, "E": (_load_window, None)}),
    "matching": Mode(_run_matching, {"E": (_load_window, REQUIRED), "F": (_load_window, REQUIRED), **ENTOURAGE}),
    "perturb": (lambda params: params.get("mode", REQUIRED), {
        "build": Mode(_run_build, {**PERTURB, "indices": (_indices, REQUIRED), **ENTOURAGE,
                                   "budget": (_budget, PACKAGE_BUDGET)}),
        "verify": Mode(_run_verify, {**PERTURB, "action": (_load_action, REQUIRED), **ENTOURAGE}),
        "precompact": Mode(_run_precompact, {**PERTURB, **PRECOMPACT}),
        "wobble": Mode(_run_wobble, {**PERTURB, "window": (_load_window, REQUIRED), "pool": (_load_window, REQUIRED),
                                     "permutation": (_integers, REQUIRED)}),
    }),
    "precompact": Mode(_run_precompact, PRECOMPACT),
    "paradox-verify": (lambda params: "standard" if "standard" in params and "certificate" not in params
                       else "certificate", {
        "certificate": Mode(_run_paradox_verify, {"certificate": (_paradox_certificate, REQUIRED),
                                                  "standard": (_not_standard, False), **PARADOX_VERIFY}),
        "standard": Mode(_run_paradox_verify, {"standard": (_standard_certificate, REQUIRED), **PARADOX_VERIFY}),
    }),
    "paradox-search": Mode(_run_paradox_search, {"pool": (_search_pool, REQUIRED),
                                                 "max_pieces": (_max_pieces, REQUIRED), **WINDOW_OR_GRID,
                                                 "window": (_search_window, None),
                                                 "budget": (_budget, PARADOX_BUDGET)}),
    "suite": (lambda params: "scenarios" if "scenarios" in params else "criteria", {
        "criteria": Mode(_run_suite, {"criteria": (_criteria, None)}, SUITE_ENVELOPE),
        "scenarios": Mode(_run_scenarios, {"scenarios": (_path, REQUIRED),
                                           "criteria": (_criteria_with_scenarios, None)}, SUITE_ENVELOPE),
    }),
}
# The mode of a scenario whose task is missing or unknown: loading its
# envelope names the task, so it never runs.
UNKNOWN_TASK = Mode(None, {}, {key: (_task, REQUIRED) if key == "task" else (_as_is, None) for key in ENVELOPE})


def _mode(config) -> tuple[str, Mode, list[dict]]:
    """The mode a scenario runs in, its name, and the field tables of the
    task's modes."""
    task = config.get("task") if isinstance(config, dict) else None
    if not isinstance(task, str) or task not in TASKS:
        return "", UNKNOWN_TASK, []
    if isinstance(TASKS[task], Mode):
        return "", TASKS[task], []
    choose, modes = TASKS[task]
    params = config.get("params")
    name = choose(params) if isinstance(params, dict) else next(iter(modes))
    if not isinstance(name, str) or name not in modes:
        raise ConfigError("params.mode", "missing required field" if name is REQUIRED else f"unknown mode {name!r}")
    return name, modes[name], [mode.fields for mode in modes.values()]


def run_scenario_config(config: dict, out_dir: Optional[Path] = None) -> int:
    started = time.time()
    name, mode, tables = _mode(config)
    scenario = _load(config, "", mode.envelope)
    model = getattr(scenario, "model", None)
    scenario.params = _load(scenario.params, "params", mode.fields, model, name, tables)
    if out_dir is None and scenario.out_dir is not None:
        out_dir = Path(scenario.out_dir)
    artifacts = Artifacts(out_dir)
    code = mode.run(scenario, artifacts)
    _manifest(config, artifacts, time.time() - started)
    return code


def _read_config(path: Path | str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot read config: {exc}")
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # the decoder recurses once per nesting level
        raise ValueError(f"config is not valid JSON: {exc}")


def _reporting_errors(run: Callable[[], int]) -> int:
    """Run a command; malformed input (a ConfigError is a ValueError) or a
    failed construction is one `error:` line on stderr and exit 1."""
    try:
        return run()
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _command(sub, name: str, summary: str, task: str, with_model: bool = True):
    """A subcommand running `task`: --config or the flags that build the same
    scenario (each named by its params field as dest), and --out-dir."""
    parser = sub.add_parser(name, help=summary)
    parser.set_defaults(task=task, command_parser=parser)  # `_config_from_flags` reads its flags
    parser.add_argument(
        "--config", type=Path, help="scenario JSON; replaces every flag but --out-dir, --seed and --budget"
    )
    parser.add_argument("--out-dir", type=Path)
    if with_model:
        _model_flags(parser)
    return parser


# The integer parameter names of the model kinds, each once: dim, rank, modulus.
MODEL_PARAMS = tuple(dict.fromkeys(param[0] for _, param in _KINDS.values() if param))


def _model_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", type=Path, help="model descriptor JSON file")
    parser.add_argument("--kind", choices=list(_KINDS))
    for key in MODEL_PARAMS:
        parser.add_argument(f"--{key}", type=int)


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

    p_matching = _command(sub, "matching", "bipartite matching between two windows", "matching")
    p_matching.add_argument("--E", dest="E")
    p_matching.add_argument("--F", dest="F")
    p_matching.add_argument("--radius")

    p_defect = _command(sub, "folner-defect", "matching defect of a window", "defect")
    p_defect.add_argument("--F", dest="F")
    p_defect.add_argument("--E", dest="E")
    p_defect.add_argument("--radius")
    p_defect.add_argument("--mode", choices=["topological", "discrete", "pairwise"])
    p_defect.add_argument("--verify-cert", type=Path, dest="certificate", help="re-verify a certificate file instead")

    p_search = _command(sub, "folner-search", "search for a window meeting a defect target", "search")
    p_search.add_argument("--E", dest="E")
    p_search.add_argument("--radius")
    p_search.add_argument("--theta")
    p_search.add_argument("--strategy", choices=STRATEGIES, default=DEFAULT_STRATEGY)
    p_search.add_argument("--seed", type=int, help="seed of the local strategy's restarts")
    p_search.add_argument("--budget", type=int, help=f"candidates to try (default {SEARCH_BUDGET})")

    p_semi = _command(sub, "seminorm", "bounded-Lipschitz seminorm / invariance defects", "seminorm")
    p_semi.add_argument("--weight", type=Path, help="weight JSON file")
    p_semi.add_argument("--E", dest="E")

    p_perturb = sub.add_parser("perturb", help="run a perturb scenario: build / verify / precompact / wobble")
    p_perturb.add_argument("--config", type=Path, required=True, help="scenario JSON")
    p_perturb.add_argument("--out-dir", type=Path)

    p_pre = _command(sub, "precompact", "finite-group perturbation on a precompact model", "precompact")
    p_pre.add_argument("--radius")
    p_pre.add_argument("--window-resolution", type=int)
    p_pre.add_argument("--sample-resolution", type=int)

    p_paradox = _command(sub, "paradox", "verify or search paradox certificates", "paradox-{mode}")
    p_paradox.add_argument("mode", choices=["verify", "search"])  # the task is paradox-<mode>
    p_paradox.add_argument("--cert", type=Path, dest="certificate")
    p_paradox.add_argument("--standard", action="store_true", default=None)  # None: left out of the scenario
    p_paradox.add_argument("--window-resolution", type=int)
    p_paradox.add_argument("--pool")
    p_paradox.add_argument("--max-pieces", type=int, default=MIN_PIECES)
    p_paradox.add_argument(
        "--budget", type=int,
        help=f"nodes to spend: one per translator combination, descent step and DP state (default {PARADOX_BUDGET})",
    )

    p_suite = _command(sub, "suite", "run the built-in verification suite", "suite", with_model=False)
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
    flags build; --seed and --budget are written into it either way, and
    --budget is refused where the scenario's mode has no budget."""
    config = _read_config(args.config) if args.config is not None else _config_from_flags(args)
    if not isinstance(config, dict):
        raise ConfigError("scenario", "expected an object")
    seed, budget = getattr(args, "seed", None), getattr(args, "budget", None)
    if seed is not None:
        config["seed"] = seed
    if budget is not None:
        if budget < 1:
            raise ConfigError("--budget", "budget must be positive")
        name, mode, _ = _mode(config)
        if mode is not UNKNOWN_TASK and "budget" not in mode.fields:
            raise ConfigError("--budget", f"not read in {name or config['task']} mode")
        params = config.setdefault("params", {})
        if isinstance(params, dict):
            params["budget"] = budget
    return config


def _read_json_flag(path: Path, flag: str):
    """A JSON file named by a CLI flag; unreadable or non-JSON, nesting too
    deep for the decoder included, is a ConfigError."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigError(flag, str(exc))


def _window_arg(value: str, flag: str) -> list:
    """A window flag: a JSON file of element encodings, or them joined by semicolons."""
    return _read_json_flag(Path(value), flag) if value.endswith(".json") else [s for s in value.split(";") if s]


def _criteria_arg(text: str, flag: str) -> list[int]:
    try:
        return [int(n) for n in text.split(",")]
    except ValueError:
        raise ConfigError(flag, f"expected comma-separated criterion numbers, got {text!r}")


def _model_arg(args) -> dict:
    if args.model is not None:
        return _read_json_flag(args.model, "--model")
    if args.kind is None:
        raise ConfigError("--kind", "missing required flag (or give --model FILE)")
    return {"kind": args.kind, "params": {key: getattr(args, key) for key in MODEL_PARAMS
                                          if getattr(args, key) is not None}}


# How a flag's text becomes its field's JSON; any other flag's value is the JSON itself.
FLAG_READERS = {"E": _window_arg, "F": _window_arg, "pool": _window_arg, "weight": _read_json_flag,
                "certificate": _read_json_flag, "criteria": _criteria_arg, "scenarios": lambda path, flag: str(path)}
# The params fields of every task and mode, each filled by the flag of that dest (`_scenario` writes --budget).
PARAMS_FIELDS = {key for task in TASKS.values() for mode in ([task] if isinstance(task, Mode) else task[1].values())
                 for key in mode.fields} - {"budget"}


def _config_from_flags(args) -> dict:
    """The scenario a command line's flags build.  The flags given choose the
    mode, which must read each flag not at its default and find each one it
    requires; an empty flag leaves an optional field out, and the model
    flags are refused where the mode takes no model."""
    task = args.task.format(**vars(args))
    flags = [(action.option_strings[0], action.dest, action.default, getattr(args, action.dest))
             for action in args.command_parser._actions if action.option_strings and action.dest in PARAMS_FIELDS]
    name, mode, _ = _mode({"task": task, "params": {dest: v for _, dest, _, v in flags if v is not None}})
    given = [f"--{key}" for key in ("model", "kind", *MODEL_PARAMS) if getattr(args, key, None) is not None]
    if given and "model" not in mode.envelope:
        raise ConfigError(given[0], f"not read in {name or task} mode")
    config = {"task": task, "model": _model_arg(args)} if "model" in mode.envelope else {"task": task}
    params = config["params"] = {}
    for flag, dest, default, value in flags:
        if dest not in mode.fields:
            if value != default:
                raise ConfigError(flag, f"not read in {name or task} mode")
        elif mode.fields[dest][1] is REQUIRED and value is None:
            raise ConfigError(flag, "missing required flag")
        elif value is not None and (value != "" or mode.fields[dest][1] is REQUIRED):
            params[dest] = FLAG_READERS.get(dest, lambda value, flag: value)(value, flag)
    return config


if __name__ == "__main__":
    raise SystemExit(main())
