"""In-memory span tracer that wraps folnerlab's public functions from outside.

Each traced function is replaced at every folnerlab module binding that
holds it, so calls between modules (folner -> matching -> groups) are caught
as well as calls from the CLI.  A span records its name, its parent span and
its start and end; self time is the span's duration minus the time covered
by its child spans.  Hot element methods get count-only wrappers, because a
span per call would cost more than the work it measures.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict


def _bound(fn):
    signature = inspect.signature(fn)

    def bind(args, kwargs):
        return signature.bind(*args, **kwargs).arguments

    return bind


# Work counted at each span boundary: (bound args, result) -> {measure: amount}.
# Measures starting with "_" only feed the ratios below.
def _build_graph(a, r):
    # At radius 0 under a metric that separates points, build_graph looks
    # each element up instead of testing pairs (matching.py); only the
    # all-pairs path counts towards `pairs`.
    U = a["U"]
    lookup = U.radius == 0 and U.metric.rule in ("word", "arc", "discrete")
    pairs, edges = (0, 0) if lookup else (len(a["E"]) * len(a["F"]), r.edge_count())
    return {"pairs": pairs, "edges": r.edge_count(), "_paired_edges": edges}


def _max_matching(a, r):
    return {"_matched": r.mu, "_left": len(a["instance"].left)}


def _folner_search(a, r):
    return {"candidates": r.candidates_tried, "_found": int(r.found)}


def _simplex_max(a, r):
    return {"pivots": r.pivots, "rows": len(a["rows"])}


def _min_cost_flow(a, r):
    return {"arcs": len(a["arcs"])}


def _lipschitz_seminorm(a, r):
    size = len(a["a"])
    return {"support": size, "_flow": int(r.engine == "flow"), f"_support_{r.engine}": size}


def _search_small_paradox(a, r):
    return {"nodes": r.nodes_used, "_exhausted": int(r.exhausted)}


def _verify_on_window(a, r):
    return {"points": len(a["window"])}


def _verify_perturbation(a, r):
    return {"entries": r.entries_checked}


def _translate_window(a, r):
    return {"elements": len(a["F"])}


# (metric prefix, module, attribute path, measure)
SPANS = (
    ("cli.run_scenario_config", "cli", "run_scenario_config", None),
    ("groups.word_ball", "groups", "word_ball", None),
    ("groups.grid_sample", "groups", "grid_sample", None),
    ("groups.translate_window", "groups", "translate_window", _translate_window),
    ("groups.FiniteWindow.from_json", "groups", "FiniteWindow.from_json", None),
    ("matching.build_graph", "matching", "build_graph", _build_graph),
    ("matching.max_matching", "matching", "max_matching", _max_matching),
    ("folner.topological_defect", "folner", "topological_defect", None),
    ("folner.folner_search", "folner", "folner_search", _folner_search),
    ("folner.FolnerCertificate.from_json", "folner", "FolnerCertificate.from_json", None),
    ("folner.FolnerCertificate.verify", "folner", "FolnerCertificate.verify", None),
    ("lp.simplex_max", "lp", "simplex_max", _simplex_max),
    ("lp.min_cost_flow", "lp", "min_cost_flow", _min_cost_flow),
    ("weights.lipschitz_seminorm", "weights", "lipschitz_seminorm", _lipschitz_seminorm),
    ("weights.invariance_defect", "weights", "invariance_defect", None),
    ("perturb.precompact_perturbation", "perturb", "precompact_perturbation", None),
    ("perturb.build_perturbation", "perturb", "build_perturbation", None),
    ("perturb.verify_perturbation", "perturb", "verify_perturbation", _verify_perturbation),
    ("perturb.PerturbedAction.from_json", "perturb", "PerturbedAction.from_json", None),
    ("paradox.search_small_paradox", "paradox", "search_small_paradox", _search_small_paradox),
    ("paradox.verify_on_window", "paradox", "verify_on_window", _verify_on_window),
)

COUNTS = (
    ("groups.mul", "groups", "GroupModel.mul"),
    ("groups.entourage_contains", "groups", "Entourage.contains"),
    ("paradox.evaluate_classifier", "paradox", "evaluate_classifier"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# Derived measures: span -> {metric: (numerator, denominator)} over its totals.
RATIOS = {
    "matching.build_graph": {"edge_yield": ("_paired_edges", "pairs")},
    "matching.max_matching": {"matched_share": ("_matched", "_left")},
    "folner.folner_search": {"hit_ratio": ("_found", "calls")},
    "weights.lipschitz_seminorm": {"flow_share": ("_flow", "calls")},
    "paradox.search_small_paradox": {"exhausted_ratio": ("_exhausted", "calls")},
}

# Public work totals per span (the measures above without a leading "_").
WORK = {
    "matching.build_graph": ("pairs", "edges"),
    "folner.folner_search": ("candidates",),
    "lp.simplex_max": ("pivots", "rows"),
    "lp.min_cost_flow": ("arcs",),
    "weights.lipschitz_seminorm": ("support",),
    "paradox.search_small_paradox": ("nodes",),
    "paradox.verify_on_window": ("points",),
    "perturb.verify_perturbation": ("entries",),
    "groups.translate_window": ("elements",),
}

TRACE_METRICS = ("trace.overhead", "trace.coverage", "trace.spans")


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = []
    for name, *_ in SPANS:
        names += [f"{name}.calls", f"{name}.self_s", f"{name}.errors"]
        names += [f"{name}.{key}" for key in WORK.get(name, ())]
        names += [f"{name}.{key}" for key in RATIOS.get(name, {})]
    names += [f"{name}.calls" for name, *_ in COUNTS]
    return names + list(TRACE_METRICS)


def unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_share", "_yield", ".overhead", ".coverage")):
        return "ratio"
    return "count"


class Tracer:
    """Installs wrappers on enter, restores the originals on exit."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent id, start, end, raised]
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.work: dict[str, list[float]] = defaultdict(list)
        self._restore: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------
    def open(self, name: str) -> int:
        sid = len(self.spans)
        self.spans.append([name, self.stack[-1] if self.stack else -1, time.perf_counter(), 0.0, False])
        self.stack.append(sid)
        return sid

    def close(self, sid: int, raised: bool = False) -> None:
        span = self.spans[sid]
        span[3] = time.perf_counter()
        span[4] = raised
        self.stack.pop()

    def _span_wrapper(self, name, fn, measure):
        bind = _bound(fn) if measure else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(sid, raised=True)
                raise
            self.close(sid)
            if measure:
                for key, amount in measure(bind(args, kwargs), result).items():
                    self.work[f"{name}.{key}"].append(amount)
            return result

        return traced

    def _count_wrapper(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installation ----------------------------------------------------
    def _patch(self, module_name: str, path: str, make) -> None:
        package = sys.modules["folnerlab"]
        module = sys.modules[f"folnerlab.{module_name}"]
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(make(raw.__func__))
            else:
                wrapped = make(raw)
            self._restore.append((cls, attr, raw))
            setattr(cls, attr, wrapped)
            return
        original = getattr(module, path)
        wrapped = make(original)
        holders = [package] + [m for n, m in sys.modules.items() if n.startswith("folnerlab.")]
        for holder in holders:
            for attr, value in list(vars(holder).items()):
                if value is original:
                    self._restore.append((holder, attr, value))
                    setattr(holder, attr, wrapped)

    def __enter__(self) -> "Tracer":
        for name, module, path, measure in SPANS:
            self._patch(module, path, lambda fn, n=name, m=measure: self._span_wrapper(n, fn, m))
        for name, module, path in COUNTS:
            self._patch(module, path, lambda fn, n=name: self._count_wrapper(n, fn))
        return self

    def __exit__(self, *exc) -> None:
        for holder, attr, value in reversed(self._restore):
            setattr(holder, attr, value)
        self._restore.clear()

    # -- results ---------------------------------------------------------
    def metrics(self) -> dict[str, float]:
        """Per-layer totals: calls, self time, errors, work counts and ratios."""
        child_time = [0.0] * len(self.spans)
        for _, parent, start, end, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for sid, (name, _, start, end, raised) in enumerate(self.spans):
            totals[f"{name}.calls"] += 1
            totals[f"{name}.self_s"] += end - start - child_time[sid]
            totals[f"{name}.errors"] += raised
        for key, amounts in self.work.items():
            totals[key] = sum(amounts)
        for name, derived in RATIOS.items():
            for metric, (num, den) in derived.items():
                totals[f"{name}.{metric}"] = _ratio(totals[f"{name}.{num}"], totals[f"{name}.{den}"])
        for name, *_ in COUNTS:
            totals[f"{name}.calls"] = self.counts[name]
        return totals

    def root_durations(self, *roots: str) -> list[float]:
        """Durations of the top-level spans with these names, in order."""
        return [end - start for name, parent, start, end, _ in self.spans if parent < 0 and name in roots]
