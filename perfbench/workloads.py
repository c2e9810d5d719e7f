"""Seeded op lists for the scenario benchmark.

An op is one produce call plus one verify call through the public scenario
engine.  Each workload repeats a fixed pattern of op categories, and each
category cycles through a fixed list of sizes, so every run sees the same
mix of sizes whatever the seed.  Content that changes the amount of work
(seminorm weights and supports, search landscapes, element order) comes
from the op's position in the list, not from the seed.  The seed picks
what leaves the work unchanged: translates of windows and supports that
keep their canonical order, right translates of balls, which generators
and shifts.  That keeps aggregate timings steady across seeds while the
inputs, and so the certificates, still differ.

Every op carries the exit codes it must return and, where one exists, a
closed-form oracle for its value:

* Z^2 n-box at radius 0 against unit generators: theta = 1 - 1/n;
* F_2 n-ball at radius 0 against single letters: theta = (3^n - 1)/(2 * 3^n - 1);
* a two-point seminorm delta_x - delta_y equals min(2, d(x, y)).
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from fractions import Fraction

WORKLOADS = ("certify", "seminorm", "paradox")
OPS_PER_LIST = 600

UNIT_Z2 = ["-1,0", "0,-1", "0,1", "1,0"]
LETTERS = ["A", "B", "a", "b"]
HEIS_GENS = ["-1,0,0", "0,-1,0", "0,1,0", "1,0,0"]

Z2_MODEL = {"kind": "lattice", "params": {"dim": 2}}
Z1_MODEL = {"kind": "lattice", "params": {"dim": 1}}
F2_MODEL = {"kind": "free", "params": {"rank": 2}}
HEIS_MODEL = {"kind": "heisenberg", "params": {}}
CIRCLE_MODEL = {"kind": "circle", "params": {}}
MODELS = {"lattice": Z2_MODEL, "free": F2_MODEL, "heisenberg": HEIS_MODEL, "circle": CIRCLE_MODEL}
GENERATORS = {"lattice": UNIT_Z2, "free": LETTERS, "heisenberg": HEIS_GENS}


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _key(*parts) -> str:
    """Identity of an op's window and entourage (or support and metric)."""
    return hashlib.sha256(canonical(parts).encode()).hexdigest()[:16]


def _frac(q: Fraction) -> str:
    return str(q % 1)


def _box(rows: int, cols: int, ox: int = 0, oy: int = 0) -> list[str]:
    return [f"{ox + i},{oy + j}" for i in range(rows) for j in range(cols)]


def _f2_oracle(n: int) -> str:
    return str(Fraction(3**n - 1, 2 * 3**n - 1))


class Context:
    """Per-generation state: the seeded RNG, category counters, and word
    balls built once through the public window API."""

    def __init__(self, seed_text: str, groups, weights):
        self.rng = random.Random(seed_text)
        self.groups = groups
        self.weights = weights
        self.ticks: dict[str, int] = {}
        self.models = {kind: groups.model_from_json(obj) for kind, obj in MODELS.items()}
        self.balls: dict[tuple[str, int], list[str]] = {}

    def spec(self, category: str, specs: tuple):
        """The next size spec of a category, cycling in order."""
        tick = self.ticks.get(category, 0)
        self.ticks[category] = tick + 1
        return specs[tick % len(specs)]

    def fixed(self, category: str) -> random.Random:
        """An RNG for the current op of a category that ignores the seed."""
        return random.Random(f"{category}:{self.ticks[category]}")

    def ball(self, kind: str, radius: int) -> list[str]:
        if (kind, radius) not in self.balls:
            self.balls[(kind, radius)] = self.groups.word_ball(self.models[kind], radius).to_json()
        return self.balls[(kind, radius)]

    def right_translate(self, kind: str, elements: list[str], shift: str) -> list[str]:
        """Elements times `shift`; right translation preserves every defect."""
        model = self.models[kind]
        w = model.parse(shift)
        return self.groups.FiniteWindow(model, [model.mul(model.parse(x), w) for x in elements]).to_json()

    def short_word(self, kind: str) -> str:
        return self.rng.choice(self.ball(kind, 1)[1:])

    def generators(self, kind: str, count: int) -> list[str]:
        return sorted(self.rng.sample(GENERATORS[kind], count))


# ---------------------------------------------------------------------------
# certify: Folner defect certificates, searches and perturbation tables
# ---------------------------------------------------------------------------


def _defect_op(model: dict, F: list[str], E: list[str], radius: str, theta=None) -> dict:
    expect = {"code": 0}
    if theta is not None:
        expect["theta"] = theta
    return {
        "kind": "defect",
        "model": model["kind"],
        "key": _key(model, F, radius),
        "produce": {"task": "defect", "model": model, "params": {"F": F, "E": E, "radius": radius}},
        "expect": expect,
    }


def _box_r1(ctx):
    rows, cols, e = ctx.spec("box_r1", ((4, 4, 2), (5, 5, 3), (3, 5, 4), (5, 6, 2), (4, 6, 3), (6, 6, 2), (3, 4, 4), (4, 5, 1)))
    F = _box(rows, cols, ctx.rng.randint(-9, 9), ctx.rng.randint(-9, 9))
    return _defect_op(Z2_MODEL, F, ctx.generators("lattice", e), "1")


def _ball_r1(ctx, kind: str, specs: tuple):
    radius, e = ctx.spec(f"{kind}_r1", specs)
    F = ctx.right_translate(kind, ctx.ball(kind, radius), ctx.short_word(kind))
    return _defect_op(MODELS[kind], F, ctx.generators(kind, e), "1")


def _heis_r1(ctx):
    return _ball_r1(ctx, "heisenberg", ((2, 2), (3, 1), (3, 2), (2, 1), (3, 1)))


def _free_r1(ctx):
    return _ball_r1(ctx, "free", ((2, 2), (3, 1), (3, 2), (2, 1), (3, 1)))


def _circle_grid(ctx):
    n, shifts, width = ctx.spec("circle", ((24, 2, 1), (32, 1, 2), (20, 3, 1), (40, 1, 1), (28, 2, 2), (36, 2, 1)))
    F = [_frac(Fraction(k, n)) for k in range(n)]
    E = sorted(_frac(Fraction(k, n)) for k in ctx.rng.sample(range(1, n), shifts))
    return _defect_op(CIRCLE_MODEL, F, E, str(Fraction(width, n)))


def _box_r0(ctx):
    n, e = ctx.spec("box_r0", ((20, 2), (28, 3), (36, 2), (24, 4), (32, 2)))
    F = _box(n, n, ctx.rng.randint(-20, 20), ctx.rng.randint(-20, 20))
    return _defect_op(Z2_MODEL, F, ctx.generators("lattice", e), "0", theta=str(1 - Fraction(1, n)))


def _free_r0(ctx):
    n, e = ctx.spec("free_r0", ((4, 2), (5, 1), (3, 4), (5, 2), (4, 3)))
    F = ctx.right_translate("free", ctx.ball("free", n), ctx.short_word("free"))
    return _defect_op(F2_MODEL, F, ctx.generators("free", e), "0", theta=_f2_oracle(n))


def _search_op(model: dict, E: list[str], radius: str, target: str, strategy: str, budget: int, code: int, theta=None) -> dict:
    expect = {"code": code}
    if theta is not None:
        expect["theta"] = theta
    return {
        "kind": "search",
        "model": model["kind"],
        "key": _key(model, strategy, E, radius),
        "produce": {
            "task": "search",
            "model": model,
            "params": {"E": E, "radius": radius, "theta": target, "strategy": strategy, "budget": budget},
        },
        "expect": expect,
    }


def _search_boxes(ctx):
    # Boxes are n x n from n = 1 and reach 1 - 1/n, so the k-box is the
    # first to meet target 1 - 1/k; a budget below k misses it.
    k, budget, e = ctx.spec("search_boxes", ((8, 10, 2), (10, 9, 1), (6, 6, 3), (12, 12, 2)))
    found = budget >= k
    theta = str(1 - Fraction(1, k if found else budget))
    return _search_op(Z2_MODEL, ctx.generators("lattice", e), "0", str(1 - Fraction(1, k)), "boxes", budget, 0 if found else 2, theta)


def _search_free_balls(ctx):
    # Radius-0 defects of F_2 balls stay below 1/2, so the target is missed.
    budget, e = ctx.spec("search_balls", ((3, 2), (4, 1), (4, 2)))
    return _search_op(F2_MODEL, ctx.generators("free", e), "0", "3/5", "balls", budget, 2, _f2_oracle(budget))


def _search_grid(ctx):
    # The k-point grid shifted by j/K (j prime to K) matches perfectly within
    # r = 1/K^2 only when K divides k; otherwise no point matches.  So the
    # K-point grid is the first hit, and a budget below K misses.
    K, budget = ctx.spec("search_grid", ((12, 15), (16, 14), (20, 24)))
    j = ctx.rng.choice([j for j in range(1, K) if math.gcd(j, K) == 1])
    found = budget >= K
    return _search_op(CIRCLE_MODEL, [str(Fraction(j, K))], str(Fraction(1, K * K)), "1", "grid", budget, 0 if found else 2, "1" if found else "0")


def _search_local(ctx):
    # No finite Z^2 window is invariant, so the local search misses target 1.
    # Its hill climb depends on E, so E is fixed.
    return _search_op(Z2_MODEL, ["0,1", "1,0"], "0", "1", "local", 2, 2)


SEARCHES = (_search_boxes, _search_grid, _search_free_balls, _search_boxes, _search_local)


def _search(ctx):
    return ctx.spec("search", SEARCHES)(ctx)


def _precompact(ctx):
    radius, resolution, sample = ctx.spec(
        "precompact", (("7/20", 48, 12), ("1/3", 24, 8), ("2/5", 30, 10), ("3/8", 40, 8), ("2/5", 60, 12))
    )
    params = {"radius": radius, "window_resolution": resolution, "sample_resolution": sample}
    return {
        "kind": "precompact",
        "model": "circle",
        "key": _key(CIRCLE_MODEL, "precompact", resolution, radius),
        "produce": {"task": "precompact", "model": CIRCLE_MODEL, "params": params},
        "expect": {"code": 0},
    }


def _build(ctx):
    shift, n, radius = ctx.spec("build", (("1/5", 4, "1/10"), ("1/4", 3, "1/8"), ("1/6", 2, "1/10"), ("1/5", 3, "1/10")))
    params = {"mode": "build", "indices": [{"E": ["0", shift], "n": n}], "radius": radius, "budget": 40}
    return {
        "kind": "build",
        "model": "circle",
        "key": _key(CIRCLE_MODEL, "build", shift, n, radius),
        "produce": {"task": "perturb", "model": CIRCLE_MODEL, "params": params},
        "expect": {"code": 0},
    }


CERTIFY_PATTERN = (
    _box_r1, _circle_grid, _heis_r1, _box_r1, _free_r1, _search, _box_r1, _circle_grid, _box_r0, _heis_r1,
    _box_r1, _free_r1, _precompact, _circle_grid, _box_r1, _free_r0, _search, _heis_r1, _free_r1, _build,
)


# ---------------------------------------------------------------------------
# seminorm: the LP layer, on both sides of the simplex/flow switch
# ---------------------------------------------------------------------------


def _weight(points: list[str], values: list[Fraction]) -> dict:
    pairs = sorted(zip(points, values))
    return {"support": [p for p, _ in pairs], "weights": [str(w) for _, w in pairs]}


def _seminorm_op(kind: str, model: dict, weight: dict, verify_weight: dict, expect: dict, E=None) -> dict:
    params = {"weight": weight}
    if E is not None:
        params["E"] = E
    return {
        "kind": kind,
        "model": model["kind"],
        "key": _key(model, weight["support"]),
        "produce": {"task": "seminorm", "model": model, "params": params},
        "verify": {"task": "seminorm", "model": model, "params": {"weight": verify_weight}},
        "expect": expect,
    }


def _difference(rng: random.Random, model: dict, points: list[str], denom: int) -> dict:
    # Verify call: the seminorm of -a, which equals that of a.
    values = [Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), denom) for _ in points]
    weight = _weight(points, values)
    negated = _weight(points, [-v for v in values])
    return _seminorm_op("difference", model, weight, negated, {"code": 0})


def _two_point(ctx):
    kind, size = ctx.spec("two_point", (("circle", 24), ("lattice", 3), ("free", 3), ("heisenberg", 2)))
    if kind == "circle":
        k = ctx.rng.randint(1, size - 1)
        x, y, d = "0", _frac(Fraction(k, size)), min(Fraction(k, size), 1 - Fraction(k, size))
    elif kind == "lattice":
        a = ctx.rng.randint(-size, size)
        b = ctx.rng.choice((-1, 1)) * (size - abs(a) or 1)
        x, y, d = "0,0", f"{a},{b}", Fraction(abs(a) + abs(b))
    else:
        ring = [w for w in ctx.ball(kind, size) if w not in ctx.ball(kind, size - 1)]
        x, y, d = ctx.ball(kind, 0)[0], ctx.rng.choice(ring), Fraction(size)
    weight = _weight([x, y], [Fraction(1), Fraction(-1)])
    negated = _weight([x, y], [Fraction(-1), Fraction(1)])
    return _seminorm_op("two-point", MODELS[kind], weight, negated, {"code": 0, "value": str(min(Fraction(2), d))})


def _circle_points(ctx, fixed: random.Random, q: int, size: int) -> list[str]:
    """`size` points of the q-grid, rotated by the seed without wrapping
    past 0, which keeps their order and so the LP's pivot sequence."""
    ks = sorted(fixed.sample(range(q), size))
    shift = ctx.rng.randint(0, q - 1 - ks[-1])
    return [_frac(Fraction(k + shift, q)) for k in ks]


def _offset(ctx) -> tuple[int, int]:
    # Translating a Z^2 support keeps its lexicographic order and distances.
    return ctx.rng.randint(-9, 9), ctx.rng.randint(-9, 9)


def _simplex_side(ctx):
    kind, size, denom = ctx.spec(
        "simplex",
        (("circle", 16, 5), ("lattice", 18, 4), ("free", 14, 6), ("heisenberg", 15, 5),
         ("circle", 20, 4), ("lattice", 22, 5), ("free", 17, 4), ("heisenberg", 17, 6)),
    )
    fixed = ctx.fixed("simplex")
    if kind == "circle":
        points = _circle_points(ctx, fixed, 3 * size, size)
    elif kind == "lattice":
        points = sorted(fixed.sample(_box(6, 6, *_offset(ctx)), size))
    else:
        points = sorted(fixed.sample(ctx.ball(kind, 2), size))
    return _difference(fixed, MODELS[kind], points, denom)


def _flow_side(ctx):
    # Every unit-distance pair survives pruning, so a full m x n box has
    # mn + 2(2mn - m - n) rows: 326 to 412 here, past the 320-row simplex
    # limit, and the min-cost-flow engine solves it.
    rows, cols, denom = ctx.spec("flow", ((8, 9, 4), (9, 9, 6), (8, 10, 5), (9, 10, 6), (9, 8, 5), (10, 8, 4)))
    return _difference(ctx.fixed("flow"), Z2_MODEL, _box(rows, cols, *_offset(ctx)), denom)


def _invariance(ctx):
    kind, size, e = ctx.spec(
        "invariance",
        (("circle", 6, 2), ("lattice", 9, 1), ("free", 6, 2), ("heisenberg", 7, 1),
         ("circle", 8, 1), ("lattice", 12, 2), ("free", 8, 1), ("heisenberg", 5, 2)),
    )
    fixed = ctx.fixed("invariance")
    if kind == "circle":
        q = 4 * size
        window = [_frac(Fraction(k, q)) for k in sorted(fixed.sample(range(q), size))]
        E = sorted(_frac(Fraction(k, q)) for k in fixed.sample(range(1, q), e))
    elif kind == "lattice":
        rows = 3 if size == 9 else 4
        window = _box(rows, size // rows, *_offset(ctx))
        E = sorted(fixed.sample(UNIT_Z2, e))
    else:
        window = sorted(fixed.sample(ctx.ball(kind, 2), size))
        E = sorted(fixed.sample(GENERATORS[kind], e))
    weight = _weight(window, [Fraction(1, size)] * size)
    # Verify call: the seminorm of a - g.a for the first g in E, which must
    # equal that row of the invariance report.
    model = ctx.models[kind]
    a = ctx.weights.FiniteWeight.from_json(weight, model)
    diff = (a - a.left_translate(model.parse(E[0]))).to_json()
    return _seminorm_op("invariance", MODELS[kind], weight, diff, {"code": 0}, E=E)


# Ordered by cost, two-point < invariance < simplex side < flow side, and
# weighted 1 : 2 : 5 : 2, so the median op is a simplex solve and the 90th
# percentile a flow solve, each well inside its band.
SEMINORM_PATTERN = (
    _simplex_side, _invariance, _simplex_side, _flow_side, _simplex_side,
    _two_point, _simplex_side, _invariance, _simplex_side, _flow_side,
)


# ---------------------------------------------------------------------------
# paradox: assignment search with table re-verification, and the standard
# F_2 certificate
# ---------------------------------------------------------------------------


def _paradox_search_op(model: dict, window: list[str], pool: list[str], pieces: int) -> dict:
    params = {"window": window, "pool": pool, "max_pieces": pieces, "budget": 2_000_000}
    return {
        "kind": "paradox-search",
        "model": model["kind"],
        "key": _key(model, window),
        "produce": {"task": "paradox-search", "model": model, "params": params},
        "expect": {"code": 0},
    }


def _z1_window(ctx, radius: int) -> list[str]:
    # Translates keep the window's order, so the search does the same work.
    offset = ctx.rng.randint(-50, 50)
    return [str(offset + k) for k in range(-radius, radius + 1)]


def _z1_search(ctx):
    radius, pool = ctx.spec("z1", ((3, "-1,0,1"), (4, "-1,0,2"), (2, "-2,0,1"), (5, "-1,0,1"), (3, "-2,0,2"), (4, "-1,0,1")))
    return _paradox_search_op(Z1_MODEL, _z1_window(ctx, radius), pool.split(","), 4)


def _z1_five(ctx):
    return _paradox_search_op(Z1_MODEL, _z1_window(ctx, 2), ["-1", "0", "1"], 5)


def _z2_search(ctx):
    rows, cols = ctx.spec("z2", ((2, 3), (3, 3), (4, 2), (3, 2), (2, 4)))
    return _paradox_search_op(Z2_MODEL, _box(rows, cols, *_offset(ctx)), ["0,0", "0,1", "1,0"], 4)


def _f2_search(ctx):
    # The canonical order of free words changes under every relabeling or
    # translate, and the search with it, so these windows ignore the seed.
    extra = ctx.spec("f2", ((), ("a,a",), ("a,b", "b,a"), ("a,B",)))
    model = ctx.models["free"]
    words = ctx.ball("free", 1) + list(extra)
    window = ctx.groups.FiniteWindow(model, [model.parse(w) for w in words]).to_json()
    return _paradox_search_op(F2_MODEL, window, ["a", "b", "e"], 4)


# Ball radii of the standard-certificate ops, cycled in order: with these
# shares the verify 90th percentile of the workload sits inside the
# radius-6 band.
STANDARD_RADII = (6, 4, 5, 6, 3, 7, 6, 5)


def _standard(ctx):
    radius = ctx.spec("standard", STANDARD_RADII)
    return {
        "kind": "paradox-standard",
        "model": "free",
        "key": _key(F2_MODEL, "standard", radius),
        "produce": {
            "task": "paradox-verify",
            "model": F2_MODEL,
            "params": {"standard": True, "window_resolution": radius},
        },
        "expect": {"code": 0},
    }


PARADOX_PATTERN = (
    _z1_search, _standard, _z2_search, _z1_search, _f2_search,
    _z1_search, _standard, _z2_search, _z1_five, _standard,
)

PATTERNS = {"certify": CERTIFY_PATTERN, "seminorm": SEMINORM_PATTERN, "paradox": PARADOX_PATTERN}


def generate(workload: str, seed: int, groups, weights) -> list[dict]:
    """The op list of a workload: OPS_PER_LIST ops, the pattern repeated in order."""
    ctx = Context(f"{workload}:{seed}", groups, weights)
    pattern = PATTERNS[workload]
    return [pattern[i % len(pattern)](ctx) for i in range(OPS_PER_LIST)]
