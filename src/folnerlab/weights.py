"""Finitely supported rational weights on a group and the bounded-Lipschitz
seminorm.

A weight holds its support as a window of payloads, with the weights
aligned to it; the seminorm's witness is aligned to the same window, and
the pieces of a uniform approximation are keyed by support payload.  A
weight's file form is {"support": [element strings], "weights":
[rationals]}.  `FiniteWeight.from_json` is its one loader: a malformed field
is a `CertificateError` naming it (`support[k]`, `weights[k]`).

The seminorm of a weight `a` for a pseudo-metric `d` is

    sup { a(f) : f 1-Lipschitz for d, values in [-1, 1] },

and restricting the supremum to functions on supp(a) loses nothing: an
optimal f on the support extends to the whole group 1-Lipschitz-boundedly
(take x -> min_y (f(y) + d(x, y)) clipped to [-1, 1]).  That reduction makes
the seminorm a finite LP, solved exactly in rational arithmetic.

Redundant Lipschitz constraints are pruned first: a pair (x, y) is dropped
when some z in the support decomposes it, d(x,z) + d(z,y) = d(x,y) with both
parts strictly shorter, or when d(x,y) already exceeds the value range.  The
pruned system is equivalent, which keeps supports near the cap tractable.
Only pairs closer than the box width hi - lo can be constraints at all: the
box already gives |f(x) - f(y)| <= hi - lo <= d(x, y) for every farther pair,
and a decomposing midpoint of a near pair is near both ends.  So pruning, the
LP and the final witness check read one sparse near-pair table per call
(`matching.near_pairs`: for each point, its near neighbours and their
distances as ints over one common scale), which lists the word metric's near
pairs from the word ball instead of measuring every pair.  The LP is stated
once on ints (`_seminorm_lp`), and both engines and `_check_witness` read it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Any, Iterable

from .groups import (
    CertificateError,
    Entourage,
    FiniteWindow,
    GroupElement,
    GroupModel,
    InvariantPseudoMetric,
    ModelMismatchError,
    certificate_fraction,
    integer_metric,
    parse_fraction,
    parse_payload,
    require_fields,
)
from .lp import INF_CAP, LpError, min_cost_flow, simplex_max
from .matching import build_graph, near_pairs

SUPPORT_CAP = 200
DENOMINATOR_CAP = 1000
SIMPLEX_ROW_LIMIT = 320

ZERO = Fraction(0)
ONE = Fraction(1)


class SupportSizeError(ValueError):
    pass


class FiniteWeight:
    """Finitely supported map into the rationals, built from (payload,
    weight) pairs; repeated payloads add up and zero weights are dropped.
    `support` is the window of the points left and `weights` their weights,
    aligned with it."""

    def __init__(self, model: GroupModel, pairs: Iterable[tuple[Any, Fraction]]):
        table: dict[Any, Fraction] = {}
        for x, w in pairs:
            w = parse_fraction(w)
            if not w:
                continue
            if x in table:  # only a repeated point costs an addition
                w += table[x]
                if not w:
                    del table[x]
                    continue
            table[x] = w
        self.model = model
        self.support = FiniteWindow._from_payloads(model, table)
        self.weights: tuple[Fraction, ...] = tuple(map(table.__getitem__, self.support.positions))
        den = math.lcm(*(w.denominator for w in self.weights))
        self.norm1: Fraction = Fraction(sum(abs(w.numerator) * (den // w.denominator) for w in self.weights), den)

    @classmethod
    def delta(cls, g: GroupElement) -> "FiniteWeight":
        return cls(g.model, [(g.data, ONE)])

    @classmethod
    def uniform(cls, F: FiniteWindow) -> "FiniteWeight":
        if len(F) == 0:
            raise ValueError("uniform weight needs a non-empty window")
        w = Fraction(1, len(F))
        return cls(F.model, [(x, w) for x in F.positions])

    def pairs(self) -> Iterable[tuple[Any, Fraction]]:
        """(payload, weight) over the support, in its order."""
        return zip(self.support.positions, self.weights)

    def __len__(self) -> int:
        return len(self.weights)

    def __getitem__(self, x) -> Fraction:
        """The weight at the payload x."""
        i = self.support.positions.get(x)
        return ZERO if i is None else self.weights[i]

    def is_stochastic(self) -> bool:
        return self.norm1 == 1 and all(w > 0 for w in self.weights)

    def total(self) -> Fraction:
        return sum(self.weights, ZERO)

    def __add__(self, other: "FiniteWeight") -> "FiniteWeight":
        if other.model is not self.model:
            raise ModelMismatchError("weights over different models")
        return FiniteWeight(self.model, [*self.pairs(), *other.pairs()])

    def __sub__(self, other: "FiniteWeight") -> "FiniteWeight":
        return self + other.scale(-1)

    def scale(self, c: Fraction) -> "FiniteWeight":
        c = parse_fraction(c)
        return FiniteWeight(self.model, [(x, c * w) for x, w in self.pairs()])

    def left_translate(self, g: GroupElement) -> "FiniteWeight":
        self.model._check(g)
        mul, a = self.model._mul_data, g.data
        return FiniteWeight(self.model, [(mul(a, x), w) for x, w in self.pairs()])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FiniteWeight)
            and self.support == other.support
            and self.weights == other.weights
        )

    def __repr__(self) -> str:
        inner = " + ".join(f"{w}*d[{self.model.format_data(x)}]" for x, w in list(self.pairs())[:6])
        return f"Weight({inner}{' ...' if len(self) > 6 else ''})"

    def to_json(self) -> dict:
        return {"support": self.support.to_json(), "weights": list(map(str, self.weights))}

    @classmethod
    def from_json(cls, obj: dict, model: GroupModel) -> "FiniteWeight":
        """The weight of its file form {"support", "weights"}; every
        malformed field is a CertificateError naming it (`support[k]` and
        `weights[k]` for an entry)."""
        require_fields(obj, ("support", "weights"))
        support, weights = obj["support"], obj["weights"]
        if not isinstance(support, list):
            raise CertificateError("support", "expected a list of element encodings")
        if not isinstance(weights, list) or len(weights) != len(support):
            raise CertificateError("weights", f"expected a list of {len(support)} rationals, one per support point")
        pairs = []
        for k, (x, w) in enumerate(zip(support, weights)):  # field paths are formatted only for a bad entry
            if not isinstance(x, str):
                raise CertificateError(f"support[{k}]", f"expected an element encoding (a JSON string), got {x!r}")
            try:
                pairs.append((model.parse_data(x), parse_fraction(w)))
            except ValueError:  # again, through the parsers that name the entry
                pairs.append((parse_payload(x, model, f"support[{k}]"), certificate_fraction(w, f"weights[{k}]")))
        return cls(model, pairs)


# ---------------------------------------------------------------------------
# Bounded-Lipschitz seminorm
# ---------------------------------------------------------------------------


@dataclass
class SeminormResult:
    value: Fraction
    witness: list[Fraction]  # the optimal function at each point of the weight's support
    pivots: int
    engine: str

    def witness_range(self) -> Fraction:
        return max(self.witness) - min(self.witness) if self.witness else ZERO


def _pair_constraints(near: list[dict[int, int]]) -> list[tuple[int, int]]:
    """Lipschitz pairs (i, j), i < j, that survive pruning (see module docstring).

    `near[i]` maps each j closer to i than the box width to the distance,
    an int over one common scale, in ascending j; farther pairs are never
    constraints.  Midpoint candidates k are probed nearest-to-i first, in
    (distance, index) order, so on geodesic-like supports a decomposing
    point is usually hit within a few probes.  A candidate that decomposes
    the pair is closer to i than j is, so it is in i's near row, and a k
    missing from j's is too far from j to be one.
    """
    kept = []
    for i, row in enumerate(near):
        by_nearness = sorted(row.items(), key=itemgetter(1))
        for j, d in row.items():
            if j < i:
                continue
            for k, dik in by_nearness:
                if dik >= d:
                    kept.append((i, j))  # later probes are no closer to i
                    break
                dkj = near[k].get(j)
                if dkj is not None and dkj < d and dik + dkj == d:
                    break  # redundant
            else:
                kept.append((i, j))
    return kept


def _seminorm_lp(
    mu: list[Fraction],
    pairs: list[tuple[int, int, int]],
    scale: int,
    lo: Fraction,
    hi: Fraction,
) -> tuple[Fraction, list[int], int, int, str]:
    """Solve max mu.f over the Lipschitz polytope with box [lo, hi]; each
    pair (i, j, d) bounds |f_i - f_j| by d / scale.  Either engine takes one
    integer system: the weights over their common denominator, and the box
    and distances over `unit`, a common multiple of `scale` and the box's
    denominators.  Returns (value, witness as ints over den, den, pivots,
    engine)."""
    n = len(mu)
    denom = math.lcm(*(m.denominator for m in mu))
    weights = [m.numerator * (denom // m.denominator) for m in mu]
    unit = math.lcm(scale, lo.denominator, hi.denominator)
    step = unit // scale
    low, high = lo.numerator * (unit // lo.denominator), hi.numerator * (unit // hi.denominator)
    if 2 * len(pairs) + n <= SIMPLEX_ROW_LIMIT:
        # substitute x = f - lo >= 0
        rows = [[(i, 1)] for i in range(n)]
        b = [high - low] * n
        for i, j, d in pairs:
            rows += [(i, 1), (j, -1)], [(j, 1), (i, -1)]
            b += d * step, d * step
        sol = simplex_max(weights, rows, b)
        shift = low * sol.D
        f, den, pivots, engine = [x + shift for x in sol.X], sol.D * unit, sol.pivots, "simplex"
        objective = sum(w * v for w, v in zip(weights, f))
    else:
        # Min-cost-flow dual: transport with creation/destruction priced by
        # the box; the witness is read from the potentials.
        bank = n
        arcs: list[tuple[int, int, int, int]] = []
        for i, j, d in pairs:
            arcs += (i, j, INF_CAP, d * step), (j, i, INF_CAP, d * step)
        for v in range(n):
            arcs += (v, bank, INF_CAP, high), (bank, v, INF_CAP, -low)
        objective, _flows, pot = min_cost_flow(n + 1, arcs, weights + [-sum(weights)])
        f, den, pivots, engine = [pot[bank] - p for p in pot[:n]], unit, 0, "flow"
        if sum(w * v for w, v in zip(weights, f)) != objective:
            raise LpError("flow duality certificate failed")
    return Fraction(objective, denom * den), f, den, pivots, engine


def lipschitz_seminorm(
    a: FiniteWeight,
    metric: InvariantPseudoMetric,
    bounds: tuple[Fraction, Fraction] = (Fraction(-1), Fraction(1)),
) -> SeminormResult:
    """Exact seminorm sup { a(f) : f Lipschitz for the metric, f in bounds }.

    With the symmetric box [-1, 1] this equals sup |a(f)|; with an
    asymmetric box the caller must ensure the weight sums to zero for the
    value to be a seminorm (checked).  The constraints are read from the
    support's near-pair table at the box width (see module docstring).
    """
    lo, hi = parse_fraction(bounds[0]), parse_fraction(bounds[1])
    if lo >= hi:
        raise ValueError("bounds must satisfy lo < hi")
    if lo != -hi and a.total() != 0:
        raise ValueError("asymmetric bounds need a weight with zero total mass")
    if len(a) == 0:
        return SeminormResult(value=ZERO, witness=[], pivots=0, engine="trivial")
    if len(a) > SUPPORT_CAP:
        raise SupportSizeError(f"support {len(a)} exceeds cap {SUPPORT_CAP}")

    near, scale = near_pairs(a.support, metric, hi - lo)
    pairs = [(i, j, near[i][j]) for i, j in _pair_constraints(near)]
    value, f, den, pivots, engine = _seminorm_lp(list(a.weights), pairs, scale, lo, hi)

    _check_witness(f, den, near, scale, lo, hi)
    return SeminormResult(value=value, witness=[Fraction(v, den) for v in f], pivots=pivots, engine=engine)


def _check_witness(f: list[int], den: int, near: list[dict[int, int]], scale: int, lo: Fraction, hi: Fraction) -> None:
    """The witness f, ints over den, lies in [lo, hi] and has
    |f_i - f_j| <= near[i][j] / scale for every near pair.

    This checks the whole feasible set, not a relaxation of it: the near
    table holds every pair closer than hi - lo, and for any farther pair
    the box already gives |f_i - f_j| <= hi - lo <= d_ij.  The box is
    checked at every point first, then the near pairs.  Every test is an
    exact integer cross-multiplication.
    """
    low, high = lo.numerator * den, hi.numerator * den
    for v in f:
        if v * lo.denominator < low or v * hi.denominator > high:
            raise LpError("witness escapes bounds")
    for i, row in enumerate(near):
        v = f[i]
        for j, d in row.items():
            if j > i and abs(v - f[j]) * scale > d * den:
                raise LpError("witness violates a Lipschitz constraint")


# ---------------------------------------------------------------------------
# Invariance defects
# ---------------------------------------------------------------------------


@dataclass
class DefectRow:
    g: Any  # the payload of the translation
    full: Fraction
    restricted: Fraction
    pivots: int
    witness_range: Fraction


@dataclass
class InvarianceDefect:
    rows: list[DefectRow]

    @property
    def full(self) -> Fraction:
        return max((r.full for r in self.rows), default=ZERO)

    @property
    def restricted(self) -> Fraction:
        return max((r.restricted for r in self.rows), default=ZERO)


def invariance_defect(
    a: FiniteWeight, E: FiniteWindow, metric: InvariantPseudoMetric
) -> InvarianceDefect:
    """Worst seminorm of a - ga over g in E, plus the [0, 1]-restricted variant.

    For stochastic a the difference has zero total mass, so restricting the
    test functions to [0, 1] still computes a symmetric supremum (1 - f is
    feasible whenever f is).
    """
    if not a.is_stochastic():
        raise ValueError("invariance defect is defined for stochastic weights")
    rows = []
    for g in E:
        diff = a - a.left_translate(g)
        full = lipschitz_seminorm(diff, metric)
        restricted = lipschitz_seminorm(diff, metric, bounds=(ZERO, ONE))
        rows.append(
            DefectRow(
                g=g.data,
                full=full.value,
                restricted=restricted.value,
                pivots=full.pivots,
                witness_range=full.witness_range(),
            )
        )
    return InvarianceDefect(rows=rows)


# ---------------------------------------------------------------------------
# Approximation of stochastic weights by uniform window measures
# ---------------------------------------------------------------------------


class SupplyError(ValueError):
    pass


@dataclass
class UniformApproximation:
    window: FiniteWindow
    pieces: dict[Any, FiniteWindow]  # per support payload
    defect: Fraction
    epsilon: Fraction


def approx_by_uniform(
    a: FiniteWeight,
    metric: InvariantPseudoMetric,
    epsilon: Fraction,
    supply: FiniteWindow,
) -> UniformApproximation:
    """Find a window F with seminorm(a - uniform(F)) <= epsilon.

    The weight is rounded to a common denominator n, then each support atom x
    receives a piece of n*a~(x) supply points inside the closed ball of radius
    epsilon/2 around x, nearest first, pieces pairwise disjoint.  The balls
    are the rows of one `matching.build_graph`, in canonical supply order,
    and their distances come from `integer_metric`.
    The claimed defect is re-verified through the exact seminorm afterwards.
    """
    epsilon = parse_fraction(epsilon)
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if not a.is_stochastic():
        raise ValueError("only stochastic weights can be uniformized")

    counts, denom, round_err = _round_weight(a, epsilon / 2)
    radius = epsilon / 2
    used: set[int] = set()  # supply indices
    pieces: dict[Any, FiniteWindow] = {}
    support, points = a.support, supply.payloads
    balls = build_graph(support, supply, Entourage(metric, radius)).adjacency
    _, (xs, ys), _, dist = integer_metric(metric, support.positions, points)
    for x, need, code, ball in zip(support.positions, counts, xs, balls):
        chosen = []
        # nearest first; the ball is in canonical supply order and the sort is stable
        for j in sorted(ball, key=lambda j: dist(code, ys[j])):
            if len(chosen) == need:
                break
            if j in used:
                continue
            chosen.append(points[j])
            used.add(j)
        if len(chosen) < need:
            raise SupplyError(
                f"supply exhausted near {a.model.format_data(x)}: "
                f"needed {need}, found {len(chosen)} within {radius}"
            )
        pieces[x] = FiniteWindow._from_payloads(a.model, chosen)

    F = FiniteWindow._from_payloads(a.model, [y for piece in pieces.values() for y in piece.positions])
    if len(F) != denom:
        raise SupplyError("pieces overlap; supply too coarse")
    defect = lipschitz_seminorm(a - FiniteWeight.uniform(F), metric).value
    if defect > epsilon:
        raise SupplyError(f"construction defect {defect} exceeds epsilon {epsilon}")
    return UniformApproximation(window=F, pieces=pieces, defect=defect, epsilon=epsilon)


def _round_weight(a: FiniteWeight, budget: Fraction) -> tuple[list[int], int, Fraction]:
    """Approximate a by c(x)/n with sum c = n <= cap and l1 error <= budget;
    the counts c are aligned with the support."""
    denom = math.lcm(*(w.denominator for w in a.weights))
    if denom <= DENOMINATOR_CAP:
        return [int(w * denom) for w in a.weights], denom, ZERO

    n = DENOMINATOR_CAP
    raw = [w * n for w in a.weights]
    counts = [int(q) for q in raw]  # floor
    remainder = n - sum(counts)
    # largest fractional part first, ties to the later support point
    by_frac = sorted(range(len(raw)), key=lambda i: (raw[i] - counts[i], i), reverse=True)
    for i in by_frac[:remainder]:
        counts[i] += 1
    err = sum((abs(w - Fraction(c, n)) for w, c in zip(a.weights, counts)), ZERO)
    if err > budget:
        raise SupplyError(f"rounding error {err} exceeds {budget} at denominator cap {DENOMINATOR_CAP}")
    return counts, n, err
