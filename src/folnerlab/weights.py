"""Finitely supported rational weights on a group and the bounded-Lipschitz
seminorm.

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
Pruning and the final witness check read one integer matrix per call: the
distances and the box width times the LCM of their denominators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

from .groups import (
    FiniteWindow,
    GroupElement,
    GroupModel,
    InvariantPseudoMetric,
    ModelMismatchError,
    parse_fraction,
)
from .lp import LpError, min_cost_flow, simplex_max

SUPPORT_CAP = 200
DENOMINATOR_CAP = 1000
SIMPLEX_ROW_LIMIT = 320

ZERO = Fraction(0)
ONE = Fraction(1)


class SupportSizeError(ValueError):
    pass


class FiniteWeight:
    """Finitely supported map into the rationals; zero weights are dropped."""

    def __init__(self, model: GroupModel, pairs: Iterable[tuple[GroupElement, Fraction]]):
        table: dict[GroupElement, Fraction] = {}
        for g, w in pairs:
            if g.model != model:
                raise ModelMismatchError("weight on a foreign element")
            w = parse_fraction(w)
            if w == 0:
                continue
            table[g] = table.get(g, ZERO) + w
            if table[g] == 0:
                del table[g]
        self.model = model
        self.items: tuple[tuple[GroupElement, Fraction], ...] = tuple(
            sorted(table.items(), key=lambda kv: model.sort_key(kv[0]))
        )
        self.norm1: Fraction = sum((abs(w) for _, w in self.items), ZERO)

    @classmethod
    def delta(cls, g: GroupElement) -> "FiniteWeight":
        return cls(g.model, [(g, ONE)])

    @classmethod
    def uniform(cls, F: FiniteWindow) -> "FiniteWeight":
        if len(F) == 0:
            raise ValueError("uniform weight needs a non-empty window")
        w = Fraction(1, len(F))
        return cls(F.model, [(g, w) for g in F])

    def support(self) -> FiniteWindow:
        return FiniteWindow(self.model, [g for g, _ in self.items])

    def __len__(self) -> int:
        return len(self.items)

    def __getitem__(self, g: GroupElement) -> Fraction:
        for h, w in self.items:
            if h == g:
                return w
        return ZERO

    def is_stochastic(self) -> bool:
        return self.norm1 == 1 and all(w > 0 for _, w in self.items)

    def total(self) -> Fraction:
        return sum((w for _, w in self.items), ZERO)

    def apply(self, f: Callable[[GroupElement], Fraction]) -> Fraction:
        return sum((w * f(g) for g, w in self.items), ZERO)

    def __add__(self, other: "FiniteWeight") -> "FiniteWeight":
        return FiniteWeight(self.model, list(self.items) + list(other.items))

    def __sub__(self, other: "FiniteWeight") -> "FiniteWeight":
        return FiniteWeight(
            self.model, list(self.items) + [(g, -w) for g, w in other.items]
        )

    def scale(self, c: Fraction) -> "FiniteWeight":
        c = parse_fraction(c)
        return FiniteWeight(self.model, [(g, c * w) for g, w in self.items])

    def left_translate(self, g: GroupElement) -> "FiniteWeight":
        return FiniteWeight(self.model, [(self.model.mul(g, h), w) for h, w in self.items])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FiniteWeight)
            and self.model == other.model
            and self.items == other.items
        )

    def __repr__(self) -> str:
        inner = " + ".join(f"{w}*d[{self.model.format(g)}]" for g, w in self.items[:6])
        return f"Weight({inner}{' ...' if len(self.items) > 6 else ''})"

    def to_json(self) -> dict:
        return {
            "support": [self.model.format(g) for g, _ in self.items],
            "weights": [str(w) for _, w in self.items],
        }

    @classmethod
    def from_json(cls, obj: dict, model: GroupModel) -> "FiniteWeight":
        pairs = [
            (model.parse(s), parse_fraction(w))
            for s, w in zip(obj["support"], obj["weights"], strict=True)
        ]
        return cls(model, pairs)


def convolve(a: FiniteWeight, b: FiniteWeight) -> FiniteWeight:
    """(ab)(x) = sum over gh = x of a(g) b(h)."""
    if a.model != b.model:
        raise ModelMismatchError("convolving weights over different models")
    pairs = []
    for g, wa in a.items:
        for h, wb in b.items:
            pairs.append((a.model.mul(g, h), wa * wb))
    return FiniteWeight(a.model, pairs)


def right_average(a: FiniteWeight, f: dict[GroupElement, Fraction], W: FiniteWindow) -> dict[GroupElement, Fraction]:
    """Average f over right translates: x -> sum_g a(g) f(xg), for x in W.

    Every product xg with g in supp(a) must carry an f value.
    """
    out = {}
    for x in W:
        acc = ZERO
        for g, w in a.items:
            xg = a.model.mul(x, g)
            if xg not in f:
                raise KeyError(f"missing value at {a.model.format(xg)}")
            acc += w * f[xg]
        out[x] = acc
    return out


# ---------------------------------------------------------------------------
# Bounded-Lipschitz seminorm
# ---------------------------------------------------------------------------


@dataclass
class SeminormResult:
    value: Fraction
    witness: dict[GroupElement, Fraction]
    pivots: int
    engine: str

    def witness_range(self) -> Fraction:
        if not self.witness:
            return ZERO
        vals = list(self.witness.values())
        return max(vals) - min(vals)


def _pair_constraints(dmat: list[list[int]], span: int) -> list[tuple[int, int]]:
    """Lipschitz pairs (i, j), i < j, that survive pruning (see module docstring).

    `dmat` holds the distances and `span` the box width, all scaled to
    integers by one common factor.  Midpoint candidates are probed
    nearest-to-i first, so on geodesic-like supports a decomposing point is
    usually hit within a few probes.
    """
    n = len(dmat)
    kept = []
    for i in range(n):
        row = dmat[i]
        by_nearness = sorted((k for k in range(n) if k != i), key=row.__getitem__)
        for j in range(i + 1, n):
            d = row[j]
            if d >= span:
                continue
            for k in by_nearness:
                dik = row[k]
                if dik >= d:
                    kept.append((i, j))  # later probes are no closer to i
                    break
                dkj = dmat[k][j]
                if dkj < d and dik + dkj == d:
                    break  # redundant
            else:
                kept.append((i, j))
    return kept


def _seminorm_lp(
    mu: list[Fraction],
    pairs: list[tuple[int, int, Fraction]],
    lo: Fraction,
    hi: Fraction,
) -> tuple[Fraction, list[Fraction], int, str]:
    """Solve max mu.f over the Lipschitz polytope with box [lo, hi]."""
    n = len(mu)
    span = hi - lo
    row_count = 2 * len(pairs) + n
    if row_count <= SIMPLEX_ROW_LIMIT:
        # substitute x = f - lo >= 0
        rows: list[list[tuple[int, Fraction]]] = []
        b: list[Fraction] = []
        for i in range(n):
            rows.append([(i, ONE)])
            b.append(span)
        for i, j, d in pairs:
            rows.append([(i, ONE), (j, -ONE)])
            b.append(d)
            rows.append([(j, ONE), (i, -ONE)])
            b.append(d)
        sol = simplex_max(mu, rows, b)
        f = [x + lo for x in sol.x]
        value = sum(m * v for m, v in zip(mu, f))
        return value, f, sol.pivots, "simplex"

    # Min-cost-flow dual: transport with creation/destruction priced by the box.
    denom = math.lcm(*(m.denominator for m in mu))
    scaled = [int(m * denom) for m in mu]
    bank = n
    arcs: list[tuple[int, int, int, Fraction]] = []
    for i, j, d in pairs:
        arcs.append((i, j, 1 << 60, d))
        arcs.append((j, i, 1 << 60, d))
    for v in range(n):
        arcs.append((v, bank, 1 << 60, hi))
        arcs.append((bank, v, 1 << 60, -lo))
    supplies = scaled + [-sum(scaled)]
    cost, _flows, pot = min_cost_flow(n + 1, arcs, supplies)
    f = [pot[bank] - pot[v] for v in range(n)]
    value = cost / denom
    if sum(m * v for m, v in zip(mu, f)) != value:
        raise LpError("flow duality certificate failed")
    return value, f, 0, "flow"


def lipschitz_seminorm(
    a: FiniteWeight,
    metric: InvariantPseudoMetric,
    bounds: tuple[Fraction, Fraction] = (Fraction(-1), Fraction(1)),
    support_cap: int = SUPPORT_CAP,
) -> SeminormResult:
    """Exact seminorm sup { a(f) : f Lipschitz for the metric, f in bounds }.

    With the symmetric box [-1, 1] this equals sup |a(f)|; with an
    asymmetric box the caller must ensure the weight sums to zero for the
    value to be a seminorm (checked).
    """
    lo, hi = parse_fraction(bounds[0]), parse_fraction(bounds[1])
    if lo >= hi:
        raise ValueError("bounds must satisfy lo < hi")
    if lo != -hi and a.total() != 0:
        raise ValueError("asymmetric bounds need a weight with zero total mass")
    if len(a) == 0:
        return SeminormResult(value=ZERO, witness={}, pivots=0, engine="trivial")
    if len(a) > support_cap:
        raise SupportSizeError(f"support {len(a)} exceeds cap {support_cap}")

    points = [g for g, _ in a.items]
    mu = [w for _, w in a.items]
    n = len(points)
    span = hi - lo
    upper = [[metric.eval(points[i], points[j]) for j in range(i + 1, n)] for i in range(n)]
    scale = math.lcm(span.denominator, *(d.denominator for row in upper for d in row))
    dmat = [[0] * n for _ in range(n)]
    for i, row in enumerate(upper):
        for j, d in enumerate(row, start=i + 1):
            dmat[i][j] = dmat[j][i] = d.numerator * (scale // d.denominator)

    kept = _pair_constraints(dmat, span.numerator * (scale // span.denominator))
    pairs = [(i, j, upper[i][j - i - 1]) for i, j in kept]
    value, f, pivots, engine = _seminorm_lp(mu, pairs, lo, hi)

    _check_witness(f, dmat, scale, lo, hi)
    return SeminormResult(value=value, witness=dict(zip(points, f)), pivots=pivots, engine=engine)


def _check_witness(f: list[Fraction], dmat: list[list[int]], scale: int, lo: Fraction, hi: Fraction) -> None:
    """f lies in [lo, hi] and |f_i - f_j| <= dmat[i][j] / scale for all pairs.

    The values are put over their common denominator and every test is an
    exact integer cross-multiplication.
    """
    den = math.lcm(*(v.denominator for v in f))
    ints = [v.numerator * (den // v.denominator) for v in f]
    for i, v in enumerate(ints):
        if v * lo.denominator < lo.numerator * den or v * hi.denominator > hi.numerator * den:
            raise LpError("witness escapes bounds")
        row = dmat[i]
        for j in range(i + 1, len(ints)):
            if abs(v - ints[j]) * scale > row[j] * den:
                raise LpError("witness violates a Lipschitz constraint")


# ---------------------------------------------------------------------------
# Invariance defects
# ---------------------------------------------------------------------------


@dataclass
class DefectRow:
    g: GroupElement
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
                g=g,
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
    pieces: dict[GroupElement, FiniteWindow]
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
    epsilon/2 around x, pieces pairwise disjoint, scanned in canonical order.
    The claimed defect is re-verified through the exact seminorm afterwards.
    """
    epsilon = parse_fraction(epsilon)
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if not a.is_stochastic():
        raise ValueError("only stochastic weights can be uniformized")

    counts, denom, round_err = _round_weight(a, epsilon / 2)
    radius = epsilon / 2
    used: set[GroupElement] = set()
    pieces: dict[GroupElement, FiniteWindow] = {}
    for x, _ in a.items:
        need = counts[x]
        in_ball = [y for y in supply if metric.eval(x, y) <= radius]
        in_ball.sort(key=lambda y: (metric.eval(x, y), a.model.sort_key(y)))
        chosen = []
        for y in in_ball:
            if len(chosen) == need:
                break
            if y in used:
                continue
            chosen.append(y)
            used.add(y)
        if len(chosen) < need:
            raise SupplyError(
                f"supply exhausted near {a.model.format(x)}: "
                f"needed {need}, found {len(chosen)} within {radius}"
            )
        pieces[x] = FiniteWindow(a.model, chosen)

    F = FiniteWindow(a.model, [y for piece in pieces.values() for y in piece])
    if len(F) != denom:
        raise SupplyError("pieces overlap; supply too coarse")
    defect = lipschitz_seminorm(a - FiniteWeight.uniform(F), metric).value
    if defect > epsilon:
        raise SupplyError(f"construction defect {defect} exceeds epsilon {epsilon}")
    return UniformApproximation(window=F, pieces=pieces, defect=defect, epsilon=epsilon)


def _round_weight(a: FiniteWeight, budget: Fraction) -> tuple[dict[GroupElement, int], int, Fraction]:
    """Approximate a by c(x)/n with sum c = n <= cap and l1 error <= budget."""
    denom = math.lcm(*(w.denominator for _, w in a.items))
    if denom <= DENOMINATOR_CAP:
        return {g: int(w * denom) for g, w in a.items}, denom, ZERO

    n = DENOMINATOR_CAP
    raw = [(g, w * n) for g, w in a.items]
    counts = {g: int(q) for g, q in raw}  # floor
    remainder = n - sum(counts.values())
    by_frac = sorted(raw, key=lambda item: (item[1] - int(item[1]), a.model.sort_key(item[0])), reverse=True)
    for g, _ in by_frac[:remainder]:
        counts[g] += 1
    err = sum((abs(w - Fraction(counts[g], n)) for g, w in a.items), ZERO)
    if err > budget:
        raise SupplyError(f"rounding error {err} exceeds {budget} at denominator cap {DENOMINATOR_CAP}")
    return counts, n, err
