"""The Fraction forms of code that folnerlab now runs on scaled integers.

Each function here computes every step in `Fraction`s, as the package did
before: the per-rule `eval` of each metric class in `folnerlab.groups`, the
simplex, its optimality check and the min-cost flow (one shortest path per
augmentation) of `folnerlab.lp`, the Lipschitz pair pruning of
`folnerlab.weights`, the criterion-7 grid scan of `folnerlab.suite`, and
the deviation scan of `folnerlab.perturb`'s `verify_perturbation`.  They are
kept unchanged as oracles: the integer forms must return identical results
(values, witnesses, duals, pivot counts, flows, potentials and kept pairs)
on the same input.

`fraction_eval(metric, x, y)` is the independent distance of the test
oracles: each rule written out on the elements' payloads in Fractions, as
the metric classes stated it before `eval` read `groups.integer_metric`
(the word length of x y^-1, the wraparound arc, componentwise max on the
torus, 0/1, and a scale factor times the base).
"""

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from folnerlab.groups import CircleModel
from folnerlab.lp import LpError
from folnerlab.perturb import PerturbationReport, Violation

ZERO = Fraction(0)


@dataclass
class FractionLpSolution:
    """An LP optimum in Fractions: the value, the primal x, the duals and
    the pivot count."""

    value: Fraction
    x: list[Fraction]
    duals: list[Fraction]
    pivots: int


def _arc(a: Fraction, b: Fraction) -> Fraction:
    delta = abs(a - b)
    return min(delta, 1 - delta)


def fraction_eval(metric, x, y) -> Fraction:
    model = metric.model
    if metric.rule == "scaled":
        return metric.factor * fraction_eval(metric.base, x, y)
    if metric.rule == "word":
        return Fraction(model._length_data(model.mul(x, model.inv(y)).data))
    if metric.rule == "arc":
        if isinstance(model, CircleModel):
            return _arc(x.data, y.data)
        return max(_arc(a, b) for a, b in zip(x.data, y.data))
    if metric.rule == "discrete":
        return Fraction(0) if x == y else Fraction(1)
    raise ValueError(f"unknown metric rule {metric.rule!r}")


def fraction_simplex_max(c: list[Fraction], rows: list[list[tuple[int, Fraction]]], b: list[Fraction]) -> FractionLpSolution:
    """Dense-tableau simplex (Bland's rule) for max c.x, Ax <= b, x >= 0, b >= 0.

    Rows are sparse (index, coefficient) lists.  The all-slack basis is
    feasible because b >= 0, so no phase-1 is needed.
    """
    n = len(c)
    m = len(rows)
    if any(rhs < 0 for rhs in b):
        raise LpError("simplex_max requires b >= 0")
    # tableau[i] has n structural coefficients, m slacks, and the rhs.
    width = n + m + 1
    tableau = []
    for i, coeffs in enumerate(rows):
        row = [ZERO] * width
        for j, coef in coeffs:
            row[j] = coef
        row[n + i] = Fraction(1)
        row[-1] = b[i]
        tableau.append(row)
    obj = [ZERO] * width
    for j in range(n):
        obj[j] = -c[j]
    basis = [n + i for i in range(m)]

    pivots = 0
    while True:
        enter = -1
        for j in range(n + m):
            if obj[j] < 0:
                enter = j
                break
        if enter < 0:
            break
        ratio = None
        leave = -1
        for i in range(m):
            a = tableau[i][enter]
            if a > 0:
                r = tableau[i][-1] / a
                if ratio is None or r < ratio or (r == ratio and basis[i] < basis[leave]):
                    ratio = r
                    leave = i
        if leave < 0:
            raise LpError("LP is unbounded")
        pivots += 1
        piv_row = tableau[leave]
        piv = piv_row[enter]
        if piv != 1:
            inv = Fraction(1) / piv
            tableau[leave] = piv_row = [v * inv for v in piv_row]
        for i in range(m):
            if i != leave:
                factor = tableau[i][enter]
                if factor:
                    row = tableau[i]
                    tableau[i] = [v - factor * p for v, p in zip(row, piv_row)]
        factor = obj[enter]
        if factor:
            obj = [v - factor * p for v, p in zip(obj, piv_row)]
        basis[leave] = enter

    x = [ZERO] * n
    for i, var in enumerate(basis):
        if var < n:
            x[var] = tableau[i][-1]
    duals = [obj[n + i] for i in range(m)]
    value = sum(cj * xj for cj, xj in zip(c, x))
    sol = FractionLpSolution(value=value, x=x, duals=duals, pivots=pivots)
    fraction_verify(sol, c, rows, b)
    return sol


def fraction_verify(sol: FractionLpSolution, c, rows, b) -> None:
    """Exact optimality certificate: primal/dual feasibility + equal objectives."""
    n = len(c)
    for (coeffs, rhs) in zip(rows, b):
        lhs = sum(coef * sol.x[j] for j, coef in coeffs)
        if lhs > rhs:
            raise LpError("primal witness infeasible")
    if any(xj < 0 for xj in sol.x):
        raise LpError("primal witness negative")
    if any(yi < 0 for yi in sol.duals):
        raise LpError("dual witness negative")
    col_sums = [ZERO] * n
    for i, (coeffs, _) in enumerate(zip(rows, b)):
        yi = sol.duals[i]
        if yi:
            for j, coef in coeffs:
                col_sums[j] += yi * coef
    for j in range(n):
        if col_sums[j] < c[j]:
            raise LpError("dual witness infeasible")
    primal = sum(cj * xj for cj, xj in zip(c, sol.x))
    dual = sum(yi * bi for yi, bi in zip(sol.duals, b))
    if primal != sol.value or dual != sol.value:
        raise LpError("objective values disagree")


class _FractionFlowNetwork:
    def __init__(self, n: int):
        self.n = n
        self.head: list[list[int]] = [[] for _ in range(n)]
        self.to: list[int] = []
        self.cap: list[int] = []
        self.cost: list[Fraction] = []

    def add(self, u: int, v: int, cap: int, cost: Fraction) -> int:
        idx = len(self.to)
        self.head[u].append(idx)
        self.to.append(v)
        self.cap.append(cap)
        self.cost.append(cost)
        self.head[v].append(idx + 1)
        self.to.append(u)
        self.cap.append(0)
        self.cost.append(-cost)
        return idx


def fraction_min_cost_flow(
    n: int,
    arcs: list[tuple[int, int, int, Fraction]],
    supplies: list[int],
) -> tuple[Fraction, list[int], list[Fraction]]:
    """Exact min-cost flow meeting integer supplies (positive = source).

    Returns (total cost, per-arc flow, node potentials).  Potentials are
    Bellman-Ford distances in the final residual graph from a root with
    residual arcs to every node, so reduced costs are >= 0: they are the
    exact dual certificate.
    """
    if sum(supplies) != 0:
        raise LpError("supplies must balance")
    net = _FractionFlowNetwork(n + 2)
    source, sink = n, n + 1
    arc_ids = [net.add(u, v, cap, cost) for (u, v, cap, cost) in arcs]
    total = 0
    for v, s in enumerate(supplies):
        if s > 0:
            net.add(source, v, s, ZERO)
            total += s
        elif s < 0:
            net.add(v, sink, -s, ZERO)

    sent = 0
    while sent < total:
        dist = [None] * net.n
        parent_edge = [-1] * net.n
        dist[source] = ZERO
        # Bellman-Ford (queue form); costs are exact fractions.
        queue = deque([source])
        in_queue = [False] * net.n
        in_queue[source] = True
        while queue:
            u = queue.popleft()
            in_queue[u] = False
            du = dist[u]
            for e in net.head[u]:
                if net.cap[e] > 0:
                    v = net.to[e]
                    nd = du + net.cost[e]
                    if dist[v] is None or nd < dist[v]:
                        dist[v] = nd
                        parent_edge[v] = e
                        if not in_queue[v]:
                            queue.append(v)
                            in_queue[v] = True
        if dist[sink] is None:
            raise LpError("flow infeasible")
        # bottleneck along the path
        push = total - sent
        v = sink
        while v != source:
            e = parent_edge[v]
            push = min(push, net.cap[e])
            v = net.to[e ^ 1]
        v = sink
        while v != source:
            e = parent_edge[v]
            net.cap[e] -= push
            net.cap[e ^ 1] += push
            v = net.to[e ^ 1]
        sent += push

    cost_total = ZERO
    flows = []
    for idx, (u, v, cap, cost) in zip(arc_ids, arcs):
        f = net.cap[idx ^ 1]
        flows.append(f)
        cost_total += cost * f

    # Potentials via Bellman-Ford from a virtual root connected to all nodes.
    pot: list[Fraction] = [ZERO] * net.n
    fraction_bellman_ford(net.head, net.to, net.cap, net.cost, pot)
    return cost_total, flows, pot[:n]


def fraction_bellman_ford(head, to, cap, cost, dist) -> None:
    """Full-sweep Bellman-Ford over the residual arcs (cap > 0), lowering
    `dist` in place (None = unreached).  A sweep that still changes a
    distance after len(head) - 1 others means a negative cycle."""
    size = len(head)
    for _ in range(size):
        changed = False
        for u in range(size):
            du = dist[u]
            if du is None:
                continue
            for e in head[u]:
                if cap[e] > 0:
                    v = to[e]
                    nd = du + cost[e]
                    if dist[v] is None or nd < dist[v]:
                        dist[v] = nd
                        changed = True
        if not changed:
            return
    raise LpError("negative cycle in optimal residual graph")


def fraction_pair_constraints(
    points: list,
    dist: Callable[[int, int], Fraction],
    span: Fraction,
) -> list[tuple[int, int, Fraction]]:
    """Lipschitz pairs that survive pruning (see module docstring).

    Midpoint candidates are probed nearest-to-i first, so on geodesic-like
    supports a decomposing point is usually hit within a few probes.
    """
    n = len(points)
    dmat = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        row = dmat[i]
        for j in range(i + 1, n):
            row[j] = dmat[j][i] = dist(i, j)
    by_nearness = [
        sorted((k for k in range(n) if k != i), key=lambda k: dmat[i][k])
        for i in range(n)
    ]
    kept = []
    for i in range(n):
        row = dmat[i]
        for j in range(i + 1, n):
            d = row[j]
            if d >= span:
                continue
            redundant = False
            for k in by_nearness[i]:
                dik = row[k]
                if dik >= d:
                    break  # later probes are no closer to i
                dkj = dmat[k][j]
                if dkj < d and dik + dkj == d:
                    redundant = True
                    break
            if not redundant:
                kept.append((i, j, d))
    return kept


def fraction_brute_force_two_point(mu_x: Fraction, mu_y: Fraction, d: Fraction, step: Fraction) -> Fraction:
    best = None
    k = int(2 / step)
    values = [-1 + i * step for i in range(k + 1)]
    for fx in values:
        for fy in values:
            if abs(fx - fy) <= d:
                v = mu_x * fx + mu_y * fy
                if best is None or v > best:
                    best = v
    return best


def fraction_verify_perturbation(action, U) -> PerturbationReport:
    """`verify_perturbation` with every deviation a `Fraction` from
    `fraction_eval` on elements, as it ran before every deviation scan read
    `groups.integer_metric`."""
    model = action.window.model
    metric = U.metric
    violations = []
    checked = 0
    max_dev = ZERO
    for key in sorted(action.rows, key=model.payload_key):
        g, row = model.element(key), action.rows[key]
        for i, j in enumerate(row):
            if j is None:
                continue
            h = action.window[i]
            image = action.window[j]
            dist = fraction_eval(metric, image, model.mul(g, h))
            checked += 1
            max_dev = max(max_dev, dist)
            if dist > U.radius:
                violations.append(Violation(g=g.data, h=h.data, image=image.data, distance=dist))

    ratios = []
    for idx, F in enumerate(action.folner_windows):
        if idx < len(action.folner_pools):
            movers = [g for g in action.folner_pools[idx] if g.data in action.rows]
        else:
            movers = [model.element(g) for g in action.rows]
        image = set(F)
        for g in movers:
            row = action.rows[g.data]
            for x in F:
                j = row[action.window.index(x)] if x in action.window else None
                if j is not None:
                    image.add(action.window[j])
        ratios.append((idx, Fraction(len(image), len(F))))
    return PerturbationReport(
        model=model,
        radius=U.radius,
        entries_checked=checked,
        violations=violations,
        max_deviation=max_dev,
        rosenblatt=ratios,
    )
