"""Exact rational linear programming at desk scale.

Two engines solve the same maximization problem

    max c.x   subject to   A x <= b,  x >= 0,   with b >= 0,

exactly:

* a dense-tableau simplex with Bland's rule (the default for small systems),
* a successive-shortest-path min-cost flow specialised to the Lipschitz
  seminorm systems produced by :mod:`folnerlab.weights`, used once the
  tableau would be too large for the time budget.

Both take and return `Fraction`s but compute on integers: the data are
scaled once by the LCM of their denominators, every comparison is made on
the scaled integers (by cross-multiplication where a ratio is compared),
and the answers are divided back once at the end.  Scaling by a positive
factor changes no comparison, so the pivots, paths and answers are the
ones a computation in fractions would give.

Every solve returns the optimum, a primal witness, and a dual vector; the
pair is certified by exact feasibility and strong duality, so callers never
depend on which engine ran.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

ZERO = Fraction(0)


class LpError(ValueError):
    pass


@dataclass
class LpSolution:
    value: Fraction
    x: list[Fraction]
    duals: list[Fraction]
    pivots: int

    def verify(self, c, rows, b) -> None:
        """Exact optimality certificate: primal/dual feasibility + equal objectives."""
        n = len(c)
        for (coeffs, rhs) in zip(rows, b):
            lhs = sum(coef * self.x[j] for j, coef in coeffs)
            if lhs > rhs:
                raise LpError("primal witness infeasible")
        if any(xj < 0 for xj in self.x):
            raise LpError("primal witness negative")
        if any(yi < 0 for yi in self.duals):
            raise LpError("dual witness negative")
        col_sums = [ZERO] * n
        for i, (coeffs, _) in enumerate(zip(rows, b)):
            yi = self.duals[i]
            if yi:
                for j, coef in coeffs:
                    col_sums[j] += yi * coef
        for j in range(n):
            if col_sums[j] < c[j]:
                raise LpError("dual witness infeasible")
        primal = sum(cj * xj for cj, xj in zip(c, self.x))
        dual = sum(yi * bi for yi, bi in zip(self.duals, b))
        if primal != self.value or dual != self.value:
            raise LpError("objective values disagree")


def simplex_max(c: list[Fraction], rows: list[list[tuple[int, Fraction]]], b: list[Fraction]) -> LpSolution:
    """Dense-tableau simplex (Bland's rule) for max c.x, Ax <= b, x >= 0, b >= 0.

    Rows are sparse (index, coefficient) lists.  The all-slack basis is
    feasible because b >= 0, so no phase-1 is needed.

    The tableau is kept in integers: A, b and c are scaled by the LCMs of
    their denominators, and every true entry is the stored one over a
    running denominator D.  Edmonds-Bareiss pivots keep it integral, and
    the ratio test compares by cross-multiplication, so the pivot sequence
    is the one the same tableau would take in fractions.
    """
    n = len(c)
    m = len(rows)
    if any(rhs < 0 for rhs in b):
        raise LpError("simplex_max requires b >= 0")
    scale_a = math.lcm(*(coef.denominator for coeffs in rows for _, coef in coeffs))
    scale_b = math.lcm(*(rhs.denominator for rhs in b))
    scale_c = math.lcm(*(cj.denominator for cj in c))
    # tableau[i] has n structural coefficients, m slacks, and the rhs.
    width = n + m + 1
    tableau = []
    for i, coeffs in enumerate(rows):
        row = [0] * width
        for j, coef in coeffs:
            row[j] = coef.numerator * (scale_a // coef.denominator)
        row[n + i] = 1
        row[-1] = b[i].numerator * (scale_b // b[i].denominator)
        tableau.append(row)
    obj = [0] * width
    for j in range(n):
        obj[j] = -c[j].numerator * (scale_c // c[j].denominator)
    basis = [n + i for i in range(m)]

    D = 1  # positive: it is always the last pivot
    pivots = 0
    while True:
        enter = -1
        for j in range(n + m):
            if obj[j] < 0:
                enter = j
                break
        if enter < 0:
            break
        leave = -1
        for i in range(m):
            a = tableau[i][enter]
            if a > 0:
                rhs = tableau[i][-1]
                if leave < 0:
                    leave, best_rhs, best_a = i, rhs, a
                    continue
                lhs, bound = rhs * best_a, best_rhs * a  # rhs/a against best_rhs/best_a
                if lhs < bound or (lhs == bound and basis[i] < basis[leave]):
                    leave, best_rhs, best_a = i, rhs, a
        if leave < 0:
            raise LpError("LP is unbounded")
        pivots += 1
        piv_row = tableau[leave]
        p = piv_row[enter]
        for i in range(m):
            if i != leave:
                row = tableau[i]
                factor = row[enter]
                if factor or p != D:
                    tableau[i] = [(p * v - factor * q) // D for v, q in zip(row, piv_row)]
        factor = obj[enter]
        if factor or p != D:
            obj = [(p * v - factor * q) // D for v, q in zip(obj, piv_row)]
        D = p
        basis[leave] = enter

    x = [ZERO] * n
    for i, var in enumerate(basis):
        if var < n:
            x[var] = Fraction(tableau[i][-1] * scale_a, D * scale_b)
    duals = [Fraction(obj[n + i] * scale_a, D * scale_c) for i in range(m)]
    value = sum(cj * xj for cj, xj in zip(c, x))
    sol = LpSolution(value=value, x=x, duals=duals, pivots=pivots)
    sol.verify(c, rows, b)
    return sol


# ---------------------------------------------------------------------------
# Min-cost flow (successive shortest paths, exact)
# ---------------------------------------------------------------------------


class _FlowNetwork:
    def __init__(self, n: int):
        self.n = n
        self.head: list[list[int]] = [[] for _ in range(n)]
        self.to: list[int] = []
        self.cap: list[int] = []
        self.cost: list[int] = []

    def add(self, u: int, v: int, cap: int, cost: int) -> int:
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


INF_CAP = 1 << 60


def min_cost_flow(
    n: int,
    arcs: list[tuple[int, int, int, Fraction]],
    supplies: list[int],
) -> tuple[Fraction, list[int], list[Fraction]]:
    """Exact min-cost flow meeting integer supplies (positive = source).

    Returns (total cost, per-arc flow, node potentials).  Potentials are
    Bellman-Ford distances in the final residual graph from a root with
    residual arcs to every node, so reduced costs are >= 0: they are the
    exact dual certificate.

    Costs are scaled to integers by the LCM of their denominators; paths,
    flows and potentials are computed on those and divided back once.
    """
    if sum(supplies) != 0:
        raise LpError("supplies must balance")
    scale = math.lcm(*(cost.denominator for (_, _, _, cost) in arcs))
    net = _FlowNetwork(n + 2)
    source, sink = n, n + 1
    arc_ids = [
        net.add(u, v, cap, cost.numerator * (scale // cost.denominator))
        for (u, v, cap, cost) in arcs
    ]
    total = 0
    for v, s in enumerate(supplies):
        if s > 0:
            net.add(source, v, s, 0)
            total += s
        elif s < 0:
            net.add(v, sink, -s, 0)

    head, to, cap, cost = net.head, net.to, net.cap, net.cost
    sent = 0
    while sent < total:
        dist = [None] * net.n
        parent_edge = [-1] * net.n
        dist[source] = 0
        # Bellman-Ford (queue form) on the scaled integer costs.
        queue = deque([source])
        in_queue = [False] * net.n
        in_queue[source] = True
        while queue:
            u = queue.popleft()
            in_queue[u] = False
            du = dist[u]
            for e in head[u]:
                if cap[e] > 0:
                    v = to[e]
                    nd = du + cost[e]
                    dv = dist[v]
                    if dv is None or nd < dv:
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
            push = min(push, cap[e])
            v = to[e ^ 1]
        v = sink
        while v != source:
            e = parent_edge[v]
            cap[e] -= push
            cap[e ^ 1] += push
            v = to[e ^ 1]
        sent += push

    cost_total = 0
    flows = []
    for idx in arc_ids:
        f = cap[idx ^ 1]
        flows.append(f)
        cost_total += cost[idx] * f

    # Potentials via Bellman-Ford from a virtual root connected to all nodes.
    pot = [0] * net.n
    for _ in range(net.n):
        changed = False
        for u in range(net.n):
            pu = pot[u]
            for e in head[u]:
                if cap[e] > 0:
                    v = to[e]
                    nd = pu + cost[e]
                    if nd < pot[v]:
                        pot[v] = nd
                        changed = True
        if not changed:
            break
    else:
        raise LpError("negative cycle in optimal residual graph")
    return Fraction(cost_total, scale), flows, [Fraction(pv, scale) for pv in pot[:n]]
