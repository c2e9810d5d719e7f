"""Exact rational linear programming at desk scale.

Two engines solve the same maximization problem

    max c.x   subject to   A x <= b,  x >= 0,   with b >= 0,

exactly:

* an integer-tableau simplex with Bland's rule (the default for small
  systems) whose pivots rewrite only the entries they change,
* a primal-dual min-cost flow specialised to the Lipschitz seminorm systems
  produced by :mod:`folnerlab.weights`, used once the tableau would be too
  large for the time budget.  Each phase runs one shortest-path pass
  (`_relax`) and then a blocking flow along every residual arc tight under it.

Both compute on integers.  The simplex takes an integer system and returns
its primal and dual over the final tableau's denominator; the flow takes
int costs and returns an int cost, the flow and int potentials.  The
seminorm puts its system over one unit once and hands the same ints to
either engine, so neither scales anything.

Every solve returns the optimum, a primal witness, and a dual vector; the
pair is certified by exact feasibility and strong duality, so callers never
depend on which engine ran.  The simplex checks its certificate on the
final integer tableau; the flow's potentials are the greatest optimal dual
that is <= 0, the same for every optimal flow.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass


class LpError(ValueError):
    pass


@dataclass
class LpSolution:
    """An optimum over the final denominator D > 0: the primal is X/D and
    the duals are Y/D."""

    X: list[int]
    Y: list[int]
    D: int
    pivots: int


def simplex_max(c: list[int], rows: list[list[tuple[int, int]]], b: list[int]) -> LpSolution:
    """Integer-tableau simplex (Bland's rule) for max c.x, Ax <= b, x >= 0,
    b >= 0, on integer data.

    Rows are sparse (index, coefficient) lists.  The all-slack basis is
    feasible because b >= 0, so no phase-1 is needed.

    Every true tableau entry is the stored int over a running denominator
    D.  Edmonds-Bareiss pivots keep it integral, and the ratio test
    compares by cross-multiplication, so the pivot sequence is the one the
    same tableau would take in fractions.  Scaling A and b, or c, by a
    positive factor changes no pivot.  A pivot rewrites only the rows (and
    the objective row) with a nonzero entering coefficient, and, while the
    pivot p equals D, only the pivot row's nonzero columns: every other
    entry v becomes (p*v)//D = v.  The optimum is certified on the final
    tableau, also in integers (`_certify`).
    """
    n, m = len(c), len(rows)
    if any(rhs < 0 for rhs in b):
        raise LpError("simplex_max requires b >= 0")
    # tableau[i] has n structural coefficients, m slacks, and the rhs.
    width = n + m + 1
    tableau = []
    for i, coeffs in enumerate(rows):
        row = [0] * width
        for j, coef in coeffs:
            row[j] = coef
        row[n + i] = 1
        row[-1] = b[i]
        tableau.append(row)
    obj = [0] * width
    for j in range(n):
        obj[j] = -c[j]
    tableau.append(obj)  # pivots rewrite it with the rows; ratio tests skip it
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
        cols = [(j, q) for j, q in enumerate(piv_row) if q] if p == D else list(enumerate(piv_row))
        for row in tableau:
            factor = row[enter]
            if (factor or p != D) and row is not piv_row:
                for j, q in cols:
                    row[j] = (p * row[j] - factor * q) // D
        D = p
        basis[leave] = enter

    X = [0] * n
    for i, var in enumerate(basis):
        if var < n:
            X[var] = tableau[i][-1]
    Y = obj[n:n + m]
    _certify(c, rows, b, X, Y, D)
    return LpSolution(X=X, Y=Y, D=D, pivots=pivots)


def _certify(c: list[int], rows: list[list[tuple[int, int]]], b: list[int], X: list[int], Y: list[int], D: int) -> int:
    """Optimality certificate of the final tableau, checked on integers.

    The primal is X/D and the duals are Y/D (D > 0), so primal feasibility
    is sum A.X <= b.D, dual feasibility sum Y.A >= c.D, and strong duality
    c.X = Y.b.  Returns c.X, the objective times D.
    """
    for coeffs, rhs in zip(rows, b):
        if sum(coef * X[j] for j, coef in coeffs) > rhs * D:
            raise LpError("primal witness infeasible")
    if any(Xj < 0 for Xj in X):
        raise LpError("primal witness negative")
    if any(Yi < 0 for Yi in Y):
        raise LpError("dual witness negative")
    col_sums = [0] * len(c)
    for coeffs, Yi in zip(rows, Y):
        if Yi:
            for j, coef in coeffs:
                col_sums[j] += Yi * coef
    if any(total < cj * D for total, cj in zip(col_sums, c)):
        raise LpError("dual witness infeasible")
    objective = sum(cj * Xj for cj, Xj in zip(c, X))
    if objective != sum(Yi * bi for Yi, bi in zip(Y, b)):
        raise LpError("objective values disagree")
    return objective


# ---------------------------------------------------------------------------
# Min-cost flow (primal-dual phases, exact)
# ---------------------------------------------------------------------------


INF_CAP = 1 << 60


def min_cost_flow(
    n: int,
    arcs: list[tuple[int, int, int, int]],
    supplies: list[int],
) -> tuple[int, list[int], list[int]]:
    """Exact min-cost flow meeting integer supplies (positive = source).

    Returns (total cost, per-arc flow, node potentials).  Potentials are
    the `_relax` distances in the final residual graph from a virtual root
    with a 0 arc to every node, so reduced costs are >= 0: they are the
    exact dual certificate.

    The flow is found in primal-dual phases.  Each phase computes shortest
    distances from the source once, then sends a maximum flow along the
    residual arcs that are tight under them (reverse arcs included), as
    Dinic blocking flows.  Every path it uses is a shortest path, so the
    residual graph keeps no negative cycle and the final flow is optimal.
    The potentials do not depend on which optimal flow is found: the
    optimal duals are the same set for all of them, and the root distances
    are its greatest element that is <= 0.

    Costs are ints, as the seminorm builds them, so the cost and the
    potentials are ints too.
    """
    if sum(supplies) != 0:
        raise LpError("supplies must balance")
    size = n + 2
    source, sink = n, n + 1
    edges = list(arcs)
    for v, s in enumerate(supplies):
        if s > 0:
            edges.append((source, v, s, 0))
        elif s < 0:
            edges.append((v, sink, -s, 0))
    # Arc k is residual arc 2k and its reverse 2k + 1, so e ^ 1 flips an arc.
    head: list[list[int]] = [[] for _ in range(size)]
    to: list[int] = []
    cap: list[int] = []
    cost: list[int] = []
    for u, v, c, w in edges:
        head[u].append(len(to))
        head[v].append(len(to) + 1)
        to += (v, u)
        cap += (c, 0)
        cost += (w, -w)
    total = sum(s for s in supplies if s > 0)

    sent = 0
    while sent < total:
        dist = [None] * size
        dist[source] = 0
        _relax(head, to, cap, cost, dist, [source])
        if dist[sink] is None:
            raise LpError("flow infeasible")
        sent += _tight_max_flow(head, to, cap, cost, dist, source, sink)

    flows = cap[1:2 * len(arcs):2]  # the reverse arcs' capacities
    cost_total = sum(arc[3] * f for arc, f in zip(arcs, flows))

    pot = [0] * size
    _relax(head, to, cap, cost, pot, range(size))
    return cost_total, flows, pot[:n]


def _relax(head, to, cap, cost, dist, starts) -> None:
    """Queue-based Bellman-Ford: lower `dist` in place (None = unreached)
    along residual arcs (cap > 0) from the nodes `starts` until no arc
    relaxes.  Without a negative cycle no node is queued more than
    len(head) times, so one that is raises LpError."""
    size = len(head)
    queue = deque(starts)
    in_queue, queued = [False] * size, [0] * size
    for u in queue:
        in_queue[u], queued[u] = True, 1
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
                    if not in_queue[v]:
                        queued[v] += 1
                        if queued[v] > size:
                            raise LpError("negative cycle in optimal residual graph")
                        queue.append(v)
                        in_queue[v] = True


def _tight_max_flow(head, to, cap, cost, dist, source: int, sink: int) -> int:
    """Maximum flow from source to sink over the arcs that are tight under
    `dist` (dist[v] = dist[u] + cost), augmenting `cap` in place.

    An arc is tight exactly when its reverse is, so the tight arcs are fixed
    for the phase and only their residual capacities change.  Dinic: a BFS
    level graph, then an iterative DFS with current-arc pointers until the
    levels block, repeated until the sink is out of reach.
    """
    size = len(head)
    tight = [[] for _ in range(size)]
    for u in range(size):
        du = dist[u]
        if du is not None:
            tight[u] = [e for e in head[u] if dist[to[e]] == du + cost[e]]
    sent = 0
    while True:
        level = [-1] * size
        level[source] = 0
        queue = deque([source])
        while queue:
            u = queue.popleft()
            next_level = level[u] + 1
            for e in tight[u]:
                v = to[e]
                if cap[e] > 0 and level[v] < 0:
                    level[v] = next_level
                    queue.append(v)
        if level[sink] < 0:
            return sent
        pointer = [0] * size
        path: list[int] = []
        u = source
        while True:
            if u == sink:
                push = min(cap[e] for e in path)
                for e in path:
                    cap[e] -= push
                    cap[e ^ 1] += push
                sent += push
                path.clear()
                u = source
                continue
            arcs_u = tight[u]
            i = pointer[u]
            while i < len(arcs_u):
                e = arcs_u[i]
                if cap[e] > 0 and level[to[e]] == level[u] + 1:
                    break
                i += 1
            pointer[u] = i
            if i < len(arcs_u):
                path.append(arcs_u[i])
                u = to[arcs_u[i]]
            elif u == source:
                break
            else:
                level[u] = -1  # dead end for the rest of this level graph
                u = to[path.pop() ^ 1]
                pointer[u] += 1
