"""Bipartite graphs between finite windows, maximum matchings, and Hall
deficiency witnesses.

An instance pairs x in E with y in F whenever y x^-1 lies in the entourage,
that is y = u x for some u in U.  `build_graph` divides the scale factors out
of the radius and then lists each row directly by the base metric, as a list
of indices of F, reading only the windows' payload -> index tables:

- word or discrete metric below radius 1: x itself if x is in F, one lookup
  with no product, since both rules put every u != e at distance >= 1;
- word metric on a discrete model: the word ball of the radius is applied to
  x and each product looked up in F.  The ball is enumerated once per
  (model, radius, |F|) and kept in a small memo, so the g-loops of
  `topological_defect` and of a certificate's `verify` do not rebuild it per
  g.  Where the law keeps the payload order (lattice, Heisenberg) the row
  comes out sorted;
- arc metric on the circle: a closed interval [x - r, x + r] mod 1, cut out
  of F's sorted points by bisection over ints at one common denominator
  (all of F once r >= 1/2);
- discrete metric: all of F once r >= 1.

Every pair is tested only when the word ball is larger than F, and for the
arc metric on the torus, with distances from `groups.integer_metric` on
ints.  Rows are ascending in the index of F either way.  These rows are
also the package's ball queries: the relocation candidates and precompact
centers of `perturb` and the pieces of `weights.approx_by_uniform` read
them.

`near_pairs` lists the seminorm's graph the same way: the pairs of one
window closer than a width, each with its distance as an int over the
kernel's scale, from the same ball memo where the word ball applies.

The matching number is computed by Hopcroft-Karp with deterministic vertex
order, its first phase one greedy pass: each left vertex in order takes the
first free vertex of its row.  The deficiency witness is the set of left
vertices reachable by alternating paths from the unmatched ones, which
maximizes |S| - |N(S)|.
A stored result needs no re-solve: `check_valid` shows that its pairing is
a matching with mu = |E| - (|S| - |N(S)|), and every matching has at most
|E| - |S| + |N(S)| edges, so mu is the matching number.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .groups import (
    CircleModel,
    Entourage,
    FiniteWindow,
    GroupModel,
    InvariantPseudoMetric,
    ModelMismatchError,
    WindowSizeError,
    integer_metric,
    unscaled,
    word_ball,
)

@dataclass
class BipartiteInstance:
    left: FiniteWindow
    right: FiniteWindow
    adjacency: list[list[int]]

    def edge_count(self) -> int:
        return sum(len(a) for a in self.adjacency)

    def to_json(self) -> dict:
        return {
            "E": self.left.to_json(),
            "F": self.right.to_json(),
            "edges": [[i, j] for i, adj in enumerate(self.adjacency) for j in adj],
        }


@dataclass
class MatchingResult:
    instance: Optional[BipartiteInstance]  # None on a parsed certificate until verified
    pairing: dict[int, int]
    mu: int
    witness: tuple[int, ...]
    perfect: bool

    def witness_deficiency(self) -> int:
        neighbours: set[int] = set()
        for i in self.witness:
            neighbours.update(self.instance.adjacency[i])
        return len(self.witness) - len(neighbours)

    def check_valid(self) -> None:
        """Re-check pairing and the Hall identity from the raw instance."""
        n_left, n_right = len(self.instance.left), len(self.instance.right)
        seen_right = set()
        for i, j in self.pairing.items():
            if not (0 <= i < n_left and 0 <= j < n_right):
                raise ValueError(f"pairing index out of range: {[i, j]}")
            if j not in self.instance.adjacency[i]:
                raise ValueError("pairing uses a non-edge")
            if j in seen_right:
                raise ValueError("pairing is not injective")
            seen_right.add(j)
        if len(self.pairing) != self.mu:
            raise ValueError("mu does not match the pairing size")
        w = self.witness
        if any(not 0 <= i < n_left for i in w) or any(a >= b for a, b in zip(w, w[1:])):
            raise ValueError("witness is not an increasing list of left indices")
        if self.mu != n_left - self.witness_deficiency():
            raise ValueError("Hall identity violated by the stored witness")

    def to_json(self) -> dict:
        return {
            "mu": self.mu,
            "pairing": [[i, j] for i, j in sorted(self.pairing.items())],
            "witness": list(self.witness),
        }


def build_graph(E: FiniteWindow, F: FiniteWindow, U: Entourage) -> BipartiteInstance:
    """Adjacency (i, j) iff F[j] * E[i]^-1 lies in U, each row ascending in j."""
    if E.model is not F.model or U.model is not E.model:
        raise ModelMismatchError("windows and entourage over different models")
    metric, factor = unscaled(U.metric)
    adjacency = _listed_rows(E, F, metric, U.radius / factor)
    if adjacency is None:
        scale, (xs, ys), _, dist = integer_metric(U.metric, E.positions, F.positions)
        bound = math.floor(U.radius * scale)
        adjacency = [[j for j, y in enumerate(ys) if dist(y, x) <= bound] for x in xs]
    return BipartiteInstance(left=E, right=F, adjacency=adjacency)


def _listed_rows(
    E: FiniteWindow, F: FiniteWindow, metric: InvariantPseudoMetric, radius: Fraction
) -> Optional[list[list[int]]]:
    """The rows of `build_graph` for the ball d(u, e) <= radius of a base
    metric, listed without testing pairs; None where only the pair test applies."""
    model, n = E.model, len(F)
    index = F.positions
    if metric.rule in ("discrete", "word") and radius < 1:
        # both rules put every u != e at distance >= 1 from e
        return [[index[x]] if x in index else [] for x in E.positions]
    if metric.rule == "discrete":
        return [list(range(n)) for _ in range(len(E))]
    if metric.rule == "word":
        # Word lengths on the discrete models are BFS distances over the same
        # generators that `word_ball` walks.
        ball = _ball(model, math.floor(radius), n)
        if ball is None:
            return None
        mul = model._mul_data
        rows = [[j for u in ball if (j := index.get(mul(u, x))) is not None] for x in E.positions]
        return rows if model.ordered_law else [sorted(row) for row in rows]
    if metric.rule == "arc" and isinstance(model, CircleModel):
        if radius >= Fraction(1, 2):
            return [list(range(n)) for _ in range(len(E))]
        # On codes over the scale L, y is within r of x iff y lies in
        # [x-r, x+r], [x-r+L, L) or [0, x+r-L]; for r < L/2 these pieces are
        # disjoint and in order.
        scale, (points, centers), _, _ = integer_metric(metric, index, E.positions)
        r = math.floor(radius * scale)
        rows = []
        for c in centers:
            lo, hi = c - r, c + r
            rows.append(
                list(range(bisect_right(points, hi - scale)))
                + list(range(bisect_left(points, lo), bisect_right(points, hi)))
                + list(range(bisect_left(points, lo + scale), n))
            )
        return rows
    return None


def near_pairs(S: FiniteWindow, metric: InvariantPseudoMetric, width: Fraction) -> tuple[list[dict[int, int]], int]:
    """The pairs of S closer than `width`, as ints over the scale of
    `integer_metric`: `rows[i]` maps each j != i with d(S[i], S[j]) < width
    to that distance times `scale`, in ascending j.

    A word metric's values are below the width exactly when its base word
    lengths are at most ceil(width / c) - 1, c the product of its scale
    factors; so on the discrete models that word ball is applied to each
    point and looked up in S, with the distance of each ball element u to
    the identity, from the ball memo that `_listed_rows` reads.  Every pair
    is measured where the ball is larger than S or the rule is not a word
    metric.
    """
    if metric.model is not S.model:
        raise ModelMismatchError("window and metric over different models")
    model, index = S.model, S.positions
    base, factor = unscaled(metric)
    scale, (codes,), _, dist = integer_metric(metric, index)
    ball = _ball(model, math.ceil(width / factor) - 1, len(index)) if base.rule == "word" else None
    if ball is not None:
        mul, e = model._mul_data, model.identity_data
        sized = [(u, dist(u, e)) for u in ball]
        rows = []
        for i, x in enumerate(index):
            row = {j: d for u, d in sized if (j := index.get(mul(u, x))) is not None}
            del row[i]  # the identity's own entry, at distance 0
            rows.append(row if model.ordered_law else dict(sorted(row.items())))
        return rows, scale
    bound = math.ceil(width * scale)  # an int distance is below width * scale iff it is below this
    n = len(codes)
    rows = [{} for _ in range(n)]
    for i, x in enumerate(codes):
        row = rows[i]
        for j in range(i + 1, n):
            d = dist(x, codes[j])
            if d < bound:
                row[j] = rows[j][i] = d
    return rows, scale


@functools.lru_cache(maxsize=4)
def _ball(model: GroupModel, radius: int, cap: int) -> Optional[tuple]:
    """The payloads of `word_ball(model, radius, cap)` in its order, or None
    past the cap.  The g-loops of `topological_defect` and of a certificate's
    `verify` ask for the same ball once per g, so the last few are kept."""
    try:
        return tuple(word_ball(model, radius, cap=cap).positions)
    except WindowSizeError:
        return None


def _hopcroft_karp(adjacency: list[list[int]], n_right: int) -> tuple[list[int], list[int]]:
    """Return (match_left, match_right) with -1 for unmatched."""
    n_left = len(adjacency)
    match_left = [-1] * n_left
    match_right = [-1] * n_right
    # BFS level of each left vertex, -1 where unreached or a dead end: a
    # live level is >= 0, so no dist[u] + 1 of a live u equals the sentinel.
    dist = [0] * n_left

    def bfs() -> bool:
        queue = deque()
        for u in range(n_left):
            if match_left[u] < 0:
                dist[u] = 0
                queue.append(u)
            else:
                dist[u] = -1
        found = False
        while queue:
            u = queue.popleft()
            for v in adjacency[u]:
                w = match_right[v]
                if w < 0:
                    found = True
                elif dist[w] < 0:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return found

    def dfs(root: int) -> bool:
        # Iterative alternating-path search; `pending` holds the left->right
        # edge chosen at each level, reassigned on success.
        stack = [(root, iter(adjacency[root]))]
        pending: list[tuple[int, int]] = []
        while stack:
            u, it = stack[-1]
            advanced = False
            for v in it:
                w = match_right[v]
                if w < 0:
                    match_left[u] = v
                    match_right[v] = u
                    for pu, pv in reversed(pending):
                        match_left[pu] = pv
                        match_right[pv] = pu
                    return True
                if dist[w] == dist[u] + 1:
                    pending.append((u, v))
                    stack.append((w, iter(adjacency[w])))
                    advanced = True
                    break
            if not advanced:
                dist[u] = -1
                stack.pop()
                if pending:
                    pending.pop()
        return False

    # The first phase, as one greedy pass: every left vertex is free at
    # level 0, so no alternating path can pass a matched vertex (its level
    # is 0, not 1) and each search takes the first free v of its row or fails.
    for u, row in enumerate(adjacency):
        for v in row:
            if match_right[v] < 0:
                match_left[u] = v
                match_right[v] = u
                break
    while bfs():
        for u in range(n_left):
            if match_left[u] < 0:
                dfs(u)
    return match_left, match_right


def max_matching(instance: BipartiteInstance) -> MatchingResult:
    """Maximum matching plus the reachability witness of maximal deficiency."""
    adjacency = instance.adjacency
    n_left = len(instance.left)
    n_right = len(instance.right)
    match_left, match_right = _hopcroft_karp(adjacency, n_right)
    mu = sum(1 for v in match_left if v >= 0)

    # Alternating reachability from unmatched left vertices.
    reached_left = [False] * n_left
    reached_right = [False] * n_right
    queue = deque()
    for u in range(n_left):
        if match_left[u] < 0:
            reached_left[u] = True
            queue.append(u)
    while queue:
        u = queue.popleft()
        for v in adjacency[u]:
            if not reached_right[v]:
                reached_right[v] = True
                w = match_right[v]
                if w >= 0 and not reached_left[w]:
                    reached_left[w] = True
                    queue.append(w)

    witness = tuple(u for u in range(n_left) if reached_left[u])
    pairing = {u: v for u, v in enumerate(match_left) if v >= 0}
    result = MatchingResult(
        instance=instance,
        pairing=pairing,
        mu=mu,
        witness=witness,
        perfect=(mu == n_left),
    )
    result.check_valid()
    return result


def brute_force_matching_number(instance: BipartiteInstance) -> int:
    """Exhaustive maximum-injection size; oracle for small instances."""
    adjacency = instance.adjacency

    def best(i: int, used: frozenset[int]) -> int:
        if i == len(adjacency):
            return 0
        score = best(i + 1, used)
        for j in adjacency[i]:
            if j not in used:
                score = max(score, 1 + best(i + 1, used | {j}))
        return score

    return best(0, frozenset())
