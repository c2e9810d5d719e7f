"""Bipartite graphs between finite windows, maximum matchings, and Hall
deficiency witnesses.

An instance pairs x in E with y in F whenever y x^-1 lies in the entourage.
The matching number is computed by Hopcroft-Karp with deterministic vertex
order; the deficiency witness is the set of left vertices reachable by
alternating paths from the unmatched ones, which maximizes |S| - |N(S)|.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from .groups import Entourage, FiniteWindow, GroupElement, ModelMismatchError

INF = float("inf")


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

    def pairing_elements(self) -> list[tuple[GroupElement, GroupElement]]:
        return [
            (self.instance.left[i], self.instance.right[j])
            for i, j in sorted(self.pairing.items())
        ]

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
    """Adjacency (i, j) iff F[j] * E[i]^-1 lies in U."""
    if E.model != F.model or U.model != E.model:
        raise ModelMismatchError("windows and entourage over different models")
    model = E.model
    adjacency: list[list[int]] = []
    if U.radius == 0 and U.metric.rule in ("word", "arc", "discrete"):
        # All built-in base metrics separate points, so radius 0 means equality.
        for x in E:
            adjacency.append([F.index(x)] if x in F else [])
        return BipartiteInstance(left=E, right=F, adjacency=adjacency)
    for x in E:
        x_inv = model.inv(x)
        row = [j for j, y in enumerate(F) if U.contains(model.mul(y, x_inv))]
        adjacency.append(row)
    return BipartiteInstance(left=E, right=F, adjacency=adjacency)


def _hopcroft_karp(adjacency: list[list[int]], n_right: int) -> tuple[list[int], list[int]]:
    """Return (match_left, match_right) with -1 for unmatched."""
    n_left = len(adjacency)
    match_left = [-1] * n_left
    match_right = [-1] * n_right
    dist = [0] * n_left

    def bfs() -> bool:
        queue = deque()
        for u in range(n_left):
            if match_left[u] < 0:
                dist[u] = 0
                queue.append(u)
            else:
                dist[u] = INF
        found = False
        while queue:
            u = queue.popleft()
            for v in adjacency[u]:
                w = match_right[v]
                if w < 0:
                    found = True
                elif dist[w] == INF:
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
                dist[u] = INF
                stack.pop()
                if pending:
                    pending.pop()
        return False

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


def matching_number(E: FiniteWindow, F: FiniteWindow, U: Entourage) -> int:
    return max_matching(build_graph(E, F, U)).mu


def perfect_matching(instance: BipartiteInstance) -> tuple[Optional[dict[int, int]], Optional[tuple[int, ...]]]:
    """Full-domain pairing if Hall's condition holds, else a violating set."""
    result = max_matching(instance)
    if result.perfect:
        return result.pairing, None
    return None, result.witness


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
