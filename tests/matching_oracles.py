"""Hopcroft-Karp as `matching._hopcroft_karp` ran it before its first phase
became one greedy pass: every phase, the first included, is a BFS that
levels the left vertices from the free ones and a DFS from each free left
vertex in order.

It is kept as an oracle: the greedy first phase must give the identical
(match_left, match_right), and so the identical pairing and witness.
"""

from collections import deque


def phased_hopcroft_karp(adjacency: list[list[int]], n_right: int) -> tuple[list[int], list[int]]:
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

    while bfs():
        for u in range(n_left):
            if match_left[u] < 0:
                dfs(u)
    return match_left, match_right
