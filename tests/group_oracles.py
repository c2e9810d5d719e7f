"""Slow forms of the free-group kernel, kept as differential oracles.

`letterwise_free_mul` is the product `FreeGroupModel._mul_data` computed
before it cancelled only at the junction of two reduced words: it pushes
the right word's letters one at a time onto a stack, popping on
cancellation, so it also reduces words that are not reduced.

`bfs_word_ball` is the breadth-first search that `word_ball` ran on every
model before free balls were generated sphere by sphere in shortlex order.
It works on payloads, multiplies by the model generators (free words
through `letterwise_free_mul`), refuses a new point once the ball holds
`cap` points, and sorts the ball by the model's `payload_key`.

`dense_distance_matrix` is the all-pairs integer distance matrix that each
metric built for the seminorm (`distance_matrix`) before the seminorm read
only the near pairs (`matching.near_pairs`): word lengths on payloads at
scale 1, arcs on ints over the common denominator of all coordinates, a
scaled metric's base matrix and scale times the two halves of its factor,
and any other rule through `fraction_eval` with the LCM of the denominators.

`union_find_orbits` is the union-find that `perturb._lift_rows` ran to split
the centers into the orbits of the permutation group the generators span,
before it asked only whether each generator keeps the fiber sizes.

`element_parse`, `element_format` and `element_window` are the element path
that windows were loaded and written through before they ran on payloads
(`parse_data`, `format_data`): each string parsed to a `GroupElement`, free
words reduced by folding `_mul_data` over their letters, the elements
gathered by `FiniteWindow(model, elements)`, and each element formatted back.
"""

import math
import operator
from collections import deque

from folnerlab.groups import (
    _LETTERS,
    CircleModel,
    CyclicModel,
    FiniteWindow,
    FreeGroupModel,
    GroupElement,
    WindowSizeError,
    parse_fraction,
)
from fraction_oracles import fraction_eval


def letterwise_free_mul(a: tuple, b: tuple) -> tuple:
    out = list(a)
    for letter in b:
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def bfs_word_ball(model, radius: int, cap: int) -> FiniteWindow:
    gens = model.generators()
    mul = letterwise_free_mul if isinstance(model, FreeGroupModel) else model._mul_data
    start = model.identity().data
    seen = {start: 0}
    frontier = deque([start])
    while frontier:
        x = frontier.popleft()
        if seen[x] >= radius:
            continue
        for s in gens:
            y = mul(x, s)
            if y not in seen:
                if len(seen) >= cap:
                    raise WindowSizeError(f"word ball exceeds cap {cap}")
                seen[y] = seen[x] + 1
                frontier.append(y)
    return FiniteWindow(model, [model.element(x) for x in sorted(seen, key=model.payload_key)])


def dense_distance_matrix(metric, points: list) -> tuple[list[list[int]], int]:
    """All pairwise distances as ints over one common scale:
    `rows[i][j] / scale == fraction_eval(metric, points[i], points[j])`."""
    model, n = metric.model, len(points)
    rows = [[0] * n for _ in range(n)]
    if metric.rule == "scaled":
        base, scale = dense_distance_matrix(metric.base, points)
        p = metric.factor.numerator
        return [[p * d for d in row] for row in base], scale * metric.factor.denominator
    if metric.rule == "word":
        for p in points:
            model._check(p)
        data = [p.data for p in points]
        inverses = [model._inv_data(y) for y in data]
        for i, x in enumerate(data):
            for j in range(i + 1, n):
                rows[i][j] = rows[j][i] = model._length_data(model._mul_data(x, inverses[j]))
        return rows, 1
    if metric.rule == "arc":
        for p in points:
            model._check(p)
        coords = [(p.data,) if isinstance(model, CircleModel) else p.data for p in points]
        scale = math.lcm(*(c.denominator for xs in coords for c in xs))
        ints = [[c.numerator * (scale // c.denominator) for c in xs] for xs in coords]
        for i, x in enumerate(ints):
            for j in range(i + 1, n):
                rows[i][j] = rows[j][i] = max(min(d, scale - d) for d in map(abs, map(operator.sub, x, ints[j])))
        return rows, scale
    upper = [[fraction_eval(metric, points[i], points[j]) for j in range(i + 1, n)] for i in range(n)]
    scale = math.lcm(*(d.denominator for row in upper for d in row))
    for i, row in enumerate(upper):
        for j, d in enumerate(row, start=i + 1):
            rows[i][j] = rows[j][i] = d.numerator * (scale // d.denominator)
    return rows, scale


def union_find_orbits(perms: list[tuple[int, ...]], n: int) -> list[list[int]]:
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for p in perms:
        for i, j in enumerate(p):
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[ri] = rj
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def element_parse(model, text: str) -> GroupElement:
    if isinstance(model, FreeGroupModel):
        text = text.strip()
        if text in ("", "e"):
            return model.identity()
        word = ()
        for part in text.split(","):
            part = part.strip()
            if part not in model.letters:
                raise ValueError(f"bad free-group letter {part!r}")
            word = model._mul_data(word, (model.letters[part],))
        return GroupElement(model, word)
    if isinstance(model, CircleModel):
        return GroupElement(model, parse_fraction(text) % 1)
    if isinstance(model, CyclicModel):
        return GroupElement(model, int(text) % model.modulus)
    if model.discrete:  # lattice and Heisenberg vectors of ints
        vec, dim = tuple(int(x) for x in text.split(",")), getattr(model, "dim", 3)
    else:  # torus vectors of rationals mod 1
        vec, dim = tuple(parse_fraction(x) % 1 for x in text.split(",")), model.dim
    if len(vec) != dim:
        raise ValueError(f"vector of length {len(vec)}, expected {dim}")
    return GroupElement(model, vec)


def element_format(g: GroupElement) -> str:
    if isinstance(g.model, FreeGroupModel):
        if not g.data:
            return "e"
        return ",".join(_LETTERS[abs(x) - 1].upper() if x < 0 else _LETTERS[abs(x) - 1] for x in g.data)
    return ",".join(map(str, g.data)) if isinstance(g.data, tuple) else str(g.data)


def element_window(model, items: list[str]) -> FiniteWindow:
    return FiniteWindow(model, [element_parse(model, text) for text in items])
