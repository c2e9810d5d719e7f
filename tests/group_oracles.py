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
"""

from collections import deque

from folnerlab.groups import FiniteWindow, FreeGroupModel, WindowSizeError


def letterwise_free_mul(a: tuple, b: tuple) -> tuple:
    out = list(a)
    for letter in b:
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def bfs_word_ball(model, radius: int, cap: int) -> FiniteWindow:
    gens = [s.data for s in model.generators()]
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
