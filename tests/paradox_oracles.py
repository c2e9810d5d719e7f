"""Slow forms of the paradox layer, kept as differential oracles.

`evaluate` is the recursive tree walk that evaluated a classifier at one
element before `verify_on_window` evaluated whole windows at once.  It
reads a tree the certificate check has accepted, so it checks nothing.

`preimages` is the preimage column of a translator word (a tuple of
payloads) computed on `GroupElement`s, one inverse and one product per
entry of the word at every point, as `_preimages` ran before it folded the
word into one payload.

`topdown_exact` is the memoized recursion that `_AssignmentProblem.exact`
ran before it became a bottom-up program over dense per-layer arrays.  It
charges one budget node the first time it meets each (layer, state) pair and
rebuilds the labels forward by taking, at each element, the first label in
`choices` order that keeps to the optimum.  It is kept unchanged as an
oracle: the bottom-up form must return the same minimum, leave the same
labels and charge the same budget, or raise `_BudgetExhausted` with the
same `used`.
"""

import sys

from folnerlab.groups import FiniteWindow, GroupElement
from folnerlab.paradox import _AssignmentProblem, _BudgetExhausted


def evaluate(clf: dict, g: GroupElement) -> bool:
    op = clf["op"]
    model = g.model
    if op == "true":
        return True
    if op == "identity":
        return g == model.identity()
    if op == "and":
        return all(evaluate(c, g) for c in clf["args"])
    if op == "or":
        return any(evaluate(c, g) for c in clf["args"])
    if op == "not":
        return not evaluate(clf["arg"], g)
    if op == "in":
        return model.format(g) in clf["elements"]
    if op == "first_letter":
        return bool(g.data) and g.data[0] == model.letters[clf["letter"]]
    if op == "power":
        # non-negative powers of the signed letter, identity included
        return all(letter == model.letters[clf["letter"]] for letter in g.data)
    data = g.data if isinstance(g.data, tuple) else (g.data,)
    value = data[clf["index"]]
    if op == "coord_sign":
        return {"+": value > 0, "-": value < 0, "0": value == 0}[clf["sign"]]
    assert op == "residue", op
    return value % clf["mod"] == clf["value"]


def preimages(window: FiniteWindow, word) -> list[int]:
    model = window.model
    column = []
    for x in window:
        y = x
        for data in reversed(word):
            y = model.mul(model.inv(model.element(data)), y)
        column.append(window.index(y) if y in window else -1)
    return column


def topdown_exact(problem: _AssignmentProblem) -> int:
    memo: dict = {}
    labels = problem.labels

    def state(k: int) -> tuple[int, ...]:
        return tuple([labels[src] for src in problem.live_at[k]])

    def solve(k: int) -> int:
        if k == problem.n:
            return 0
        key = (k, state(k))
        cached = memo.get(key)
        if cached is not None:
            return cached
        if not problem.budget.spend():
            raise _BudgetExhausted
        value = None
        for label in problem.choices:
            labels[k] = label
            total = problem._step_cost(k) + solve(k + 1)
            if value is None or total < value:
                value = total
        memo[key] = value
        return value

    old = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old, 4 * problem.n + 100))
    try:
        minimum = solve(0)
        target = minimum
        for k in range(problem.n):
            for label in problem.choices:
                labels[k] = label
                rest = solve(k + 1)
                if problem._step_cost(k) + rest == target:
                    target = rest
                    break
            else:
                raise AssertionError("reconstruction failed")
        return minimum
    finally:
        sys.setrecursionlimit(old)
