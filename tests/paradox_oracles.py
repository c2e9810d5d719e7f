"""The top-down form of the paradox assignment DP.

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

from folnerlab.paradox import _AssignmentProblem, _BudgetExhausted


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
