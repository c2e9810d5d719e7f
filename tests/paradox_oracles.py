"""Slow forms of the paradox layer, kept as differential oracles.

`evaluate` is the recursive tree walk that evaluated a classifier at one
element before `verify_on_window` evaluated whole windows at once.  It
reads a tree the certificate check has accepted, so it checks nothing.

`preimages` is the preimage column of a translator word (a tuple of
payloads) computed on `GroupElement`s, one inverse and one product per
entry of the word at every point, as `_preimages` ran before it folded the
word into one payload.

`topdown_exact` is the memoized recursion that the assignment program ran
before it became a bottom-up program over dense per-layer arrays.  It
charges one budget node the first time it meets each (layer, state) pair and
rebuilds the labels forward by taking, at each element, the first label in
`choices` order that keeps to the optimum.  It is kept unchanged as an
oracle: the bottom-up form, `charge_then_solve`, must return the same
minimum, leave the same labels and charge the same budget, or raise
`_BudgetExhausted` with the same `used`.

`combo_by_combo_search` is `search_small_paradox` as it ran before it read
each translator combination's counting floor first: every combination is
built and runs the zero-cost descent, whatever its floor and the incumbent,
and a search past its budget still charges one refused node per later
combination and piece count.  Its reports must match the floor-first
search's in everything but `nodes_used` wherever it ends within its budget.

`floor_first_search` is `search_small_paradox` as it ran before it settled
combos at their floor without the program: every combo whose floor is below
the incumbent and whose greedy labeling does not decide it runs
`charge_then_solve`, and every improvement builds its table certificate.
Its floor is the counting floor, `counting_floor`, summed from per-source
covers counted over every (source, label) pair, as `_Family` counted them
before it read 0/1 covers off source masks.  Its `to_json()`, `nodes_used`
included, must match the search's on every input.

`charge_then_solve` is the program's one entry with its charge, as the
search makes it: `charge_states` and, when the charge is granted, `solve`.
"""

import sys
from collections import Counter
from itertools import combinations_with_replacement
from typing import Optional

from folnerlab.groups import FiniteWindow, GroupElement
from folnerlab.paradox import (
    MIN_PIECES,
    ParadoxSearchReport,
    PieceCountReport,
    _AssignmentProblem,
    _Budget,
    _BudgetExhausted,
    _Family,
    _floor,
    _preimages,
    _table_certificate,
)


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


def charge_then_solve(problem: _AssignmentProblem, bound: Optional[int] = None) -> int:
    """The program with its charge: one node per state, all layers first,
    and `_BudgetExhausted` before any array is built when it is refused."""
    if not problem.charge_states():
        raise _BudgetExhausted
    return problem.solve(bound)


def _solve_every_combo(problem: _AssignmentProblem, floor: int, zero_cap: int, bound: Optional[int]):
    zero = problem.zero_search(zero_cap)
    if zero:
        return 0, problem.labels.copy(), True
    floor = max(floor, 1 if zero is False else 0)
    if bound is not None and floor >= max(bound, 2):
        incumbent, labels = floor, []
    else:
        incumbent, labels = problem.greedy()
        if incumbent == 0:
            return 0, labels, True
        if zero is False and incumbent == 1:
            return 1, labels, True
    if problem.dp_tractable():
        try:
            minimum = charge_then_solve(problem, bound)
            return minimum, problem.labels.copy(), True
        except _BudgetExhausted:
            pass
    return incumbent, labels, False


def combo_by_combo_search(window: FiniteWindow, pool: FiniteWindow, max_pieces: int, budget: int) -> ParadoxSearchReport:
    n = len(window)
    identity = window.model.identity_data
    rows = {g: _preimages(window, (g,)) for g in pool.positions}
    families: dict = {}

    def family(words: tuple, offset: int) -> _Family:
        if (words, offset) not in families:
            families[words, offset] = _Family(n, [rows[g] for g in words], offset)
        return families[words, offset]

    tracker = _Budget(budget)
    zero_cap = max(500, 25 * n)
    reports = []
    for pieces in range(MIN_PIECES, max_pieces + 1):
        combos = []
        for m in range(1, pieces // 2 + 1):
            a_options = [(w, 0) for w in combinations_with_replacement(pool.positions, m)]
            b_options = [(w, m) for w in combinations_with_replacement(pool.positions, pieces - m)]
            for ai, a in enumerate(a_options):
                for bi, b in enumerate(b_options):
                    if m == pieces - m and bi < ai:
                        continue
                    combos.append((a, b))
        combos.sort(key=lambda ab: (identity not in ab[0][0]) + (identity not in ab[1][0]))

        best_defect, best_cert, best_checkable, exhausted = None, None, 0, True
        try:
            for a, b in combos:
                fa, fb = family(*a), family(*b)
                problem = _AssignmentProblem(n, fa, fb, tracker)
                defect, labels, exact = _solve_every_combo(problem, _floor(fa, fb), zero_cap, best_defect)
                if not exact:
                    exhausted = False
                if best_defect is None or defect < best_defect:
                    best_defect, best_checkable = defect, problem.checkable
                    best_cert = _table_certificate(window, a[0], b[0], labels)
                if best_defect == 0:
                    break
        except _BudgetExhausted:
            exhausted = False
        if best_defect == 0:
            exhausted = True
        reports.append(PieceCountReport(pieces, best_defect, best_checkable, best_cert, exhausted))
    return ParadoxSearchReport(reports=reports, nodes_used=tracker.used, budget=budget)


def counting_floor(n: int, a: _Family, b: _Family) -> int:
    """The counting floor of a combo, each source's cover counted as the
    most checkable targets it matches under one label."""
    covers = []
    for family in (a, b):
        hits: Counter = Counter()
        for sources in zip(*family.rows):
            if min(sources) >= 0:
                hits.update(zip(sources, range(family.offset, family.offset + family.size)))
        cover = [0] * n
        for (src, _), count in hits.items():
            cover[src] = max(cover[src], count)
        covers.append(cover)
    return max(0, a.checkable + b.checkable - sum(map(max, *covers)))


def _solve_floor_first(problem: _AssignmentProblem, floor: int, zero_cap: int, bound: Optional[int]):
    if floor == 0:
        zero = problem.zero_search(zero_cap)
        if zero:
            return 0, problem.labels.copy(), True
        if zero is False:
            floor = 1
    incumbent, labels = problem.greedy()
    if incumbent == 0:
        return 0, labels, True
    if floor == incumbent == 1:
        return 1, labels, True
    if problem.dp_tractable():
        try:
            minimum = charge_then_solve(problem, bound)
            return minimum, problem.labels.copy(), True
        except _BudgetExhausted:
            pass
    return incumbent, labels, False


def floor_first_search(window: FiniteWindow, pool: FiniteWindow, max_pieces: int, budget: int) -> ParadoxSearchReport:
    n = len(window)
    identity = window.model.identity_data
    rows = {g: _preimages(window, (g,)) for g in pool.positions}
    families: dict = {}

    def family(words: tuple, offset: int) -> _Family:
        if (words, offset) not in families:
            families[words, offset] = _Family(n, [rows[g] for g in words], offset)
        return families[words, offset]

    tracker = _Budget(budget)
    zero_cap = max(500, 25 * n)
    reports = [PieceCountReport(pieces, None, 0, None, False) for pieces in range(MIN_PIECES, max_pieces + 1)]
    try:
        for report in reports:
            combos = []
            for m in range(1, report.pieces // 2 + 1):
                a_options = [(w, 0) for w in combinations_with_replacement(pool.positions, m)]
                b_options = [(w, m) for w in combinations_with_replacement(pool.positions, report.pieces - m)]
                for ai, a in enumerate(a_options):
                    for bi, b in enumerate(b_options):
                        if m == report.pieces - m and bi < ai:
                            continue
                        combos.append((a, b))
            combos.sort(key=lambda ab: (identity not in ab[0][0]) + (identity not in ab[1][0]))
            exhausted = True
            for a, b in combos:
                if not tracker.spend():
                    raise _BudgetExhausted
                fa, fb = family(*a), family(*b)
                floor = counting_floor(n, fa, fb)
                if report.best_defect is not None and floor >= report.best_defect:
                    continue
                problem = _AssignmentProblem(n, fa, fb, tracker)
                defect, labels, exact = _solve_floor_first(problem, floor, zero_cap, report.best_defect)
                if report.best_defect is None or defect < report.best_defect:
                    report.best_defect, report.checkable = defect, problem.checkable
                    report.certificate = _table_certificate(window, a[0], b[0], labels)
                if defect == 0:
                    break
                if not exact:
                    if tracker.used > tracker.limit:
                        raise _BudgetExhausted
                    exhausted = False
            report.exhausted = exhausted or report.best_defect == 0
    except _BudgetExhausted:
        pass
    return ParadoxSearchReport(reports=reports, nodes_used=tracker.used, budget=budget)
