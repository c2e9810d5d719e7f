"""Slow forms of the paradox layer, kept as differential oracles.

`evaluate` is the recursive tree walk that evaluated a classifier at one
element before `verify_on_window` evaluated whole windows at once.  It
reads a tree the certificate check has accepted, so it checks nothing.

`preimages` is the preimage column of a translator word (a tuple of
payloads) computed on `GroupElement`s, one inverse and one product per
entry of the word at every point, as `_preimages` ran before it folded the
word into one payload.

`AssignmentProblem` is the assignment DP that solved each translator combo
before one matching did (`paradox._Matching`): a zero-cost descent, a greedy
incumbent and a bottom-up program over dense per-layer arrays whose state
at element k is the labels of the sources still able to influence an
unscored target.  `topdown_exact` is the memoized recursion that the
program ran before it went bottom-up.  It charges one budget node the first
time it meets each (layer, state) pair and rebuilds the labels forward by
taking, at each element, the first label that keeps to the optimum, so its
labels are the lexicographically least optimal labeling; a `fixed` prefix
of labels restricts the first elements to those labels.  The matching's
minimum and `paradox._least_labels` must agree with it.

`charge_then_solve` is the program's one entry with its charge, as the
search made it: `charge_states` and, when the charge is granted, `solve`.
`spend_many` is the program's bulk charge: `count` calls of `_Budget.spend`
at once, stopping at the first refusal.

`combo_list` is the list of a piece count's translator combos that the
search built, and sorted, before it generated them lazily
(`paradox._combos`); the lazy order must equal it.

`combo_by_combo_search` is `search_small_paradox` as it ran before it read
each translator combination's counting floor first: every combination is
built and runs the zero-cost descent, whatever its floor and the incumbent,
and a search past its budget still charges one refused node per later
combination and piece count.

`floor_first_search` is `search_small_paradox` as it ran before it settled
combos at their floor without the program: every combo whose floor is below
the incumbent and whose greedy labeling does not decide it runs
`charge_then_solve`, and every improvement builds its table certificate.
Its floor is the counting floor, `counting_floor`, summed from per-source
covers counted over every (source, label) pair, as `_Family` counted them
before it read 0/1 covers off source masks.

Both searches charge the program's states, so they reach fewer combos on a
budget than the matching search; wherever one ends within its budget, its
reports must match the matching search's in everything but `nodes_used`.
"""

import sys
from collections import Counter
from itertools import combinations_with_replacement, repeat
from operator import add
from typing import Optional

from folnerlab.groups import FiniteWindow, GroupElement
from folnerlab.paradox import (
    MIN_PIECES,
    ParadoxSearchReport,
    PieceCountReport,
    _Budget,
    _BudgetExhausted,
    _Family,
    _floor,
    _preimages,
    _table_certificate,
)

DP_STATE_CAP = 300_000


def spend_many(budget: _Budget, count: int) -> bool:
    if count == 0 or budget.used + count <= budget.limit:
        budget.used += count
        return True
    budget.used = budget.limit + 1
    return False


def schedule(family: _Family) -> tuple[list[list[list[tuple[int, int]]]], list[int]]:
    """The pair (finalize_at, live_until) of a family: a target is scored
    once its last influencer is labeled, so `finalize_at[k]` lists the
    influencer lists of the targets whose last source is k, in target
    order, and `live_until[src]` is the last such k over the targets that
    `src` influences (-1 for none)."""
    finalize_at: list[list[list[tuple[int, int]]]] = [[] for _ in range(family.n)]
    live_until = [-1] * family.n
    labels = range(family.offset, family.offset + family.size)
    for t in family.targets:
        sources = [row[t] for row in family.rows]
        last = max(sources)
        finalize_at[last].append(list(zip(sources, labels)))
        for src in sources:
            if live_until[src] < last:
                live_until[src] = last
    return finalize_at, live_until


class AssignmentProblem:
    """Best piece labeling of a window for fixed translator families.

    Every element takes one label: the first m labels are pieces translated
    by the A-words, the rest pieces translated by the B-words.  Each cover
    equation scores its checkable targets once their last influencing
    preimage is labeled; the two families' `schedule` lists are merged
    here.  Up to three passes, chosen by the oracle searches from the
    combo's counting floor (see `_floor`): an exact-cover style descent
    that only accepts zero-cost steps (settling the zero-defect case, and
    run only at floor 0, since a positive floor already refutes a tiling),
    a greedy incumbent, and a bottom-up dynamic program whose state at
    element k is the labels of `live_at[k]`, the sources still able to
    influence unscored targets.  No labeling is forbidden, so every label
    tuple of `live_at[k]` is a state; `charge_states` charges the budget
    one node per state, all at once, and the program, `solve`, is exact
    when the budget covers them.  `solve` itself charges nothing; the
    oracle searches charge first, through `charge_then_solve`.
    """

    def __init__(self, n: int, a: _Family, b: _Family, budget: _Budget):
        """`a`/`b`: the set-ups of the A-family (labels from 0) and the
        B-family (labels from a.size) over a window of n points."""
        self.n = n
        self.m = a.size
        self.p = a.size + b.size
        self.budget = budget
        self.choices = list(range(self.p))
        self.checkable = a.checkable + b.checkable
        (a_final, a_live), (b_final, b_live) = schedule(a), schedule(b)
        self.finalize_at = list(map(add, a_final, b_final))
        live_until = list(map(max, a_live, b_live))

        # live_at[k]: the labeled sources (src < k) that still influence a
        # target finalized at k or later; their labels are the DP state at k
        self.live_at: list[list[int]] = [[] for _ in range(n + 1)]
        for src in range(n):
            for k in range(src + 1, live_until[src] + 1):
                self.live_at[k].append(src)
        self.live_peak = max(len(live) for live in self.live_at)
        self.labels = [0] * n

    def dp_tractable(self) -> bool:
        """Whether the dynamic program's widest layer fits DP_STATE_CAP."""
        states = 1
        for _ in range(self.live_peak):
            states *= self.p
            if states > DP_STATE_CAP:
                return False
        return True

    def _step_cost(self, k: int) -> int:
        cost = 0
        labels = self.labels
        for infl in self.finalize_at[k]:
            count = 0
            for src, piece in infl:
                count += labels[src] == piece
            cost += count - 1 if count >= 1 else 1
        return cost

    def zero_search(self, cap: int) -> Optional[bool]:
        """Backtracking that accepts only zero-cost steps.

        True when a tiling (zero-defect labeling) is found; False when the
        full exploration proves none exists; None when the step cap ends
        the attempt first.  Each step is one budget node, the step past the
        cap included; the steps are charged together at the end, and a
        step past the budget ends the descent with `_BudgetExhausted`.
        """
        n, p, labels, finalize_at = self.n, self.p, self.labels, self.finalize_at
        stop = min(cap, self.budget.limit - self.budget.used)
        steps = 0
        k = 0
        iters: list[int] = [0]
        while 0 <= k < n:
            steps += 1
            if steps > stop:
                break
            label = iters[k]
            if label >= p:
                iters.pop()
                k -= 1
                if k >= 0:
                    iters[k] += 1
                continue
            labels[k] = label
            # zero cost: every target scored here is matched exactly once
            for infl in finalize_at[k]:
                count = 0
                for src, piece in infl:
                    count += labels[src] == piece
                if count != 1:
                    iters[k] += 1
                    break
            else:
                k += 1
                if k < n:
                    iters.append(0)
        if not spend_many(self.budget, steps):
            raise _BudgetExhausted
        return None if steps > cap else k == n

    def greedy(self) -> tuple[int, list[int]]:
        total = 0
        for k in range(self.n):
            best_cost, best_label = None, 0
            for label in self.choices:
                self.labels[k] = label
                cost = self._step_cost(k)
                if best_cost is None or cost < best_cost:
                    best_cost, best_label = cost, label
                if cost == 0:
                    break
            self.labels[k] = best_label
            total += best_cost
        return total, self.labels.copy()

    def charge_states(self) -> bool:
        """Charge the budget one node per state of the program, all layers
        at once; False when the charge is refused."""
        p = self.p
        return spend_many(self.budget, sum(p ** len(live) for live in self.live_at[:self.n]))

    def solve(self, bound: Optional[int] = None) -> int:
        """Minimum total step cost; leaves the minimizing labels in `labels`.

        Every labeling is allowed, so the states at layer k are all
        p^|live_at[k]| label tuples of `live_at[k]`.  The program charges
        no budget: its caller charges one node per state first, all layers
        at once (`charge_states`), and runs it only when the charge is
        granted.  A state's index is its labels read as base-p digits over
        `live_at[k]`, first source most significant.  Layers are solved
        from the last one back: per label at k, a column over the layer's
        states of step cost plus the next layer's value, and the layer's
        values are the columns' pointwise min.  Only the value arrays are
        kept; the labels are then rebuilt forward, taking at each k the
        first label that keeps to the optimum.

        With a `bound`, the program stops once the minimum cannot fall below
        it: at the first layer whose least value reaches it (step costs are
        non-negative, so that value bounds the minimum).  It then returns
        that lower bound, which is at least `bound`, and leaves `labels`
        unspecified.
        """
        n, p, live_at = self.n, self.p, self.live_at
        zeros = [0] * p
        values: list[list[int]] = [[] for _ in range(n)] + [[0]]
        for k in range(n - 1, -1, -1):
            # per source, per label: its share of the next state's index,
            # and its matches of the targets finalized here, packed as
            # mixed-radix digits (one digit per target, base len(infl) + 1)
            following = live_at[k + 1]
            top = len(following) - 1
            shift = {src: [d * p ** (top - j) for d in range(p)] for j, src in enumerate(following)}
            matches: dict[int, list[int]] = {}
            bases = []
            scale = 1
            for infl in self.finalize_at[k]:
                for src, piece in infl:
                    matches.setdefault(src, [0] * p)[piece] += scale
                bases.append(len(infl) + 1)
                scale *= len(infl) + 1
            # per state of layer k, in index order: both, summed over live_at[k]
            nxt = packed = [0]
            for src in live_at[k]:
                step, match = shift.get(src, zeros), matches.get(src, zeros)
                nxt = [i + d for i in nxt for d in step]
                packed = [c + d for c in packed for d in match]
            # one lazy column of step cost plus next value per label at k
            step, match = shift.get(k, zeros), matches.get(k, zeros)
            cost = {c: _packed_cost(c, bases) for c in {c + d for c in set(packed) for d in match}}
            after = values[k + 1]
            columns = [
                map(
                    add,
                    map(cost.__getitem__, map(add, packed, repeat(m))),
                    map(after.__getitem__, map(add, nxt, repeat(d))),
                )
                for d, m in zip(step, match)
            ]
            values[k] = list(map(min, zip(*columns)))
            if bound is not None and min(values[k]) >= bound:
                return min(values[k])

        labels = self.labels
        target = values[0][0]
        for k in range(n):
            after = values[k + 1]
            for label in self.choices:
                labels[k] = label
                state = 0
                for src in live_at[k + 1]:
                    state = state * p + labels[src]
                rest = after[state]
                if self._step_cost(k) + rest == target:
                    target = rest
                    break
            else:
                raise AssertionError("reconstruction failed")
        return values[0][0]


def _packed_cost(packed: int, bases: list[int]) -> int:
    """Step cost of match counts packed as mixed-radix digits over `bases`:
    a target matched `count` times costs |count - 1|."""
    cost = 0
    for base in bases:
        packed, count = divmod(packed, base)
        cost += abs(count - 1)
    return cost



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


def topdown_exact(problem: AssignmentProblem, fixed=()) -> int:
    memo: dict = {}
    labels = problem.labels

    def choices(k: int):
        return [fixed[k]] if k < len(fixed) else problem.choices

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
        for label in choices(k):
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
            for label in choices(k):
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


def charge_then_solve(problem: AssignmentProblem, bound: Optional[int] = None) -> int:
    """The program with its charge: one node per state, all layers first,
    and `_BudgetExhausted` before any array is built when it is refused."""
    if not problem.charge_states():
        raise _BudgetExhausted
    return problem.solve(bound)


def combo_list(pool: FiniteWindow, identity, pieces: int) -> list[tuple[tuple, tuple]]:
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
    return combos


def _solve_every_combo(problem: AssignmentProblem, floor: int, zero_cap: int, bound: Optional[int]):
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
        combos = combo_list(pool, identity, pieces)
        best_defect, best_cert, best_checkable, exhausted = None, None, 0, True
        try:
            for a, b in combos:
                fa, fb = family(*a), family(*b)
                problem = AssignmentProblem(n, fa, fb, tracker)
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


def _solve_floor_first(problem: AssignmentProblem, floor: int, zero_cap: int, bound: Optional[int]):
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
            exhausted = True
            for a, b in combo_list(pool, identity, report.pieces):
                if not tracker.spend():
                    raise _BudgetExhausted
                fa, fb = family(*a), family(*b)
                floor = counting_floor(n, fa, fb)
                if report.best_defect is not None and floor >= report.best_defect:
                    continue
                problem = AssignmentProblem(n, fa, fb, tracker)
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
