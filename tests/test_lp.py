"""Exact LP engines: simplex against brute-force vertex checks, the flow
solver against the simplex, both integer engines against the Fraction
engines they replaced, and the simplex's integer certificate against the
Fraction check it replaced.

`simplex_max` takes ints.  A Fraction LP is scaled to ints here, in
`_scaled_simplex`: one LCM for A and b together, so x is unchanged, and
one LCM for c; its answers are read back in Fractions."""

import math
import random
from fractions import Fraction

import pytest

from folnerlab.lp import LpError, _certify, _relax, min_cost_flow, simplex_max

from fraction_oracles import (
    FractionLpSolution,
    fraction_bellman_ford,
    fraction_min_cost_flow,
    fraction_simplex_max,
    fraction_verify,
)

ONE = Fraction(1)


def _scaled_simplex(c, rows, b) -> FractionLpSolution:
    """`simplex_max` on the Fraction LP max c.x, Ax <= b, put on ints by one
    LCM k of A and b and one LCM s of c.  The primal of the scaled system is
    x itself, and its duals are the true duals times s / k."""
    k = math.lcm(*(coef.denominator for row in rows for _, coef in row), *(v.denominator for v in b))
    s = math.lcm(*(cj.denominator for cj in c))
    sol = simplex_max([int(cj * s) for cj in c], [[(j, int(coef * k)) for j, coef in row] for row in rows],
                      [int(v * k) for v in b])
    x = [Fraction(X, sol.D) for X in sol.X]
    duals = [Fraction(Y * k, sol.D * s) for Y in sol.Y]
    return FractionLpSolution(sum((cj * xj for cj, xj in zip(c, x)), Fraction(0)), x, duals, sol.pivots)


def test_simplex_simple_box():
    # max x + y st x <= 2, y <= 3
    sol = simplex_max([1, 1], [[(0, 1)], [(1, 1)]], [2, 3])
    assert Fraction(sol.X[0] + sol.X[1], sol.D) == 5
    assert [Fraction(X, sol.D) for X in sol.X] == [2, 3]


def test_simplex_coupled():
    # max 2x + y st x + y <= 4, x <= 3
    sol = simplex_max([2, 1], [[(0, 1), (1, 1)], [(0, 1)]], [4, 3])
    assert Fraction(2 * sol.X[0] + sol.X[1], sol.D) == 7


def test_simplex_unbounded():
    with pytest.raises(LpError):
        simplex_max([1], [[(0, -1)]], [1])


def test_simplex_degenerate_rhs():
    sol = simplex_max([1], [[(0, 1)], [(0, 1)]], [0, 2])
    assert sol.X == [0]


def test_simplex_random_against_vertex_enumeration():
    rng = random.Random(5150)
    for _ in range(30):
        n = rng.randint(1, 3)
        m = rng.randint(1, 4)
        c = [Fraction(rng.randint(-3, 4)) for _ in range(n)]
        rows = []
        b = []
        for _ in range(m):
            rows.append([(j, Fraction(rng.randint(-2, 3))) for j in range(n)])
            b.append(Fraction(rng.randint(0, 5)))
        # bound the box so the LP cannot be unbounded
        for j in range(n):
            rows.append([(j, Fraction(1))])
            b.append(Fraction(4))
        sol = _scaled_simplex(c, rows, b)
        fraction_verify(sol, c, rows, b)

        # brute force over a fine grid of the box (quarters), feasible only
        best = None
        steps = [Fraction(k, 4) for k in range(17)]

        def feasible(x):
            return all(sum(coef * x[j] for j, coef in row) <= rhs for row, rhs in zip(rows, b))

        if n == 1:
            candidates = ([x] for x in steps)
        elif n == 2:
            candidates = ([x, y] for x in steps for y in steps)
        else:
            candidates = ([x, y, z] for x in steps for y in steps for z in steps)
        for x in candidates:
            if feasible(x):
                v = sum(ci * xi for ci, xi in zip(c, x))
                if best is None or v > best:
                    best = v
        assert best is not None
        assert sol.value >= best  # grid points are feasible, optimum dominates


def test_flow_matches_simplex_on_transport():
    rng = random.Random(6007)
    for _ in range(20):
        n = rng.randint(2, 5)
        # random symmetric distances and a zero-sum integer weight vector
        d = {}
        for i in range(n):
            for j in range(i + 1, n):
                d[(i, j)] = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        mu = [rng.randint(-3, 3) for _ in range(n)]

        # LP form: max mu.f with |f| <= 1, |f(i) - f(j)| <= d(i, j)
        c = [Fraction(m) for m in mu]
        rows = []
        b = []
        span = Fraction(2)
        for i in range(n):
            rows.append([(i, Fraction(1))])
            b.append(span)
        for (i, j), dist in d.items():
            rows.append([(i, Fraction(1)), (j, Fraction(-1))])
            b.append(dist)
            rows.append([(j, Fraction(1)), (i, Fraction(-1))])
            b.append(dist)
        sol = _scaled_simplex(c, rows, b)
        lp_value = sol.value + sum(ci * Fraction(-1) for ci in c)  # shift back f = x - 1

        bank = n
        arcs = []
        for (i, j), dist in d.items():
            arcs.append((i, j, 1 << 40, dist))
            arcs.append((j, i, 1 << 40, dist))
        for v in range(n):
            arcs.append((v, bank, 1 << 40, Fraction(1)))
            arcs.append((bank, v, 1 << 40, Fraction(1)))
        supplies = mu + [-sum(mu)]
        cost, _, pot = min_cost_flow(n + 1, arcs, supplies)
        assert cost == lp_value
        f = [pot[bank] - pot[v] for v in range(n)]
        assert sum(m * fv for m, fv in zip(mu, f)) == cost


def test_flow_balance_required():
    with pytest.raises(LpError):
        min_cost_flow(2, [(0, 1, 10, Fraction(1))], [1, 0])


# ---------------------------------------------------------------------------
# Differential tests: the integer engines against the Fraction engines
# ---------------------------------------------------------------------------


def _outcome(engine, *args):
    """An engine's full result as comparable data, or its error."""
    try:
        result = engine(*args)
    except LpError as exc:
        return ("error", str(exc))
    if isinstance(result, tuple):
        return result
    return (result.value, result.x, result.duals, result.pivots)


def _assert_simplex_agrees(c, rows, b):
    got = _outcome(_scaled_simplex, c, rows, b)
    assert got == _outcome(fraction_simplex_max, c, rows, b)
    if got[0] != "error":
        # the integer certificate's optimum also passes the Fraction check
        fraction_verify(FractionLpSolution(*got), c, rows, b)
    return got


def _assert_flow_valid(n, arcs, supplies, cost, flows):
    """The flow on its own: within capacity, conserved, and of its cost."""
    net = [0] * n
    for (u, v, cap, _), f in zip(arcs, flows):
        assert 0 <= f <= cap
        net[u] += f
        net[v] -= f
    assert net == supplies
    assert cost == sum((arc[3] * f for arc, f in zip(arcs, flows)), Fraction(0))


def _assert_flow_agrees(n, arcs, supplies):
    got = _outcome(min_cost_flow, n, arcs, supplies)
    assert got == _outcome(fraction_min_cost_flow, n, arcs, supplies)
    if got[0] != "error":
        _assert_flow_valid(n, arcs, supplies, got[0], got[1])
    return got


def test_simplex_matches_fraction_engine_on_random_general_lps():
    rng = random.Random(7001)

    def q(lo, hi):
        return Fraction(rng.randint(lo, hi), rng.choice([1, 1, 2, 3, 4, 5, 7]))

    fractional_optima = 0
    errors = 0
    for _ in range(400):
        n = rng.randint(1, 5)
        m = rng.randint(1, 6)
        c = [q(-4, 5) for _ in range(n)]
        rows = [[(j, q(-3, 4)) for j in range(n) if rng.random() < 0.8] for _ in range(m)]
        b = [q(0, 6) for _ in range(m)]
        if rng.random() < 0.8:  # mostly bounded; the rest may be unbounded
            for j in range(n):
                rows.append([(j, Fraction(1))])
                b.append(q(0, 5))
        got = _assert_simplex_agrees(c, rows, b)
        if got[0] == "error":
            errors += 1
        elif any(v.denominator > 1 for v in got[1] + got[2]):
            fractional_optima += 1
    # non-unit pivots (running denominator D > 1) and unbounded LPs both occur
    assert fractional_optima > 100
    assert errors > 10


def test_simplex_matches_fraction_engine_with_non_unit_pivots():
    # 2x + 3y <= 6, 3x + 2y <= 6 (scaled by 1/5 and 1/7): each pivot is 2 or 3
    c = [Fraction(1), Fraction(1)]
    rows = [
        [(0, Fraction(2, 5)), (1, Fraction(3, 5))],
        [(0, Fraction(3, 7)), (1, Fraction(2, 7))],
    ]
    b = [Fraction(6, 5), Fraction(6, 7)]
    value, x, duals, pivots = _assert_simplex_agrees(c, rows, b)
    assert value == Fraction(12, 5)
    assert x == [Fraction(6, 5), Fraction(6, 5)]
    assert duals == [Fraction(1), Fraction(7, 5)]
    assert pivots == 2


def test_simplex_rewrites_every_column_until_the_pivot_equals_d():
    # max x + y st 2x <= 2, y <= 1.  Pivot 1 is p = 2 against D = 1, so
    # every entry of every row changes; pivot 2 is p = D = 2, so only the
    # pivot row's nonzero columns of the rows with a nonzero y change.
    sol = simplex_max([1, 1], [[(0, 2)], [(1, 1)]], [2, 1])
    assert (sol.X, sol.Y, sol.D, sol.pivots) == ([2, 2], [1, 2], 2, 2)
    value, x, duals, pivots = _assert_simplex_agrees([ONE, ONE], [[(0, Fraction(2))], [(1, ONE)]], [Fraction(2), ONE])
    assert (value, x, duals, pivots) == (2, [ONE, ONE], [Fraction(1, 2), ONE], 2)


def _seminorm_system(rng, n):
    """A Lipschitz-and-box LP in the seminorm's shape, and its flow dual."""
    d = {}
    for i in range(n):
        for j in range(i + 1, n):
            d[(i, j)] = Fraction(rng.randint(1, 12), rng.choice([1, 2, 3, 4, 6, 12]))
    mu = [Fraction(rng.randint(-5, 5), rng.choice([1, 2, 3, 5])) for _ in range(n)]
    lo, hi = rng.choice([(Fraction(-1), Fraction(1)), (Fraction(0), Fraction(1)), (Fraction(-1, 2), Fraction(3, 4))])
    rows, b = [], []
    for i in range(n):
        rows.append([(i, Fraction(1))])
        b.append(hi - lo)
    for (i, j), dist in d.items():
        rows.append([(i, Fraction(1)), (j, Fraction(-1))])
        b.append(dist)
        rows.append([(j, Fraction(1)), (i, Fraction(-1))])
        b.append(dist)
    denom = math.lcm(*(m.denominator for m in mu))
    scaled = [int(m * denom) for m in mu]
    arcs = []
    for (i, j), dist in d.items():
        arcs.append((i, j, 1 << 60, dist))
        arcs.append((j, i, 1 << 60, dist))
    for v in range(n):
        arcs.append((v, n, 1 << 60, hi))
        arcs.append((n, v, 1 << 60, -lo))
    return (mu, rows, b), (n + 1, arcs, scaled + [-sum(scaled)])


def test_engines_match_fraction_engines_on_seminorm_systems():
    rng = random.Random(7002)
    for _ in range(60):
        lp, flow = _seminorm_system(rng, rng.randint(2, 6))
        _assert_simplex_agrees(*lp)
        _assert_flow_agrees(*flow)


def test_simplex_matches_fraction_engine_on_degenerate_ties():
    rng = random.Random(7003)
    for _ in range(300):
        n = rng.randint(1, 4)
        c = [Fraction(rng.randint(-1, 3)) for _ in range(n)]
        # proportional rows and zero right-hand sides tie the ratio test
        base = [(j, Fraction(rng.randint(1, 2))) for j in range(n)]
        rows, b = [], []
        for _ in range(rng.randint(1, 4)):
            k = Fraction(rng.randint(1, 3), rng.randint(1, 3))
            rows.append([(j, coef * k) for j, coef in base])
            b.append(k * rng.choice([0, 2]))
        for j in range(n):
            rows.append([(j, Fraction(1))])
            b.append(Fraction(rng.choice([0, 1, 2])))
        _assert_simplex_agrees(c, rows, b)


def test_engines_raise_the_fraction_engines_errors():
    # unbounded, and b < 0
    assert _assert_simplex_agrees([Fraction(1)], [[(0, Fraction(-1, 3))]], [Fraction(1, 2)]) == ("error", "LP is unbounded")
    assert _assert_simplex_agrees([Fraction(1)], [[(0, Fraction(1))]], [Fraction(-1, 2)])[0] == "error"
    # unbalanced supplies, and supplies with no route to their demand
    assert _assert_flow_agrees(2, [(0, 1, 3, Fraction(1, 2))], [1, 0])[0] == "error"
    assert _assert_flow_agrees(3, [(0, 1, 3, Fraction(1, 2))], [1, 0, -1]) == ("error", "flow infeasible")
    assert _assert_flow_agrees(2, [(0, 1, 1, Fraction(1, 2))], [2, -2]) == ("error", "flow infeasible")


def test_flow_matches_fraction_engine_on_random_networks():
    rng = random.Random(7004)
    feasible = 0
    for _ in range(300):
        n = rng.randint(2, 7)
        # cost = nonnegative part + p(u) - p(v): negative arcs, no negative cycle
        p = [Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3])) for _ in range(n)]
        arcs = []
        for _ in range(rng.randint(1, 16)):
            u, v = rng.sample(range(n), 2)
            cost = Fraction(rng.randint(0, 9), rng.choice([1, 2, 4, 6])) + p[u] - p[v]
            arcs.append((u, v, rng.randint(1, 6), cost))
        supplies = [rng.randint(-3, 3) for _ in range(n - 1)]
        supplies.append(-sum(supplies))
        if _assert_flow_agrees(n, arcs, supplies)[0] != "error":
            feasible += 1
    assert feasible > 50


def _box_network(rng, rows, cols, lo, hi):
    """The flow side of a seminorm on a full rows x cols box of Z^2: every
    unit-distance pair, both ways, and the bank node priced by the box."""
    index = {(r, c): k for k, (r, c) in enumerate((r, c) for r in range(rows) for c in range(cols))}
    n = len(index)
    mu = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(n)]
    if lo == 0:  # the [0, 1] box needs a weight of zero total mass
        mu[-1] -= sum(mu)
    arcs = []
    for (r, c), k in index.items():
        for neighbour in ((r + 1, c), (r, c + 1)):
            if neighbour in index:
                arcs.append((k, index[neighbour], 1 << 60, Fraction(1)))
                arcs.append((index[neighbour], k, 1 << 60, Fraction(1)))
    for v in range(n):
        arcs.append((v, n, 1 << 60, hi))
        arcs.append((n, v, 1 << 60, -lo))
    return n + 1, arcs, mu + [-sum(mu)]


@pytest.mark.parametrize("rows,cols", [(8, 9), (9, 9), (8, 10), (9, 10), (9, 8), (10, 8)])
def test_flow_matches_fraction_engine_on_bench_scale_boxes(rows, cols):
    rng = random.Random(7005 + 100 * rows + cols)
    for lo, hi in ((Fraction(-1), Fraction(1)), (Fraction(0), Fraction(1))):
        n, arcs, supplies = _box_network(rng, rows, cols, lo, hi)
        cost, flows, pot = min_cost_flow(n, arcs, supplies)
        oracle_cost, _, oracle_pot = fraction_min_cost_flow(n, arcs, supplies)
        assert (cost, pot) == (oracle_cost, oracle_pot)
        _assert_flow_valid(n, arcs, supplies, cost, flows)


def _residual(size, arcs):
    """Residual lists of (u, v, cap, cost) arcs as `min_cost_flow` keeps
    them: arc k is 2k and its reverse, of capacity 0, is 2k + 1."""
    head, to, cap, cost = [[] for _ in range(size)], [], [], []
    for u, v, c, w in arcs:
        head[u].append(len(to))
        head[v].append(len(to) + 1)
        to += (v, u)
        cap += (c, 0)
        cost += (w, -w)
    return head, to, cap, cost


def test_relax_refuses_a_negative_cycle():
    # 0 -> 1 -> 2 -> 0 costs 1 + 1 - 3 = -1; no valid seminorm reaches this
    graph = _residual(3, [(0, 1, 1, 1), (1, 2, 1, 1), (2, 0, 1, -3)])
    for dist, starts in (([0, None, None], [0]), ([0, 0, 0], range(3))):
        with pytest.raises(LpError, match="^negative cycle in optimal residual graph$"):
            _relax(*graph, list(dist), starts)
        with pytest.raises(LpError, match="^negative cycle in optimal residual graph$"):
            fraction_bellman_ford(*graph, list(dist))


def test_relax_matches_full_sweep_bellman_ford():
    # cost = nonnegative part + p(u) - p(v): negative arcs, no negative
    # cycle; arcs of capacity 0 are not residual and must not relax
    rng = random.Random(7007)
    for _ in range(300):
        size = rng.randint(2, 8)
        p = [rng.randint(-9, 9) for _ in range(size)]
        arcs = []
        for _ in range(rng.randint(1, 20)):
            u, v = rng.sample(range(size), 2)
            arcs.append((u, v, rng.choice((0, 1, 3)), rng.randint(0, 6) + p[u] - p[v]))
        graph = _residual(size, arcs)
        source = rng.randrange(size)
        single = [None] * size
        single[source] = 0
        for dist, starts in ((single, [source]), ([0] * size, range(size))):
            got, want = list(dist), list(dist)
            _relax(*graph, got, starts)
            fraction_bellman_ford(*graph, want)
            assert got == want


def test_integer_certificate_matches_fraction_check_on_tampered_optima():
    # Each optimum, as the final tableau's X, Y over D, is checked as found
    # and with one entry of X or Y moved by one unit.
    rng = random.Random(7006)
    outcomes = set()
    for _ in range(300):
        n = rng.randint(1, 4)
        c = [rng.randint(-3, 4) for _ in range(n)]
        rows = [[(j, rng.randint(-2, 3)) for j in range(n)] for _ in range(rng.randint(1, 4))]
        b = [rng.randint(0, 5) for _ in rows]
        rows += [[(j, 1)] for j in range(n)]
        b += [rng.randint(0, 4) for _ in range(n)]
        sol = simplex_max(c, rows, b)
        X, Y, D = list(sol.X), list(sol.Y), sol.D
        if rng.random() < 0.8:
            vec = X if rng.random() < 0.5 else Y
            vec[rng.randrange(len(vec))] += rng.choice((-1, 1))
        x, y = [Fraction(v, D) for v in X], [Fraction(v, D) for v in Y]
        value = sum(cj * xj for cj, xj in zip(c, x))
        try:
            fraction_verify(FractionLpSolution(value, x, y, 0), c, rows, b)
            expected = value * D  # the certificate returns the objective times D
        except LpError as exc:
            expected = str(exc)
        try:
            got = _certify(c, rows, b, X, Y, D)
        except LpError as exc:
            got = str(exc)
        assert got == expected
        outcomes.add(expected if isinstance(expected, str) else "valid")
    assert outcomes == {
        "valid", "primal witness infeasible", "primal witness negative", "dual witness negative",
        "dual witness infeasible", "objective values disagree",
    }
