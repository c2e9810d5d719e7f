"""Weighted vectors and the bounded-Lipschitz seminorm."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from folnerlab.groups import (
    ArcMetric,
    DiscreteMetric,
    ScaledMetric,
    WordMetric,
    grid_sample,
    make_model,
    window,
)
from folnerlab.lp import INF_CAP, LpError
from folnerlab.matching import near_pairs
from folnerlab.suite import _brute_force_two_point
from folnerlab.weights import (
    FiniteWeight,
    SupplyError,
    _check_witness,
    _pair_constraints,
    _seminorm_lp,
    approx_by_uniform,
    invariance_defect,
    lipschitz_seminorm,
)

from fraction_oracles import (
    fraction_brute_force_two_point,
    fraction_eval,
    fraction_min_cost_flow,
    fraction_pair_constraints,
    fraction_simplex_max,
)
from group_oracles import dense_distance_matrix

Z = make_model("lattice", dim=1)
F2 = make_model("free", rank=2)
C = make_model("circle")

HALF = Fraction(1, 2)
ONE = Fraction(1)


def small_weights(model, elements):
    pair = st.tuples(elements, st.fractions(min_value=-2, max_value=2, max_denominator=6))
    return st.lists(pair, min_size=0, max_size=4).map(lambda ps: FiniteWeight(model, [(g.data, w) for g, w in ps]))


z_elements = st.integers(-5, 5).map(lambda k: Z.element((k,)))
z_weights = small_weights(Z, z_elements)


# --- construction and norms -------------------------------------------------


def test_zero_weights_dropped():
    a = FiniteWeight(Z, [((0,), Fraction(1)), ((0,), Fraction(-1))])
    assert len(a) == 0
    assert a.norm1 == 0


def test_norm_and_stochastic():
    a = FiniteWeight(Z, [((0,), HALF), ((1,), HALF)])
    assert a.norm1 == 1
    assert a.is_stochastic()
    b = a - FiniteWeight.delta(Z.element((0,)))
    assert not b.is_stochastic()


def test_weight_json_roundtrip():
    a = FiniteWeight(C, [(Fraction(2, 3), Fraction(2, 3)), (Fraction(0), Fraction(1, 3))])
    assert FiniteWeight.from_json(a.to_json(), C) == a
    assert list(a.support) == [C.element(0), C.element(Fraction(2, 3))]
    assert a[Fraction(2, 3)] == Fraction(2, 3) and a[Fraction(1, 3)] == 0
    assert a.to_json()["weights"] == ["1/3", "2/3"]


def test_weight_json_length_mismatch():
    # lists of different lengths are refused, not truncated to the shorter
    with pytest.raises(ValueError):
        FiniteWeight.from_json({"support": ["0", "1/2"], "weights": ["1"]}, C)


# --- seminorm ----------------------------------------------------------------


def test_seminorm_point_mass():
    r = lipschitz_seminorm(FiniteWeight.delta(C.element(Fraction(1, 3))), ArcMetric(C))
    assert r.value == 1


def test_seminorm_zero():
    zero = FiniteWeight(Z, [])
    assert lipschitz_seminorm(zero, WordMetric(Z)).value == 0


def test_seminorm_two_points_closed_form():
    arc = ArcMetric(C)
    x, y = C.element(0), C.element(Fraction(2, 5))
    diff = FiniteWeight.delta(x) - FiniteWeight.delta(y)
    assert lipschitz_seminorm(diff, arc).value == Fraction(2, 5)
    # scaled metric reaching 0.6, as the small-distance side of min(2, d)
    scaled = ScaledMetric(arc, Fraction(3, 2))
    assert lipschitz_seminorm(diff, scaled).value == Fraction(3, 5)
    # far apart in a word metric: capped by the value range
    gx, gy = Z.element((0,)), Z.element((10,))
    far = FiniteWeight.delta(gx) - FiniteWeight.delta(gy)
    assert lipschitz_seminorm(far, WordMetric(Z)).value == 2


@settings(max_examples=25, deadline=None)
@given(z_weights, z_weights)
def test_seminorm_triangle_and_norm_bound(a, b):
    d = WordMetric(Z)
    pa = lipschitz_seminorm(a, d).value
    pb = lipschitz_seminorm(b, d).value
    assert pa <= a.norm1
    assert lipschitz_seminorm(a + b, d).value <= pa + pb


@settings(max_examples=15, deadline=None)
@given(z_weights)
def test_seminorm_scaled_metric_monotone(a):
    d = WordMetric(Z)
    scaled = ScaledMetric(d, Fraction(3, 2))
    assert lipschitz_seminorm(a, scaled).value >= lipschitz_seminorm(a, d).value


def test_seminorm_brute_force_small_supports():
    rng = random.Random(321)
    arc = ArcMetric(C)
    step = Fraction(1, 10)
    grid_values = [-1 + k * step for k in range(21)]
    for _ in range(6):
        pts = rng.sample(range(12), 3)
        weights = [Fraction(rng.randint(-2, 2)) for _ in pts]
        a = FiniteWeight(C, [(Fraction(p, 12), w) for p, w in zip(pts, weights)])
        if len(a) == 0:
            continue
        result = lipschitz_seminorm(a, arc)
        support = list(a.support)
        mu = a.weights
        best = None
        k = len(support)
        dmat = [[fraction_eval(arc, support[i], support[j]) for j in range(k)] for i in range(k)]

        def rec(i, vals):
            nonlocal best
            if i == k:
                v = sum(m * x for m, x in zip(mu, vals))
                if best is None or v > best:
                    best = v
                return
            for x in grid_values:
                if all(abs(x - vals[j]) <= dmat[i][j] for j in range(i)):
                    rec(i + 1, vals + [x])

        rec(0, [])
        assert best is not None
        assert best <= result.value  # grid functions are feasible
        assert result.value - best <= 2 * step


def test_seminorm_witness_feasible_and_optimal():
    arc = ArcMetric(C)
    a = FiniteWeight(C, [(Fraction(0), Fraction(2, 3)), (Fraction(1, 2), Fraction(-1, 3))])
    result = lipschitz_seminorm(a, arc)
    achieved = sum(w * v for w, v in zip(a.weights, result.witness))
    assert achieved == result.value
    assert len(result.witness) == len(a.support)
    for v in result.witness:
        assert -1 <= v <= 1


def test_seminorm_support_cap():
    from folnerlab.weights import SUPPORT_CAP, SupportSizeError

    big = FiniteWeight(Z, [((i,), Fraction(1)) for i in range(SUPPORT_CAP + 1)])
    with pytest.raises(SupportSizeError, match=f"support {SUPPORT_CAP + 1} exceeds cap {SUPPORT_CAP}"):
        lipschitz_seminorm(big, WordMetric(Z))


def test_flow_and_simplex_engines_agree():
    arc = ArcMetric(C)
    partial = window(C, [Fraction(k, 16) for k in range(10)])
    a = FiniteWeight.uniform(partial) - FiniteWeight.uniform(partial).left_translate(
        C.element(Fraction(1, 16))
    )
    lo = lipschitz_seminorm(a, arc)
    import folnerlab.weights as wmod

    old = wmod.SIMPLEX_ROW_LIMIT
    try:
        wmod.SIMPLEX_ROW_LIMIT = 0  # force the flow engine
        hi = lipschitz_seminorm(a, arc)
    finally:
        wmod.SIMPLEX_ROW_LIMIT = old
    assert {lo.engine, hi.engine} == {"simplex", "flow"}
    assert lo.value == hi.value


def _scaled(frac, span):
    """Fraction distance closure, integer matrix and common scale of a
    Fraction distance matrix, built independently of `lipschitz_seminorm`."""
    scale = math.lcm(span.denominator, *(d.denominator for row in frac for d in row))
    dmat = [[int(d * scale) for d in row] for row in frac]
    return (lambda i, j: frac[i][j]), dmat, scale


def _scaled_distances(points, metric, span):
    n = len(points)
    return _scaled([[fraction_eval(metric, points[min(i, j)], points[max(i, j)]) for j in range(n)] for i in range(n)], span)


def _near(dmat, span):
    """The near-pair table of a dense integer matrix: the pairs below span."""
    return [{j: d for j, d in enumerate(row) if j != i and d < span} for i, row in enumerate(dmat)]


def _random_supports(rng):
    Z2 = make_model("lattice", dim=2)
    for _ in range(12):
        size = rng.randint(2, 14)
        q = rng.choice([8, 12, 30])
        pts = sorted({Fraction(rng.randrange(q), q) for _ in range(size)})
        yield [C.element(x) for x in pts], ArcMetric(C)
        pts = sorted({(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(size)})
        yield [Z2.element(x) for x in pts], WordMetric(Z2)
        pts = sorted({rng.randint(-9, 9) for _ in range(size)})
        yield [Z.element((x,)) for x in pts], ScaledMetric(WordMetric(Z), Fraction(rng.randint(1, 5), rng.randint(2, 7)))
    ball = list(grid_sample(F2, 3))
    for _ in range(8):
        yield rng.sample(ball, rng.randint(2, 16)), WordMetric(F2)


def test_pair_constraints_match_fraction_version():
    rng = random.Random(7101)
    kept_total = pruned_total = 0
    for points, metric in _random_supports(rng):
        for span in (Fraction(2), Fraction(1), Fraction(3, 4), Fraction(7, 3)):
            dist, dmat, scale = _scaled_distances(points, metric, span)
            expected = [(i, j) for i, j, _ in fraction_pair_constraints(points, dist, span)]
            assert _pair_constraints(_near(dmat, int(span * scale))) == expected
            kept_total += len(expected)
            pruned_total += len(points) * (len(points) - 1) // 2 - len(expected)
    assert kept_total > 500 and pruned_total > 500  # both branches are exercised


def test_pair_constraints_match_fraction_version_on_pseudo_metrics():
    # L1 distances of points on a coarse line: many distinct points at distance 0
    rng = random.Random(7103)
    for _ in range(150):
        n = rng.randint(2, 12)
        coords = [[Fraction(rng.randint(0, 4), rng.choice([1, 2, 3])) for _ in range(2)] for _ in range(n)]
        weights = [Fraction(rng.randint(0, 2), rng.choice([1, 3])) for _ in range(2)]
        frac = [[sum(w * abs(a - b) for w, a, b in zip(weights, x, y)) for y in coords] for x in coords]
        span = Fraction(rng.randint(1, 6), rng.choice([1, 2]))
        dist, dmat, scale = _scaled(frac, span)
        expected = [(i, j) for i, j, _ in fraction_pair_constraints(coords, dist, span)]
        assert _pair_constraints(_near(dmat, int(span * scale))) == expected


def _check(f, near, scale, lo, hi):
    """`_check_witness` on a Fraction witness, put over its common
    denominator here."""
    den = math.lcm(*(v.denominator for v in f))
    _check_witness([int(v * den) for v in f], den, near, scale, lo, hi)


def test_check_witness_rejects_one_unit_past_a_bound():
    # two points at distance 2/5 on the circle, box [-1, 1]
    points = [C.element(0), C.element(Fraction(2, 5))]
    lo, hi = Fraction(-1), Fraction(1)
    _, dmat, scale = _scaled_distances(points, ArcMetric(C), hi - lo)
    near = _near(dmat, (hi - lo) * scale)
    unit = Fraction(1, scale)
    _check([Fraction(0), Fraction(2, 5)], near, scale, lo, hi)
    with pytest.raises(LpError, match="Lipschitz"):
        _check([Fraction(0), Fraction(2, 5) + unit], near, scale, lo, hi)
    with pytest.raises(LpError, match="Lipschitz"):
        _check([Fraction(2, 5) + unit, Fraction(0)], near, scale, lo, hi)
    _check([hi, hi], near, scale, lo, hi)
    with pytest.raises(LpError, match="bounds"):
        _check([hi + unit, hi + unit], near, scale, lo, hi)
    with pytest.raises(LpError, match="bounds"):
        _check([lo - unit, lo - unit], near, scale, lo, hi)


def test_check_witness_rejects_a_real_witness_raised_one_unit_too_far():
    rng = random.Random(7102)
    for points, metric in list(_random_supports(rng))[:20]:
        a = FiniteWeight(metric.model, [(g.data, Fraction(rng.randint(-3, 3), rng.randint(1, 4))) for g in points])
        if len(a) < 2:
            continue
        for lo, hi in ((Fraction(-1), Fraction(1)), (Fraction(0), Fraction(1))):
            if lo != -hi and a.total() != 0:
                a = a - FiniteWeight.delta(a.support[0]).scale(a.total())
            result = lipschitz_seminorm(a, metric, bounds=(lo, hi))
            support = list(a.support)
            f = result.witness
            dist, dmat, scale = _scaled_distances(support, metric, hi - lo)
            near = _near(dmat, (hi - lo) * scale)
            unit = Fraction(1, scale)
            _check(f, near, scale, lo, hi)
            for j in range(len(f)):
                # the largest feasible value at j, the others fixed
                top = min([hi] + [f[i] + dist(i, j) for i in range(len(f)) if i != j])
                _check(f[:j] + [top] + f[j + 1:], near, scale, lo, hi)
                with pytest.raises(LpError):
                    _check(f[:j] + [top + unit] + f[j + 1:], near, scale, lo, hi)


def _dense_check(f, dmat, scale, lo, hi):
    """The witness check on every pair of a dense distance matrix, the box
    at every point first as `_check_witness` does."""
    for v in f:
        if not lo <= v <= hi:
            raise LpError("witness escapes bounds")
    for i, row in enumerate(dmat):
        for j in range(i + 1, len(row)):
            if abs(f[i] - f[j]) * scale > row[j]:
                raise LpError("witness violates a Lipschitz constraint")


def _check_outcome(check, *args):
    try:
        check(*args)
    except LpError as exc:
        return str(exc)
    return "valid"


def _witness_cases(rng):
    """Seeded supports on five models under their own, discrete and scaled
    metrics, each with a weight fit for both boxes."""
    Z2, H = make_model("lattice", dim=2), make_model("heisenberg")
    T2 = make_model("torus", dim=2)
    pools = [
        (Z2, [Z2.element((i, j)) for i in range(5) for j in range(5)], WordMetric(Z2)),
        (F2, list(grid_sample(F2, 2)), WordMetric(F2)),
        (H, list(grid_sample(H, 2)), WordMetric(H)),
        (C, [C.element(Fraction(k, 20)) for k in range(20)], ArcMetric(C)),
        (T2, [T2.element((Fraction(i, 4), Fraction(j, 3))) for i in range(4) for j in range(3)], ArcMetric(T2)),
    ]
    for model, pool, base in pools:
        for metric in (base, DiscreteMetric(model), ScaledMetric(base, Fraction(2, 3))):
            for _ in range(3):
                points = rng.sample(pool, rng.randint(2, min(12, len(pool))))
                a = FiniteWeight(model, [(g.data, Fraction(rng.randint(-3, 3), rng.randint(1, 4))) for g in points])
                if len(a) >= 2:
                    yield a - FiniteWeight.delta(a.support[0]).scale(a.total()), metric


def test_sparse_witness_check_agrees_with_the_dense_check():
    # Optimal witnesses, each value then moved one unit of the common
    # denominator across each near pair's Lipschitz bound or across the box;
    # the near-pair check must give the dense check's verdict and message.
    rng = random.Random(7104)
    outcomes = {}
    for a, metric in _witness_cases(rng):
        dmat, scale = dense_distance_matrix(metric, list(a.support))
        for lo, hi in ((Fraction(-1), Fraction(1)), (Fraction(0), Fraction(1))):
            near, near_scale = near_pairs(a.support, metric, hi - lo)
            assert near_scale == scale
            result = lipschitz_seminorm(a, metric, bounds=(lo, hi))
            f = result.witness
            unit = Fraction(1, math.lcm(scale, lo.denominator, hi.denominator, *(v.denominator for v in f)))
            moves = [(j, v) for j in range(len(f)) for v in (hi, hi + unit, lo, lo - unit)]
            for i, row in enumerate(near):
                for j, d in row.items():
                    bound = Fraction(d, scale)
                    moves += [(j, f[i] + bound), (j, f[i] + bound + unit), (j, f[i] - bound - unit)]
            for j, v in moves:
                tampered = f[:j] + [v] + f[j + 1:]
                want = _check_outcome(_dense_check, tampered, dmat, scale, lo, hi)
                assert _check_outcome(_check, tampered, near, scale, lo, hi) == want
                outcomes[want] = outcomes.get(want, 0) + 1
    assert set(outcomes) == {"valid", "witness escapes bounds", "witness violates a Lipschitz constraint"}
    assert min(outcomes.values()) > 200


def _fraction_flow_side(mu, pairs, lo, hi):
    """The flow side of `_seminorm_lp` as it ran on Fraction arcs, through
    the Fraction min-cost flow: (value, witness, pivots)."""
    n, bank = len(mu), len(mu)
    denom = math.lcm(*(m.denominator for m in mu))
    scaled = [int(m * denom) for m in mu]
    arcs = []
    for i, j, d in pairs:
        arcs += [(i, j, INF_CAP, d), (j, i, INF_CAP, d)]
    for v in range(n):
        arcs += [(v, bank, INF_CAP, hi), (bank, v, INF_CAP, -lo)]
    cost, _, pot = fraction_min_cost_flow(n + 1, arcs, scaled + [-sum(scaled)])
    return cost / denom, [pot[bank] - pot[v] for v in range(n)], 0


def _fraction_simplex_side(mu, pairs, lo, hi):
    """The simplex side of `_seminorm_lp` as it ran on Fraction rows, through
    the Fraction simplex: (value, witness, pivots)."""
    rows, b = [[(i, ONE)] for i in range(len(mu))], [hi - lo] * len(mu)
    for i, j, d in pairs:
        rows += [(i, ONE), (j, -ONE)], [(j, ONE), (i, -ONE)]
        b += d, d
    sol = fraction_simplex_max(mu, rows, b)
    f = [x + lo for x in sol.x]
    return sum(m * v for m, v in zip(mu, f)), f, sol.pivots


def test_integer_flow_arcs_match_fraction_arcs(monkeypatch):
    # Both engines on the seminorm's one integer system against the Fraction
    # rows and arcs they ran on before: the same value, witness and pivots.
    import folnerlab.weights as wmod

    simplex_limit = wmod.SIMPLEX_ROW_LIMIT
    rng = random.Random(7105)
    solved = {"simplex": 0, "flow": 0}
    for a, metric in _witness_cases(rng):
        mu = list(a.weights)
        for lo, hi in ((Fraction(-1), Fraction(1)), (Fraction(0), Fraction(1)), (Fraction(-1, 3), Fraction(1, 2))):
            near, scale = near_pairs(a.support, metric, hi - lo)
            pairs = [(i, j, near[i][j]) for i, j in _pair_constraints(near)]
            fraction_pairs = [(i, j, Fraction(d, scale)) for i, j, d in pairs]
            for limit, engine, oracle in ((simplex_limit, "simplex", _fraction_simplex_side),
                                          (0, "flow", _fraction_flow_side)):
                monkeypatch.setattr(wmod, "SIMPLEX_ROW_LIMIT", limit)
                value, f, den, pivots, ran = _seminorm_lp(mu, pairs, scale, lo, hi)
                assert ran == engine
                assert (value, [Fraction(v, den) for v in f], pivots) == oracle(mu, fraction_pairs, lo, hi)
                solved[engine] += 1
    assert min(solved.values()) > 100


@pytest.mark.parametrize("side,rows", [(6, 156), (7, 217), (8, 288)])
def test_simplex_matches_fraction_engine_on_bench_scale_boxes(side, rows):
    # Full side x side boxes of Z^2; 8 x 8 is the largest under the
    # simplex's row limit, so this is the simplex at the bench's largest size.
    import folnerlab.weights as wmod

    Z2 = make_model("lattice", dim=2)
    rng = random.Random(7106 + side)
    points = [(i, j) for i in range(side) for j in range(side)]
    a = FiniteWeight(Z2, [(g, Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 4))) for g in points])
    mu = list(a.weights)
    near, scale = near_pairs(a.support, WordMetric(Z2), Fraction(2))
    pairs = [(i, j, near[i][j]) for i, j in _pair_constraints(near)]
    assert len(mu) + 2 * len(pairs) == rows <= wmod.SIMPLEX_ROW_LIMIT
    value, f, den, pivots, engine = _seminorm_lp(mu, pairs, scale, -ONE, ONE)
    assert engine == "simplex"
    fraction_pairs = [(i, j, Fraction(d, scale)) for i, j, d in pairs]
    assert (value, [Fraction(v, den) for v in f], pivots) == _fraction_simplex_side(mu, fraction_pairs, -ONE, ONE)


def test_grid_oracle_matches_fraction_scan():
    masses = [Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-2, 3), Fraction(0), Fraction(5, 7)]
    distances = [Fraction(0), Fraction(1, 100), Fraction(1, 3), Fraction(1, 2), Fraction(7, 10), Fraction(1), Fraction(3), Fraction(3, 2)]
    steps = [Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(2, 7), Fraction(1, 10)]
    for mu_x in masses:
        for mu_y in masses:
            for d in distances:
                for step in steps:
                    assert _brute_force_two_point(mu_x, mu_y, d, step) == fraction_brute_force_two_point(mu_x, mu_y, d, step)
    # the criterion's own call
    for d in (Fraction(3, 10), Fraction(2)):
        assert _brute_force_two_point(ONE, -ONE, d, Fraction(1, 100)) == fraction_brute_force_two_point(ONE, -ONE, d, Fraction(1, 100))


# --- invariance defects -------------------------------------------------------


def test_invariance_defect_identity_only():
    a = FiniteWeight.uniform(window(Z, [(i,) for i in range(10)]))
    defect = invariance_defect(a, window(Z, [(0,)]), WordMetric(Z))
    assert defect.full == 0


def test_invariance_defect_interval():
    a = FiniteWeight.uniform(window(Z, [(i,) for i in range(10)]))
    defect = invariance_defect(a, window(Z, [(1,)]), WordMetric(Z))
    assert defect.full == Fraction(1, 5)  # min(2, 10) / 10
    assert defect.restricted <= defect.full


def test_invariance_defect_requires_stochastic():
    a = FiniteWeight.delta(Z.element((0,))).scale(Fraction(2))
    with pytest.raises(ValueError):
        invariance_defect(a, window(Z, [(1,)]), WordMetric(Z))


@settings(max_examples=15, deadline=None)
@given(st.lists(st.integers(-4, 4), min_size=1, max_size=5, unique=True))
def test_restricted_defect_below_full(points):
    a = FiniteWeight.uniform(window(Z, [(p,) for p in points]))
    defect = invariance_defect(a, window(Z, [(1,), (-1,)]), WordMetric(Z))
    assert defect.restricted <= defect.full


# --- uniform approximation -----------------------------------------------------


def test_approx_by_uniform_already_uniform():
    arc = ArcMetric(C)
    a = FiniteWeight.delta(C.element(Fraction(1, 4)))
    approx = approx_by_uniform(a, arc, Fraction(1, 5), grid_sample(C, 60))
    assert list(approx.window) == [C.element(Fraction(1, 4))]
    assert approx.defect == 0


def test_approx_by_uniform_two_atoms():
    arc = ArcMetric(C)
    a = FiniteWeight(C, [(Fraction(0), Fraction(2, 3)), (Fraction(1, 2), Fraction(1, 3))])
    approx = approx_by_uniform(a, arc, Fraction(1, 5), grid_sample(C, 60))
    assert len(approx.window) == 3
    near_zero = [y for y in approx.window if arc.eval(y, C.element(0)) <= Fraction(1, 10)]
    near_half = [
        y for y in approx.window if arc.eval(y, C.element(Fraction(1, 2))) <= Fraction(1, 10)
    ]
    assert len(near_zero) == 2 and len(near_half) == 1
    assert approx.defect <= Fraction(1, 5)


def test_approx_by_uniform_large_epsilon():
    arc = ArcMetric(C)
    a = FiniteWeight(C, [(Fraction(0), Fraction(1, 2)), (Fraction(1, 3), Fraction(1, 2))])
    approx = approx_by_uniform(a, arc, Fraction(2), grid_sample(C, 12))
    assert approx.defect <= 2


def test_approx_by_uniform_supply_too_coarse():
    arc = ArcMetric(C)
    a = FiniteWeight(
        C,
        [
            (Fraction(0), Fraction(5, 11)),
            (Fraction(1, 2), Fraction(6, 11)),
        ],
    )
    with pytest.raises(SupplyError):
        approx_by_uniform(a, arc, Fraction(1, 50), grid_sample(C, 8))


@settings(max_examples=20, deadline=None)
@given(small_weights(F2, st.lists(st.sampled_from([1, -1, 2, -2]), max_size=3).map(F2.element)))
def test_seminorm_right_translation_invariant(a):
    # right translation preserves the seminorm for right-invariant metrics
    d = WordMetric(F2)
    g = F2.parse("a,b")
    shifted = FiniteWeight(F2, [(F2.mul(h, g).data, w) for h, w in zip(a.support, a.weights)])
    assert lipschitz_seminorm(a, d).value == lipschitz_seminorm(shifted, d).value


@settings(max_examples=20, deadline=None)
@given(z_weights)
def test_seminorm_negation_symmetric(a):
    d = WordMetric(Z)
    assert lipschitz_seminorm(a, d).value == lipschitz_seminorm(a.scale(Fraction(-1)), d).value
