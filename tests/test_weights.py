"""Weighted vectors, convolution, the right-averaging transform, and the
bounded-Lipschitz seminorm."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from folnerlab.groups import (
    ArcMetric,
    ScaledMetric,
    WordMetric,
    grid_sample,
    make_model,
    window,
)
from folnerlab.lp import LpError
from folnerlab.suite import _brute_force_two_point
from folnerlab.weights import (
    FiniteWeight,
    SupplyError,
    _check_witness,
    _pair_constraints,
    approx_by_uniform,
    convolve,
    invariance_defect,
    lipschitz_seminorm,
    right_average,
)

from fraction_oracles import fraction_brute_force_two_point, fraction_pair_constraints

Z = make_model("lattice", dim=1)
F2 = make_model("free", rank=2)
C = make_model("circle")

HALF = Fraction(1, 2)
ONE = Fraction(1)


def small_weights(model, elements):
    pair = st.tuples(elements, st.fractions(min_value=-2, max_value=2, max_denominator=6))
    return st.lists(pair, min_size=0, max_size=4).map(lambda ps: FiniteWeight(model, ps))


z_elements = st.integers(-5, 5).map(lambda k: Z.element((k,)))
z_weights = small_weights(Z, z_elements)


# --- construction and norms -------------------------------------------------


def test_zero_weights_dropped():
    a = FiniteWeight(Z, [(Z.element((0,)), Fraction(1)), (Z.element((0,)), Fraction(-1))])
    assert len(a) == 0
    assert a.norm1 == 0


def test_norm_and_stochastic():
    a = FiniteWeight(Z, [(Z.element((0,)), HALF), (Z.element((1,)), HALF)])
    assert a.norm1 == 1
    assert a.is_stochastic()
    b = a - FiniteWeight.delta(Z.element((0,)))
    assert not b.is_stochastic()


def test_weight_json_roundtrip():
    a = FiniteWeight(C, [(C.element(Fraction(2, 3)), Fraction(2, 3)), (C.element(0), Fraction(1, 3))])
    assert FiniteWeight.from_json(a.to_json(), C) == a
    assert a.to_json()["weights"] == ["1/3", "2/3"]


def test_weight_json_length_mismatch():
    # lists of different lengths are refused, not truncated to the shorter
    with pytest.raises(ValueError):
        FiniteWeight.from_json({"support": ["0", "1/2"], "weights": ["1"]}, C)


# --- convolution -------------------------------------------------------------


def test_convolve_deltas():
    g, h = F2.parse("a"), F2.parse("b")
    assert convolve(FiniteWeight.delta(g), FiniteWeight.delta(h)) == FiniteWeight.delta(F2.mul(g, h))


def test_convolve_translation():
    a = FiniteWeight(Z, [(Z.element((0,)), HALF), (Z.element((1,)), HALF)])
    b = FiniteWeight.delta(Z.element((2,)))
    assert convolve(a, b) == FiniteWeight(Z, [(Z.element((2,)), HALF), (Z.element((3,)), HALF)])


def test_convolve_free_symmetric_square():
    a = FiniteWeight(F2, [(F2.parse("a"), HALF), (F2.parse("A"), HALF)])
    sq = convolve(a, a)
    expected = FiniteWeight(
        F2,
        [
            (F2.parse("a,a"), Fraction(1, 4)),
            (F2.identity(), HALF),
            (F2.parse("A,A"), Fraction(1, 4)),
        ],
    )
    assert sq == expected


@settings(max_examples=40, deadline=None)
@given(z_weights, z_weights)
def test_convolution_norm_submultiplicative(a, b):
    ab = convolve(a, b)
    assert ab.norm1 <= a.norm1 * b.norm1
    if all(w > 0 for _, w in a.items) and all(w > 0 for _, w in b.items):
        assert ab.norm1 == a.norm1 * b.norm1


@settings(max_examples=40, deadline=None)
@given(z_weights, z_weights)
def test_convolution_support(a, b):
    products = {Z.mul(g, h) for g, _ in a.items for h, _ in b.items}
    assert all(g in products for g, _ in convolve(a, b).items)


# --- right averaging ---------------------------------------------------------


def test_right_average_identity_weight():
    W = window(Z, [(i,) for i in range(-2, 3)])
    f = {g: Fraction(g.data[0]) for g in grid_sample(Z, 5)}
    out = right_average(FiniteWeight.delta(Z.identity()), f, W)
    assert all(out[x] == f[x] for x in W)


def test_right_average_indicator_shift():
    a = FiniteWeight.delta(Z.element((1,)))
    W = window(Z, [(-1,), (0,), (1,)])
    f = {Z.element((k,)): Fraction(1) if k == 0 else Fraction(0) for k in range(-3, 4)}
    out = right_average(a, f, W)
    assert out[Z.element((-1,))] == 1
    assert out[Z.element((0,))] == 0


def test_right_average_missing_value():
    a = FiniteWeight.delta(Z.element((10,)))
    W = window(Z, [(0,)])
    with pytest.raises(KeyError):
        right_average(a, {Z.element((0,)): Fraction(0)}, W)


@settings(max_examples=30, deadline=None)
@given(z_weights, z_weights)
def test_pairing_identity(a, b):
    # (ab)(f) = a(R_b f) for finitely supported f
    rng = random.Random(99)
    support = grid_sample(Z, 12)
    f = {g: Fraction(rng.randint(-3, 3)) for g in support}
    ab = convolve(a, b)
    if any(g not in support for g, _ in ab.items):
        return
    lhs = ab.apply(lambda g: f[g])
    W = window(Z, [g for g, _ in a.items]) if len(a) else window(Z, [(0,)])
    try:
        rbf = right_average(b, f, W)
    except KeyError:
        return
    rhs = sum((w * rbf[g] for g, w in a.items), Fraction(0))
    assert lhs == rhs


def test_right_average_preserves_lipschitz():
    # stochastic weights keep 1-Lipschitz functions 1-Lipschitz (right-invariant d)
    d = WordMetric(Z)
    a = FiniteWeight(Z, [(Z.element((0,)), HALF), (Z.element((2,)), HALF)])
    W = window(Z, [(i,) for i in range(-2, 3)])
    f = {Z.element((k,)): abs(Fraction(k)) for k in range(-6, 7)}
    out = right_average(a, f, W)
    for x in W:
        for y in W:
            assert abs(out[x] - out[y]) <= d.eval(x, y)


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
        a = FiniteWeight(C, [(C.element(Fraction(p, 12)), w) for p, w in zip(pts, weights)])
        if len(a) == 0:
            continue
        result = lipschitz_seminorm(a, arc)
        support = [g for g, _ in a.items]
        mu = [w for _, w in a.items]
        best = None
        k = len(support)
        dmat = [[arc.eval(support[i], support[j]) for j in range(k)] for i in range(k)]

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
    a = FiniteWeight(
        C,
        [(C.element(0), Fraction(2, 3)), (C.element(Fraction(1, 2)), Fraction(-1, 3))],
    )
    result = lipschitz_seminorm(a, arc)
    achieved = sum(w * result.witness[g] for g, w in a.items)
    assert achieved == result.value
    for g, v in result.witness.items():
        assert -1 <= v <= 1


def test_seminorm_support_cap():
    from folnerlab.weights import SupportSizeError

    big = FiniteWeight(Z, [(Z.element((i,)), Fraction(1)) for i in range(30)])
    with pytest.raises(SupportSizeError):
        lipschitz_seminorm(big, WordMetric(Z), support_cap=10)


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
    return _scaled([[metric.eval(points[min(i, j)], points[max(i, j)]) for j in range(n)] for i in range(n)], span)


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
            assert _pair_constraints(dmat, int(span * scale)) == expected
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
        assert _pair_constraints(dmat, int(span * scale)) == expected


def test_check_witness_rejects_one_unit_past_a_bound():
    # two points at distance 2/5 on the circle, box [-1, 1]
    points = [C.element(0), C.element(Fraction(2, 5))]
    lo, hi = Fraction(-1), Fraction(1)
    _, dmat, scale = _scaled_distances(points, ArcMetric(C), hi - lo)
    unit = Fraction(1, scale)
    _check_witness([Fraction(0), Fraction(2, 5)], dmat, scale, lo, hi)
    with pytest.raises(LpError, match="Lipschitz"):
        _check_witness([Fraction(0), Fraction(2, 5) + unit], dmat, scale, lo, hi)
    with pytest.raises(LpError, match="Lipschitz"):
        _check_witness([Fraction(2, 5) + unit, Fraction(0)], dmat, scale, lo, hi)
    _check_witness([hi, hi], dmat, scale, lo, hi)
    with pytest.raises(LpError, match="bounds"):
        _check_witness([hi + unit, hi + unit], dmat, scale, lo, hi)
    with pytest.raises(LpError, match="bounds"):
        _check_witness([lo - unit, lo - unit], dmat, scale, lo, hi)


def test_check_witness_rejects_a_real_witness_raised_one_unit_too_far():
    rng = random.Random(7102)
    for points, metric in list(_random_supports(rng))[:20]:
        a = FiniteWeight(metric.model, [(g, Fraction(rng.randint(-3, 3), rng.randint(1, 4))) for g in points])
        if len(a) < 2:
            continue
        for lo, hi in ((Fraction(-1), Fraction(1)), (Fraction(0), Fraction(1))):
            if lo != -hi and a.total() != 0:
                a = a - FiniteWeight.delta(a.items[0][0]).scale(a.total())
            result = lipschitz_seminorm(a, metric, bounds=(lo, hi))
            support = [g for g, _ in a.items]
            f = [result.witness[g] for g in support]
            dist, dmat, scale = _scaled_distances(support, metric, hi - lo)
            unit = Fraction(1, scale)
            _check_witness(f, dmat, scale, lo, hi)
            for j in range(len(f)):
                # the largest feasible value at j, the others fixed
                top = min([hi] + [f[i] + dist(i, j) for i in range(len(f)) if i != j])
                _check_witness(f[:j] + [top] + f[j + 1:], dmat, scale, lo, hi)
                with pytest.raises(LpError):
                    _check_witness(f[:j] + [top + unit] + f[j + 1:], dmat, scale, lo, hi)


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
    a = FiniteWeight(
        C, [(C.element(0), Fraction(2, 3)), (C.element(Fraction(1, 2)), Fraction(1, 3))]
    )
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
    a = FiniteWeight(
        C, [(C.element(0), Fraction(1, 2)), (C.element(Fraction(1, 3)), Fraction(1, 2))]
    )
    approx = approx_by_uniform(a, arc, Fraction(2), grid_sample(C, 12))
    assert approx.defect <= 2


def test_approx_by_uniform_supply_too_coarse():
    arc = ArcMetric(C)
    a = FiniteWeight(
        C,
        [
            (C.element(0), Fraction(5, 11)),
            (C.element(Fraction(1, 2)), Fraction(6, 11)),
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
    shifted = FiniteWeight(F2, [(F2.mul(h, g), w) for h, w in a.items])
    assert lipschitz_seminorm(a, d).value == lipschitz_seminorm(shifted, d).value


@settings(max_examples=20, deadline=None)
@given(z_weights)
def test_seminorm_negation_symmetric(a):
    d = WordMetric(Z)
    assert lipschitz_seminorm(a, d).value == lipschitz_seminorm(a.scale(Fraction(-1)), d).value
