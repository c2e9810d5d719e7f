"""Group models: laws, metrics, entourages, windows."""

import copy
import json
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from folnerlab.groups import (
    _LETTERS,
    WINDOW_CAP,
    ArcMetric,
    CertificateError,
    DiscreteMetric,
    Entourage,
    FiniteWindow,
    ModelMismatchError,
    ScaledMetric,
    WindowSizeError,
    WordMetric,
    canonical_json,
    entourage_from_json,
    grid_sample,
    integer_metric,
    make_model,
    metric_from_json,
    model_from_json,
    parse_fraction,
    parse_window,
    symmetric_closure,
    translate_window,
    unscaled,
    window,
    word_ball,
)
from fraction_oracles import fraction_eval
from group_oracles import (
    bfs_word_ball,
    dense_distance_matrix,
    element_format,
    element_parse,
    element_window,
    letterwise_free_mul,
)

Z = make_model("lattice", dim=1)
Z2 = make_model("lattice", dim=2)
F2 = make_model("free", rank=2)
H = make_model("heisenberg")
C = make_model("circle")
T2 = make_model("torus", dim=2)
Z12 = make_model("cyclic", modulus=12)

ALL_MODELS = [Z, Z2, F2, H, C, T2, Z12]
FREE_RANKS = [make_model("free", rank=rank) for rank in (1, 2, 3)]


def lattice_elements(model):
    return st.tuples(*[st.integers(-6, 6)] * model.dim).map(model.element)


def free_elements():
    letters = st.sampled_from([1, -1, 2, -2])
    return st.lists(letters, max_size=6).map(F2.element)


def heis_elements():
    return st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-5, 5)).map(H.element)


def circle_elements():
    return st.fractions(min_value=0, max_value=1, max_denominator=24).map(C.element)


def torus_elements():
    q = st.fractions(min_value=0, max_value=1, max_denominator=12)
    return st.tuples(q, q).map(T2.element)


def cyclic_elements():
    return st.integers(0, 11).map(Z12.element)


MODEL_STRATEGIES = [
    (Z, lattice_elements(Z), WordMetric(Z)),
    (Z2, lattice_elements(Z2), WordMetric(Z2)),
    (F2, free_elements(), WordMetric(F2)),
    (H, heis_elements(), WordMetric(H)),
    (C, circle_elements(), ArcMetric(C)),
    (T2, torus_elements(), ArcMetric(T2)),
    (Z12, cyclic_elements(), WordMetric(Z12)),
]


@pytest.mark.parametrize("model,elements,_", MODEL_STRATEGIES)
def test_group_axioms(model, elements, _):
    @settings(max_examples=40, deadline=None)
    @given(elements, elements, elements)
    def axioms(g, h, k):
        e = model.identity()
        assert model.mul(g, e) == g
        assert model.mul(e, g) == g
        assert model.mul(g, model.inv(g)) == e
        assert model.mul(model.mul(g, h), k) == model.mul(g, model.mul(h, k))

    axioms()


@pytest.mark.parametrize("model,elements,metric", MODEL_STRATEGIES)
def test_metric_axioms_and_right_invariance(model, elements, metric):
    @settings(max_examples=40, deadline=None)
    @given(elements, elements, elements)
    def axioms(x, y, g):
        assert metric.eval(x, x) == 0
        assert metric.eval(x, y) == metric.eval(y, x)
        assert metric.eval(x, y) >= 0
        # right invariance, exactly
        assert metric.eval(model.mul(x, g), model.mul(y, g)) == metric.eval(x, y)

    axioms()


@pytest.mark.parametrize("model,elements,metric", MODEL_STRATEGIES)
def test_triangle_inequality(model, elements, metric):
    @settings(max_examples=40, deadline=None)
    @given(elements, elements, elements)
    def triangle(x, y, z):
        assert metric.eval(x, z) <= metric.eval(x, y) + metric.eval(y, z)

    triangle()


@pytest.mark.parametrize("model,elements,metric", MODEL_STRATEGIES)
def test_inverse_symmetry_at_identity(model, elements, metric):
    @settings(max_examples=40, deadline=None)
    @given(elements)
    def symmetry(g):
        e = model.identity()
        assert metric.eval(g, e) == metric.eval(model.inv(g), e)

    symmetry()


def test_lattice_mul_example():
    assert Z2.mul(Z2.element((1, 0)), Z2.element((0, 1))) == Z2.element((1, 1))


def test_free_reduction_example():
    assert F2.mul(F2.parse("a,b"), F2.parse("B,a")) == F2.parse("a,a")
    assert F2.parse("a,A") == F2.identity()


def test_circle_mul_example():
    assert C.mul(C.parse("3/4"), C.parse("1/2")) == C.parse("1/4")


def test_free_word_metric_right_invariant_form():
    d = WordMetric(F2)
    # d(x, y) = |x y^-1|: d(ab, a) crosses the conjugation, d(ba, a) does not
    assert d.eval(F2.parse("a,b"), F2.parse("a")) == 3
    assert d.eval(F2.parse("b,a"), F2.parse("a")) == 1


def test_circle_arc_examples():
    arc = ArcMetric(C)
    assert arc.eval(C.element(Fraction(9, 10)), C.element(Fraction(1, 20))) == Fraction(3, 20)
    assert arc.eval(C.element(0), C.element(Fraction(1, 2))) == Fraction(1, 2)


def test_discrete_metric():
    d = DiscreteMetric(Z)
    assert d.eval(Z.element((3,)), Z.element((3,))) == 0
    assert d.eval(Z.element((3,)), Z.element((4,))) == 1


def test_scaled_metric():
    arc = ArcMetric(C)
    scaled = ScaledMetric(arc, Fraction(3, 2))
    x, y = C.element(0), C.element(Fraction(2, 5))
    assert scaled.eval(x, y) == Fraction(3, 2) * arc.eval(x, y)


def test_unscaled_multiplies_the_factors():
    arc = ArcMetric(C)
    assert unscaled(arc) == (arc, 1)
    nested = ScaledMetric(ScaledMetric(arc, Fraction(3, 2)), Fraction(4, 9))
    base, factor = unscaled(nested)
    x, y = C.element(0), C.element(Fraction(2, 5))
    assert base is arc and factor == Fraction(2, 3)
    assert nested.eval(x, y) == factor * base.eval(x, y)


def _kernel_metrics(own):
    """The model's own metric, the discrete one, and each scaled and nested
    scaled, with factors whose numerators are 1 and not 1."""
    out = []
    for base in (own, DiscreteMetric(own.model)):
        out += [base, ScaledMetric(base, Fraction(1, 3)), ScaledMetric(ScaledMetric(base, Fraction(5, 6)), Fraction(9, 7))]
    return out


@pytest.mark.parametrize("model,elements,own", MODEL_STRATEGIES)
def test_integer_metric_matches_eval(model, elements, own):
    # Every kernel distance over the kernel's scale is the rule written out
    # in Fractions (`fraction_eval`, not the kernel-backed `eval`), as an
    # int, and so is `eval`; the code of x y is the product of the codes.
    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(elements, elements), min_size=1, max_size=8))
    def kernel(pairs):
        payloads = ([x.data for x, _ in pairs], [y.data for _, y in pairs], [model.mul(x, y).data for x, y in pairs])
        for metric in _kernel_metrics(own):
            scale, (xs, ys, products), mul, dist = integer_metric(metric, *payloads)
            for (x, y), a, b, ab in zip(pairs, xs, ys, products):
                want = fraction_eval(metric, x, y)
                assert type(dist(a, b)) is int
                assert Fraction(dist(a, b), scale) == want, metric.to_json()
                assert metric.eval(x, y) == want, metric.to_json()
                assert mul(a, b) == ab

    kernel()


def _rule_metrics(model):
    """Every rule the model carries, unscaled, scaled and scaled twice."""
    out = []
    for base in (model.default_metric(), DiscreteMetric(model)):
        out += [base, ScaledMetric(base, Fraction(1, 2)), ScaledMetric(ScaledMetric(base, Fraction(3, 4)), Fraction(5, 3))]
    return out


def test_eval_refuses_an_element_of_another_model():
    # Before `eval` was one base-class method, the discrete rule answered 1
    # on two lattice points (1/2 scaled), the torus arc raised a TypeError
    # on circle points, and only the word rule refused; now every rule,
    # scaled or not, refuses each foreign element on either side.
    assert DiscreteMetric(C).eval(C.element(0), C.element(Fraction(1, 2))) == 1
    for model in ALL_MODELS:
        own = [model.identity(), model.element(model.generators()[0])]
        for metric in _rule_metrics(model):
            for other in ALL_MODELS:
                if other is model:
                    continue
                foreign = [other.identity(), other.element(other.generators()[-1])]
                for x in foreign:
                    for y in own + foreign:
                        with pytest.raises(ModelMismatchError):
                            metric.eval(x, y)
                        with pytest.raises(ModelMismatchError):
                            metric.eval(y, x)
                    with pytest.raises(ModelMismatchError):
                        metric.distance_to_identity(x)
                    with pytest.raises(ModelMismatchError):
                        Entourage(metric, Fraction(1)).contains(x)
    with pytest.raises(ModelMismatchError):
        DiscreteMetric(C).eval(Z.element((1,)), Z.element((2,)))
    with pytest.raises(ModelMismatchError):
        ScaledMetric(DiscreteMetric(C), Fraction(1, 2)).eval(Z.element((1,)), Z.element((2,)))
    with pytest.raises(ModelMismatchError):
        ArcMetric(T2).eval(C.element(Fraction(1, 3)), C.element(Fraction(1, 2)))


def test_metric_constructors_refuse_a_rule_the_model_does_not_carry():
    for model in ALL_MODELS:
        own, other = (WordMetric, ArcMetric) if model.discrete else (ArcMetric, WordMetric)
        assert own(model).model is model and DiscreteMetric(model).model is model
        reason = f"{model.kind} has no {other.rule} metric"
        with pytest.raises(ValueError, match=f"^{reason}$"):
            other(model)
        for obj, path in (({"rule": other.rule}, "rule"),
                          ({"rule": "scaled", "factor": "2", "base": {"rule": other.rule}}, "base.rule")):
            with pytest.raises(CertificateError) as exc:
                metric_from_json(obj, model)
            assert (exc.value.path, exc.value.reason) == (path, reason)


def test_entourage_membership():
    U = Entourage(ArcMetric(C), Fraction(1, 10))
    assert U.contains(C.element(Fraction(1, 12)))
    assert not U.contains(C.element(Fraction(1, 8)))
    U0 = Entourage(WordMetric(Z), Fraction(0))
    assert U0.contains(Z.identity())


def test_entourage_monotone():
    d = ArcMetric(C)
    small = Entourage(d, Fraction(1, 20))
    big = Entourage(d, Fraction(1, 5))
    for k in range(24):
        g = C.element(Fraction(k, 24))
        if small.contains(g):
            assert big.contains(g)


def test_grid_sample_circle():
    assert [C.format(g) for g in grid_sample(C, 4)] == ["0", "1/4", "1/2", "3/4"]


def test_grid_sample_free_ball_sizes():
    # |B_n| = 2 * 3^n - 1 for rank 2; grid_sample rejects n = 0
    assert len(word_ball(F2, 0)) == 1
    for n in range(1, 5):
        assert len(grid_sample(F2, n)) == 2 * 3**n - 1


def test_grid_sample_lattice():
    assert len(grid_sample(Z, 3)) == 7
    assert len(grid_sample(Z2, 2)) == 13  # l1 ball


def _heisenberg_bfs(radius):
    """Word length of every payload within `radius`, by an independent BFS
    over the four generators."""
    dist = {(0, 0, 0): 0}
    frontier = [(0, 0, 0)]
    gens = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)]
    for r in range(1, radius + 1):
        nxt = []
        for a, b, c in frontier:
            for da, db, _dc in gens:
                cand = (a + da, b + db, c + a * db)
                if cand not in dist:
                    dist[cand] = r
                    nxt.append(cand)
        frontier = nxt
    return dist


def test_heisenberg_ball_growth():
    for radius in range(0, 5):
        assert set(word_ball(H, radius).positions) == set(_heisenberg_bfs(radius))


def test_heisenberg_length_matches_bfs_both_ways():
    # Every payload of the radius-16 ball has its BFS length, and no payload
    # of the surrounding box outside the ball has a closed length <= 16.
    radius = 16
    dist = _heisenberg_bfs(radius)
    for x, d in dist.items():
        assert H._length_data(x) == d, x
    span, c_span = radius + 1, (radius + 1) ** 2 // 4 + 1
    for a in range(-span, span + 1):
        for b in range(-span, span + 1):
            for c in range(-c_span, c_span + 1):
                if (a, b, c) not in dist:
                    assert H._length_data((a, b, c)) > radius, (a, b, c)


def _far_heisenberg_payloads(rng, count):
    """Seeded payloads with |a|, |b| <= 1000 and |c| <= 10^6, half of them
    with c on or next to a boundary of the closed form's cases."""
    out = []
    for k in range(count):
        a, b = rng.randint(-1000, 1000), rng.randint(-1000, 1000)
        if k % 2:
            edge = rng.choice((abs(a * b), max(a * a, b * b), min(a * a, b * b)))
            c = rng.choice((1, -1)) * min(10**6, edge + rng.randint(-2, 2))
        else:
            c = rng.randint(-(10**6), 10**6)
        out.append((a, b, c))
    return out


def test_heisenberg_length_local_certificate_on_far_payloads():
    # A length function that moves by exactly one along every generator and
    # drops by one along some generator is the word length (it is zero only
    # at the identity); check both conditions at seeded far payloads.
    rng = random.Random(12)
    gens = H.generators()
    for g in _far_heisenberg_payloads(rng, 400) + [(0, 0, 10**6), (1000, -1000, -(10**6))]:
        length = H._length_data(g)
        steps = [H._length_data(H._mul_data(g, s)) - length for s in gens]
        assert all(abs(step) == 1 for step in steps), g
        assert -1 in steps, g


def test_heisenberg_word_metric_matches_ball():
    ball3 = word_ball(H, 3)
    d = WordMetric(H)
    for g in ball3:
        assert d.eval(g, H.identity()) <= 3


def test_window_cap():
    with pytest.raises(WindowSizeError):
        word_ball(F2, 12, cap=1000)
    # the cap is checked before a sphere is built: exactly |ball| passes
    for model in FREE_RANKS + [Z2, H]:
        for radius in range(7 if model.kind == "free" else 4):
            size = len(bfs_word_ball(model, radius, WINDOW_CAP))
            assert len(word_ball(model, radius, cap=size)) == size
            if radius:
                with pytest.raises(WindowSizeError):
                    word_ball(model, radius, cap=size - 1)
                with pytest.raises(WindowSizeError):
                    bfs_word_ball(model, radius, cap=size - 1)


def test_translate_window():
    F = window(Z, [(0,), (1,), (2,)])
    assert translate_window(Z.element((1,)), F).to_json() == ["1", "2", "3"]
    Fc = window(C, [Fraction(0), Fraction(3, 4)])
    assert translate_window(C.element(Fraction(1, 2)), Fc).to_json() == ["1/4", "1/2"]
    assert translate_window(Z.identity(), F) == F


def test_translate_preserves_cardinality():
    F = grid_sample(F2, 2)
    for s in F2.generators():
        assert len(translate_window(F2.element(s), F)) == len(F)


def test_window_dedup_and_order():
    w = window(Z, [(3,), (1,), (3,), (2,)])
    assert w.to_json() == ["1", "2", "3"]
    assert FiniteWindow.from_json(w.to_json(), Z) == w


def test_symmetric_closure():
    closed = symmetric_closure(F2, [F2.parse("a")])
    assert F2.parse("A") in closed and F2.parse("a") in closed


def test_model_mismatch():
    with pytest.raises(ModelMismatchError):
        Z.mul(Z.element((0,)), C.element(Fraction(0)))


def test_model_serialization_roundtrip():
    for model in ALL_MODELS:
        restored = model_from_json(model.to_json())
        assert restored is model
        assert copy.deepcopy(model) is model
        assert pickle.loads(pickle.dumps(model)) is model
        metric = metric_from_json(model.to_json()["metric"], restored)
        assert metric == model.default_metric()
    spellings = [
        make_model("lattice"),
        make_model("lattice", dim=1),
        model_from_json({"kind": "lattice", "params": {"dim": "1"}}),
    ]
    assert all(m is Z for m in spellings)


def test_element_encoding_roundtrip():
    cases = [
        (Z2, "1,-2"),
        (F2, "a,B"),
        (F2, "e"),
        (C, "3/4"),
        (T2, "1/2,3/4"),
        (H, "1,0,2"),
        (Z12, "5"),
    ]
    for model, text in cases:
        assert model.format(model.parse(text)) == text


def test_entourage_serialization_roundtrip():
    U = Entourage(ScaledMetric(ArcMetric(C), Fraction(12)), Fraction(1, 2))
    restored = entourage_from_json(U.to_json(), C)
    assert restored.radius == U.radius
    assert restored.metric == U.metric


def test_parse_fraction_rejects_floats():
    with pytest.raises(ValueError):
        parse_fraction("0.25")
    assert parse_fraction("3/4") == Fraction(3, 4)


def test_cyclic_generators_reach_everything():
    reached = {Z12.identity()}
    frontier = [Z12.identity()]
    while frontier:
        nxt = []
        for g in frontier:
            for s in Z12.generators():
                h = Z12.mul(g, Z12.element(s))
                if h not in reached:
                    reached.add(h)
                    nxt.append(h)
        frontier = nxt
    assert len(reached) == 12


# ---------------------------------------------------------------------------
# the dense distance-matrix oracle against per-pair eval
# ---------------------------------------------------------------------------


def _random_payload(model, rng):
    if model.kind == "free":
        letters = tuple(x for i in range(1, model.rank + 1) for x in (i, -i))
        return [rng.choice(letters) for _ in range(rng.randint(0, 6))]
    if model is H:
        return (rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(-6, 6))
    if model is Z12:
        return rng.randint(0, 11)
    if model is C:
        q = rng.randint(1, 24)
        return Fraction(rng.randrange(q), q)
    if model is T2:
        return tuple(Fraction(rng.randrange(q), q) for q in (rng.randint(1, 12), rng.randint(1, 12)))
    return tuple(rng.randint(-6, 6) for _ in range(model.dim))


def _metrics(model):
    """Every metric rule on the model: word or arc, discrete, and one- and
    two-level rational rescalings of each."""
    bases = [model.default_metric(), DiscreteMetric(model)]
    out = list(bases)
    for base in bases:
        out.append(ScaledMetric(base, Fraction(3, 4)))
        out.append(ScaledMetric(ScaledMetric(base, Fraction(5, 6)), Fraction(2, 7)))
    return out


def _eval_error(metric, points):
    """The type of the first error that the per-pair Fraction rule raises, or None."""
    for x in points:
        for y in points:
            try:
                fraction_eval(metric, x, y)
            except Exception as exc:
                return type(exc)
    return None


def _assert_matrix_matches_eval(metric, points):
    error = _eval_error(metric, points)
    if error is not None:
        with pytest.raises(error):
            dense_distance_matrix(metric, points)
        return
    rows, scale = dense_distance_matrix(metric, points)
    n = len(points)
    assert type(scale) is int and scale >= 1
    assert len(rows) == n and all(len(row) == n for row in rows)
    for i in range(n):
        assert rows[i][i] == 0
        for j in range(n):
            assert type(rows[i][j]) is int
            assert rows[i][j] == rows[j][i]
            d = fraction_eval(metric, points[i], points[j])
            assert rows[i][j] * d.denominator == d.numerator * scale


@pytest.mark.parametrize("model", ALL_MODELS, ids=repr)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_distance_matrix_matches_eval(model, seed):
    rng = random.Random(f"{model!r}:{seed}")
    points = [model.element(_random_payload(model, rng)) for _ in range(rng.randint(0, 12))]
    if points:
        points.append(points[0])  # a repeated point is at distance 0
    for metric in _metrics(model):
        _assert_matrix_matches_eval(metric, points)


@pytest.mark.parametrize("metric", [WordMetric(Z2), ScaledMetric(WordMetric(Z2), Fraction(1, 3))], ids=["word", "scaled"])
def test_distance_matrix_rejects_a_foreign_point(metric):
    points = [Z2.element((0, 0)), Z2.element((1, 2)), Z.element((1,))]
    assert _eval_error(metric, points) is ModelMismatchError
    _assert_matrix_matches_eval(metric, points)


def test_distance_matrix_past_the_heisenberg_length_radius():
    metric = ScaledMetric(WordMetric(H), Fraction(1, 2))
    points = [H.element((0, 0, 0)), H.element((1, 0, 0)), H.element((0, 0, 10**6))]
    assert _eval_error(metric, points) is None
    _assert_matrix_matches_eval(metric, points)
    assert WordMetric(H).eval(points[2], H.identity()) == 4000


def test_heisenberg_far_payload_lengths_without_model_state():
    lengths = {(0, 0, -401): 82, (41, 0, 0): 41, (20, -21, 0): 41, (20, 20, 0): 40}
    for far, length in lengths.items():
        assert H._length_data(far) == length
    assert vars(make_model("heisenberg")) == {}


def test_heisenberg_length_bounds_are_tight():
    # A word of length n has |a| + |b| <= n and, since each b-letter moves
    # c by the current a, |c| <= floor(n^2 / 4); both bounds are reached.
    for n in range(1, 11):
        ball = word_ball(H, n).positions
        assert max(abs(a) + abs(b) for a, b, _ in ball) == n
        assert max(abs(c) for _, _, c in ball) == n * n // 4


# ---------------------------------------------------------------------------
# Payload windows against the element-keyed construction
# ---------------------------------------------------------------------------

DIFFERENTIAL_MODELS = [Z, Z2, F2, H, C, T2, Z12]


def _oracle_key(g):
    if g.model.kind == "free":  # shortlex, a < a^-1 < b < b^-1
        return (len(g.data), tuple(2 * (abs(x) - 1) + (1 if x < 0 else 0) for x in g.data))
    return g.data


@pytest.mark.parametrize("rank", [1, 2, 3, 26])
def test_free_payload_key_sorts_as_the_arithmetic_shortlex_key(rank):
    model = make_model("free", rank=rank)
    rng = random.Random(rank)
    letters = [sign * i for i in range(1, rank + 1) for sign in (1, -1)]
    words = [tuple(rng.choice(letters) for _ in range(rng.randint(0, 8))) for _ in range(2000)]
    oracle = [(len(w), tuple(2 * (abs(x) - 1) + (1 if x < 0 else 0) for x in w)) for w in words]
    assert [model.payload_key(w) for w in words] == oracle
    assert sorted(words, key=model.payload_key) == [w for _, w in sorted(zip(oracle, words))]


def _oracle(model, elements):
    """Windows as they were built before payload tables: deduplicated on
    `GroupElement`s, sorted by a per-element key, indexed by element."""
    seen = {}
    for g in elements:
        if g.model != model:
            raise ModelMismatchError("window element from a different model")
        seen[g] = None
    ordered = tuple(sorted(seen, key=_oracle_key))
    return ordered, {g: i for i, g in enumerate(ordered)}


def _oracle_ball(model, radius):
    ball = {model.identity()}
    for _ in range(radius):
        ball |= {model.mul(x, model.element(s)) for x in ball for s in model.generators()}
    return ball


def _assert_window_matches(w, model, elements, probes):
    ordered, index = _oracle(model, elements)
    assert w.model is model
    assert w.elements == ordered and list(w) == list(ordered) and len(w) == len(ordered)
    assert w.positions == {g.data: i for g, i in index.items()}
    for g, i in index.items():
        assert g in w and w.index(g) == i and w[i] == g
    for p in probes:
        assert (p in w) == (p in index)
    assert w == FiniteWindow(model, reversed(ordered))
    assert FiniteWindow.from_json(w.to_json(), model) == w


@pytest.mark.parametrize("model", DIFFERENTIAL_MODELS, ids=repr)
@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_payload_window_matches_element_oracle(model, seed):
    rng = random.Random(f"window:{model!r}:{seed}")
    points = [model.element(_random_payload(model, rng)) for _ in range(rng.randint(0, 30))]
    points += rng.sample(points, len(points) // 3)  # repeats
    probes = [model.element(_random_payload(model, rng)) for _ in range(20)]
    w = FiniteWindow(model, points)
    _assert_window_matches(w, model, points, probes)
    for g in [model.identity()] + probes[:4]:
        _assert_window_matches(translate_window(g, w), model, [model.mul(g, x) for x in w], probes)


def _sorting_translate(g, F):
    """The translate that sorts every window, as `translate_window` did on
    all models before it shifted lattice, Heisenberg and circle tables."""
    model = F.model
    return FiniteWindow._from_payloads(model, [model._mul_data(g.data, x) for x in F.positions])


def _lattice_payloads(dim):
    return st.tuples(*[st.integers(-5, 5)] * dim)


def _circle_payloads():
    return st.integers(1, 24).flatmap(lambda q: st.integers(0, q - 1).map(lambda p: Fraction(p, q)))


SHIFTED_MODELS = {
    "Z": (Z, _lattice_payloads(1)),
    "Z2": (Z2, _lattice_payloads(2)),
    "Z3": (make_model("lattice", dim=3), _lattice_payloads(3)),
    "H": (H, st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-6, 6))),
    "C": (C, _circle_payloads()),
    # models that keep the sort
    "F2": (F2, st.lists(st.sampled_from([1, -1, 2, -2]), max_size=4).map(F2._canonical)),
    "Z12": (Z12, st.integers(0, 11)),
}


@pytest.mark.parametrize("name", sorted(SHIFTED_MODELS))
@settings(max_examples=40, deadline=None)
@given(st.data())
def test_sort_free_translate_matches_sorting_translate(name, data):
    model, payloads = SHIFTED_MODELS[name]
    F = FiniteWindow._from_payloads(model, data.draw(st.lists(payloads, max_size=25)))
    # the identity, a random shift, and on the circle the shifts that carry
    # a point exactly onto 0 (the wrap-around boundary)
    shifts = [model.identity().data, data.draw(payloads)]
    if model is C:
        shifts += [(1 - x) % 1 for x in F.positions]
    for a in shifts:
        g = model.element(a)
        got, want = translate_window(g, F), _sorting_translate(g, F)
        assert list(got.positions.items()) == list(want.positions.items())
        assert got.elements == want.elements and got == want


@pytest.mark.parametrize(
    "model", [m for m in DIFFERENTIAL_MODELS if m.discrete] + [FREE_RANKS[0], FREE_RANKS[2]], ids=repr
)
def test_word_ball_and_grid_match_element_oracle(model):
    rng = random.Random(f"ball:{model!r}")
    probes = [model.element(_random_payload(model, rng)) for _ in range(20)]
    for radius in range(4):
        ball = _oracle_ball(model, radius)
        _assert_window_matches(word_ball(model, radius), model, ball, probes)
        if radius:
            _assert_window_matches(grid_sample(model, radius), model, ball, probes)
    # free balls are generated in shortlex order; the breadth-first search sorts
    for radius in range(7 if model.kind == "free" else 4):
        ball, oracle = word_ball(model, radius), bfs_word_ball(model, radius, WINDOW_CAP)
        assert ball == oracle and ball.elements == oracle.elements
        if model.kind == "free":
            # |B_n| = 1 + 2k((2k - 1)^n - 1) / (2k - 2) for rank k >= 2, 2n + 1 for rank 1
            k = model.rank
            assert len(ball) == (2 * radius + 1 if k == 1 else 1 + k * ((2 * k - 1) ** radius - 1) // (k - 1))


def _random_reduced(rng, rank, length):
    word = []
    while len(word) < length:
        letter = rng.choice([sign * i for i in range(1, rank + 1) for sign in (1, -1)])
        if not word or word[-1] != -letter:
            word.append(letter)
    return tuple(word)


@pytest.mark.parametrize("model", FREE_RANKS + [make_model("free", rank=26)], ids=repr)
def test_junction_product_matches_letterwise_oracle(model):
    rng = random.Random(f"junction:{model.rank}")
    shapes = {"random": 0, "full": 0, "partial": 0, "identity": 0}
    for _ in range(3000):
        a = _random_reduced(rng, model.rank, rng.randint(0, 9))
        inverse = model._inv_data(a)
        shape = rng.choice(sorted(shapes))
        if shape == "random":
            b = _random_reduced(rng, model.rank, rng.randint(0, 9))
        elif shape == "full":
            b = inverse
        elif shape == "partial":  # cancel a suffix of a, then go on
            b = inverse[: rng.randint(0, len(a))]
            b = letterwise_free_mul(b, _random_reduced(rng, model.rank, rng.randint(0, 4)))
        else:
            b = ()
            a, b = (a, b) if rng.random() < 0.5 else (b, a)
        shapes[shape] += 1
        assert model._mul_data(a, b) == letterwise_free_mul(a, b), (a, b)
        assert model._mul_data(a, model._inv_data(a)) == ()
    assert min(shapes.values()) > 0


@pytest.mark.parametrize("model, resolution", [(C, 12), (T2, 4)], ids=["circle", "torus"])
def test_grid_sample_matches_element_oracle(model, resolution):
    rng = random.Random(f"grid:{model!r}")
    probes = [model.element(_random_payload(model, rng)) for _ in range(20)]
    ticks = [Fraction(k, resolution) for k in range(resolution)]
    points = [model.element(t) for t in ticks] if model is C else [
        model.element((s, t)) for s in ticks for t in ticks
    ]
    _assert_window_matches(grid_sample(model, resolution), model, points, probes)


def test_payload_window_with_colliding_free_hashes():
    # CPython hashes -1 and -2 alike, so a^-1 and b^-1 collide as payloads.
    inverse_a, inverse_b = F2.parse("A"), F2.parse("B")
    assert hash(inverse_a.data) == hash(inverse_b.data)
    words = [F2.element(w) for w in ([-1], [-2], [-1, -2], [-2, -1], [-1, -1], [-2, -2], [], [1])]
    w = FiniteWindow(F2, words + words[:3])
    _assert_window_matches(w, F2, words, [inverse_a, inverse_b, F2.parse("a,b")])
    assert w.index(inverse_a) != w.index(inverse_b)
    assert w.to_json() == ["e", "a", "A", "B", "A,A", "A,B", "B,A", "B,B"]


def test_payload_window_rejects_foreign_elements():
    # Z and F2 share the payload (1,): only the model tells them apart.
    w = window(Z, [(0,), (1,)])
    foreign = F2.element((1,))
    assert foreign.data in w.positions
    assert foreign not in w
    with pytest.raises(KeyError):
        w.index(foreign)
    with pytest.raises(ModelMismatchError):
        FiniteWindow(Z, [Z.element((0,)), foreign])
    with pytest.raises(ModelMismatchError):
        translate_window(foreign, w)
    # Z12 and the circle share the payload 0 == Fraction(0).
    assert window(Z12, [0]) != window(C, [0])
    assert C.identity() not in window(Z12, [0])


# ---------------------------------------------------------------------------
# the canonical writer against the stdlib encoder
# ---------------------------------------------------------------------------

# strings that need escaping: quotes, backslashes, control characters,
# non-ASCII and astral code points, beside any character at all
_JSON_TEXT = st.text(st.sampled_from('a"\\/\b\f\n\r\t\x00\x1f\x7f\xe9\u2028\u2603\U0001f600') | st.characters(), max_size=6)
_JSON_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.integers(-(2**80), 2**80)
    | st.floats() | st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0]) | _JSON_TEXT
)
_INT_ROWS = st.lists(st.lists(st.integers() | st.booleans(), min_size=1, max_size=3), max_size=4)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(_JSON_TEXT, inner, max_size=4)
        | st.lists(_JSON_TEXT, max_size=4)
        | st.lists(st.integers(), max_size=4)
        | _INT_ROWS
        # int rows mixed with other items, and with empty rows
        | st.lists(st.lists(st.integers(), max_size=3) | inner, max_size=4)
    ),
    max_leaves=30,
)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(_JSON_VALUES)
def test_canonical_json_matches_the_stdlib_encoder(value):
    assert canonical_json(value) == json.dumps(value, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize(
    "value",
    [Fraction(1, 2), [1, Fraction(1)], {"a": [{"b": Fraction(1)}]}, {1: "x"}, {"a": {(1,): 2}}, {None: 0}, {1, 2}],
    ids=["fraction", "fraction-item", "nested-fraction", "int-key", "tuple-key", "none-key", "set"],
)
def test_canonical_json_refuses_what_is_not_json_with_string_keys(value):
    with pytest.raises(TypeError):
        canonical_json(value)


# ---------------------------------------------------------------------------
# windows on payloads against the element path
# ---------------------------------------------------------------------------

# spellings of elements that are not their canonical text, per model
_SPELLINGS = {
    "lattice": [" 3", "+3", "-0", "007"],
    "free": ["a,A,b", "e", "", " a , B ", "A,a,a", "b,a,A,B", " e ", "a,A"],
    "heisenberg": ["1, -2,+3", "0,0,0", " -1,1,-0"],
    "circle": ["2/4", "7/4", " 1/2 ", "-1/3", "3", "+1/2", "24/8"],
    "torus": ["1/2, 7/4", "2/4,0", "-1/3,+1"],
    "cyclic": ["13", "-1", "+3", " 5", "24"],
}
# entries that name no element, per model
_BAD_ENTRIES = {
    "lattice": ["x", "1.5", "", "1,,2"],
    "free": ["a,,a", "ab", "e,a", "1", "a,"],
    "heisenberg": ["1,2", "1,2,3,4", "a,b,c"],
    "circle": ["1/0", "0.5", "x", "1e2"],
    "torus": ["1/2", "1/0,0", "0.5,0"],
    "cyclic": ["x", "1/2", "1.0"],
}


def _spelled(model, rng) -> str:
    if model.kind == "lattice" and model.dim > 1:  # a spelling per coordinate
        return ",".join(rng.choice(_SPELLINGS["lattice"]) for _ in range(model.dim))
    if model.kind == "free":  # the spellings in the model's letters
        return rng.choice([t for t in _SPELLINGS["free"] if set(t) <= set(model.letters) | set(" ,e")])
    return rng.choice(_SPELLINGS[model.kind])


def _bad_entries(model) -> list[str]:
    if model.kind == "free":  # and the first letter past the rank
        return _BAD_ENTRIES["free"] + [_LETTERS[model.rank]]
    return _BAD_ENTRIES[model.kind]


def _window_texts(model, rng) -> list[str]:
    texts = [element_format(model.element(_random_payload(model, rng))) for _ in range(rng.randint(0, 25))]
    texts += [_spelled(model, rng) for _ in range(rng.randint(0, 6))]
    texts += rng.sample(texts, len(texts) // 4)  # repeats
    rng.shuffle(texts)
    return texts


@pytest.mark.parametrize("model", DIFFERENTIAL_MODELS + [FREE_RANKS[0], FREE_RANKS[2]], ids=repr)
def test_payload_window_io_matches_element_path(model):
    rng = random.Random(f"window-io:{model!r}")
    for _ in range(60):
        texts = _window_texts(model, rng)
        got, want = FiniteWindow.from_json(texts, model), element_window(model, texts)
        assert got == want and got.elements == want.elements
        assert got.to_json() == [element_format(g) for g in want.elements]
        for text in texts:
            assert model.parse(text) == element_parse(model, text)
            assert model.format(model.parse(text)) == element_format(element_parse(model, text))


@pytest.mark.parametrize("model", DIFFERENTIAL_MODELS + [FREE_RANKS[0], FREE_RANKS[2]], ids=repr)
def test_parse_window_names_each_bad_or_repeated_entry(model):
    rng = random.Random(f"window-errors:{model!r}")
    bad_entries = _bad_entries(model)
    for _ in range(40):
        texts = list(dict.fromkeys(element_format(element_parse(model, t)) for t in _window_texts(model, rng)))
        k = rng.randint(0, len(texts))
        bad = texts[:k] + [rng.choice(bad_entries)] + texts[k:]
        with pytest.raises(ValueError):
            element_parse(model, bad[k])
        with pytest.raises(CertificateError) as info:
            parse_window(bad, model, "F")
        assert info.value.path == f"F[{k}]"
        assert parse_window(texts, model, "F") == element_window(model, texts)
        if not texts:
            continue
        # a spelling of an earlier element is named at its first repeat
        j = rng.randrange(len(texts))
        at, again = rng.randint(j + 1, len(texts)), texts[:]
        again.insert(at, rng.choice([texts[j], " " + texts[j]]))
        with pytest.raises(CertificateError, match="repeats an element") as info:
            parse_window(again, model, "F")
        assert info.value.path == f"F[{at}]"
