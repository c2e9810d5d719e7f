"""Bipartite matching: Hall identity against exhaustive enumeration,
perfect matchings, and the entourage-induced graphs."""

import itertools
import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from folnerlab import matching
from folnerlab.groups import (
    ArcMetric,
    DiscreteMetric,
    Entourage,
    ModelMismatchError,
    ScaledMetric,
    WordMetric,
    grid_sample,
    make_model,
    translate_window,
    window,
    word_ball,
)
from folnerlab.matching import (
    BipartiteInstance,
    MatchingResult,
    _ball,
    _listed_rows,
    brute_force_matching_number,
    build_graph,
    max_matching,
    near_pairs,
)

from fraction_oracles import fraction_eval
from group_oracles import dense_distance_matrix
from matching_oracles import phased_hopcroft_karp

Z = make_model("lattice", dim=1)
C = make_model("circle")


def _instance(adjacency, n_right):
    left = window(Z, [(i,) for i in range(len(adjacency))])
    right = window(Z, [(j,) for j in range(max(n_right, 1))])
    return BipartiteInstance(left=left, right=right, adjacency=adjacency)


def exhaustive_deficiency(adjacency):
    n = len(adjacency)
    worst = 0
    for r in range(n + 1):
        for subset in itertools.combinations(range(n), r):
            nbhd = set()
            for i in subset:
                nbhd.update(adjacency[i])
            worst = max(worst, len(subset) - len(nbhd))
    return worst


adjacency_lists = st.lists(
    st.lists(st.integers(0, 7), max_size=8).map(lambda row: sorted(set(row))),
    min_size=1,
    max_size=8,
)


@settings(max_examples=120, deadline=None)
@given(adjacency_lists)
def test_hall_identity_random(adjacency):
    inst = _instance(adjacency, 8)
    result = max_matching(inst)
    assert result.mu == len(adjacency) - exhaustive_deficiency(adjacency)
    assert result.witness_deficiency() == exhaustive_deficiency(adjacency)


@settings(max_examples=80, deadline=None)
@given(adjacency_lists)
def test_mu_matches_brute_force(adjacency):
    inst = _instance(adjacency, 8)
    assert max_matching(inst).mu == brute_force_matching_number(inst)


@settings(max_examples=80, deadline=None)
@given(adjacency_lists)
def test_perfect_iff_hall(adjacency):
    inst = _instance(adjacency, 8)
    result = max_matching(inst)
    hall = exhaustive_deficiency(adjacency) == 0
    assert result.perfect == hall
    if not result.perfect:
        nbhd = set()
        for i in result.witness:
            nbhd.update(adjacency[i])
        assert len(result.witness) > len(nbhd)


@settings(max_examples=150, deadline=None)
@given(adjacency_lists, st.data())
def test_non_maximum_matching_fails_with_every_witness(adjacency, data):
    # A certificate's verify re-solves no matching: a valid pairing below
    # the matching number must fail `check_valid` whatever witness it
    # carries, since |M| <= |E| - |S| + |N(S)| for every matching M and set S.
    inst = _instance(adjacency, 8)
    best = brute_force_matching_number(inst)
    if best == 0:
        return
    edges = data.draw(st.permutations([(i, j) for i, row in enumerate(adjacency) for j in row]))
    pairing, used = {}, set()
    for i, j in edges:
        if i not in pairing and j not in used:
            pairing[i] = j
            used.add(j)
    keep = data.draw(st.integers(0, best - 1))
    pairing = dict(sorted(pairing.items())[:keep])
    witness = data.draw(
        st.one_of(
            st.just(max_matching(inst).witness),
            st.lists(st.integers(0, len(adjacency) - 1), unique=True).map(lambda w: tuple(sorted(w))),
        )
    )
    short = MatchingResult(instance=inst, pairing=pairing, mu=len(pairing), witness=witness, perfect=False)
    with pytest.raises(ValueError, match="Hall identity violated"):
        short.check_valid()


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_greedy_first_phase_matches_phased_hopcroft_karp(data):
    # Rows of any length, empty ones too, in any order: the greedy first
    # phase must leave the later phases exactly the matching they had.
    n_right = data.draw(st.integers(0, 12))
    columns = st.integers(0, n_right - 1) if n_right else st.nothing()
    adjacency = data.draw(st.lists(st.lists(columns, unique=True), max_size=12))
    assert matching._hopcroft_karp(adjacency, n_right) == phased_hopcroft_karp(adjacency, n_right)
    inst = _instance(adjacency, n_right)
    fast = max_matching(inst)
    with mock.patch.object(matching, "_hopcroft_karp", phased_hopcroft_karp):
        slow = max_matching(inst)
    assert (fast.pairing, fast.mu, fast.witness, fast.perfect) == (slow.pairing, slow.mu, slow.witness, slow.perfect)


def test_star_instance():
    inst = _instance([[0], [0], [0]], 1)
    result = max_matching(inst)
    assert result.mu == 1
    assert set(result.witness) == {0, 1, 2}
    assert result.witness_deficiency() == 2
    assert not result.perfect and len(result.witness) == 3


def test_complete_bipartite():
    n = 5
    inst = _instance([list(range(n)) for _ in range(n)], n)
    result = max_matching(inst)
    assert result.mu == n and result.perfect
    assert result.witness_deficiency() == 0


def test_build_graph_discrete_intersection():
    E = window(Z, [(0,), (1,), (2,)])
    F = window(Z, [(1,), (2,), (3,)])
    U = Entourage(WordMetric(Z), Fraction(0))
    inst = build_graph(E, F, U)
    assert max_matching(inst).mu == 2  # |E meet F|


def test_build_graph_circle_rotation():
    E = window(C, [Fraction(0), Fraction(3, 10)])
    F = window(C, [Fraction(1, 20), Fraction(7, 20)])
    U = Entourage(ArcMetric(C), Fraction(1, 10))
    inst = build_graph(E, F, U)
    result = max_matching(inst)
    assert result.mu == 2
    assert result.mu == brute_force_matching_number(inst)
    assert result.perfect


def test_build_graph_empty_left():
    E = window(Z, [])
    F = window(Z, [(0,)])
    U = Entourage(WordMetric(Z), Fraction(0))
    assert max_matching(build_graph(E, F, U)).mu == 0


def pair_oracle(E, F, U):
    """Test every pair: the definition that `build_graph` lists rows for,
    with distances from the Fraction rules, not the package's kernel."""
    model = E.model
    e = model.identity()
    rows = []
    for x in E:
        x_inv = model.inv(x)
        rows.append([j for j, y in enumerate(F) if fraction_eval(U.metric, model.mul(y, x_inv), e) <= U.radius])
    return rows


def _listed(E, F, U):
    return build_graph(E, F, U).adjacency


def _outcome(build, E, F, U):
    try:
        return build(E, F, U)
    except Exception as exc:  # both sides must fail the same way
        return type(exc)


ORACLE_POOLS = [
    (Z, word_ball(Z, 6)),
    (make_model("lattice", dim=2), word_ball(make_model("lattice", dim=2), 4)),
    (make_model("free", rank=2), word_ball(make_model("free", rank=2), 3)),
    (make_model("heisenberg"), word_ball(make_model("heisenberg"), 3)),
    (C, window(C, [Fraction(k, 24) for k in range(24)] + [Fraction(k, 36) for k in range(0, 36, 5)])),
    (make_model("torus", dim=2), grid_sample(make_model("torus", dim=2), 6)),
    (make_model("cyclic", modulus=12), grid_sample(make_model("cyclic", modulus=12), 6)),
]
ORACLE_RADII = [Fraction(0), Fraction(1, 24), Fraction(1, 3), Fraction(1, 2), Fraction(3, 5),
                Fraction(1), Fraction(5, 3), Fraction(3), Fraction(100)]


def test_adjacency_reproducible_and_fastpath_consistent():
    # Listed rows must equal the pair test's rows as lists, on every model and
    # the metrics it carries: radius 0, fractional radii, radii past the
    # window's diameter (including word balls larger than F, which take the
    # pair path) and arc radii of 1/2 and more.
    rng = random.Random(20161)
    graphs = edges = 0
    for model, pool in ORACLE_POOLS:
        own = WordMetric(model) if model.discrete else ArcMetric(model)
        bases = [own, DiscreteMetric(model)]
        metrics = bases + [ScaledMetric(b, Fraction(3, 2)) for b in bases]
        metrics.append(ScaledMetric(ScaledMetric(own, Fraction(2, 5)), Fraction(3)))
        for _ in range(3):
            E = window(model, rng.sample(pool.elements, rng.randint(0, min(8, len(pool)))))
            F = window(model, rng.sample(pool.elements, rng.randint(0, min(16, len(pool)))))
            g = rng.choice(pool.elements)
            for right in (F, translate_window(g, E), pool):
                for metric in metrics:
                    for radius in ORACLE_RADII:
                        U = Entourage(metric, radius)
                        expected = _outcome(pair_oracle, E, right, U)
                        got = _outcome(_listed, E, right, U)
                        assert got == expected, (model, E, right, metric.to_json(), radius)
                        assert _outcome(_listed, E, right, U) == got
                        if isinstance(got, list):
                            graphs += 1
                            edges += sum(len(row) for row in got)
    assert graphs > 2500 and edges > 50000


def _fractions(top):
    return st.integers(1, 30).flatmap(lambda q: st.integers(0, top * q).map(lambda p: Fraction(p, q)))


H = make_model("heisenberg")
F2 = make_model("free", rank=2)
Z2 = make_model("lattice", dim=2)
# model, payloads, base metrics with a listed form, radii
LISTED_CASES = {
    "Z": (Z, st.tuples(st.integers(-8, 8)), ("word", "discrete"), _fractions(4)),
    "Z2": (Z2, st.tuples(st.integers(-4, 4), st.integers(-4, 4)), ("word", "discrete"), _fractions(4)),
    "H": (H, st.tuples(st.integers(-2, 2), st.integers(-2, 2), st.integers(-4, 4)), ("word",), _fractions(3)),
    "F2": (F2, st.lists(st.sampled_from([1, -1, 2, -2]), max_size=4), ("word",), _fractions(3)),
    "C": (C, _fractions(1).map(lambda x: x % 1), ("arc", "discrete"), _fractions(1)),
}


@pytest.mark.parametrize("name", sorted(LISTED_CASES))
@settings(max_examples=50, deadline=None)
@given(st.data())
def test_listed_rows_match_pair_rows(name, data):
    # Sort-free lattice and Heisenberg rows, circle rows bisected on ints
    # and the memoized word ball, each against the pair test they replace.
    model, payloads, rules, radii = LISTED_CASES[name]
    E = window(model, data.draw(st.lists(payloads, max_size=10)))
    F = window(model, data.draw(st.lists(payloads, max_size=30)))
    if data.draw(st.booleans()):
        F = translate_window(model.element(data.draw(payloads)), E)
    rule = data.draw(st.sampled_from(rules))
    metric = {"word": WordMetric, "arc": ArcMetric, "discrete": DiscreteMetric}[rule](model)
    radius = data.draw(radii)
    if rule == "arc" and E and F and data.draw(st.booleans()):
        # an arc realised by a pair, so that some point lies exactly on an
        # end of its interval, across 0 as well
        x, y = data.draw(st.sampled_from(E.elements)), data.draw(st.sampled_from(F.elements))
        radius = fraction_eval(metric, x, y)
    rows = _listed_rows(E, F, metric, radius)
    if rows is None:  # only a word ball larger than F is left to the pair test
        assert rule == "word" and len(word_ball(model, int(radius))) > len(F)
    else:
        assert rows == pair_oracle(E, F, Entourage(metric, radius))


def test_word_radius_one_lists_rows_without_pair_tests(monkeypatch):
    kernels, calls, products = [], [], []
    kernel = matching.integer_metric

    def spy(metric, *payload_groups):  # counts every pair the kernel measures
        kernels.append(metric)
        scale, codes, mul, dist = kernel(metric, *payload_groups)
        return scale, codes, mul, lambda a, b: calls.append((a, b)) or dist(a, b)

    monkeypatch.setattr(matching, "integer_metric", spy)
    Z2 = make_model("lattice", dim=2)
    box = window(Z2, [(i, j) for i in range(30) for j in range(30)])
    shifted = translate_window(Z2.element((1, 0)), box)
    _ball(Z2, 1, len(shifted))  # the memo holds the ball before products are counted
    law = Z2._mul_data
    monkeypatch.setattr(Z2, "_mul_data", lambda a, b: products.append(a) or law(a, b))
    U = Entourage(WordMetric(Z2), Fraction(1))
    for radius in (Fraction(0), Fraction(1, 2)):
        # a radius below 1 is the identity alone: x is looked up in F
        assert build_graph(box, shifted, U.with_radius(radius)).edge_count() == 870
    assert products == []
    inst = build_graph(box, shifted, U)
    assert len(products) == 5 * 900  # one product per ball element and point
    assert kernels == [] and calls == []
    # x + u lies in the shifted box for u = 0, +-e1, +-e2: 870 + 900 + 840 + 841 + 841
    assert inst.edge_count() == 4292
    # a word ball larger than F still takes the pair test
    small = window(Z2, [(0, 0), (1, 0), (0, 1)])
    build_graph(small, small, U.with_radius(Fraction(5)))
    assert len(calls) == 9


def test_mu_monotone_in_radius():
    E = window(C, [Fraction(k, 12) for k in range(6)])
    F = window(C, [Fraction(k, 12) + Fraction(1, 30) for k in range(6)])
    values = []
    for radius in (Fraction(1, 40), Fraction(1, 24), Fraction(1, 12), Fraction(1, 2)):
        inst = build_graph(E, F, Entourage(ArcMetric(C), radius))
        values.append(max_matching(inst).mu)
    assert values == sorted(values)


def test_transpose_symmetry():
    E = window(C, [Fraction(k, 8) for k in range(4)])
    F = window(C, [Fraction(k, 8) + Fraction(1, 20) for k in range(4)])
    U = Entourage(ArcMetric(C), Fraction(1, 10))
    mu_ef = max_matching(build_graph(E, F, U)).mu
    mu_fe = max_matching(build_graph(F, E, U)).mu
    assert mu_ef == mu_fe  # arc balls are symmetric


def test_pairing_revalidates_from_raw_data():
    E = window(C, [Fraction(k, 12) for k in range(12)])
    U = Entourage(ArcMetric(C), Fraction(1, 24))
    g = C.element(Fraction(1, 8))
    inst = build_graph(E, translate_window(g, E), U)
    result = max_matching(inst)
    result.check_valid()
    rebuilt = build_graph(E, translate_window(g, E), U)
    for i, j in result.pairing.items():
        assert j in rebuilt.adjacency[i]


def test_instance_and_result_json():
    inst = _instance([[0, 1], [1]], 2)
    dumped = inst.to_json()
    assert dumped["edges"] == [[0, 0], [0, 1], [1, 1]]
    result = max_matching(inst)
    js = result.to_json()
    assert js["mu"] == 2
    assert sorted(js["pairing"]) == js["pairing"]


# ---------------------------------------------------------------------------
# The near-pair table against the dense distance matrix
# ---------------------------------------------------------------------------

T2 = make_model("torus", dim=2)
# model and the pool its random supports are drawn from
NEAR_POOLS = [
    (Z, [(k,) for k in range(-6, 7)]),
    (Z2, [(i, j) for i in range(-3, 4) for j in range(-3, 4)]),
    (make_model("lattice", dim=3), [(i, j, k) for i in range(-2, 2) for j in range(-2, 2) for k in range(-2, 2)]),
    (F2, list(word_ball(F2, 3).positions)),
    (H, list(word_ball(H, 3).positions)),
    (C, sorted({Fraction(k, q) for q in (12, 30) for k in range(q)})),
    (T2, [(Fraction(i, 6), Fraction(j, 4)) for i in range(6) for j in range(4)]),
    (make_model("cyclic", modulus=12), list(range(12))),
]
NEAR_WIDTHS = [Fraction(1), Fraction(2), Fraction(3, 2)]


def _near_metrics(model):
    """The model's own metric, the discrete one, and rescalings of each by
    fractional factors (nested once)."""
    bases = [WordMetric(model) if model.discrete else ArcMetric(model), DiscreteMetric(model)]
    out = list(bases)
    for base in bases:
        out += [ScaledMetric(base, Fraction(2, 3)), ScaledMetric(base, Fraction(3)),
                ScaledMetric(ScaledMetric(base, Fraction(5, 6)), Fraction(2, 7))]
    return out


def _near_oracle(S, metric, width):
    """The pairs of the dense matrix below the width, rows ascending in j."""
    rows, scale = dense_distance_matrix(metric, list(S))
    return [
        {j: d for j, d in enumerate(row) if j != i and d * width.denominator < width.numerator * scale}
        for i, row in enumerate(rows)
    ], scale


def _ball_listed(S, metric, width):
    """Whether `near_pairs` lists S's rows from a word ball: a word metric
    on a discrete model whose ball below the width is no larger than S."""
    while metric.rule == "scaled":
        metric, width = metric.base, width / metric.factor
    return metric.rule == "word" and _ball(S.model, math.ceil(width) - 1, len(S)) is not None


def test_near_pairs_match_the_dense_oracle():
    rng = random.Random(20180)
    listed = scanned = pairs = 0
    for model, pool in NEAR_POOLS:
        for _ in range(6):
            # small supports leave the word ball larger than S, so every pair is scanned
            size = rng.choice([rng.randint(1, 6), rng.randint(7, len(pool))])
            S = window(model, rng.sample(pool, size))
            for metric in _near_metrics(model):
                for width in NEAR_WIDTHS:
                    rows, scale = near_pairs(S, metric, width)
                    assert (rows, scale) == _near_oracle(S, metric, width), (model, S, metric.to_json(), width)
                    assert all(list(row) == sorted(row) for row in rows)
                    if _ball_listed(S, metric, width):
                        listed += 1
                    else:
                        scanned += 1
                    pairs += sum(len(row) for row in rows)
    assert listed > 150 and scanned > 600 and pairs > 100000


def test_near_pairs_reject_a_foreign_metric():
    S = window(Z2, [(0, 0), (1, 0)])
    for metric in (WordMetric(Z), ScaledMetric(WordMetric(Z), Fraction(1, 2)), DiscreteMetric(Z)):
        with pytest.raises(ModelMismatchError):
            near_pairs(S, metric, Fraction(2))
