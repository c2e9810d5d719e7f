"""Bipartite matching: Hall identity against exhaustive enumeration,
perfect matchings, and the entourage-induced graphs."""

import itertools
import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from folnerlab.groups import (
    ArcMetric,
    DiscreteMetric,
    Entourage,
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
    brute_force_matching_number,
    build_graph,
    max_matching,
    perfect_matching,
)

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
    pairing, violating = perfect_matching(inst)
    hall = exhaustive_deficiency(adjacency) == 0
    assert (pairing is not None) == hall
    if pairing is None:
        nbhd = set()
        for i in violating:
            nbhd.update(adjacency[i])
        assert len(violating) > len(nbhd)


def test_star_instance():
    inst = _instance([[0], [0], [0]], 1)
    result = max_matching(inst)
    assert result.mu == 1
    assert set(result.witness) == {0, 1, 2}
    assert result.witness_deficiency() == 2
    pairing, violating = perfect_matching(inst)
    assert pairing is None and len(violating) == 3


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
    pairing, _ = perfect_matching(inst)
    assert pairing is not None


def test_build_graph_empty_left():
    E = window(Z, [])
    F = window(Z, [(0,)])
    U = Entourage(WordMetric(Z), Fraction(0))
    assert max_matching(build_graph(E, F, U)).mu == 0


def pair_oracle(E, F, U):
    """Test every pair: the definition that `build_graph` lists rows for."""
    model = E.model
    rows = []
    for x in E:
        x_inv = model.inv(x)
        rows.append([j for j, y in enumerate(F) if U.contains(model.mul(y, x_inv))])
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
    # metric: radius 0, fractional radii, radii past the window's diameter
    # (including word balls larger than F, which take the pair path) and arc
    # radii of 1/2 and more.
    rng = random.Random(20161)
    graphs = edges = 0
    for model, pool in ORACLE_POOLS:
        bases = [WordMetric(model), ArcMetric(model), DiscreteMetric(model)]
        metrics = bases + [ScaledMetric(b, Fraction(3, 2)) for b in bases]
        metrics.append(ScaledMetric(ScaledMetric(WordMetric(model), Fraction(2, 5)), Fraction(3)))
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


def test_word_radius_one_lists_rows_without_pair_tests(monkeypatch):
    calls = []
    contains = Entourage.contains
    monkeypatch.setattr(Entourage, "contains", lambda U, g: calls.append(g) or contains(U, g))
    Z2 = make_model("lattice", dim=2)
    box = window(Z2, [(i, j) for i in range(30) for j in range(30)])
    U = Entourage(WordMetric(Z2), Fraction(1))
    inst = build_graph(box, translate_window(Z2.element((1, 0)), box), U)
    assert calls == []
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
