"""Folner defects, certificates, the seminorm bridge, and the search."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from folnerlab import folner
from folnerlab.folner import (
    FolnerCertificate,
    bridge_metric,
    conjugated_entourage,
    discrete_defect,
    folner_search,
    pairwise_defect,
    seminorm_crosscheck,
    topological_defect,
)
from folnerlab.groups import (
    ArcMetric,
    Entourage,
    ScaledMetric,
    WindowSizeError,
    WordMetric,
    grid_sample,
    make_model,
    window,
)
from folnerlab.matching import build_graph
from search_oracles import lookahead_search

Z = make_model("lattice", dim=1)
Z2 = make_model("lattice", dim=2)
F2 = make_model("free", rank=2)
C = make_model("circle")

U0_Z = Entourage(WordMetric(Z), Fraction(0))
U0_Z2 = Entourage(WordMetric(Z2), Fraction(0))
U0_F2 = Entourage(WordMetric(F2), Fraction(0))


def interval(n):
    return window(Z, [(i,) for i in range(n)])


def box(n):
    return window(Z2, [(i, j) for i in range(n) for j in range(n)])


def test_discrete_defect_interval():
    assert discrete_defect(interval(10), window(Z, [(1,), (-1,)])) == Fraction(9, 10)


def test_discrete_defect_box():
    E = window(Z2, [(1, 0), (0, 1)])
    assert discrete_defect(box(10), E) == Fraction(9, 10)


def test_discrete_defect_identity_pool():
    assert discrete_defect(interval(5), window(Z, [(0,)])) == 1


def test_discrete_defect_empty_window():
    with pytest.raises(ValueError):
        discrete_defect(window(Z, []), window(Z, [(1,)]))


def test_topological_equals_discrete_at_radius_zero():
    for n in (3, 7, 10):
        for shifts in ([(1,)], [(1,), (-1,)], [(2,)]):
            E = window(Z, shifts)
            theta, _ = topological_defect(interval(n), E, U0_Z)
            assert theta == discrete_defect(interval(n), E)


def test_topological_defect_huge_entourage():
    U = Entourage(WordMetric(Z), Fraction(100))
    theta, _ = topological_defect(interval(4), window(Z, [(3,)]), U)
    assert theta == 1


def test_topological_defect_circle_aligned():
    U = Entourage(ArcMetric(C), Fraction(1, 24))
    theta, cert = topological_defect(grid_sample(C, 12), window(C, [Fraction(1, 3)]), U)
    assert theta == 1
    cert.verify()


def test_topological_defect_free_ball():
    theta, _ = topological_defect(grid_sample(F2, 2), window(F2, [F2.parse("a")]), U0_F2)
    assert theta == Fraction(8, 17)


def test_certificate_roundtrip_and_verify():
    E = window(Z2, [(1, 0), (0, 1)])
    theta, cert = topological_defect(box(4), E, U0_Z2)
    cert.verify()
    payload = json.dumps(cert.to_json(), sort_keys=True)
    assert "theta" in payload
    # tamper: lowering theta must be caught
    cert.theta = theta / 2
    with pytest.raises(ValueError):
        cert.verify()


def test_pairwise_defect_interval():
    E = window(Z, [(0,), (1,)])
    assert pairwise_defect(interval(10), E, U0_Z) == Fraction(9, 10)


def test_pairwise_defect_circle():
    U = Entourage(ArcMetric(C), Fraction(1, 24))
    E = window(C, [Fraction(0), Fraction(1, 3)])
    assert pairwise_defect(grid_sample(C, 12), E, U) == 1


def test_pairwise_at_least_topological_pairs():
    # pairwise includes g = h, which gives ratio 1, so the minimum is over more terms
    E = window(Z, [(0,), (1,)])
    p = pairwise_defect(interval(6), E, U0_Z)
    t, _ = topological_defect(interval(6), E, U0_Z)
    assert p <= 1 and p <= t + Fraction(1)  # sanity: both exact rationals


def test_conjugated_entourage_abelian_identity():
    U = Entourage(ArcMetric(C), Fraction(1, 10))
    assert conjugated_entourage(window(C, [Fraction(1, 3)]), U) is U
    UZ = Entourage(WordMetric(Z2), Fraction(2))
    assert conjugated_entourage(window(Z2, [(1, 0)]), UZ) is UZ


def test_conjugated_entourage_free_shrink():
    U = Entourage(WordMetric(F2), Fraction(5))
    E = window(F2, [F2.parse("a"), F2.parse("B")])
    V = conjugated_entourage(E, U)
    assert V.radius == 3
    # safety: V is inside every conjugate g^-1 U g on a sample ball
    for u in grid_sample(F2, 3):
        if V.contains(u):
            for g in E:
                conj = F2.mul(F2.mul(F2.inv(g), u), g)
                assert U.contains(conj)


def test_conjugated_entourage_floor_zero():
    U = Entourage(WordMetric(F2), Fraction(1))
    E = window(F2, [F2.parse("a")])
    assert conjugated_entourage(E, U).radius == 0


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 8), st.sampled_from([Fraction(0), Fraction(1), Fraction(2)]))
def test_defect_monotone_in_radius(n, r):
    E = window(Z, [(1,), (-1,)])
    small, _ = topological_defect(interval(n), E, Entourage(WordMetric(Z), r))
    large, _ = topological_defect(interval(n), E, Entourage(WordMetric(Z), r + 1))
    assert small <= large


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 8))
def test_defect_antitone_in_pool(n):
    E_small = window(Z, [(1,)])
    E_big = window(Z, [(1,), (-1,), (2,)])
    t_small, _ = topological_defect(interval(n), E_small, U0_Z)
    t_big, _ = topological_defect(interval(n), E_big, U0_Z)
    assert t_big <= t_small


def test_bridge_metric_scaling():
    U = Entourage(ArcMetric(C), Fraction(1, 24))
    d = bridge_metric(U)
    x = C.element(Fraction(1, 24))
    assert d.eval(x, C.identity()) == Fraction(1, 2)
    with pytest.raises(ValueError):
        bridge_metric(Entourage(ArcMetric(C), Fraction(0)))
    d0 = bridge_metric(U0_Z)
    assert d0 is U0_Z.metric


def test_bridge_metric_at_radius_0_drops_scale_factors():
    # the radius-0 ball of 2 * (3/2 * word) is the word metric's
    scaled = ScaledMetric(ScaledMetric(WordMetric(Z), Fraction(3, 2)), Fraction(2))
    assert bridge_metric(Entourage(scaled, Fraction(0))) is scaled.base.base
    with pytest.raises(ValueError, match="dense metric"):
        bridge_metric(Entourage(ScaledMetric(ArcMetric(C), Fraction(2)), Fraction(0)))


def test_seminorm_crosscheck_box():
    E = window(Z2, [(1, 0), (-1, 0), (0, 1), (0, -1)])
    theta, cert = topological_defect(box(4), E, U0_Z2)
    value, bound = seminorm_crosscheck(cert)
    assert value <= bound == 1 - theta / 2
    assert cert.seminorm_value == value


def test_folner_search_boxes():
    E = window(Z2, [(1, 0), (-1, 0), (0, 1), (0, -1)])
    result = folner_search(E, U0_Z2, Fraction(9, 10), strategy="boxes", budget=20)
    assert result.found
    assert result.certificate.F == box(10)


def test_folner_search_grid():
    U = Entourage(ArcMetric(C), Fraction(1, 24))
    E = window(C, [Fraction(1, 3)])
    result = folner_search(E, U, Fraction(1), strategy="grid", budget=20)
    assert result.found
    # first grid meeting the target: denominator 3 already satisfies it
    assert result.certificate.F == grid_sample(C, 3)


def test_folner_search_free_failure_report():
    E = window(F2, [F2.parse("a"), F2.parse("b")])
    result = folner_search(E, U0_F2, Fraction(3, 5), strategy="balls", budget=6)
    assert not result.found
    assert result.budget_exhausted
    assert result.best_theta < Fraction(51, 100)
    assert result.certificate is not None  # best-found report is data


def test_box_past_the_window_cap_is_refused():
    # 2^17 = 131,072 points: refused before any is built
    with pytest.raises(WindowSizeError, match="box of 131072 points exceeds cap 100000"):
        folner._box(make_model("lattice", dim=17), 2)


def test_search_ends_at_the_window_cap_with_its_best_window():
    # the second box of Z^17 is past the cap: the search ends with the first,
    # and has not spent its budget
    Z17 = make_model("lattice", dim=17)
    E = window(Z17, [(1,) + (0,) * 16])
    result = folner_search(E, Entourage(WordMetric(Z17), Fraction(0)), Fraction(1), strategy="boxes", budget=2)
    assert (result.found, result.budget_exhausted, result.candidates_tried) == (False, False, 1)
    assert len(result.certificate.F) == 1


def test_folner_search_local_improves():
    E = window(Z, [(1,), (-1,)])
    result = folner_search(E, U0_Z, Fraction(1, 2), strategy="local", budget=40)
    assert result.best_theta >= Fraction(1, 2) or result.candidates_tried == 40


def test_folner_search_strategy_validation():
    with pytest.raises(ValueError):
        folner_search(window(C, [Fraction(1, 3)]), Entourage(ArcMetric(C), Fraction(1, 8)), Fraction(1, 2), strategy="boxes", budget=5)
    with pytest.raises(ValueError):
        folner_search(window(Z, [(1,)]), U0_Z, Fraction(1, 2), strategy="nope", budget=5)
    with pytest.raises(ValueError):
        folner_search(window(Z, [(1,)]), U0_Z, Fraction(1, 2), budget=0)


def test_search_result_json():
    E = window(Z2, [(1, 0), (0, 1)])
    result = folner_search(E, U0_Z2, Fraction(1, 2), strategy="boxes", budget=5)
    payload = result.to_json()
    assert payload["found"] is True
    assert "certificate" in payload


def test_torus_grid_defect():
    T2 = make_model("torus", dim=2)
    U = Entourage(ArcMetric(T2), Fraction(1, 24))
    E = window(T2, [(Fraction(1, 3), Fraction(0))])
    theta, cert = topological_defect(grid_sample(T2, 6), E, U)
    assert theta == 1  # the shift is grid-aligned
    cert.verify()


def test_heisenberg_ball_defect_matches_discrete():
    H = make_model("heisenberg")
    E = window(H, [(1, 0, 0), (0, 1, 0)])
    ball = grid_sample(H, 2)
    U0 = Entourage(WordMetric(H), Fraction(0))
    theta, _ = topological_defect(ball, E, U0)
    assert theta == discrete_defect(ball, E)
    assert 0 < theta < 1


def test_local_strategy_seed_deterministic():
    E = window(Z, [(1,), (-1,)])
    a = folner_search(E, U0_Z, Fraction(99, 100), strategy="local", budget=15, seed=7)
    b = folner_search(E, U0_Z, Fraction(99, 100), strategy="local", budget=15, seed=7)
    assert a.best_theta == b.best_theta
    assert a.candidates_tried == b.candidates_tried
    if a.certificate is not None:
        assert a.certificate.F == b.certificate.F


def _drop_worst(payload):
    # remove the (3,0) matching, the worst one, and restate theta over the rest
    del payload["matchings"]["3,0"]
    payload["theta"] = "3/4"


def _add_foreign_key(payload):
    # an honest matching for a shift outside E, with theta restated to match
    payload["matchings"]["5,5"] = {"mu": 0, "pairing": [], "witness": list(range(16))}
    payload["theta"] = "0"


def _truncate_pairing(payload):
    payload["matchings"]["0,1"]["pairing"].pop()


def _junk_witness(payload):
    payload["matchings"]["0,1"]["witness"] = [0, 1, 2, 99]


def _negative_pairing_index(payload):
    payload["matchings"]["0,1"]["pairing"][0][0] -= 16  # |F| = 16


def _pairing_index_past_window(payload):
    payload["matchings"]["0,1"]["pairing"][0][0] = 99


def _raise_mu(payload):
    payload["matchings"]["0,1"]["mu"] += 1


def _forge_seminorm_check(payload):
    payload["seminorm_check"] = {"value": "-5", "bound": "100"}


def _repeated_window_element(payload):
    payload["F"].append(" " + payload["F"][0])


def _float_pairing_index(payload):
    payload["matchings"]["0,1"]["pairing"][0][0] += 0.5


def _bool_pairing_index(payload):
    payload["matchings"]["0,1"]["pairing"][1][1] = True


def _float_mu(payload):
    payload["matchings"]["0,1"]["mu"] = float(payload["matchings"]["0,1"]["mu"])


def _string_witness_index(payload):
    witness = payload["matchings"]["0,1"]["witness"]
    witness[0] = str(witness[0])


MUTATIONS = [
    (_drop_worst, "keys differ"),
    (_add_foreign_key, "keys differ"),
    (_truncate_pairing, "pairing size"),
    (_junk_witness, "witness"),
    (_negative_pairing_index, "out of range"),
    (_pairing_index_past_window, "out of range"),
    (_raise_mu, "pairing size"),
    (_forge_seminorm_check, "seminorm_check"),
]

# indices that are not JSON integers are rejected when the file is read
PARSE_MUTATIONS = [
    (_float_pairing_index, "pairing: expected a JSON integer, got 1.5"),
    (_bool_pairing_index, "pairing: expected a JSON integer, got True"),
    (_float_mu, "mu: expected a JSON integer"),
    (_string_witness_index, "witness: expected a JSON integer"),
    (_repeated_window_element, "repeats an element"),
]


def test_certificate_reload_and_reverify():
    # the true theta is 1/4, set by the shift (3,0); (1,0) and (0,1) give 3/4
    E = window(Z2, [(1, 0), (0, 1), (3, 0)])
    _, crosschecked = topological_defect(box(4), E, U0_Z2)
    seminorm_crosscheck(crosschecked)
    cases = [
        (topological_defect(box(4), E, U0_Z2)[1], Fraction(1, 4)),
        (topological_defect(box(4), window(Z2, []), U0_Z2)[1], Fraction(1)),
        (crosschecked, Fraction(1, 4)),
    ]
    for cert, expected in cases:
        assert cert.theta == expected
        restored = FolnerCertificate.from_json(json.loads(json.dumps(cert.to_json())))
        restored.verify()
        assert restored.theta == expected
        assert restored.to_json() == cert.to_json()
    assert "seminorm_check" in crosschecked.to_json()
    # a tampered file must fail verification
    for mutate, reason in MUTATIONS:
        payload = json.loads(json.dumps(crosschecked.to_json()))
        mutate(payload)
        broken = FolnerCertificate.from_json(payload)
        with pytest.raises(ValueError, match=reason):
            broken.verify()
    for mutate, reason in PARSE_MUTATIONS:
        payload = json.loads(json.dumps(crosschecked.to_json()))
        mutate(payload)
        with pytest.raises(ValueError, match=reason):
            FolnerCertificate.from_json(payload)


def test_certificate_reload_builds_each_graph_once(monkeypatch):
    calls = []

    def counting_build_graph(*args):
        calls.append(args)
        return build_graph(*args)

    monkeypatch.setattr(folner, "build_graph", counting_build_graph)
    E = window(Z2, [(1, 0), (0, 1), (3, 0)])
    _, cert = topological_defect(box(4), E, U0_Z2)
    payload = json.loads(json.dumps(cert.to_json()))
    calls.clear()
    restored = FolnerCertificate.from_json(payload)
    assert calls == []
    restored.verify()
    assert len(calls) == len(E)


# ---------------------------------------------------------------------------
# The search against its lookahead oracle
# ---------------------------------------------------------------------------

SEARCH_SPACES = {
    # model, pool elements, entourage radii, strategies that fit the model
    "Z": (Z, [(1,), (-1,), (2,), (3,)], [0, 1], ("balls", "boxes", "local")),
    "Z2": (Z2, [(1, 0), (0, 1), (-1, 0), (1, 1)], [0, 1], ("balls", "boxes", "local")),
    "F2": (F2, ["a", "b", "A", "a,b"], [0], ("balls", "local")),
    "circle": (C, [Fraction(j, 12) for j in (1, 2, 3, 5)], [Fraction(1, 144), Fraction(1, 24)], ("balls", "grid", "local")),
}
SEARCH_CASES = [
    (name, strategy, instance)
    for name, (_, _, _, strategies) in SEARCH_SPACES.items()
    for strategy in strategies
    for instance in range(3)
]


def _search_instance(name: str, strategy: str, instance: int):
    """A seeded instance (E, U, target, budget, climb seed) of a search space.
    Climbs on F2 get budget 1: each step of one scores hundreds of swaps."""
    model, elements, radii, _ = SEARCH_SPACES[name]
    rng = random.Random(f"{name}:{strategy}:{instance}")
    items = rng.sample(elements, rng.randint(1, 2))
    E = window(model, [model.parse(x) if isinstance(x, str) else x for x in items])
    metric = WordMetric(model) if model.discrete else ArcMetric(model)
    U = Entourage(metric, Fraction(rng.choice(radii)))
    target = rng.choice([Fraction(1, 2), Fraction(2, 3), Fraction(3, 4), Fraction(9, 10), Fraction(1)])
    budget = 1 if (name, strategy) == ("F2", "local") else rng.randint(1, 4)
    return model, E, U, target, budget, rng.randrange(100)


@pytest.mark.parametrize("name,strategy,instance", SEARCH_CASES)
def test_folner_search_matches_lookahead_oracle(name, strategy, instance):
    model, E, U, target, budget, climb_seed = _search_instance(name, strategy, instance)
    for seed in (None, climb_seed):
        new = folner_search(E, U, target, strategy=strategy, budget=budget, seed=seed)
        old = lookahead_search(model, E, U, target, strategy, budget, seed=seed)
        assert (new.found, new.best_theta, new.candidates_tried) == (old.found, old.best_theta, old.candidates_tried)
        assert new.certificate.to_json() == old.certificate.to_json()
        assert new.budget_exhausted == (not new.found and new.candidates_tried == budget)
        if new.budget_exhausted != old.budget_exhausted:
            # the oracle also needs a candidate past the budget, which only a
            # seedless climb can lack
            assert (strategy, seed, new.budget_exhausted) == ("local", None, True)


def test_budget_exhausted_when_a_seedless_climb_ends_at_its_budget():
    # From {-4, -3} no swap raises theta = 1/2, so the climb has one candidate.
    E = window(Z, [(1,), (-1,)])
    new = folner_search(E, U0_Z, Fraction(1), strategy="local", budget=1)
    old = lookahead_search(Z, E, U0_Z, Fraction(1), "local", 1)
    assert new.candidates_tried == old.candidates_tried == 1
    assert new.budget_exhausted and not old.budget_exhausted
    assert not folner_search(E, U0_Z, Fraction(1), strategy="local", budget=2).budget_exhausted


def _recording_defect(monkeypatch) -> list:
    solved = []
    solve = folner.topological_defect

    def recording(F, E, U):
        solved.append(F)
        return solve(F, E, U)

    monkeypatch.setattr(folner, "topological_defect", recording)
    return solved


def test_local_search_builds_no_candidate_past_its_budget(monkeypatch):
    # This seedless climb on Z^2 moves twice before it stops at theta = 3/5.
    E = window(Z2, [(0, 1), (1, 0)])
    solved = _recording_defect(monkeypatch)
    candidates, runs = [], []
    for budget in (1, 2, 3):
        solved.clear()
        result = folner_search(E, U0_Z2, Fraction(1), strategy="local", budget=budget)
        assert result.candidates_tried == budget and result.best_index == budget - 1
        # every step raises theta, so the best candidate is the last one
        candidates.append(result.certificate.F)
        runs.append(list(solved))
    for budget, solved in enumerate(runs, 1):
        # each candidate is solved once, and nothing after the last one
        assert solved[-1] == candidates[budget - 1]
        assert [solved.count(F) for F in candidates[:budget]] == [1] * budget
    # each budget solves a strict prefix of what the next one solves
    for shorter, longer in zip(runs, runs[1:]):
        assert longer[: len(shorter)] == shorter and len(longer) > len(shorter)


@pytest.mark.parametrize("strategy,builder", [("balls", "word_ball"), ("boxes", "_box")])
def test_fixed_search_builds_and_solves_each_candidate_once(monkeypatch, strategy, builder):
    build = getattr(folner, builder)
    built = []
    monkeypatch.setattr(folner, builder, lambda model, n: built.append(n) or build(model, n))
    solved = _recording_defect(monkeypatch)
    E = window(Z2, [(1, 0), (0, 1)])
    result = folner_search(E, U0_Z2, Fraction(1), strategy=strategy, budget=4)
    assert result.candidates_tried == 4 and result.budget_exhausted
    assert built == [1, 2, 3, 4]
    assert len(solved) == len(set(solved)) == 4
