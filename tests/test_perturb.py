"""Perturbed actions: moving injections, packages, assembly, the precompact
construction, and wobbling decompositions."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraction_oracles import fraction_verify_perturbation
from group_oracles import union_find_orbits
from folnerlab import perturb
from folnerlab.groups import (
    ArcMetric,
    CertificateError,
    DiscreteMetric,
    Entourage,
    ScaledMetric,
    WordMetric,
    grid_sample,
    make_model,
    window,
)
from folnerlab.perturb import (
    BudgetError,
    ConstructionError,
    NonMemberError,
    PerturbedAction,
    build_perturbation,
    decompose_wobbling,
    folner_package,
    moving_injection,
    precompact_perturbation,
    verify_perturbation,
)

C = make_model("circle")
Z = make_model("lattice", dim=1)
Z12 = make_model("cyclic", modulus=12)
ARC = ArcMetric(C)


# --- moving injections --------------------------------------------------------


def test_moving_injection_identity_pool():
    F = window(C, [Fraction(0), Fraction(1, 2)])
    E = window(C, [Fraction(0)])
    U = Entourage(ARC, Fraction(1, 8))
    phi = moving_injection(F, E, U, grid_sample(C, 16))
    assert len(set(phi.values())) == 2
    for x, y in phi.items():
        assert ARC.eval(C.element(x), C.element(y)) <= Fraction(1, 8)


def test_moving_injection_halves():
    F = window(C, [Fraction(0), Fraction(1, 2)])
    E = window(C, [Fraction(1, 2)])
    U = Entourage(ARC, Fraction(1, 8))
    phi = moving_injection(F, E, U, grid_sample(C, 16))
    image = set(phi.values())
    shifted = {C.mul(C.element(Fraction(1, 2)), C.element(y)).data for y in image}
    assert not (image & shifted)
    for x, y in phi.items():
        assert ARC.eval(C.element(x), C.element(y)) <= Fraction(1, 8)


def test_moving_injection_discrete_rejected():
    F = window(Z, [(0,), (1,)])
    E = window(Z, [(1,)])
    U = Entourage(WordMetric(Z), Fraction(1))
    with pytest.raises(ConstructionError):
        moving_injection(F, E, U, window(Z, [(i,) for i in range(-4, 5)]))


def test_moving_injection_supply_exhausted():
    F = window(C, [Fraction(k, 4) for k in range(4)])
    E = window(C, [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)])
    U = Entourage(ARC, Fraction(1, 16))
    # a supply of 4 points cannot dodge three dense shifts
    with pytest.raises((ConstructionError, BudgetError)):
        moving_injection(F, E, U, grid_sample(C, 4))


# --- Folner packages -----------------------------------------------------------


def test_package_identity_pool_degenerates():
    U = Entourage(ARC, Fraction(1, 10))
    pkg = folner_package(Fraction(1, 2), window(C, [Fraction(0)]), U)
    assert len(pkg.F) == 1 and pkg.D == pkg.F


def test_package_circle_fifth():
    U = Entourage(ARC, Fraction(1, 10))
    pkg = folner_package(Fraction(1, 2), window(C, [Fraction(1, 5)]), U, budget=40)
    pkg.verify(U)
    assert len(pkg.D) >= Fraction(1, 2) * len(pkg.F)
    # disjointness of F from its pool shifts, exhaustively
    for g in pkg.pool:
        if g == C.identity():
            continue
        shifted = {C.mul(g, x) for x in pkg.F}
        assert not (shifted & set(pkg.F))
    # injections stay in the entourage and land in the right shift
    for g, phi in pkg.phis.items():
        for x, y in phi.items():
            assert ARC.eval(C.element(x), C.element(y)) <= U.radius
            assert C.mul(C.inv(C.element(g)), C.element(y)) in pkg.F


def test_package_discrete_rejected():
    U = Entourage(WordMetric(Z), Fraction(1))
    with pytest.raises(ConstructionError):
        folner_package(Fraction(1, 2), window(Z, [(1,)]), U)


def test_package_budget_error():
    U = Entourage(ARC, Fraction(1, 1000))
    with pytest.raises(BudgetError):
        folner_package(Fraction(99, 100), window(C, [Fraction(1, 7)]), U, budget=2)


# --- assembly -------------------------------------------------------------------


def _assembled():
    U = Entourage(ARC, Fraction(1, 10))
    family = [
        (window(C, [Fraction(0), Fraction(1, 5)]), 4),
        (window(C, [Fraction(0), Fraction(2, 5)]), 4),
    ]
    return build_perturbation(family, U, budget=40), U


def test_build_verifies_clean():
    assembled, U = _assembled()
    report = verify_perturbation(assembled.action, U)
    assert report.ok
    assert report.max_deviation <= U.radius


def test_build_involutions():
    assembled, U = _assembled()
    action = assembled.action
    assert action.involution and all(action.involution.values())
    # psi(g) squared is the identity wherever the window sees both steps
    for g in action.rows:
        g_inv = C.inv(C.element(g))
        for y in action.window:
            h = C.mul(g_inv, y)
            if h not in action.window:
                continue
            once = action.apply(g, h.data)
            if once is None:
                continue
            h2 = C.mul(g_inv, C.element(once))
            if h2 in action.window:
                assert action.apply(g, h2.data) == y.data


def test_build_core_bounds():
    assembled, _ = _assembled()
    for placement in assembled.placements:
        bound = (1 - Fraction(1, placement.multiplicity)) * len(placement.F)
        assert len(placement.D) >= bound


def test_build_footprints_disjoint():
    assembled, _ = _assembled()
    seen = set()
    for placement in assembled.placements:
        footprint = {C.mul(g, x) for g in placement.pool for x in placement.F}
        assert not (footprint & seen)
        seen |= footprint


def test_build_requires_identity_in_pool():
    U = Entourage(ARC, Fraction(1, 10))
    with pytest.raises(ValueError):
        build_perturbation([(window(C, [Fraction(1, 5)]), 4)], U)


def test_verify_flags_corruption():
    assembled, U = _assembled()
    action = assembled.action
    g = next(iter(action.rows))
    row = list(action.rows[g])
    filled = [i for i, j in enumerate(row) if j is not None]
    # send one point to the antipode of its target
    i = filled[0]
    target = action.window[row[i]]
    far = C.mul(C.element(Fraction(1, 2)), target)
    if far in action.window:
        row[i] = action.window.index(far)
        corrupted = PerturbedAction(
            window=action.window,
            pool=action.pool,
            rows={**action.rows, g: row},
            radius=action.radius,
        )
        report = verify_perturbation(corrupted, U)
        assert len(report.violations) >= 1
        assert report.violations[0].distance > U.radius


def test_exact_translation_verifies_at_any_radius():
    win = grid_sample(C, 12)
    g = C.element(Fraction(1, 12))
    row = [win.index(C.mul(g, x)) for x in win]
    action = PerturbedAction(window=win, pool=window(C, [g]), rows={g.data: row}, radius=Fraction(0))
    report = verify_perturbation(action, Entourage(ARC, Fraction(0)))
    assert report.ok and report.max_deviation == 0


def test_rosenblatt_ratios_reported():
    assembled, U = _assembled()
    report = verify_perturbation(assembled.action, U)
    assert len(report.rosenblatt) == 2
    for idx, ratio in report.rosenblatt:
        n = assembled.placements[idx].multiplicity
        pool_size = len(assembled.placements[idx].pool)
        assert 1 <= ratio <= 1 + Fraction(pool_size, n)


def test_action_json_roundtrip():
    assembled, _ = _assembled()
    payload = assembled.action.to_json()
    restored = PerturbedAction.from_json(payload, C)
    assert restored.window == assembled.action.window
    assert restored.rows == assembled.action.rows
    assert restored.radius == assembled.action.radius


# --- precompact ------------------------------------------------------------------


def test_precompact_circle_grid_rotation():
    U = Entourage(ARC, Fraction(7, 20))
    result = precompact_perturbation(U, grid_sample(C, 60), grid_sample(C, 12))
    assert result.lift_mode == "grid-rotation"
    assert len(result.centers) == 7
    assert result.group_order == 12
    assert result.order_bound == 5040
    assert result.order_bound % result.group_order == 0
    # separated centers, maximality
    for i, c1 in enumerate(result.centers):
        for c2 in list(result.centers)[i + 1:]:
            assert ARC.eval(c1, c2) > U.radius / 3


def test_precompact_perfect_matchings_per_sample():
    from folnerlab.matching import build_graph, max_matching
    from folnerlab.groups import translate_window

    U = Entourage(ARC, Fraction(7, 20))
    result = precompact_perturbation(U, grid_sample(C, 60), grid_sample(C, 12))
    V = U.with_radius(U.radius / 3)
    for g in grid_sample(C, 12):
        inst = build_graph(result.centers, translate_window(g, result.centers), V)
        assert max_matching(inst).perfect


def test_precompact_cyclic_trivial():
    U = Entourage(WordMetric(Z12), Fraction(100))
    win = window(Z12, list(range(12)))
    result = precompact_perturbation(U, win, win)
    assert len(result.centers) == 1
    assert result.group_order == 1
    assert result.lift_mode == "fiber-transport"
    for g, row in result.action.rows.items():
        assert row == list(range(12))  # identity rows


def test_precompact_cyclic_balanced_fibers():
    # radius 7 separates centers {0, 3, 6, 9} with three window points each
    U = Entourage(WordMetric(Z12), Fraction(7))
    win = window(Z12, list(range(12)))
    result = precompact_perturbation(U, win, win)
    assert result.lift_mode == "fiber-transport"
    assert [Z12.format(c) for c in result.centers] == ["0", "3", "6", "9"]
    assert result.order_bound == 24
    assert result.order_bound % result.group_order == 0
    report = verify_perturbation(result.action, U)
    assert report.ok


def test_precompact_cyclic_unbalanced_falls_back_to_rotation():
    # radius 3 gives centers {0, 2, .., 10} with fibers 3,2,2,2,2,1
    U = Entourage(WordMetric(Z12), Fraction(3))
    win = window(Z12, list(range(12)))
    result = precompact_perturbation(U, win, win)
    assert result.lift_mode == "grid-rotation"
    assert result.order_bound % result.group_order == 0
    assert verify_perturbation(result.action, U).ok


def test_precompact_torus_grid_transports_fibers():
    # No closed-form rows on the torus: the center balls are pair-tested.
    T2 = make_model("torus", dim=2)
    U = Entourage(ArcMetric(T2), Fraction(2, 5))
    result = precompact_perturbation(U, grid_sample(T2, 2), grid_sample(T2, 2))
    assert result.lift_mode == "fiber-transport"
    assert len(result.centers) == 4 and result.group_order == 4 and result.order_bound == 24
    assert result.assignment == [0, 1, 2, 3]
    assert verify_perturbation(result.action, U).ok


def test_fiber_balance_from_the_generators_matches_the_orbits():
    # Fiber transport is taken exactly when the fiber sizes are constant on
    # every orbit of the generated group; the window is no even grid, so
    # any other case is refused.
    U = Entourage(ARC, Fraction(1, 2))
    outcomes = set()
    for seed in range(300):
        rng = random.Random(seed)
        n = rng.randint(1, 7)
        perms = [tuple(rng.sample(range(n), n)) for _ in range(rng.randint(0, 3))]
        orbits = union_find_orbits(perms, n)
        sizes = [0] * n
        for orbit in orbits:
            size = rng.randint(1, 3)
            for c in orbit:
                sizes[c] = size if rng.random() < 0.9 else rng.randint(1, 3)
        balanced = all(len({sizes[c] for c in orbit}) == 1 for orbit in orbits)
        assignment = [c for c in range(n) for _ in range(sizes[c])]
        rng.shuffle(assignment)
        win = window(C, [Fraction(k + 1, 2 * len(assignment) + 1) for k in range(len(assignment))])
        centers = window(C, [Fraction(c, n) for c in range(n)])
        sample = window(C, [Fraction(j, 10) for j in range(len(perms))])
        args = (win, centers, assignment, dict(zip(sample.positions, perms)), U)
        if balanced:
            assert perturb._lift_rows(*args)[1] == "fiber-transport"
        else:
            with pytest.raises(ConstructionError, match="fibers are unbalanced"):
                perturb._lift_rows(*args)
        outcomes.add(balanced)
    assert outcomes == {True, False}


def test_precompact_deviation_exhaustive():
    U = Entourage(ARC, Fraction(7, 20))
    result = precompact_perturbation(U, grid_sample(C, 60), grid_sample(C, 12))
    report = verify_perturbation(result.action, U)
    assert report.ok and report.entries_checked == 60 * 12


def test_precompact_rejects_discrete_model():
    with pytest.raises(ConstructionError):
        precompact_perturbation(Entourage(WordMetric(Z), Fraction(1)), window(Z, [(0,)]), window(Z, [(0,)]))


def test_precompact_empty_window():
    with pytest.raises(ValueError):
        precompact_perturbation(Entourage(ARC, Fraction(1, 4)), window(C, []), grid_sample(C, 4))


# --- wobbling --------------------------------------------------------------------


def test_wobbling_rotation_single_piece():
    grid = grid_sample(C, 12)
    g = C.element(Fraction(1, 4))
    perm = [grid.index(C.mul(g, x)) for x in grid]
    wob = decompose_wobbling(perm, grid, window(C, [Fraction(1, 4)]))
    assert len(wob.pieces) == 1
    assert wob.pieces[0][0] == g.data
    wob.verify()


def test_wobbling_arc_swap():
    # swap the first two quarter-arcs, fix the rest
    grid = grid_sample(C, 8)
    fw = C.element(Fraction(1, 4))
    bw = C.element(Fraction(3, 4))
    perm = []
    for x in grid:
        if x.data < Fraction(1, 4):
            perm.append(grid.index(C.mul(fw, x)))
        elif x.data < Fraction(1, 2):
            perm.append(grid.index(C.mul(bw, x)))
        else:
            perm.append(grid.index(x))
    wob = decompose_wobbling(perm, grid, window(C, [Fraction(0), Fraction(1, 4), Fraction(3, 4)]))
    assert len(wob.pieces) == 3
    assert sum(len(p) for _, p in wob.pieces) == 8
    wob.verify()


def test_wobbling_missing_translator():
    grid = grid_sample(C, 4)
    g = C.element(Fraction(1, 4))
    perm = [grid.index(C.mul(g, x)) for x in grid]
    with pytest.raises(NonMemberError) as info:
        decompose_wobbling(perm, grid, window(C, [Fraction(1, 2)]))
    assert info.value.witness in grid.positions


def test_wobbling_rejects_non_permutation():
    grid = grid_sample(C, 4)
    with pytest.raises(ValueError):
        decompose_wobbling([0, 0, 1, 2], grid, window(C, [Fraction(0)]))


def test_build_trivial_under_huge_entourage():
    U = Entourage(ARC, Fraction(10))
    assembled = build_perturbation([(window(C, [Fraction(0), Fraction(1, 3)]), 2)], U, budget=20)
    assert verify_perturbation(assembled.action, U).ok


def test_precompact_circle_balanced_grid_embeds_center_group():
    # 120 points over 8 centers: equal fibers, so the lift is a group embedding
    U = Entourage(ARC, Fraction(7, 20))
    result = precompact_perturbation(U, grid_sample(C, 120), grid_sample(C, 12))
    assert result.lift_mode == "fiber-transport"
    assert len(result.centers) == 8
    assert result.group_order == 8
    assert result.order_bound % result.group_order == 0
    report = verify_perturbation(result.action, U)
    assert report.ok and report.entries_checked == 120 * 12


def test_perturbed_action_rejects_duplicate_images():
    win = grid_sample(C, 4)
    g = C.element(Fraction(1, 4))
    with pytest.raises(ValueError):
        PerturbedAction(window=win, pool=window(C, [g]), rows={g.data: [0, 0, 1, 2]}, radius=Fraction(1))


def test_inverse_rows_match_row_scan():
    # the inverse rows built at construction against a scan of each row,
    # on a package-built action and on random partial injective rows
    rng = random.Random(7)
    win = grid_sample(C, 12)
    pool = window(C, [Fraction(k, 12) for k in (1, 5, 7)])
    rows = {}
    for g in pool.positions:
        images = rng.sample(range(12), 12)
        rows[g] = [None if rng.random() < 0.3 else j for j in images]
    actions = [
        _assembled()[0].action,
        PerturbedAction(window=win, pool=pool, rows=rows, radius=Fraction(1)),
    ]
    for action in actions:
        assert set(action.inverse_rows) == set(action.rows)
        for g, row in action.rows.items():
            scan = [next((i for i, j in enumerate(row) if j == y), None) for y in range(len(action.window))]
            assert action.inverse_rows[g] == scan


def test_perturbed_action_rejects_row_length_mismatch():
    win = grid_sample(C, 4)
    g = C.element(Fraction(1, 4))
    with pytest.raises(ValueError):
        PerturbedAction(window=win, pool=window(C, [g]), rows={g.data: [0, 1]}, radius=Fraction(1))


@pytest.mark.parametrize(
    "row", [[1, 2, 3, -4], [1, 2, 3, 7], [1.0, 2, 3, 0], [True, 2, 3, 0], ["1", 2, 3, 0]]
)
def test_perturbed_action_from_json_rejects_noncanonical_index(row):
    payload = {"window": grid_sample(C, 4).to_json(), "pool": ["1/4"], "rows": {"1/4": row}, "radius": "0"}
    with pytest.raises(ValueError, match="row of 1/4"):
        PerturbedAction.from_json(payload, C)


@pytest.mark.parametrize("flag", ["no", 1, "true"])
def test_perturbed_action_from_json_rejects_nonboolean_involution(flag):
    payload = {"window": grid_sample(C, 4).to_json(), "pool": ["1/4"], "rows": {"1/4": [1, 2, 3, 0]}, "radius": "0"}
    loaded = PerturbedAction.from_json({**payload, "involution": {"1/4": False}}, C)
    assert loaded.involution == {Fraction(1, 4): False}
    with pytest.raises(ValueError, match=r"involution\[1/4\]"):
        PerturbedAction.from_json({**payload, "involution": {"1/4": flag}}, C)


@pytest.mark.parametrize("rows, flags, at, reason", [
    # alpha(1/4) adds 1/2, so psi(1/4) adds 1/4 and has order 4
    ({"1/4": [2, 3, 0, 1]}, {"1/4": True}, "involution[1/4]", "psi(g) does not square to the identity at 0"),
    ({"1/4": [1, 2, 3, 0]}, {"1/4": True, "1/2": True}, "involution[1/2]", "flags an element with no row"),
], ids=["non-involutive-row", "flag-without-row"])
def test_perturbed_action_from_json_checks_true_involution_flags(rows, flags, at, reason):
    payload = {"window": grid_sample(C, 4).to_json(), "pool": ["1/4"], "rows": rows, "radius": "1/2"}
    PerturbedAction.from_json({**payload, "involution": {k: False for k in flags}}, C)  # a false flag claims nothing
    with pytest.raises(CertificateError) as caught:
        PerturbedAction.from_json({**payload, "involution": flags}, C)
    assert (caught.value.path, caught.value.reason) == (at, reason)


@pytest.mark.parametrize("fields, at, reason", [
    # a table whose one pool element has no row used to verify with ratio 1
    ({"pool": ["1/2"], "rows": {"1/4": [1, 2, 3, 0]}, "folner_windows": [["0"]], "folner_pools": [["1/2"]]},
     "pool", "1/2 has no row"),
    ({"rows": {"1/4": [1, 2, 3, 0], "1/2": [2, 3, 0, 1]}}, "rows", "row of 1/2 for an element outside the pool"),
    ({"folner_windows": [["0"]], "folner_pools": [["0", "1/2"]]}, "folner_pools[0]", "1/2 has no row"),
], ids=["pool-without-row", "row-outside-pool", "folner-pool-without-row"])
def test_perturbed_action_pool_is_the_rows_keys(fields, at, reason):
    payload = {"window": grid_sample(C, 4).to_json(), "pool": ["1/4"], "rows": {"1/4": [1, 2, 3, 0]}, "radius": "1/2"}
    # the identity may sit in a Folner pool without a row, and moves nothing
    action = PerturbedAction.from_json({**payload, "folner_windows": [["0"]], "folner_pools": [["0", "1/4"]]}, C)
    assert verify_perturbation(action, Entourage(ARC, Fraction(1, 2))).rosenblatt == [(0, Fraction(2))]
    with pytest.raises(CertificateError) as caught:
        PerturbedAction.from_json({**payload, **fields}, C)
    assert (caught.value.path, caught.value.reason) == (at, reason)


def _circle_points(top_denominator):
    return st.integers(1, top_denominator).flatmap(lambda q: st.integers(0, q - 1).map(lambda p: Fraction(p, q)))


# model, the payloads of its table points and pool, radii
DEVIATION_CASES = [
    (C, _circle_points(40), _circle_points(30)),
    (make_model("torus", dim=2), st.tuples(_circle_points(12), _circle_points(12)), _circle_points(30)),
    (make_model("lattice", dim=2), st.tuples(st.integers(-4, 4), st.integers(-4, 4)), _circle_points(30).map(lambda r: 12 * r)),
    (make_model("free", rank=2), st.lists(st.sampled_from([1, -1, 2, -2]), max_size=4), _circle_points(30).map(lambda r: 10 * r)),
    (make_model("heisenberg"), st.tuples(st.integers(-2, 2), st.integers(-2, 2), st.integers(-4, 4)),
     _circle_points(30).map(lambda r: 12 * r)),
    (Z12, st.integers(0, 11), _circle_points(30).map(lambda r: 7 * r)),
]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_deviation_scan_matches_fraction_oracle(data):
    # Random tables on every model: rows are random injections with holes,
    # so most entries miss g h and many violate the radius.  Each table is
    # scanned under the model's own metric, the discrete metric and scaled
    # ones, nested once, against the Fraction scan on `fraction_eval`.
    for model, payloads, radii in DEVIATION_CASES:
        win = window(model, data.draw(st.lists(payloads, min_size=1, max_size=20)))
        pool = window(model, data.draw(st.lists(payloads, min_size=1, max_size=5)))
        rows = {}
        for g in pool.positions:
            images = data.draw(st.permutations(list(range(len(win)))))
            holes = data.draw(st.lists(st.booleans(), min_size=len(win), max_size=len(win)))
            rows[g] = [None if hole else j for j, hole in zip(images, holes)]
        windows = [window(model, data.draw(st.lists(st.sampled_from(win.elements), min_size=1, max_size=6)))]
        action = PerturbedAction(window=win, pool=pool, rows=rows, radius=Fraction(0),
                                 folner_windows=windows, folner_pools=[pool][: data.draw(st.integers(0, 1))])
        radius = data.draw(radii)
        own = model.default_metric()
        metrics = (own, DiscreteMetric(model), ScaledMetric(own, Fraction(3, 2)),
                   ScaledMetric(ScaledMetric(own, Fraction(5, 6)), Fraction(9, 7)),
                   ScaledMetric(DiscreteMetric(model), Fraction(2, 3)))
        for metric in metrics:
            U = Entourage(metric, radius)
            got, want = verify_perturbation(action, U), fraction_verify_perturbation(action, U)
            assert got == want, (model, metric.to_json())
            assert got.to_json() == want.to_json()


def test_precompact_refuses_too_many_centers_before_any_matching(monkeypatch):
    # 28 separated centers exceed the cap of 8; the center count alone
    # decides, so no sample matching is solved first.
    calls = []
    monkeypatch.setattr(perturb, "max_matching", lambda inst: calls.append(inst))
    U = Entourage(ARC, Fraction(1, 10))
    with pytest.raises(ConstructionError, match="^28 centers exceed the exact-closure cap 8$"):
        precompact_perturbation(U, grid_sample(C, 600), grid_sample(C, 60))
    assert calls == []
