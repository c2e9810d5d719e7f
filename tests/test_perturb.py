"""Perturbed actions: moving injections, packages, assembly, the precompact
construction, and wobbling decompositions."""

from fractions import Fraction

import pytest

from folnerlab.groups import (
    ArcMetric,
    Entourage,
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
        assert ARC.eval(x, y) <= Fraction(1, 8)


def test_moving_injection_halves():
    F = window(C, [Fraction(0), Fraction(1, 2)])
    E = window(C, [Fraction(1, 2)])
    U = Entourage(ARC, Fraction(1, 8))
    phi = moving_injection(F, E, U, grid_sample(C, 16))
    image = set(phi.values())
    shifted = {C.mul(C.element(Fraction(1, 2)), y) for y in image}
    assert not (image & shifted)
    for x, y in phi.items():
        assert ARC.eval(x, y) <= Fraction(1, 8)


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
    pkg = folner_package(Fraction(1, 2), window(C, [Fraction(0)]), U, C)
    assert len(pkg.F) == 1 and pkg.D == pkg.F


def test_package_circle_fifth():
    U = Entourage(ARC, Fraction(1, 10))
    pkg = folner_package(Fraction(1, 2), window(C, [Fraction(1, 5)]), U, C, budget=40)
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
            assert ARC.eval(x, y) <= U.radius
            assert C.mul(C.inv(g), y) in pkg.F


def test_package_discrete_rejected():
    U = Entourage(WordMetric(Z), Fraction(1))
    with pytest.raises(ConstructionError):
        folner_package(Fraction(1, 2), window(Z, [(1,)]), U, Z)


def test_package_budget_error():
    U = Entourage(ARC, Fraction(1, 1000))
    with pytest.raises(BudgetError):
        folner_package(Fraction(99, 100), window(C, [Fraction(1, 7)]), U, C, budget=2)


# --- assembly -------------------------------------------------------------------


def _assembled():
    U = Entourage(ARC, Fraction(1, 10))
    family = [
        (window(C, [Fraction(0), Fraction(1, 5)]), 4),
        (window(C, [Fraction(0), Fraction(2, 5)]), 4),
    ]
    return build_perturbation(C, family, U, budget=40), U


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
        g_inv = C.inv(g)
        for y in action.window:
            h = C.mul(g_inv, y)
            if h not in action.window:
                continue
            once = action.apply(g, h)
            if once is None:
                continue
            h2 = C.mul(g_inv, once)
            if h2 in action.window:
                assert action.apply(g, h2) == y


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
        build_perturbation(C, [(window(C, [Fraction(1, 5)]), 4)], U)


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
    action = PerturbedAction(window=win, pool=window(C, [g]), rows={g: row}, radius=Fraction(0))
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
    result = precompact_perturbation(C, U, grid_sample(C, 60), grid_sample(C, 12))
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
    result = precompact_perturbation(C, U, grid_sample(C, 60), grid_sample(C, 12))
    V = U.with_radius(U.radius / 3)
    for g in grid_sample(C, 12):
        inst = build_graph(result.centers, translate_window(g, result.centers), V)
        assert max_matching(inst).perfect


def test_precompact_cyclic_trivial():
    U = Entourage(WordMetric(Z12), Fraction(100))
    win = window(Z12, list(range(12)))
    result = precompact_perturbation(Z12, U, win, win)
    assert len(result.centers) == 1
    assert result.group_order == 1
    assert result.lift_mode == "fiber-transport"
    for g, row in result.action.rows.items():
        assert row == list(range(12))  # identity rows


def test_precompact_cyclic_balanced_fibers():
    # radius 7 separates centers {0, 3, 6, 9} with three window points each
    U = Entourage(WordMetric(Z12), Fraction(7))
    win = window(Z12, list(range(12)))
    result = precompact_perturbation(Z12, U, win, win)
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
    result = precompact_perturbation(Z12, U, win, win)
    assert result.lift_mode == "grid-rotation"
    assert result.order_bound % result.group_order == 0
    assert verify_perturbation(result.action, U).ok


def test_precompact_deviation_exhaustive():
    U = Entourage(ARC, Fraction(7, 20))
    result = precompact_perturbation(C, U, grid_sample(C, 60), grid_sample(C, 12))
    report = verify_perturbation(result.action, U)
    assert report.ok and report.entries_checked == 60 * 12


def test_precompact_rejects_discrete_model():
    with pytest.raises(ConstructionError):
        precompact_perturbation(Z, Entourage(WordMetric(Z), Fraction(1)), window(Z, [(0,)]), window(Z, [(0,)]))


def test_precompact_empty_window():
    with pytest.raises(ValueError):
        precompact_perturbation(C, Entourage(ARC, Fraction(1, 4)), window(C, []), grid_sample(C, 4))


# --- wobbling --------------------------------------------------------------------


def test_wobbling_rotation_single_piece():
    grid = grid_sample(C, 12)
    g = C.element(Fraction(1, 4))
    perm = [grid.index(C.mul(g, x)) for x in grid]
    wob = decompose_wobbling(perm, grid, window(C, [Fraction(1, 4)]))
    assert len(wob.pieces) == 1
    assert wob.pieces[0][0] == g
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
    assert info.value.witness in grid


def test_wobbling_rejects_non_permutation():
    grid = grid_sample(C, 4)
    with pytest.raises(ValueError):
        decompose_wobbling([0, 0, 1, 2], grid, window(C, [Fraction(0)]))


def test_build_trivial_under_huge_entourage():
    U = Entourage(ARC, Fraction(10))
    assembled = build_perturbation(C, [(window(C, [Fraction(0), Fraction(1, 3)]), 2)], U, budget=20)
    assert verify_perturbation(assembled.action, U).ok


def test_precompact_circle_balanced_grid_embeds_center_group():
    # 120 points over 8 centers: equal fibers, so the lift is a group embedding
    U = Entourage(ARC, Fraction(7, 20))
    result = precompact_perturbation(C, U, grid_sample(C, 120), grid_sample(C, 12))
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
        PerturbedAction(window=win, pool=window(C, [g]), rows={g: [0, 0, 1, 2]}, radius=Fraction(1))


def test_perturbed_action_rejects_row_length_mismatch():
    win = grid_sample(C, 4)
    g = C.element(Fraction(1, 4))
    with pytest.raises(ValueError):
        PerturbedAction(window=win, pool=window(C, [g]), rows={g: [0, 1]}, radius=Fraction(1))


@pytest.mark.parametrize("row", [[1, 2, 3, -4], [1, 2, 3, 7]])
def test_perturbed_action_from_json_rejects_noncanonical_index(row):
    payload = {"window": grid_sample(C, 4).to_json(), "pool": ["1/4"], "rows": {"1/4": row}, "radius": "0"}
    with pytest.raises(ValueError, match="row of 1/4"):
        PerturbedAction.from_json(payload, C)
