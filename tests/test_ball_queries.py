"""Differential tests: every ball query that reads `build_graph` rows against
the Fraction scan it replaced (`ball_oracles`).

Windows are seeded random subsets of grids over the circle, the cyclic
group Z_12 and the 2-torus, with the model's own metric and a scaled copy.
Radii are drawn on the grid's own distances, so points sit exactly at the
radius, and grid points are often equidistant from two centers; the loops
count both kinds of case and assert that they occurred.  The relocation
search is also checked against its earlier two-part clash test.
"""

import random
import re
from fractions import Fraction

import pytest

import ball_oracles
from ball_oracles import (
    fraction_candidates,
    fraction_uniform_pieces,
    greedy_separated,
    index_rotation_rows,
    nearest_centers,
)
from folnerlab.groups import ArcMetric, Entourage, ScaledMetric, WordMetric, make_model, window
from folnerlab.matching import build_graph
from folnerlab.perturb import (
    BudgetError,
    ConstructionError,
    _rotation_rows,
    _separated_centers,
    _uniform_step,
    moving_injection,
)
from folnerlab.weights import FiniteWeight, SupplyError, approx_by_uniform
from fraction_oracles import fraction_eval

C = make_model("circle")
Z12 = make_model("cyclic", modulus=12)
T2 = make_model("torus", dim=2)
BASES = {"circle": ArcMetric(C), "cyclic": WordMetric(Z12), "torus": ArcMetric(T2)}
SEEDS = range(40)


def _metric(kind: str, rng: random.Random):
    """The model's own metric or a scaled copy, with the factor."""
    base = BASES[kind]
    if rng.random() < 0.5:
        return base, Fraction(1)
    factor = Fraction(rng.randint(1, 5), rng.randint(1, 3))
    return ScaledMetric(base, factor), factor


def _points(kind: str, rng: random.Random, size: int, q: int) -> list:
    """Distinct random payloads on the grid of step 1/q (step 1 on Z_12)."""
    if kind == "circle":
        grid = [Fraction(k, q) for k in range(q)]
    elif kind == "cyclic":
        grid = list(range(12))
    else:
        grid = [(Fraction(a, q), Fraction(b, q)) for a in range(q) for b in range(q)]
    return rng.sample(grid, min(size, len(grid)))


def _case(kind: str, seed: int):
    """(rng, model, metric, radius, grid step on the metric's scale, q) of a
    case on the grid of step 1/q; most radii are grid distances."""
    rng = random.Random(seed)
    model = {"circle": C, "cyclic": Z12, "torus": T2}[kind]
    metric, factor = _metric(kind, rng)
    q = rng.randint(2, 12) if kind == "circle" else rng.randint(2, 5) if kind == "torus" else 1
    step = factor / q
    radius = step * rng.randint(0, 4)
    if rng.random() < 0.2:  # off the grid distances
        radius += step / 3
    return rng, model, metric, radius, step, q


KINDS = ("circle", "cyclic", "torus")


def _first_injection(candidates: list) -> list | None:
    """The first choice of distinct candidates, one per point, in the order
    `moving_injection` tries them when there is no shift to keep clear of."""
    chosen: list = []

    def place(i: int) -> bool:
        if i == len(candidates):
            return True
        for y in candidates[i]:
            if y not in chosen:
                chosen.append(y)
                if place(i + 1):
                    return True
                chosen.pop()
        return False

    return chosen if place(0) else None


def test_candidate_rows_match_fraction_scan():
    at_radius = 0
    for kind in KINDS:
        for seed in SEEDS:
            rng, model, metric, radius, _, q = _case(kind, seed)
            F = window(model, _points(kind, rng, rng.randint(1, 5), q))
            supply = window(model, _points(kind, rng, rng.randint(1, 12), q))
            U = Entourage(metric, radius)
            rows = [[supply[j] for j in row] for row in build_graph(F, supply, U).adjacency]
            identity = window(model, [model.identity()])
            try:
                want = fraction_candidates(F, U, supply)
            except ConstructionError as exc:
                assert any(not row for row in rows)
                if not model.discrete:
                    with pytest.raises(ConstructionError, match=f"^{re.escape(str(exc))}$"):
                        moving_injection(F, identity, U, supply)
                continue
            assert rows == want
            at_radius += sum(fraction_eval(metric, y, x) == radius for x, row in zip(F, rows) for y in row)
            if model.discrete:  # moving injections run on the circle and the torus
                continue
            chosen = _first_injection(want)
            if chosen is None:
                with pytest.raises(ConstructionError, match="cannot relocate"):
                    moving_injection(F, identity, U, supply)
            else:
                assert moving_injection(F, identity, U, supply) == {x.data: y.data for x, y in zip(F, chosen)}
    assert at_radius > 0


def test_relocation_matches_two_part_clash_test():
    # Pools of up to three shifts on the grid, supplies on the same or a
    # finer grid: the relocation, or its refusal, is the oracle's, which
    # tests every candidate against the chosen points once per shift.
    clashed = refused = 0
    for kind in ("circle", "torus"):
        for seed in range(100):
            rng, model, metric, radius, _, q = _case(kind, seed)
            F = window(model, _points(kind, rng, rng.randint(1, 4), q))
            E = window(model, _points(kind, rng, rng.randint(1, 4), q))
            supply = window(model, _points(kind, rng, rng.randint(1, 30), q * rng.randint(1, 3)))
            U = Entourage(metric, radius)
            try:
                want = ball_oracles.moving_injection(F, E, U, supply)
            except (ConstructionError, BudgetError) as exc:
                with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                    moving_injection(F, E, U, supply)
                refused += "cannot relocate" in str(exc)
                continue
            assert moving_injection(F, E, U, supply) == want
            # a shift moved some point off its first free candidate
            first = _first_injection(fraction_candidates(F, U, supply)) or []
            clashed += list(want.values()) != [y.data for y in first]
    assert clashed > 0 and refused > 0


def test_separated_centers_match_greedy_scan():
    at_third = ties = 0
    for kind in KINDS:
        for seed in SEEDS:
            rng, model, metric, third, _, q = _case(kind, seed)
            win = window(model, _points(kind, rng, rng.randint(1, 16), q))
            got, assignment = _separated_centers(win, Entourage(metric, third))
            centers = [win[i] for i in greedy_separated(win, metric, third)]
            assert list(got) == centers
            assert assignment == nearest_centers(win, metric, third, centers)
            for x in win:
                dists = sorted(fraction_eval(metric, x, c) for c in centers)
                at_third += third in dists
                ties += len(dists) > 1 and dists[0] == dists[1]
    assert at_third > 0 and ties > 0


def _grid(kind: str, n: int):
    if kind == "circle":
        return window(C, [Fraction(k, n) for k in range(n)])
    return window(Z12, range(0, 12, 12 // n))


def test_rotation_rows_match_index_lookup():
    halfway = 0
    for kind in ("circle", "cyclic"):  # the torus has no grid-rotation lift
        for seed in SEEDS:
            rng = random.Random(seed)
            metric, factor = _metric(kind, rng)
            n = rng.randint(1, 12) if kind == "circle" else rng.choice([1, 2, 3, 4, 6, 12])
            win = _grid(kind, n)
            step = _uniform_step(win)
            model = win.model
            if kind == "circle":
                points = [Fraction(rng.randint(0, 4 * n - 1), 4 * n) for _ in range(4)]
            else:
                points = [rng.randint(0, 11) for _ in range(4)]
            sample = window(model, points)
            U = Entourage(metric, factor * step * Fraction(rng.randint(0, 2), 2))
            try:
                want = index_rotation_rows(win, step, sample, U)
            except ConstructionError as exc:
                with pytest.raises(ConstructionError) as info:
                    _rotation_rows(win, step, list(sample.positions), U)
                assert str(info.value) == str(exc)
                continue
            assert _rotation_rows(win, step, list(sample.positions), U) == want
            halfway += sum(Fraction(g.data) / step % 1 == Fraction(1, 2) for g in sample)
    assert halfway > 0


def test_uniform_pieces_match_fraction_scan():
    at_radius = 0
    for kind in KINDS:
        for seed in SEEDS:
            rng, model, metric, radius, step, q = _case(kind, seed)
            support = _points(kind, rng, rng.randint(1, 3), q)
            denom = rng.randint(len(support), 6)
            cuts = sorted(rng.sample(range(1, denom), len(support) - 1))
            masses = [Fraction(b - a, denom) for a, b in zip([0] + cuts, cuts + [denom])]
            a = FiniteWeight(model, list(zip(support, masses)))
            supply = window(model, _points(kind, rng, rng.randint(1, 16), q))
            epsilon = 2 * radius if radius > 0 else 2 * step
            try:
                want = fraction_uniform_pieces(a, metric, epsilon, supply)
            except SupplyError as exc:
                with pytest.raises(SupplyError) as info:
                    approx_by_uniform(a, metric, epsilon, supply)
                assert str(info.value) == str(exc)
                continue
            assert approx_by_uniform(a, metric, epsilon, supply).pieces == want
            at_radius += sum(
                fraction_eval(metric, model.element(x), y) == epsilon / 2 for x, piece in want.items() for y in piece
            )
    assert at_radius > 0

