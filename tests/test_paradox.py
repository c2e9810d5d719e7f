"""Paradox certificates: classifiers, window verification with boundary
accounting, fault injection, and the defect search."""

import copy
import hashlib
import json
import random
from fractions import Fraction

import pytest

from folnerlab import paradox
from folnerlab.cli import ConfigError, main, run_scenario_config
from folnerlab.groups import FreeGroupModel, grid_sample, make_model, window, word_ball
from folnerlab.paradox import (
    CLASSIFIER_DEPTH_CAP,
    CertificateError,
    ParadoxCertificate,
    _AssignmentProblem,
    _Budget,
    _BudgetExhausted,
    _Family,
    _preimages,
    evaluate_classifier,
    f2_standard_certificate,
    search_small_paradox,
    verify_on_window,
)
from folnerlab.perturb import PerturbedAction
from paradox_oracles import evaluate, preimages, topdown_exact

F2 = make_model("free", rank=2)
F3 = make_model("free", rank=3)
Z = make_model("lattice", dim=1)
Z2 = make_model("lattice", dim=2)
C = make_model("circle")


# --- classifiers ----------------------------------------------------------------


def test_first_letter_and_power():
    assert evaluate_classifier({"op": "first_letter", "letter": "a"}, F2.parse("a,b"))
    assert not evaluate_classifier({"op": "first_letter", "letter": "a"}, F2.parse("B,a"))
    assert evaluate_classifier({"op": "power", "letter": "A"}, F2.identity())
    assert evaluate_classifier({"op": "power", "letter": "A"}, F2.parse("A,A"))
    assert not evaluate_classifier({"op": "power", "letter": "A"}, F2.parse("A,b"))


def test_boolean_ops_and_membership():
    clf = {"op": "and", "args": [{"op": "not", "arg": {"op": "identity"}}, {"op": "in", "elements": ["a", "b"]}]}
    assert evaluate_classifier(clf, F2.parse("a"))
    assert not evaluate_classifier(clf, F2.identity())
    # the tree is checked first, so a string of elements is no substring test
    with pytest.raises(CertificateError, match=r"^classifier\.elements: "):
        evaluate_classifier({"op": "in", "elements": "0"}, Z.element((0,)))


def test_coordinate_predicates():
    assert evaluate_classifier({"op": "coord_sign", "index": 0, "sign": "+"}, Z.element((3,)))
    assert evaluate_classifier({"op": "coord_sign", "index": 0, "sign": "0"}, Z.element((0,)))
    assert evaluate_classifier({"op": "residue", "index": 0, "mod": 2, "value": 1}, Z.element((5,)))
    # residue needs integer coordinates: refused on the circle, even at 0
    for x in (Fraction(1, 3), Fraction(0)):
        with pytest.raises(CertificateError, match=r"^classifier\.op: residue needs integer coordinates$"):
            evaluate_classifier({"op": "residue", "index": 0, "mod": 2, "value": 0}, C.element(x))


def test_unknown_op():
    with pytest.raises(CertificateError, match=r"^classifier\.op: unknown classifier op 'nope'$"):
        evaluate_classifier({"op": "nope"}, F2.identity())


def test_free_only_predicates_guarded():
    with pytest.raises(CertificateError, match=r"^classifier\.op: first_letter needs a free-group model$"):
        evaluate_classifier({"op": "first_letter", "letter": "a"}, Z.element((1,)))


# --- the standard free-group certificate ------------------------------------------


def test_standard_certificate_piece_assignment():
    cert = f2_standard_certificate(F2)
    # e and inverse powers of the first generator sit in the first piece
    for text in ("e", "A", "A,A"):
        g = F2.parse(text)
        assert evaluate_classifier(cert.a_pieces[0], g)
        assert not evaluate_classifier(cert.a_pieces[1], g)
    g = F2.parse("A,b")
    assert evaluate_classifier(cert.a_pieces[1], g)
    # exactly one piece matches across the whole of B_4
    for x in grid_sample(F2, 4):
        matches = sum(
            evaluate_classifier(clf, x) for clf in cert.a_pieces + cert.b_pieces
        )
        assert matches == 1


def test_standard_certificate_verifies_small_balls():
    cert = f2_standard_certificate(F2)
    for n in range(1, 7):
        report = verify_on_window(cert, grid_sample(F2, n))
        assert report.interior_violations == 0
        for eq in report.equations:
            assert eq.checkable + eq.boundary_defects == eq.window_size
            assert eq.exactly_once + eq.interior_violations == eq.checkable


def test_boundary_defects_only_at_top_length():
    cert = f2_standard_certificate(F2)
    n = 5
    report = verify_on_window(cert, grid_sample(F2, n))
    cover = next(e for e in report.equations for _ in [0] if e.name == "a-cover")
    # counts: boundary points are exactly the length-n words with growing preimage
    top_words = [w for w in grid_sample(F2, n) if len(w.data) == n]
    growing = [w for w in top_words if not (w.data and w.data[0] == 1)]
    assert cover.boundary_defects == len(growing)


def test_corruption_yields_violation():
    base = f2_standard_certificate(F2)
    ball = grid_sample(F2, 4)
    variants = []
    c1 = copy.deepcopy(base)
    c1.b_pieces[0] = {"op": "first_letter", "letter": "a"}
    variants.append(c1)
    c2 = copy.deepcopy(base)
    c2.a_pieces[0] = {"op": "first_letter", "letter": "a"}  # drop the power clause
    variants.append(c2)
    c3 = copy.deepcopy(base)
    c3.a_words[1] = (F2.parse_data("b"),)  # wrong translator
    variants.append(c3)
    for cert in variants:
        assert verify_on_window(cert, ball).interior_violations >= 1


def test_window_monotonicity():
    cert = f2_standard_certificate(F2)
    bad = copy.deepcopy(cert)
    bad.b_pieces[0] = {"op": "first_letter", "letter": "a"}
    previous = 0
    for n in range(2, 6):
        count = verify_on_window(bad, grid_sample(F2, n)).interior_violations
        assert count >= previous
        previous = count


def test_certificate_json_roundtrip():
    cert = f2_standard_certificate(F2)
    restored = ParadoxCertificate.from_json(cert.to_json(), F2)
    assert restored.to_json() == cert.to_json()
    report1 = verify_on_window(cert, grid_sample(F2, 3))
    report2 = verify_on_window(restored, grid_sample(F2, 3))
    assert report1.to_json() == report2.to_json()


def test_amenable_window_has_violations():
    # a 2+2 certificate on an integer interval cannot tile the interior
    cert = ParadoxCertificate(
        model=Z,
        form="two_equation",
        a_words=[(), ((1,),)],
        a_pieces=[
            {"op": "residue", "index": 0, "mod": 2, "value": 0},
            {"op": "residue", "index": 0, "mod": 2, "value": 1},
        ],
        b_words=[(), ((-1,),)],
        b_pieces=[
            {"op": "coord_sign", "index": 0, "sign": "+"},
            {"op": "not", "arg": {"op": "coord_sign", "index": 0, "sign": "+"}},
        ],
    )
    report = verify_on_window(cert, window(Z, [(i,) for i in range(-20, 21)]))
    assert report.interior_violations >= 1


def test_verify_through_perturbed_action():
    # exact rotations as the action evaluator; identity-translator certificate
    grid = grid_sample(C, 8)
    g = C.element(Fraction(1, 8))
    rows = {g.data: [grid.index(C.mul(g, x)) for x in grid]}
    action = PerturbedAction(window=grid, pool=window(C, [g]), rows=rows, radius=Fraction(0))
    cert = ParadoxCertificate(
        model=C,
        form="two_equation",
        a_words=[(g.data,)],
        a_pieces=[{"op": "true"}],
        b_words=[(g.data, g.data)],
        b_pieces=[{"op": "not", "arg": {"op": "true"}}],
    )
    report = verify_on_window(cert, grid, action)
    names = {e.name: e for e in report.equations}
    # every point is covered once by the rotated full piece; table rows are total
    assert names["a-cover"].interior_violations == 0
    assert names["a-cover"].checkable == 8


# --- search ------------------------------------------------------------------------


def test_search_z_control_exact_positive():
    win = window(Z, [(i,) for i in range(-10, 11)])
    pool = window(Z, [(-1,), (0,), (1,)])
    report = search_small_paradox(win, pool, max_pieces=5, budget=3_000_000)
    assert all(r.exhausted for r in report.reports)
    assert min(r.best_defect for r in report.reports) >= 1


def test_search_monotone_in_pieces():
    win = window(Z, [(i,) for i in range(-6, 7)])
    pool = window(Z, [(-1,), (0,), (1,)])
    report = search_small_paradox(win, pool, max_pieces=6, budget=3_000_000)
    defects = [r.best_defect for r in report.reports]
    assert all(d is not None for d in defects)
    assert all(a >= b for a, b in zip(defects, defects[1:]))


def test_search_free_ball_finds_tiling():
    ball = grid_sample(F2, 2)
    pool = window(F2, [F2.parse(s) for s in ["a", "b", "A", "B", "e"]])
    report = search_small_paradox(ball, pool, max_pieces=4, budget=3_000_000)
    best = report.best()
    assert best.best_defect == 0
    check = verify_on_window(best.certificate, ball)
    names = {e.name: e for e in check.equations}
    assert names["a-cover"].interior_violations == 0
    assert names["b-cover"].interior_violations == 0


def test_search_single_point_window():
    report = search_small_paradox(
        window(Z, [(0,)]), window(Z, [(-1,), (0,), (1,)]), max_pieces=4, budget=10_000
    )
    row = report.reports[0]
    assert row.pieces == 4
    # degenerate scale: a zero defect here can only come with (almost) nothing
    # checkable, never from a genuinely double-covered point
    assert row.best_defect == 0 and row.checkable <= 1


def test_search_budget_partial_report():
    win = window(Z, [(i,) for i in range(-10, 11)])
    pool = window(Z, [(-1,), (0,), (1,)])
    report = search_small_paradox(win, pool, max_pieces=6, budget=300)
    assert not report.exhausted
    assert report.nodes_used <= 300 + 50


def test_search_report_json():
    win = window(Z, [(i,) for i in range(-3, 4)])
    pool = window(Z, [(0,), (1,)])
    report = search_small_paradox(win, pool, max_pieces=4, budget=100_000)
    payload = report.to_json()
    assert payload["per_piece_count"][0]["pieces"] == 4


def test_search_free_b4_zero_defect():
    ball = grid_sample(F2, 4)
    pool = window(F2, [F2.parse(s) for s in ["a", "b", "A", "B", "e"]])
    report = search_small_paradox(ball, pool, max_pieces=4, budget=3_000_000)
    best = report.best()
    assert best.best_defect == 0
    assert verify_on_window(best.certificate, ball).interior_violations == 0


# --- index-based verification against the element loop ---------------------------


def _oracle_equations(cert):
    """Each equation's terms as (word, classifier), for the equations that
    `cert.equations()` names."""
    a_terms = list(zip(cert.a_words, cert.a_pieces))
    b_terms = list(zip(cert.b_words, cert.b_pieces))
    id_a = [((), clf) for _, clf in a_terms]
    id_b = [((), clf) for _, clf in b_terms]
    if cert.form == "two_equation":
        equations = [("pieces-partition", id_a + id_b), ("a-cover", a_terms), ("b-cover", b_terms)]
    else:
        equations = [("a-partition", id_a), ("b-partition", id_b), ("combined-cover", a_terms + b_terms)]
    names = {name for name, _ in cert.equations()}
    return [(name, terms) for name, terms in equations if name in names]


def _oracle_preimage(model, action, word, x):
    y = x
    for data in reversed(word):
        if action is None:
            y = model.mul(model.inv(model.element(data)), y)
            continue
        row = action.rows.get(data)
        if y is None or row is None or y not in action.window:
            return None
        target = action.window.index(y)
        y = next((action.window[i] for i, j in enumerate(row) if j == target), None)
    return y


def _oracle_verify(cert, win, action=None):
    """The element-by-element loop that verify_on_window replaced, walking
    each classifier tree at each point it reads."""
    reports = []
    for name, terms in _oracle_equations(cert):
        checkable = once = violations = boundary = 0
        samples = []
        for x in win:
            pres = []
            ok = True
            for word, _ in terms:
                y = _oracle_preimage(cert.model, action, word, x)
                if y is None or y not in win:
                    ok = False
                    break
                pres.append(y)
            if not ok:
                boundary += 1
                continue
            checkable += 1
            count = sum(evaluate(clf, y) for y, (_, clf) in zip(pres, terms))
            if count == 1:
                once += 1
            else:
                violations += 1
                if len(samples) < 10:
                    samples.append({"element": cert.model.format(x), "count": count})
        reports.append(
            {
                "equation": name,
                "window_size": len(win),
                "checkable": checkable,
                "exactly_once": once,
                "interior_violations": violations,
                "boundary_defects": boundary,
                "samples": samples,
            }
        )
    return {"equations": reports}


def _assert_matches_oracle(cert, win, action=None):
    got = verify_on_window(cert, win, action).to_json()
    assert got == _oracle_verify(cert, win, action)
    return got


H = make_model("heisenberg")
CYCLIC = make_model("cyclic", modulus=12)
T2 = make_model("torus", dim=2)
# Every model kind: residue is evaluated on the first five and refused on
# the circle and the torus, whose coordinates are not integers.
DIFFERENTIAL_MODELS = [Z, Z2, F2, H, CYCLIC, C, T2]
DIFFERENTIAL_IDS = ["Z", "Z2", "F2", "H", "cyclic", "circle", "torus"]
RESIDUE_REFUSAL = "residue needs integer coordinates"


def _coordinate_count(model):
    data = model.identity_data
    return len(data) if isinstance(data, tuple) else 1


def _random_tree(rng, model, names, depth=0):
    leaves = ["true", "identity", "in"]
    if model is F2:
        leaves += ["first_letter", "power"]
    else:
        leaves += ["coord_sign", "residue"]
    ops = leaves + (["and", "or", "not"] if depth < 3 else [])
    op = rng.choice(ops)
    if op in ("true", "identity"):
        return {"op": op}
    if op in ("and", "or"):
        return {"op": op, "args": [_random_tree(rng, model, names, depth + 1) for _ in range(rng.randint(0, 3))]}
    if op == "not":
        return {"op": "not", "arg": _random_tree(rng, model, names, depth + 1)}
    if op == "in":
        return {"op": "in", "elements": rng.sample(names, rng.randint(0, len(names)))}
    if op in ("first_letter", "power"):
        return {"op": op, "letter": rng.choice("aAbB")}
    index = rng.randrange(_coordinate_count(model))
    if op == "coord_sign":
        return {"op": op, "index": index, "sign": rng.choice("+-0")}
    mod = rng.randint(1, 4)
    return {"op": op, "index": index, "mod": mod, "value": rng.randint(-1, mod)}


def _random_fields(rng, model, translators, names, pieces=None):
    """The constructor fields of a seeded random certificate."""

    def family():
        k = rng.randint(1, 3)
        words = [tuple(rng.choice(translators) for _ in range(rng.randint(0, 2))) for _ in range(k)]
        clfs = [pieces(rng) if pieces else _random_tree(rng, model, names) for _ in range(k)]
        return words, clfs

    a_words, a_pieces = family()
    b_words, b_pieces = family()
    form = rng.choice(["two_equation", "tarski"])
    return dict(model=model, form=form, a_words=a_words, a_pieces=a_pieces, b_words=b_words, b_pieces=b_pieces)


def _random_certificate(rng, model, translators, names, pieces=None):
    return ParadoxCertificate(**_random_fields(rng, model, translators, names, pieces))


def _first_residue(fields):
    """The `.op` path of the first residue node in load order (A before B,
    each tree depth first, args in order), or None."""

    def walk(clf, path):
        if clf["op"] == "residue":
            return f"{path}.op"
        children = [(clf["arg"], f"{path}.arg")] if "arg" in clf else []
        children += [(arg, f"{path}.args[{i}]") for i, arg in enumerate(clf.get("args", []))]
        return next(filter(None, (walk(child, at) for child, at in children)), None)

    pieces = [(f"A[{i}]", clf) for i, clf in enumerate(fields["a_pieces"])]
    pieces += [(f"B[{j}]", clf) for j, clf in enumerate(fields["b_pieces"])]
    return next(filter(None, (walk(clf, path) for path, clf in pieces)), None)


def _verified_or_refused(fields, win, action=None) -> bool:
    """Verify a certificate against the element loop, True; or, where it
    holds a residue node on a model without integer coordinates, check that
    loading refuses it at the first such node's `.op`, False."""
    where = None if fields["model"].discrete else _first_residue(fields)
    if where is None:
        _assert_matches_oracle(ParadoxCertificate(**fields), win, action)
        return True
    with pytest.raises(CertificateError) as info:
        ParadoxCertificate(**fields)
    assert (info.value.path, info.value.reason) == (where, RESIDUE_REFUSAL)
    return False


def _random_window(rng, model):
    if model is Z:
        points = [(i,) for i in range(-7, 8) if rng.random() < 0.8]
    elif model is Z2:
        points = [(i, j) for i in range(-3, 4) for j in range(-3, 4) if rng.random() < 0.8]
    elif model is F2:
        points = [w for w in grid_sample(F2, 3) if len(w.data) < 2 or rng.random() < 0.7]
    else:
        base = word_ball(model, 2 if model is H else 6) if model.discrete else grid_sample(model, 4 if model is T2 else 8)
        points = [x for x in base if rng.random() < 0.8] or list(base)[:1]
    return window(model, points)


def _translators(model):
    return list(grid_sample(model, 1 if model.discrete else 4).positions)


@pytest.mark.parametrize("model", DIFFERENTIAL_MODELS, ids=DIFFERENTIAL_IDS)
def test_verify_on_window_matches_element_loop_on_random_trees(model):
    # on the circle and the torus, a tree holding residue is refused at load
    # instead, at its first residue node
    rng = random.Random(5)
    translators = _translators(model)
    verified = 0
    for _ in range(40):
        win = _random_window(rng, model)
        names = [model.format(x) for x in rng.sample(list(win), min(6, len(win)))] + ["9,9"]
        verified += _verified_or_refused(_random_fields(rng, model, translators, names), win)
    if model.discrete:
        assert verified == 40
    else:
        assert 0 < verified < 40


@pytest.mark.parametrize("model", DIFFERENTIAL_MODELS, ids=DIFFERENTIAL_IDS)
def test_verify_on_window_matches_element_loop_on_tables(model):
    rng = random.Random(6)
    translators = _translators(model)
    for _ in range(30):
        win = _random_window(rng, model)
        names = [model.format(x) for x in win]

        def table(rng):
            return {"op": "in", "elements": [s for s in names if rng.random() < 0.4]}

        cert = _random_certificate(rng, model, translators, names, pieces=table)
        _assert_matches_oracle(cert, win)


def test_verify_on_window_matches_element_loop_on_standard_balls():
    cert = f2_standard_certificate(F2)
    for n in range(1, 6):
        report = _assert_matches_oracle(cert, grid_sample(F2, n))
        assert all(eq["interior_violations"] == 0 for eq in report["equations"])


def test_one_letter_preimage_column_matches_the_element_loop(monkeypatch):
    rng = random.Random(9)
    windows = [word_ball(F2, n) for n in range(6)] + [word_ball(F3, 3)]
    windows += [_random_window(rng, F2) for _ in range(20)]
    letters = [1, -1, 2, -2]
    for _ in range(10):  # random reduced words, some past any ball above
        words = set()
        for _ in range(rng.randint(1, 40)):
            word = []
            for _ in range(rng.randint(0, 7)):
                letter = rng.choice(letters)
                word = word[:-1] if word and word[-1] == -letter else word + [letter]
            words.add(tuple(word))
        windows.append(window(F2, sorted(words)))
    calls = []
    product = FreeGroupModel._mul_data
    monkeypatch.setattr(FreeGroupModel, "_mul_data", lambda self, a, b: calls.append(1) or product(self, a, b))
    for win in windows:
        model = win.model
        longer = [("a", "b"), ("a,b",), ("A", "A")]
        for word in [(s,) for s in model.generators()] + [tuple(map(model.parse_data, w)) for w in longer]:
            calls.clear()
            column = _preimages(win, word)
            # one-letter translators slice; longer words take one product per point
            assert len(calls) == (len(win) if len(word) + len(word[0]) > 2 else 0)
            assert column == preimages(win, word)


PREIMAGE_MODELS = [
    Z,
    Z2,
    F2,
    F3,
    make_model("heisenberg"),
    C,
    make_model("torus", dim=2),
    make_model("cyclic", modulus=12),
]


def _translator_pool(rng, model):
    """Seeded translator payloads: a small ball or grid, and on the free
    groups reduced words of up to five letters as single entries."""
    if model.discrete:
        pool = list(word_ball(model, 2).positions)
    else:
        pool = list(grid_sample(model, 6).positions)
    if isinstance(model, FreeGroupModel):
        letters = [s for i in range(1, model.rank + 1) for s in (i, -i)]
        pool += [model._canonical(rng.choices(letters, k=rng.randint(3, 5))) for _ in range(8)]
    return pool


@pytest.mark.parametrize("model", PREIMAGE_MODELS, ids=repr)
def test_folded_preimage_column_matches_the_element_loop(model):
    # the word folded into one payload against one inverse and one product
    # per entry at every point, on seeded words of up to six entries
    rng = random.Random(f"preimages:{model!r}")
    base = list((word_ball(model, 3) if model.discrete else grid_sample(model, 12)).positions)
    pool = _translator_pool(rng, model)
    for _ in range(12):
        win = window(model, rng.sample(base, rng.randint(1, len(base))))
        for _ in range(10):
            word = tuple(rng.choice(pool) for _ in range(rng.randint(0, 6)))
            assert _preimages(win, word) == preimages(win, word), word


@pytest.mark.parametrize("model", [F2, Z, make_model("heisenberg"), C], ids=repr)
def test_long_translator_word_costs_linear_work(model, monkeypatch):
    # n copies of one generator: the column takes at most n - 1 products to
    # fold the word and one per window point, where the loop over the word
    # took n per point; it equals the column of the word's product
    product = type(model)._mul_data
    calls = []
    monkeypatch.setattr(type(model), "_mul_data", lambda self, a, b: calls.append(1) or product(self, a, b))
    win = grid_sample(model, 4 if model.discrete else 12)
    g = model.generators()[0]
    power = model.identity().data
    for n in range(1, 4001):
        power = product(model, power, g)
        if n in (1, 2, 1000, 4000):
            calls.clear()
            column = _preimages(win, (g,) * n)
            assert len(calls) <= len(win) + n - 1, n
            assert column == _preimages(win, (power,))
    if isinstance(model, FreeGroupModel):  # the standard certificate, its second translator repeated
        cert = f2_standard_certificate(F2)
        cert.a_words[1] *= 4000
        calls.clear()
        report = verify_on_window(cert, win)
        assert len(calls) <= 2 * len(win)  # a product per point for a^-4000, none for b^-1 or the identity
        assert report.interior_violations == 0 and report.equations[1].checkable == 0


def test_verify_on_window_matches_element_loop_through_tables_on_circle():
    # partial injective rows on a 12-point grid; verify windows that drop grid
    # points and add points off the grid; a tree holding residue is refused
    # at load, at its first residue node
    rng = random.Random(8)
    grid = grid_sample(C, 12)
    pool = [Fraction(k, 12) for k in (1, 4, 7)]
    stray = Fraction(5, 24)  # has no row, so words through it leave the table
    verified = 0
    for _ in range(60):
        rows = {}
        for g in pool:
            images = rng.sample(range(12), 12)
            rows[g] = [None if rng.random() < 0.2 else j for j in images]
        action = PerturbedAction(window=grid, pool=window(C, pool), rows=rows, radius=Fraction(1))
        points = [x for x in grid if rng.random() < 0.85] + [C.element(Fraction(k, 24)) for k in (1, 7) if rng.random() < 0.5]
        win = window(C, points)
        names = [C.format(x) for x in rng.sample(list(win), 4)]
        verified += _verified_or_refused(_random_fields(rng, C, pool + [stray], names), win, action)
    assert 0 < verified < 60


RESIDUE = {"op": "residue", "index": 0, "mod": 2, "value": 0}
QUARTER = Fraction(1, 4)
CIRCLE_WINDOW = window(C, [Fraction(k, 8) for k in range(8)])


def _circle_certificate(piece):
    return ParadoxCertificate(
        model=C,
        form="tarski",
        a_words=[(), (QUARTER,)],
        a_pieces=[piece, {"op": "not", "arg": piece}],
        b_words=[()],
        b_pieces=[{"op": "true"}],
    )


SHORT_CIRCUIT_CASES = [
    # an earlier arg decides every point but the identity, the one circle
    # point where residue is defined
    ({"op": "and", "args": [{"op": "identity"}, RESIDUE]}, "A[0].args[1].op"),
    ({"op": "or", "args": [{"op": "not", "arg": {"op": "identity"}}, RESIDUE]}, "A[0].args[1].op"),
    # the same args the other way round reach residue first
    ({"op": "and", "args": [RESIDUE, {"op": "identity"}]}, "A[0].args[0].op"),
    ({"op": "or", "args": [RESIDUE, {"op": "not", "arg": {"op": "identity"}}]}, "A[0].args[0].op"),
    # an `and` that is false everywhere before its residue arg, nested in `or`
    ({"op": "or", "args": [{"op": "and", "args": [{"op": "in", "elements": []}, RESIDUE]}, {"op": "identity"}]},
     "A[0].args[0].args[1].op"),
    ({"op": "not", "arg": RESIDUE}, "A[0].arg.op"),
    ({"op": "not", "arg": {"op": "and", "args": [{"op": "identity"}, RESIDUE]}}, "A[0].arg.args[1].op"),
    # empty args: `and` is true and `or` false, with no residue to refuse
    ({"op": "and", "args": []}, None),
    ({"op": "or", "args": []}, None),
    ({"op": "and", "args": [{"op": "or", "args": []}, RESIDUE]}, "A[0].args[1].op"),
]


@pytest.mark.parametrize("piece, path", SHORT_CIRCUIT_CASES, ids=[json.dumps(c) for c, _ in SHORT_CIRCUIT_CASES])
def test_verify_on_window_short_circuits_like_the_tree_walk(piece, path):
    # on the integers every tree verifies as the tree walk, which stops at
    # the first deciding arg, does; on the circle a tree holding residue is
    # refused at load, at its first residue node, wherever that sits
    on_z = ParadoxCertificate(Z, "tarski", [(), ((1,),)], [piece, {"op": "not", "arg": piece}], [()], [{"op": "true"}])
    _assert_matches_oracle(on_z, window(Z, [(i,) for i in range(-4, 5)]))
    if path is None:
        _assert_matches_oracle(_circle_certificate(piece), CIRCLE_WINDOW)
        return
    with pytest.raises(CertificateError) as info:
        _circle_certificate(piece)
    assert (info.value.path, info.value.reason) == (path, RESIDUE_REFUSAL)
    # the loader of a certificate file names the same field
    cert = {"form": "tarski", "g": [[], ["1/4"]], "h": [[]], "A": [piece, {"op": "true"}], "B": [{"op": "true"}]}
    with pytest.raises(CertificateError) as info:
        ParadoxCertificate.from_json(cert, C)
    assert info.value.path == path


def test_residue_refusal_names_the_first_piece_in_load_order():
    # A[1] was the first piece the window scan read at a non-integer point;
    # the load checks A[0] first and names it
    with pytest.raises(CertificateError) as info:
        ParadoxCertificate(
            model=C,
            form="tarski",
            a_words=[(), (QUARTER,)],
            a_pieces=[
                {"op": "and", "args": [{"op": "in", "elements": ["3/8"]}, RESIDUE]},
                {"op": "and", "args": [{"op": "in", "elements": ["1/4"]}, RESIDUE]},
            ],
            b_words=[()],
            b_pieces=[{"op": "true"}],
        )
    assert info.value.path == "A[0].args[1].op"


def test_residue_refused_at_load_whatever_the_window_reads():
    # a-cover reads A[0]'s residue at 1/2 only from 3/4, a boundary point
    # once the second word moves 3/4 off the window: the tree is refused
    # at load all the same, with the second word and without it
    piece = {"op": "or", "args": [{"op": "in", "elements": ["0", "1/4"]}, RESIDUE]}
    for second in [(Fraction(1, 8),), ()]:
        with pytest.raises(CertificateError) as info:
            ParadoxCertificate(C, "two_equation", [(QUARTER,), second], [piece, {"op": "true"}], [()], [{"op": "true"}])
        assert info.value.path == "A[0].args[1].op"


def test_verify_on_window_matches_element_loop_on_circle_trees():
    # random trees over residue, coord_sign and membership on circle windows
    # with no action: those holding residue are refused at load, at their
    # first residue node; the rest match the tree walk
    rng = random.Random(9)
    translators = [Fraction(k, 8) for k in range(8)]
    verified = 0
    for _ in range(80):
        win = window(C, [x for x in CIRCLE_WINDOW if rng.random() < 0.8])
        names = [C.format(x) for x in rng.sample(list(win), min(3, len(win)))]
        verified += _verified_or_refused(_random_fields(rng, C, translators, names), win)
    assert 0 < verified < 80


@pytest.mark.parametrize("model", [Z, Z2, H, CYCLIC], ids=repr)
def test_residue_evaluated_exactly_on_integer_coordinates(model):
    win = word_ball(model, 2 if model is H else 3)
    cols = paradox._Columns(win)
    for index in range(_coordinate_count(model)):
        for mod in (1, 2, 3, 5, 13):
            for value in range(-1, mod + 1):
                clf = {"op": "residue", "index": index, "mod": mod, "value": value}
                column = paradox._compile(clf, model, "classifier")(cols).to_bytes(len(win), "little")
                assert list(column) == [evaluate(clf, x) for x in win], clf


@pytest.mark.parametrize("model", [C, T2], ids=repr)
def test_residue_refused_at_load_off_the_integers(model):
    for index in range(_coordinate_count(model)):
        clf = {"op": "not", "arg": {"op": "residue", "index": index, "mod": 2, "value": 0}}
        with pytest.raises(CertificateError) as info:
            paradox._compile(clf, model, "A[0]")
        assert (info.value.path, info.value.reason) == ("A[0].arg.op", RESIDUE_REFUSAL)
    # the index is still checked first: past the coordinates it is named there
    clf = {"op": "residue", "index": _coordinate_count(model), "mod": 2, "value": 0}
    with pytest.raises(CertificateError, match=r"^A\[0\]\.index: "):
        paradox._compile(clf, model, "A[0]")


def _chain(depth):
    """`depth` nested nodes: `not`s around one `true`."""
    tree = {"op": "true"}
    for _ in range(depth - 1):
        tree = {"op": "not", "arg": tree}
    return tree


def _one_piece_certificate(piece):
    return ParadoxCertificate(C, "tarski", [()], [piece], [(QUARTER,)], [{"op": "true"}])


def test_classifier_depth_cap():
    ball = grid_sample(F2, 2)
    _assert_matches_oracle(_one_piece_certificate(_chain(CLASSIFIER_DEPTH_CAP)), CIRCLE_WINDOW)
    assert evaluate_classifier(_chain(CLASSIFIER_DEPTH_CAP), ball[0]) is (CLASSIFIER_DEPTH_CAP % 2 == 1)
    # one level more is refused at the first node past the cap, also inside an `and`
    with pytest.raises(CertificateError) as info:
        _one_piece_certificate(_chain(CLASSIFIER_DEPTH_CAP + 1))
    assert info.value.path == "A[0]" + ".arg" * CLASSIFIER_DEPTH_CAP
    assert info.value.reason == f"classifier nested deeper than {CLASSIFIER_DEPTH_CAP} levels"
    with pytest.raises(CertificateError) as info:
        evaluate_classifier({"op": "and", "args": [{"op": "true"}, _chain(CLASSIFIER_DEPTH_CAP)]}, ball[0])
    assert info.value.path == "classifier.args[1]" + ".arg" * (CLASSIFIER_DEPTH_CAP - 1)


def test_classifier_evaluated_once_per_piece_and_point(monkeypatch):
    # each node of each piece's tree is compiled into one evaluator, run once
    # over the whole window per verify_on_window call, so no point is
    # evaluated twice
    runs = []
    compile_ = paradox._compile

    def counting(clf, model, path, depth=1):
        evaluator = compile_(clf, model, path, depth)

        def run(cols):
            runs.append(path)
            return evaluator(cols)

        return run

    monkeypatch.setattr(paradox, "_compile", counting)
    cert = f2_standard_certificate(F2)  # its four trees hold nine nodes
    report = verify_on_window(cert, grid_sample(F2, 6))
    assert report.interior_violations == 0
    assert sorted(runs) == sorted([
        "A[0]", "A[0].args[0]", "A[0].args[1]",
        "A[1]", "A[1].args[0]", "A[1].args[1]", "A[1].args[1].arg",
        "B[0]", "B[1]",
    ])


def _holds_at(clf, win):
    """The points of `win`, as text, where the compiled classifier holds."""
    column = paradox._compile(clf, win.model, "classifier")(paradox._Columns(win))
    return {text for text, v in zip(win.to_json(), column.to_bytes(len(win), "little")) if v}


GAPPED_WINDOWS = {
    # A,A,A without A,A: the power lookup must go on past a missing power
    "gapped": ["e", "A", "A,A,A", "a", "A,b", "b,A,A,A"],
    "no-identity": ["A", "A,A", "a", "b,A", "B"],
    "identity-only": ["e"],
}


@pytest.mark.parametrize("name", sorted(GAPPED_WINDOWS))
def test_power_and_first_letter_on_gapped_free_windows(name):
    win = window(F2, [F2.parse(text) for text in GAPPED_WINDOWS[name]])
    powers_of_a_inverse = {"gapped": {"e", "A", "A,A,A"}, "no-identity": {"A", "A,A"}, "identity-only": {"e"}}
    assert _holds_at({"op": "power", "letter": "A"}, win) == powers_of_a_inverse[name]
    for op in ("power", "first_letter"):
        for letter in "aAbB":
            clf = {"op": op, "letter": letter}
            assert _holds_at(clf, win) == {F2.format(x) for x in win if evaluate(clf, x)}
    _assert_matches_oracle(f2_standard_certificate(F2), win)


@pytest.mark.parametrize("pieces", [0, 255, 256, 257, 513])
def test_count_lanes_hold_every_term_count(pieces):
    # the a-partition sums `pieces` true terms at every point: a count past
    # 255 needs a lane wider than one byte, and 257 = 1 mod 256 would read
    # as covered once in a byte lane
    a = F2.parse_data("a")
    cert = ParadoxCertificate(F2, "tarski", [() if i % 2 else (a,) for i in range(pieces)],
                              [{"op": "true"}] * pieces, [(a,)], [{"op": "true"}])
    win = grid_sample(F2, 2)
    report = _assert_matches_oracle(cert, win)
    partition = report["equations"][0]
    assert partition["interior_violations"] == len(win)
    assert {sample["count"] for sample in partition["samples"]} == {pieces}


# --- the search, pinned to its recorded outputs ------------------------------------


def _search_cases():
    rng = random.Random(20261018)
    lo = rng.randint(-20, 20)
    zs = list(range(lo, lo + 9)) + [lo + 10 + rng.randint(0, 2)]
    yield "z", window(Z, [(v,) for v in zs]), window(Z, [(-1,), (0,), (2,)]), 5, 200_000
    box = [(i, j) for i in range(4) for j in range(3)]
    yield "z2", window(Z2, box[:10] + rng.sample(box[10:], 1)), window(Z2, [(0, 0), (0, 1), (1, 0)]), 4, 200_000
    extra = rng.sample(["a,a", "a,b", "b,a", "a,B", "B,B", "A,b"], 2)
    f2 = list(grid_sample(F2, 1)) + [F2.parse(w) for w in extra]
    yield "f2", window(F2, f2), window(F2, [F2.parse(s) for s in ("a", "A", "e")]), 5, 200_000
    yield "budget", window(Z, [(i,) for i in range(-10, 11)]), window(Z, [(-1,), (0,), (1,)]), 6, 300


# name -> (nodes_used, [(pieces, best_defect, checkable, exhausted)], sha256 of to_json())
SEARCH_PINS = {
    "z": (
        52460,
        [(4, 3, 12, True), (5, 3, 12, True)],
        "d6620b37c79ba640bd6af914055de4be7bf38f875cc872f361b6c68c4e2bab04",
    ),
    "z2": (9913, [(4, 1, 12, True)], "c763bceabcd1b5a89921db713fac35f7fc1b78d3f1b7348aedc0032f098f5c85"),
    "f2": (
        1211,
        [(4, 0, 4, True), (5, 0, 4, True)],
        "7abf36f9d4c9db3dba0484e13e8074f060e0baa1f4c2ba5bba35ce08bf00d2b1",
    ),
    "budget": (
        304,
        [(4, 19, 40, False), (5, None, 0, False), (6, None, 0, False)],
        "08c51aca0f690229ddb44ae804fb99e0b67e7afd38025734dff11da95b4557e3",
    ),
}


@pytest.mark.parametrize("case", list(_search_cases()), ids=lambda c: c[0])
def test_search_pinned_outputs(case):
    name, win, pool, pieces, budget = case
    payload = search_small_paradox(win, pool, max_pieces=pieces, budget=budget).to_json()
    rows = [(r["pieces"], r["best_defect"], r["checkable"], r["exhausted"]) for r in payload["per_piece_count"]]
    digest = hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()
    assert (payload["nodes_used"], rows, digest) == SEARCH_PINS[name]


# --- the assignment DP against its top-down form -----------------------------------


def _spend_one_by_one(budget, count):
    for _ in range(count):
        if not budget.spend():
            return False
    return True


def test_spend_many_matches_repeated_spend():
    rng = random.Random(7)
    for _ in range(500):
        limit, used, count = rng.randint(0, 30), rng.randint(0, 40), rng.randint(0, 40)
        many, one = _Budget(limit), _Budget(limit)
        many.used = one.used = used
        assert (many.spend_many(count), many.used) == (_spend_one_by_one(one, count), one.used)


def _problem(n, a_rows, b_rows, budget):
    """The assignment problem of two families given by their preimage rows."""
    return _AssignmentProblem(n, _Family(n, a_rows, 0), _Family(n, b_rows, len(a_rows)), budget)


def _random_rows(rng, n, p):
    """p translator rows over n window indices, drawn with repeats.  Each
    is a partial injection, -1 where the preimage leaves the window: a
    shift of an interval, or a shuffle with a few points sent outside."""
    distinct = []
    for _ in range(rng.randint(2, p)):
        shift = rng.randint(-2, 2)
        row = [t - shift if 0 <= t - shift < n else -1 for t in range(n)]
        if rng.random() < 0.3:
            row = list(range(n))
            rng.shuffle(row)
            for t in rng.sample(range(n), rng.randint(0, n // 4)):
                row[t] = -1
        distinct.append(row)
    return [list(rng.choice(distinct)) for _ in range(p)]


def _run_exact(solve, n, a_rows, b_rows, limit, used):
    budget = _Budget(limit)
    budget.used = used
    problem = _problem(n, a_rows, b_rows, budget)
    try:
        minimum = solve(problem)
    except _BudgetExhausted:
        return "exhausted", budget.used
    return minimum, problem.labels, budget.used


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_exact_matches_topdown_oracle(seed):
    rng = random.Random(f"exact:{seed}")
    seen = {"p": set(), "repeated": 0, "outside": 0, "preset": 0, "exhausted": 0, "solved": 0, "cut": 0}
    while seen["solved"] < 120:
        n, p = rng.randint(1, 12), rng.randint(2, 7)
        m = rng.randint(1, p // 2)
        rows = _random_rows(rng, n, p)
        problem = _problem(n, rows[:m], rows[m:], _Budget(0))
        if p ** problem.live_peak > 1000:
            continue
        states = sum(p ** len(problem.live_at[k]) for k in range(n))
        limit = rng.choice([10**9, states, states - 1, rng.randint(0, states)])
        used = rng.choice([0, 0, rng.randint(1, 60)])
        want = _run_exact(topdown_exact, n, rows[:m], rows[m:], limit, used)
        got = _run_exact(_AssignmentProblem.exact, n, rows[:m], rows[m:], limit, used)
        assert got == want, (n, rows[:m], rows[m:], limit, used)
        # with a bound and a lower-bound floor: the same budget and the same
        # exhaustion; the same minimum and labels below the bound, else a
        # value at least the bound
        solved = want[0] != "exhausted"
        if solved:
            assert problem.floor <= want[0]
        bound = rng.choice([rng.randint(1, 8), want[0] + rng.randint(0, 1) if solved else 1])
        floor = rng.choice([0, problem.floor, rng.randint(0, want[0]) if solved else 0])
        bounded = _run_exact(lambda pr: pr.exact(bound, floor), n, rows[:m], rows[m:], limit, used)
        if not solved or want[0] < bound:
            assert bounded == want, (n, rows[:m], rows[m:], limit, used, bound, floor)
        else:
            assert bounded[0] >= bound and bounded[2] == want[2]
            seen["cut"] += 1
        seen["p"].add(p)
        seen["repeated"] += len({tuple(r) for r in rows}) < p
        seen["outside"] += any(-1 in r for r in rows)
        seen["preset"] += used > 0
        seen["exhausted" if want[0] == "exhausted" else "solved"] += 1
    assert seen["p"] == set(range(2, 8))
    assert min(seen["repeated"], seen["outside"], seen["preset"], seen["exhausted"], seen["cut"]) > 0
    assert seen["solved"] - seen["cut"] > 0


def test_counting_floor_bounds_the_minimum():
    # preimage rows are injective, where a source matches at most one
    # target per label; arbitrary rows check the general cover count
    rng = random.Random(13)
    tight = 0
    for trial in range(200):
        n, p = rng.randint(1, 9), rng.randint(2, 5)
        m = rng.randint(1, p // 2)
        if trial % 2:
            rows = _random_rows(rng, n, p)
        else:
            rows = [[rng.randint(-1, n - 1) for _ in range(n)] for _ in range(p)]
        problem = _problem(n, rows[:m], rows[m:], _Budget(10**9))
        if p ** problem.live_peak > 1000:
            continue
        minimum = topdown_exact(problem)
        assert 0 <= problem.floor <= minimum, (n, rows[:m], rows[m:])
        tight += 0 < problem.floor == minimum
    assert tight > 0


def _search_bound_cases():
    rng = random.Random(20261019)
    for trial in range(24):
        model = (Z, Z2, F2)[trial % 3]
        if model is Z:
            lo = rng.randint(-5, 5)
            win = window(Z, [(v,) for v in range(lo, lo + rng.randint(3, 9))])
            pool = window(Z, rng.sample([(-2,), (-1,), (0,), (1,), (2,)], 3))
        elif model is Z2:
            box = [(i, j) for i in range(3) for j in range(3)]
            win = window(Z2, rng.sample(box, rng.randint(4, 8)))
            pool = window(Z2, rng.sample([(0, 0), (0, 1), (1, 0), (1, 1), (-1, 0)], 3))
        else:
            extra = rng.sample(["a,a", "a,b", "b,a", "a,B", "B,B", "A,b", "b,b"], rng.randint(0, 3))
            win = window(F2, list(grid_sample(F2, 1)) + [F2.parse(w) for w in extra])
            pool = window(F2, [F2.parse(w) for w in rng.sample(["a", "A", "b", "e", "a,b"], 3)])
        pieces = 5 if trial % 4 == 0 else 4
        budget = rng.choice([2_000_000, rng.randint(50, 3000)])
        yield win, pool, pieces, budget


def test_search_bound_changes_no_output(monkeypatch):
    solve = paradox._solve_combo
    seen = {"positive": 0, "budget ran out": 0}
    for win, pool, pieces, budget in _search_bound_cases():
        bounded = search_small_paradox(win, pool, max_pieces=pieces, budget=budget).to_json()
        with monkeypatch.context() as patch:
            patch.setattr(paradox, "_solve_combo", lambda problem, cap, bound: solve(problem, cap, None))
            plain = search_small_paradox(win, pool, max_pieces=pieces, budget=budget).to_json()
        assert bounded == plain
        rows = plain["per_piece_count"]
        seen["positive"] += any((r["best_defect"] or 0) > 0 for r in rows)
        seen["budget ran out"] += plain["nodes_used"] > budget
    assert min(seen.values()) > 0


def test_exact_charges_one_node_per_state():
    rng = random.Random(11)
    rows = _random_rows(rng, 10, 5)
    problem = _problem(10, rows[:2], rows[2:], _Budget(10**9))
    states = sum(5 ** len(problem.live_at[k]) for k in range(10))
    problem.exact()
    assert problem.budget.used == states
    short = _problem(10, rows[:2], rows[2:], _Budget(states - 1))
    with pytest.raises(_BudgetExhausted):
        short.exact()
    assert short.budget.used == states


# --- certificate and classifier schema ---------------------------------------------


def _z_certificate(a0):
    return {"form": "two_equation", "g": [[], ["1"]], "h": [[], ["-1"]], "A": [a0, {"op": "true"}], "B": [{"op": "true"}, {"op": "true"}]}


@pytest.mark.parametrize(
    "cert, field",
    [
        (_z_certificate({"args": []}), "params.certificate.A[0].op"),
        (_z_certificate({"op": "and"}), "params.certificate.A[0].args"),
        (_z_certificate({"op": "not"}), "params.certificate.A[0].arg"),
        (
            _z_certificate({"op": "or", "args": [{"op": "true"}, {"op": "coord_sign", "index": 5, "sign": "+"}]}),
            "params.certificate.A[0].args[1].index",
        ),
        (_z_certificate({"op": "coord_sign", "index": "0", "sign": "+"}), "params.certificate.A[0].index"),
        (_z_certificate({"op": "coord_sign", "index": -1, "sign": "+"}), "params.certificate.A[0].index"),
        (_z_certificate({"op": "coord_sign", "index": 0, "sign": "x"}), "params.certificate.A[0].sign"),
        (_z_certificate({"op": "residue", "index": 0, "mod": 0, "value": 0}), "params.certificate.A[0].mod"),
        (_z_certificate({"op": "residue", "index": 0, "mod": 2, "value": "1"}), "params.certificate.A[0].value"),
        (_z_certificate({"op": "in", "elements": "-1"}), "params.certificate.A[0].elements"),
        (_z_certificate({"op": "first_letter", "letter": "a"}), "params.certificate.A[0].op"),
        (_z_certificate({"op": "nope"}), "params.certificate.A[0].op"),
        (_z_certificate("true"), "params.certificate.A[0]"),
        ([1, 2], "params.certificate"),
        ({"g": [], "h": [], "A": []}, "params.certificate.B"),
        ({"h": [], "A": [], "B": []}, "params.certificate.g"),
        ({"g": [], "h": [], "A": {}, "B": []}, "params.certificate.A"),
        ({"g": [], "h": [], "A": [], "B": "x"}, "params.certificate.B"),
        ({"g": [["2", "x"]], "h": [], "A": [{"op": "true"}], "B": []}, "params.certificate.g[0][1]"),
        ({"g": [[]], "h": [], "A": [], "B": []}, "params.certificate.A"),
        ({"form": "x", "g": [], "h": [], "A": [], "B": []}, "params.certificate.form"),
    ],
)
def test_malformed_certificate_field_path(cert, field):
    config = {"task": "paradox-verify", "model": {"kind": "lattice", "params": {"dim": 1}}, "params": {"certificate": cert, "window": ["0", "1"]}}
    with pytest.raises(ConfigError) as info:
        run_scenario_config(config)
    assert info.value.path == field


def test_malformed_free_letter_rejected_at_construction():
    with pytest.raises(CertificateError) as info:
        ParadoxCertificate(
            model=F2,
            form="two_equation",
            a_words=[()],
            a_pieces=[{"op": "and", "args": [{"op": "power", "letter": "c"}]}],
            b_words=[()],
            b_pieces=[{"op": "true"}],
        )
    assert info.value.path == "A[0].args[0].letter"


def test_malformed_certificate_exits_1(tmp_path, capsys):
    config = tmp_path / "bad.json"
    cert = _z_certificate({"op": "residue", "index": 0, "mod": 0, "value": 0})
    config.write_text(json.dumps({"task": "paradox-verify", "model": {"kind": "lattice"}, "params": {"certificate": cert}}))
    assert main(["perturb", "--config", str(config)]) == 1
    assert "params.certificate.A[0].mod" in capsys.readouterr().err
