"""Built-in verification suite: thirteen exact desk-scale checks.

Each criterion is a standalone function returning `(passed, measured)`;
criteria 3-5 return `(passed, measured, certs)`, handing their Folner
certificates to criterion 6.  `run_suite` stamps each outcome with the
criterion's number and name from the `CRITERIA` table and the time the
call took, so a criterion states none of these itself.  The CLI `suite`
subcommand and the pytest acceptance module both run `run_suite`, so the
command line and the test suite cannot drift apart.
Every criterion takes a dict and puts each file it emits there, name to
JSON payload; it writes nothing.  `run_suite` hands each criterion's files
back in its row, and the CLI writes them.  The determinism check compares
the `canonical_json` text of two in-process runs of the emitting criteria,
which is the text the CLI writes.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Optional

from .folner import (
    FolnerCertificate,
    _box,
    discrete_defect,
    folner_search,
    seminorm_crosscheck,
    topological_defect,
)
from .groups import (
    ArcMetric,
    Entourage,
    WordMetric,
    canonical_json,
    grid_sample,
    make_model,
    window,
)
from .matching import BipartiteInstance, brute_force_matching_number, max_matching
from .paradox import f2_standard_certificate, search_small_paradox, verify_on_window
from .perturb import build_perturbation, precompact_perturbation, verify_perturbation
from .weights import FiniteWeight, approx_by_uniform, lipschitz_seminorm

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    measured: str
    elapsed: float
    files: dict[str, Any]  # the files the criterion emitted, name -> JSON payload

    def row(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.number:2d} {self.name}: {self.measured} ({self.elapsed:.2f}s)"


# ---------------------------------------------------------------------------
# Random bipartite instances (criteria 1 and 2)
# ---------------------------------------------------------------------------


def _random_instances(count: int, seed: int) -> list[BipartiteInstance]:
    rng = random.Random(seed)
    Z = make_model("lattice", dim=1)
    instances = []
    for _ in range(count):
        nl = rng.randint(1, 10)
        nr = rng.randint(1, 10)
        left = window(Z, [(i,) for i in range(nl)])
        right = window(Z, [(j,) for j in range(nr)])
        density = rng.random()
        adjacency = [
            sorted(j for j in range(nr) if rng.random() < density) for _ in range(nl)
        ]
        instances.append(BipartiteInstance(left=left, right=right, adjacency=adjacency))
    return instances


def _exhaustive_deficiency(instance: BipartiteInstance) -> int:
    masks = [0] * len(instance.adjacency)
    for i, adj in enumerate(instance.adjacency):
        for j in adj:
            masks[i] |= 1 << j
    n = len(masks)
    worst = 0
    for subset in range(1 << n):
        size = 0
        nbhd = 0
        s = subset
        i = 0
        while s:
            if s & 1:
                size += 1
                nbhd |= masks[i]
            s >>= 1
            i += 1
        worst = max(worst, size - bin(nbhd).count("1"))
    return worst


def criterion_01_hall_identity(files: dict) -> tuple[bool, str]:
    instances = _random_instances(500, seed=74021)
    checked = 0
    for inst in instances:
        mu = max_matching(inst).mu
        if mu != len(inst.left) - _exhaustive_deficiency(inst):
            return False, f"mismatch at instance {checked}"
        checked += 1
    return True, f"{checked} instances exact"


def criterion_02_perfect_matching(files: dict) -> tuple[bool, str]:
    instances = _random_instances(500, seed=74021)
    for k, inst in enumerate(instances):
        result = max_matching(inst)
        hall_holds = _exhaustive_deficiency(inst) == 0
        if result.perfect != hall_holds:
            return False, f"mismatch at instance {k}"
        if not result.perfect:
            neighbours: set[int] = set()
            for i in result.witness:
                neighbours.update(inst.adjacency[i])
            if len(result.witness) <= len(neighbours):
                return False, f"witness not violating at {k}"
    return True, "500 instances agree"


# ---------------------------------------------------------------------------
# Folner profiles (criteria 3, 4, 5) and the seminorm bridge (criterion 6)
# ---------------------------------------------------------------------------


def _lattice_setup():
    Z2 = make_model("lattice", dim=2)
    E = window(Z2, [(1, 0), (-1, 0), (0, 1), (0, -1)])
    U = Entourage(WordMetric(Z2), ZERO)
    return Z2, E, U


def criterion_03_lattice_boxes(files: dict) -> tuple[bool, str, list[FolnerCertificate]]:
    Z2, E, U = _lattice_setup()
    certs = []
    for n in range(2, 31):
        theta, cert = topological_defect(_box(Z2, n), E, U)
        if theta != 1 - Fraction(1, n):
            return False, f"defect {theta} at n={n}", certs
        if discrete_defect(_box(Z2, n), E) != theta:
            return False, f"discrete defect differs at n={n}", certs
        if n <= 12:
            certs.append(cert)
    search = folner_search(E, U, Fraction(9, 10), strategy="boxes", budget=40)
    expected = _box(Z2, 10)
    ok = search.found and search.certificate.F == expected
    if ok:
        files["lattice_box_search.json"] = search.to_json()
    measured = "defects 1-1/n for n=2..30; search returned the 10x10 box" if ok else "search missed the 10x10 box"
    return ok, measured, certs


def _enumerate_reduced_words(rank: int, radius: int) -> set[tuple[int, ...]]:
    """Independent reduced-word enumeration (no shared code with word_ball)."""
    words = {()}
    frontier = [()]
    letters = [i for k in range(1, rank + 1) for i in (k, -k)]
    for _ in range(radius):
        nxt = []
        for w in frontier:
            for letter in letters:
                if w and w[-1] == -letter:
                    continue
                nw = w + (letter,)
                if nw not in words:
                    words.add(nw)
                    nxt.append(nw)
        frontier = nxt
    return words


def _free_mul(w1: tuple[int, ...], w2: tuple[int, ...]) -> tuple[int, ...]:
    out = list(w1)
    for letter in w2:
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def criterion_04_free_profile(files: dict) -> tuple[bool, str, list[FolnerCertificate]]:
    F2 = make_model("free", rank=2)
    E = window(F2, [F2.parse("a"), F2.parse("b")])
    U = Entourage(WordMetric(F2), ZERO)
    certs = []
    for n in range(2, 7):
        ball = grid_sample(F2, n)
        theta, cert = topological_defect(ball, window(F2, [F2.parse("a")]), U)
        expected = Fraction(3**n - 1, 2 * 3**n - 1)
        if theta != expected:
            return False, f"defect {theta} != {expected} at n={n}", certs
        oracle_ball = _enumerate_reduced_words(2, n)
        if len(oracle_ball) != len(ball):
            return False, f"ball size mismatch at n={n}", certs
        shifted = {_free_mul((1,), w) for w in oracle_ball}
        if Fraction(len(oracle_ball & shifted), len(oracle_ball)) != expected:
            return False, f"oracle disagrees at n={n}", certs
        if len(ball) <= 144:
            certs.append(cert)
    search = folner_search(E, U, Fraction(3, 5), strategy="balls", budget=6)
    ok = (not search.found) and search.best_theta < Fraction(51, 100)
    if ok:
        files["free_ball_search.json"] = search.to_json()
    measured = (
        f"defects match (3^n-1)/(2*3^n-1); search best {search.best_theta} < 0.51, target not met"
        if ok
        else f"search found={search.found} best={search.best_theta}"
    )
    return ok, measured, certs


def criterion_05_circle_rotation(files: dict) -> tuple[bool, str, list[FolnerCertificate]]:
    C = make_model("circle")
    U = Entourage(ArcMetric(C), Fraction(1, 24))
    F = grid_sample(C, 12)
    certs = []

    theta, cert = topological_defect(F, window(C, [Fraction(1, 3)]), U)
    matching = cert.matchings[Fraction(1, 3)]
    identity_pairing = len(matching.pairing) == len(F) and all(
        matching.instance.left[i] == matching.instance.right[j]
        for i, j in matching.pairing.items()
    )
    if theta != 1 or not identity_pairing:
        return False, f"aligned defect {theta}", certs
    certs.append(cert)

    theta2, cert2 = topological_defect(F, window(C, [Fraction(1, 8)]), U)
    oracle = brute_force_matching_number(cert2.matchings[Fraction(1, 8)].instance)
    if theta2 != Fraction(oracle, len(F)):
        return False, f"off-grid defect {theta2} vs oracle {oracle}/12", certs
    certs.append(cert2)
    files["circle_rotation_certificates.json"] = [cert.to_json(), cert2.to_json()]
    measured = f"aligned defect 1 (identity matching); off-grid defect {theta2} equals the exhaustive oracle"
    return True, measured, certs


def criterion_06_seminorm_bridge(certs: list[FolnerCertificate], files: dict) -> tuple[bool, str]:
    checked = 0
    worst_gap = None
    for cert in certs:
        if len(cert.F) > 144:
            continue
        value, bound = seminorm_crosscheck(cert)
        gap = bound - value
        if gap < 0:
            return False, f"violated by {-gap}"
        worst_gap = gap if worst_gap is None else min(worst_gap, gap)
        checked += 1
    return True, f"{checked} certificates satisfy p_d <= 1 - theta/2 (smallest slack {worst_gap})"


# ---------------------------------------------------------------------------
# Seminorm oracles (criteria 7 and 8)
# ---------------------------------------------------------------------------


def _brute_force_two_point(mu_x: Fraction, mu_y: Fraction, d: Fraction, step: Fraction) -> Fraction:
    """max mu_x f(x) + mu_y f(y) over the grid -1 + i*step, i = 0..floor(2/step),
    with |f(x) - f(y)| <= d, scanned in integer grid units: at fx = -1 + i*step,
    fy = -1 + j*step the value is -(mu_x + mu_y) + step*(ax*i + ay*j)/q for
    the integer weights ax, ay over their common denominator q."""
    k = int(2 / step)
    width = d // step  # |i - j| * step <= d  <=>  |i - j| <= floor(d / step)
    q = math.lcm(mu_x.denominator, mu_y.denominator)
    ax, ay = int(mu_x * q), int(mu_y * q)
    best = max(ax * i + ay * j for i in range(k + 1) for j in range(k + 1) if abs(i - j) <= width)
    return -(mu_x + mu_y) + step * best / q


def criterion_07_seminorm_oracle(files: dict) -> tuple[bool, str]:
    """Two-point seminorms against min(2, d), with each distance d from its
    closed form, not from the package's metric kernel: the arc
    min(|x - y|, 1 - |x - y|) on the circle, |x - y|_1 on Z^2, and on F_2
    the reduced length of x y^-1 through `_free_mul`, after one pinned F_2
    pair."""
    rng = random.Random(52200)
    C = make_model("circle")
    Z2 = make_model("lattice", dim=2)
    F2 = make_model("free", rank=2)
    cases = []
    for _ in range(40):
        x = Fraction(rng.randint(0, 99), 100)
        y = Fraction(rng.randint(0, 99), 100)
        if x != y:
            cases.append((C.element(x), C.element(y), ArcMetric(C), min(abs(x - y), 1 - abs(x - y))))
    for _ in range(30):
        x = (rng.randint(-5, 5), rng.randint(-5, 5))
        y = (rng.randint(-5, 5), rng.randint(-5, 5))
        if x != y:
            cases.append((Z2.element(x), Z2.element(y), WordMetric(Z2), Fraction(abs(x[0] - y[0]) + abs(x[1] - y[1]))))
    # |x y^-1| = |a b A| = 3 but |y^-1 x| = |b| = 1, so a left-invariant
    # word kernel fails here; none of the seeded pairs tells the two apart
    cases.append((F2.parse("a,b"), F2.parse("a"), WordMetric(F2), Fraction(3)))
    letters = ["a", "b", "A", "B"]
    while len(cases) < 100:
        wx = ",".join(rng.choice(letters) for _ in range(rng.randint(0, 3))) or "e"
        wy = ",".join(rng.choice(letters) for _ in range(rng.randint(0, 3))) or "e"
        gx, gy = F2.parse(wx), F2.parse(wy)
        if gx != gy:
            y_inverse = tuple(-letter for letter in reversed(gy.data))
            cases.append((gx, gy, WordMetric(F2), Fraction(len(_free_mul(gx.data, y_inverse)))))

    grid_checked = 0
    for idx, (x, y, metric, d) in enumerate(cases[:100]):
        diff = FiniteWeight.delta(x) - FiniteWeight.delta(y)
        result = lipschitz_seminorm(diff, metric)
        expected = min(Fraction(2), d)
        if result.value != expected:
            return False, f"case {idx}: {result.value} != {expected}"
        if idx % 10 == 0:
            brute = _brute_force_two_point(ONE, -ONE, d, Fraction(1, 100))
            if abs(result.value - brute) > Fraction(2, 100):
                return False, f"grid gap at case {idx}"
            grid_checked += 1
    return True, f"100 pairs match min(2, d); {grid_checked} grid cross-checks; optima dual-certified in-solver"


def criterion_08_uniform_approx(files: dict) -> tuple[bool, str]:
    rng = random.Random(90125)
    C = make_model("circle")
    arc = ArcMetric(C)
    supply = grid_sample(C, 240)
    eps = Fraction(1, 5)
    worst = ZERO
    for trial in range(50):
        support_size = rng.randint(1, 5)
        atoms = rng.sample(range(40), support_size)
        weights = [rng.randint(1, 6) for _ in range(support_size)]
        total = sum(weights)
        a = FiniteWeight(C, [(Fraction(k, 40), Fraction(w, total)) for k, w in zip(atoms, weights)])
        approx = approx_by_uniform(a, arc, eps, supply)
        check = lipschitz_seminorm(a - FiniteWeight.uniform(approx.window), arc).value
        if check > eps:
            return False, f"defect {check} > 1/5 at trial {trial}"
        worst = max(worst, check)
    return True, f"50 weights approximated; worst verified defect {worst} <= 1/5"


# ---------------------------------------------------------------------------
# Perturbations (criteria 9 and 10)
# ---------------------------------------------------------------------------


def criterion_09_precompact(files: dict) -> tuple[bool, str]:
    C = make_model("circle")
    U = Entourage(ArcMetric(C), Fraction(7, 20))
    result = precompact_perturbation(U, grid_sample(C, 60), grid_sample(C, 12))
    report = verify_perturbation(result.action, U)
    ok = (
        report.ok
        and len(result.centers) <= 9
        and result.order_bound % result.group_order == 0
        and report.entries_checked == 60 * 12
    )
    files["precompact_circle.json"] = result.to_json()
    return (
        ok,
        f"|F|={len(result.centers)}, order {result.group_order} divides {result.order_bound}, "
        f"deviation <= 7/20 on all {report.entries_checked} entries (max {report.max_deviation})",
    )


def criterion_10_assembly(files: dict) -> tuple[bool, str]:
    C = make_model("circle")
    U = Entourage(ArcMetric(C), Fraction(1, 10))
    family = [
        (window(C, [Fraction(0), Fraction(1, 5)]), 4),
        (window(C, [Fraction(0), Fraction(2, 5)]), 4),
    ]
    assembled = build_perturbation(family, U)
    report = verify_perturbation(assembled.action, U)
    # the table checks each flag that is true on construction
    involutions = all(assembled.action.involution.get(g, False) for g in assembled.action.rows)
    cores_ok = all(
        len(p.D) >= (1 - Fraction(1, p.multiplicity)) * len(p.F) for p in assembled.placements
    )
    ok = report.ok and involutions and cores_ok
    files["assembled_perturbation.json"] = assembled.action.to_json()
    return (
        ok,
        f"0 violations of {report.entries_checked} entries; involutions hold; "
        f"cores {[f'{len(p.D)}/{len(p.F)}' for p in assembled.placements]} meet 3/4",
    )


# ---------------------------------------------------------------------------
# Paradox reports (criteria 11 and 12)
# ---------------------------------------------------------------------------


def criterion_11_free_paradox(files: dict) -> tuple[bool, str]:
    F2 = make_model("free", rank=2)
    cert = f2_standard_certificate(F2)
    for n in range(1, 9):
        ball = grid_sample(F2, n)
        report = verify_on_window(cert, ball)
        if report.interior_violations != 0:
            return False, f"{report.interior_violations} violations at n={n}"
    corrupted = f2_standard_certificate(F2)
    corrupted.b_pieces[0] = {"op": "first_letter", "letter": "a"}
    bad = verify_on_window(corrupted, grid_sample(F2, 4))
    ok = bad.interior_violations >= 1
    files["free_paradox_certificate.json"] = cert.to_json()
    return ok, f"zero interior violations through radius 8 (|B_8|={len(ball)}); corruption flagged {bad.interior_violations}"


def criterion_12_amenable_control(files: dict) -> tuple[bool, str]:
    Z = make_model("lattice", dim=1)
    win = window(Z, [(i,) for i in range(-10, 11)])
    pool = window(Z, [(-1,), (0,), (1,)])
    report = search_small_paradox(win, pool, max_pieces=6, budget=5_000_000)
    exhaustive = all(r.exhausted for r in report.reports)
    minimum = min(r.best_defect for r in report.reports)
    ok = exhaustive and minimum >= 1
    return ok, f"minimal interior defect {minimum} over piece counts 4..6 (exhaustive={exhaustive})"


# ---------------------------------------------------------------------------
# Determinism (criterion 13)
# ---------------------------------------------------------------------------


# The criteria that emit certificate files; criterion 13 runs each twice.
CERTIFICATE_WRITERS = (
    criterion_03_lattice_boxes,
    criterion_04_free_profile,
    criterion_05_circle_rotation,
    criterion_09_precompact,
    criterion_10_assembly,
    criterion_11_free_paradox,
)


def criterion_13_determinism(files: dict) -> tuple[bool, str]:
    texts = []
    for _ in range(2):
        emitted: dict = {}
        for writer in CERTIFICATE_WRITERS:
            writer(emitted)
        texts.append({name: canonical_json(payload) for name, payload in emitted.items()})
    first, second = texts
    if sorted(first) != sorted(second) or not first:
        return False, "certificate sets differ"
    for name in sorted(first):
        if first[name] != second[name]:
            return False, f"{name} differs between runs"
    return True, f"{len(first)} certificate files byte-identical across two runs"


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------


# (number, name, function).  Criteria 3-5 also return their Folner
# certificates, and criterion 6 (the seminorm bridge) checks them, so those
# three run whenever it does.
CRITERIA = (
    (1, "hall-identity", criterion_01_hall_identity),
    (2, "perfect-iff-hall", criterion_02_perfect_matching),
    (3, "lattice-boxes", criterion_03_lattice_boxes),
    (4, "free-profile", criterion_04_free_profile),
    (5, "circle-rotation", criterion_05_circle_rotation),
    (6, "seminorm-bridge", criterion_06_seminorm_bridge),
    (7, "seminorm-oracle", criterion_07_seminorm_oracle),
    (8, "uniform-approximation", criterion_08_uniform_approx),
    (9, "precompact-circle", criterion_09_precompact),
    (10, "perturbation-assembly", criterion_10_assembly),
    (11, "free-paradox", criterion_11_free_paradox),
    (12, "amenable-control", criterion_12_amenable_control),
    (13, "determinism", criterion_13_determinism),
)
BRIDGE = 6
BRIDGE_SOURCES = {3, 4, 5}


def run_suite(numbers: Optional[list[int]] = None) -> list[CriterionResult]:
    """Run the requested criteria (all by default) and return their rows,
    each with the files its criterion emitted."""
    wanted = {number for number, _, _ in CRITERIA} if numbers is None else set(numbers)
    needed = wanted | BRIDGE_SOURCES if BRIDGE in wanted else wanted
    results: list[CriterionResult] = []
    shared_certs: list[FolnerCertificate] = []
    for number, name, criterion in CRITERIA:
        if number not in needed:
            continue
        started = time.time()
        files: dict = {}
        try:
            if number in BRIDGE_SOURCES:
                passed, measured, certs = criterion(files)
                shared_certs.extend(certs)
            elif number == BRIDGE:
                passed, measured = criterion(shared_certs, files)
            else:
                passed, measured = criterion(files)
        except Exception as exc:  # criterion failures are rows, not crashes
            passed, measured = False, f"error: {exc}"
        if number in wanted:
            results.append(CriterionResult(number, name, passed, measured, time.time() - started, files))
    return results
