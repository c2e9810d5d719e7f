"""Finite-window perturbations of the left translation action.

A perturbed action stores, for each pool element g, an injective table row
h -> alpha(g)(h) on a window, with every image within a fixed entourage
radius of the true product g h.  Constructors in this module build such
tables three ways:

* `build_perturbation` assembles disjointly placed Folner packages and swaps
  each almost-invariant core with its relocated copy, so each correction
  psi(g) is an involution of the window;
* `precompact_perturbation` approximates translations on circle / torus /
  cyclic windows through a separated center set and perfect matchings, with
  the generated permutation group kept finite (order dividing |centers|!);
* `moving_injection` relocates a window into fresh points so that all
  pool translates of the image are pairwise disjoint.

The builders take no model: each reads it from its entourage, `U.model`.
Every table here is keyed by payload or by window index: the rows, flags
and inverse rows of a `PerturbedAction` per payload of g, a `Violation`'s
points, the center permutations of a `PrecompactResult`, the relocations
and package injections, and the translators of a wobbling decomposition.
The builders run on `_mul_data` and the windows' `positions`.

Ball queries are `matching.build_graph` rows: the relocation candidates of
`moving_injection`, and the third-radius balls that pick and assign the
precompact centers (distances are measured only inside a ball, to find the
nearest center).  The grid-rotation lift is index arithmetic on the evenly
spaced window.  Only the postcondition checks below measure every pair.
Every distance here is read from `groups.integer_metric`, on ints.

Every constructor re-checks its own postconditions exhaustively; the checks
are cheap at desk scale and catch construction bugs instead of assuming the
underlying counting arguments were transcribed correctly.  The two table
builders run their deviation scan through `verify_perturbation`, the same
check that re-verifies a table loaded from file; `build_perturbation` hands
that report on as `AssembledPerturbation.report`.  `PerturbedAction.from_json`
is the one loader of a table file: every malformed field is a
`CertificateError` naming the field.  The table itself is checked on
construction, also when loaded (see `PerturbedAction`), so a table file
carries no pool element, mover or involution claim that its rows do not
keep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Optional

from .groups import (
    CertificateError,
    CircleModel,
    CyclicModel,
    Entourage,
    FiniteWindow,
    GroupModel,
    ModelMismatchError,
    TorusModel,
    grid_sample,
    integer_metric,
    parse_bool,
    parse_fraction,
    parse_index,
    parse_key,
    parse_radius,
    parse_window,
    require_fields,
    symmetric_closure,
    translate_window,
)
from .folner import conjugated_entourage, folner_search
from .matching import build_graph, max_matching

BACKTRACK_CAP = 10_000
CLOSURE_CENTER_CAP = 8
# Default candidates the Folner search behind each package may try.
PACKAGE_BUDGET = 60


class ConstructionError(ValueError):
    pass


class BudgetError(RuntimeError):
    pass


class NonMemberError(ValueError):
    def __init__(self, message: str, witness):  # the payload no translator moves
        super().__init__(message)
        self.witness = witness


# ---------------------------------------------------------------------------
# Perturbed actions
# ---------------------------------------------------------------------------


@dataclass
class PerturbedAction:
    """Table of injective rows h -> alpha(g)(h) over a window, keyed by the
    payload of g.

    Rows are image indices aligned with the window; None marks points outside
    the row's domain.  `involution` records, per g, whether the correction
    psi(g) = alpha(g) o (left translation by g)^-1 is an involution of the
    window (meaningful for package-built actions).  `inverse_rows` holds,
    per g, the preimage index of each window point (None where no point maps
    to it); it is built from the rows at construction, so rows are not to be
    changed afterwards.

    Construction checks the table; each refusal is a CertificateError at its
    field.  `pool`: a pool element with no row.  `rows`: a row for an element
    outside the pool, of the wrong length, with an index out of range, or not
    injective.  `folner_pools[k]`: an element other than the identity with no
    row.  `involution[<g>]`: a true flag whose g has no row, or whose psi(g)
    does not square to the identity wherever it is defined on the window.
    """

    window: FiniteWindow
    pool: FiniteWindow
    rows: dict[Any, list[Optional[int]]]
    radius: Fraction
    involution: dict[Any, bool] = field(default_factory=dict)
    folner_windows: list[FiniteWindow] = field(default_factory=list)
    folner_pools: list[FiniteWindow] = field(default_factory=list)
    inverse_rows: dict[Any, list[Optional[int]]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n, model, pool = len(self.window), self.window.model, self.pool.positions
        for g in pool:
            if g not in self.rows:
                raise CertificateError("pool", f"{model.format_data(g)} has no row")
        self.inverse_rows = {}
        for g, row in self.rows.items():
            name = model.format_data(g)
            if g not in pool:
                raise CertificateError("rows", f"row of {name} for an element outside the pool")
            if len(row) != n:
                raise CertificateError("rows", f"row of {name} has length {len(row)}, expected {n}")
            if any(j is not None and not 0 <= j < n for j in row):
                raise CertificateError("rows", f"row of {name} has an index outside 0 <= j < {n}")
            inverse: list[Optional[int]] = [None] * n
            for i, j in enumerate(row):
                if j is None:
                    continue
                if inverse[j] is not None:
                    raise CertificateError("rows", f"row of {name} not injective")
                inverse[j] = i
            self.inverse_rows[g] = inverse
        for k, folner_pool in enumerate(self.folner_pools):
            for g in folner_pool.positions:
                if g != model.identity_data and g not in self.rows:
                    raise CertificateError(f"folner_pools[{k}]", f"{model.format_data(g)} has no row")
        mul, index, points = model._mul_data, self.window.positions, self.window.payloads
        for g in (g for g, flag in self.involution.items() if flag):
            at, row = f"involution[{model.format_data(g)}]", self.rows.get(g)
            if row is None:
                raise CertificateError(at, "flags an element with no row")
            # psi(g) sends y to row[pre[y]], pre[y] the index of g^-1 y (None outside the window)
            g_inv = model._inv_data(g)
            pre = [index.get(mul(g_inv, y)) for y in points]
            for y, h in enumerate(pre):
                once = None if h is None else row[h]
                if once is not None and (pre[once] is None or row[pre[once]] != y):
                    raise CertificateError(at, "psi(g) does not square to the identity at "
                                           f"{model.format_data(points[y])}")

    def apply(self, g, x):
        """The payload alpha(g)(x) of payloads g and x; None where g has no
        row, x is not in the window or the row is undefined at x."""
        row, i = self.rows.get(g), self.window.positions.get(x)
        j = None if row is None or i is None else row[i]
        return None if j is None else self.window.payloads[j]

    def to_json(self) -> dict:
        text = self.window.model.format_data
        return {
            "window": self.window.to_json(),
            "pool": self.pool.to_json(),
            "rows": {text(g): list(row) for g, row in self.rows.items()},
            "radius": str(self.radius),
            "involution": {text(g): flag for g, flag in self.involution.items()},
            "folner_windows": [w.to_json() for w in self.folner_windows],
            "folner_pools": [w.to_json() for w in self.folner_pools],
        }

    @classmethod
    def from_json(cls, obj: dict, model: GroupModel) -> "PerturbedAction":
        """Parse an action; every malformed field is a CertificateError
        naming it, and so is a table that fails construction's checks."""
        require_fields(obj, ("window", "pool", "rows", "radius"), ("involution", "folner_windows", "folner_pools"))
        rows, involution = obj["rows"], obj.get("involution", {})
        if not isinstance(rows, dict) or not all(isinstance(row, list) for row in rows.values()):
            raise CertificateError("rows", "expected an object of lists")
        if not isinstance(involution, dict):
            raise CertificateError("involution", "expected an object")
        folner_windows = _windows_json(obj.get("folner_windows", []), model, "folner_windows")
        for k, F in enumerate(folner_windows):  # each carries an orbit-growth ratio over |F|
            if len(F) == 0:
                raise CertificateError(f"folner_windows[{k}]", "expected a non-empty window")
        window, pool = parse_window(obj["window"], model, "window"), parse_window(obj["pool"], model, "pool")
        table = {}
        for k, row in rows.items():
            g, at = parse_key(k, model, table, f"rows[{k}]"), f"row of {k}"
            try:
                table[g] = [None if v is None else parse_index(v, at) for v in row]
            except CertificateError as exc:  # an entry is named by its row
                raise CertificateError("rows", str(exc)) from None
        radius = parse_radius(obj["radius"], "radius")
        flags = {}
        for k, v in involution.items():
            flags[parse_key(k, model, flags, f"involution[{k}]")] = parse_bool(v, f"involution[{k}]")
        folner_pools = _windows_json(obj.get("folner_pools", []), model, "folner_pools")
        return cls(window=window, pool=pool, rows=table, radius=radius, involution=flags,
                   folner_windows=folner_windows, folner_pools=folner_pools)


def _windows_json(items, model: GroupModel, field: str) -> list[FiniteWindow]:
    if not isinstance(items, list):
        raise CertificateError(field, "expected a list of windows")
    return [parse_window(w, model, f"{field}[{k}]") for k, w in enumerate(items)]


@dataclass
class Placement:
    """One Folner package after separation, with its target parameters."""

    pool: FiniteWindow
    F: FiniteWindow
    D: FiniteWindow
    theta: Fraction
    multiplicity: int


@dataclass
class AssembledPerturbation:
    action: PerturbedAction
    placements: list[Placement]
    report: PerturbationReport  # the postcondition scan, free of violations


@dataclass
class Violation:
    """A table entry beyond the radius, by payload: alpha(g)(h) = image."""

    g: Any
    h: Any
    image: Any
    distance: Fraction


@dataclass
class PerturbationReport:
    model: GroupModel
    radius: Fraction
    entries_checked: int
    violations: list[Violation]
    max_deviation: Fraction
    rosenblatt: list[tuple[int, Fraction]]  # (window idx, |pool.F|/|F|)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        text = self.model.format_data
        return {
            "radius": str(self.radius),
            "entries_checked": self.entries_checked,
            "violations": [
                {"g": text(v.g), "h": text(v.h), "image": text(v.image), "distance": str(v.distance)}
                for v in self.violations
            ],
            "max_deviation": str(self.max_deviation),
            "rosenblatt": [
                {"window": i, "ratio": str(r)} for i, r in self.rosenblatt
            ],
        }


def verify_perturbation(action: PerturbedAction, U: Entourage) -> PerturbationReport:
    """Exhaustive deviation check of every table entry, plus orbit ratios.

    Any entry with d(alpha(g)(h), g h) beyond the radius is reported as a
    violation with its exact distance.  The scan reads every distance from
    `integer_metric`, on the window's and the pool's codes, and reports it
    as the Fraction over the kernel's scale.  For each stored Folner window
    the report also carries the orbit-growth ratio |pool . F| / |F| under the
    table action, the finite stand-in for almost invariance of the action.
    """
    model = action.window.model
    if U.model is not model:
        raise ModelMismatchError("table and entourage over different models")
    rows = [(g, action.rows[g]) for g in sorted(action.rows, key=model.payload_key)]
    checked, violations, max_dev = _deviations(action.window, rows, U)

    ratios = []
    for idx, F in enumerate(action.folner_windows):
        if idx < len(action.folner_pools):
            movers = action.folner_pools[idx].payloads
        else:
            movers = list(action.rows)
        image = set(F.positions)
        for g in movers:
            for x in F.positions:
                y = action.apply(g, x)
                if y is not None:
                    image.add(y)
        ratios.append((idx, Fraction(len(image), len(F))))
    return PerturbationReport(
        model=model,
        radius=U.radius,
        entries_checked=checked,
        violations=violations,
        max_deviation=max_dev,
        rosenblatt=ratios,
    )


# A table row per payload g, sorted by g: (g, image index or None per window point).
Rows = list[tuple[Any, list[Optional[int]]]]


def _deviations(window: FiniteWindow, rows: Rows, U: Entourage) -> tuple[int, list[Violation], Fraction]:
    """The deviation scan of `verify_perturbation`: the entries checked, the
    violations and the largest deviation, with d = dist(image, g h) on
    codes for every model and metric."""
    scale, (codes, shifts), mul, dist = integer_metric(U.metric, window.positions, [g for g, _ in rows])
    bound = math.floor(U.radius * scale)
    checked = most = 0
    violations, points = [], window.payloads
    for (g, row), shift in zip(rows, shifts):
        for i, j in enumerate(row):
            if j is None:
                continue
            d = dist(codes[j], mul(shift, codes[i]))
            checked += 1
            if d > most:
                most = d
            if d > bound:
                violations.append(Violation(g=g, h=points[i], image=points[j], distance=Fraction(d, scale)))
    return checked, violations, Fraction(most, scale)


# ---------------------------------------------------------------------------
# Moving injections
# ---------------------------------------------------------------------------


def moving_injection(
    F: FiniteWindow,
    E: FiniteWindow,
    U: Entourage,
    supply: FiniteWindow,
) -> dict:
    """Injective relocation phi, payload to payload, with phi(x) in U.x and
    phi(F) meeting no g phi(F) for g in E off the identity.

    Greedy over canonical candidate order with backtracking; only available
    on non-discrete models, where a strictly finer supply grid can always
    furnish fresh points.
    """
    model = F.model
    if model.discrete:
        raise ConstructionError("moving injections need a non-discrete model")
    mul, inv, e = model._mul_data, model._inv_data, model.identity_data
    shifts = [g for g in E.positions if g != e]
    moves = [h for g in shifts for h in (g, inv(g))]
    points = supply.payloads
    candidates: list[list] = []
    for x, row in zip(F.positions, build_graph(F, supply, U).adjacency):
        if not row:
            raise ConstructionError(f"supply has no point near {model.format_data(x)}")
        candidates.append([points[j] for j in row])

    chosen: list = []
    # The chosen points and their shifts g c and g^-1 c: a candidate clashes
    # with a choice exactly when it lies in this set.
    blocked: set = set()
    steps = 0

    def place(i: int) -> bool:
        nonlocal steps
        if i == len(candidates):
            return True
        for y in candidates[i]:
            steps += 1
            if steps > BACKTRACK_CAP:
                raise BudgetError(f"moving injection exceeded {BACKTRACK_CAP} steps")
            if y in blocked:
                continue
            added = {y, *(mul(h, y) for h in moves)} - blocked
            chosen.append(y)
            blocked.update(added)
            if place(i + 1):
                return True
            chosen.pop()
            blocked.difference_update(added)
        return False

    if not place(0):
        raise ConstructionError(
            f"supply of {len(supply)} points cannot relocate {len(F)} points "
            f"clear of {len(shifts)} shifts"
        )
    phi = dict(zip(F.positions, chosen))
    _check_moving(phi, F, E, U)
    return phi


def _check_moving(phi, F, E, U) -> None:
    model = F.model
    values = [phi[x] for x in F.positions]
    if len(set(values)) != len(F):
        raise ConstructionError("relocation not injective")
    scale, (xs, ys), _, dist = integer_metric(U.metric, F.positions, values)
    if any(dist(y, x) > U.radius * scale for x, y in zip(xs, ys)):
        raise ConstructionError("relocation escapes the entourage")
    image, mul, e = set(values), model._mul_data, model.identity_data
    for g in E.positions:
        if g != e and image & {mul(g, y) for y in image}:
            raise ConstructionError("relocated window meets a shift of itself")


# ---------------------------------------------------------------------------
# Folner packages
# ---------------------------------------------------------------------------


@dataclass
class FolnerPackage:
    F: FiniteWindow
    D: FiniteWindow
    phis: dict[Any, dict]  # per payload g off the identity: core payload -> payload in gF
    theta: Fraction
    pool: FiniteWindow  # symmetrized pool including the identity

    def verify(self, U: Entourage) -> None:
        e = self.F.model.identity_data
        if len(self.D) < self.theta * len(self.F):
            raise ConstructionError("core smaller than theta |F|")
        moves = []  # (x, phi(x)) over every g
        for g in self.pool:
            if g.data == e:
                continue
            gF = translate_window(g, self.F).positions.keys()
            if gF & self.F.positions.keys():
                raise ConstructionError("window meets one of its shifts")
            phi = self.phis[g.data]
            if phi.keys() != self.D.positions.keys():
                raise ConstructionError("injection domain is not the core")
            values = list(phi.values())
            if len(set(values)) != len(values):
                raise ConstructionError("package injection not injective")
            if not set(values).issubset(gF):
                raise ConstructionError("injection leaves the shifted window")
            moves += phi.items()
        scale, (xs, ys), _, dist = integer_metric(U.metric, [x for x, _ in moves], [y for _, y in moves])
        if any(dist(y, x) > U.radius * scale for x, y in zip(xs, ys)):
            raise ConstructionError("injection escapes the entourage")


def folner_package(
    theta: Fraction,
    E: FiniteWindow,
    U: Entourage,
    budget: int = PACKAGE_BUDGET,
) -> FolnerPackage:
    """Almost-invariant core D inside a relocated window F, with entourage
    injections of D into every shift gF.

    The window comes from a Folner search at the boosted parameter
    1 - (1 - theta)/|pool| for the third-radius entourage, is moved off its
    own shifts by `moving_injection`, and the per-shift injections are the
    relocated matching pairings; the core is their common domain.
    """
    theta = parse_fraction(theta)
    if not 0 < theta < 1:
        raise ValueError("theta must lie in (0, 1)")
    model = U.model
    mul, inv, e = model._mul_data, model._inv_data, model.identity_data
    pool = symmetric_closure(model, [*E, model.identity()])
    shifts = [g for g in pool.positions if g != e]
    if not shifts:
        F = FiniteWindow._from_sorted(model, [e])
        return FolnerPackage(F=F, D=F, phis={}, theta=theta, pool=pool)
    if model.discrete:
        raise ConstructionError("packages need a non-discrete model")

    V = U.with_radius(U.radius / 3)
    W = conjugated_entourage(pool, V)
    if W.radius <= 0:
        raise ConstructionError("conjugation slack consumed the entourage")
    boosted = 1 - Fraction(1 - theta, len(pool))
    search = folner_search(pool, V, boosted, strategy="grid", budget=budget)
    if not search.found:
        raise BudgetError(
            f"no window reached boosted parameter {boosted} within budget {budget}"
        )
    cert = search.certificate
    F0 = cert.F

    base = math.lcm(
        *(x.denominator for x in F0.positions),
        *(g.denominator for g in pool.positions),
        W.radius.denominator,
    ) if isinstance(model, CircleModel) else 24
    supply_resolution = max(base, 2 * len(F0) * len(pool))
    attempts = 0
    while True:
        try:
            supply = grid_sample(model, supply_resolution)
            alpha = moving_injection(F0, pool, W, supply)
            break
        except (ConstructionError, BudgetError):
            attempts += 1
            if attempts >= 4:
                raise
            supply_resolution *= 2

    # Matching pairings give the per-shift cores and injections on F0.
    pair_maps = {}
    for g in shifts:
        result = cert.matchings[g]
        left, right = result.instance.left.payloads, result.instance.right.payloads
        pair_maps[g] = {left[i]: right[j] for i, j in result.pairing.items()}
    core0 = [x for x in F0.positions if all(x in mapping for mapping in pair_maps.values())]

    F = FiniteWindow._from_payloads(model, alpha.values())
    D = FiniteWindow._from_payloads(model, [alpha[x] for x in core0])
    phis = {}
    for g in shifts:
        g_inv, pairs = inv(g), pair_maps[g]
        # pairs[x0] lies in gF0 within V of x0
        phis[g] = {alpha[x0]: mul(g, alpha[mul(g_inv, pairs[x0])]) for x0 in core0}

    package = FolnerPackage(F=F, D=D, phis=phis, theta=theta, pool=pool)
    package.verify(U)
    return package


# ---------------------------------------------------------------------------
# Assembly of perturbations from finite index families
# ---------------------------------------------------------------------------


def build_perturbation(
    index_family: list[tuple[FiniteWindow, int]],
    U: Entourage,
    budget: int = PACKAGE_BUDGET,
) -> AssembledPerturbation:
    """Involution-corrected translation table from disjoint Folner packages.

    Each index (E_i, n_i) contributes a package at theta = 1 - 1/n_i; the
    packages are translated apart so that all pool shifts stay disjoint, and
    psi(g) swaps each core with its injected copy.  Rows are psi(g) composed
    with translation by g, restricted to the assembled window.
    """
    if not index_family:
        raise ValueError("index family must be non-empty")
    model = U.model
    mul, e = model._mul_data, model.identity_data
    placements: list[Placement] = []
    injections = []  # per placement, its package's phis after the same right translation
    occupied: set = set()

    for E_i, n_i in index_family:
        if e not in E_i.positions:
            raise ValueError("every index pool must contain the identity")
        if n_i < 2:
            raise ValueError("index multiplicities start at 2")
        theta_i = 1 - Fraction(1, n_i)
        package = folner_package(theta_i, E_i, U, budget=budget)
        footprint = _footprint(model, package.pool, package.F)

        z = _separating_shift(model, footprint, occupied)
        occupied |= {mul(x, z) for x in footprint}
        placements.append(Placement(
            pool=package.pool,
            F=FiniteWindow._from_payloads(model, [mul(x, z) for x in package.F.positions]),
            D=FiniteWindow._from_payloads(model, [mul(x, z) for x in package.D.positions]),
            theta=theta_i,
            multiplicity=n_i,
        ))
        injections.append({
            g: {mul(x, z): mul(y, z) for x, y in phi.items()}
            for g, phi in package.phis.items()
        })

    window = FiniteWindow._from_payloads(model, occupied)
    pool = FiniteWindow._from_payloads(model, [g for p in placements for g in p.pool.positions if g != e])
    index = window.positions

    rows: dict[Any, list[Optional[int]]] = {}
    involution: dict[Any, bool] = {}
    for g in pool.positions:
        psi = {x: x for x in index}
        for placement, phis in zip(placements, injections):
            if g not in placement.pool.positions:
                continue
            for x, y in phis[g].items():
                if psi[x] != x or psi[y] != y:
                    raise ConstructionError("swap pieces overlap across packages")
                psi[x] = y
                psi[y] = x
        involution[g] = True  # checked by the table on construction
        row: list[Optional[int]] = []
        for h in index:
            gh = mul(g, h)
            row.append(index[psi[gh]] if gh in index else None)
        rows[g] = row

    action = PerturbedAction(
        window=window,
        pool=pool,
        rows=rows,
        radius=U.radius,
        involution=involution,
        folner_windows=[p.F for p in placements],
        folner_pools=[p.pool for p in placements],
    )
    report = verify_perturbation(action, U)
    if not report.ok:
        raise ConstructionError(f"assembled table has {len(report.violations)} violations")
    return AssembledPerturbation(action=action, placements=placements, report=report)


def _footprint(model, pool, F) -> set:
    mul = model._mul_data
    return {mul(g, x) for g in pool.positions for x in F.positions}


def _separating_shift(model, footprint, occupied):
    mul = model._mul_data
    if not occupied:
        return model.identity_data
    resolution = 60
    for _ in range(4):
        for z in grid_sample(model, resolution).positions:
            if not occupied.intersection(mul(x, z) for x in footprint):
                return z
        resolution *= 2
    raise ConstructionError("could not separate packages within the supply bound")


# ---------------------------------------------------------------------------
# Precompact models: perturbations generating finite groups
# ---------------------------------------------------------------------------


@dataclass
class PrecompactResult:
    action: PerturbedAction
    centers: FiniteWindow
    assignment: list[int]  # window index -> centers index
    gammas: dict[Any, tuple[int, ...]]  # center permutation per sample payload
    group_order: int
    order_bound: int
    max_deviation: Fraction
    lift_mode: str

    def to_json(self) -> dict:
        model = self.centers.model
        return {
            "action": self.action.to_json(),
            "centers": self.centers.to_json(),
            "assignment": list(self.assignment),
            "gammas": {model.format_data(g): list(p) for g, p in self.gammas.items()},
            "group_order": self.group_order,
            "order_bound": self.order_bound,
            "max_deviation": str(self.max_deviation),
            "lift_mode": self.lift_mode,
        }


def _separated_centers(window: FiniteWindow, V: Entourage) -> tuple[FiniteWindow, list[int]]:
    """The greedy centers (each window point outside the V-balls of the
    earlier centers) and each point's nearest center by index into them,
    ties to the smaller center.  A new center's ball is a one-row
    `build_graph` over the window, so picking costs |window| per center;
    the balls list each point's centers within V, in ascending order, and
    distances are measured on those only."""
    centers: list[int] = []  # window indices
    near: list[list[int]] = [[] for _ in range(len(window))]  # centers within V
    points = window.payloads
    for i, x in enumerate(points):
        if not near[i]:
            for j in build_graph(FiniteWindow._from_sorted(window.model, [x]), window, V).adjacency[0]:
                near[j].append(len(centers))
            centers.append(i)
    _, (codes,), _, dist = integer_metric(V.metric, window.positions)
    assignment = []
    for x, row in zip(codes, near):
        if not row:  # maximality: every point sits within V of a center
            raise ConstructionError("separated set is not maximal")
        assignment.append(min((dist(x, codes[centers[k]]), k) for k in row)[1])
    return FiniteWindow._from_sorted(window.model, [points[i] for i in centers]), assignment


def _perm_closure(generators: list[tuple[int, ...]], cap: int) -> list[tuple[int, ...]]:
    """Sorted elements of the permutation group the generators span; more
    than `cap` elements is a construction error."""
    n = len(generators[0]) if generators else 0
    identity = tuple(range(n))
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for p in frontier:
            for q in generators:
                r = tuple(p[j] for j in q)
                if r not in seen:
                    if len(seen) >= cap:
                        raise ConstructionError(f"group closure exceeded cap {cap}")
                    seen.add(r)
                    nxt.append(r)
        frontier = nxt
    return sorted(seen)


def _uniform_step(window: FiniteWindow) -> Optional[Fraction]:
    """Common circular step of a circle/cyclic window, if the window is a
    full evenly spaced grid; None otherwise."""
    model, points = window.model, window.payloads
    n = len(window)
    if n == 0:
        return None
    if isinstance(model, CircleModel):
        step = Fraction(1, n)
        return step if all(points[k] == k * step for k in range(n)) else None
    if isinstance(model, CyclicModel):
        if model.modulus % n != 0:
            return None
        step = model.modulus // n
        return Fraction(step) if all(points[k] == k * step for k in range(n)) else None
    return None


def precompact_perturbation(
    U: Entourage,
    window: FiniteWindow,
    sample: FiniteWindow,
) -> PrecompactResult:
    """Window permutations near translation whose generated group is finite.

    The center set F is the greedy maximal subset of the window separated by
    more than a third of the radius; perfect matchings F -> gF at the third
    radius give center permutations gamma(g), and the table rows lift those
    permutations back to the window:

    * if the nearest-center fibers have constant size along the orbits of
      the generated center group, the lift transports fibers through fixed
      reference bijections and is an exact group embedding;
    * otherwise, on evenly spaced circle / cyclic windows the rows fall back
      to the nearest grid rotation, whose deviation is at most half a grid
      step and whose closure is cyclic.

    Deviation and the order bound |F|! are both re-verified exhaustively on
    the result; a window that supports neither lift is a construction error.
    """
    model = U.model
    if not isinstance(model, (CircleModel, TorusModel, CyclicModel)):
        raise ConstructionError("precompact construction needs circle, torus, or cyclic")
    if len(window) == 0:
        raise ValueError("empty window")
    if U.radius <= 0:
        raise ValueError("entourage radius must be positive")
    V = U.with_radius(U.radius / 3)

    centers, assignment = _separated_centers(window, V)
    if len(centers) > CLOSURE_CENTER_CAP:
        raise ConstructionError(
            f"{len(centers)} centers exceed the exact-closure cap {CLOSURE_CENTER_CAP}"
        )

    # center permutations through perfect matchings F -> gF
    gammas: dict[Any, tuple[int, ...]] = {}
    mul = model._mul_data
    for g in sample:
        gF = translate_window(g, centers)
        result = max_matching(build_graph(centers, gF, V))
        if not result.perfect:
            raise ConstructionError(
                f"no perfect matching toward {model.format(g)}; "
                f"Hall violated on {len(result.witness)} centers"
            )
        target_index = {gF.payloads[j]: i for i, j in result.pairing.items()}
        gammas[g.data] = tuple(target_index[mul(g.data, c)] for c in centers.positions)

    rows, lift_mode = _lift_rows(window, centers, assignment, gammas, U)

    if any(j is None for row in rows.values() for j in row):
        raise ConstructionError("precompact rows must be total")
    action = PerturbedAction(window=window, pool=sample, rows=rows, radius=U.radius)
    report = verify_perturbation(action, U)
    if not report.ok:
        v = report.violations[0]
        raise ConstructionError(
            f"deviation {v.distance} beyond {U.radius} at "
            f"({model.format_data(v.g)}, {model.format_data(v.h)})"
        )

    perms = [tuple(row) for row in rows.values()]
    bound = math.factorial(len(centers))
    order = len(_perm_closure(perms, cap=bound + 1))
    if bound % order != 0:
        raise ConstructionError(f"group order {order} does not divide |F|! = {bound}")
    return PrecompactResult(
        action=action,
        centers=centers,
        assignment=assignment,
        gammas=gammas,
        group_order=order,
        order_bound=bound,
        max_deviation=report.max_deviation,
        lift_mode=lift_mode,
    )


def _lift_rows(window, centers, assignment, gammas, U):
    """Lift the center permutations, per sample payload, to window rows;
    see precompact_perturbation."""
    n_centers = len(centers)
    fibers: list[list[int]] = [[] for _ in range(n_centers)]
    for i, c in enumerate(assignment):
        fibers[c].append(i)

    # sizes are constant on the orbits of the generated center group exactly
    # when every generator keeps them
    sizes = [len(f) for f in fibers]
    if all(sizes[c] == sizes[gamma[c]] for gamma in gammas.values() for c in range(n_centers)):
        # Index-by-index fiber transport; composing two transports is the
        # transport of the composition, so the lift embeds the center group.
        rows = {}
        for g, gamma in gammas.items():
            row: list[Optional[int]] = [None] * len(window)
            for c in range(n_centers):
                src, dst = fibers[c], fibers[gamma[c]]
                for k, i in enumerate(src):
                    row[i] = dst[k]
            rows[g] = row
        return rows, "fiber-transport"

    step = _uniform_step(window)
    if step is not None:
        return _rotation_rows(window, step, list(gammas), U), "grid-rotation"

    raise ConstructionError(
        "fibers are unbalanced along center orbits and the window is not an "
        "evenly spaced grid; no exact lift is available"
    )


def _rotation_rows(window, step, sample: list, U) -> dict[Any, list[int]]:
    """Per sample payload g, the row of the grid rotation window[k] = k * step
    nearest g, which sends i to i + k mod n; each rotation must lie within
    the radius."""
    n = len(window)
    scale, (codes, shifts), _, dist = integer_metric(U.metric, window.positions, sample)
    rows = {}
    for g, shift in zip(sample, shifts):
        k = (2 * Fraction(g) / step + 1) // 2 % n  # round half up, exact on fractions
        dev = Fraction(dist(codes[k], shift), scale)
        if dev > U.radius:
            raise ConstructionError(f"grid rotation misses {window.model.format_data(g)} by {dev} > {U.radius}")
        rows[g] = [(i + k) % n for i in range(n)]
    return rows


# ---------------------------------------------------------------------------
# Wobbling decompositions
# ---------------------------------------------------------------------------


@dataclass
class WobblingElement:
    window: FiniteWindow
    permutation: list[int]
    pieces: list[tuple[Any, FiniteWindow]]  # (translator payload, the piece it moves)

    def verify(self) -> None:
        """Re-applying each translator on its piece must reproduce the permutation."""
        mul, index, points = self.window.model._mul_data, self.window.positions, self.window.payloads
        seen = set()
        for g, piece in self.pieces:
            for x in piece.positions:
                if x in seen:
                    raise ValueError("pieces overlap")
                seen.add(x)
                if mul(g, x) != points[self.permutation[index[x]]]:
                    raise ValueError("translator does not reproduce the permutation")
        if len(seen) != len(self.window):
            raise ValueError("pieces do not cover the window")


def decompose_wobbling(
    permutation: list[int],
    window: FiniteWindow,
    pool: FiniteWindow,
) -> WobblingElement:
    """Split a window permutation into pieces moved by single pool translations.

    Each point gets the canonically first pool element whose action matches
    the permutation there; a point with no matching translator is reported
    as the witness of non-membership.
    """
    model, points = window.model, window.payloads
    if sorted(permutation) != list(range(len(window))):
        raise ValueError("not a permutation of the window")
    if pool.model is not model:
        raise ModelMismatchError("window and pool over different models")
    mul = model._mul_data
    translator: dict[Any, list] = {}
    for x, k in zip(points, permutation):
        target = points[k]
        for g in pool.positions:
            if mul(g, x) == target:
                translator.setdefault(g, []).append(x)
                break
        else:
            raise NonMemberError(
                f"no pool translator moves {model.format_data(x)} to {model.format_data(target)}",
                witness=x,
            )
    order = sorted(translator, key=model.payload_key)
    pieces = [(g, FiniteWindow._from_payloads(model, translator[g])) for g in order]
    element = WobblingElement(window=window, permutation=list(permutation), pieces=pieces)
    element.verify()
    return element
