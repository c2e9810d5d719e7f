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

Every constructor re-checks its own postconditions exhaustively; the checks
are cheap at desk scale and catch construction bugs instead of assuming the
underlying counting arguments were transcribed correctly.  The two table
builders run their deviation scan through `verify_perturbation`, the same
check that re-verifies a table loaded from file; `build_perturbation` hands
that report on as `AssembledPerturbation.report`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .groups import (
    CircleModel,
    CyclicModel,
    Entourage,
    FiniteWindow,
    GroupElement,
    GroupModel,
    TorusModel,
    grid_sample,
    parse_bool,
    parse_fraction,
    parse_index,
    symmetric_closure,
    translate_window,
)
from .folner import conjugated_entourage, folner_search
from .matching import build_graph, max_matching

ZERO = Fraction(0)
BACKTRACK_CAP = 10_000
CLOSURE_CENTER_CAP = 8


class ConstructionError(ValueError):
    pass


class BudgetError(RuntimeError):
    pass


class NonMemberError(ValueError):
    def __init__(self, message: str, witness: GroupElement):
        super().__init__(message)
        self.witness = witness


# ---------------------------------------------------------------------------
# Perturbed actions
# ---------------------------------------------------------------------------


@dataclass
class PerturbedAction:
    """Table of injective rows h -> alpha(g)(h) over a window.

    Rows are image indices aligned with the window; None marks points outside
    the row's domain.  `involution` records, per g, whether the correction
    psi(g) = alpha(g) o (left translation by g)^-1 is an involution of the
    window (meaningful for package-built actions).  `inverse_rows` holds,
    per g, the preimage index of each window point (None where no point maps
    to it); it is built from the rows at construction, so rows are not to be
    changed afterwards.
    """

    window: FiniteWindow
    pool: FiniteWindow
    rows: dict[GroupElement, list[Optional[int]]]
    radius: Fraction
    involution: dict[GroupElement, bool] = field(default_factory=dict)
    folner_windows: list[FiniteWindow] = field(default_factory=list)
    folner_pools: list[FiniteWindow] = field(default_factory=list)
    inverse_rows: dict[GroupElement, list[Optional[int]]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = len(self.window)
        self.inverse_rows = {}
        for g, row in self.rows.items():
            if len(row) != n:
                raise ValueError("row length mismatch")
            if any(j is not None and not 0 <= j < n for j in row):
                raise ValueError(f"row of {self.window.model.format(g)} has an index outside 0 <= j < {n}")
            inverse: list[Optional[int]] = [None] * n
            for i, j in enumerate(row):
                if j is None:
                    continue
                if inverse[j] is not None:
                    raise ValueError(f"row of {self.window.model.format(g)} not injective")
                inverse[j] = i
            self.inverse_rows[g] = inverse

    def apply(self, g: GroupElement, x: GroupElement) -> Optional[GroupElement]:
        row = self.rows.get(g)
        if row is None or x not in self.window:
            return None
        j = row[self.window.index(x)]
        return None if j is None else self.window[j]

    def apply_inverse(self, g: GroupElement, y: GroupElement) -> Optional[GroupElement]:
        inverse = self.inverse_rows.get(g)
        if inverse is None or y not in self.window:
            return None
        i = inverse[self.window.index(y)]
        return None if i is None else self.window[i]

    def to_json(self) -> dict:
        model = self.window.model
        return {
            "window": self.window.to_json(),
            "pool": self.pool.to_json(),
            "rows": {
                model.format(g): list(self.rows[g])
                for g in sorted(self.rows, key=model.sort_key)
            },
            "radius": str(self.radius),
            "involution": {
                model.format(g): self.involution[g]
                for g in sorted(self.involution, key=model.sort_key)
            },
            "folner_windows": [w.to_json() for w in self.folner_windows],
            "folner_pools": [w.to_json() for w in self.folner_pools],
        }

    @classmethod
    def from_json(cls, obj: dict, model: GroupModel) -> "PerturbedAction":
        window = FiniteWindow.from_json(obj["window"], model)
        pool = FiniteWindow.from_json(obj["pool"], model)
        rows = {
            model.parse(k): [None if v is None else parse_index(v, f"row of {k}") for v in row]
            for k, row in obj["rows"].items()
        }
        inv = {
            model.parse(k): parse_bool(v, f"involution[{k}]")
            for k, v in obj.get("involution", {}).items()
        }
        fw = [FiniteWindow.from_json(w, model) for w in obj.get("folner_windows", [])]
        fp = [FiniteWindow.from_json(w, model) for w in obj.get("folner_pools", [])]
        return cls(
            window=window,
            pool=pool,
            rows=rows,
            radius=parse_fraction(obj["radius"]),
            involution=inv,
            folner_windows=fw,
            folner_pools=fp,
        )


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
    g: GroupElement
    h: GroupElement
    image: GroupElement
    distance: Fraction


@dataclass
class PerturbationReport:
    radius: Fraction
    entries_checked: int
    violations: list[Violation]
    max_deviation: Fraction
    rosenblatt: list[tuple[int, Fraction]]  # (window idx, |pool.F|/|F|)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "radius": str(self.radius),
            "entries_checked": self.entries_checked,
            "violations": [
                {
                    "g": v.g.model.format(v.g),
                    "h": v.h.model.format(v.h),
                    "image": v.image.model.format(v.image),
                    "distance": str(v.distance),
                }
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
    violation with its exact distance.  For each stored Folner window the
    report also carries the orbit-growth ratio |pool . F| / |F| under the
    table action, the finite stand-in for almost invariance of the action.
    """
    model = action.window.model
    metric = U.metric
    violations = []
    checked = 0
    max_dev = ZERO
    for g, row in sorted(action.rows.items(), key=lambda kv: model.sort_key(kv[0])):
        for i, j in enumerate(row):
            if j is None:
                continue
            h = action.window[i]
            image = action.window[j]
            dist = metric.eval(image, model.mul(g, h))
            checked += 1
            max_dev = max(max_dev, dist)
            if dist > U.radius:
                violations.append(Violation(g=g, h=h, image=image, distance=dist))

    ratios = []
    for idx, F in enumerate(action.folner_windows):
        if idx < len(action.folner_pools):
            movers = [g for g in action.folner_pools[idx] if g in action.rows]
        else:
            movers = list(action.rows)
        image = set(F)
        for g in movers:
            for x in F:
                y = action.apply(g, x)
                if y is not None:
                    image.add(y)
        ratios.append((idx, Fraction(len(image), len(F))))
    return PerturbationReport(
        radius=U.radius,
        entries_checked=checked,
        violations=violations,
        max_deviation=max_dev,
        rosenblatt=ratios,
    )


# ---------------------------------------------------------------------------
# Moving injections
# ---------------------------------------------------------------------------


def moving_injection(
    F: FiniteWindow,
    E: FiniteWindow,
    U: Entourage,
    supply: FiniteWindow,
) -> dict[GroupElement, GroupElement]:
    """Injective relocation phi with phi(x) in U.x and phi(F) meeting no
    g phi(F) for g in E off the identity.

    Greedy over canonical candidate order with backtracking; only available
    on non-discrete models, where a strictly finer supply grid can always
    furnish fresh points.
    """
    model = F.model
    if model.discrete:
        raise ConstructionError("moving injections need a non-discrete model")
    shifts = [g for g in E if g != model.identity()]
    candidates: list[list[GroupElement]] = []
    for x in F:
        near = [y for y in supply if U.metric.eval(y, x) <= U.radius]
        if not near:
            raise ConstructionError(f"supply has no point near {model.format(x)}")
        candidates.append(near)

    chosen: list[GroupElement] = []
    chosen_set: set[GroupElement] = set()
    blocked: set[GroupElement] = set()  # union of g.images and g^-1.images
    steps = 0

    def ok(y: GroupElement) -> bool:
        if y in chosen_set or y in blocked:
            return False
        for g in shifts:
            if model.mul(g, y) in chosen_set or model.mul(model.inv(g), y) in chosen_set:
                return False
        return True

    def place(i: int) -> bool:
        nonlocal steps
        if i == len(candidates):
            return True
        for y in candidates[i]:
            steps += 1
            if steps > BACKTRACK_CAP:
                raise BudgetError(f"moving injection exceeded {BACKTRACK_CAP} steps")
            if not ok(y):
                continue
            chosen.append(y)
            chosen_set.add(y)
            added = []
            for g in shifts:
                for img in (model.mul(g, y), model.mul(model.inv(g), y)):
                    if img not in blocked:
                        blocked.add(img)
                        added.append(img)
            if place(i + 1):
                return True
            chosen.pop()
            chosen_set.discard(y)
            for img in added:
                blocked.discard(img)
        return False

    if not place(0):
        raise ConstructionError(
            f"supply of {len(supply)} points cannot relocate {len(F)} points "
            f"clear of {len(shifts)} shifts"
        )
    phi = dict(zip(F, chosen))
    _check_moving(phi, F, E, U)
    return phi


def _check_moving(phi, F, E, U) -> None:
    model = F.model
    values = list(phi.values())
    if len(set(values)) != len(F):
        raise ConstructionError("relocation not injective")
    for x in F:
        if U.metric.eval(phi[x], x) > U.radius:
            raise ConstructionError("relocation escapes the entourage")
    image = set(values)
    for g in E:
        if g == model.identity():
            continue
        if image & {model.mul(g, y) for y in image}:
            raise ConstructionError("relocated window meets a shift of itself")


# ---------------------------------------------------------------------------
# Folner packages
# ---------------------------------------------------------------------------


@dataclass
class FolnerPackage:
    F: FiniteWindow
    D: FiniteWindow
    phis: dict[GroupElement, dict[GroupElement, GroupElement]]
    theta: Fraction
    pool: FiniteWindow  # symmetrized pool including the identity

    def verify(self, U: Entourage) -> None:
        model = self.F.model
        if len(self.D) < self.theta * len(self.F):
            raise ConstructionError("core smaller than theta |F|")
        for g in self.pool:
            if g == model.identity():
                continue
            gF = set(translate_window(g, self.F))
            if gF & set(self.F):
                raise ConstructionError("window meets one of its shifts")
            phi = self.phis[g]
            if set(phi) != set(self.D):
                raise ConstructionError("injection domain is not the core")
            values = list(phi.values())
            if len(set(values)) != len(values):
                raise ConstructionError("package injection not injective")
            for x, y in phi.items():
                if y not in gF:
                    raise ConstructionError("injection leaves the shifted window")
                if U.metric.eval(y, x) > U.radius:
                    raise ConstructionError("injection escapes the entourage")


def folner_package(
    theta: Fraction,
    E: FiniteWindow,
    U: Entourage,
    model: GroupModel,
    budget: int = 60,
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
    pool = symmetric_closure(model, list(E) + [model.identity()])
    shifts = [g for g in pool if g != model.identity()]
    if not shifts:
        F = FiniteWindow(model, [model.identity()])
        return FolnerPackage(F=F, D=F, phis={}, theta=theta, pool=pool)
    if model.discrete:
        raise ConstructionError("packages need a non-discrete model")

    V = U.with_radius(U.radius / 3)
    W = conjugated_entourage(pool, V)
    if W.radius <= 0:
        raise ConstructionError("conjugation slack consumed the entourage")
    boosted = 1 - Fraction(1 - theta, len(pool))
    search = folner_search(model, pool, V, boosted, strategy="grid", budget=budget)
    if not search.found:
        raise BudgetError(
            f"no window reached boosted parameter {boosted} within budget {budget}"
        )
    cert = search.certificate
    F0 = cert.F

    base = math.lcm(
        *(x.data.denominator for x in F0),
        *(g.data.denominator for g in pool if isinstance(g.data, Fraction)),
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
    domains = []
    pair_maps: dict[GroupElement, dict[GroupElement, GroupElement]] = {}
    for g in shifts:
        result = cert.matchings[g]
        mapping = {x: y for x, y in result.pairing_elements()}
        pair_maps[g] = mapping
        domains.append(set(mapping))
    core0 = set(F0)
    for dom in domains:
        core0 &= dom

    F = FiniteWindow(model, alpha.values())
    D = FiniteWindow(model, [alpha[x] for x in core0])
    phis: dict[GroupElement, dict[GroupElement, GroupElement]] = {}
    for g in shifts:
        g_inv = model.inv(g)
        phi = {}
        for x0 in core0:
            y = pair_maps[g][x0]  # y in gF0 within V of x0
            phi[alpha[x0]] = model.mul(g, alpha[model.mul(g_inv, y)])
        phis[g] = phi

    package = FolnerPackage(F=F, D=D, phis=phis, theta=theta, pool=pool)
    package.verify(U)
    return package


# ---------------------------------------------------------------------------
# Assembly of perturbations from finite index families
# ---------------------------------------------------------------------------


def build_perturbation(
    model: GroupModel,
    index_family: list[tuple[FiniteWindow, int]],
    U: Entourage,
    budget: int = 60,
) -> AssembledPerturbation:
    """Involution-corrected translation table from disjoint Folner packages.

    Each index (E_i, n_i) contributes a package at theta = 1 - 1/n_i; the
    packages are translated apart so that all pool shifts stay disjoint, and
    psi(g) swaps each core with its injected copy.  Rows are psi(g) composed
    with translation by g, restricted to the assembled window.
    """
    if not index_family:
        raise ValueError("index family must be non-empty")
    placed = []  # (pool, F, D, phis, theta, n) after right translation
    occupied: set[GroupElement] = set()
    identity = model.identity()

    for E_i, n_i in index_family:
        if identity not in E_i:
            raise ValueError("every index pool must contain the identity")
        if n_i < 2:
            raise ValueError("index multiplicities start at 2")
        theta_i = 1 - Fraction(1, n_i)
        package = folner_package(theta_i, E_i, U, model, budget=budget)
        footprint = _footprint(model, package.pool, package.F)

        z = _separating_shift(model, footprint, occupied)
        F = FiniteWindow(model, [model.mul(x, z) for x in package.F])
        D = FiniteWindow(model, [model.mul(x, z) for x in package.D])
        phis = {
            g: {
                model.mul(x, z): model.mul(y, z) for x, y in phi.items()
            }
            for g, phi in package.phis.items()
        }
        shifted_footprint = {model.mul(x, z) for x in footprint}
        occupied |= shifted_footprint
        placed.append((package.pool, F, D, phis, theta_i, n_i))

    window = FiniteWindow(model, occupied)
    pool_elems = sorted(
        {g for pool, *_ in placed for g in pool if g != identity},
        key=model.sort_key,
    )
    pool = FiniteWindow(model, pool_elems)

    rows: dict[GroupElement, list[Optional[int]]] = {}
    involution: dict[GroupElement, bool] = {}
    for g in pool:
        psi = {x: x for x in window}
        for idx_pool, F, D, phis, _, _ in placed:
            if g not in idx_pool:
                continue
            for x, y in phis[g].items():
                if psi[x] != x or psi[y] != y:
                    raise ConstructionError("swap pieces overlap across packages")
                psi[x] = y
                psi[y] = x
        for x in window:
            if psi[psi[x]] != x:
                raise ConstructionError("correction is not an involution")
        involution[g] = True
        row: list[Optional[int]] = []
        for h in window:
            gh = model.mul(g, h)
            row.append(window.index(psi[gh]) if gh in window else None)
        rows[g] = row

    action = PerturbedAction(
        window=window,
        pool=pool,
        rows=rows,
        radius=U.radius,
        involution=involution,
        folner_windows=[F for _, F, _, _, _, _ in placed],
        folner_pools=[p for p, _, _, _, _, _ in placed],
    )
    report = verify_perturbation(action, U)
    if not report.ok:
        raise ConstructionError(f"assembled table has {len(report.violations)} violations")
    placements = [
        Placement(pool=p, F=F, D=D, theta=theta, multiplicity=n)
        for p, F, D, _, theta, n in placed
    ]
    return AssembledPerturbation(action=action, placements=placements, report=report)


def _footprint(model, pool, F) -> set[GroupElement]:
    out = set()
    for g in pool:
        for x in F:
            out.add(model.mul(g, x))
    return out


def _separating_shift(model, footprint, occupied) -> GroupElement:
    if not occupied:
        return model.identity()
    resolution = 60
    for _ in range(4):
        for z in grid_sample(model, resolution):
            shifted = {model.mul(x, z) for x in footprint}
            if not (shifted & occupied):
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
    gammas: dict[GroupElement, tuple[int, ...]]  # center permutations
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
            "gammas": {
                model.format(g): list(p)
                for g, p in sorted(self.gammas.items(), key=lambda kv: model.sort_key(kv[0]))
            },
            "group_order": self.group_order,
            "order_bound": self.order_bound,
            "max_deviation": str(self.max_deviation),
            "lift_mode": self.lift_mode,
        }


def _greedy_separated(window: FiniteWindow, metric, threshold: Fraction) -> list[int]:
    chosen: list[int] = []
    for i, x in enumerate(window):
        if all(metric.eval(x, window[j]) > threshold for j in chosen):
            chosen.append(i)
    return chosen


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
    model = window.model
    n = len(window)
    if n == 0:
        return None
    if isinstance(model, CircleModel):
        step = Fraction(1, n)
        return step if all(window[k].data == k * step for k in range(n)) else None
    if isinstance(model, CyclicModel):
        if model.modulus % n != 0:
            return None
        step = model.modulus // n
        return Fraction(step) if all(window[k].data == k * step for k in range(n)) else None
    return None


def precompact_perturbation(
    model: GroupModel,
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
    if not isinstance(model, (CircleModel, TorusModel, CyclicModel)):
        raise ConstructionError("precompact construction needs circle, torus, or cyclic")
    if len(window) == 0:
        raise ValueError("empty window")
    if U.radius <= 0:
        raise ValueError("entourage radius must be positive")
    metric = U.metric
    third = U.radius / 3
    V = U.with_radius(third)

    center_idx = _greedy_separated(window, metric, third)
    centers = FiniteWindow(model, [window[i] for i in center_idx])
    # maximality: every window point sits within the third radius of a center
    for x in window:
        if all(metric.eval(x, c) > third for c in centers):
            raise ConstructionError("separated set is not maximal")

    # nearest-center assignment, ties to the canonically smaller center
    assignment: list[int] = []
    for x in window:
        best_j = 0
        best_d = metric.eval(x, centers[0])
        for j in range(1, len(centers)):
            dj = metric.eval(x, centers[j])
            if dj < best_d:
                best_d, best_j = dj, j
        assignment.append(best_j)

    # center permutations through perfect matchings F -> gF
    gammas: dict[GroupElement, tuple[int, ...]] = {}
    for g in sample:
        gF = translate_window(g, centers)
        result = max_matching(build_graph(centers, gF, V))
        if not result.perfect:
            raise ConstructionError(
                f"no perfect matching toward {model.format(g)}; "
                f"Hall violated on {len(result.witness)} centers"
            )
        target_index = {gF[j]: i for i, j in result.pairing.items()}
        gamma = tuple(
            target_index[model.mul(g, centers[i])] for i in range(len(centers))
        )
        gammas[g] = gamma

    if len(centers) > CLOSURE_CENTER_CAP:
        raise ConstructionError(
            f"{len(centers)} centers exceed the exact-closure cap {CLOSURE_CENTER_CAP}"
        )

    rows, lift_mode = _lift_rows(model, window, centers, assignment, gammas, sample, U)

    if any(j is None for row in rows.values() for j in row):
        raise ConstructionError("precompact rows must be total")
    action = PerturbedAction(
        window=window,
        pool=sample,
        rows=rows,
        radius=U.radius,
    )
    report = verify_perturbation(action, U)
    if not report.ok:
        v = report.violations[0]
        raise ConstructionError(
            f"deviation {v.distance} beyond {U.radius} at "
            f"({model.format(v.g)}, {model.format(v.h)})"
        )

    perms = [tuple(rows[g]) for g in sample]
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


def _lift_rows(model, window, centers, assignment, gammas, sample, U):
    """Lift center permutations to window rows; see precompact_perturbation."""
    n_centers = len(centers)
    fibers: list[list[int]] = [[] for _ in range(n_centers)]
    for i, c in enumerate(assignment):
        fibers[c].append(i)

    # the orbits of the generated center group are those of its generators
    orbits = _orbits(list(gammas.values()), n_centers)
    sizes = [len(f) for f in fibers]
    balanced = all(
        len({sizes[c] for c in orbit}) == 1 for orbit in orbits
    )

    if balanced:
        # Index-by-index fiber transport; composing two transports is the
        # transport of the composition, so the lift embeds the center group.
        rows = {}
        for g in sample:
            gamma = gammas[g]
            row: list[Optional[int]] = [None] * len(window)
            for c in range(n_centers):
                src, dst = fibers[c], fibers[gamma[c]]
                for k, i in enumerate(src):
                    row[i] = dst[k]
            rows[g] = row
        return rows, "fiber-transport"

    step = _uniform_step(window)
    if step is not None:
        rows = {}
        for g in sample:
            shift = _nearest_rotation(model, g, step, len(window), U)
            row = [
                window.index(model.mul(shift, window[i])) for i in range(len(window))
            ]
            rows[g] = row
        return rows, "grid-rotation"

    raise ConstructionError(
        "fibers are unbalanced along center orbits and the window is not an "
        "evenly spaced grid; no exact lift is available"
    )


def _nearest_rotation(model, g, step, n, U) -> GroupElement:
    if isinstance(model, CircleModel):
        ratio = g.data / step
    else:
        ratio = Fraction(g.data) / step
    k = (2 * ratio + 1) // 2  # round half up, exact on fractions
    if isinstance(model, CircleModel):
        shift = model.element(k * step)
    else:
        shift = model.element(int(k * step))
    dev = U.metric.eval(shift, g)
    if dev > U.radius:
        raise ConstructionError(
            f"grid rotation misses {model.format(g)} by {dev} > {U.radius}"
        )
    return shift


def _orbits(perms: list[tuple[int, ...]], n: int) -> list[list[int]]:
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for p in perms:
        for i, j in enumerate(p):
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[ri] = rj
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


# ---------------------------------------------------------------------------
# Wobbling decompositions
# ---------------------------------------------------------------------------


@dataclass
class WobblingElement:
    window: FiniteWindow
    permutation: list[int]
    pieces: list[tuple[GroupElement, FiniteWindow]]

    def verify(self) -> None:
        """Re-applying each translator on its piece must reproduce the permutation."""
        model = self.window.model
        seen = set()
        for g, piece in self.pieces:
            for x in piece:
                if x in seen:
                    raise ValueError("pieces overlap")
                seen.add(x)
                expected = self.window[self.permutation[self.window.index(x)]]
                if model.mul(g, x) != expected:
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
    model = window.model
    if sorted(permutation) != list(range(len(window))):
        raise ValueError("not a permutation of the window")
    translator: dict[GroupElement, list[GroupElement]] = {}
    for i, x in enumerate(window):
        target = window[permutation[i]]
        for g in pool:
            if model.mul(g, x) == target:
                translator.setdefault(g, []).append(x)
                break
        else:
            raise NonMemberError(
                f"no pool translator moves {model.format(x)} to {model.format(target)}",
                witness=x,
            )
    pieces = [
        (g, FiniteWindow(model, xs))
        for g, xs in sorted(translator.items(), key=lambda kv: model.sort_key(kv[0]))
    ]
    element = WobblingElement(window=window, permutation=list(permutation), pieces=pieces)
    element.verify()
    return element
