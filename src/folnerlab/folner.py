"""Folner defects measured by matchings, with verifiable certificates and a
budgeted search for witness windows.

The topological defect of a window F against a pool E at scale U is

    min over g in E of  mu(F, gF, U) / |F|,

computed from maximum matchings whose pairings are stored in the returned
certificate.  A failure to reach a target is data, not an error: searches
return the best candidate found together with budget accounting.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Optional

from .groups import (
    Entourage,
    FiniteWindow,
    GroupElement,
    GroupModel,
    CircleModel,
    LatticeModel,
    ScaledMetric,
    TorusModel,
    grid_sample,
    translate_window,
    word_ball,
)
from .matching import MatchingResult, build_graph, max_matching
from .weights import matching_seminorm_bound

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass
class FolnerCertificate:
    model: GroupModel
    E: FiniteWindow
    U: Entourage
    F: FiniteWindow
    theta: Fraction
    matchings: dict[GroupElement, MatchingResult]
    seminorm_value: Optional[Fraction] = None
    seminorm_bound: Optional[Fraction] = None

    def verify(self) -> None:
        """Re-derive theta over E: build each (F, gF, U) graph once, check the
        stored pairing, mu and witness on it, and require mu to be maximum.

        Each stored matching is bound to its rebuilt graph."""
        if len(self.F) == 0:
            raise ValueError("certificate with empty window")
        if set(self.matchings) != set(self.E):
            raise ValueError("matching keys differ from the pool E")
        for g in self.E:
            stored = self.matchings[g]
            stored.instance = build_graph(self.F, translate_window(g, self.F), self.U)
            stored.check_valid()
            if max_matching(stored.instance).mu != stored.mu:
                raise ValueError("stored matching is not maximum")
        theta = min((Fraction(self.matchings[g].mu, len(self.F)) for g in self.E), default=ONE)
        if theta != self.theta:
            raise ValueError("theta does not match the stored matchings")

    def to_json(self) -> dict:
        obj = {
            "model": self.model.to_json(),
            "E": self.E.to_json(),
            "U": self.U.to_json(),
            "F": self.F.to_json(),
            "theta": str(self.theta),
            "matchings": {
                self.model.format(g): m.to_json() for g, m in sorted(
                    self.matchings.items(), key=lambda kv: self.model.sort_key(kv[0])
                )
            },
        }
        if self.seminorm_value is not None:
            obj["seminorm_check"] = {
                "value": str(self.seminorm_value),
                "bound": str(self.seminorm_bound),
            }
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "FolnerCertificate":
        """Parse a certificate from its file form.  The matchings carry no
        graph until `verify` rebuilds it from (F, gF, U)."""
        from .groups import model_from_json, entourage_from_json, parse_fraction

        model = model_from_json(obj["model"])
        E = FiniteWindow.from_json(obj["E"], model)
        F = FiniteWindow.from_json(obj["F"], model)
        U = entourage_from_json(obj["U"], model)
        matchings = {}
        for key, entry in obj["matchings"].items():
            g = model.parse(key)
            if g in matchings:
                raise ValueError(f"matching key {key!r} repeats an element")
            pairing = {int(i): int(j) for i, j in entry["pairing"]}
            if len(pairing) != len(entry["pairing"]):
                raise ValueError(f"pairing of {key!r} repeats a left index")
            matchings[g] = MatchingResult(
                instance=None,
                pairing=pairing,
                mu=int(entry["mu"]),
                witness=tuple(int(i) for i in entry["witness"]),
                perfect=int(entry["mu"]) == len(F),
            )
        check = obj.get("seminorm_check")
        return cls(
            model=model,
            E=E,
            U=U,
            F=F,
            theta=parse_fraction(obj["theta"]),
            matchings=matchings,
            seminorm_value=parse_fraction(check["value"]) if check else None,
            seminorm_bound=parse_fraction(check["bound"]) if check else None,
        )


def discrete_defect(F: FiniteWindow, E: FiniteWindow) -> Fraction:
    """min over g of |F meet gF| / |F| (the entourage-free count)."""
    if len(F) == 0:
        raise ValueError("defect of an empty window")
    best = ONE
    for g in E:
        overlap = sum(1 for x in translate_window(g, F) if x in F)
        best = min(best, Fraction(overlap, len(F)))
    return best


def topological_defect(
    F: FiniteWindow,
    E: FiniteWindow,
    U: Entourage,
) -> tuple[Fraction, FolnerCertificate]:
    """min over g of mu(F, gF, U)/|F| with all matchings retained."""
    if len(F) == 0:
        raise ValueError("defect of an empty window")
    matchings = {g: max_matching(build_graph(F, translate_window(g, F), U)) for g in E}
    theta = min(
        (Fraction(m.mu, len(F)) for m in matchings.values()),
        default=ONE,
    )
    cert = FolnerCertificate(
        model=F.model, E=E, U=U, F=F, theta=theta, matchings=matchings
    )
    return theta, cert


def pairwise_defect(F: FiniteWindow, E: FiniteWindow, U: Entourage) -> Fraction:
    """min over ordered pairs g, h in E of mu(gF, hF, U)/|F|."""
    if len(F) == 0:
        raise ValueError("defect of an empty window")
    best = ONE
    for g in E:
        gF = translate_window(g, F)
        for h in E:
            hF = translate_window(h, F)
            mu = max_matching(build_graph(gF, hF, U)).mu
            best = min(best, Fraction(mu, len(F)))
    return best


def conjugated_entourage(E: FiniteWindow, U: Entourage) -> Entourage:
    """An entourage V with V contained in every g^-1 U g for g in E.

    Bi-invariant metrics are conjugation-stable, so U itself works.  For the
    remaining (word-type) metrics, right-invariance gives the subadditive
    estimate d(g^-1 u g, e) <= d(u, e) + 2 d(g, e), so shrinking the radius
    by twice the largest generator length is a safe under-approximation.
    """
    if U.metric.bi_invariant:
        return U
    slack = max((U.metric.distance_to_identity(g) for g in E), default=ZERO)
    return U.with_radius(max(ZERO, U.radius - 2 * slack))


def action_defect(
    F: FiniteWindow,
    E: FiniteWindow,
    action: Optional[Callable[[GroupElement, GroupElement], GroupElement]] = None,
) -> Fraction:
    """|EF| / |F| for the action orbit set EF = { g.x : g in E, x in F }."""
    if len(F) == 0:
        raise ValueError("defect of an empty window")
    apply = action if action is not None else (lambda g, x: F.model.mul(g, x))
    image = set()
    for g in E:
        for x in F:
            image.add(apply(g, x))
    return Fraction(len(image), len(F))


# ---------------------------------------------------------------------------
# Matching -> seminorm bridge
# ---------------------------------------------------------------------------


def bridge_metric(U: Entourage):
    """Rescale the entourage metric so that U becomes { d'(., e) <= 1/2 }."""
    if U.radius > 0:
        return ScaledMetric(U.metric, Fraction(1, 2) / U.radius)
    if U.metric.integer_valued():
        return U.metric
    raise ValueError("radius-0 entourage of a dense metric has no ball form at 1/2")


def seminorm_crosscheck(cert: FolnerCertificate) -> tuple[Fraction, Fraction]:
    """Exact check that every g in E satisfies the matched-transport bound.

    In the rescaled metric a matched point moves by at most 1/2 and an
    unmatched one by at most the unit value range, so over 1-Lipschitz
    functions into [0, 1] the translation-difference seminorm is at most
    1 - theta/2; the full [-1, 1] seminorm obeys twice that.  Both are
    asserted exactly; the restricted value is stored on the certificate.
    """
    metric = bridge_metric(cert.U)
    worst = ZERO
    bound = 1 - cert.theta / 2
    for g in cert.E:
        restricted, full = matching_seminorm_bound(cert.F, g, metric)
        worst = max(worst, restricted)
        if restricted > bound:
            raise AssertionError(
                f"bridge violated at {cert.model.format(g)}: {restricted} > {bound}"
            )
        if full > 2 * bound:
            raise AssertionError(
                f"full-range bridge violated at {cert.model.format(g)}: {full} > {2 * bound}"
            )
    cert.seminorm_value = worst
    cert.seminorm_bound = bound
    return worst, bound


# ---------------------------------------------------------------------------
# Search
# ---------------------------------------------------------------------------


@dataclass
class FolnerSearchResult:
    found: bool
    theta_target: Fraction
    certificate: Optional[FolnerCertificate]
    best_theta: Fraction
    candidates_tried: int
    budget_exhausted: bool

    def to_json(self) -> dict:
        return {
            "found": self.found,
            "theta_target": str(self.theta_target),
            "best_theta": str(self.best_theta),
            "candidates_tried": self.candidates_tried,
            "budget_exhausted": self.budget_exhausted,
            "certificate": self.certificate.to_json() if self.certificate else None,
        }


def _ball_candidates(model: GroupModel) -> Iterator[FiniteWindow]:
    radius = 1
    while True:
        yield word_ball(model, radius)
        radius += 1


def _box_candidates(model: LatticeModel) -> Iterator[FiniteWindow]:
    n = 1
    while True:
        points = [()]
        for _ in range(model.dim):
            points = [p + (k,) for p in points for k in range(n)]
        yield FiniteWindow(model, [model.element(p) for p in points])
        n += 1


def _grid_candidates(model: GroupModel) -> Iterator[FiniteWindow]:
    n = 1
    while True:
        yield grid_sample(model, n)
        n += 1


def _local_candidates(
    model: GroupModel,
    E: FiniteWindow,
    U: Entourage,
    seed: Optional[int],
) -> Iterator[FiniteWindow]:
    """Hill-climb by single-element swaps in canonical order."""
    import random

    if isinstance(model, (CircleModel, TorusModel)):
        pool = list(grid_sample(model, 24))
    else:
        pool = list(word_ball(model, 4))
    rng = random.Random(seed) if seed is not None else None

    current = FiniteWindow(model, pool[: max(1, len(pool) // 4)])
    while True:
        yield current
        theta, _ = topological_defect(current, E, U)
        improved = False
        for out in current:
            for inc in pool:
                if inc in current:
                    continue
                trial = FiniteWindow(model, [x for x in current if x != out] + [inc])
                t2, _ = topological_defect(trial, E, U)
                if t2 > theta:
                    current = trial
                    improved = True
                    break
            if improved:
                break
        if not improved:
            if rng is None:
                return
            current = FiniteWindow(model, rng.sample(pool, max(1, len(pool) // 3)))


def folner_search(
    model: GroupModel,
    E: FiniteWindow,
    U: Entourage,
    theta_target: Fraction,
    strategy: str = "balls",
    budget: int = 50,
    seed: Optional[int] = None,
) -> FolnerSearchResult:
    """First candidate window meeting the target, or the best-found report."""
    if budget <= 0:
        raise ValueError("budget must be positive")
    theta_target = Fraction(theta_target)
    if strategy == "balls":
        candidates = _ball_candidates(model)
    elif strategy == "boxes":
        if not isinstance(model, LatticeModel):
            raise ValueError("boxes strategy requires a lattice model")
        candidates = _box_candidates(model)
    elif strategy == "grid":
        if not isinstance(model, (CircleModel, TorusModel)):
            raise ValueError("grid strategy requires circle or torus")
        candidates = _grid_candidates(model)
    elif strategy == "local":
        candidates = _local_candidates(model, E, U, seed)
    else:
        raise ValueError(f"unknown strategy {strategy!r}")

    best_theta = ZERO
    best_cert: Optional[FolnerCertificate] = None
    tried = 0
    for F in candidates:
        if tried >= budget:
            return FolnerSearchResult(
                found=False,
                theta_target=theta_target,
                certificate=best_cert,
                best_theta=best_theta,
                candidates_tried=tried,
                budget_exhausted=True,
            )
        tried += 1
        theta, cert = topological_defect(F, E, U)
        if best_cert is None or theta > best_theta:
            best_theta, best_cert = theta, cert
        if theta >= theta_target:
            return FolnerSearchResult(
                found=True,
                theta_target=theta_target,
                certificate=cert,
                best_theta=theta,
                candidates_tried=tried,
                budget_exhausted=False,
            )
    return FolnerSearchResult(
        found=False,
        theta_target=theta_target,
        certificate=best_cert,
        best_theta=best_theta,
        candidates_tried=tried,
        budget_exhausted=False,
    )
