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
from itertools import chain, count, islice, product
from typing import Any, Iterator, Optional

from .groups import (
    CertificateError,
    Entourage,
    FiniteWindow,
    GroupModel,
    LatticeModel,
    ScaledMetric,
    WINDOW_CAP,
    WindowSizeError,
    certificate_fraction,
    entourage_from_json,
    grid_sample,
    model_from_json,
    parse_index,
    parse_key,
    parse_window,
    require_fields,
    translate_window,
    unscaled,
    word_ball,
)
from .matching import MatchingResult, build_graph, max_matching
from .weights import FiniteWeight, invariance_defect

ZERO = Fraction(0)
ONE = Fraction(1)
# Candidate generators of `folner_search`, its default strategy, and the
# default number of candidates it tries.
STRATEGIES = ("balls", "boxes", "grid", "local")
DEFAULT_STRATEGY = "balls"
SEARCH_BUDGET = 50


@dataclass
class FolnerCertificate:
    model: GroupModel
    E: FiniteWindow
    U: Entourage
    F: FiniteWindow
    theta: Fraction
    matchings: dict[Any, MatchingResult]  # per payload of E
    seminorm_value: Optional[Fraction] = None
    seminorm_bound: Optional[Fraction] = None

    def verify(self) -> None:
        """Re-derive theta over E: build each (F, gF, U) graph once and check
        the stored pairing, mu and witness on it.  No matching is re-solved:
        `check_valid` shows that the pairing is a matching with
        mu = |F| - (|S| - |N(S)|) for the stored witness S, and every
        matching M' of the graph has |M'| <= |F| - |S| + |N(S)| (weak
        duality), so mu is maximum.  A stored seminorm check is re-derived as
        `seminorm_crosscheck` does.

        Each stored matching is bound to its rebuilt graph."""
        if len(self.F) == 0:
            raise ValueError("certificate with empty window")
        if self.matchings.keys() != self.E.positions.keys():
            raise ValueError("matching keys differ from the pool E")
        for g in self.E:
            stored = self.matchings[g.data]
            stored.instance = build_graph(self.F, translate_window(g, self.F), self.U)
            stored.check_valid()
        theta = min((Fraction(m.mu, len(self.F)) for m in self.matchings.values()), default=ONE)
        if theta != self.theta:
            raise ValueError("theta does not match the stored matchings")
        if self.seminorm_value is not None:
            if _bridge_values(self) != (self.seminorm_value, self.seminorm_bound):
                raise ValueError("seminorm_check does not match the re-derived value and bound")

    def to_json(self) -> dict:
        obj = {
            "model": self.model.to_json(),
            "E": self.E.to_json(),
            "U": self.U.to_json(),
            "F": self.F.to_json(),
            "theta": str(self.theta),
            "matchings": {self.model.format_data(g): m.to_json() for g, m in self.matchings.items()},
        }
        if self.seminorm_value is not None:
            obj["seminorm_check"] = {
                "value": str(self.seminorm_value),
                "bound": str(self.seminorm_bound),
            }
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "FolnerCertificate":
        """Parse a certificate from its file form; every malformed field is
        a CertificateError naming it.  The matchings carry no graph until
        `verify` rebuilds it from (F, gF, U)."""
        require_fields(obj, ("model", "E", "U", "F", "theta", "matchings"), ("seminorm_check",))
        try:
            model = model_from_json(obj["model"])
        except CertificateError as exc:
            raise exc.under("model") from None
        E = parse_window(obj["E"], model, "E")
        F = parse_window(obj["F"], model, "F")
        try:
            U = entourage_from_json(obj["U"], model)
        except CertificateError as exc:
            raise exc.under("U") from None
        theta = certificate_fraction(obj["theta"], "theta")
        if not isinstance(obj["matchings"], dict):
            raise CertificateError("matchings", "expected an object keyed by element encodings")
        matchings = {}
        for key, entry in obj["matchings"].items():
            field = f"matchings[{key!r}]"
            matchings[parse_key(key, model, matchings, field)] = _matching_from_json(entry, field, len(F))
        value = bound = None
        if "seminorm_check" in obj:
            check = obj["seminorm_check"]
            try:
                require_fields(check, ("value", "bound"))
                value, bound = (certificate_fraction(check[key], key) for key in ("value", "bound"))
            except CertificateError as exc:
                raise exc.under("seminorm_check") from None
        return cls(
            model=model, E=E, U=U, F=F, theta=theta, matchings=matchings, seminorm_value=value, seminorm_bound=bound
        )


def _matching_from_json(entry, field: str, n: int) -> MatchingResult:
    """One stored matching of a certificate over a window of n points."""
    try:
        require_fields(entry, ("pairing", "mu", "witness"))
    except CertificateError as exc:
        raise exc.under(field) from None
    pairs, witness = entry["pairing"], entry["witness"]
    if not isinstance(pairs, list):
        raise CertificateError(f"{field}.pairing", "expected a list of [i, j] pairs")
    try:
        pairing = dict(pairs)  # each pair a list of two entries
    except (TypeError, ValueError):
        raise CertificateError(f"{field}.pairing", "expected a list of [i, j] pairs") from None
    if len(pairing) != len(pairs):
        raise CertificateError(f"{field}.pairing", "repeats a left index")
    if not isinstance(witness, list):
        raise CertificateError(f"{field}.witness", "expected a list of JSON integers")
    for name, values in (("pairing", chain.from_iterable(pairing.items())), ("witness", witness)):
        for value in values:
            if type(value) is not int:  # one scan; parse_index states the rule and names the field
                parse_index(value, f"{field}.{name}")
    mu = parse_index(entry["mu"], f"{field}.mu")
    return MatchingResult(instance=None, pairing=pairing, mu=mu, witness=tuple(witness), perfect=mu == n)


def discrete_defect(F: FiniteWindow, E: FiniteWindow) -> Fraction:
    """min over g of |F meet gF| / |F| (the entourage-free count)."""
    if len(F) == 0:
        raise ValueError("defect of an empty window")
    best = ONE
    for g in E:
        overlap = len(translate_window(g, F).positions.keys() & F.positions.keys())
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
    matchings = {g.data: max_matching(build_graph(F, translate_window(g, F), U)) for g in E}
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


# ---------------------------------------------------------------------------
# Matching -> seminorm bridge
# ---------------------------------------------------------------------------


def bridge_metric(U: Entourage):
    """Rescale the entourage metric so that U becomes { d'(., e) <= 1/2 }."""
    if U.radius > 0:
        return ScaledMetric(U.metric, Fraction(1, 2) / U.radius)
    metric = unscaled(U.metric)[0]  # the radius-0 ball of c * d is that of d
    if metric.integer_valued():
        return metric
    raise ValueError("radius-0 entourage of a dense metric has no ball form at 1/2")


def seminorm_crosscheck(cert: FolnerCertificate) -> tuple[Fraction, Fraction]:
    """Exact check that every g in E satisfies the matched-transport bound.

    The translation differences uniform(F) - g.uniform(F) are measured by
    `invariance_defect` in the `bridge_metric`, where the certificate's
    entourage is the ball { d(., e) <= 1/2 }.  There a matched point moves
    by at most 1/2 and an unmatched one by at most the unit value range, so
    over 1-Lipschitz functions into [0, 1] the seminorm is at most
    1 - theta/2; splitting a [-1, 1]-valued function into positive and
    negative parts doubles that for the full seminorm.  Both are asserted
    exactly; the worst restricted value is stored on the certificate.
    """
    cert.seminorm_value, cert.seminorm_bound = _bridge_values(cert)
    return cert.seminorm_value, cert.seminorm_bound


def _bridge_values(cert: FolnerCertificate) -> tuple[Fraction, Fraction]:
    """(worst restricted value over E, 1 - theta/2); see seminorm_crosscheck."""
    defect = invariance_defect(FiniteWeight.uniform(cert.F), cert.E, bridge_metric(cert.U))
    bound = 1 - cert.theta / 2
    for row in defect.rows:
        if row.restricted > bound:
            raise AssertionError(
                f"bridge violated at {cert.model.format_data(row.g)}: {row.restricted} > {bound}"
            )
        if row.full > 2 * bound:
            raise AssertionError(
                f"full-range bridge violated at {cert.model.format_data(row.g)}: {row.full} > {2 * bound}"
            )
    return defect.restricted, bound


# ---------------------------------------------------------------------------
# Search
# ---------------------------------------------------------------------------


@dataclass
class FolnerSearchResult:
    """`budget_exhausted`: the target was not met and all `budget`
    candidates were tried.  `best_index` (0-based, not serialized) is the
    position of the certificate's window among the candidates tried."""

    found: bool
    theta_target: Fraction
    certificate: Optional[FolnerCertificate]
    best_theta: Fraction
    candidates_tried: int
    budget_exhausted: bool
    best_index: int

    def to_json(self) -> dict:
        return {
            "found": self.found,
            "theta_target": str(self.theta_target),
            "best_theta": str(self.best_theta),
            "candidates_tried": self.candidates_tried,
            "budget_exhausted": self.budget_exhausted,
            "certificate": self.certificate.to_json() if self.certificate else None,
        }


# A candidate window with its defect and certificate, solved once.
Scored = tuple[FiniteWindow, Fraction, FolnerCertificate]


def _box(model: LatticeModel, n: int) -> FiniteWindow:
    """The box {0, ..., n-1}^dim; `WindowSizeError` past the window cap."""
    if n**model.dim > WINDOW_CAP:
        raise WindowSizeError(f"box of {n**model.dim} points exceeds cap {WINDOW_CAP}")
    return FiniteWindow._from_sorted(model, list(product(range(n), repeat=model.dim)))


def _local_candidates(
    model: GroupModel,
    E: FiniteWindow,
    U: Entourage,
    seed: Optional[int],
) -> Iterator[Scored]:
    """Hill-climb by single-element swaps in canonical order: each step
    moves to the first swap that raises theta.  At a local maximum an
    unseeded climb ends and a seeded one restarts from a random window."""
    import random

    pool = list((word_ball(model, 4) if model.discrete else grid_sample(model, 24)).positions)
    rng = random.Random(seed) if seed is not None else None

    def scored(F: FiniteWindow) -> Scored:
        return (F, *topological_defect(F, E, U))

    def first_improvement(F: FiniteWindow, theta: Fraction) -> Optional[Scored]:
        for out in F.positions:
            for inc in pool:
                if inc not in F.positions:
                    trial = scored(FiniteWindow._from_payloads(model, [x for x in F.positions if x != out] + [inc]))
                    if trial[1] > theta:
                        return trial
        return None

    current = scored(FiniteWindow._from_payloads(model, pool[: max(1, len(pool) // 4)]))
    while True:
        yield current
        current = first_improvement(*current[:2])
        if current is None:
            if rng is None:
                return
            current = scored(FiniteWindow._from_payloads(model, rng.sample(pool, max(1, len(pool) // 3))))


def check_strategy(model: GroupModel, strategy: str) -> None:
    """Raise ValueError unless `strategy` is a search strategy that fits
    `model`: boxes need a lattice, grids a circle or torus."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    if strategy == "boxes" and not isinstance(model, LatticeModel):
        raise ValueError("boxes strategy requires a lattice model")
    if strategy == "grid" and model.discrete:
        raise ValueError("grid strategy requires circle or torus")


def folner_search(
    E: FiniteWindow,
    U: Entourage,
    theta_target: Fraction,
    strategy: str = DEFAULT_STRATEGY,
    budget: int = SEARCH_BUDGET,
    seed: Optional[int] = None,
) -> FolnerSearchResult:
    """First candidate window meeting the target, or the best-found report.
    At most `budget` candidates are built, and each is solved once; the
    search also ends, with the best so far, at the first candidate past the
    window cap."""
    if budget <= 0:
        raise ValueError("budget must be positive")
    model = U.model
    check_strategy(model, strategy)
    theta_target = Fraction(theta_target)
    if strategy == "local":
        candidates = _local_candidates(model, E, U, seed)
    else:
        build = {"balls": word_ball, "boxes": _box, "grid": grid_sample}[strategy]
        windows = (build(model, n) for n in count(1))
        candidates = ((F, *topological_defect(F, E, U)) for F in windows)

    tried = best_index = 0
    best_theta, best_cert = ZERO, None
    try:
        for tried, (_, theta, cert) in enumerate(islice(candidates, budget), 1):
            if best_cert is None or theta > best_theta:
                best_theta, best_cert, best_index = theta, cert, tried - 1
            if theta >= theta_target:
                break
    except WindowSizeError:  # the next candidate is past the window cap
        pass
    found = best_theta >= theta_target
    return FolnerSearchResult(
        found=found,
        theta_target=theta_target,
        certificate=best_cert,
        best_theta=best_theta,
        candidates_tried=tried,
        budget_exhausted=not found and tried == budget,
        best_index=best_index,
    )
