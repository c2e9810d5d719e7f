"""Exact group models: elements, generators, invariant pseudo-metrics, entourages,
and finite windows.

All arithmetic is integer/rational and every comparison is exact; nothing here
touches floating point.  Elements carry a canonical encoding per model, so two
elements are equal exactly when their encodings coincide, and every window is
kept in a deterministic canonical order (shortlex for word-like models,
numeric/lexicographic otherwise).
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Iterable, Iterator, Optional

WINDOW_CAP = 100_000

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


class ModelMismatchError(ValueError):
    """Raised when elements from different group models are combined."""


class WindowSizeError(ValueError):
    """Raised when an enumeration would exceed the configured window cap."""


def parse_fraction(text: str | int | Fraction) -> Fraction:
    """Parse an exact rational from 'p/q' or integer text; floats are rejected."""
    if isinstance(text, Fraction):
        return text
    if isinstance(text, int):
        return Fraction(text)
    s = str(text).strip()
    if "." in s or "e" in s.lower():
        raise ValueError(f"not an exact rational: {text!r}")
    return Fraction(s)


@dataclass(frozen=True)
class GroupElement:
    """Canonical element of a concrete group model."""

    model: "GroupModel"
    data: Any

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        return self.model.mul(self, other)

    def inv(self) -> "GroupElement":
        return self.model.inv(self)

    def __repr__(self) -> str:
        return f"<{self.model.kind}:{self.model.format(self)}>"

    def sort_key(self):
        return self.model.sort_key(self)


class GroupModel:
    """Base class for the built-in group models.

    Subclasses provide the group law on canonical payloads, a generating set,
    parsing/formatting of the text encoding, and a deterministic sort key.
    """

    kind: str = ""
    discrete: bool = True
    abelian: bool = False

    # -- group law -----------------------------------------------------
    def identity(self) -> GroupElement:
        raise NotImplementedError

    def mul(self, g: GroupElement, h: GroupElement) -> GroupElement:
        self._check(g)
        self._check(h)
        return GroupElement(self, self._mul_data(g.data, h.data))

    def inv(self, g: GroupElement) -> GroupElement:
        self._check(g)
        return GroupElement(self, self._inv_data(g.data))

    def _mul_data(self, a, b):
        raise NotImplementedError

    def _inv_data(self, a):
        raise NotImplementedError

    def _check(self, g: GroupElement) -> None:
        if g.model != self:
            raise ModelMismatchError(f"element of {g.model.kind} used in {self.kind}")

    # -- encodings -----------------------------------------------------
    def element(self, data) -> GroupElement:
        return GroupElement(self, self._canonical(data))

    def _canonical(self, data):
        return data

    def parse(self, text: str) -> GroupElement:
        raise NotImplementedError

    def format(self, g: GroupElement) -> str:
        raise NotImplementedError

    def sort_key(self, g: GroupElement):
        raise NotImplementedError

    # -- generators and metric ------------------------------------------
    def generators(self) -> list[GroupElement]:
        """Symmetric generating set in canonical order."""
        raise NotImplementedError

    def default_metric(self) -> "InvariantPseudoMetric":
        raise NotImplementedError

    def word_length(self, g: GroupElement) -> Fraction:
        raise NotImplementedError(f"{self.kind} has no word metric")

    # -- identity / hashing ---------------------------------------------
    def params(self) -> dict:
        return {}

    def _signature(self):
        return (self.kind, tuple(sorted(self.params().items())))

    def __eq__(self, other) -> bool:
        return isinstance(other, GroupModel) and self._signature() == other._signature()

    def __hash__(self) -> int:
        return hash(self._signature())

    def __repr__(self) -> str:
        ps = ",".join(f"{k}={v}" for k, v in sorted(self.params().items()))
        return f"{self.kind}({ps})"

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "params": self.params(),
            "generators": [self.format(g) for g in self.generators()],
            "metric": self.default_metric().to_json(),
        }


class LatticeModel(GroupModel):
    """Free abelian lattice of a fixed dimension, elements as integer vectors."""

    kind = "lattice"
    abelian = True

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError("lattice dimension must be >= 1")
        self.dim = dim

    def params(self) -> dict:
        return {"dim": self.dim}

    def identity(self) -> GroupElement:
        return GroupElement(self, (0,) * self.dim)

    def _mul_data(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def _inv_data(self, a):
        return tuple(-x for x in a)

    def _canonical(self, data):
        vec = tuple(int(x) for x in data)
        if len(vec) != self.dim:
            raise ValueError(f"lattice vector of length {len(vec)}, expected {self.dim}")
        return vec

    def parse(self, text: str) -> GroupElement:
        return self.element(int(part) for part in text.split(","))

    def format(self, g: GroupElement) -> str:
        return ",".join(str(x) for x in g.data)

    def sort_key(self, g: GroupElement):
        return g.data

    def generators(self) -> list[GroupElement]:
        gens = []
        for i in range(self.dim):
            for s in (1, -1):
                vec = [0] * self.dim
                vec[i] = s
                gens.append(self.element(vec))
        return sorted(gens, key=self.sort_key)

    def word_length(self, g: GroupElement) -> Fraction:
        return Fraction(sum(abs(x) for x in g.data))

    def default_metric(self) -> "InvariantPseudoMetric":
        return WordMetric(self)


class FreeGroupModel(GroupModel):
    """Free group on k generators; elements are reduced words.

    The payload is a tuple of nonzero ints: +i is the i-th generator
    (1-based), -i its inverse.  Text encoding is comma-separated letters
    with uppercase marking inverses ('a,B'), and 'e' for the identity.
    """

    kind = "free"

    def __init__(self, rank: int):
        if not 1 <= rank <= 26:
            raise ValueError("free rank must be between 1 and 26")
        self.rank = rank

    def params(self) -> dict:
        return {"rank": self.rank}

    def identity(self) -> GroupElement:
        return GroupElement(self, ())

    def _mul_data(self, a, b):
        out = list(a)
        for letter in b:
            if out and out[-1] == -letter:
                out.pop()
            else:
                out.append(letter)
        return tuple(out)

    def _inv_data(self, a):
        return tuple(-x for x in reversed(a))

    def _canonical(self, data):
        word = ()
        for letter in data:
            letter = int(letter)
            if letter == 0 or abs(letter) > self.rank:
                raise ValueError(f"letter {letter} outside rank {self.rank}")
            word = self._mul_data(word, (letter,))
        return word

    def parse(self, text: str) -> GroupElement:
        text = text.strip()
        if text in ("", "e"):
            return self.identity()
        letters = []
        for part in text.split(","):
            part = part.strip()
            if len(part) != 1 or part.lower() not in _LETTERS[: self.rank]:
                raise ValueError(f"bad free-group letter {part!r}")
            idx = _LETTERS.index(part.lower()) + 1
            letters.append(-idx if part.isupper() else idx)
        return self.element(letters)

    def format(self, g: GroupElement) -> str:
        if not g.data:
            return "e"
        out = []
        for letter in g.data:
            ch = _LETTERS[abs(letter) - 1]
            out.append(ch.upper() if letter < 0 else ch)
        return ",".join(out)

    def sort_key(self, g: GroupElement):
        # Shortlex; for equal lengths a < a^-1 < b < b^-1 ...
        ranks = tuple(2 * (abs(x) - 1) + (1 if x < 0 else 0) for x in g.data)
        return (len(g.data), ranks)

    def generators(self) -> list[GroupElement]:
        gens = []
        for i in range(1, self.rank + 1):
            gens.append(self.element((i,)))
            gens.append(self.element((-i,)))
        return sorted(gens, key=self.sort_key)

    def word_length(self, g: GroupElement) -> Fraction:
        return Fraction(len(g.data))

    def default_metric(self) -> "InvariantPseudoMetric":
        return WordMetric(self)


class HeisenbergModel(GroupModel):
    """Discrete Heisenberg group of integer triples (a, b, c).

    Product follows the upper-triangular matrix convention:
    (a,b,c)(a',b',c') = (a+a', b+b', c+c'+a*b').
    """

    kind = "heisenberg"

    def __init__(self):
        self._length_cache: dict[tuple, int] = {(0, 0, 0): 0}
        self._length_frontier: deque | None = None
        self._length_radius = 0

    def params(self) -> dict:
        return {}

    def identity(self) -> GroupElement:
        return GroupElement(self, (0, 0, 0))

    def _mul_data(self, x, y):
        return (x[0] + y[0], x[1] + y[1], x[2] + y[2] + x[0] * y[1])

    def _inv_data(self, x):
        return (-x[0], -x[1], x[0] * x[1] - x[2])

    def _canonical(self, data):
        vec = tuple(int(v) for v in data)
        if len(vec) != 3:
            raise ValueError("heisenberg element needs 3 coordinates")
        return vec

    def parse(self, text: str) -> GroupElement:
        return self.element(int(p) for p in text.split(","))

    def format(self, g: GroupElement) -> str:
        return ",".join(str(x) for x in g.data)

    def sort_key(self, g: GroupElement):
        return g.data

    def generators(self) -> list[GroupElement]:
        gens = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)]
        return sorted((self.element(v) for v in gens), key=self.sort_key)

    def word_length(self, g: GroupElement) -> Fraction:
        data = g.data
        radius = 0
        while data not in self._length_cache:
            radius = self._length_radius + 1
            if radius > 40:
                raise WindowSizeError("heisenberg word length search exceeded radius 40")
            self._grow_length_cache(radius)
        return Fraction(self._length_cache[data])

    def _grow_length_cache(self, radius: int) -> None:
        if self._length_frontier is None:
            self._length_frontier = deque([(0, 0, 0)])
        gens = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)]
        next_frontier: deque = deque()
        while self._length_frontier:
            x = self._length_frontier.popleft()
            for s in gens:
                y = self._mul_data(x, s)
                if y not in self._length_cache:
                    self._length_cache[y] = radius
                    next_frontier.append(y)
        self._length_frontier = next_frontier
        self._length_radius = radius

    def default_metric(self) -> "InvariantPseudoMetric":
        return WordMetric(self)


class CircleModel(GroupModel):
    """Rational circle: addition mod 1 on fractions in [0, 1)."""

    kind = "circle"
    discrete = False
    abelian = True

    def params(self) -> dict:
        return {}

    def identity(self) -> GroupElement:
        return GroupElement(self, Fraction(0))

    def _mul_data(self, a, b):
        return (a + b) % 1

    def _inv_data(self, a):
        return (-a) % 1

    def _canonical(self, data):
        return parse_fraction(data) % 1

    def parse(self, text: str) -> GroupElement:
        return self.element(text)

    def format(self, g: GroupElement) -> str:
        return str(g.data)

    def sort_key(self, g: GroupElement):
        return g.data

    def generators(self) -> list[GroupElement]:
        return [self.element(Fraction(1, 12)), self.element(Fraction(11, 12))]

    def default_metric(self) -> "InvariantPseudoMetric":
        return ArcMetric(self)


class TorusModel(GroupModel):
    """Product of rational circles, componentwise addition mod 1."""

    kind = "torus"
    discrete = False
    abelian = True

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError("torus dimension must be >= 1")
        self.dim = dim

    def params(self) -> dict:
        return {"dim": self.dim}

    def identity(self) -> GroupElement:
        return GroupElement(self, (Fraction(0),) * self.dim)

    def _mul_data(self, a, b):
        return tuple((x + y) % 1 for x, y in zip(a, b))

    def _inv_data(self, a):
        return tuple((-x) % 1 for x in a)

    def _canonical(self, data):
        vec = tuple(parse_fraction(x) % 1 for x in data)
        if len(vec) != self.dim:
            raise ValueError(f"torus vector of length {len(vec)}, expected {self.dim}")
        return vec

    def parse(self, text: str) -> GroupElement:
        return self.element(text.split(","))

    def format(self, g: GroupElement) -> str:
        return ",".join(str(x) for x in g.data)

    def sort_key(self, g: GroupElement):
        return g.data

    def generators(self) -> list[GroupElement]:
        gens = []
        for i in range(self.dim):
            for q in (Fraction(1, 12), Fraction(11, 12)):
                vec = [Fraction(0)] * self.dim
                vec[i] = q
                gens.append(self.element(vec))
        return sorted(gens, key=self.sort_key)

    def default_metric(self) -> "InvariantPseudoMetric":
        return ArcMetric(self)


class CyclicModel(GroupModel):
    """Finite cyclic group of residues modulo n."""

    kind = "cyclic"
    abelian = True

    def __init__(self, modulus: int):
        if modulus < 1:
            raise ValueError("cyclic modulus must be >= 1")
        self.modulus = modulus

    def params(self) -> dict:
        return {"modulus": self.modulus}

    def identity(self) -> GroupElement:
        return GroupElement(self, 0)

    def _mul_data(self, a, b):
        return (a + b) % self.modulus

    def _inv_data(self, a):
        return (-a) % self.modulus

    def _canonical(self, data):
        return int(data) % self.modulus

    def parse(self, text: str) -> GroupElement:
        return self.element(int(text))

    def format(self, g: GroupElement) -> str:
        return str(g.data)

    def sort_key(self, g: GroupElement):
        return g.data

    def generators(self) -> list[GroupElement]:
        if self.modulus == 1:
            return [self.identity()]
        gens = {1 % self.modulus, (-1) % self.modulus}
        return [self.element(v) for v in sorted(gens)]

    def word_length(self, g: GroupElement) -> Fraction:
        r = g.data
        return Fraction(min(r, self.modulus - r))

    def default_metric(self) -> "InvariantPseudoMetric":
        return WordMetric(self)


def make_model(kind: str, **params) -> GroupModel:
    if kind == "lattice":
        return LatticeModel(int(params.get("dim", 1)))
    if kind == "free":
        return FreeGroupModel(int(params.get("rank", 2)))
    if kind == "heisenberg":
        return HeisenbergModel()
    if kind == "circle":
        return CircleModel()
    if kind == "torus":
        return TorusModel(int(params.get("dim", 2)))
    if kind == "cyclic":
        return CyclicModel(int(params.get("modulus", 12)))
    raise ValueError(f"unknown model kind {kind!r}")


def model_from_json(obj: dict) -> GroupModel:
    return make_model(obj["kind"], **obj.get("params", {}))


# ---------------------------------------------------------------------------
# Invariant pseudo-metrics
# ---------------------------------------------------------------------------


class InvariantPseudoMetric:
    """Right-invariant pseudo-metric with exact rational values.

    All built-in rules satisfy d(xg, yg) = d(x, y) exactly; the word metrics
    on abelian models and the arc/discrete metrics are bi-invariant as well.
    """

    rule: str = ""

    def __init__(self, model: GroupModel):
        self.model = model

    def eval(self, x: GroupElement, y: GroupElement) -> Fraction:
        raise NotImplementedError

    def distance_to_identity(self, g: GroupElement) -> Fraction:
        return self.eval(g, self.model.identity())

    @property
    def bi_invariant(self) -> bool:
        return self.model.abelian

    def integer_valued(self) -> bool:
        return False

    def to_json(self) -> dict:
        return {"rule": self.rule}

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, InvariantPseudoMetric)
            and self.to_json() == other.to_json()
            and self.model == other.model
        )

    def __hash__(self) -> int:
        return hash((json.dumps(self.to_json(), sort_keys=True), self.model))


class WordMetric(InvariantPseudoMetric):
    """d(x, y) = word length of x * y^-1 over the model generators."""

    rule = "word"

    def eval(self, x: GroupElement, y: GroupElement) -> Fraction:
        return self.model.word_length(self.model.mul(x, self.model.inv(y)))

    def integer_valued(self) -> bool:
        return True


class ArcMetric(InvariantPseudoMetric):
    """Wraparound distance on the circle, componentwise max on the torus."""

    rule = "arc"

    @staticmethod
    def _arc(a: Fraction, b: Fraction) -> Fraction:
        delta = abs(a - b)
        return min(delta, 1 - delta)

    def eval(self, x: GroupElement, y: GroupElement) -> Fraction:
        if isinstance(self.model, CircleModel):
            return self._arc(x.data, y.data)
        return max(self._arc(a, b) for a, b in zip(x.data, y.data))


class DiscreteMetric(InvariantPseudoMetric):
    """0/1 metric; available on every model."""

    rule = "discrete"

    @property
    def bi_invariant(self) -> bool:
        return True

    def eval(self, x: GroupElement, y: GroupElement) -> Fraction:
        return Fraction(0) if x == y else Fraction(1)

    def integer_valued(self) -> bool:
        return True


class ScaledMetric(InvariantPseudoMetric):
    """Rational multiple of a base metric."""

    rule = "scaled"

    def __init__(self, base: InvariantPseudoMetric, factor: Fraction):
        super().__init__(base.model)
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        self.base = base
        self.factor = Fraction(factor)

    def eval(self, x: GroupElement, y: GroupElement) -> Fraction:
        return self.factor * self.base.eval(x, y)

    @property
    def bi_invariant(self) -> bool:
        return self.base.bi_invariant

    def to_json(self) -> dict:
        return {"rule": "scaled", "factor": str(self.factor), "base": self.base.to_json()}


def metric_from_json(obj: dict, model: GroupModel) -> InvariantPseudoMetric:
    rule = obj["rule"]
    if rule == "word":
        return WordMetric(model)
    if rule == "arc":
        return ArcMetric(model)
    if rule == "discrete":
        return DiscreteMetric(model)
    if rule == "scaled":
        return ScaledMetric(metric_from_json(obj["base"], model), parse_fraction(obj["factor"]))
    raise ValueError(f"unknown metric rule {rule!r}")


# ---------------------------------------------------------------------------
# Entourages
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Entourage:
    """Closed metric ball around the identity: U = { g : d(g, e) <= r }."""

    metric: InvariantPseudoMetric
    radius: Fraction

    def __post_init__(self):
        object.__setattr__(self, "radius", parse_fraction(self.radius))
        if self.radius < 0:
            raise ValueError("entourage radius must be >= 0")

    def contains(self, g: GroupElement) -> bool:
        return self.metric.distance_to_identity(g) <= self.radius

    @property
    def model(self) -> GroupModel:
        return self.metric.model

    def with_radius(self, radius: Fraction) -> "Entourage":
        return Entourage(self.metric, radius)

    def to_json(self) -> dict:
        return {"metric": self.metric.to_json(), "radius": str(self.radius)}


def entourage_from_json(obj: dict, model: GroupModel) -> Entourage:
    return Entourage(metric_from_json(obj["metric"], model), parse_fraction(obj["radius"]))


# ---------------------------------------------------------------------------
# Finite windows
# ---------------------------------------------------------------------------


class FiniteWindow:
    """Duplicate-free ordered set of elements in canonical order."""

    def __init__(self, model: GroupModel, elements: Iterable[GroupElement]):
        seen = {}
        for g in elements:
            if g.model != model:
                raise ModelMismatchError("window element from a different model")
            seen[g] = None
        self.model = model
        self.elements: tuple[GroupElement, ...] = tuple(
            sorted(seen, key=model.sort_key)
        )
        self._index = {g: i for i, g in enumerate(self.elements)}

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[GroupElement]:
        return iter(self.elements)

    def __contains__(self, g: GroupElement) -> bool:
        return g in self._index

    def __getitem__(self, i: int) -> GroupElement:
        return self.elements[i]

    def index(self, g: GroupElement) -> int:
        return self._index[g]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FiniteWindow)
            and self.model == other.model
            and self.elements == other.elements
        )

    def __hash__(self) -> int:
        return hash((self.model, self.elements))

    def __repr__(self) -> str:
        inner = ",".join(self.model.format(g) for g in self.elements[:8])
        more = "..." if len(self) > 8 else ""
        return f"Window[{len(self)}]({inner}{more})"

    def union(self, other: "FiniteWindow") -> "FiniteWindow":
        return FiniteWindow(self.model, list(self.elements) + list(other.elements))

    def to_json(self) -> list[str]:
        return [self.model.format(g) for g in self.elements]

    @classmethod
    def from_json(cls, items: list[str], model: GroupModel) -> "FiniteWindow":
        return cls(model, [model.parse(s) for s in items])


def window(model: GroupModel, elements: Iterable) -> FiniteWindow:
    """Build a window, accepting raw payloads or elements."""
    out = []
    for item in elements:
        out.append(item if isinstance(item, GroupElement) else model.element(item))
    return FiniteWindow(model, out)


def translate_window(g: GroupElement, F: FiniteWindow) -> FiniteWindow:
    """Left translate gF, re-canonicalized; cardinality is preserved."""
    return FiniteWindow(F.model, [F.model.mul(g, x) for x in F])


def word_ball(model: GroupModel, radius: int, cap: int = WINDOW_CAP) -> FiniteWindow:
    """Closed ball of the word metric over the model generators, by BFS."""
    gens = model.generators()
    seen = {model.identity(): 0}
    frontier = deque([model.identity()])
    while frontier:
        x = frontier.popleft()
        if seen[x] >= radius:
            continue
        for s in gens:
            y = model.mul(x, s)
            if y not in seen:
                if len(seen) >= cap:
                    raise WindowSizeError(f"word ball exceeds cap {cap}")
                seen[y] = seen[x] + 1
                frontier.append(y)
    return FiniteWindow(model, seen)


def grid_sample(
    model: GroupModel, resolution: int, bound: Optional[int] = None, cap: int = WINDOW_CAP
) -> FiniteWindow:
    """Deterministic finite truncation of a model.

    Circle/torus: all points with coordinate denominators dividing the
    resolution.  Discrete models: the word ball of radius `resolution`
    (optionally clipped at `bound`).
    """
    if resolution < 1:
        raise ValueError("resolution must be >= 1")
    if isinstance(model, CircleModel):
        if resolution > cap:
            raise WindowSizeError(f"grid of size {resolution} exceeds cap {cap}")
        return FiniteWindow(model, (model.element(Fraction(k, resolution)) for k in range(resolution)))
    if isinstance(model, TorusModel):
        if resolution**model.dim > cap:
            raise WindowSizeError("torus grid exceeds cap")
        points = [()]
        for _ in range(model.dim):
            points = [p + (Fraction(k, resolution),) for p in points for k in range(resolution)]
        return FiniteWindow(model, (model.element(p) for p in points))
    radius = resolution if bound is None else min(resolution, bound)
    return word_ball(model, radius, cap=cap)


def symmetric_closure(model: GroupModel, elements: Iterable[GroupElement]) -> FiniteWindow:
    """Close a set under inverses (canonical order)."""
    out = []
    for g in elements:
        out.append(g)
        out.append(model.inv(g))
    return FiniteWindow(model, out)
