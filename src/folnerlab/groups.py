"""Exact group models: elements, generators, invariant pseudo-metrics, entourages,
and finite windows.

All arithmetic is integer/rational and every comparison is exact; nothing here
touches floating point.  Elements carry a canonical encoding per model, so two
elements are equal exactly when their encodings coincide.  A window stores
its elements' payloads sorted by the model's `payload_key` (the payloads' own
numeric/lexicographic order, shortlex for free words) with one payload ->
index dict, so translates and lookups run on payloads; windows load from
and write to payloads as well (each model's `parse_data` and `format_data`).

Payloads are the one form inside the package: windows, tables, words and
weights hold canonical payloads, and `GroupElement` appears only at the
edge that callers outside the package use (`parse`, `format`, `mul`,
`inv`, `element`, `identity`, window iteration and `index`,
`translate_window`, `symmetric_closure`, `window` and `eval`).

Each metric rule is stated once, in `integer_metric`: the metric on ints
over one scale (payloads for word and discrete metrics, arcs over the
common denominator of every coordinate on the circle and torus, a scale
factor folded into the scale and the distances).  Every scan over pairs
reads it, and `eval`, the distance of one pair as a Fraction, is that
kernel's distance over its scale.  Word metrics live on the discrete
models and arc metrics on the circle and torus; their constructors refuse
any other model.
"""

from __future__ import annotations

import functools
import math
import operator
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Any, Callable, Collection, Iterable, Iterator, Optional

WINDOW_CAP = 100_000

_FLOAT_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}  # json's spelling
_LETTERS = "abcdefghijklmnopqrstuvwxyz"
# shortlex rank of each free-group letter: a < a^-1 < b < b^-1 ...
_SHORTLEX_RANK = {sign * i: 2 * (i - 1) + (sign < 0) for i in range(1, len(_LETTERS) + 1) for sign in (1, -1)}


class ModelMismatchError(ValueError):
    """Raised when elements from different group models are combined."""


class WindowSizeError(ValueError):
    """Raised when an enumeration (a word ball or a grid) would exceed its
    window cap; word lengths and distances are never refused."""


class CertificateError(ValueError):
    """Malformed certificate data; `path` locates the field inside the
    certificate object (`A[0].args[1].index`), empty for the whole object."""

    def __init__(self, path: str, reason: str):
        super().__init__(f"{path}: {reason}" if path else reason)
        self.path = path
        self.reason = reason

    def under(self, prefix: str) -> "CertificateError":
        """The same error, located inside the field `prefix`."""
        return CertificateError(f"{prefix}.{self.path}" if self.path else prefix, self.reason)


def parse_fraction(text: str | int | Fraction) -> Fraction:
    """Parse an exact rational from 'p/q' or integer text; floats, JSON
    booleans and zero denominators are a ValueError."""
    if not isinstance(text, str):
        if isinstance(text, Fraction):
            return text
        if isinstance(text, bool):
            raise ValueError(f"not an exact rational: {text!r}")
        if isinstance(text, int):
            return Fraction(text)
    s = str(text).strip()
    if "." in s or "e" in s.lower():
        raise ValueError(f"not an exact rational: {text!r}")
    if "/" in s and _int_text(s.partition("/")[2]) == 0:
        raise ValueError(f"zero denominator in {text!r}")
    return Fraction(s)


def require_fields(obj, required: Collection[str], optional: Collection[str] = ()) -> None:
    """A CertificateError unless `obj` is an object holding every required
    field and no field but the optional ones."""
    if not isinstance(obj, dict):
        raise CertificateError("", "expected an object")
    for key in required:
        if key not in obj:
            raise CertificateError(key, "missing required field")
    unknown = set(obj).difference(required, optional)
    if unknown:
        raise CertificateError(min(unknown), "unknown field (strict schema)")


def certificate_fraction(value, field: str) -> Fraction:
    """`parse_fraction`, with a malformed value a CertificateError naming `field`."""
    try:
        return parse_fraction(value)
    except ValueError as exc:
        raise CertificateError(field, str(exc)) from None


def parse_radius(value, field: str) -> Fraction:
    """`certificate_fraction` of an entourage radius, which must be >= 0."""
    radius = certificate_fraction(value, field)
    if radius < 0:
        raise CertificateError(field, "entourage radius must be >= 0")
    return radius


def parse_index(value, field: str) -> int:
    """A JSON integer; booleans, floats and strings are a CertificateError
    naming `field`."""
    if type(value) is not int:
        raise CertificateError(field, f"expected a JSON integer, got {value!r}")
    return value


def canonical_json(payload) -> str:
    """The one text form of every JSON artifact, `json.dumps(payload,
    sort_keys=True, indent=2) + "\\n"`: sorted keys, two-space indent, ASCII
    with `\\u` escapes.  A key that is not a string, or a value that is not
    JSON, is a TypeError."""
    return _json_text(payload, "\n") + "\n"


def _json_text(value, line: str) -> str:
    """`value` on a line that starts with `line` (a newline and the indent);
    a list of strings, of ints or of non-empty int lists is one join."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None or isinstance(value, bool):
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _FLOAT_WORDS.get(float.__repr__(value), float.__repr__(value))
    inner = line + "  "
    sep = "," + inner
    if isinstance(value, (list, tuple)):
        kinds = set(map(type, value))
        if kinds == {str} or kinds == {int}:
            body = sep.join(map(encode_basestring_ascii if str in kinds else str, value))
        elif kinds == {list} and all(row and set(map(type, row)) == {int} for row in value):
            deeper = inner + "  "
            rows = (("," + deeper).join(map(str, row)) for row in value)
            body = "[" + deeper + (inner + "]" + sep + "[" + deeper).join(rows) + inner + "]"
        else:
            body = sep.join(_json_text(item, inner) for item in value)
        return "[" + inner + body + line + "]" if value else "[]"
    if isinstance(value, dict):  # a key that is not a string fails in the escape
        items = (encode_basestring_ascii(key) + ": " + _json_text(value[key], inner) for key in sorted(value))
        return "{" + inner + sep.join(items) + line + "}" if value else "{}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def parse_bool(value, field: str) -> bool:
    """A JSON boolean; strings and numbers are a CertificateError naming
    `field`."""
    if type(value) is not bool:
        raise CertificateError(field, f"expected a JSON boolean, got {value!r}")
    return value


@dataclass(frozen=True)
class GroupElement:
    """Canonical element of a concrete group model."""

    model: "GroupModel"
    data: Any

    def __repr__(self) -> str:
        return f"<{self.model.kind}:{self.model.format(self)}>"


class GroupModel:
    """Base class for the built-in group models.

    Subclasses state their law on canonical payloads: the identity
    (`identity_data`), the product and inverse, the canonical form, a
    generating set and, for discrete models, the word length.  The base
    class wraps payloads as elements at the edge, orders payloads by
    `payload_key`, reads
    an element string straight to its payload as comma-joined coordinates
    (`parse_data`) and writes it back (`format_data`), primitives that the
    scalar and free-group models restate, and measures discrete models by
    word length and the others by arc length.  Instances come from
    `make_model`, which keeps one per (kind, params), so models compare and
    hash by identity.
    """

    kind: str = ""
    discrete: bool = True
    abelian: bool = False
    # Whether x < y in payload order implies a x < a y and x a < y a: then
    # translates of a sorted table, and rows u -> u x over a sorted ball,
    # come out sorted.
    ordered_law: bool = False
    # Sort key on payloads for canonical order; None is the payloads' own order.
    payload_key = None
    identity_data: Any  # the identity's payload

    # -- group law -----------------------------------------------------
    def identity(self) -> GroupElement:
        return GroupElement(self, self.identity_data)

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
        if g.model is not self:
            raise ModelMismatchError(f"element of {g.model.kind} used in {self.kind}")

    # -- encodings -----------------------------------------------------
    def element(self, data) -> GroupElement:
        return GroupElement(self, self._canonical(data))

    def parse_data(self, text: str):
        """The canonical payload of an element string, or a ValueError."""
        return self._canonical(text.split(","))

    def format_data(self, data) -> str:
        """The element string of a canonical payload."""
        return ",".join(map(str, data))

    def parse(self, text: str) -> GroupElement:
        return GroupElement(self, self.parse_data(text))

    def format(self, g: GroupElement) -> str:
        return self.format_data(g.data)

    # -- generators and metric ------------------------------------------
    def generators(self) -> list:
        """The payloads of a symmetric generating set, in `payload_key` order."""
        return sorted(self._generator_data(), key=self.payload_key)

    def _generator_data(self) -> list:
        raise NotImplementedError

    def default_metric(self) -> "InvariantPseudoMetric":
        return WordMetric(self) if self.discrete else ArcMetric(self)

    def _length_data(self, a) -> int:
        """Word length of a payload over the model generators."""
        raise NotImplementedError(f"{self.kind} has no word metric")

    # -- identity / hashing ---------------------------------------------
    def params(self) -> dict:
        return {}

    def __reduce__(self):  # copies and unpickling return the shared instance
        return model_from_json, ({"kind": self.kind, "params": self.params()},)

    def __repr__(self) -> str:
        ps = ",".join(f"{k}={v}" for k, v in sorted(self.params().items()))
        return f"{self.kind}({ps})"

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "params": self.params(),
            "generators": list(map(self.format_data, self.generators())),
            "metric": self.default_metric().to_json(),
        }


def _dimension(kind: str, dim: int) -> int:
    """`dim` of a lattice or torus model, refused unless it is at least 1 and
    the descriptor's 2 * dim generators of dim coordinates each, 2 * dim^2
    coordinates, stay within WINDOW_CAP."""
    top = math.isqrt(WINDOW_CAP // 2)
    if not 1 <= dim <= top:
        raise ValueError(f"{kind} dimension must be between 1 and {top}")
    return dim


class LatticeModel(GroupModel):
    """Free abelian lattice of a fixed dimension, elements as integer vectors."""

    kind = "lattice"
    abelian = True
    ordered_law = True  # x -> a + x keeps the lexicographic order

    def __init__(self, dim: int):
        self.dim = _dimension("lattice", dim)
        self.identity_data = (0,) * dim

    def params(self) -> dict:
        return {"dim": self.dim}

    def _mul_data(self, a, b):
        return tuple(map(operator.add, a, b))

    def _inv_data(self, a):
        return tuple(map(operator.neg, a))

    def _canonical(self, data):
        vec = tuple(map(int, data))
        if len(vec) != self.dim:
            raise ValueError(f"lattice vector of length {len(vec)}, expected {self.dim}")
        return vec

    def _generator_data(self) -> list:
        return [tuple(s if j == i else 0 for j in range(self.dim)) for i in range(self.dim) for s in (1, -1)]

    def _length_data(self, a) -> int:
        return sum(map(abs, a))


class FreeGroupModel(GroupModel):
    """Free group on k generators; elements are reduced words.

    The payload is a tuple of nonzero ints: +i is the i-th generator
    (1-based), -i its inverse.  Text encoding is comma-separated letters
    with uppercase marking inverses ('a,B'), and 'e' for the identity.
    """

    kind = "free"
    identity_data = ()

    def __init__(self, rank: int):
        if not 1 <= rank <= 26:
            raise ValueError("free rank must be between 1 and 26")
        self.rank = rank
        # text letter -> payload letter: 'a' -> 1, 'A' -> -1, 'b' -> 2, ...
        self.letters = {}
        for i, ch in enumerate(_LETTERS[:rank], start=1):
            self.letters[ch] = i
            self.letters[ch.upper()] = -i
        self._texts = {letter: ch for ch, letter in self.letters.items()}

    def params(self) -> dict:
        return {"rank": self.rank}

    def _mul_data(self, a, b):
        # Both words are reduced, so letters cancel only at the junction.
        if not a or not b or a[-1] != -b[0]:
            return a + b
        k, most = 1, min(len(a), len(b))
        while k < most and a[-1 - k] == -b[k]:
            k += 1
        return a[:-k] + b[k:]

    def _inv_data(self, a):
        return tuple(-x for x in reversed(a))

    def _canonical(self, data):
        # a stack of the reduced prefix: each letter cancels its top or is pushed
        word = []
        for letter in map(int, data):
            if letter == 0 or abs(letter) > self.rank:
                raise ValueError(f"letter {letter} outside rank {self.rank}")
            if word and word[-1] == -letter:
                word.pop()
            else:
                word.append(letter)
        return tuple(word)

    def parse_data(self, text: str):
        text = text.strip()
        if text in ("", "e"):
            return ()
        letters = []
        for part in text.split(","):
            part = part.strip()
            if part not in self.letters:
                raise ValueError(f"bad free-group letter {part!r}")
            letters.append(self.letters[part])
        return self._canonical(letters)

    def format_data(self, word) -> str:
        return ",".join(map(self._texts.__getitem__, word)) if word else "e"

    @staticmethod
    def payload_key(word):
        # Shortlex; for equal lengths a < a^-1 < b < b^-1 ...
        return (len(word), tuple(map(_SHORTLEX_RANK.__getitem__, word)))

    def _generator_data(self) -> list:
        return [(s * i,) for i in range(1, self.rank + 1) for s in (1, -1)]

    def _length_data(self, a) -> int:
        return len(a)


class HeisenbergModel(GroupModel):
    """Discrete Heisenberg group of integer triples (a, b, c).

    Product follows the upper-triangular matrix convention:
    (a,b,c)(a',b',c') = (a+a', b+b', c+c'+a*b').

    Word length over (±1,0,0), (0,±1,0) has a closed form.  A word is a
    lattice path from 0 to (a, b), and c is the integral of a db along it.
    Mirroring the path gives (a,b,c) ~ (-a,b,-c) ~ (a,-b,-c); for a, b >= 0,
    turning it half a turn about (a/2, b/2) gives (a,b,c) ~ (a,b,ab-c), and
    then (a,b,c) ~ (b,a,c).  Folded to a, b, c >= 0 (c := ab - c if c < 0):
      |g| = a + b                       if c <= ab,
      |g| = 2*ceil(c/b) + b - a         if ab < c <= b^2, with a <= b,
      |g| = 2*ceil(2*sqrt(c)) - a - b   if c > max(a, b)^2
    (S. Blachère, "Word distance on the discrete Heisenberg group", Colloq.
    Math. 95 (2003), 21-36; the closed-path case 2*ceil(2*sqrt(n)) is the
    least perimeter of an n-cell polyomino, F. Harary and H. Harborth,
    "Extremal animals", J. Combin. Inform. System Sci. 1 (1976), 1-8).
    """

    kind = "heisenberg"
    # Either product adds a constant to the first two coordinates and, where
    # they agree, to the third, so the lexicographic order is kept.
    ordered_law = True
    identity_data = (0, 0, 0)

    def _mul_data(self, x, y):
        return (x[0] + y[0], x[1] + y[1], x[2] + y[2] + x[0] * y[1])

    def _inv_data(self, x):
        return (-x[0], -x[1], x[0] * x[1] - x[2])

    def _canonical(self, data):
        vec = tuple(map(int, data))
        if len(vec) != 3:
            raise ValueError("heisenberg element needs 3 coordinates")
        return vec

    def _generator_data(self) -> list:
        return [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)]

    def _length_data(self, x) -> int:
        a, b, c = x
        if a < 0:
            a, c = -a, -c
        if b < 0:
            b, c = -b, -c
        if c < 0:
            c = a * b - c
        if c <= a * b:
            return a + b
        if a > b:
            a, b = b, a
        if c <= b * b:
            return 2 * -(-c // b) + b - a
        return 2 * (1 + math.isqrt(4 * c - 1)) - a - b  # ceil(2*sqrt(c)), c >= 1


class CircleModel(GroupModel):
    """Rational circle: addition mod 1 on fractions in [0, 1)."""

    kind = "circle"
    discrete = False
    abelian = True
    identity_data = Fraction(0)

    def _mul_data(self, a, b):
        return (a + b) % 1

    def _inv_data(self, a):
        return (-a) % 1

    def _canonical(self, data):
        return parse_fraction(data) % 1

    # a scalar payload: the whole text is its one coordinate, written with `str`
    parse_data = _canonical
    format_data = staticmethod(str)

    def _generator_data(self) -> list:
        return [Fraction(1, 12), Fraction(11, 12)]


class TorusModel(GroupModel):
    """Product of rational circles, componentwise addition mod 1."""

    kind = "torus"
    discrete = False
    abelian = True

    def __init__(self, dim: int):
        self.dim = _dimension("torus", dim)
        self.identity_data = (Fraction(0),) * dim

    def params(self) -> dict:
        return {"dim": self.dim}

    def _mul_data(self, a, b):
        return tuple((x + y) % 1 for x, y in zip(a, b))

    def _inv_data(self, a):
        return tuple((-x) % 1 for x in a)

    def _canonical(self, data):
        vec = tuple(parse_fraction(x) % 1 for x in data)
        if len(vec) != self.dim:
            raise ValueError(f"torus vector of length {len(vec)}, expected {self.dim}")
        return vec

    def _generator_data(self) -> list:
        return [
            tuple(q if j == i else Fraction(0) for j in range(self.dim))
            for i in range(self.dim)
            for q in (Fraction(1, 12), Fraction(11, 12))
        ]


class CyclicModel(GroupModel):
    """Finite cyclic group of residues modulo n."""

    kind = "cyclic"
    abelian = True
    identity_data = 0

    def __init__(self, modulus: int):
        if modulus < 1:
            raise ValueError("cyclic modulus must be >= 1")
        self.modulus = modulus

    def params(self) -> dict:
        return {"modulus": self.modulus}

    def _mul_data(self, a, b):
        return (a + b) % self.modulus

    def _inv_data(self, a):
        return (-a) % self.modulus

    def _canonical(self, data):
        return int(data) % self.modulus

    parse_data = _canonical
    format_data = staticmethod(str)

    def _generator_data(self) -> list:
        return list({1 % self.modulus, (-1) % self.modulus})  # {0} modulo 1

    def _length_data(self, a) -> int:
        return min(a, self.modulus - a)


_MODELS: dict[tuple, GroupModel] = {}

# Each model kind: its class, and its one integer parameter with the default
# (None for the kinds that take none).
_KINDS: dict[str, tuple[type, Optional[tuple[str, int]]]] = {
    "lattice": (LatticeModel, ("dim", 1)),
    "free": (FreeGroupModel, ("rank", 2)),
    "heisenberg": (HeisenbergModel, None),
    "circle": (CircleModel, None),
    "torus": (TorusModel, ("dim", 2)),
    "cyclic": (CyclicModel, ("modulus", 12)),
}


def make_model(kind: str, **params) -> GroupModel:
    """The one shared instance per (kind, params), keyed on the built model's
    own params so that every spelling of a model gives the same object."""
    if kind not in _KINDS:
        raise ValueError(f"unknown model kind {kind!r}")
    cls, param = _KINDS[kind]
    if param is None:
        model = cls()
    else:
        name, default = param
        model = cls(int(params.get(name, default)))
    return _MODELS.setdefault((model.kind, tuple(sorted(model.params().items()))), model)


def model_from_json(obj: dict) -> GroupModel:
    """The model of a descriptor {"kind", "params", "generators", "metric"}.
    Every malformed field is a CertificateError naming it: a descriptor that
    is not an object, a missing or unknown field, a `kind` that is not a
    known model, `params` that is not an object or holds anything but the
    kind's one integer parameter (`params.<key>`), and `generators` or
    `metric` other than the model's own."""
    require_fields(obj, ("kind",), ("params", "generators", "metric"))
    kind, params = obj["kind"], obj.get("params", {})
    if not isinstance(kind, str) or kind not in _KINDS:
        raise CertificateError("kind", f"unknown model kind {kind!r}")
    if not isinstance(params, dict):
        raise CertificateError("params", "expected an object")
    param = _KINDS[kind][1]
    for key, value in params.items():
        if param is None or key != param[0]:
            raise CertificateError(f"params.{key}", f"not a parameter of a {kind} model")
        if type(value) is not int and not (isinstance(value, str) and _int_text(value) is not None):
            raise CertificateError(f"params.{key}", f"expected an integer, got {value!r}")
    try:
        model = make_model(kind, **params)
    except ValueError as exc:  # a parameter out of its range
        raise CertificateError(f"params.{param[0]}", str(exc)) from None
    for key in ("generators", "metric"):
        if key in obj and obj[key] != _own_descriptor(model)[key]:
            raise CertificateError(key, f"differs from the model's own {_own_descriptor(model)[key]!r}")
    return model


@functools.lru_cache(maxsize=None)
def _own_descriptor(model: GroupModel) -> dict:
    """`model.to_json()` of a shared model, built once; not to be changed."""
    return model.to_json()


def _int_text(text: str) -> Optional[int]:
    """The int that `text` spells, or None."""
    try:
        return int(text)
    except ValueError:
        return None


# ---------------------------------------------------------------------------
# Invariant pseudo-metrics
# ---------------------------------------------------------------------------


class InvariantPseudoMetric:
    """Right-invariant pseudo-metric with exact rational values.

    All built-in rules satisfy d(xg, yg) = d(x, y) exactly; the word metrics
    on abelian models and the arc/discrete metrics are bi-invariant as well.
    Each rule is stated once, in `integer_metric`.
    """

    rule: str = ""
    # The models that carry the rule: the discrete ones (True), the others
    # (False) or all (None).
    on_discrete: Optional[bool] = None

    def __init__(self, model: GroupModel):
        if self.on_discrete is not None and model.discrete is not self.on_discrete:
            raise ValueError(f"{model.kind} has no {self.rule} metric")
        self.model = model

    def eval(self, x: GroupElement, y: GroupElement) -> Fraction:
        """d(x, y): the `integer_metric` distance of the pair over its scale.
        An element of another model is a ModelMismatchError."""
        self.model._check(x)
        self.model._check(y)
        scale, ((a,), (b,)), _, dist = integer_metric(self, [x.data], [y.data])
        return Fraction(dist(a, b), scale)

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
        return hash((canonical_json(self.to_json()), self.model))


class WordMetric(InvariantPseudoMetric):
    """d(x, y) = word length of x * y^-1 over the model generators."""

    rule = "word"
    on_discrete = True

    def integer_valued(self) -> bool:
        return True


class ArcMetric(InvariantPseudoMetric):
    """Wraparound distance on the circle, componentwise max on the torus."""

    rule = "arc"
    on_discrete = False


class DiscreteMetric(InvariantPseudoMetric):
    """0/1 metric; available on every model."""

    rule = "discrete"

    @property
    def bi_invariant(self) -> bool:
        return True

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

    @property
    def bi_invariant(self) -> bool:
        return self.base.bi_invariant

    def to_json(self) -> dict:
        return {"rule": "scaled", "factor": str(self.factor), "base": self.base.to_json()}


def unscaled(metric: InvariantPseudoMetric) -> tuple[InvariantPseudoMetric, Fraction]:
    """The base under every scale factor of `metric`, with the product c of
    those factors: metric = c * base."""
    factor = Fraction(1)
    while metric.rule == "scaled":
        metric, factor = metric.base, factor * metric.factor
    return metric, factor


def metric_from_json(obj: dict, model: GroupModel) -> InvariantPseudoMetric:
    """The metric of a descriptor {"rule", ...} on `model`.  A rule that the
    model does not carry (its constructor refuses the model) or an unknown
    rule is a CertificateError naming `rule` (`base.rule` inside a scaled
    metric); so is any other malformed field, by its own path."""
    scaled = isinstance(obj, dict) and obj.get("rule") == "scaled"
    require_fields(obj, ("rule", "factor", "base") if scaled else ("rule",))
    rule = obj["rule"]
    for cls in (WordMetric, ArcMetric, DiscreteMetric):
        if rule == cls.rule:
            try:
                return cls(model)
            except ValueError as exc:  # a rule the model does not carry
                raise CertificateError("rule", str(exc)) from None
    if scaled:
        try:
            base = metric_from_json(obj["base"], model)
        except CertificateError as exc:
            raise exc.under("base") from None
        factor = certificate_fraction(obj["factor"], "factor")
        try:
            return ScaledMetric(base, factor)
        except ValueError as exc:  # a factor that is not positive
            raise CertificateError("factor", str(exc)) from None
    raise CertificateError("rule", f"unknown metric rule {rule!r}")


def integer_metric(metric: InvariantPseudoMetric, *payload_groups: Iterable) -> tuple[int, list[list], Callable, Callable]:
    """`metric` on ints over one scale: `(scale, codes, mul, dist)` with
    `codes[k]` the codes of the k-th payload group, `mul` the product on
    codes and `dist(a, b) / scale` the distance d(x, y) for the codes a, b
    of x, y.

    Word and discrete codes are the payloads themselves, at scale 1.  Arc
    codes are the coordinates times the common denominator L of every
    coordinate of every group, added mod L, at scale L; a distance is the
    arc min(d, L - d) of the coordinate difference d, the largest one on
    the torus.  A scale factor p/q multiplies the scale by q and each
    distance by p.  This is the one statement of each rule: every scan over
    pairs in the package, and `eval` of one pair, reads its distances here.
    """
    if metric.rule == "scaled":
        scale, codes, mul, dist = integer_metric(metric.base, *payload_groups)
        p, q = metric.factor.numerator, metric.factor.denominator
        return scale * q, codes, mul, (dist if p == 1 else lambda a, b: p * dist(a, b))
    model, groups = metric.model, [list(xs) for xs in payload_groups]
    if metric.rule == "discrete":
        return 1, groups, model._mul_data, lambda a, b: 0 if a == b else 1
    if metric.rule == "word":
        mul, inv, length = model._mul_data, model._inv_data, model._length_data
        return 1, groups, mul, lambda a, b: length(mul(a, inv(b)))
    if not isinstance(model, CircleModel):  # the torus: coordinatewise codes, the largest arc
        scale = math.lcm(*(c.denominator for xs in groups for x in xs for c in x))
        codes = [[tuple(c.numerator * (scale // c.denominator) for c in x) for x in xs] for xs in groups]
        return (
            scale,
            codes,
            lambda a, b: tuple((s + t) % scale for s, t in zip(a, b)),
            lambda a, b: max(min(d, scale - d) for d in map(abs, map(operator.sub, a, b))),
        )
    scale = math.lcm(*(x.denominator for xs in groups for x in xs))

    def arc(a: int, b: int) -> int:
        d = abs(a - b)
        return min(d, scale - d)

    codes = [[x.numerator * (scale // x.denominator) for x in xs] for xs in groups]
    return scale, codes, lambda a, b: (a + b) % scale, arc


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
    """The entourage of a descriptor {"metric", "radius"}; every malformed
    field is a CertificateError naming it (a metric error by its path under
    `metric`)."""
    require_fields(obj, ("metric", "radius"))
    try:
        metric = metric_from_json(obj["metric"], model)
    except CertificateError as exc:
        raise exc.under("metric") from None
    return Entourage(metric, parse_radius(obj["radius"], "radius"))


# ---------------------------------------------------------------------------
# Finite windows
# ---------------------------------------------------------------------------


class FiniteWindow:
    """Duplicate-free set of elements of one model, kept as a table of
    canonical payloads sorted by the model's `payload_key`: `positions` maps
    each payload to its index, and `payloads[i]` and `elements[i]`, built on
    first access, are the i-th payload and its element."""

    def __init__(self, model: GroupModel, elements: Iterable[GroupElement]):
        payloads = []
        for g in elements:
            if g.model is not model:
                raise ModelMismatchError("window element from a different model")
            payloads.append(g.data)
        self._table(model, sorted(dict.fromkeys(payloads), key=model.payload_key))

    @classmethod
    def _from_payloads(cls, model: GroupModel, payloads: Iterable) -> "FiniteWindow":
        """The window of payloads that are already canonical for `model`."""
        return cls._from_sorted(model, sorted(dict.fromkeys(payloads), key=model.payload_key))

    @classmethod
    def _from_sorted(cls, model: GroupModel, ordered: list) -> "FiniteWindow":
        """The window of distinct canonical payloads that are already in
        `payload_key` order."""
        window = cls.__new__(cls)
        window._table(model, ordered)
        return window

    def _table(self, model: GroupModel, ordered: list) -> None:
        self.model = model
        self.positions: dict[Any, int] = {x: i for i, x in enumerate(ordered)}

    @functools.cached_property
    def payloads(self) -> tuple:
        """The payloads in table order; built on first use."""
        return tuple(self.positions)

    @functools.cached_property
    def elements(self) -> tuple[GroupElement, ...]:
        """The payloads wrapped as elements, in table order; built on first use."""
        model = self.model
        return tuple(GroupElement(model, x) for x in self.positions)

    def __len__(self) -> int:
        return len(self.positions)

    def __iter__(self) -> Iterator[GroupElement]:
        return iter(self.elements)

    def __contains__(self, g: GroupElement) -> bool:
        return g.model is self.model and g.data in self.positions

    def __getitem__(self, i: int) -> GroupElement:
        return self.elements[i]

    def index(self, g: GroupElement) -> int:
        if g.model is not self.model:
            raise KeyError(g)
        return self.positions[g.data]

    def __eq__(self, other) -> bool:
        # Both tables are sorted by the same key, so equal payload -> index
        # maps mean equal element sequences.
        return (
            isinstance(other, FiniteWindow)
            and self.model is other.model
            and self.positions == other.positions
        )

    def __hash__(self) -> int:
        return hash((self.model, tuple(self.positions)))

    def __repr__(self) -> str:
        inner = ",".join(self.model.format(g) for g in self.elements[:8])
        more = "..." if len(self) > 8 else ""
        return f"Window[{len(self)}]({inner}{more})"

    def to_json(self) -> list[str]:
        return list(map(self.model.format_data, self.positions))

    @classmethod
    def from_json(cls, items: list[str], model: GroupModel) -> "FiniteWindow":
        return cls._from_payloads(model, map(model.parse_data, items))


def parse_window(items, model: GroupModel, field: str) -> FiniteWindow:
    """A window from its file form, a list of element strings; any other
    shape is a CertificateError naming `field`, and an element that does not
    parse, or that an earlier one already encodes (`+2` after `2`), one
    naming `field[k]`."""
    if not isinstance(items, list) or not all(isinstance(s, str) for s in items):
        raise CertificateError(field, "expected a list of element strings")
    try:
        window = FiniteWindow.from_json(items, model)
    except ValueError:
        window = None
    if window is None or len(window) < len(items):
        seen = {}  # name the first element that does not parse or repeats an earlier one
        for k, text in enumerate(items):
            seen[parse_key(text, model, seen, f"{field}[{k}]")] = k
    return window


def parse_payload(text: str, model: GroupModel, field: str):
    """`model.parse_data(text)`, with text that does not parse a
    CertificateError naming `field`."""
    try:
        return model.parse_data(text)
    except ValueError as exc:
        raise CertificateError(field, str(exc)) from None


def parse_key(text: str, model: GroupModel, table: dict, field: str):
    """The payload of a key of an object keyed by element encodings; a key
    encoding a payload that `table` already holds (`2/4` after `1/2`), whose
    entry it would hide, is a CertificateError naming `field`."""
    x = parse_payload(text, model, field)
    if x in table:
        raise CertificateError(field, "repeats an element")
    return x


def window(model: GroupModel, elements: Iterable) -> FiniteWindow:
    """Build a window, accepting raw payloads or elements."""
    out = []
    for item in elements:
        out.append(item if isinstance(item, GroupElement) else model.element(item))
    return FiniteWindow(model, out)


def translate_window(g: GroupElement, F: FiniteWindow) -> FiniteWindow:
    """Left translate gF, re-canonicalized; cardinality is preserved.

    Where the law keeps the payload order (`ordered_law`) the translates
    are already sorted.  A circle rotation by a is a cyclic shift of the
    sorted points: those from 1 - a on wrap to the front.  Other models
    sort the translates."""
    model = F.model
    model._check(g)
    mul, a = model._mul_data, g.data
    if model.ordered_law:
        return FiniteWindow._from_sorted(model, [mul(a, x) for x in F.positions])
    if isinstance(model, CircleModel):
        points = list(F.positions)
        k, back = bisect_left(points, 1 - a), a - 1
        return FiniteWindow._from_sorted(model, [x + back for x in points[k:]] + [x + a for x in points[:k]])
    return FiniteWindow._from_payloads(model, [mul(a, x) for x in F.positions])


def word_ball(model: GroupModel, radius: int, cap: int = WINDOW_CAP) -> FiniteWindow:
    """Closed ball of the word metric over the model generators.

    Free words are generated sphere by sphere in shortlex order: each word
    of the last sphere, in order, extended by every letter in shortlex rank
    but the one that cancels, so the ball needs no sort.  Other models run
    a breadth-first search on payloads.  Either way `WindowSizeError` is
    raised exactly when the ball would hold more than `cap` points."""
    if isinstance(model, FreeGroupModel):
        return _free_ball(model, radius, cap)
    gens = model.generators()
    mul = model._mul_data
    start = model.identity_data
    seen = {start: 0}
    frontier = deque([start])
    while frontier:
        x = frontier.popleft()
        if seen[x] >= radius:
            continue
        for s in gens:
            y = mul(x, s)
            if y not in seen:
                if len(seen) >= cap:
                    raise WindowSizeError(f"word ball exceeds cap {cap}")
                seen[y] = seen[x] + 1
                frontier.append(y)
    return FiniteWindow._from_payloads(model, seen)


def _free_ball(model: FreeGroupModel, radius: int, cap: int) -> FiniteWindow:
    letters = sorted(model.letters.values(), key=_SHORTLEX_RANK.__getitem__)
    # the one-letter words that may follow a word, keyed by its last letter
    # (none for the identity): every letter but the one that cancels
    follow = {(): [(t,) for t in letters]}
    follow.update({(s,): [(t,) for t in letters if t != -s] for s in letters})
    ball, sphere = [()], [()]
    for _ in range(radius):
        # every word of a sphere has as many successors as its first word
        if len(ball) + len(sphere) * len(follow[sphere[0][-1:]]) > cap:
            raise WindowSizeError(f"word ball exceeds cap {cap}")
        sphere = [w + t for w in sphere for t in follow[w[-1:]]]
        ball += sphere
    return FiniteWindow._from_sorted(model, ball)


def grid_sample(model: GroupModel, resolution: int) -> FiniteWindow:
    """Deterministic finite truncation of a model.

    Circle/torus: all points with coordinate denominators dividing the
    resolution.  Discrete models: the word ball of radius `resolution`.
    """
    if resolution < 1:
        raise ValueError("resolution must be >= 1")
    if isinstance(model, CircleModel):
        if resolution > WINDOW_CAP:
            raise WindowSizeError(f"grid of size {resolution} exceeds cap {WINDOW_CAP}")
        return FiniteWindow._from_sorted(model, [Fraction(k, resolution) for k in range(resolution)])
    if isinstance(model, TorusModel):
        if resolution**model.dim > WINDOW_CAP:
            raise WindowSizeError("torus grid exceeds cap")
        points = [()]
        for _ in range(model.dim):
            points = [p + (Fraction(k, resolution),) for p in points for k in range(resolution)]
        return FiniteWindow._from_sorted(model, points)
    return word_ball(model, resolution)


def symmetric_closure(model: GroupModel, elements: Iterable[GroupElement]) -> FiniteWindow:
    """Close a set under inverses (canonical order)."""
    out = []
    for g in elements:
        out.append(g)
        out.append(model.inv(g))
    return FiniteWindow(model, out)
