"""Paradoxical-decomposition certificates and exact window verification.

A certificate is pure data: translator words plus piece classifiers, where a
classifier is a small expression tree over encoding predicates (first
letter, signed-power test, coordinate sign, residue, membership table) that
can be re-evaluated without code.  Classifier trees are checked when a
certificate is built or parsed.  `ParadoxCertificate.from_json` is the one
loader of a certificate file: a malformed or unknown field is a
`CertificateError` naming its path (`g[0][1]`, `A[0].args[1].index`).
A translator word is a tuple of payloads.  Verification restricts the
covering equations to a finite window and counts, per equation, how many
window points are covered exactly once.  It works on window indices: each
translator word is folded once into the payload of its inverse and becomes
one column of preimage indices, and each piece's classifier is evaluated
once over the whole window into a column of verdicts, node by node, with
`and`, `or` and `not` combining whole columns.  Each equation gathers its
terms' verdicts through their preimage columns and sums them on packed
lanes, one big int with a lane of bytes per point wide enough for the
equation's term count.  One recursive pass, `_compile`, checks a tree and
builds its evaluator, so the grammar is stated once.  Every op that
depends on the model (`first_letter` and `power` on free groups, `residue`
on integer coordinates) is decided there, at load, and a tree deeper than
`CLASSIFIER_DEPTH_CAP` is refused at the first node past it, so
verification cannot fail on a loaded tree.  A point whose preimages leave
the window is a boundary defect, never a violation: finite windows cannot
witness an infinite covering, and the report keeps that distinction
explicit.

`search_small_paradox` looks for piece assignments on a window minimizing
the interior violations of the combined covering equation at each piece
count.  Its reports are one-sided: a positive minimum refutes zero-defect
assignments at that scale, a zero minimum claims nothing about the group.
Translator combinations are generated one at a time, each charged one
budget node, and read through their counting floor first: a combination
whose floor reaches the best defect found so far is skipped unbuilt.
Search rows are preimage rows, injective over their checkable targets, and
a family refuses any other, so a floor is a popcount of two source masks
and each point, under one label, lands on at most one target.  Any other
combination is solved exactly by one bipartite matching from points to
targets, the finite form of the Hall's-theorem argument behind the
topological Whyte theorem: a labeling covers a target by landing a point
on it, and the least cost is read off a maximum matching that first
matches the points every label lands (`_Matching`).  Each piece count
builds one table certificate, for its final best, from the
lexicographically least labeling at its minimum (`_least_labels`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import combinations_with_replacement, compress, islice, repeat
from operator import add, and_, eq, gt, itemgetter, lt, not_, or_
from typing import Callable, Iterator, Optional, Sequence

from .groups import (
    CertificateError,
    FiniteWindow,
    FreeGroupModel,
    GroupElement,
    GroupModel,
    ModelMismatchError,
    parse_payload,
    require_fields,
)
from .matching import _hopcroft_karp
from .perturb import PerturbedAction

_VIOLATION_SAMPLES = 10
_NONZERO = bytes([0] + [1] * 255)  # a translate table: byte 0 to 0, any other to 1
MIN_PIECES = 4
# Default budget of a `search_small_paradox` run: one node per translator
# combination.
PARADOX_BUDGET = 2_000_000


# ---------------------------------------------------------------------------
# Classifier expressions
# ---------------------------------------------------------------------------

# The deepest classifier tree a certificate may hold; its root is at depth 1.
CLASSIFIER_DEPTH_CAP = 100


class _Columns:
    """A window read as verdict columns.

    A column holds one verdict per window point, in `positions` order, as
    0/1 bytes packed into a Python int (byte i for point i), so `and`, `or`
    and `not` combine whole columns with `&`, `|` and `^`.  The free-group
    ops read views built once per window, on first use: `heads`, each
    point's first letter code (0 for the identity), and `lengths`, the word
    lengths present, at which `power` looks up the letter's powers.
    """

    def __init__(self, window: FiniteWindow):
        self.window = window
        self.payloads = list(window.positions)
        self.size = len(self.payloads)
        self.ones = int.from_bytes(b"\x01" * self.size, "little")

    @staticmethod
    def pack(verdicts) -> int:
        """A column from one truth value per window point."""
        return int.from_bytes(bytes(verdicts), "little")

    @cached_property
    def heads(self) -> list[int]:
        return [p[0] if p else 0 for p in self.payloads]

    @cached_property
    def lengths(self) -> set[int]:
        return set(map(len, self.payloads))

    def identity(self) -> int:
        at = self.window.positions.get(self.window.model.identity_data)
        return 0 if at is None else 1 << 8 * at

    def members(self, elements: list[str]) -> int:
        return self._hits(map(self._names.get, elements))

    def powers(self, code: int) -> int:
        """The points (code,)*k: the non-negative powers of the signed letter."""
        return self._hits(self.window.positions.get((code,) * k) for k in self.lengths)

    @cached_property
    def _names(self) -> dict[str, int]:
        return {text: i for i, text in enumerate(self.window.to_json())}

    def _hits(self, indices) -> int:
        """The column true at the given point indices; None entries are skipped."""
        hits = bytearray(self.size)
        for at in indices:
            if at is not None:
                hits[at] = 1
        return int.from_bytes(hits, "little")


def _required(clf: dict, key: str, path: str):
    if key not in clf:
        raise CertificateError(f"{path}.{key}", "missing required field")
    return clf[key]


def _compile(clf, model: GroupModel, path: str, depth: int = 1) -> Callable[[_Columns], int]:
    """Check a classifier tree against `model` and return its column
    evaluator, a function of a window's `_Columns`.

    A tree that cannot be evaluated on every point of `model` is refused
    here, as a `CertificateError` naming the field at fault: unknown ops,
    missing fields, a node deeper than `CLASSIFIER_DEPTH_CAP`, letters
    outside the free rank, `first_letter` and `power` off the free group,
    coordinate indices other than JSON integers 0 <= i < coordinates,
    `residue` on a model whose coordinates are not integers (circle, torus),
    a `mod` other than a positive JSON integer, and `elements` other than a
    list of strings.  The evaluator itself cannot fail."""
    if depth > CLASSIFIER_DEPTH_CAP:
        raise CertificateError(path, f"classifier nested deeper than {CLASSIFIER_DEPTH_CAP} levels")
    if not isinstance(clf, dict):
        raise CertificateError(path, "expected a classifier object")
    op = _required(clf, "op", path)
    if op == "true":
        return lambda cols: cols.ones
    if op == "identity":
        return _Columns.identity
    if op in ("and", "or"):
        args = _required(clf, "args", path)
        if not isinstance(args, list):
            raise CertificateError(f"{path}.args", "expected a list of classifiers")
        parts = [_compile(arg, model, f"{path}.args[{i}]", depth + 1) for i, arg in enumerate(args)]
        if op == "and":
            return lambda cols: reduce(and_, [part(cols) for part in parts], cols.ones)
        return lambda cols: reduce(or_, [part(cols) for part in parts], 0)
    if op == "not":
        inner = _compile(_required(clf, "arg", path), model, f"{path}.arg", depth + 1)
        return lambda cols: inner(cols) ^ cols.ones
    if op == "in":
        elements = _required(clf, "elements", path)
        if not isinstance(elements, list) or not all(isinstance(e, str) for e in elements):
            raise CertificateError(f"{path}.elements", "expected a list of element strings")
        return lambda cols: cols.members(elements)
    if op in ("first_letter", "power"):
        if not isinstance(model, FreeGroupModel):
            raise CertificateError(f"{path}.op", f"{op} needs a free-group model")
        letter = _required(clf, "letter", path)
        if not isinstance(letter, str) or letter not in model.letters:
            raise CertificateError(f"{path}.letter", f"{letter!r} is not a letter of {model!r}")
        code = model.letters[letter]
        if op == "first_letter":
            return lambda cols: cols.pack(map(code.__eq__, cols.heads))
        return lambda cols: cols.powers(code)
    if op not in ("coord_sign", "residue"):
        raise CertificateError(f"{path}.op", f"unknown classifier op {op!r}")
    # a tuple payload has one coordinate per entry (a free word has none); a
    # scalar payload is its own only coordinate
    scalar = not isinstance(model.identity_data, tuple)
    count = 1 if scalar else len(model.identity_data)
    index = _required(clf, "index", path)
    if type(index) is not int or not 0 <= index < count:
        raise CertificateError(f"{path}.index", f"expected a JSON integer 0 <= i < {count}, got {index!r}")

    def coordinate(cols: _Columns):
        return cols.payloads if scalar else map(itemgetter(index), cols.payloads)

    if op == "coord_sign":
        sign = _required(clf, "sign", path)
        if sign not in ("+", "-", "0"):
            raise CertificateError(f"{path}.sign", f"expected '+', '-' or '0', got {sign!r}")
        compare = {"+": gt, "-": lt, "0": eq}[sign]
        return lambda cols: cols.pack(map(compare, coordinate(cols), repeat(0)))
    if not model.discrete:
        raise CertificateError(f"{path}.op", "residue needs integer coordinates")
    mod = _required(clf, "mod", path)
    if type(mod) is not int or mod < 1:
        raise CertificateError(f"{path}.mod", f"expected a positive JSON integer, got {mod!r}")
    value = _required(clf, "value", path)
    if type(value) is not int:
        raise CertificateError(f"{path}.value", f"expected a JSON integer, got {value!r}")
    return lambda cols: cols.pack([v % mod == value for v in coordinate(cols)])


def evaluate_classifier(clf: dict, g: GroupElement) -> bool:
    """Evaluate an expression-tree classifier on a canonical element: the
    window kernel on the one-point window of `g`.  A tree that fails the
    certificate check raises `CertificateError` at `classifier`."""
    evaluator = _compile(clf, g.model, "classifier")
    return bool(evaluator(_Columns(FiniteWindow._from_payloads(g.model, [g.data]))))


Word = tuple  # of translator payloads


def _parse_word(obj, model: GroupModel, path: str) -> Word:
    """A translator word: one element string or a list of them."""
    if isinstance(obj, str):
        items = [(path, obj)]
    elif isinstance(obj, list):
        items = [(f"{path}[{i}]", text) for i, text in enumerate(obj)]
    else:
        raise CertificateError(path, "expected an element string or a list of them")
    word = []
    for field_path, text in items:
        if not isinstance(text, str):
            raise CertificateError(field_path, f"expected an element string, got {text!r}")
        word.append(parse_payload(text, model, field_path))
    return tuple(word)


def _format_word(word: Word, model: GroupModel) -> list[str]:
    return list(map(model.format_data, word))


@dataclass
class ParadoxCertificate:
    """Piece classifiers with translator words, in one of two shapes.

    `two_equation`: the A-pieces and B-pieces jointly partition the space,
    and each family's translates partition it again (the classical
    free-group shape).  `tarski`: each family partitions the space on its
    own and the combined translates partition it once more.

    Construction checks the form, the counts and every classifier tree
    against the model, raising `CertificateError` with the field's path.
    """

    model: GroupModel
    form: str
    a_words: list[Word]
    a_pieces: list[dict]
    b_words: list[Word]
    b_pieces: list[dict]

    def __post_init__(self):
        if self.form not in ("two_equation", "tarski"):
            raise CertificateError("form", f"unknown certificate form {self.form!r}")
        for key, words, pieces in (("A", self.a_words, self.a_pieces), ("B", self.b_words, self.b_pieces)):
            if len(words) != len(pieces):
                raise CertificateError(key, f"{len(pieces)} pieces for {len(words)} translator words")
            for i, clf in enumerate(pieces):
                _compile(clf, self.model, f"{key}[{i}]")

    def equations(self) -> list[tuple[str, list[tuple[Word, int]]]]:
        """Each covering equation as (name, terms); a term is a translator
        word and a piece, indexed in `a_pieces + b_pieces`."""
        m = len(self.a_pieces)
        a_terms = [(w, i) for i, w in enumerate(self.a_words)]
        b_terms = [(w, m + i) for i, w in enumerate(self.b_words)]
        id_a = [((), piece) for _, piece in a_terms]
        id_b = [((), piece) for _, piece in b_terms]
        if self.form == "two_equation":
            return [
                ("pieces-partition", id_a + id_b),
                ("a-cover", a_terms),
                ("b-cover", b_terms),
            ]
        return [
            ("a-partition", id_a),
            ("b-partition", id_b),
            ("combined-cover", a_terms + b_terms),
        ]

    def to_json(self) -> dict:
        return {
            "form": self.form,
            "g": [_format_word(w, self.model) for w in self.a_words],
            "h": [_format_word(w, self.model) for w in self.b_words],
            "A": self.a_pieces,
            "B": self.b_pieces,
        }

    @classmethod
    def from_json(cls, obj: dict, model: GroupModel) -> "ParadoxCertificate":
        require_fields(obj, ("g", "h", "A", "B"), ("form",))
        for key in ("g", "h", "A", "B"):
            if not isinstance(obj[key], list):
                raise CertificateError(key, "expected a list")
        return cls(
            model=model,
            form=obj.get("form", "tarski"),
            a_words=[_parse_word(w, model, f"g[{i}]") for i, w in enumerate(obj["g"])],
            a_pieces=list(obj["A"]),
            b_words=[_parse_word(w, model, f"h[{i}]") for i, w in enumerate(obj["h"])],
            b_pieces=list(obj["B"]),
        )


def f2_standard_certificate(model: FreeGroupModel) -> ParadoxCertificate:
    """First-letter decomposition of the rank-2 free group.

    Pieces: words starting with the first generator together with all its
    inverse powers; the remaining words starting with that inverse; and the
    two half-spaces of the second generator.  Each family's translates tile
    the whole group.
    """
    if not isinstance(model, FreeGroupModel) or model.rank != 2:
        raise ValueError("the standard certificate lives on the rank-2 free group")
    a1 = {"op": "or", "args": [{"op": "first_letter", "letter": "a"}, {"op": "power", "letter": "A"}]}
    a2 = {"op": "and", "args": [{"op": "first_letter", "letter": "A"}, {"op": "not", "arg": {"op": "power", "letter": "A"}}]}
    b1 = {"op": "first_letter", "letter": "b"}
    b2 = {"op": "first_letter", "letter": "B"}
    return ParadoxCertificate(
        model=model,
        form="two_equation",
        a_words=[(), (model.parse_data("a"),)],
        a_pieces=[a1, a2],
        b_words=[(), (model.parse_data("b"),)],
        b_pieces=[b1, b2],
    )


# ---------------------------------------------------------------------------
# Window verification
# ---------------------------------------------------------------------------


@dataclass
class EquationReport:
    name: str
    window_size: int
    checkable: int
    exactly_once: int
    interior_violations: int
    boundary_defects: int
    samples: list[tuple[str, int]] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "equation": self.name,
            "window_size": self.window_size,
            "checkable": self.checkable,
            "exactly_once": self.exactly_once,
            "interior_violations": self.interior_violations,
            "boundary_defects": self.boundary_defects,
            "samples": [{"element": s, "count": c} for s, c in self.samples],
        }


@dataclass
class WindowReport:
    equations: list[EquationReport]

    @property
    def interior_violations(self) -> int:
        return sum(e.interior_violations for e in self.equations)

    @property
    def boundary_defects(self) -> int:
        return sum(e.boundary_defects for e in self.equations)

    def to_json(self) -> dict:
        return {"equations": [e.to_json() for e in self.equations]}


def _preimages(window: FiniteWindow, word: Word) -> list[int]:
    """The window index of word^-1 x for each window point x, by group
    arithmetic on payloads; -1 where it leaves the window.  The word is
    folded once into the payload w of g_1^-1 ... g_k^-1 (free words by the
    stack reduction of the inverse letters), then each point takes one
    product w x.  A one-letter free w takes no product: w x is x[1:] when
    the reduced word x starts with w^-1, and w + x otherwise."""
    if not word:
        return list(range(len(window)))
    model, index = window.model, window.positions
    get = index.get
    if isinstance(model, FreeGroupModel):
        w = model._canonical([-letter for g in word for letter in reversed(g)])
        if len(w) == 1:
            inverse = -w[0]
            return [get(y[1:] if y and y[0] == inverse else w + y, -1) for y in index]
    else:
        inv, mul = model._inv_data, model._mul_data
        w = inv(word[0])
        for g in word[1:]:
            w = mul(w, inv(g))
    mul = model._mul_data
    return [get(mul(w, y), -1) for y in index]


def _action_preimages(action: PerturbedAction, window: FiniteWindow, word: Word) -> list[int]:
    """The window index of word^-1 x for each window point x, pulled back
    through the table's rows; -1 where a row is undefined or the preimage
    leaves the window."""
    if not word:
        return list(range(len(window)))
    table = action.window.positions
    column = [table.get(x, -1) for x in window.positions]
    for g in reversed(word):
        inverse = action.inverse_rows.get(g)
        if inverse is None:
            return [-1] * len(window)
        column = [-1 if j < 0 or inverse[j] is None else inverse[j] for j in column]
    back = [window.positions.get(y, -1) for y in table]
    return [-1 if j < 0 else back[j] for j in column]


def verify_on_window(
    cert: ParadoxCertificate,
    window: FiniteWindow,
    action: Optional[PerturbedAction] = None,
) -> WindowReport:
    """Count exact coverage of each certificate equation on a window.

    A window point is checkable for an equation when every translator
    preimage of it stays inside the window (for table actions: is defined
    and stays inside); checkable points covered other than exactly once are
    interior violations.  Each piece's classifier is checked again, at
    `A[i]` or `B[j]`, and evaluated once over the whole window into a
    verdict column (see `_Columns`).  Each word becomes one preimage column
    and one boundary mask of the points whose preimage leaves the window.
    An equation gathers each term's verdicts through its word's column and
    sums the terms as one Python int, each point in a lane of bytes wide
    enough for the equation's term count, so no lane overflows; the
    checkable points, the violations and the samples are read off the sum.
    """
    if window.model is not cert.model:
        raise ModelMismatchError(f"window of {window.model.kind} used in {cert.model.kind}")
    n = len(window)
    kernel = _Columns(window)
    pieces = [(f"A[{i}]", clf) for i, clf in enumerate(cert.a_pieces)]
    pieces += [(f"B[{j}]", clf) for j, clf in enumerate(cert.b_pieces)]
    verdicts = [_compile(clf, cert.model, path)(kernel).to_bytes(n, "little") for path, clf in pieces]
    # per word: its preimage column (None for the identity) and boundary mask
    columns: dict[Word, tuple[Optional[list[int]], int]] = {}
    reports = []
    for name, terms in cert.equations():
        width = max(1, -(-len(terms).bit_length() // 8))
        total = boundary = 0
        for word, piece in terms:
            if word not in columns:
                column = None if not word else (
                    _preimages(window, word) if action is None else _action_preimages(action, window, word))
                edge = 0 if column is None or -1 not in column else _Columns.pack(map((-1).__eq__, column))
                columns[word] = column, edge
            column, edge = columns[word]
            boundary |= edge
            # boundary points read the last verdict through -1; they are masked below
            hits = verdicts[piece] if column is None else bytes(map(verdicts[piece].__getitem__, column))
            if width > 1:
                hits, lanes = bytearray(n * width), hits
                hits[::width] = lanes
            total += int.from_bytes(hits, "little")
        # a lane is zero after the xor exactly when its point is covered once
        off = (total ^ int.from_bytes((b"\x01" + bytes(width - 1)) * n, "little")).to_bytes(n * width, "little")
        off = off.translate(_NONZERO)
        bad = reduce(or_, [int.from_bytes(off[k::width], "little") for k in range(width)]) & ~boundary
        checkable, violations = n - boundary.bit_count(), bad.bit_count()
        counts = total.to_bytes(n * width, "little")
        samples = [(cert.model.format_data(window.payloads[x]),
                    int.from_bytes(counts[x * width:(x + 1) * width], "little"))
                   for x in islice(compress(range(n), bad.to_bytes(n, "little")), _VIOLATION_SAMPLES)]
        reports.append(EquationReport(name, n, checkable, checkable - violations, violations, n - checkable, samples))
    return WindowReport(equations=reports)


# ---------------------------------------------------------------------------
# Defect-minimizing search
# ---------------------------------------------------------------------------


@dataclass
class PieceCountReport:
    pieces: int
    best_defect: Optional[int]
    checkable: int
    certificate: Optional[ParadoxCertificate]
    exhausted: bool

    def to_json(self) -> dict:
        return {
            "pieces": self.pieces,
            "best_defect": self.best_defect,
            "checkable": self.checkable,
            "exhausted": self.exhausted,
            "certificate": self.certificate.to_json() if self.certificate else None,
        }


@dataclass
class ParadoxSearchReport:
    reports: list[PieceCountReport]
    nodes_used: int
    budget: int

    @property
    def exhausted(self) -> bool:
        return all(r.exhausted for r in self.reports)

    def best(self) -> Optional[PieceCountReport]:
        usable = [r for r in self.reports if r.best_defect is not None]
        if not usable:
            return None
        return min(usable, key=lambda r: (r.best_defect, r.pieces))

    def to_json(self) -> dict:
        return {
            "budget": self.budget,
            "nodes_used": self.nodes_used,
            "per_piece_count": [r.to_json() for r in self.reports],
        }


class _Budget:
    def __init__(self, limit: int):
        self.limit = limit
        self.used = 0

    def spend(self) -> bool:
        """Charge one node: True while the limit allows it, else False,
        with `used` one past the limit."""
        if self.used < self.limit:
            self.used += 1
            return True
        self.used = self.limit + 1
        return False


class _BudgetExhausted(Exception):
    pass


class _Family:
    """The scoring set-up of one translator family (the A-words or the
    B-words of a combo), which depends only on the family's preimage rows
    and its label offset: a search builds it once per (words, offset) and
    shares it across combos.

    A window index t is a checkable target of the family when its preimage
    under every word stays in the window; a point s labeled piece i of the
    family lands on the target t with rows[i][t] == s, if there is one.
    Construction reads only what the counting floor needs (see `_floor`):
    `checkable`, and `sources`, the bit mask of the points that land on
    some target.  Every row must be injective over the checkable targets,
    as preimage rows are, since x -> w^-1 x is, so a point lands on at most
    one target per label; a row that repeats a checkable source is refused
    with `ValueError`.

    The matching's views are built on first use, since only a family
    whose combo reaches a matching needs them: `landing`, per point and
    label of the family, the id of the target it lands on, or -1; `hits`,
    per point, the ids it lands on; and `full`, whether every label of the
    family lands it.  A target id is t in an A-family (offset 0) and n + t
    in a B-family, so the two families of a combo never share one."""

    def __init__(self, n: int, rows: list[list[int]], offset: int):
        self.n = n
        self.rows = rows
        self.offset = offset
        self.size = len(rows)
        self.targets = [t for t, sources in enumerate(zip(*rows)) if min(sources) >= 0]
        self.checkable = len(self.targets)
        self.sources = 0
        bit = (1).__lshift__
        for row in rows:
            # a sum of distinct powers of two has one bit per term, and a
            # repeated source carries, so the count checks injectivity
            image = sum(map(bit, map(row.__getitem__, self.targets)))
            if image.bit_count() != self.checkable:
                raise ValueError("a translator row repeats a checkable source")
            self.sources |= image

    @cached_property
    def landing(self) -> list[list[int]]:
        base = self.n if self.offset else 0
        landing = [[-1] * self.size for _ in range(self.n)]
        for i, row in enumerate(self.rows):
            for t in self.targets:
                landing[row[t]][i] = base + t
        return landing

    @cached_property
    def hits(self) -> list[list[int]]:
        return [[t for t in landed if t >= 0] for landed in self.landing]

    @cached_property
    def full(self) -> list[bool]:
        return [-1 not in landed for landed in self.landing]


def _floor(a: _Family, b: _Family) -> int:
    """The counting floor of the combo of families `a` and `b`: a lower
    bound on the cost of each of its labelings.  A target costs at least
    1 - (its matches), and a source, under its one label, matches at most
    one target (the rows are injective), and none unless it is in the
    source mask of `a` or of `b`.  So every labeling costs at least the
    checkable targets less the popcount of the two masks' union."""
    return max(0, a.checkable + b.checkable - (a.sources | b.sources).bit_count())


class _Matching:
    """The least cost of a labeling of the combo of families `a` (labels
    from 0) and `b` (labels from a.size) whose first labels are `fixed`,
    read off one matching, and a labeling at that cost (`labels`).

    A target landed on c times costs |c - 1|.  A target that the fixed
    points land on h >= 1 times costs h - 1, plus one per free point that
    lands there too; the other T targets sum to T + L - 2C over the L free
    points that land on one of them and the C of them covered.  So, with a
    point *forced* when every label lands it somewhere, the least cost is
    the fixed part plus T + |forced| - max(|M| + |M & forced|) over the
    matchings M of free points to those T targets, one edge per label that
    lands a point on one.  Hopcroft-Karp with the forced points as its
    priority prefix attains that maximum."""

    def __init__(self, a: _Family, b: _Family, fixed: Sequence[int] = ()):
        self.a, self.b, self.fixed = a, b, fixed
        n, m, k = a.n, a.size, len(fixed)
        hit: dict[int, int] = {}
        for s, label in enumerate(fixed):
            t = a.landing[s][label] if label < m else b.landing[s][label - m]
            if t >= 0:
                hit[t] = hit.get(t, 0) + 1
        full = list(map(and_, a.full[k:], b.full[k:]))
        forced = sum(full)
        self.order = list(compress(range(k, n), full)) + list(compress(range(k, n), map(not_, full)))
        a_hits, b_hits = a.hits, b.hits
        if hit:
            rows = [[t for t in a_hits[s] + b_hits[s] if t not in hit] for s in self.order]
        else:
            rows = list(map(add, map(a_hits.__getitem__, self.order), map(b_hits.__getitem__, self.order)))
        self.match = _hopcroft_karp(rows, 2 * n, forced)[0]
        weight = n - k - self.match.count(-1) + forced - self.match[:forced].count(-1)
        self.cost = a.checkable + b.checkable + sum(hit.values()) - 2 * len(hit) + forced - weight

    def labels(self) -> list[int]:
        """The fixed labels, then per free point the least label that
        lands it on its matched target, or else the least label that lands
        it nowhere, or 0 if it is forced."""
        labels = list(self.fixed) + [0] * (self.a.n - len(self.fixed))
        for s, t in zip(self.order, self.match):
            landed = self.a.landing[s] + self.b.landing[s]
            if t in landed:
                labels[s] = landed.index(t)
        return labels


def _least_labels(a: _Family, b: _Family, cost: int) -> list[int]:
    """The lexicographically least labeling of the combo at its least
    `cost`.  Point by point, each label below the current labeling's is
    tried with the labels before it fixed (`_Matching`), and the first that
    keeps the cost is kept, with the labeling that solves it.

    A label that lands point k nowhere, or on a target the fixed labels
    already land on, takes k out of the matching of the free points.  It
    keeps the cost exactly when some best matching leaves k out, so one
    solve decides every such label at k; and never if k is not forced and
    lands on such a target, since that adds a landing that covers nothing."""
    labels = _Matching(a, b).labels()
    hit = {-1}  # the targets the fixed labels land on, and "nowhere"
    for k in range(a.n):
        forced = a.full[k] and b.full[k]
        landed = a.landing[k] + b.landing[k]
        droppable = None
        for label in range(labels[k]):
            t = landed[label]
            if t in hit and (droppable is False or (t >= 0 and not forced)):
                continue
            trial = _Matching(a, b, labels[:k] + [label])
            if t in hit:
                droppable = trial.cost == cost
            if trial.cost == cost:
                labels = trial.labels()
                break
        hit.add(landed[labels[k]])
    return labels


def _combos(pool: FiniteWindow, pieces: int) -> Iterator[tuple[tuple, tuple]]:
    """The (A, B) family pairs of a piece count, in search order and one
    at a time, each family a (pool multiset in pool order, label offset)
    pair.  Families are interchangeable, so A takes m <= pieces - m words,
    and where m = pieces - m, B starts at A's own multiset.  Combos whose
    families both hold the identity come first, then those with one, then
    the rest: tilings almost always keep a piece in place, and hitting one
    early settles the piece count at zero."""
    words = pool.positions
    identity = pool.model.identity_data
    for missing in (0, 1, 2) if identity in words else (2,):
        for m in range(1, pieces // 2 + 1):
            nb = pieces - m
            for ai, a in enumerate(combinations_with_replacement(words, m)):
                left = missing - (identity not in a)
                if 0 <= left <= 1:
                    for b in islice(combinations_with_replacement(words, nb), ai if m == nb else 0, None):
                        if (identity not in b) == left:
                            yield (a, 0), (b, m)


def search_small_paradox(
    window: FiniteWindow,
    pool: FiniteWindow,
    max_pieces: int,
    budget: int = PARADOX_BUDGET,
) -> ParadoxSearchReport:
    """Best (lowest interior defect) piece assignment per piece count.

    Piece counts run from four, the least any group paradox can use.  All
    translator multisets from the pool are tried, each charged one budget
    node; one whose counting floor reaches the best defect found so far at
    its piece count is skipped, since it cannot beat it, and any other is
    solved exactly by one matching (`_Matching`).  So with the budget intact
    each reported defect is the true minimum at that piece count.  A
    refused charge ends the search: the piece count it ends keeps its best
    so far, and later piece counts are reported unsearched.  Each piece
    count's table certificate is built once, after the search, from the
    lexicographically least labeling of its final best (`_least_labels`).
    """
    n = len(window)
    rows = {g: _preimages(window, (g,)) for g in pool.positions}
    families: dict[tuple, _Family] = {}

    def family(words: tuple, offset: int) -> _Family:
        """The family set-up of `words` at label `offset`, built the first
        time a combo reaches it and shared for the rest of the search."""
        key = (words, offset)
        if key not in families:
            families[key] = _Family(n, [rows[g] for g in words], offset)
        return families[key]

    tracker = _Budget(budget)
    # each report holds its piece count's incumbent; one the budget never
    # reaches stays unsearched: no defect, not exhausted
    reports = [PieceCountReport(pieces, None, 0, None, False) for pieces in range(MIN_PIECES, max_pieces + 1)]
    # per report, its incumbent's (A-words, B-words, A-family, B-family)
    winners: list[Optional[tuple]] = [None] * len(reports)
    try:
        for i, report in enumerate(reports):
            for a, b in _combos(pool, report.pieces):
                if not tracker.spend():
                    raise _BudgetExhausted
                fa, fb = family(*a), family(*b)
                if report.best_defect is not None and _floor(fa, fb) >= report.best_defect:
                    continue
                defect = _Matching(fa, fb).cost
                if report.best_defect is None or defect < report.best_defect:
                    report.best_defect, report.checkable = defect, fa.checkable + fb.checkable
                    winners[i] = a[0], b[0], fa, fb
                    if defect == 0:
                        break  # zero is the floor; this piece count is settled
            report.exhausted = True
    except _BudgetExhausted:
        pass
    for report, winner in zip(reports, winners):
        if winner is not None:
            a_words, b_words, fa, fb = winner
            labels = _least_labels(fa, fb, report.best_defect)
            report.certificate = _table_certificate(window, a_words, b_words, labels)
    return ParadoxSearchReport(reports=reports, nodes_used=tracker.used, budget=budget)


def _table_certificate(window, a_words, b_words, labels) -> ParadoxCertificate:
    model = window.model
    m = len(a_words)
    tables: list[list[str]] = [[] for _ in range(m + len(b_words))]
    for k, text in enumerate(window.to_json()):
        tables[labels[k]].append(text)
    return ParadoxCertificate(
        model=model,
        form="two_equation",
        a_words=[(g,) for g in a_words],
        a_pieces=[{"op": "in", "elements": t} for t in tables[:m]],
        b_words=[(h,) for h in b_words],
        b_pieces=[{"op": "in", "elements": t} for t in tables[m:]],
    )
