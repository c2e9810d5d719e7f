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
A translator combination is solved exactly only while it can still beat the
best defect found so far; the budget it is charged does not depend on that.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import combinations_with_replacement, compress, islice, repeat
from operator import add, and_, eq, gt, itemgetter, lt, or_
from typing import Callable, Optional

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
from .perturb import PerturbedAction

_VIOLATION_SAMPLES = 10
_NONZERO = bytes([0] + [1] * 255)  # a translate table: byte 0 to 0, any other to 1
MIN_PIECES = 4
# Default DP nodes a `search_small_paradox` run may spend.
PARADOX_BUDGET = 2_000_000
DP_STATE_CAP = 300_000


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
        self.used += 1
        return self.used <= self.limit

    def spend_many(self, count: int) -> bool:
        """`count` calls of `spend` that stop at the first refusal."""
        if count == 0 or self.used + count <= self.limit:
            self.used += count
            return True
        self.used = max(self.used, self.limit) + 1
        return False


class _BudgetExhausted(Exception):
    pass


class _Family:
    """The scoring set-up of one translator family (the A-words or the
    B-words of a combo), which depends only on the family's preimage rows
    and its label offset: a search builds it once per (words, offset) and
    shares it across combos.

    A window index t is a checkable target of the family when its preimage
    under every word stays in the window.  Its influencers are the pairs
    (row[t], offset + piece), and it is scored once its last influencer is
    labeled: `finalize_at[k]` lists the influencer lists of the targets
    whose last source is k, in target order, and `live_until[src]` is the
    last such k over the targets that `src` influences (-1 for none).
    `cover[src]` is the most targets that `src` matches under any one
    label (at most 1 when the rows are injective, as preimage rows are)."""

    def __init__(self, n: int, rows: list[list[int]], offset: int):
        self.size = len(rows)
        self.checkable = 0
        self.finalize_at: list[list[list[tuple[int, int]]]] = [[] for _ in range(n)]
        self.live_until = [-1] * n
        labels = range(offset, offset + len(rows))
        hits: Counter[tuple[int, int]] = Counter()
        for sources in zip(*rows):
            if min(sources) < 0:
                continue
            self.checkable += 1
            last = max(sources)
            infl = list(zip(sources, labels))
            self.finalize_at[last].append(infl)
            hits.update(infl)
            for src in sources:
                if self.live_until[src] < last:
                    self.live_until[src] = last
        self.cover = [0] * n
        for (src, _), count in hits.items():
            self.cover[src] = max(self.cover[src], count)


class _AssignmentProblem:
    """Best piece labeling of a window for fixed translator families.

    Every element takes one label: the first m labels are pieces translated
    by the A-words, the rest pieces translated by the B-words.  Each cover
    equation scores its checkable targets once their last influencing
    preimage is labeled; the two families' `_Family` set-ups are merged
    here.  A target costs at least 1 - (its matches), and a source matches
    at most `cover` targets, so `floor`, the checkable targets less the
    sum of the sources' covers, bounds every labeling's cost from below.
    Three passes: an exact-cover style descent that only accepts
    zero-cost steps (settling the zero-defect case), a greedy incumbent,
    and a bottom-up dynamic program whose state at element k is the labels
    of `live_at[k]`, the sources still able to influence unscored targets.
    No labeling is forbidden, so every label tuple of `live_at[k]` is a
    state; the program charges the budget one node per state, all at once,
    and is exact when the budget covers them.
    """

    def __init__(self, n: int, a: _Family, b: _Family, budget: _Budget):
        """`a`/`b`: the set-ups of the A-family (labels from 0) and the
        B-family (labels from a.size) over a window of n points."""
        self.n = n
        self.m = a.size
        self.p = a.size + b.size
        self.budget = budget
        self.choices = list(range(self.p))
        self.checkable = a.checkable + b.checkable
        self.floor = max(0, self.checkable - sum(map(max, a.cover, b.cover)))
        self.finalize_at = list(map(add, a.finalize_at, b.finalize_at))
        live_until = list(map(max, a.live_until, b.live_until))

        # live_at[k]: the labeled sources (src < k) that still influence a
        # target finalized at k or later; their labels are the DP state at k
        self.live_at: list[list[int]] = [[] for _ in range(n + 1)]
        for src in range(n):
            for k in range(src + 1, live_until[src] + 1):
                self.live_at[k].append(src)
        self.live_peak = max(len(live) for live in self.live_at)
        self.labels = [0] * n

    def dp_tractable(self) -> bool:
        """Whether the dynamic program's widest layer fits DP_STATE_CAP."""
        states = 1
        for _ in range(self.live_peak):
            states *= self.p
            if states > DP_STATE_CAP:
                return False
        return True

    def _step_cost(self, k: int) -> int:
        cost = 0
        labels = self.labels
        for infl in self.finalize_at[k]:
            count = 0
            for src, piece in infl:
                count += labels[src] == piece
            cost += count - 1 if count >= 1 else 1
        return cost

    def zero_search(self, cap: int) -> Optional[bool]:
        """Backtracking that accepts only zero-cost steps.

        True when a tiling (zero-defect labeling) is found; False when the
        full exploration proves none exists; None when the step cap ends
        the attempt first.
        """
        n, p, labels, finalize_at, spend = self.n, self.p, self.labels, self.finalize_at, self.budget.spend
        steps = 0
        k = 0
        iters: list[int] = [0]
        while 0 <= k < n:
            if not spend():
                raise _BudgetExhausted
            steps += 1
            if steps > cap:
                return None
            label = iters[k]
            if label >= p:
                iters.pop()
                k -= 1
                if k >= 0:
                    iters[k] += 1
                continue
            labels[k] = label
            # zero cost: every target scored here is matched exactly once
            for infl in finalize_at[k]:
                count = 0
                for src, piece in infl:
                    count += labels[src] == piece
                if count != 1:
                    iters[k] += 1
                    break
            else:
                k += 1
                if k < n:
                    iters.append(0)
        return k == n

    def greedy(self) -> tuple[int, list[int]]:
        total = 0
        for k in range(self.n):
            best_cost, best_label = None, 0
            for label in self.choices:
                self.labels[k] = label
                cost = self._step_cost(k)
                if best_cost is None or cost < best_cost:
                    best_cost, best_label = cost, label
                if cost == 0:
                    break
            self.labels[k] = best_label
            total += best_cost
        return total, self.labels.copy()

    def exact(self, bound: Optional[int] = None, floor: int = 0) -> int:
        """Minimum total step cost; leaves the minimizing labels in `labels`.

        Every labeling is allowed, so the states at layer k are all
        p^|live_at[k]| label tuples of `live_at[k]`.  The budget is charged
        one node per state, all layers up front, and `_BudgetExhausted` is
        raised before any array is built.  A state's index is its labels
        read as base-p digits over `live_at[k]`, first source most
        significant.  Layers are solved from the last one back: per label
        at k, a column over the layer's states of step cost plus the next
        layer's value, and the layer's values are the columns' pointwise
        min.  Only the value arrays are kept; the labels are then rebuilt
        forward, taking at each k the first label that keeps to the optimum.

        With a `bound`, the program stops once the minimum cannot fall below
        it, after charging the budget in full: at once when `floor`, a lower
        bound on the minimum, reaches it, else at the first layer whose least
        value reaches it (step costs are non-negative, so that value bounds
        the minimum).  It then returns that lower bound, which is at least
        `bound`, and leaves `labels` unspecified.
        """
        n, p, live_at = self.n, self.p, self.live_at
        if not self.budget.spend_many(sum(p ** len(live_at[k]) for k in range(n))):
            raise _BudgetExhausted
        if bound is not None and floor >= bound:
            return floor
        zeros = [0] * p
        values: list[list[int]] = [[] for _ in range(n)] + [[0]]
        for k in range(n - 1, -1, -1):
            # per source, per label: its share of the next state's index,
            # and its matches of the targets finalized here, packed as
            # mixed-radix digits (one digit per target, base len(infl) + 1)
            following = live_at[k + 1]
            top = len(following) - 1
            shift = {src: [d * p ** (top - j) for d in range(p)] for j, src in enumerate(following)}
            matches: dict[int, list[int]] = {}
            bases = []
            scale = 1
            for infl in self.finalize_at[k]:
                for src, piece in infl:
                    matches.setdefault(src, [0] * p)[piece] += scale
                bases.append(len(infl) + 1)
                scale *= len(infl) + 1
            # per state of layer k, in index order: both, summed over live_at[k]
            nxt = packed = [0]
            for src in live_at[k]:
                step, match = shift.get(src, zeros), matches.get(src, zeros)
                nxt = [i + d for i in nxt for d in step]
                packed = [c + d for c in packed for d in match]
            # one lazy column of step cost plus next value per label at k
            step, match = shift.get(k, zeros), matches.get(k, zeros)
            cost = {c: _packed_cost(c, bases) for c in {c + d for c in set(packed) for d in match}}
            after = values[k + 1]
            columns = [
                map(
                    add,
                    map(cost.__getitem__, map(add, packed, repeat(m))),
                    map(after.__getitem__, map(add, nxt, repeat(d))),
                )
                for d, m in zip(step, match)
            ]
            values[k] = list(map(min, zip(*columns)))
            if bound is not None and min(values[k]) >= bound:
                return min(values[k])

        labels = self.labels
        target = values[0][0]
        for k in range(n):
            after = values[k + 1]
            for label in self.choices:
                labels[k] = label
                state = 0
                for src in live_at[k + 1]:
                    state = state * p + labels[src]
                rest = after[state]
                if self._step_cost(k) + rest == target:
                    target = rest
                    break
            else:
                raise AssertionError("reconstruction failed")
        return values[0][0]


def _packed_cost(packed: int, bases: list[int]) -> int:
    """Step cost of match counts packed as mixed-radix digits over `bases`:
    a target matched `count` times costs |count - 1|."""
    cost = 0
    for base in bases:
        packed, count = divmod(packed, base)
        cost += abs(count - 1)
    return cost


def _solve_combo(problem: _AssignmentProblem, zero_cap: int, bound: Optional[int]) -> tuple[int, list[int], bool]:
    """(defect, labels, exact) for one translator combination.  Only a
    defect below `bound` (the search's incumbent) is reported exactly; a
    combo proven unable to beat it reports some defect >= bound, with labels
    that are not kept.  The budget spent does not depend on `bound`: only
    the greedy pass, which is free, may be skipped."""
    zero = problem.zero_search(zero_cap)
    if zero:
        return 0, problem.labels.copy(), True
    floor = max(problem.floor, 1 if zero is False else 0)
    if bound is not None and floor >= max(bound, 2):
        # the greedy incumbent is neither 0 nor 1, so the program runs, and
        # it would not be kept
        incumbent, labels = floor, []
    else:
        incumbent, labels = problem.greedy()
        if incumbent == 0:
            return 0, labels, True
        if zero is False and incumbent == 1:
            return 1, labels, True  # tilings exhaustively ruled out, so 1 is optimal
    if problem.dp_tractable():
        try:
            minimum = problem.exact(bound, floor)
            return minimum, problem.labels.copy(), True
        except _BudgetExhausted:
            pass
    return incumbent, labels, False


def search_small_paradox(
    window: FiniteWindow,
    pool: FiniteWindow,
    max_pieces: int,
    budget: int = PARADOX_BUDGET,
) -> ParadoxSearchReport:
    """Best (lowest interior defect) piece assignment per piece count.

    Piece counts run from four, the least any group paradox can use.  All
    translator multisets from the pool are tried; assignments are searched
    exactly, so with the budget intact each reported defect is the true
    minimum at that piece count.
    """
    n = len(window)
    identity = window.model.identity_data
    rows = {g: _preimages(window, (g,)) for g in pool.positions}
    families: dict[tuple, _Family] = {}

    def options(size: int, offset: int) -> list[tuple[tuple, int]]:
        """The translator multisets of `size` pool payloads, in pool order,
        each with the label `offset` of its family."""
        return [(words, offset) for words in combinations_with_replacement(pool.positions, size)]

    def family(words: tuple, offset: int) -> _Family:
        """The family set-up of `words` at label `offset`, built the first
        time a combo reaches it and shared for the rest of the search."""
        key = (words, offset)
        if key not in families:
            families[key] = _Family(n, [rows[g] for g in words], offset)
        return families[key]

    tracker = _Budget(budget)
    zero_cap = max(500, 25 * n)
    reports: list[PieceCountReport] = []
    for pieces in range(MIN_PIECES, max_pieces + 1):
        combos = []
        for m in range(1, pieces // 2 + 1):
            nb = pieces - m  # families are interchangeable, so m <= nb
            a_options = options(m, 0)
            b_options = options(nb, m)
            for ai, a in enumerate(a_options):
                for bi, b in enumerate(b_options):
                    if m == nb and bi < ai:
                        continue
                    combos.append((a, b))
        # identity-bearing families first: tilings almost always keep a piece
        # in place, and hitting one early settles the piece count at zero
        combos.sort(key=lambda ab: (identity not in ab[0][0]) + (identity not in ab[1][0]))

        best_defect: Optional[int] = None
        best_cert: Optional[ParadoxCertificate] = None
        best_checkable = 0
        exhausted = True
        try:
            for a, b in combos:
                problem = _AssignmentProblem(n, family(*a), family(*b), tracker)
                defect, labels, exact = _solve_combo(problem, zero_cap, best_defect)
                if not exact:
                    exhausted = False
                if best_defect is None or defect < best_defect:
                    best_defect = defect
                    best_checkable = problem.checkable
                    best_cert = _table_certificate(window, a[0], b[0], labels)
                if best_defect == 0:
                    break  # zero is the floor; this piece count is settled
        except _BudgetExhausted:
            exhausted = False
        if best_defect == 0:
            exhausted = True
        reports.append(
            PieceCountReport(
                pieces=pieces,
                best_defect=best_defect,
                checkable=best_checkable,
                certificate=best_cert,
                exhausted=exhausted,
            )
        )
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
