"""The Fraction ball scans that the perturbation and uniformization builders
ran before their ball queries read `matching.build_graph` rows.

Each function evaluates the metric on every pair, as the package did:

- `fraction_candidates`: the relocation candidates of
  `perturb.moving_injection`, every supply point within the radius of x, in
  supply order;
- `greedy_separated` and `nearest_centers`: the precompact centers, each
  window point farther than the third radius from every earlier center, and
  every point's nearest center over all centers, ties to the smaller one,
  after the check that some center lies within the third radius;
- `index_rotation_rows`: the grid-rotation rows, the nearest grid rotation
  as an element and each image looked up by `window.index`;
- `fraction_uniform_pieces`: the pieces of `weights.approx_by_uniform`, each
  support atom's ball scanned over the whole supply, nearest first.

`moving_injection` is the relocation search of `perturb.moving_injection`
as it tested a candidate y in two parts: y against the blocked shifts of the
chosen points, then g y and g^-1 y against the chosen points, for every
shift g.  Its candidates are the Fraction scan above.

They are kept as oracles: the graph-row forms must give identical results
on the same input.  Every distance here is `fraction_eval`, each metric rule
written out in Fractions, so the oracles do not read the package's metric
kernel; the relocations, rotation rows and pieces come out keyed by payload,
as the package's tables are.
"""

from fractions import Fraction

from folnerlab.groups import CircleModel, FiniteWindow
from folnerlab.perturb import BACKTRACK_CAP, BudgetError, ConstructionError
from folnerlab.weights import SupplyError, _round_weight
from fraction_oracles import fraction_eval


def fraction_candidates(F, U, supply):
    candidates = []
    for x in F:
        near = [y for y in supply if fraction_eval(U.metric, y, x) <= U.radius]
        if not near:
            raise ConstructionError(f"supply has no point near {F.model.format(x)}")
        candidates.append(near)
    return candidates


def moving_injection(F, E, U, supply):
    model = F.model
    shifts = [g for g in E if g != model.identity()]
    candidates = fraction_candidates(F, U, supply)
    chosen = []
    chosen_set = set()
    blocked = set()  # union of g.images and g^-1.images
    steps = 0

    def ok(y):
        if y in chosen_set or y in blocked:
            return False
        for g in shifts:
            if model.mul(g, y) in chosen_set or model.mul(model.inv(g), y) in chosen_set:
                return False
        return True

    def place(i):
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
    return {x.data: y.data for x, y in zip(F, chosen)}


def greedy_separated(window, metric, threshold):
    chosen = []
    for i, x in enumerate(window):
        if all(fraction_eval(metric, x, window[j]) > threshold for j in chosen):
            chosen.append(i)
    return chosen


def nearest_centers(window, metric, third, centers):
    for x in window:
        if all(fraction_eval(metric, x, c) > third for c in centers):
            raise ConstructionError("separated set is not maximal")
    assignment = []
    for x in window:
        best_j = 0
        best_d = fraction_eval(metric, x, centers[0])
        for j in range(1, len(centers)):
            dj = fraction_eval(metric, x, centers[j])
            if dj < best_d:
                best_d, best_j = dj, j
        assignment.append(best_j)
    return assignment


def _nearest_rotation(model, g, step, n, U):
    if isinstance(model, CircleModel):
        ratio = g.data / step
    else:
        ratio = Fraction(g.data) / step
    k = (2 * ratio + 1) // 2  # round half up, exact on fractions
    if isinstance(model, CircleModel):
        shift = model.element(k * step)
    else:
        shift = model.element(int(k * step))
    dev = fraction_eval(U.metric, shift, g)
    if dev > U.radius:
        raise ConstructionError(
            f"grid rotation misses {model.format(g)} by {dev} > {U.radius}"
        )
    return shift


def index_rotation_rows(window, step, sample, U):
    model = window.model
    rows = {}
    for g in sample:
        shift = _nearest_rotation(model, g, step, len(window), U)
        rows[g.data] = [window.index(model.mul(shift, window[i])) for i in range(len(window))]
    return rows


def fraction_uniform_pieces(a, metric, epsilon, supply):
    """The pieces of `approx_by_uniform(a, metric, epsilon, supply)`; an
    exhausted ball raises its `SupplyError`."""
    counts, _, _ = _round_weight(a, epsilon / 2)
    radius = epsilon / 2
    used = set()
    pieces = {}
    for x, need in zip(a.support, counts):
        in_ball = [(d, y) for y in supply if (d := fraction_eval(metric, x, y)) <= radius]
        in_ball.sort(key=lambda item: item[0])
        chosen = []
        for _, y in in_ball:
            if len(chosen) == need:
                break
            if y in used:
                continue
            chosen.append(y)
            used.add(y)
        if len(chosen) < need:
            raise SupplyError(
                f"supply exhausted near {a.model.format(x)}: "
                f"needed {need}, found {len(chosen)} within {radius}"
            )
        pieces[x.data] = FiniteWindow(a.model, chosen)
    return pieces
