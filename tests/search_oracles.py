"""The Følner search loop before candidates were scored in one pass, kept
as a differential oracle for `folner.folner_search`.

Its local climb yields bare windows: the search solves each one again, and
the climb solves the current window a third time at its next step.  The
search checks the budget only after pulling the next candidate, so it
builds one candidate past the budget (for the climb, one whole step) and
reports `budget_exhausted` only when such a candidate exists.
"""

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from folnerlab.folner import FolnerCertificate, topological_defect
from folnerlab.groups import FiniteWindow, grid_sample, word_ball

ZERO = Fraction(0)


@dataclass
class OracleResult:
    found: bool
    certificate: Optional[FolnerCertificate]
    best_theta: Fraction
    candidates_tried: int
    budget_exhausted: bool


def _balls(model):
    radius = 1
    while True:
        yield word_ball(model, radius)
        radius += 1


def _boxes(model):
    n = 1
    while True:
        points = [()]
        for _ in range(model.dim):
            points = [p + (k,) for p in points for k in range(n)]
        yield FiniteWindow(model, [model.element(p) for p in points])
        n += 1


def _grids(model):
    n = 1
    while True:
        yield grid_sample(model, n)
        n += 1


def _local(model, E, U, seed):
    if not model.discrete:
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


def lookahead_search(model, E, U, theta_target, strategy, budget, seed=None) -> OracleResult:
    if strategy == "balls":
        candidates = _balls(model)
    elif strategy == "boxes":
        candidates = _boxes(model)
    elif strategy == "grid":
        candidates = _grids(model)
    else:
        candidates = _local(model, E, U, seed)

    best_theta = ZERO
    best_cert = None
    tried = 0
    for F in candidates:
        if tried >= budget:
            return OracleResult(False, best_cert, best_theta, tried, True)
        tried += 1
        theta, cert = topological_defect(F, E, U)
        if best_cert is None or theta > best_theta:
            best_theta, best_cert = theta, cert
        if theta >= theta_target:
            return OracleResult(True, cert, theta, tried, False)
    return OracleResult(False, best_cert, best_theta, tried, False)
