"""Acceptance gate: every built-in criterion must pass at its stated
tolerance; one line is printed per criterion.  The suite runs once per
session and every test reads its rows."""

import pytest

from folnerlab import suite

# (criterion number, time limit in seconds)
LIMITS = [
    (1, 10),
    (2, 10),
    (3, 5),
    (4, 60),
    (5, 5),
    (6, 60),
    (7, 30),
    (8, 60),
    (9, 30),
    (10, 60),
    (11, 120),
    (12, 120),
    (13, 600),
]


@pytest.fixture(scope="module")
def results():
    return suite.run_suite()


@pytest.mark.parametrize("number,limit", LIMITS, ids=[f"criterion-{n:02d}" for n, _ in LIMITS])
def test_criterion(results, number, limit):
    (result,) = [r for r in results if r.number == number]
    print(result.row())
    assert result.passed, result.measured
    assert result.elapsed < limit, f"criterion {number} took {result.elapsed:.1f}s (limit {limit}s)"


def test_full_suite_summary(results):
    for r in results:
        print(r.row())
    assert len(results) == 13
    assert all(r.passed for r in results)
