import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from oracles import batch_upper_hull, sieve_primes
from primehull import prime_stream
from primehull.hull_engine import HullState, compute_extremal
from primehull.m_variant import MHullState

# Acceptance criterion results, printed as one line each at the end of the
# run so the pass/fail ledger survives output capture.
ACCEPTANCE_RESULTS: list[tuple[int, str, bool, str]] = []


def record_criterion(num: int, desc: str, passed: bool, detail: str = "") -> None:
    ACCEPTANCE_RESULTS.append((num, desc, passed, detail))


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for num, desc, passed, detail in sorted(ACCEPTANCE_RESULTS):
        status = "PASS" if passed else "FAIL"
        line = f"criterion {num:2d} {status}  {desc}"
        if detail:
            line += f"  [{detail}]"
        terminalreporter.write_line(line)


# The exact height of the point (p, pi) on each class's hull.
HEIGHT = {HullState: lambda p, pi: Fraction(pi), MHullState: Fraction}


def slope_order(cls, a, b, c):
    """Sign of lhs - rhs from ``cls._cross``: slope(a, b) vs slope(b, c) of its heights."""
    lhs, rhs = cls._cross(a, b, c.p, c.pi)
    return (lhs > rhs) - (lhs < rhs)


def arrays(pts):
    """The p and the pi of a cloud's points, as two int64 arrays."""
    return np.array(pts, dtype=np.int64).T.copy()


def hull_tuples(vertices):
    """(p, y, ties) of every oracle vertex."""
    return [(v.p, v.y, v.ties) for v in vertices]


def oracle_hull(pts, cls=HullState):
    """(p, y, ties) of every vertex of the batch Fraction oracle over cls's heights y."""
    return hull_tuples(batch_upper_hull([(p, HEIGHT[cls](p, r)) for p, r in pts]))


def stack_hull(state):
    """(p, y, ties) of every vertex on a state's stack, y its exact height."""
    return [(v.p, HEIGHT[type(state)](v.p, v.pi), v.ties) for v in state.stack]


# sha256 of the "p,pi,ties" lines of every M vertex, joined by newlines:
# (limit, vertices, confirmed, digest).  The digests are those of the exact
# merge that pushed every point, which the filtered merge must reproduce.
M_VERTEX_DIGESTS = [
    (10**7, 130, 59, "201714e12af8cd17640b8accf707b56b49d5285fe5e5a677869579380b8f7fc2"),
    (10**8, 234, 110, "ada47a7cad8bfc95bb41f56cce8012f25be9ec4b40703f017b41a128ac2313ab"),
    pytest.param(
        10**9, 429, 189, "98bf6b5fc008054db19b015be43e19dc6a6636a5b36b937e9c8bab9ca59a1e28",
        marks=pytest.mark.extended,
    ),
]


@pytest.fixture(scope="session")
def run_1e5():
    return compute_extremal(10**5)


@pytest.fixture(scope="session")
def run_1e6():
    return compute_extremal(10**6)


@pytest.fixture(scope="session")
def run_1e8():
    return compute_extremal(10**8)


@pytest.fixture(scope="session")
def oracle_primes_1e5():
    return sieve_primes(10**5)


@pytest.fixture
def fresh_workers():
    """Close the process's worker set before and after the test.

    Workers are forked copies of this process, so a test that patches what
    they run (``_sieve_segment``, ``_strike_large``) needs a set forked
    after its patches, and must not leave that set to later tests.
    """

    def close():
        if prime_stream._workers is not None:
            prime_stream._workers.close()
        prime_stream._workers = None

    close()
    yield
    close()
