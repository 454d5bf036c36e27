import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from primehull import prime_stream
from primehull.hull_engine import compute_extremal

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
    from oracles import sieve_primes

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
