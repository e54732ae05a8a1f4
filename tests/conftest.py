import re
import signal
import time
from pathlib import Path

import pytest

GOLDEN_DIR = Path(__file__).parent / "golden"

_CRITERION = re.compile(r"test_criterion_(\d+)_([a-z0-9_]+)")
_RANK = {"PASS": 0, "SKIPPED": 1, "FAIL": 2}


def golden_text(name: str) -> str:
    return (GOLDEN_DIR / name).read_text(encoding="utf-8")


@pytest.fixture
def golden():
    return golden_text


class TimeLimitExceeded(BaseException):
    """A test ran past its time limit. Not an Exception, so that hypothesis
    does not catch it and rerun the example to shrink it."""


@pytest.fixture(autouse=True)
def time_limit(request):
    """Fail a test that runs past 60 s, about 20 times the slowest, by name
    and elapsed time, instead of letting it hang the run. Where there is no
    SIGALRM, tests run without a limit.
    """
    if not hasattr(signal, "SIGALRM"):
        yield
        return
    limit = 60.0
    started = time.monotonic()

    def expire(signum, frame):
        elapsed = time.monotonic() - started
        message = f"{request.node.nodeid} ran {elapsed:.1f} s, past the {limit:.0f} s limit"
        raise TimeLimitExceeded(message)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, limit)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One verdict line per acceptance criterion, visible on every run."""
    outcomes = {}
    for reports in terminalreporter.stats.values():
        for report in reports:
            match = _CRITERION.search(getattr(report, "nodeid", ""))
            if match is None:
                continue
            key = (int(match.group(1)), match.group(2))
            if getattr(report, "failed", False):
                verdict = "FAIL"
            elif getattr(report, "skipped", False):
                verdict = "SKIPPED"
            else:
                verdict = "PASS"
            if _RANK[verdict] > _RANK.get(outcomes.get(key, "PASS"), 0):
                outcomes[key] = verdict
            else:
                outcomes.setdefault(key, verdict)
    if not outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for (number, name), verdict in sorted(outcomes.items()):
        terminalreporter.write_line(f"ACCEPTANCE {number} {name}: {verdict}")
