import re
import signal
import time
import traceback
from pathlib import Path

import pytest

try:
    import resource
except ImportError:  # not on Windows
    resource = None

GOLDEN_DIR = Path(__file__).parent / "golden"

# The most address space a test may map: the whole suite peaks at 139 MB
# of virtual memory (CPython 3.11, Linux x86-64), and a runaway search
# that grows by 350 MB/s passes 1 GiB in about 3 s.
MEMORY_LIMIT = 2**30

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


@pytest.hookimpl(wrapper=True, trylast=True)
def pytest_pyfunc_call(pyfuncitem):
    """Call a test function with the address space capped at MEMORY_LIMIT,
    or lower where the process is capped lower already, so a runaway
    allocation fails the test with MemoryError in seconds instead of filling
    memory until the time limit. Where there is no `resource` module, tests
    run without a cap.
    """
    if resource is None:
        return (yield)
    previous = resource.getrlimit(resource.RLIMIT_AS)
    soft, hard = previous
    cap = MEMORY_LIMIT if soft == resource.RLIM_INFINITY else min(MEMORY_LIMIT, soft)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        return (yield)
    except MemoryError as error:
        # Lift the cap and drop the failed frames' locals before anything
        # else unwinds, so the report and the tests after it have memory.
        # An error raised while handling it holds the frames in its context.
        resource.setrlimit(resource.RLIMIT_AS, previous)
        while error is not None:
            traceback.clear_frames(error.__traceback__)
            error = error.__context__
        raise
    finally:
        resource.setrlimit(resource.RLIMIT_AS, previous)


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
