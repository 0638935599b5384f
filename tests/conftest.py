"""Name the tests under tests/ that set the suite's peak memory.

ru_maxrss is the process's peak resident set, so its rise across one test
(setup, call and teardown) is how far that test pushed the peak past every
test before it. The terminal summary lists the five largest rises and the
peak, so a log of the whole suite names the test behind its peak RSS.
"""

import resource
import sys

import pytest

# ru_maxrss is in bytes on macOS and in KiB elsewhere
_RSS_UNIT = 1 if sys.platform == "darwin" else 1024
_RISES = pytest.StashKey[list]()


def _peak_rss() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * _RSS_UNIT


def pytest_configure(config):
    config.stash[_RISES] = []


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    before = _peak_rss()
    yield
    item.config.stash[_RISES].append((_peak_rss() - before, item.nodeid))


def pytest_terminal_summary(terminalreporter, config):
    top = sorted((rise for rise in config.stash[_RISES] if rise[0] > 0), reverse=True)[:5]
    if top:
        terminalreporter.write_sep("=", "largest rises in peak RSS")
        for rise, nodeid in top:
            terminalreporter.write_line(f"{rise / 2**20:8.1f} MiB  {nodeid}")
        terminalreporter.write_line(f"peak RSS {_peak_rss() / 2**20:.0f} MiB")
