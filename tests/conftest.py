import sys

import pytest


class _Recorder:
    """An options namespace that records which of its attributes are read."""

    def __init__(self, args):
        self.args, self.read = args, set()

    def __getattr__(self, name):
        self.read.add(name)
        return getattr(self.args, name)


@pytest.fixture
def record_reads():
    """Wraps an argparse namespace; `.read` is the set of options read from it."""
    return _Recorder


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance verdict lines where capture can't swallow them."""
    module = sys.modules.get("test_acceptance") or sys.modules.get(
        "tests.test_acceptance")
    lines = getattr(module, "verdict_lines", None) if module else None
    if not lines:
        return
    terminalreporter.section("acceptance criteria")
    for line in lines:
        terminalreporter.write_line(line)
