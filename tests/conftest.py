import os

import pytest

from splitstat import stats
from splitstat.family import FamilySpec, generate

_acceptance_lines = []


def assert_no_children():
    """Assert that this process has no child left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(scope="session")
def acceptance_log():
    """Shared sink for the per-criterion result lines."""
    return _acceptance_lines


def pytest_terminal_summary(terminalreporter):
    if _acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in _acceptance_lines:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def cubic_box():
    """The N=50 cubic box of criterion 09 (1,030,301 cubics), certified once
    and gathered, as chebotarev, moments and clt read a family."""
    return stats.certify_family(generate(FamilySpec(n=3, height_bound=50)), budget=25)
