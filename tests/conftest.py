import os
import sys
from pathlib import Path

import hypothesis
import pytest

# statistical helpers make individual examples slow on a loaded machine;
# the per-example deadline adds noise without catching anything here
hypothesis.settings.register_profile("dilastab", deadline=None)
# CI selects this one with HYPOTHESIS_PROFILE=ci: four times the default examples
hypothesis.settings.register_profile("ci", max_examples=400, deadline=None)
hypothesis.settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dilastab"))


@pytest.fixture
def package_env():
    """The environment for a subprocess that imports this dilastab."""
    import dilastab

    paths = [str(Path(dilastab.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # echo the acceptance criterion lines even when capture ate the prints
    mod = sys.modules.get("test_acceptance") or sys.modules.get("tests.test_acceptance")
    lines = getattr(mod, "CRITERION_LINES", None) if mod else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
