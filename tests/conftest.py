import os
from pathlib import Path

import pytest

import varchenko


@pytest.fixture
def module_env():
    """Environment for a `python -m varchenko` subprocess that imports the
    package under test, also when pytest found it through its pythonpath
    setting rather than PYTHONPATH."""
    src = str(Path(varchenko.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + os.pathsep + path if path else src}
