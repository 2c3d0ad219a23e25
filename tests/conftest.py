"""Suite-wide collection rule: ``tests/system/`` spawns fleets and daemons
and takes minutes, so it is collected only when asked for by marker —
``python -m pytest -m system`` — never by the tier-1 command.

And one fixture: the test trial units (``tests/trial_units.py``) are in
the unit table for the whole session, so the pool and in-process
workers can ship them."""

from pathlib import Path

import pytest

import trial_units
from repro.backends.wire import UNITS

SYSTEM = Path(__file__).parent / "system"


def pytest_ignore_collect(collection_path, config):
    if collection_path == SYSTEM and "system" not in config.option.markexpr:
        return True


@pytest.fixture(scope="session", autouse=True)
def trial_units_in_the_table():
    with pytest.MonkeyPatch.context() as monkeypatch:
        for unit in trial_units.UNIT_CLASSES:
            monkeypatch.setitem(UNITS, unit.__name__, unit.__module__)
        yield
