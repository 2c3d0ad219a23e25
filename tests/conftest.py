"""Suite-wide collection rule: ``tests/system/`` spawns fleets and daemons
and takes minutes, so it is collected only when asked for by marker —
``python -m pytest -m system`` — never by the tier-1 command."""

from pathlib import Path

SYSTEM = Path(__file__).parent / "system"


def pytest_ignore_collect(collection_path, config):
    if collection_path == SYSTEM and "system" not in config.option.markexpr:
        return True
