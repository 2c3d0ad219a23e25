"""Shared fixtures for the backend tests."""

import pytest

from repro.backends import distributed


@pytest.fixture
def fast_fault_detection(monkeypatch):
    """Fault detection at test speed.

    A silent worker is pinged after 0.1 s and declared dead when the ping
    takes 0.5 s; membership is re-checked every 0.05 s.  The backend (and
    the announce registry) read these module constants where they use
    them, so every backend the test builds sees the patched values.  A
    test that also needs a breaker knob patches that one constant itself.
    """
    monkeypatch.setattr(distributed, "HEARTBEAT_INTERVAL", 0.1)
    monkeypatch.setattr(distributed, "PING_TIMEOUT", 0.5)
    monkeypatch.setattr(distributed, "MEMBERSHIP_INTERVAL", 0.05)
