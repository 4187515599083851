"""Tier-1 test harness hooks.

With ``REPRO_SANITIZE=1`` in the environment, every
:func:`repro.runtime.program.run_spmd` call made by a test registers
its cluster for destructive teardown; this autouse fixture drains the
registry after each test and asserts the job leaks nothing — no bound
sockets, no residual group memberships (host, NIC, or switch ledgers),
no undrained events.  See :mod:`repro.runtime.sanitize`.

Without the variable the fixture only drains the (empty) registry, so
plain ``pytest`` runs are unaffected.

The ``slow`` (longer example runs) and ``realnet`` (real UDP sockets
on loopback) marks are registered here so selecting or deselecting
them (``-m "not realnet"``) needs no extra configuration.
"""

import pytest

from repro.runtime.sanitize import (drain_pending, full_teardown,
                                    sanitize_enabled)


def pytest_configure(config):
    config.addinivalue_line("markers", "slow: a longer-running test")
    config.addinivalue_line(
        "markers", "realnet: uses real UDP sockets and loopback multicast")


@pytest.fixture(autouse=True)
def _sanitize_teardown():
    drain_pending()        # never inherit another test's leftovers
    yield
    runs = drain_pending()
    if not sanitize_enabled():
        return
    for cluster, world in runs:
        full_teardown(cluster, world)
