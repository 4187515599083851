"""Calibration-shape tests: the DESIGN.md §5 targets, as fast checks.

These pin the *shape* claims the whole reproduction rests on, with small
sweeps (3 sizes, few reps) of :func:`repro.bench.measure` on seeds of
their own, so they run in the unit-test budget.  The full-resolution
versions are the ``paper`` sweep area's postconditions.
"""

from statistics import median

import pytest

from repro.bench import crossover, measure

REPS = 8


def medians(op, impl, topology, nprocs, sizes, seed):
    samples = measure(op, impl, topology, nprocs, sizes, REPS, seed)
    return {size: median(lats) for size, lats in samples.items()}


def bcast(impl, topology, nprocs, sizes, seed):
    return medians("bcast", impl, topology, nprocs, sizes, seed)


def barrier(impl, nprocs, seed):
    return medians("barrier", impl, "hub", nprocs, [0], seed)[0]


@pytest.fixture(scope="module")
def hub4():
    sizes = [0, 1000, 5000]
    return {
        "mpich": bcast("p2p-binomial", "hub", 4, sizes, 1),
        "binary": bcast("mcast-binary", "hub", 4, sizes, 2),
        "linear": bcast("mcast-linear", "hub", 4, sizes, 3),
    }


def test_absolute_magnitudes_in_era_band(hub4):
    """DESIGN.md §5: MPICH/hub/4p ≈ 350-450 µs at 0 B and ≈ 1700-2100 µs
    at 5 kB on the paper's platform; we accept a generous band around
    those read-offs (this pins gross mis-calibration, not exact µs)."""
    assert 250 <= hub4["mpich"][0] <= 500
    assert 1200 <= hub4["mpich"][5000] <= 2200
    assert 600 <= hub4["binary"][5000] <= 1100


def test_small_message_ordering(hub4):
    """At 0 B the scouts make multicast the slower choice."""
    assert hub4["mpich"][0] < hub4["binary"][0]


def test_large_message_ordering(hub4):
    for impl in ("binary", "linear"):
        assert hub4[impl][5000] < 0.75 * hub4["mpich"][5000]


def test_crossover_band(hub4):
    for impl in ("binary", "linear"):
        x = crossover(hub4[impl], hub4["mpich"])
        assert x is not None and x <= 2000


def test_barrier_ordering_and_scaling():
    mpich9 = barrier("p2p-mpich", 9, 4)
    mcast9 = barrier("mcast", 9, 5)
    mpich3 = barrier("p2p-mpich", 3, 6)
    mcast3 = barrier("mcast", 3, 7)
    assert mcast9 < mpich9
    assert mcast3 < mpich3
    gap3 = mpich3 - mcast3
    gap9 = mpich9 - mcast9
    assert gap9 > gap3


def test_switch_storeforward_costs_more_for_multicast():
    sizes = [0, 4000]
    hub = bcast("mcast-binary", "hub", 4, sizes, 8)
    sw = bcast("mcast-binary", "switch", 4, sizes, 9)
    for size in sizes:
        assert hub[size] < sw[size]


def test_mpich_scaling_with_process_count():
    sizes = [5000]
    m3 = bcast("p2p-binomial", "switch", 3, sizes, 10)
    m9 = bcast("p2p-binomial", "switch", 9, sizes, 11)
    l3 = bcast("mcast-linear", "switch", 3, sizes, 12)
    l9 = bcast("mcast-linear", "switch", 9, sizes, 13)
    # MPICH pays ~(N-1) copies; multicast pays ~constant + scouts.
    mpich_growth = m9[5000] / m3[5000]
    linear_growth = l9[5000] / l3[5000]
    assert mpich_growth > 1.8
    assert linear_growth < 1.5
