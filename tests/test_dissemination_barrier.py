"""Dissemination barrier: correctness and comparison to the alternatives."""

from statistics import median

import pytest

from repro.bench import measure
from repro.mpi.collective.barrier_p2p import dissemination_message_count
from repro.runtime import run_spmd
from repro.simnet import quiet
from repro.simnet.calibration import FAST_ETHERNET_SWITCH

QUIET = quiet(FAST_ETHERNET_SWITCH)


def test_dissemination_message_count():
    assert dissemination_message_count(1) == 0
    assert dissemination_message_count(2) == 2
    assert dissemination_message_count(8) == 24
    assert dissemination_message_count(9) == 36
    with pytest.raises(ValueError):
        dissemination_message_count(0)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 8, 9])
def test_dissemination_synchronizes(n):
    def main(env):
        yield env.sim.timeout(150.0 * env.rank)
        entered = env.sim.now
        yield from env.comm.barrier()
        return (entered, env.sim.now)

    result = run_spmd(n, main, params=QUIET,
                      collectives={"barrier": "p2p-dissemination"})
    last_entry = max(e for e, _l in result.returns)
    assert all(left >= last_entry for _e, left in result.returns)


def test_dissemination_repeated_rounds_no_crosstalk():
    def main(env):
        for _ in range(8):
            yield from env.comm.barrier()
        return env.sim.now

    result = run_spmd(6, main, params=QUIET,
                      collectives={"barrier": "p2p-dissemination"})
    assert all(t > 0 for t in result.returns)


def test_multicast_still_beats_best_p2p_barrier():
    """The paper compares against MPICH's barrier; the dissemination
    barrier is the stronger p2p opponent (fewer critical-path rounds for
    non-powers-of-two).  The multicast barrier still wins at 9 procs on
    the hub — its release is ONE frame."""
    def barrier_us(impl, seed):
        return median(measure("barrier", impl, "hub", 9, [0], 10, seed)[0])

    dis = barrier_us("p2p-dissemination", 3)
    mpich = barrier_us("p2p-mpich", 4)
    mcast = barrier_us("mcast", 5)
    # dissemination beats the three-phase barrier at non-power-of-two N
    assert dis < mpich * 1.1
    # and multicast beats both
    assert mcast < dis
    assert mcast < mpich
