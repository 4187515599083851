"""repro — reproduction of *MPI Collective Operations over IP Multicast*
(H. A. Chen, Y. O. Carrasco, A. W. Apon; IPPS 2000).

The package rebuilds the paper's whole experimental stack in Python:

* :mod:`repro.simnet` — a discrete-event Fast-Ethernet substrate
  (CSMA/CD hub, store-and-forward switch with IGMP snooping, UDP/IP with
  receiver-readiness semantics);
* :mod:`repro.mpi` — an MPI-1 subset with MPICH-style point-to-point and
  baseline collectives (binomial broadcast, 3-phase barrier, ...);
* :mod:`repro.core` — **the contribution**: broadcast and barrier over IP
  multicast with binary-tree / linear scout synchronization, plus naive,
  ack-retransmit (PVM-style) and sequencer (Orca-style) baselines;
* :mod:`repro.runtime` — an mpiexec-like SPMD launcher;
* :mod:`repro.sockets` — the same collective algorithms over *real* UDP
  multicast sockets (loopback), for functional validation;
* :mod:`repro.bench` / :mod:`repro.analysis` — the benchmark sweeps
  that regenerate every figure in the paper (the ``paper`` area), and
  the closed-form models they are checked against.

Quickstart::

    from repro import run_spmd

    def main(env):
        data = {"hello": "world"} if env.rank == 0 else None
        data = yield from env.comm.bcast(data, root=0)
        return data

    result = run_spmd(9, main, topology="hub",
                      collectives={"bcast": "mcast-binary"})
    print(result.returns, f"{result.sim_time_us:.0f} µs")
"""

from . import core  # noqa: F401  (registers multicast collectives)
from .runtime import (FixedSkew, NoSkew, RankEnv, RunResult, UniformSkew,
                      run_spmd)

__version__ = "1.0.0"

__all__ = ["FixedSkew", "NoSkew", "RankEnv", "RunResult", "UniformSkew",
           "run_spmd", "__version__"]
