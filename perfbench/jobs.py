"""Run one job: the closed-loop SPMD program, output checks and failure
accounting.

Every rank walks the job's call list in order.  Before each call it sleeps
its seeded compute gap, then issues the collective and, when it returns,
checks the bytes it got back against what the seeded pools say it must
be.  A rank starts call ``i + 1`` only after call ``i`` returned (closed
loop).  The job's per-call latency is the slowest rank's time inside the
call, the paper's §4 method.

No rank starts its first gap before every rank has finished MPI_Init, so
the host time until the last rank's ``main`` starts (``setup_s``) holds
set-up work only, in a full run exactly as in a set-up-only run.

A call fails when the job raises (``McastLost``, ``DeadlockError``,
``PartitionError``, anything else) before every rank finished it, when the
simulated deadline cuts it off, or when some rank got wrong bytes.  Calls
never reached because the job aborted fail too.
"""

from __future__ import annotations

import gc
import math
from dataclasses import dataclass, field
from time import perf_counter
from typing import Optional

import numpy as np

from repro import run_spmd
from repro.mpi.ops import SUM
from repro.obs import drain_recorders

from .workloads import POOL_BYTES, POOL_INTS, Call, Job

__all__ = ["JobResult", "run_job"]

#: distance between consecutive ranks' payload windows in the pools
RANK_STRIDE = 4099

#: failure label of calls that returned wrong bytes
WRONG = "WrongResult"
#: failure label of calls the simulated deadline cut off
DEADLINE = "Deadline"


@dataclass
class JobResult:
    job: Job
    wall_s: float                 #: host seconds inside run_spmd
    setup_s: float                #: host seconds until the last main started
    error: Optional[str]          #: exception type that ended the job
    latency_us: list              #: per call; ``math.inf`` if it failed
    failures: dict                #: failure label -> failed calls
    stats: dict                   #: NetStats snapshot
    events: int                   #: kernel events dispatched
    peak_live: int                #: kernel high-water of live events
    sim_end_us: float
    #: per-call records of the flight recorder (traced runs only)
    call_records: list = field(default_factory=list)

    @property
    def completed(self) -> int:
        return sum(1 for lat in self.latency_us if lat != math.inf)

    def digest(self) -> tuple:
        """Every simulated outcome of the job, for exact comparison."""
        return (self.job.name, self.error, self.sim_end_us, self.events,
                self.peak_live, tuple(self.latency_us),
                tuple(sorted(self.failures.items())),
                tuple(sorted((k, tuple(sorted(v.items()))
                              if isinstance(v, dict) else v)
                             for k, v in self.stats.items())))


def _window(start: int, rank: int, length: int, pool_len: int) -> int:
    return (start + rank * RANK_STRIDE) % max(1, pool_len - length)


class _Oracle:
    """Each rank's argument and expected result of every call, from the
    job's seeded pools."""

    def __init__(self, job: Job):
        self.n = job.n
        self.raw, self.ints = job.pools()
        self._sums: dict = {}

    def block(self, call: Call, rank: int, nbytes: int) -> bytes:
        lo = _window(call.offset, rank, nbytes, POOL_BYTES)
        return self.raw[lo:lo + nbytes]

    def vector(self, call: Call, rank: int) -> np.ndarray:
        k = max(1, call.size // 8)
        lo = _window(call.offset, rank, k, POOL_INTS)
        return self.ints[lo:lo + k].copy()

    def vector_sum(self, index: int, call: Call) -> np.ndarray:
        if index not in self._sums:
            self._sums[index] = np.sum(
                [self.vector(call, r) for r in range(self.n)], axis=0)
        return self._sums[index]

    def argument(self, call: Call, rank: int):
        op, n = call.op, self.n
        if op == "bcast":
            return (self.block(call, rank, call.size)
                    if rank == call.root else None)
        if op == "scatter":
            if rank != call.root:
                return None
            return [self.block(call, r, call.size // n) for r in range(n)]
        if op in ("gather", "allgather"):
            return self.block(call, rank, call.size // n)
        if op in ("reduce", "allreduce"):
            return self.vector(call, rank)
        return None

    def check(self, index: int, call: Call, rank: int, out) -> bool:
        op, n = call.op, self.n
        if op == "barrier":
            return True
        if op == "bcast":
            return out == self.block(call, call.root, call.size)
        if op == "scatter":
            return out == self.block(call, rank, call.size // n)
        if op == "gather" and rank != call.root:
            return out is None
        if op in ("gather", "allgather"):
            nb = call.size // n
            return (isinstance(out, list) and len(out) == n
                    and all(out[r] == self.block(call, r, nb)
                            for r in range(n)))
        if op == "reduce" and rank != call.root:
            return out is None
        expect = self.vector_sum(index, call)
        return (isinstance(out, np.ndarray) and out.shape == expect.shape
                and bool(np.array_equal(out, expect)))


def _invoke(comm, call: Call, arg):
    op = call.op
    if op == "barrier":
        return comm.barrier()
    if op == "reduce":
        return comm.reduce(arg, SUM, call.root)
    if op == "allreduce":
        return comm.allreduce(arg, SUM)
    if op == "allgather":
        return comm.allgather(arg)
    return getattr(comm, op)(arg, call.root)


class _Progress:
    """Host-side ledger the ranks write into while the job runs."""

    def __init__(self, job: Job):
        ncalls = len(job.calls)
        self.main_start = [None] * job.n
        self.started = 0
        self.all_started = None       #: sim event: every main has started
        self.latency = [0.0] * ncalls
        self.done = [0] * ncalls
        self.wrong: set[int] = set()


def _program(job: Job, oracle: Optional[_Oracle], progress: _Progress):
    calls = job.calls

    def main(env):
        progress.main_start[env.rank] = perf_counter()
        if oracle is None:          # a set-up-only pass
            return None
        comm, rank, sim = env.comm, env.rank, env.sim
        if progress.all_started is None:
            progress.all_started = sim.event()
        progress.started += 1
        if progress.started == job.n:
            progress.all_started.succeed()
        else:
            yield progress.all_started
        impl_now: dict = {}
        for i, call in enumerate(calls):
            yield sim.timeout(call.gaps[rank])
            if impl_now.get(call.op) != call.impl:
                comm.use_collectives(**{call.op: call.impl})
                impl_now[call.op] = call.impl
            arg = oracle.argument(call, rank)
            t0 = sim.now
            out = yield from _invoke(comm, call, arg)
            elapsed = sim.now - t0
            if elapsed > progress.latency[i]:
                progress.latency[i] = elapsed
            if not oracle.check(i, call, rank, out):
                progress.wrong.add(i)
            progress.done[i] += 1
        return None

    return main


def run_job(job: Job, setup_only: bool = False,
            traced: bool = False) -> JobResult:
    """Run ``job`` once.  ``setup_only`` stops every rank right after
    MPI_Init; ``traced`` collects the flight recorder's per-call records
    (the caller sets ``REPRO_TRACE=1``)."""
    oracle = None if setup_only else _Oracle(job)
    progress = _Progress(job)
    main = _program(job, oracle, progress)
    gc.collect()
    error = None
    t_enter = perf_counter()
    try:
        result = run_spmd(job.n, main, topology=job.topology,
                          params=job.params, seed=job.seed,
                          max_sim_us=job.max_sim_us, strict_deadlock=True)
        cluster = result.cluster
    except Exception as exc:  # every failure is a counted outcome
        cluster = getattr(exc, "repro_cluster", None)
        if cluster is None:
            raise                # failed before the cluster existed
        error = type(exc).__name__
    wall = perf_counter() - t_enter
    starts = progress.main_start
    setup = (max(starts) - t_enter) if all(s is not None for s in starts) \
        else wall
    records = []
    if traced:
        for rec in drain_recorders():
            # a call that a failure or the deadline cut short never
            # reached collective_end: its record is still open on the
            # host's stack (FlightRecorder.frame_totals counts it too)
            still_open = [call for addr in sorted(rec._stack_of)
                          for call in rec._stack_of[addr]]
            records.extend(call.as_dict()
                           for call in [*rec.calls, *still_open])

    latency: list = []
    failures: dict = {}
    n = job.n
    for i in range(0 if setup_only else len(job.calls)):
        if progress.done[i] == n and i not in progress.wrong:
            latency.append(progress.latency[i])
            continue
        latency.append(math.inf)
        label = (WRONG if progress.done[i] == n else error or DEADLINE)
        failures[label] = failures.get(label, 0) + 1
    return JobResult(job=job, wall_s=wall, setup_s=setup, error=error,
                     latency_us=latency, failures=failures,
                     stats=cluster.stats.snapshot(),
                     events=cluster.sim.processed,
                     peak_live=cluster.sim.peak_live,
                     sim_end_us=cluster.sim.now, call_records=records)
