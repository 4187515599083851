"""The MPI "world": endpoints, context-id allocation, COMM_WORLD.

One :class:`MpiWorld` exists per simulated job.  It owns an
:class:`~repro.mpi.p2p.MpiEndpoint` per host and hands out context ids.

Context-id agreement note: real MPICH agrees on new context ids with a
collective; here the world object *is* the agreed outcome (allocation is
deterministic and shared), while the communication cost of agreement is
still paid — ``dup``/``split`` perform a real allgather + broadcast +
barrier over the simulated network.  DESIGN.md §7 records this deviation.
"""

from __future__ import annotations

from ..simnet.topology import Cluster
from .communicator import Communicator
from .p2p import DEFAULT_EAGER_THRESHOLD, MpiEndpoint

__all__ = ["MpiWorld"]


class MpiWorld:
    """Job-wide MPI state over a simulated cluster."""

    def __init__(self, cluster: Cluster,
                 eager_threshold: int = DEFAULT_EAGER_THRESHOLD):
        self.cluster = cluster
        self.sim = cluster.sim
        self.endpoints: dict[int, MpiEndpoint] = {
            host.addr: MpiEndpoint(host, eager_threshold)
            for host in cluster.hosts
        }
        self._next_ctx = 1  # ctx 0 is COMM_WORLD
        # every communicator handed out, for shutdown(); Communicator
        # registers itself and free() is idempotent, so double frees
        # are harmless
        self._comms: list[Communicator] = []
        # hierarchical sub-channel slabs: ctx -> (group base, port base,
        # group count, live holders); see alloc_hier_slab
        self._hier_slabs: dict[int, list] = {}
        self._hier_free: list[tuple[int, int, int]] = []
        self._hier_next: "tuple[int, int] | None" = None
        #: COMM_WORLD's member addresses, one tuple every rank shares
        self._world_ranks = tuple(host.addr for host in cluster.hosts)
        #: member-address tuple -> the communicator's hierarchy layout,
        #: computed once for all ranks (see
        #: :func:`repro.mpi.collective.hier.segment_layout`)
        self.layouts: dict[tuple, object] = {}

    # -- context ids -----------------------------------------------------
    def alloc_ctx(self) -> int:
        ctx = self._next_ctx
        self._next_ctx += 1
        return ctx

    def alloc_hier_slab(self, ctx: int, ngroups: int, group_base: int,
                        port_base: int) -> tuple[int, int]:
        """Reserve a (multicast-group-id, UDP-port) slab for one
        communicator's hierarchical sub-channels.

        Every member of a communicator builds its hierarchy lazily at
        the *same* collective moment and must derive identical group
        ids and ports without communicating; the shared world object is
        the deterministic allocator: the first rank to ask for a
        context's slab reserves ``ngroups`` consecutive group ids and
        ``2 * ngroups`` consecutive ports (data + scout per group), and
        every later caller reads the same reservation back.  Slabs are
        sized by the hierarchy actually built (leaf groups plus the
        recursive leader groups, :mod:`repro.mpi.collective.hier`), and
        recycled once every holder has freed its communicator
        (:meth:`free_hier_slab`), so neither deep fabrics nor
        long-lived jobs that churn communicators exhaust the port
        space.
        """
        if ctx in self._hier_slabs:
            entry = self._hier_slabs[ctx]
            group, port, n = entry[0], entry[1], entry[2]
            if n != ngroups:  # pragma: no cover - defensive
                raise AssertionError(
                    f"ctx {ctx} asked for {ngroups} hier groups but its "
                    f"slab was reserved for {n} — the hierarchy layout "
                    f"must be rank-invariant")
            entry[3] += 1
            return group, port
        for i, (group, port, n) in enumerate(self._hier_free):
            if n >= ngroups:
                del self._hier_free[i]
                self._hier_slabs[ctx] = [group, port, ngroups, 1]
                return group, port
        if self._hier_next is None:
            self._hier_next = (group_base, port_base)
        group, port = self._hier_next
        if port + 2 * ngroups > 65536:
            raise RuntimeError(
                f"out of UDP port space for hierarchical sub-channels "
                f"(ctx {ctx} needs {2 * ngroups} ports at {port})")
        self._hier_slabs[ctx] = [group, port, ngroups, 1]
        self._hier_next = (group + ngroups, port + 2 * ngroups)
        return group, port

    def free_hier_slab(self, ctx: int) -> None:
        """Release one holder's claim on a context's hier slab.

        Called by each rank's ``HierState.close()``; when the last
        holder lets go (every member freed its communicator, so no
        socket is bound on the slab's ports any more) the slab joins
        the free list and later communicators reuse it instead of
        marching the port space forward forever.
        """
        entry = self._hier_slabs.get(ctx)
        if entry is None:  # pragma: no cover - defensive
            return
        entry[3] -= 1
        if entry[3] <= 0:
            del self._hier_slabs[ctx]
            self._hier_free.append((entry[0], entry[1], entry[2]))

    def alloc_ctx_range(self, n: int) -> int:
        """Reserve ``n`` consecutive context ids; returns the first."""
        if n < 1:
            raise ValueError(f"need at least one ctx, got {n}")
        base = self._next_ctx
        self._next_ctx += n
        return base

    # -- lifecycle -------------------------------------------------------
    def register_comm(self, comm: Communicator) -> None:
        """Track a communicator so :meth:`shutdown` can free it."""
        self._comms.append(comm)

    def shutdown(self) -> None:
        """MPI_Finalize analogue: free every communicator (emitting the
        IGMP leaves for their multicast channels) and close every
        endpoint.  Idempotent; used by the ``REPRO_SANITIZE`` teardown
        (:mod:`repro.runtime.sanitize`) to prove the job leaks nothing.
        The caller still has to run the simulator afterwards so the
        close/leave events propagate."""
        for comm in self._comms:
            comm.free()
        self._comms.clear()
        for endpoint in self.endpoints.values():
            endpoint.close()

    # -- communicators ------------------------------------------------------
    def comm_world(self, rank: int) -> Communicator:
        """Rank ``rank``'s COMM_WORLD view (ranks = host addresses 0..n-1)."""
        return Communicator(self, ctx=0, rank=rank,
                            ranks=self._world_ranks)
