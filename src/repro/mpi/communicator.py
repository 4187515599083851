"""Communicators: rank groups, context ids, and the user-facing MPI API.

The API follows the mpi4py conventions from the guides — ``Get_rank`` /
``Get_size``, lowercase methods for generic Python objects, uppercase
methods for NumPy buffers — except that, because ranks are simulated
processes, every blocking call is a generator used with ``yield from``::

    def main(env):
        comm = env.comm
        data = {"a": 7} if comm.rank == 0 else None
        data = yield from comm.bcast(data, root=0)
        yield from comm.barrier()

Collective algorithms are *pluggable* (see
:mod:`repro.mpi.collective.registry`): ``comm.use_collectives(
bcast="mcast-binary", barrier="mcast")`` switches a communicator from the
MPICH baselines to the paper's IP-multicast implementations.

Each communicator owns two hidden context ids (user p2p and collective
traffic, like MPICH) and — for the multicast path — one IP multicast
group address plus data/scout sockets, wrapped in a
:class:`repro.core.channel.McastChannel`.
"""

from __future__ import annotations

from typing import Any, Generator, Optional, Sequence

import numpy as np

from ..simnet.host import Host
from .collective.policy import AUTO, AUTO_CHOICES, resolve_auto
from .collective.registry import DEFAULTS, get_impl
from .datatypes import payload_bytes
from .ops import Op
from .p2p import MpiEndpoint
from .status import ANY_SOURCE, ANY_TAG, Request, Status

__all__ = ["Communicator", "UNDEFINED"]

#: color value excluding a rank from a split (MPI_UNDEFINED)
UNDEFINED = None


class Communicator:
    """One rank's view of a process group."""

    def __init__(self, world, ctx: int, rank: int, ranks: Sequence[int]):
        self.world = world
        self.ctx = ctx
        self.rank = rank
        #: host address per rank; a tuple, so ranks holding the same
        #: member set share one key into the world's topology memos
        self.ranks = tuple(ranks)
        self.endpoint: MpiEndpoint = world.endpoints[ranks[rank]]
        self.host: Host = self.endpoint.host
        self.sim = self.host.sim
        self._impls = dict(DEFAULTS)
        self._policy = None
        self._mcast = None
        #: lazily-built hierarchy state (segment map, leaders, and the
        #: per-segment/leaders multicast sub-channels) for the
        #: ``hier-mcast`` collectives; see :mod:`repro.mpi.collective.hier`
        self._hier = None
        #: cached auto-policy topology (``False`` = not yet computed;
        #: ``None`` = single-segment; else a policy ``TopoInfo``)
        self._topo_info = False
        self._freed = False
        #: chronological (op, args-signature) log of collective calls on
        #: this communicator — the raw material for the paper's §4
        #: safety check (see RunResult.verify_safe_schedules)
        self.call_log: list[tuple] = []
        #: chronological (op, resolved impl name) log — how the "auto"
        #: policy layer's per-call choices are observed by tests/benches
        self.impl_log: list[tuple[str, str]] = []
        #: per-collective-call metric records (plain dicts, see
        #: :mod:`repro.obs.metrics`) — populated only when a flight
        #: recorder is attached (``REPRO_TRACE=1``), one entry per
        #: dispatched collective, in completion order next to
        #: :attr:`impl_log`
        self.metrics_log: list[dict] = []
        world.register_comm(self)

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        return len(self.ranks)

    def Get_rank(self) -> int:
        return self.rank

    def Get_size(self) -> int:
        return self.size

    def addr_of(self, rank: int) -> int:
        """Host address of a rank (the device-level destination)."""
        return self.ranks[rank]

    @property
    def ctx_pt2pt(self) -> int:
        return 2 * self.ctx

    @property
    def ctx_coll(self) -> int:
        return 2 * self.ctx + 1

    # ------------------------------------------------------------------
    # collective implementation selection
    # ------------------------------------------------------------------
    def use_collectives(self, **ops: str) -> "Communicator":
        """Select implementations, e.g. ``bcast="mcast-binary"``.

        The pseudo-name ``"auto"`` defers the choice to the payload-aware
        policy layer (:mod:`repro.mpi.collective.policy`), which resolves
        the implementation per call from the payload size and the
        process count.

        Returns self for chaining.  Raises KeyError for unknown names so
        misconfiguration fails loudly.
        """
        for op, name in ops.items():
            if name == AUTO:
                if op not in AUTO_CHOICES:
                    raise KeyError(
                        f"no auto selection policy for collective "
                        f"{op!r}; auto-capable ops: "
                        f"{sorted(AUTO_CHOICES)}")
            else:
                get_impl(op, name)   # validate now
            self._impls[op] = name
        return self

    def set_collective_policy(self, policy) -> "Communicator":
        """Install a per-call selection hook replacing the static table.

        ``policy(comm, op, name, args) -> impl name`` sees every
        collective dispatch with the statically configured ``name`` and
        the call's positional args; whatever registered name it returns
        is dispatched (``"auto"`` falls through to the payload-aware
        resolution).  ``None`` removes the hook.  Returns self.
        """
        self._policy = policy
        return self

    def _dispatch(self, op: str, *args) -> Generator:
        name = self._impls[op]
        if self._policy is not None:
            name = self._policy(self, op, name, args)
        if name == AUTO:
            name = yield from resolve_auto(self, op, args)
        fn = get_impl(op, name)
        self.call_log.append((op, self.ctx, self._call_signature(op, args)))
        self.impl_log.append((op, name))
        rec = self.host.stats.recorder
        if rec is None:
            result = yield from fn(self, *args)
            return result
        token = rec.collective_begin(self.sim.now, self.host.addr,
                                     self.rank, op, name)
        try:
            result = yield from fn(self, *args)
        finally:
            record = rec.collective_end(self.sim.now, token)
            if record is not None:
                self.metrics_log.append(record)
        return result

    #: which positional args of each collective are rank-invariant and
    #: belong in the §4 safety signature (payloads never do — they
    #: legitimately differ per rank).  Index is into the *args tuple
    #: passed to _dispatch (i.e. without the communicator itself).
    _SIGNATURE_ARGS: dict[str, tuple[int, ...]] = {
        "bcast": (1,),            # (obj, root)
        "barrier": (),
        "reduce": (1, 2),         # (obj, op, root)
        "allreduce": (1,),        # (obj, op)
        "gather": (1,),           # (obj, root)
        "scatter": (1,),          # (objs, root)
        "allgather": (),
        "alltoall": (),
        "scan": (1,),
        "exscan": (1,),
        "reduce_scatter": (1,),
    }

    @classmethod
    def _call_signature(cls, op: str, args: tuple) -> tuple:
        """Rank-invariant descriptor of a collective call (roots and
        reduction-operator names, never payloads)."""
        sig = []
        for idx in cls._SIGNATURE_ARGS.get(op, ()):
            if idx >= len(args):
                continue
            a = args[idx]
            sig.append(a.name if isinstance(a, Op) else a)
        return tuple(sig)

    # ------------------------------------------------------------------
    # the multicast channel (lazy; touched eagerly during comm setup)
    # ------------------------------------------------------------------
    @property
    def mcast(self):
        """The per-communicator multicast channel (group + sockets)."""
        if self._mcast is None:
            from ..core.channel import McastChannel  # avoid import cycle
            self._mcast = McastChannel(self)
        return self._mcast

    # ------------------------------------------------------------------
    # point-to-point (user context)
    # ------------------------------------------------------------------
    def isend(self, obj: Any, dest: int, tag: int = 0) -> Request:
        self._check_rank(dest)
        return self.endpoint.isend(self.ctx_pt2pt, self.rank,
                                   self.addr_of(dest), obj,
                                   payload_bytes(obj), tag)

    def irecv(self, source: int = ANY_SOURCE,
              tag: int = ANY_TAG) -> Request:
        if source != ANY_SOURCE:
            self._check_rank(source)
        return self.endpoint.irecv(self.ctx_pt2pt, source, tag)

    def send(self, obj: Any, dest: int, tag: int = 0) -> Generator:
        req = self.isend(obj, dest, tag)
        yield from req.wait()

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG,
             status: Optional[Status] = None) -> Generator:
        req = self.irecv(source, tag)
        data = yield from req.wait()
        if status is not None:
            status.__dict__.update(req.status.__dict__)
        return data

    def sendrecv(self, obj: Any, dest: int, sendtag: int = 0,
                 source: int = ANY_SOURCE,
                 recvtag: int = ANY_TAG) -> Generator:
        rreq = self.irecv(source, recvtag)
        sreq = self.isend(obj, dest, sendtag)
        data = yield from rreq.wait()
        yield from sreq.wait()
        return data

    def iprobe(self, source: int = ANY_SOURCE,
               tag: int = ANY_TAG) -> Optional[Status]:
        """Non-blocking probe of the unexpected-message queue."""
        if source != ANY_SOURCE:
            self._check_rank(source)
        return self.endpoint.iprobe(self.ctx_pt2pt, source, tag)

    # -- buffer-based p2p (uppercase, mpi4py-style) -------------------------
    def Send(self, buf: np.ndarray, dest: int, tag: int = 0) -> Generator:
        yield from self.send(np.array(buf, copy=True), dest, tag)

    def Recv(self, buf: np.ndarray, source: int = ANY_SOURCE,
             tag: int = ANY_TAG,
             status: Optional[Status] = None) -> Generator:
        data = yield from self.recv(source, tag, status)
        buf[...] = data

    # ------------------------------------------------------------------
    # collective-context p2p used by algorithm implementations
    # ------------------------------------------------------------------
    def _send_coll(self, obj: Any, dest: int, tag: int,
                   nbytes: Optional[int] = None) -> Generator:
        req = self.endpoint.isend(
            self.ctx_coll, self.rank, self.addr_of(dest), obj,
            payload_bytes(obj) if nbytes is None else nbytes, tag)
        yield from req.wait()

    def _recv_coll(self, source: int, tag: int) -> Generator:
        req = self.endpoint.irecv(self.ctx_coll, source, tag)
        data = yield from req.wait()
        return data

    def _sendrecv_coll(self, obj: Any, dest: int, tag: int,
                       nbytes: Optional[int] = None,
                       src: Optional[int] = None) -> Generator:
        rreq = self.endpoint.irecv(self.ctx_coll,
                                   dest if src is None else src, tag)
        sreq = self.endpoint.isend(
            self.ctx_coll, self.rank, self.addr_of(dest), obj,
            payload_bytes(obj) if nbytes is None else nbytes, tag)
        data = yield from rreq.wait()
        yield from sreq.wait()
        return data

    # ------------------------------------------------------------------
    # collectives — lowercase (generic objects)
    # ------------------------------------------------------------------
    def bcast(self, obj: Any, root: int = 0) -> Generator:
        self._check_rank(root)
        result = yield from self._dispatch("bcast", obj, root)
        return result

    def barrier(self) -> Generator:
        yield from self._dispatch("barrier")

    def reduce(self, obj: Any, op: Op, root: int = 0) -> Generator:
        self._check_rank(root)
        result = yield from self._dispatch("reduce", obj, op, root)
        return result

    def allreduce(self, obj: Any, op: Op) -> Generator:
        result = yield from self._dispatch("allreduce", obj, op)
        return result

    def gather(self, obj: Any, root: int = 0) -> Generator:
        self._check_rank(root)
        result = yield from self._dispatch("gather", obj, root)
        return result

    def scatter(self, objs: Optional[Sequence[Any]],
                root: int = 0) -> Generator:
        self._check_rank(root)
        result = yield from self._dispatch("scatter", objs, root)
        return result

    def allgather(self, obj: Any) -> Generator:
        result = yield from self._dispatch("allgather", obj)
        return result

    def alltoall(self, objs: Sequence[Any]) -> Generator:
        result = yield from self._dispatch("alltoall", objs)
        return result

    def scan(self, obj: Any, op: Op) -> Generator:
        result = yield from self._dispatch("scan", obj, op)
        return result

    def exscan(self, obj: Any, op: Op) -> Generator:
        """Exclusive prefix reduction (rank 0 receives None)."""
        result = yield from self._dispatch("exscan", obj, op)
        return result

    def reduce_scatter(self, objs: Sequence[Any], op: Op) -> Generator:
        """Elementwise reduce of ``objs`` then scatter block r to rank r."""
        result = yield from self._dispatch("reduce_scatter", objs, op)
        return result

    # ------------------------------------------------------------------
    # collectives — uppercase (NumPy buffers)
    # ------------------------------------------------------------------
    def Bcast(self, buf: np.ndarray, root: int = 0) -> Generator:
        if self.rank == root:
            yield from self.bcast(np.array(buf, copy=True), root)
        else:
            data = yield from self.bcast(None, root)
            buf[...] = data

    def Barrier(self) -> Generator:
        yield from self.barrier()

    def Reduce(self, sendbuf: np.ndarray, recvbuf: Optional[np.ndarray],
               op: Op, root: int = 0) -> Generator:
        result = yield from self.reduce(np.array(sendbuf, copy=True),
                                        op, root)
        if self.rank == root:
            recvbuf[...] = result

    def Allreduce(self, sendbuf: np.ndarray, recvbuf: np.ndarray,
                  op: Op) -> Generator:
        result = yield from self.allreduce(np.array(sendbuf, copy=True), op)
        recvbuf[...] = result

    def Gather(self, sendbuf: np.ndarray, recvbuf: Optional[np.ndarray],
               root: int = 0) -> Generator:
        parts = yield from self.gather(np.array(sendbuf, copy=True), root)
        if self.rank == root:
            recvbuf[...] = np.stack(parts)

    def Scatter(self, sendbuf: Optional[np.ndarray], recvbuf: np.ndarray,
                root: int = 0) -> Generator:
        parts = None
        if self.rank == root:
            parts = [np.array(row, copy=True) for row in sendbuf]
        mine = yield from self.scatter(parts, root)
        recvbuf[...] = mine

    def Allgather(self, sendbuf: np.ndarray,
                  recvbuf: np.ndarray) -> Generator:
        parts = yield from self.allgather(np.array(sendbuf, copy=True))
        recvbuf[...] = np.stack(parts)

    # ------------------------------------------------------------------
    # communicator construction
    # ------------------------------------------------------------------
    def dup(self) -> Generator:
        """Collective: duplicate this communicator (fresh contexts)."""
        if self.rank == 0:
            ctx = self.world.alloc_ctx()
        else:
            ctx = None
        ctx = yield from self._dispatch("bcast", ctx, 0)
        new = Communicator(self.world, ctx, self.rank, self.ranks)
        new._impls = dict(self._impls)
        new._policy = self._policy
        yield from new._setup()
        return new

    def split(self, color: Optional[int], key: int = 0) -> Generator:
        """Collective: partition ranks by ``color``, order by ``key``.

        Ranks passing ``color=None`` (MPI_UNDEFINED) get ``None`` back.
        """
        entries = yield from self._dispatch(
            "allgather", (color, key, self.rank))
        colors = sorted({c for c, _k, _r in entries if c is not None})
        if self.rank == 0:
            base = self.world.alloc_ctx_range(max(len(colors), 1))
        else:
            base = None
        base = yield from self._dispatch("bcast", base, 0)
        if color is None:
            return None
        members = sorted(((k, r) for c, k, r in entries if c == color))
        new_ranks = [self.ranks[r] for _k, r in members]
        my_new_rank = [r for _k, r in members].index(self.rank)
        ctx = base + colors.index(color)
        new = Communicator(self.world, ctx, my_new_rank, new_ranks)
        new._impls = dict(self._impls)
        new._policy = self._policy
        yield from new._setup()
        return new

    def _setup(self) -> Generator:
        """Join the multicast group, then sync so joins are visible.

        The barrier runs over point-to-point (always safe); when it
        completes, every member's IGMP join has traversed its uplink —
        the switch snooped it before any subsequent multicast data frame
        can arrive (FIFO per link).
        """
        _ = self.mcast  # force group join now
        from .collective.barrier_p2p import barrier_mpich
        yield from barrier_mpich(self)

    def free(self) -> None:
        """Release multicast resources (idempotent).

        Closing the channels emits one IGMP leave per joined group, so
        the switches' snooped member sets shrink and no stale group
        entry keeps forwarding frames toward this communicator.
        """
        if self._freed:
            return
        self._freed = True
        if self._mcast is not None:
            self._mcast.close()
            self._mcast = None
        if self._hier is not None:
            self._hier.close()
            self._hier = None

    # ------------------------------------------------------------------
    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.size:
            raise ValueError(
                f"rank {rank} out of range for communicator of size "
                f"{self.size}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Communicator ctx={self.ctx} rank={self.rank}/"
                f"{self.size}>")
