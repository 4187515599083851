"""The per-communicator multicast channel.

Binds an MPI communicator to one IP multicast group (paper §4: one group
per process group / context) plus two sockets on every member host:

* the **data socket** — joined to the group, ``posted_only``: a multicast
  datagram is delivered only if the receive was already posted, the
  paper's readiness model.  ``IP_MULTICAST_LOOP`` is off so the root does
  not consume its own broadcast;
* the **scout socket** — an ordinary buffered UDP socket carrying the
  small synchronization messages (scouts, barrier-release acks, PVM-style
  acks).  Scouts are matched by ``(source rank, sequence, phase)`` with a
  stash for early arrivals from ranks that have raced ahead.

Every collective call advances the channel's **sequence number**; because
MPI code must be *safe* (all ranks issue collectives on a communicator in
the same order — paper §4), sequence numbers advance identically
everywhere and stale traffic is detectable.  The stash is bounded: scouts
for sequences that already completed, and duplicates of pairs the current
wait has already satisfied, are purged instead of accumulating across
collectives.

For payloads larger than one MTU the channel also speaks *segments*
(:mod:`repro.core.segment`): descriptors are posted in batches
(:meth:`McastChannel.post_data_many`), each ``mcast-seg`` datagram
carries one segment or a *batch* of consecutive segments (each with its
own per-segment envelope), and the NACK-repair control plane (per-round
receiver reports, root decisions) rides the buffered scout socket so it
is immune to the posted-only discipline.  Reports additionally carry the
receiver's descriptor budget (:attr:`McastChannel.recv_budget`), the
feedback the root's rate pacing adapts its burst length to.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from ..simnet.frame import mcast_mac
from ..simnet.kernel import Event

__all__ = ["McastChannel", "GROUP_ID_BASE", "DATA_PORT_BASE",
           "SCOUT_PORT_BASE", "SCOUT_BYTES", "MCAST_HEADER_BYTES",
           "SEG_HEADER_BYTES"]

#: multicast group-id space reserved for communicators (above the
#: cluster-level GroupAllocator's small ids)
GROUP_ID_BASE = 1 << 16

DATA_PORT_BASE = 20000
SCOUT_PORT_BASE = 40000

#: wire payload of a scout message ("no data": just rank+seq encoding)
SCOUT_BYTES = 4

#: envelope bytes prepended to multicast data (root, seq)
MCAST_HEADER_BYTES = 8

#: extra envelope bytes on a *segment* frame (segment index, total
#: segment count) — on top of MCAST_HEADER_BYTES
SEG_HEADER_BYTES = 4


def _members_trunk_path(comm) -> tuple[int, float]:
    """Worst trunk path between any two members of a communicator view:
    ``(hops, wire µs per payload byte across those hops)``.

    The per-byte term weighs every hop by its own *tier's* trunk rate
    (:meth:`~repro.simnet.fabric.Fabric.trunk_params_for`), so a slow
    backbone under fast edges stretches the drain timeout exactly as
    much as it stretches the store-and-forward path — sizing it from
    the edge rate alone would re-create the premature-NACK livelock on
    any fabric whose trunks are slower than its access links.  The
    cluster memoizes the answer per member tuple
    (:meth:`~repro.simnet.topology.Cluster.trunk_diameter`), so every
    rank after the first reads it back.  ``(0, 0.0)`` when the view
    cannot reach a cluster topology (the real-socket validation stack)
    or on flat builds.
    """
    world = getattr(comm, "world", None)
    if world is None:
        world = getattr(getattr(comm, "parent", None), "world", None)
    cluster = getattr(world, "cluster", None)
    if cluster is None:
        return 0, 0.0
    return cluster.trunk_diameter(comm.ranks)


class McastChannel:
    """Multicast transport for one communicator, on one rank.

    ``comm`` may be a full :class:`~repro.mpi.communicator.Communicator`
    or any *communicator view* exposing ``rank`` / ``size`` / ``ranks``
    (the member host addresses, a tuple) / ``addr_of`` / ``host`` /
    ``sim`` (the hierarchical collectives bind channels to
    segment-local views, see :mod:`repro.mpi.collective.hier`).  The
    default group address and ports derive from ``comm.ctx``; explicit
    ``group`` / ``data_port`` / ``scout_port`` override them for
    channels that subdivide one communicator (per-segment groups, the
    leaders' group).
    """

    def __init__(self, comm, group: Optional[int] = None,
                 data_port: Optional[int] = None,
                 scout_port: Optional[int] = None):
        self.comm = comm
        self.host = comm.host
        self.sim = comm.sim
        self.params = self.host.params
        self.group = (mcast_mac(GROUP_ID_BASE + comm.ctx)
                      if group is None else group)
        self.data_port = (DATA_PORT_BASE + comm.ctx
                          if data_port is None else data_port)
        self.scout_port = (SCOUT_PORT_BASE + comm.ctx
                           if scout_port is None else scout_port)
        self.data_sock = self.host.socket(self.data_port, posted_only=True,
                                          mcast_loop=False)
        self.scout_sock = self.host.socket(self.scout_port)
        self.data_sock.join(self.group)
        self.seq = 0
        #: the members' trunk diameter — the most switch-to-switch hops
        #: any sender-receiver pair of this channel spans on a tiered
        #: fabric, and the wire time (µs per payload byte) those hops'
        #: own trunk tiers add (0 on flat clusters and single-segment
        #: groups).  The round engine's drain timeout allows one extra
        #: store-and-forward serialization per hop at the actual trunk
        #: rate, so a deep tree's far corner — even behind a slow
        #: backbone — never NACKs data that is still in flight.
        self.trunk_hops, self.trunk_us_per_byte = \
            _members_trunk_path(comm)
        self._scout_stash: list[tuple[int, int, str]] = []
        #: receive-descriptor ring size for segmented rounds (None =
        #: unbounded).  Seeded from ``NetParams.seg_recv_budget``; tests
        #: and the overrun benchmark override it per rank.
        self.recv_budget: Optional[int] = self.params.seg_recv_budget
        #: naive-bcast receive timeout (None = block, may deadlock — that
        #: is the point of the naive baseline); tests/benches set this.
        self.naive_timeout_us: Optional[float] = None
        self._closed = False

    # ------------------------------------------------------------------
    def next_seq(self) -> int:
        """Advance the collective sequence (call once per collective)."""
        self.seq += 1
        return self.seq

    # -- scouts ----------------------------------------------------------
    def send_scout(self, dst_rank: int, seq: int,
                   phase: str = "up") -> Generator:
        """Send one scout/ack to ``dst_rank`` (UDP unicast, tiny)."""
        yield from self.scout_sock.sendto(
            (self.comm.rank, seq, phase), SCOUT_BYTES,
            self.comm.addr_of(dst_rank), self.scout_port, kind="scout")

    def wait_scouts(self, src_ranks: set[int], seq: int,
                    phase: str = "up",
                    timeout_us: Optional[float] = None) -> Generator:
        """Collect scouts ``(src, seq, phase)`` from every rank in
        ``src_ranks``; returns the set of ranks still missing (empty on
        success, non-empty only if ``timeout_us`` expired).

        Early scouts for other (seq, phase) pairs are stashed, never lost.
        """
        remaining = set(src_ranks)
        self._drain_stash(remaining, seq, phase)
        satisfied: set[int] = set(src_ranks) - remaining
        deadline = (None if timeout_us is None
                    else self.sim.now + timeout_us)
        while remaining:
            budget = None
            if deadline is not None:
                budget = deadline - self.sim.now
                if budget <= 0:
                    return remaining
            dgram = yield from self.scout_sock.recv(timeout=budget)
            if dgram is None:
                return remaining
            src, s, ph = dgram.payload
            if s == seq and ph == phase and src in remaining:
                remaining.discard(src)
                satisfied.add(src)
            elif s < self.seq:
                pass    # stale: belongs to a completed collective
            elif s == seq and ph == phase and src in satisfied:
                pass    # duplicate of a scout this wait already consumed
            else:
                # Early arrival for another (seq, phase) — or for a rank
                # this call was not asked about (e.g. a sibling subtree's
                # scout racing ahead of ours in the binary gather): stash.
                self._scout_stash.append((src, s, ph))
        return remaining

    def _drain_stash(self, remaining: set[int], seq: int,
                     phase: str) -> None:
        keep = []
        for (src, s, ph) in self._scout_stash:
            if s == seq and ph == phase and src in remaining:
                remaining.discard(src)
            elif s >= self.seq:
                keep.append((src, s, ph))
            # else: stale entry from a completed collective — purge
        self._scout_stash = keep

    # -- tagged control messages (NACK repair + selection control plane) ----
    def send_tagged(self, dst_rank: int, seq: int, tag: str, rnd,
                    value, nbytes: int,
                    kind: Optional[str] = None) -> Generator:
        """Send one ``(tag, rnd, value)`` control message to ``dst_rank``.

        The generic half of :meth:`wait_tagged`: rides the buffered
        scout socket (immune to the posted-only discipline), matched by
        ``(seq, tag, rnd)``.  The segment reports/decisions and the
        "auto" implementation announcements are all instances.
        """
        yield from self.scout_sock.sendto(
            (self.comm.rank, seq, (tag, rnd, value)), nbytes,
            self.comm.addr_of(dst_rank), self.scout_port,
            kind=kind or tag)

    def send_report(self, dst_rank: int, seq: int, rnd,
                    missing, nsegs: int) -> Generator:
        """Send a per-round segment report to ``dst_rank``.

        ``missing`` is the set of segment indices this rank has not
        received after round ``rnd`` (empty = everything arrived).  The
        report also carries this rank's descriptor budget
        (:attr:`recv_budget`) — the feedback the sender's rate pacing
        adapts to.  Wire size: a scout plus an ``nsegs``-bit bitmap plus
        a 4-byte budget field.
        """
        nbytes = SCOUT_BYTES + (nsegs + 7) // 8 + 4
        value = (tuple(sorted(missing)), self.recv_budget)
        yield from self.send_tagged(dst_rank, seq, "seg-report", rnd,
                                    value, nbytes)

    def send_decision(self, dst_rank: int, seq: int, rnd,
                      segments, nsegs: int) -> Generator:
        """Tell ``dst_rank`` what round ``rnd``'s verdict is.

        ``segments`` is the sorted tuple of segment indices the root will
        re-multicast next round, or ``None`` for "done".
        """
        nbytes = SCOUT_BYTES + (nsegs + 7) // 8
        yield from self.send_tagged(dst_rank, seq, "seg-dec", rnd,
                                    segments, nbytes)

    def wait_tagged(self, src_ranks: set[int], seq: int, tag: str,
                    rnd) -> Generator:
        """Collect one ``(tag, rnd, value)`` scout-socket message from
        every rank in ``src_ranks``; returns ``{src: value}``.

        Shares the early-arrival stash with :meth:`wait_scouts` (a report
        can land while a rank is still inside a scout gather, and vice
        versa); the same staleness purge applies.
        """
        remaining = set(src_ranks)
        results: dict[int, Any] = {}

        def match(src, s, ph):
            return (s == seq and isinstance(ph, tuple) and len(ph) == 3
                    and ph[0] == tag and ph[1] == rnd and src in remaining)

        keep = []
        for (src, s, ph) in self._scout_stash:
            if match(src, s, ph):
                results[src] = ph[2]
                remaining.discard(src)
            elif s >= self.seq:
                keep.append((src, s, ph))
        self._scout_stash = keep
        while remaining:
            dgram = yield from self.scout_sock.recv()
            src, s, ph = dgram.payload
            if match(src, s, ph):
                results[src] = ph[2]
                remaining.discard(src)
            elif (s == seq and isinstance(ph, tuple) and len(ph) == 3
                    and ph[0] == tag and ph[1] == rnd and src in results):
                pass    # duplicate of a message this wait already took
            elif s >= self.seq:
                self._scout_stash.append((src, s, ph))
        return results

    # -- multicast data ----------------------------------------------------
    def post_data(self) -> Event:
        """Post the multicast receive — MUST precede the scout send."""
        return self.data_sock.post_recv()

    def post_data_many(self, n: int) -> list[Event]:
        """Post ``n`` multicast receive descriptors (one per expected
        segment) — MUST precede the arming scout."""
        return self.data_sock.post_recv_many(n)

    def cancel_data(self, posted) -> None:
        """Withdraw every untriggered descriptor in ``posted``."""
        self.data_sock.cancel_recv_all(list(posted))

    def wait_data(self, posted: Event) -> Generator:
        """Complete a posted receive: returns ``(root, seq, payload)``.

        Charges the UDP receive cost plus ``mcast_recv_extra_us`` (group
        receive validation / posted-descriptor handling) on the host CPU.
        """
        dgram = yield posted
        cost = self.data_sock.recv_cost_us
        if dgram.kind in ("mcast-data", "mcast-seg"):
            # The extra models payload validation + user-buffer delivery;
            # control multicasts (barrier release, segment headers) skip it.
            cost += self.params.mcast_recv_extra_us
        yield from self.host.cpu.use(self.host.jitter(cost))
        root, seq, payload = dgram.payload
        return root, seq, payload

    def send_data(self, payload: Any, nbytes: int, seq: int,
                  retransmit: bool = False,
                  control: bool = False,
                  kind: Optional[str] = None) -> Generator:
        """Multicast ``payload`` to the whole group in one send.

        ``control=True`` marks data-less protocol multicasts (the barrier
        release, segment headers): they skip the payload-handling extras
        and are traced as ``mcast-release`` frames unless ``kind``
        overrides the trace label.
        """
        if retransmit:
            self.host.stats.retransmissions += 1
        if not control and self.params.mcast_send_extra_us > 0:
            yield from self.host.cpu.use(
                self.host.jitter(self.params.mcast_send_extra_us))
        if kind is None:
            kind = "mcast-release" if control else "mcast-data"
        yield from self.data_sock.sendto(
            (self.comm.rank, seq, payload), nbytes + MCAST_HEADER_BYTES,
            self.group, self.data_port, kind=kind)

    def send_segment(self, segment, seq: int,
                     retransmit: bool = False) -> Generator:
        """Multicast one payload segment (kind ``mcast-seg``).

        Wire size: the segment's chunk bytes plus the data envelope plus
        the per-segment envelope (:data:`SEG_HEADER_BYTES`).
        """
        yield from self.send_data(
            segment, segment.nbytes + SEG_HEADER_BYTES, seq,
            retransmit=retransmit, kind="mcast-seg")

    def send_batch(self, segments, seq: int,
                   retransmit: bool = False) -> Generator:
        """Multicast a batch of segments as **one** ``mcast-seg`` datagram.

        A single-segment batch uses the PR 1 wire format (a bare
        :class:`~repro.core.segment.Segment` payload); a larger batch
        ships the tuple of segments in one datagram, each segment still
        paying its own :data:`SEG_HEADER_BYTES` envelope.  The receiver
        pays the per-datagram software tax **once** for the whole batch —
        that is the entire point of batching below the segment-count
        crossover.
        """
        segments = list(segments)
        if not segments:
            raise ValueError("cannot send an empty segment batch")
        if len(segments) == 1:
            yield from self.send_segment(segments[0], seq,
                                         retransmit=retransmit)
            return
        nbytes = (sum(s.nbytes for s in segments)
                  + SEG_HEADER_BYTES * len(segments))
        yield from self.send_data(tuple(segments), nbytes, seq,
                                  retransmit=retransmit, kind="mcast-seg")

    # ------------------------------------------------------------------
    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self.data_sock.close()
        self.scout_sock.close()
