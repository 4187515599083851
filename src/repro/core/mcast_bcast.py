"""MPI_Bcast over IP multicast — the paper's §3.1.

Four registered implementations:

* ``mcast-binary`` — scout sync up a binary tree, then **one** multicast
  of the payload.  Total frames: ``(N-1) + floor(M/T) + 1``;
* ``mcast-linear`` — scout sync with all receivers hitting the root
  directly, then one multicast.  Same frame count, more sequential steps
  at the root;
* ``mcast-naive`` — *no* synchronization: the root multicasts
  immediately.  Correct only if every receiver posted in time; a slow
  receiver silently loses the message (the unreliability the paper's
  §2 explains).  Kept as the negative baseline;
* ``mcast-ack`` — the PVM approach the paper cites ([2], Dunigan & Hall):
  multicast immediately, collect per-receiver acks, retransmit the whole
  payload on timeout until everyone acked.  Reliable, but the paper notes
  it "did not produce improvement in performance" — the retransmissions
  and the ack implosion at the root eat the multicast win.  The
  ``paper`` sweep area's ``ablation-reliability`` family reproduces
  that verdict.

A fifth implementation, ``mcast-seg-nack`` (:mod:`repro.core.segment`),
addresses exactly the weakness that sinks ``mcast-ack`` at large
payloads: it fragments the payload into single-frame segments sized by
``NetParams.segment_bytes``, streams them back-to-back, and repairs
losses with selective per-segment NACK retransmission instead of
re-multicasting everything.  Loss-free it costs
``1 + 4(N-1) + ceil(M / segment_bytes)`` frames (header multicast, four
scout/report/decision sweeps, one frame per segment — the full formula,
including repair rounds, is derived in the segment module's docstring
and exported as :func:`repro.core.segment.seg_nack_frame_count`).

Invariant shared by binary/linear (the paradigm-mismatch fix): every
receiver **posts its multicast receive before releasing its scout**, so
by the time the root has gathered all scouts, a multicast cannot find an
unready receiver.
"""

from __future__ import annotations

from typing import Any, Generator

from ..mpi.collective.registry import register
from ..mpi.datatypes import payload_bytes
from .rounds import McastLost
from .scout import scout_gather_binary, scout_gather_linear

__all__ = ["bcast_mcast_binary", "bcast_mcast_linear", "bcast_mcast_naive",
           "bcast_mcast_ack", "McastLost"]


def _bcast_scouted(comm, obj: Any, root: int, gather) -> Generator:
    """Common scout-then-multicast skeleton for binary and linear."""
    channel = comm.mcast
    seq = channel.next_seq()
    if comm.size == 1:
        return obj

    if comm.rank == root:
        yield from gather(comm, channel, seq, root)
        yield from channel.send_data(obj, payload_bytes(obj), seq)
        return obj

    posted = channel.post_data()          # BEFORE the scout: the invariant
    yield from gather(comm, channel, seq, root)
    src, got_seq, data = yield from channel.wait_data(posted)
    if got_seq != seq or src != root:  # pragma: no cover - protocol guard
        raise AssertionError(
            f"rank {comm.rank} expected bcast (root={root}, seq={seq}), "
            f"got (root={src}, seq={got_seq}) — unsafe MPI code?")
    return data


@register("bcast", "mcast-binary")
def bcast_mcast_binary(comm, obj: Any, root: int = 0) -> Generator:
    """Binary-tree scout sync + single IP multicast (paper Fig. 3)."""
    result = yield from _bcast_scouted(comm, obj, root,
                                       scout_gather_binary)
    return result


@register("bcast", "mcast-linear")
def bcast_mcast_linear(comm, obj: Any, root: int = 0) -> Generator:
    """Linear scout sync + single IP multicast (paper Fig. 4)."""
    result = yield from _bcast_scouted(comm, obj, root,
                                       scout_gather_linear)
    return result


@register("bcast", "mcast-naive")
def bcast_mcast_naive(comm, obj: Any, root: int = 0) -> Generator:
    """Unsynchronized multicast: loses messages when receivers are slow.

    If ``comm.mcast.naive_timeout_us`` is set, a losing receiver raises
    :class:`McastLost`; otherwise it blocks forever (surfacing as
    :class:`~repro.simnet.kernel.DeadlockError` at simulation end).
    """
    channel = comm.mcast
    seq = channel.next_seq()
    if comm.size == 1:
        return obj

    if comm.rank == root:
        yield from channel.send_data(obj, payload_bytes(obj), seq)
        return obj

    posted = channel.post_data()
    if channel.naive_timeout_us is not None:
        timer = comm.sim.timeout(channel.naive_timeout_us)
        yield comm.sim.any_of([posted, timer])
        if not posted.triggered:
            channel.data_sock.cancel_recv(posted)
            raise McastLost(comm.rank, seq)
    src, got_seq, data = yield from channel.wait_data(posted)
    if got_seq != seq:
        raise McastLost(comm.rank, seq)
    return data


@register("bcast", "mcast-ack")
def bcast_mcast_ack(comm, obj: Any, root: int = 0) -> Generator:
    """PVM-style sender-reliable multicast: ack + retransmit (paper [2]).

    The root multicasts, then waits for an ack from every receiver,
    re-multicasting the **full payload** each ``ack_timeout_us`` until all
    acks arrive (bounded by ``max_retransmits``).  Receivers that missed
    an earlier copy are caught by a retransmission; duplicates are
    discarded by sequence check.
    """
    channel = comm.mcast
    params = comm.host.params
    seq = channel.next_seq()
    if comm.size == 1:
        return obj

    if comm.rank == root:
        nbytes = payload_bytes(obj)
        yield from channel.send_data(obj, nbytes, seq)
        missing = {r for r in range(comm.size) if r != root}
        attempts = 0
        while missing:
            missing = yield from channel.wait_scouts(
                missing, seq, phase="ack",
                timeout_us=params.ack_timeout_us)
            if missing:
                attempts += 1
                if attempts > params.max_retransmits:
                    raise McastLost(comm.rank, seq, reason=(
                        f"bcast_mcast_ack: gave up after {attempts - 1} "
                        f"retransmits; unreachable ranks "
                        f"{sorted(missing)}"))
                yield from channel.send_data(obj, nbytes, seq,
                                             retransmit=True)
        return obj

    # Receiver: keep posting until our sequence number arrives (stale
    # retransmissions of earlier broadcasts are discarded).
    while True:
        posted = channel.post_data()
        src, got_seq, data = yield from channel.wait_data(posted)
        if got_seq == seq and src == root:
            break
    yield from channel.send_scout(root, seq, phase="ack")
    return data
