"""Timing calibration for the simulated cluster.

All constants are chosen to match the paper's platform: nine Pentium-III
workstations on 100 Mbps Fast Ethernet, connected through either a 3Com
shared hub or an HP ProCurve store-and-forward switch (DESIGN.md §5).

The per-message *software* overheads dominate small-message latency in the
paper's figures (MPICH broadcast with 4 processes starts near 400 µs at
size 0), so they are first-class parameters here.  Two presets —
:data:`FAST_ETHERNET_HUB` and :data:`FAST_ETHERNET_SWITCH` — reproduce the
figures; tests assert the resulting shapes, not absolute values.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

__all__ = [
    "NetParams",
    "FAST_ETHERNET_HUB",
    "FAST_ETHERNET_SWITCH",
    "VIA_SWITCH",
    "quiet",
]


@dataclass(frozen=True)
class NetParams:
    """Every knob of the simulated platform, in µs and bytes."""

    # -- wire ------------------------------------------------------------
    rate_mbps: float = 100.0          #: link rate
    mtu: int = 1500                   #: max L2 payload (IP packet) bytes
    prop_delay_us: float = 0.5        #: cable propagation (per segment)

    # -- CSMA/CD (hub topology only) --------------------------------------
    slot_time_us: float = 5.12        #: 512 bit times at 100 Mbps
    jam_time_us: float = 3.2          #: collision jam signal
    max_attempts: int = 16            #: excessive-collision limit
    backoff_limit: int = 10           #: BEB exponent cap

    # -- switch ------------------------------------------------------------
    switch_latency_us: float = 12.0   #: lookup + scheduling per frame

    # -- host software path (per datagram) ---------------------------------
    udp_send_us: float = 48.0         #: sendto() syscall + UDP/IP stack
    udp_recv_us: float = 45.0         #: recvfrom() syscall + copy
    tcp_send_us: float = 75.0         #: MPICH ch_p4 p2p send path
    tcp_recv_us: float = 70.0         #: MPICH ch_p4 p2p recv path
    mpi_match_us: float = 8.0         #: MPI envelope matching overhead
    per_frame_rx_us: float = 4.0      #: NIC interrupt + IP input per frame
    per_frame_tx_us: float = 2.0      #: extra driver cost per extra fragment
    #: extra software on the multicast *data* path (group receive
    #: validation + posted-descriptor handling); scouts don't pay this,
    #: which reproduces the paper's cheap-barrier/dearer-bcast asymmetry
    mcast_send_extra_us: float = 15.0
    mcast_recv_extra_us: float = 45.0

    # -- protocol header sizes (bytes) --------------------------------------
    ip_header: int = 20
    udp_header: int = 8
    mpi_header: int = 24              #: our p2p envelope (ctx, src, tag, len)

    # -- stochastics ---------------------------------------------------------
    jitter_sigma: float = 0.06        #: lognormal sigma on software overheads
    socket_buffer_bytes: int = 65536  #: default UDP receive buffer

    # -- reliability knobs (ack-based multicast baseline) ---------------------
    #: PVM-style resend pacing: the sender re-multicasts the payload
    #: whenever acks have not all arrived within this interval — the
    #: "repeatedly sending the same message until acks were received" of
    #: Dunigan & Hall, whose extra data copies are why the paper found
    #: no performance gain in the approach.
    ack_timeout_us: float = 300.0
    max_retransmits: int = 40
    #: hard ceiling on NACK *repair rounds* per segmented transfer
    #: (``None`` = fall back to :attr:`max_retransmits`, the historical
    #: bound).  The round engine's drain timeout reads any silence as
    #: loss, so a receiver that can never be reached — a partitioned
    #: segment, a dead host — would otherwise keep the root spinning
    #: repair rounds for the full ``max_retransmits`` budget.  A small
    #: explicit bound converts that livelock into a crisp typed
    #: :class:`repro.core.rounds.McastLost` within a few rounds; the
    #: chaos fuzzer (:mod:`repro.chaos`) runs with this set low.
    max_repair_rounds: "int | None" = None

    # -- segmented multicast (mcast-seg-nack / mcast-seg-paced) ---------------
    #: user bytes per segment.  1460 + the 12-byte segment envelope fills
    #: exactly one UDP/IP MTU (1472 payload bytes), so every segment is a
    #: single Ethernet frame and the frame-count formula in
    #: :mod:`repro.core.segment` holds with one frame per segment.  The
    #: string ``"auto"`` selects the adaptive policy of
    #: :func:`repro.core.segment.plan_transport`: frame-sized logical
    #: segments, with the whole payload batched into a single datagram
    #: below :attr:`seg_auto_crossover` segments so small payloads never
    #: pay the per-datagram receive tax once per MTU.
    segment_bytes: "int | str" = 1460
    #: logical segments packed per ``mcast-seg`` datagram.  An int forces
    #: that batch factor; ``"auto"`` adapts it to the payload (whole
    #: payload in one datagram below the crossover) but only when
    #: ``segment_bytes`` is also ``"auto"``, so the explicit-size presets
    #: keep PR 1's one-frame-per-datagram wire behaviour.
    seg_batch: "int | str" = "auto"
    #: segment count below which the auto policy stops paying per-segment
    #: datagram taxes and ships the round as one batched datagram — the
    #: empirical ``mcast-seg-nack`` / ``mcast-ack`` latency crossover
    #: (about ten single-frame segments on the paper's platform).
    seg_auto_crossover: int = 10
    #: how long a receiver waits for the *next* expected segment before
    #: declaring the round over and NACKing what is still missing.  Must
    #: comfortably exceed the inter-segment arrival gap (wire
    #: serialization + per-segment receive software, ~200 µs at Fast
    #: Ethernet sizes) times the longest plausible run of lost segments.
    #: Since PR 3 this is the *cap*: the round engine scales the actual
    #: timeout to the round's expected serialization
    #: (:func:`repro.core.rounds.round_drain_timeout_us`), so a
    #: whole-round loss on a short round NACKs long before this.
    seg_drain_timeout_us: float = 2500.0
    #: fixed floor of the adaptive drain timeout, covering the arming
    #: skew between a leaf receiver (which starts its silence timer as
    #: soon as its scout is away) and the root (which streams only after
    #: the whole gather) plus scheduling jitter.
    seg_drain_floor_us: float = 700.0
    #: root-side inter-datagram pacing of the segment stream (paper §5:
    #: a sender overrunning a receiver's descriptor budget).  ``0`` sends
    #: back-to-back; a float inserts that many µs between data datagrams;
    #: ``"auto"`` derives the gap from the receiver software drain
    #: estimate (:meth:`seg_drain_estimate_us`).
    seg_pace_gap_us: "float | str" = 0.0
    #: when True, a root that learns from the NACK reports that some
    #: receiver runs a finite descriptor budget switches its *repair*
    #: rounds to auto-gap pacing with bursts capped at the smallest
    #: reported budget — slow receivers shrink the burst.
    seg_pace_feedback: bool = True
    #: receive-descriptor ring size receivers may hold on the multicast
    #: data socket (``None`` = unbounded, the pre-post-everything model).
    #: A finite budget turns a long unpaced burst into paper-§5 overrun:
    #: datagrams beyond the ring are dropped and must be NACK-repaired.
    seg_recv_budget: "int | None" = None
    #: per-receiver multicast data-datagram loss probability.  Wired to
    #: an actual probabilistic drop at every receiving socket: each
    #: ``mcast-seg`` datagram is dropped independently with this
    #: probability, from a per-host seeded RNG substream
    #: (``Host.loss_rng``), so lossy runs are exactly reproducible and
    #: counted in ``NetStats.drops_lossy``.  Point fault injection is
    #: still ``UdpSocket.drop_filter`` / finite ``seg_recv_budget``.
    #: The payload-aware auto policy folds the NACK-repair rounds this
    #: rate implies into its frame estimates
    #: (:func:`repro.analysis.framecount.expected_seg_repair_frames`) —
    #: on a lossy platform the selection crossover shifts toward the
    #: p2p trees and the hierarchical variants whose repairs stay off
    #: the trunks; the ``deep-fabric`` sweep area closes the loop
    #: between this prediction and the measured repair traffic.
    loss: float = 0.0

    label: str = field(default="custom", compare=False)

    # -- derived ---------------------------------------------------------
    @property
    def max_udp_payload(self) -> int:
        """User bytes that fit in the first fragment of a datagram."""
        return self.mtu - self.ip_header - self.udp_header

    @property
    def max_fragment_payload(self) -> int:
        """User bytes per subsequent IP fragment."""
        return self.mtu - self.ip_header

    def frames_for(self, user_bytes: int) -> int:
        """Number of Ethernet frames one UDP datagram of ``user_bytes`` takes.

        This matches the paper's ``floor(M/T) + 1`` model: one frame plus
        one more per full extra MTU of data.
        """
        if user_bytes < 0:
            raise ValueError(f"user_bytes must be >= 0: {user_bytes}")
        if user_bytes <= self.max_udp_payload:
            return 1
        rest = user_bytes - self.max_udp_payload
        full, part = divmod(rest, self.max_fragment_payload)
        return 1 + full + (1 if part else 0)

    def seg_drain_estimate_us(self, datagram_bytes: int) -> float:
        """Receiver software time to consume one data datagram: the
        recvfrom syscall + copy, the multicast validation/delivery extra,
        and the per-frame NIC/IP input cost of each fragment.  This is
        the budget the root's auto pacing gap must cover so a receiver
        re-posting descriptors one at a time is never overrun.
        """
        return (self.udp_recv_us + self.mcast_recv_extra_us
                + self.per_frame_rx_us * self.frames_for(datagram_bytes))


#: The paper's shared-hub platform.
FAST_ETHERNET_HUB = NetParams(label="fast-ethernet-hub")

#: The paper's switched platform (same constants; the topology object
#: decides whether frames traverse the CSMA/CD medium or the switch).
FAST_ETHERNET_SWITCH = NetParams(label="fast-ethernet-switch")

#: A VIA-style user-level network (the paper's closing future-work item:
#: "low latency protocols such as the Virtual Interface Architecture
#: standard typically require a receive descriptor to be posted before a
#: message arrives").  Kernel UDP/TCP costs collapse to a few µs of
#: doorbell + descriptor handling; the posted-receive requirement our
#: multicast data path already models becomes the *native* semantics.
#: Wire constants stay Fast-Ethernet so only the software path changes —
#: isolating exactly the effect the paper speculated about.
VIA_SWITCH = NetParams(
    label="via-switch",
    udp_send_us=8.0,
    udp_recv_us=7.0,
    tcp_send_us=10.0,        # VIA send doorbell + descriptor
    tcp_recv_us=9.0,
    mpi_match_us=2.0,
    per_frame_rx_us=1.5,
    per_frame_tx_us=0.5,
    mcast_send_extra_us=2.0,
    mcast_recv_extra_us=4.0,
    switch_latency_us=4.0,   # cut-through-ish era switch
)


def quiet(params: NetParams) -> NetParams:
    """A deterministic copy of ``params`` with all jitter disabled.

    Used by unit tests that assert exact timings and frame counts.
    """
    return replace(params, jitter_sigma=0.0, label=params.label + "-quiet")
