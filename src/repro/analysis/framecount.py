"""Closed-form frame/message counts (paper §3) and their exact
header-aware counterparts.

The paper states costs with the idealized ``floor(M/T)+1`` fragment model
(M = message bytes, T = frame capacity).  Our stack additionally carries
protocol headers (the MPI envelope on p2p messages; the 8-byte multicast
envelope), so this module offers both:

* ``paper_*``  — the formulas exactly as printed, for documentation and
  asymptotic checks;
* ``model_*``  — header-aware counts that must match the simulator's
  frame counters *exactly* (asserted in tests and the frame-count bench).
"""

from __future__ import annotations

from ..core.channel import MCAST_HEADER_BYTES
from ..mpi.collective.barrier_p2p import largest_power_of_two_leq
from ..simnet.calibration import NetParams

__all__ = [
    "paper_frames_per_message", "paper_mpich_bcast_frames",
    "paper_mcast_bcast_frames", "paper_mpich_barrier_messages",
    "paper_mcast_barrier_messages", "model_mpich_bcast_frames",
    "model_mcast_bcast_frames", "mcast_bcast_total_frames",
    "model_p2p_tree_frames", "model_seg_reduce_frames",
    "model_seg_allreduce_frames", "model_seg_scatter_frames",
    "expected_seg_repair_frames", "binomial_cross_edges",
    "binomial_tree_trunk_hops", "multicast_trunk_edges",
    "model_p2p_tree_trunk_frames", "model_seg_bcast_trunk_frames",
    "model_seg_reduce_trunk_frames", "model_seg_scatter_trunk_frames",
    "model_seg_allgather_trunk_frames", "model_hier_frames",
    "MODEL_COVERAGE",
]


def paper_frames_per_message(m: int, t: int = 1500) -> int:
    """The paper's ``floor(M/T) + 1`` frames for an M-byte message."""
    if m < 0:
        raise ValueError(f"message size must be >= 0, got {m}")
    if t <= 0:
        raise ValueError(f"frame size must be > 0, got {t}")
    return m // t + 1


def paper_mpich_bcast_frames(n: int, m: int, t: int = 1500) -> int:
    """MPICH broadcast: ``(floor(M/T)+1) * (N-1)`` network frames."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return paper_frames_per_message(m, t) * (n - 1)


def paper_mcast_bcast_frames(n: int, m: int, t: int = 1500) -> int:
    """Multicast broadcast: ``(N-1)`` scouts ``+ floor(M/T)+1`` data."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n == 1:
        return 0
    return (n - 1) + paper_frames_per_message(m, t)


def paper_mpich_barrier_messages(n: int) -> int:
    """``2(N-K) + K log2 K`` point-to-point messages (paper §3.2)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    k = largest_power_of_two_leq(n)
    return 2 * (n - k) + k * (k.bit_length() - 1)


def paper_mcast_barrier_messages(n: int) -> tuple[int, int]:
    """``(N-1)`` unicast scouts + one multicast release."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n == 1:
        return (0, 0)
    return (n - 1, 1)


# ---------------------------------------------------------------------------
# header-aware counts that match the simulator exactly
# ---------------------------------------------------------------------------
def model_mpich_bcast_frames(params: NetParams, n: int, m: int) -> int:
    """Exact frames for the binomial broadcast over our p2p engine."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return params.frames_for(m + params.mpi_header) * (n - 1)


def model_mcast_bcast_frames(params: NetParams, n: int,
                             m: int) -> tuple[int, int]:
    """Exact (scout, data) frames for the scouted multicast broadcast."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n == 1:
        return (0, 0)
    scouts = n - 1
    data = params.frames_for(m + MCAST_HEADER_BYTES)
    return (scouts, data)


def mcast_bcast_total_frames(params: NetParams, n: int, m: int) -> int:
    scouts, data = model_mcast_bcast_frames(params, n, m)
    return scouts + data


# ---------------------------------------------------------------------------
# reduction-side collectives (PR 3: segmented reduce/scatter/allreduce)
# ---------------------------------------------------------------------------
def model_p2p_tree_frames(params: NetParams, n: int, m: int) -> int:
    """Exact frames of a binomial tree moving the whole payload across
    every edge once — the p2p reduce (and gather) payload cost."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return params.frames_for(m + params.mpi_header) * (n - 1)


def model_seg_reduce_frames(n: int, nsegs: int) -> int:
    """Loss-free frames of ``mcast-seg-combine``: one engine stream per
    non-root contributor, each exactly the broadcast round structure
    (:func:`~repro.core.segment.seg_nack_frame_count`)."""
    from ..core.segment import seg_nack_frame_count

    if n < 2:
        return 0
    return (n - 1) * seg_nack_frame_count(n, nsegs)


def model_seg_allreduce_frames(n: int, nsegs: int) -> int:
    """Loss-free frames of the segmented allreduce: the mcast reduce
    plus one segmented broadcast of the result."""
    from ..core.segment import seg_nack_frame_count

    if n < 2:
        return 0
    return model_seg_reduce_frames(n, nsegs) + seg_nack_frame_count(
        n, nsegs)


def model_seg_scatter_frames(n: int, seg_counts) -> int:
    """Loss-free frames of ``mcast-seg-root``: one engine stream over
    the concatenation of every non-root rank's fragments
    (``seg_counts`` lists the per-rank segment counts, root's 0)."""
    from ..core.segment import seg_nack_frame_count

    if n < 2:
        return 0
    return seg_nack_frame_count(n, sum(seg_counts))


# ---------------------------------------------------------------------------
# loss expectation (PR 4: fold NetParams.loss into the auto estimates)
# ---------------------------------------------------------------------------
def expected_seg_repair_frames(n: int, nsegs: int, loss: float,
                               max_rounds: int = 8,
                               receivers: "int | None" = None) -> float:
    """Expected extra frames of one engine stream's NACK repair loop at
    per-receiver data-frame loss probability ``loss``.

    The root repairs the **union** of its receivers' missing sets.  A
    given receiver is still missing a given segment after ``r``
    transmissions (the original plus ``r - 1`` repairs) with
    probability exactly ``loss**r`` — every transmission is an
    independent Bernoulli drop, and the engine re-batches each round's
    repair plan into one multicast re-send of the union, so the number
    of *frames* a segment costs in round ``r`` does not depend on how
    many receivers missed it.  With ``R`` receivers a segment therefore
    lands in round ``r``'s plan with probability
    ``1 - (1 - loss**r)**R`` (~ ``R * loss**r`` for small loss), and
    round ``r`` adds that expected segment count plus the per-round
    control sweep (arming scouts, reports, decisions: ``3(N-1)``
    frames).  An earlier version of this model compounded the
    *union* probability geometrically (``u**r`` with
    ``u = 1-(1-loss)**R``), which overestimates late rounds badly —
    round 2 by ~5x at n=8, loss=0.05 — because the union is over
    per-receiver misses that each thin out as ``loss**r``;
    the ``segmented-bcast`` sweep area's repair band pins the tightened
    accuracy and the ``deep-fabric`` area closes the loop on a tiered
    fabric.

    ``receivers`` defaults to ``n - 1`` (the broadcast case: every
    non-root posts for the data); streams with a single consuming
    receiver — the reduce/gather turn loops, where bystanders post
    nothing and report empty — pass ``receivers=1``.  The sum runs
    while a round is still *expected* to happen (at least half a
    segment outstanding), so a lossless stream costs nothing.  This is
    the term the auto policy adds to every segmented-multicast
    estimate; the p2p trees ride the simulator's reliable unicast path
    and carry no such term.
    """
    if n < 2 or nsegs < 1 or loss <= 0.0:
        return 0.0
    if receivers is None:
        receivers = n - 1
    receivers = max(receivers, 1)
    p = min(loss, 0.99)
    extra = 0.0
    for r in range(1, max_rounds + 1):
        expect = nsegs * (1.0 - (1.0 - p ** r) ** receivers)
        if expect < 0.5:
            break
        extra += expect + 3 * (n - 1)
    return extra


# ---------------------------------------------------------------------------
# tiered-fabric trunk accounting (PR 4 two-tier; PR 5 recursive trees)
# ---------------------------------------------------------------------------
# The models below count *trunk serializations* — every time a frame is
# re-serialized on a switch-to-switch link of a tiered fabric
# (``NetStats.frames_trunk``).  ``paths`` maps each dense segment id to
# its switch-tree path (:meth:`~repro.simnet.topology.Cluster.
# segment_path`); ``None`` keeps PR 4's two-tier geometry, where every
# segment hangs directly off the core: a multicast frame reaching K
# occupied segments crosses K trunks, a cross-segment unicast crosses 2.
# On deeper trees a multicast frame crosses every edge of the switch
# subtree spanning the interested segments once, and a unicast pays the
# up-over-down path between its endpoints' leaves.  One-time
# channel-setup IGMP traffic is excluded: these are per-call,
# steady-state counts, and the benches compare snapshots around a single
# collective.

def _seg_paths(seg_of_rank, paths):
    """Resolve ``paths`` (two-tier default: segment s at path (s,))."""
    if paths is not None:
        return paths
    return tuple((s,) for s in range(max(seg_of_rank) + 1))


def multicast_trunk_edges(root_seg: int, segs, paths) -> int:
    """Trunk edges a multicast frame from ``root_seg`` serializes on to
    reach every segment in ``segs``: the edges of the switch subtree
    spanning the union of root-to-segment paths (K on a two-tier
    fabric with K occupied segments, if any is remote)."""
    edges: set[tuple] = set()
    pa = paths[root_seg]
    for seg in set(segs):
        if seg == root_seg:
            continue
        pb = paths[seg]
        common = 0
        for a, b in zip(pa, pb):
            if a != b:
                break
            common += 1
        for i in range(common + 1, len(pa) + 1):
            edges.add(pa[:i])
        for i in range(common + 1, len(pb) + 1):
            edges.add(pb[:i])
    return len(edges)


def binomial_cross_edges(seg_of_rank, root: int) -> int:
    """Edges of the binomial gather/broadcast tree rooted at ``root``
    whose endpoints sit in different segments (``seg_of_rank`` maps each
    communicator rank to its segment id)."""
    size = len(seg_of_rank)
    cross = 0
    for rel in range(1, size):
        mask = 1
        while not rel & mask:
            mask <<= 1
        parent_rel = rel & ~mask
        child = (rel + root) % size
        parent = (parent_rel + root) % size
        if seg_of_rank[child] != seg_of_rank[parent]:
            cross += 1
    return cross


def binomial_tree_trunk_hops(seg_of_rank, root: int,
                             paths=None) -> int:
    """Total trunk hops of the binomial tree's edges rooted at
    ``root``: each edge pays the switch-tree distance between its
    endpoints' segments (2 per cross edge on a two-tier fabric —
    the generalization of :func:`binomial_cross_edges`)."""
    from ..simnet.fabric import path_trunk_hops

    paths = _seg_paths(seg_of_rank, paths)
    size = len(seg_of_rank)
    total = 0
    for rel in range(1, size):
        mask = 1
        while not rel & mask:
            mask <<= 1
        parent_rel = rel & ~mask
        child = (rel + root) % size
        parent = (parent_rel + root) % size
        total += path_trunk_hops(paths[seg_of_rank[child]],
                                 paths[seg_of_rank[parent]])
    return total


def model_p2p_tree_trunk_frames(params: NetParams, seg_of_rank,
                                root: int, m: int, paths=None) -> int:
    """Trunk serializations of a binomial tree moving an ``m``-byte
    payload across every edge once (p2p bcast/reduce): each
    cross-segment edge pays its trunk-path hops per payload frame."""
    per_msg = params.frames_for(m + params.mpi_header)
    return binomial_tree_trunk_hops(seg_of_rank, root, paths) * per_msg


def _mcast_stream_trunk_frames(seg_of_rank, root: int, nsegs: int,
                               paths=None) -> int:
    """Trunk serializations of ONE loss-free engine stream (header +
    ``nsegs`` data frames + one round of control) rooted at ``root`` on
    a fabric: data crosses every edge of the switch subtree spanning
    the occupied segments once, the two scout gathers pay their edges'
    trunk paths, and each remote receiver's report and decision pay the
    receiver-root path each way."""
    from ..simnet.fabric import path_trunk_hops

    if len(set(seg_of_rank)) <= 1:
        return 0
    paths = _seg_paths(seg_of_rank, paths)
    root_seg = seg_of_rank[root]
    data_edges = multicast_trunk_edges(root_seg, seg_of_rank, paths)
    gathers = binomial_tree_trunk_hops(seg_of_rank, root, paths)
    round_trips = sum(path_trunk_hops(paths[s], paths[root_seg])
                     for i, s in enumerate(seg_of_rank) if i != root)
    return ((1 + nsegs) * data_edges  # header + data, once per edge
            + 2 * gathers             # header-phase + arming gathers
            + 2 * round_trips)        # reports + decisions


def model_seg_bcast_trunk_frames(seg_of_rank, root: int, nsegs: int,
                                 paths=None) -> int:
    """Loss-free trunk serializations of the flat ``mcast-seg-nack``
    broadcast on a tiered fabric (exact; asserted by the
    ``fabric-scaling`` and ``deep-fabric`` sweep areas)."""
    return _mcast_stream_trunk_frames(seg_of_rank, root, nsegs, paths)


def model_seg_reduce_trunk_frames(seg_of_rank, root: int, nsegs: int,
                                  paths=None) -> int:
    """Loss-free trunk serializations of the flat ``mcast-seg-combine``
    reduce (and of the ``mcast-seg-root-follow`` gather, which runs the
    same turn loop): one engine stream per non-root contributor, each
    rooted at its turn's sender (every stream's data still crosses
    every occupied trunk edge — all members joined the group)."""
    size = len(seg_of_rank)
    return sum(_mcast_stream_trunk_frames(seg_of_rank, turn, nsegs,
                                          paths)
               for turn in range(size) if turn != root)


def model_seg_scatter_trunk_frames(seg_of_rank, root: int, nsegs: int,
                                   paths=None) -> int:
    """Loss-free trunk serializations of the flat ``mcast-seg-root``
    scatter: one engine stream of all ``nsegs`` per-rank-addressed
    segments (exact — the per-rank ``needed`` subsets change what
    receivers reassemble, not what crosses the wire)."""
    return _mcast_stream_trunk_frames(seg_of_rank, root, nsegs, paths)


def model_seg_allgather_trunk_frames(seg_of_rank, nsegs: int,
                                     paths=None) -> int:
    """Loss-free trunk serializations of the flat ``mcast-seg-paced``
    allgather: the rank-0-anchored ready round (scout gather up, one
    "go" unicast per rank back down) plus one engine stream per rank,
    each rooted at its turn's sender."""
    from ..simnet.fabric import path_trunk_hops

    if len(set(seg_of_rank)) <= 1:
        return 0
    paths = _seg_paths(seg_of_rank, paths)
    ready = (binomial_tree_trunk_hops(seg_of_rank, 0, paths)
             + sum(path_trunk_hops(paths[s], paths[seg_of_rank[0]])
                   for i, s in enumerate(seg_of_rank) if i != 0))
    return ready + sum(
        _mcast_stream_trunk_frames(seg_of_rank, turn, nsegs, paths)
        for turn in range(len(seg_of_rank)))


# ---------------------------------------------------------------------------
# recursive hierarchy models (PR 5: phase-walking, any tree depth —
# superseding PR 4's two-tier closed forms, which the phase walk
# reproduces bit-for-bit on two-tier fabrics)
# ---------------------------------------------------------------------------
def _phase_stream(seg_of_rank, phase, turn: int, nsegs: int, paths,
                  loss: float,
                  receivers: "int | None" = None) -> tuple[float, int]:
    """(host frames incl. expected repairs, trunk serializations) of one
    engine stream of ``nsegs`` segments served by comm rank ``turn``
    inside ``phase``'s group (``receivers=1`` for single-consumer
    turn-loop streams, default every other member)."""
    from ..core.segment import seg_nack_frame_count

    members = phase.members
    frames = (seg_nack_frame_count(len(members), nsegs)
              + expected_seg_repair_frames(len(members), nsegs, loss,
                                           receivers=receivers))
    segs = tuple(seg_of_rank[m] for m in members)
    trunk = _mcast_stream_trunk_frames(segs, members.index(turn), nsegs,
                                       paths)
    return frames, trunk


def model_hier_frames(op: str, seg_of_rank, root: int, nbytes: int,
                      params: NetParams, paths=None,
                      loss: float = 0.0) -> tuple[float, float]:
    """(host frames, trunk serializations) of one ``hier-mcast`` call
    on an arbitrary-depth hierarchy, by walking the *same* phase plans
    the implementation executes (:mod:`repro.mpi.collective.hier`), so
    model and behaviour cannot drift.

    Loss-free (``loss=0``) the ``bcast`` and ``reduce`` counts are
    **exact** — every phase streams the same payload — and asserted
    against ``NetStats.frames_trunk`` by the ``deep-fabric`` sweep
    area.  The ``scatter`` / ``gather``
    / ``allgather`` counts approximate per-phase bundle sizes by their
    member payload shares (the wire carries pickled bundle objects
    whose envelope the closed form ignores), so they are
    estimate-grade: good enough to rank candidates in the auto policy,
    checked by the bench only for the strict hier-below-flat
    inequality.  With ``loss > 0`` every phase additionally carries its
    expected NACK-repair traffic — repairs stay inside the losing
    phase's switch subtree, which is most of the hierarchy's win on
    lossy fabrics.
    """
    from ..core.segment import plan_transport
    from ..mpi.collective.hier import (allgather_phases, bcast_phases,
                                       build_hier_tree, scatter_phases,
                                       up_phases)
    from ..simnet.fabric import path_trunk_hops

    size = len(seg_of_rank)
    if size < 2 or len(set(seg_of_rank)) < 2:
        return (0.0, 0.0)
    tree = build_hier_tree(seg_of_rank, paths)
    rpaths = _seg_paths(seg_of_rank, paths)
    frames = 0.0
    trunk = 0.0

    def nsegs_of(payload_bytes: int) -> int:
        return plan_transport(max(payload_bytes, 0), params).nsegs

    def p2p_hop(src: int, dst: int, payload_bytes: int):
        nonlocal frames, trunk
        per = params.frames_for(payload_bytes + params.mpi_header)
        frames += per
        trunk += per * path_trunk_hops(rpaths[seg_of_rank[src]],
                                       rpaths[seg_of_rank[dst]])

    if op == "bcast":
        nsegs = nsegs_of(nbytes)
        for phase in bcast_phases(tree, root):
            f, t = _phase_stream(seg_of_rank, phase, phase.root, nsegs,
                                 paths, loss)
            frames, trunk = frames + f, trunk + t
        return frames, trunk
    if op == "reduce":
        nsegs = nsegs_of(nbytes)
        phases, holder = up_phases(tree, root)
        for phase in phases:
            for turn in phase.members:
                if turn == phase.root:
                    continue
                f, t = _phase_stream(seg_of_rank, phase, turn, nsegs,
                                     paths, loss, receivers=1)
                frames, trunk = frames + f, trunk + t
        if holder != root:
            p2p_hop(holder, root, nbytes)
        return frames, trunk
    if op == "allreduce":
        f1, t1 = model_hier_frames("reduce", seg_of_rank, 0, nbytes,
                                   params, paths, loss)
        f2, t2 = model_hier_frames("bcast", seg_of_rank, 0, nbytes,
                                   params, paths, loss)
        return f1 + f2, t1 + t2

    def subtree_sizes(phase) -> dict[int, int]:
        """member rank -> ranks its bundle covers (its child subtree,
        or itself on a leaf phase)."""
        if phase.node.is_leaf:
            return {m: 1 for m in phase.members}
        out = {}
        for member in phase.members:
            for child in phase.node.children:
                if member in child.members:
                    out[member] = len(child.members)
                    break
        return out

    if op == "scatter":
        share = -(-nbytes // size)
        plan = scatter_phases(tree, root)
        if plan.root_leaf is not None:
            nsegs = nsegs_of(share * (len(plan.root_leaf.members) - 1))
            f, t = _phase_stream(seg_of_rank, plan.root_leaf, root,
                                 nsegs, paths, loss)
            frames, trunk = frames + f, trunk + t
        root_leaf_members = {m for m in range(size)
                             if seg_of_rank[m] == seg_of_rank[root]}
        outside = size - len(root_leaf_members)
        if plan.hoist is not None:
            p2p_hop(plan.hoist[0], plan.hoist[1], share * outside)
        for phase in plan.internals:
            sizes = subtree_sizes(phase)
            bundle = sum(share * sizes[m] for m in phase.members
                         if m != phase.root)
            f, t = _phase_stream(seg_of_rank, phase, phase.root,
                                 nsegs_of(bundle), paths, loss)
            frames, trunk = frames + f, trunk + t
        for phase in plan.leaves:
            nsegs = nsegs_of(share * (len(phase.members) - 1))
            f, t = _phase_stream(seg_of_rank, phase, phase.root, nsegs,
                                 paths, loss)
            frames, trunk = frames + f, trunk + t
        return frames, trunk
    if op == "gather":
        phases, holder = up_phases(tree, root)
        for phase in phases:
            sizes = subtree_sizes(phase)
            for turn in phase.members:
                if turn == phase.root:
                    continue
                f, t = _phase_stream(seg_of_rank, phase, turn,
                                     nsegs_of(nbytes * sizes[turn]),
                                     paths, loss, receivers=1)
                frames, trunk = frames + f, trunk + t
        if holder != root:
            p2p_hop(holder, root, nbytes * size)
        return frames, trunk
    if op == "allgather":
        plan = allgather_phases(tree)
        for phase in plan.up:
            sizes = subtree_sizes(phase)
            frames += 2 * (len(phase.members) - 1)   # paced ready round
            segs = tuple(seg_of_rank[m] for m in phase.members)
            anchor = phase.members[0]
            trunk += (binomial_tree_trunk_hops(segs, 0, rpaths)
                      + sum(path_trunk_hops(rpaths[seg_of_rank[m]],
                                            rpaths[seg_of_rank[anchor]])
                            for m in phase.members[1:]))
            for turn in phase.members:
                f, t = _phase_stream(seg_of_rank, phase, turn,
                                     nsegs_of(nbytes * sizes[turn]),
                                     paths, loss)
                frames, trunk = frames + f, trunk + t
        full = nsegs_of(nbytes * size)
        for phase in plan.down:
            f, t = _phase_stream(seg_of_rank, phase, phase.root, full,
                                 paths, loss)
            frames, trunk = frames + f, trunk + t
        return frames, trunk
    raise KeyError(f"no hierarchical frame model for collective "
                   f"{op!r}")


# ---------------------------------------------------------------------------
# model coverage ledger (PR 6: executed by the REG01 lint rule)
# ---------------------------------------------------------------------------
#: (op, impl) -> the closed-form frame model backing it, as a dotted
#: function path, or an explicit ``"estimate: <why>"`` marker for
#: implementations whose traffic has no asserted closed form.  The
#: REG01 rule (``python -m repro.lint``) checks this table both ways
#: against the live registry: every registered implementation must
#: appear here (a missing entry is a silent modeling gap — the
#: ROADMAP's alltoall/scan/exscan/reduce_scatter holes are visible
#: below as estimate markers, not absences), and every entry must name
#: a registered implementation and a resolvable function.
MODEL_COVERAGE: dict[tuple[str, str], str] = {
    ("bcast", "p2p-binomial"):
        "repro.analysis.framecount.model_mpich_bcast_frames",
    ("bcast", "p2p-linear"):
        "repro.analysis.framecount.model_mpich_bcast_frames",
    ("bcast", "mcast-binary"):
        "repro.analysis.framecount.model_mcast_bcast_frames",
    ("bcast", "mcast-linear"):
        "repro.analysis.framecount.model_mcast_bcast_frames",
    ("bcast", "mcast-naive"):
        "estimate: unreliable one-shot blast; delivered count depends "
        "on receiver readiness, only the send side is closed-form",
    ("bcast", "mcast-ack"):
        "estimate: ack-implosion retransmit traffic depends on timing "
        "(the PVM-style baseline exists to measure, not to model)",
    ("bcast", "mcast-seg-nack"):
        "repro.core.segment.seg_nack_frame_count",
    ("bcast", "mcast-sequencer"):
        "estimate: sequencer hop doubles data frames; ordering traffic "
        "modeled only asymptotically (DESIGN.md)",
    ("bcast", "hier-mcast"):
        "repro.analysis.framecount.model_hier_frames",
    ("barrier", "p2p-mpich"):
        "repro.analysis.framecount.paper_mpich_barrier_messages",
    ("barrier", "p2p-dissemination"):
        "estimate: ceil(log2 N) rounds of N messages each; asserted "
        "only as a message count in tests, not a frame model",
    ("barrier", "mcast"):
        "repro.core.mcast_barrier.barrier_mcast_message_count",
    ("barrier", "hier-mcast"):
        "estimate: per-phase mcast barriers over the recursive tree; "
        "no closed form asserted yet (latency-bound op)",
    ("reduce", "p2p-binomial"):
        "repro.analysis.framecount.model_p2p_tree_frames",
    ("reduce", "mcast-seg-combine"):
        "repro.analysis.framecount.model_seg_reduce_frames",
    ("reduce", "hier-mcast"):
        "repro.analysis.framecount.model_hier_frames",
    ("allreduce", "p2p-reduce-bcast"):
        "estimate: composition — 2 x model_p2p_tree_frames (reduce "
        "down, bcast back)",
    ("allreduce", "mcast-seg-nack"):
        "repro.analysis.framecount.model_seg_allreduce_frames",
    ("allreduce", "hier-mcast"):
        "repro.analysis.framecount.model_hier_frames",
    ("gather", "p2p-binomial"):
        "estimate: inner edges re-forward growing subtree batches; "
        "policy uses the (size-1) contributions lower bound",
    ("gather", "mcast-seg-root-follow"):
        "repro.analysis.framecount.model_seg_reduce_frames",
    ("gather", "hier-mcast"):
        "repro.analysis.framecount.model_hier_frames",
    ("scatter", "p2p-binomial"):
        "estimate: per-level subtree shares (exact only at power-of-"
        "two sizes); see policy.p2p_frame_estimate",
    ("scatter", "mcast-seg-root"):
        "repro.analysis.framecount.model_seg_scatter_frames",
    ("scatter", "hier-mcast"):
        "repro.analysis.framecount.model_hier_frames",
    ("allgather", "p2p-gather-bcast"):
        "estimate: composition — gather lower bound + full-list "
        "broadcast; see policy.p2p_frame_estimate",
    ("allgather", "mcast-paced"):
        "estimate: unsegmented per-turn streaming; superseded by "
        "mcast-seg-paced, kept as a measured baseline",
    ("allgather", "mcast-seg-paced"):
        "estimate: composition — paced ready round (2(N-1)) + N x "
        "seg_nack_frame_count; see policy.seg_frame_estimate",
    ("allgather", "hier-mcast"):
        "repro.analysis.framecount.model_hier_frames",
    ("alltoall", "p2p-pairwise"):
        "estimate: (N-1) pairwise exchanges; ROADMAP gap — no "
        "multicast rival or asserted closed form yet",
    ("scan", "p2p-linear"):
        "estimate: N-1 chained hops; ROADMAP gap — no multicast rival "
        "or asserted closed form yet",
    ("exscan", "p2p-linear"):
        "estimate: N-1 chained hops (shifted scan); ROADMAP gap",
    ("reduce_scatter", "p2p-reduce-scatter"):
        "estimate: reduce-to-root + scatter composition; ROADMAP gap",
}
