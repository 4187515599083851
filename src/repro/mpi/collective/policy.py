"""Payload-, topology- and loss-aware collective selection — ``"auto"``.

The registry's static :data:`~repro.mpi.collective.registry.DEFAULTS`
table answers "which algorithm?" once per communicator; real MPI
libraries answer it **per call**, from the message size, the process
count, and the machine (MPICH's size-thresholded algorithm tables; the
topology-aware multilevel selection of Karonis & de Supinski).  This
module is that policy layer:

* ``comm.use_collectives(bcast="auto")`` marks an op for per-call
  resolution; :func:`resolve_auto` then picks among the op's p2p
  baseline, its flat segmented-multicast implementation
  (:data:`AUTO_CHOICES`), and — on a multi-segment fabric — the
  hierarchical ``hier-mcast`` family (:data:`HIER_AUTO`,
  :mod:`repro.mpi.collective.hier`) each time the collective is invoked;
* :meth:`~repro.mpi.communicator.Communicator.set_collective_policy`
  installs a *hook* that replaces the static table wholesale — it sees
  every dispatch and may return any registered name (or ``"auto"`` to
  fall through to the payload-aware resolution).

The decision metric generalizes the paper's §3 currency: **modeled
serializations** — closed-form Ethernet frame counts
(:func:`p2p_frame_estimate` / :func:`seg_frame_estimate`), plus

* **trunk crossings** on a tiered fabric (:func:`comm_topology` reads
  the cluster's discovery API; each crossing re-serializes the frame on
  a shared switch-to-switch link, the models live in
  :mod:`repro.analysis.framecount`), and
* **expected NACK-repair traffic** from the platform's calibrated
  multicast loss rate (``NetParams.loss``,
  :func:`~repro.analysis.framecount.expected_seg_repair_frames`) —
  lossy platforms shift the crossover back toward the p2p trees and
  toward the hierarchical variants whose repairs stay off the trunks.

Small payloads keep the p2p trees (the multicast
scout/report/decision control tax dominates); large payloads switch to
the segmented streams; multi-segment fabrics switch to ``hier-mcast``
when the trunk savings beat the extra per-segment phases.  ``reduce``
remains the documented exception on flat clusters: many-to-one traffic
gains no frame advantage from multicast at any size, so auto keeps the
binomial tree there and the segmented reduce exists for lossy-transport
scenarios and as the allreduce building block.

**Consistency.**  Every rank must dispatch the same implementation or
the collective deadlocks (paper §4 safety).  Topology and loss inputs
are rank-invariant (the shared cluster object and ``NetParams``), so
they never break the existing protocol: for ops whose payload every
rank holds (``reduce``, ``allreduce``) resolution stays local and free;
for rooted ops (``bcast``, ``scatter``) the root announces its choice
down the binomial scout tree
(:func:`~repro.core.scout.scout_scatter_binary`) — ``N-1`` scout-sized
frames, ``log2 N`` deep, independent of the payload.  ``allgather``
anchors the announcement at rank 0 so heterogeneous contribution sizes
can never split the group's decision.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional

from ..datatypes import payload_bytes

__all__ = ["AUTO", "AUTO_CHOICES", "HIER_AUTO", "POLICY_WAIVERS",
           "TopoInfo", "comm_topology", "auto_impl",
           "modeled_frame_costs", "p2p_frame_estimate",
           "seg_frame_estimate", "hier_frame_estimate", "resolve_auto"]

#: the pseudo-implementation name accepted by ``use_collectives``
AUTO = "auto"

#: op -> (p2p baseline, segmented multicast implementation)
AUTO_CHOICES: dict[str, tuple[str, str]] = {
    "bcast": ("p2p-binomial", "mcast-seg-nack"),
    "reduce": ("p2p-binomial", "mcast-seg-combine"),
    "allreduce": ("p2p-reduce-bcast", "mcast-seg-nack"),
    "scatter": ("p2p-binomial", "mcast-seg-root"),
    "gather": ("p2p-binomial", "mcast-seg-root-follow"),
    "allgather": ("p2p-gather-bcast", "mcast-seg-paced"),
}

#: ops with a hierarchical candidate on multi-segment fabrics
HIER_AUTO: dict[str, str] = {
    "bcast": "hier-mcast",
    "reduce": "hier-mcast",
    "allreduce": "hier-mcast",
    "scatter": "hier-mcast",
    "gather": "hier-mcast",
    "allgather": "hier-mcast",
}

#: registered ops *deliberately* outside the auto policy, with the
#: reason on record.  The REG01 lint rule requires every registered op
#: to appear in AUTO_CHOICES or here, so a future collective cannot
#: silently ship without a selection story — and flags a waiver as
#: stale the moment its op gains an AUTO_CHOICES entry (or stops being
#: registered).  These are the ROADMAP's tracked gaps, not oversights.
POLICY_WAIVERS: dict[str, str] = {
    "barrier": "latency-bound and payload-free: the serialization "
               "currency of modeled_frame_costs cannot rank its "
               "candidates, so selection stays static (DEFAULTS or an "
               "explicit use_collectives choice)",
    "alltoall": "only p2p-pairwise is registered; no segmented-"
                "multicast rival to choose between yet (ROADMAP)",
    "scan": "prefix dependence serializes the chain; no multicast "
            "candidate exists (ROADMAP)",
    "exscan": "shifted scan; same serial-chain story as scan (ROADMAP)",
    "reduce_scatter": "registered as a reduce+scatter composition; a "
                      "dedicated segmented path is a ROADMAP item",
}


@dataclass(frozen=True)
class TopoInfo:
    """Rank-invariant fabric shape of one communicator.

    ``seg_of_rank`` maps every communicator rank to a dense segment
    index; ``contiguous`` records whether the segments partition the
    ranks into contiguous blocks (the layout under which hierarchical
    reduction preserves MPI's canonical operand order — see
    :mod:`repro.mpi.collective.hier`).
    """

    seg_of_rank: tuple[int, ...]
    contiguous: bool
    #: switch-tree path per dense segment (``None`` = the two-tier
    #: default where every segment hangs directly off the core); feeds
    #: the multi-level trunk-distance models of
    #: :mod:`repro.analysis.framecount`
    paths: "tuple[tuple, ...] | None" = None

    @property
    def nsegments(self) -> int:
        return len(set(self.seg_of_rank))

    @property
    def seg_sizes(self) -> tuple[int, ...]:
        sizes = [0] * self.nsegments
        for s in self.seg_of_rank:
            sizes[s] += 1
        return tuple(sizes)


def comm_topology(comm) -> Optional[TopoInfo]:
    """The communicator's :class:`TopoInfo`, or ``None`` when every
    member shares one switch segment (flat cluster, or a
    sub-communicator confined to one leaf).

    Derives from the same :func:`~repro.mpi.collective.hier.
    segment_layout` the ``hier-mcast`` implementations execute against,
    so the policy's model and the impl's behaviour cannot drift; the
    layout is computed once per member set and shared by every rank,
    and the (static) answer is cached on the communicator.
    """
    if comm._topo_info is not False:
        return comm._topo_info
    info = None
    if comm.world.cluster.nsegments > 1:
        from .hier import segment_layout

        layout = segment_layout(comm)
        if len(layout.members) > 1:
            info = TopoInfo(seg_of_rank=layout.seg_of_rank,
                            contiguous=layout.contiguous,
                            paths=layout.paths)
    comm._topo_info = info
    return info


def _p2p_msg_frames(params, nbytes: int) -> int:
    """Frames of one p2p message (payload + MPI envelope)."""
    return params.frames_for(nbytes + params.mpi_header)


def _steps(size: int) -> int:
    """Sequential steps of a binomial tree: ``ceil(log2 size)``."""
    return max(1, (size - 1).bit_length())


def p2p_frame_estimate(op: str, nbytes: int, size: int, params,
                       topo: Optional[TopoInfo] = None,
                       root: int = 0) -> float:
    """Modeled serializations of the op's p2p baseline.

    ``nbytes`` is the op's natural payload: the broadcast/reduce
    message, the scatter's *total* sequence, the gather's and
    allgather's per-rank contribution.  With ``topo``, cross-segment
    tree edges additionally pay their trunk crossings (multi-level
    distances when ``topo.paths`` carries the switch-tree shape).

    Known approximations: a *non-commutative* reduce at a nonzero root
    pays one extra payload forward (the tree reduces to rank 0 and
    forwards, see :mod:`repro.mpi.collective.reduce_p2p`) that is not
    modeled here; the scatter's and gather's per-edge subtree shares
    are averaged as half the payload for the trunk term.  Both are
    second-order near the crossover.
    """
    from ...analysis.framecount import (binomial_tree_trunk_hops,
                                        model_p2p_tree_frames,
                                        model_p2p_tree_trunk_frames)

    if size < 2:
        return 0
    if op in ("bcast", "reduce"):
        # every tree edge carries the whole payload once
        total = model_p2p_tree_frames(params, size, nbytes)
        if topo is not None:
            total += model_p2p_tree_trunk_frames(
                params, topo.seg_of_rank, root, nbytes, topo.paths)
        return total
    if op == "allreduce":
        total = 2 * model_p2p_tree_frames(params, size, nbytes)
        if topo is not None:
            total += 2 * model_p2p_tree_trunk_frames(
                params, topo.seg_of_rank, 0, nbytes, topo.paths)
        return total
    if op == "scatter":
        # level i has 2^(i-1) edges, each forwarding a subtree share of
        # ~nbytes/2^i (exact for power-of-two sizes, close otherwise)
        total = 0
        for i in range(1, _steps(size) + 1):
            total += min(2 ** (i - 1), size - 1) * _p2p_msg_frames(
                params, nbytes >> i)
        if topo is not None:
            total += (binomial_tree_trunk_hops(topo.seg_of_rank, root,
                                               topo.paths)
                      * _p2p_msg_frames(params, nbytes // 2))
        return total
    if op == "gather":
        # each contribution crosses at least one edge; inner edges
        # re-forward growing subtree batches (averaged as one extra
        # payload-sized hop for the trunk term)
        total = (size - 1) * _p2p_msg_frames(params, nbytes)
        if topo is not None:
            total += (binomial_tree_trunk_hops(topo.seg_of_rank, root,
                                               topo.paths)
                      * _p2p_msg_frames(params, nbytes * size // 2))
        return total
    if op == "allgather":
        # gather of per-rank contributions (lower bound: each crosses
        # one edge) + broadcast of the full list down the tree
        total = ((size - 1) * _p2p_msg_frames(params, nbytes)
                 + (size - 1) * _p2p_msg_frames(params, nbytes * size))
        if topo is not None:
            hops = binomial_tree_trunk_hops(topo.seg_of_rank, 0,
                                            topo.paths)
            total += hops * (_p2p_msg_frames(params, nbytes * size // 2)
                             + _p2p_msg_frames(params, nbytes * size))
        return total
    raise KeyError(f"no p2p frame estimate for collective {op!r}")


def seg_frame_estimate(op: str, nbytes: int, size: int, params,
                       topo: Optional[TopoInfo] = None,
                       root: int = 0) -> float:
    """Modeled serializations of the op's flat segmented-multicast impl:
    the shared loss-free closed forms of
    :mod:`repro.analysis.framecount` (the same ones the benches assert
    against the simulator), plus the expected repair traffic at
    ``params.loss`` and — with ``topo`` — the trunk crossings of every
    stream (multi-level distances when ``topo.paths`` is present)."""
    from ...analysis.framecount import (expected_seg_repair_frames,
                                        model_seg_allgather_trunk_frames,
                                        model_seg_allreduce_frames,
                                        model_seg_bcast_trunk_frames,
                                        model_seg_reduce_frames,
                                        model_seg_reduce_trunk_frames,
                                        model_seg_scatter_frames,
                                        model_seg_scatter_trunk_frames)
    from ...core.segment import plan_transport, seg_nack_frame_count

    if size < 2:
        return 0
    nsegs = plan_transport(nbytes, params).nsegs
    loss = getattr(params, "loss", 0.0)
    if op == "bcast":
        total = (seg_nack_frame_count(size, nsegs)
                 + expected_seg_repair_frames(size, nsegs, loss))
        if topo is not None:
            total += model_seg_bcast_trunk_frames(topo.seg_of_rank, root,
                                                  nsegs, topo.paths)
        return total
    if op in ("reduce", "gather"):
        # one engine stream per non-root contributor (the gather runs
        # the same turn loop, collecting instead of folding)
        total = (model_seg_reduce_frames(size, nsegs)
                 + (size - 1) * expected_seg_repair_frames(
                     size, nsegs, loss, receivers=1))
        if topo is not None:
            total += model_seg_reduce_trunk_frames(topo.seg_of_rank,
                                                   root, nsegs,
                                                   topo.paths)
        return total
    if op == "allreduce":
        total = (model_seg_allreduce_frames(size, nsegs)
                 + (size - 1) * expected_seg_repair_frames(
                     size, nsegs, loss, receivers=1)
                 + expected_seg_repair_frames(size, nsegs, loss))
        if topo is not None:
            total += (model_seg_reduce_trunk_frames(topo.seg_of_rank, 0,
                                                    nsegs, topo.paths)
                      + model_seg_bcast_trunk_frames(topo.seg_of_rank,
                                                     0, nsegs,
                                                     topo.paths))
        return total
    if op == "scatter":
        # one global stream of every non-root rank's share
        share = plan_transport(-(-nbytes // size), params).nsegs
        total_segs = (size - 1) * share
        total = (model_seg_scatter_frames(size, [share] * (size - 1))
                 + expected_seg_repair_frames(size, total_segs, loss,
                                              receivers=1))
        if topo is not None:
            total += model_seg_scatter_trunk_frames(
                topo.seg_of_rank, root, total_segs, topo.paths)
        return total
    if op == "allgather":
        # paced ready round + one engine stream per rank
        total = (2 * (size - 1)
                 + size * seg_nack_frame_count(size, nsegs)
                 + size * expected_seg_repair_frames(size, nsegs, loss))
        if topo is not None:
            total += model_seg_allgather_trunk_frames(
                topo.seg_of_rank, nsegs, topo.paths)
        return total
    raise KeyError(f"no segmented frame estimate for collective {op!r}")


def hier_frame_estimate(op: str, nbytes: int, size: int, params,
                        topo: TopoInfo, root: int = 0) -> float:
    """Modeled serializations of the ``hier-mcast`` implementation on
    ``topo``: host frames plus trunk crossings of every phase of the
    recursive plan (:func:`~repro.analysis.framecount.
    model_hier_frames` walks the same phase lists the implementation
    executes), and the expected per-phase repair traffic — repairs
    never leave the losing phase's switch subtree, which is most of
    the hierarchy's win under loss."""
    from ...analysis.framecount import model_hier_frames

    if op not in HIER_AUTO:
        raise KeyError(f"no hierarchical estimate for collective {op!r}; "
                       f"hier-capable ops: {sorted(HIER_AUTO)}")
    if size < 2:
        return 0
    frames, trunk = model_hier_frames(
        op, topo.seg_of_rank, root if op != "allreduce" else 0, nbytes,
        params, topo.paths, loss=getattr(params, "loss", 0.0))
    return frames + trunk


def modeled_frame_costs(op: str, nbytes: int, size: int, params,
                        topo: Optional[TopoInfo] = None, root: int = 0,
                        hier_ok: bool = True) -> dict[str, float]:
    """Modeled serializations of every candidate implementation for one
    call — the table :func:`auto_impl` takes the argmin of (and the
    fabric bench audits against the simulator)."""
    try:
        p2p_name, seg_name = AUTO_CHOICES[op]
    except KeyError:
        raise KeyError(
            f"no auto selection policy for collective {op!r}; "
            f"auto-capable ops: {sorted(AUTO_CHOICES)}") from None
    from .hier import MAX_HIER_SEGMENTS

    costs = {
        seg_name: seg_frame_estimate(op, nbytes, size, params, topo,
                                     root),
        p2p_name: p2p_frame_estimate(op, nbytes, size, params, topo,
                                     root),
    }
    if (hier_ok and topo is not None
            and 1 < topo.nsegments <= MAX_HIER_SEGMENTS
            and op in HIER_AUTO):
        costs[HIER_AUTO[op]] = hier_frame_estimate(op, nbytes, size,
                                                   params, topo, root)
    return costs


def auto_impl(op: str, nbytes: int, size: int, params,
              topo: Optional[TopoInfo] = None, root: int = 0,
              hier_ok: bool = True) -> str:
    """Pick the implementation for one call: the candidate with the
    lowest modeled serialization count.  Ties keep the historical
    preference order — segmented multicast over hierarchical over the
    p2p baseline — so on a flat, loss-free cluster the choice is
    exactly PR 3's "segmented iff its frame estimate is at or below
    p2p's"."""
    try:
        p2p_name, seg_name = AUTO_CHOICES[op]
    except KeyError:
        raise KeyError(
            f"no auto selection policy for collective {op!r}; "
            f"auto-capable ops: {sorted(AUTO_CHOICES)}") from None
    if size < 2:
        return p2p_name
    costs = modeled_frame_costs(op, nbytes, size, params, topo, root,
                                hier_ok)
    order = {seg_name: 0, HIER_AUTO.get(op, "hier-mcast"): 1,
             p2p_name: 2}
    return min(costs, key=lambda name: (costs[name], order[name]))


def resolve_auto(comm, op: str, args: tuple) -> Generator:
    """Resolve ``"auto"`` for one dispatch; every rank returns the same
    registered implementation name (see module docstring for how
    consistency is guaranteed per op).
    """
    if op not in AUTO_CHOICES:
        # raise identically on every rank BEFORE any traffic: a policy
        # hook returning "auto" for an op without a policy must fail
        # loudly and symmetrically, not strand the non-root ranks in
        # the announcement wait
        raise KeyError(
            f"no auto selection policy for collective {op!r}; "
            f"auto-capable ops: {sorted(AUTO_CHOICES)}")
    size = comm.size
    params = comm.host.params
    if size < 2:
        return AUTO_CHOICES[op][0]
    topo = comm_topology(comm)
    if op in ("reduce", "allreduce"):
        # MPI requires size-matched contributions: local resolution is
        # identical everywhere and costs nothing.  The hierarchical
        # candidate is withheld when it would have to fall back anyway
        # (non-commutative operator over non-contiguous segments).
        red_op = args[1]
        root = args[2] if op == "reduce" else 0
        hier_ok = (topo is None or topo.contiguous
                   or getattr(red_op, "commutative", True))
        return auto_impl(op, payload_bytes(args[0]), size, params,
                         topo=topo, root=root, hier_ok=hier_ok)
    # Rooted (bcast, scatter, gather) or rank-0-anchored (allgather):
    # one rank announces the choice down the scout tree.  The gather's
    # anchor payload is the root's *own* contribution — heterogeneous
    # contribution sizes cannot split the decision, and equal-sized
    # contributions (the common case) make it exact.
    from ...core.scout import scout_scatter_binary

    root = args[1] if op in ("bcast", "scatter", "gather") else 0
    channel = comm.mcast
    seq = channel.next_seq()
    name = None
    if comm.rank == root:
        if op == "scatter":
            objs = args[0]
            nbytes = sum(payload_bytes(o) for o in objs) if objs else 0
        else:
            nbytes = payload_bytes(args[0])
        name = auto_impl(op, nbytes, size, params, topo=topo, root=root)
    name = yield from scout_scatter_binary(comm, channel, seq, root,
                                           tag="impl-dec", value=name)
    return name
