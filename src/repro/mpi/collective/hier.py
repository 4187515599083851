"""Hierarchical multicast collectives for tiered fabrics — ``hier-mcast``.

On a multi-segment fabric (:mod:`repro.simnet.fabric`) the flat
segmented-multicast collectives pay the trunks for *every* control
message: each NACK report, decision, and arming scout of every rank in a
remote segment crosses the backbone.  Following Karonis & de Supinski's
multilevel topology-aware collectives (MPICH-G2) and Träff's multi-lane
decomposition, this module re-expresses each collective as **per-segment
phases bridged by segment leaders — recursively**: on a fabric deeper
than two tiers, the leaders themselves are grouped by the switch
subtrees that contain them, with leaders-of-leaders bridging each higher
tier, so every phase's traffic is confined to the smallest switch
subtree that contains its participants.

* **discovery** — every rank asks the cluster's topology API
  (:meth:`~repro.simnet.topology.Cluster.segment_of` /
  :meth:`~repro.simnet.topology.Cluster.segment_path` via
  ``comm.world.cluster``) for the segment and switch-tree path of each
  communicator rank.  The mapping is identical everywhere, so the whole
  hierarchy — :func:`build_hier_tree`, a collapsed tree whose leaves are
  occupied segments and whose internal nodes are the switch subtrees
  with members in more than one child — is elected locally and free.
  The **leader** of any subtree is its smallest communicator rank;
* **per-group channels** — each occupied leaf segment's members share a
  private :class:`~repro.core.channel.McastChannel`, and each internal
  node of the hierarchy carries one more for the leaders of its
  children (on a two-tier fabric this degenerates to exactly one
  "leaders' group").  Group ids and ports come from a deterministic
  world-level slab (:meth:`repro.mpi.world.MpiWorld.alloc_hier_slab`).
  IGMP snooping confines each group's frames to the switch subtree
  spanning its members;
* **engine reuse** — every phase runs the *existing* flat collectives
  (:func:`~repro.core.segment.bcast_mcast_seg_nack`,
  :func:`~repro.core.mcast_reduce.reduce_mcast_seg_combine`,
  :func:`~repro.core.mcast_scatter.scatter_mcast_seg_root`,
  :func:`~repro.core.mcast_gather.gather_mcast_seg_root_follow`,
  :func:`~repro.core.segment.allgather_mcast_seg_paced`) over a
  :class:`SegmentComm` — a group-local *view* of the communicator that
  renumbers member ranks densely and carries its own channel, so the
  round engine (serve/follow, NACK repair, pacing) needs no changes and
  repairs for a loss inside a segment never touch a trunk.

Registered as ``"hier-mcast"`` for ``bcast`` / ``reduce`` /
``allreduce`` / ``barrier`` / ``scatter`` / ``gather`` / ``allgather``.
On a flat cluster (or a communicator whose members all share one
segment) every entry degrades to its flat segmented counterpart, so
``hier-mcast`` is always safe to select; the payload- and
topology-aware auto policy (:mod:`repro.mpi.collective.policy`) picks
it per call whenever the modeled frame count — trunk crossings and
expected loss repairs included — beats the flat engine and the p2p
trees.

**Phase plans.**  Each collective derives a *plan* — an ordered list of
:class:`HierPhase` (group members + the rank serving/collecting it) —
from pure functions over the hierarchy tree (:func:`bcast_phases`,
:func:`up_phases`, :func:`scatter_phases`, :func:`allgather_phases`).
Every rank executes the restriction of the same global plan to the
groups it belongs to, so all per-rank schedules embed in one total
order and can never deadlock; and the frame models in
:mod:`repro.analysis.framecount` walk the *same* plans, so the policy's
model and the implementation's behaviour cannot drift.

**Reduction order.**  The hierarchical reduce folds each group in
ascending rank order at every level, which equals MPI's canonical
absolute-rank order exactly when the recursive leader-ordered
concatenation of segments yields ``0..size-1`` (the natural layout of
``run_spmd`` on any ``tree:...`` cluster) — the ``contiguous`` flag.
For non-contiguous layouts the grouping would reorder operands, so
non-commutative operators fall back to the flat (canonical-order)
segmented reduce.

Dispatch safety (paper §4): all phases derive from rank-invariant state
(topology, communicator membership), every rank enters the same phases
of the same channels in the same relative order, and the per-call
"auto" choice is announced down the scout tree before any traffic — all
ranks dispatch identically.
"""

from __future__ import annotations

import copy
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Generator, Optional

from .registry import register
from .tags import TAG_HIER

__all__ = ["SegmentComm", "HierState", "HierNode", "HierPhase",
           "build_hier_tree", "canonical_order", "tree_internal_nodes",
           "group_members", "bcast_phases", "up_phases",
           "scatter_phases", "allgather_phases", "SegmentLayout",
           "layout_from_segments", "segment_layout", "hier_state",
           "hier_ready", "bcast_hier", "reduce_hier", "allreduce_hier",
           "barrier_hier", "scatter_hier", "gather_hier", "allgather_hier",
           "HIER_GROUP_BASE", "HIER_PORT_BASE", "MAX_HIER_SEGMENTS"]

#: group-id space for hierarchical sub-channels, above the
#: per-communicator ids at :data:`repro.core.channel.GROUP_ID_BASE`
HIER_GROUP_BASE = 1 << 17

#: UDP port space for hierarchical sub-channels (2 ports per group:
#: data + scout), clear of the per-ctx bases at 20000/40000; slabs are
#: reserved per communicator by :meth:`~repro.mpi.world.MpiWorld.
#: alloc_hier_slab`
HIER_PORT_BASE = 60000

#: segments one communicator may span (bounds the group/port slab)
MAX_HIER_SEGMENTS = 64


class SegmentComm:
    """A group-local *view* of a communicator.

    Renumbers ``members`` (a sorted subset of the parent's ranks) to
    dense local ranks 0..k-1 and exposes exactly the surface the round
    engine and the flat multicast collectives need (``rank`` / ``size``
    / ``addr_of`` / ``host`` / ``sim`` / ``mcast``), with its own
    :class:`~repro.core.channel.McastChannel` on a private group.  The
    channel's sequence numbers advance per-view, so phases on different
    groups never cross-match.
    """

    def __init__(self, comm, members, group: int,
                 data_port: int, scout_port: int):
        from ...core.channel import McastChannel  # avoid import cycle

        members = tuple(members)
        if list(members) != sorted(members):
            raise ValueError(f"segment members must be sorted, got "
                             f"{list(members)}")
        self.parent = comm
        self.members = members
        self.rank = members.index(comm.rank)
        self.ranks = tuple(comm.addr_of(r) for r in members)
        self.host = comm.host
        self.sim = comm.sim
        self.mcast = McastChannel(self, group=group, data_port=data_port,
                                  scout_port=scout_port)

    @property
    def size(self) -> int:
        return len(self.members)

    def addr_of(self, rank: int) -> int:
        return self.ranks[rank]

    def close(self) -> None:
        self.mcast.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<SegmentComm rank={self.rank}/{self.size} "
                f"of ctx={self.parent.ctx}>")


# ----------------------------------------------------------------------
# the pure hierarchy layer (shared with the policy's frame models)
# ----------------------------------------------------------------------
class HierNode:
    """One occupied node of the collapsed hierarchy tree.

    Leaves carry a dense segment id (``seg``); internal nodes have at
    least two children (switch subtrees with members in exactly one
    child are collapsed away — they add trunk hops, not phases).
    ``members`` is the sorted tuple of communicator ranks in the
    subtree; ``leader`` its minimum.
    """

    __slots__ = ("path", "seg", "children", "members", "leader")

    def __init__(self, path: tuple, seg: Optional[int],
                 children: tuple, members: tuple):
        self.path = path
        self.seg = seg
        self.children = children
        self.members = members
        self.leader = members[0]

    @property
    def is_leaf(self) -> bool:
        return self.seg is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = f"seg {self.seg}" if self.is_leaf else \
            f"{len(self.children)} children"
        return f"<HierNode {self.path} ({kind}) members={self.members}>"


def build_hier_tree(seg_of_rank, paths=None) -> HierNode:
    """The collapsed hierarchy of a communicator: a tree whose leaves
    are the occupied (dense) segments and whose internal nodes are the
    switch subtrees holding members in more than one child.

    ``paths`` maps each dense segment id to its switch-tree path
    (:meth:`~repro.simnet.topology.Cluster.segment_path`); ``None``
    assumes the two-tier layout (every segment directly under the
    core), under which the tree is exactly PR 4's one-leaders'-group
    hierarchy.
    """
    size = len(seg_of_rank)
    if size < 1:
        raise ValueError("cannot build a hierarchy for zero ranks")
    nsegs = max(seg_of_rank) + 1
    members: list[list[int]] = [[] for _ in range(nsegs)]
    for rank in range(size):
        members[seg_of_rank[rank]].append(rank)
    if paths is None:
        paths = tuple((s,) for s in range(nsegs))

    def _build(depth: int, segs: list[int]) -> HierNode:
        if len(segs) == 1:
            s = segs[0]
            return HierNode(paths[s], s, (), tuple(members[s]))
        buckets: dict[int, list[int]] = {}
        for s in segs:
            if len(paths[s]) <= depth:
                raise ValueError(
                    f"segment paths nest: {paths[s]} is a prefix of a "
                    f"sibling's path")
            buckets.setdefault(paths[s][depth], []).append(s)
        if len(buckets) == 1:
            # pass-through switch: one occupied child, no phase here
            (only,) = buckets.values()
            return _build(depth + 1, only)
        children = tuple(_build(depth + 1, buckets[k])
                         for k in sorted(buckets))
        mem = tuple(sorted(r for c in children for r in c.members))
        return HierNode(paths[segs[0]][:depth], None, children, mem)

    return _build(0, list(range(nsegs)))


def tree_internal_nodes(tree: HierNode) -> list[HierNode]:
    """The tree's internal (group-bearing) nodes, top-down: sorted by
    depth then path — the deterministic order channels are numbered
    in."""
    out: list[HierNode] = []
    stack = [tree]
    while stack:
        node = stack.pop()
        if not node.is_leaf:
            out.append(node)
            stack.extend(node.children)
    out.sort(key=lambda n: (len(n.path), n.path))
    return out


def group_members(node: HierNode) -> tuple:
    """The leader group bridging ``node``: the subtree leader of each
    child, in ascending rank order."""
    return tuple(sorted(c.leader for c in node.children))


def canonical_order(node: HierNode) -> list[int]:
    """The operand order hierarchical folding produces: each group
    folds in ascending member (= leader) rank order, recursively."""
    if node.is_leaf:
        return list(node.members)
    out: list[int] = []
    for child in sorted(node.children, key=lambda c: c.leader):
        out.extend(canonical_order(child))
    return out


def _leaf_of(tree: HierNode, rank: int) -> HierNode:
    node = tree
    while not node.is_leaf:
        node = _child_containing(node, rank)
    return node


def _child_containing(node: HierNode, rank: int) -> HierNode:
    for child in node.children:
        if rank in child.members:
            return child
    raise ValueError(f"rank {rank} is not in subtree {node.path}")


def _is_prefix(p: tuple, q: tuple) -> bool:
    return len(p) <= len(q) and q[:len(p)] == p


@dataclass(frozen=True, eq=False)
class HierPhase:
    """One group-collective phase of a hierarchical plan."""

    key: tuple            #: ("leaf", seg) or ("node", path) — channel id
    members: tuple        #: participating comm ranks, ascending
    root: int             #: the rank serving / collecting this phase
    node: HierNode        #: the hierarchy node the phase bridges

    @property
    def size(self) -> int:
        return len(self.members)


def _leaf_phase(leaf: HierNode, root: int) -> HierPhase:
    return HierPhase(("leaf", leaf.seg), leaf.members, root, leaf)


def _node_phase(node: HierNode, root: int) -> HierPhase:
    return HierPhase(("node", node.path), group_members(node), root, node)


def bcast_phases(tree: HierNode, root: int) -> list[HierPhase]:
    """Global phase order of the hierarchical broadcast: the root's
    leaf, then the groups on the root's ancestor chain bottom-up (each
    served by the leader of its root-side child), then the remaining
    groups top-down (served by their subtree leader), then the
    remaining leaves (served by their leaf leader)."""
    phases: list[HierPhase] = []
    root_leaf = _leaf_of(tree, root)
    if len(root_leaf.members) > 1:
        phases.append(_leaf_phase(root_leaf, root))
    internals = tree_internal_nodes(tree)
    chain = [n for n in internals if _is_prefix(n.path, root_leaf.path)]
    for node in sorted(chain, key=lambda n: -len(n.path)):   # bottom-up
        phases.append(_node_phase(node, _child_containing(node,
                                                          root).leader))
    for node in internals:                                   # top-down
        if not _is_prefix(node.path, root_leaf.path):
            phases.append(_node_phase(node, node.leader))
    for leaf in _tree_leaves(tree):
        if leaf is not root_leaf and len(leaf.members) > 1:
            phases.append(_leaf_phase(leaf, leaf.leader))
    return phases


def up_phases(tree: HierNode, root: int) -> tuple[list[HierPhase], int]:
    """Global phase order of the hierarchical reduce/gather, plus the
    *holder*: all leaves fold to their leaders, then the groups fold
    bottom-up to their subtree leaders — except the top group, which is
    rooted at the leader of its child subtree containing ``root`` so
    the final point-to-point forward (holder → root, when they differ)
    stays inside the root's top-level subtree."""
    phases: list[HierPhase] = []
    for leaf in _tree_leaves(tree):
        if len(leaf.members) > 1:
            phases.append(_leaf_phase(leaf, leaf.leader))
    holder = _child_containing(tree, root).leader
    internals = tree_internal_nodes(tree)
    for node in sorted(internals, key=lambda n: -len(n.path)):
        collect = holder if node is tree else node.leader
        phases.append(_node_phase(node, collect))
    return phases, holder


@dataclass(frozen=True, eq=False)
class ScatterPlan:
    """The hierarchical scatter's plan: the root's leaf phase, an
    optional hoist (root → top-phase server p2p carrying the bundle for
    every rank outside the root's leaf), the internal distribution
    phases top-down, and the remaining leaf phases."""

    root_leaf: Optional[HierPhase]
    hoist: Optional[tuple]        #: (src rank, dst rank) or None
    internals: tuple
    leaves: tuple


def scatter_phases(tree: HierNode, root: int) -> ScatterPlan:
    root_leaf = _leaf_of(tree, root)
    first = (_leaf_phase(root_leaf, root)
             if len(root_leaf.members) > 1 else None)
    holder = _child_containing(tree, root).leader
    hoist = (root, holder) if holder != root else None
    internals = []
    for node in tree_internal_nodes(tree):                   # top-down
        serve = holder if node is tree else node.leader
        internals.append(_node_phase(node, serve))
    leaves = tuple(_leaf_phase(leaf, leaf.leader)
                   for leaf in _tree_leaves(tree)
                   if leaf is not root_leaf and len(leaf.members) > 1)
    return ScatterPlan(first, hoist, tuple(internals), leaves)


@dataclass(frozen=True, eq=False)
class AllgatherPlan:
    """Up: every group allgathers its children's bundles bottom-up
    (leaves first).  Down: every group *below the top* re-broadcasts
    the full result top-down, then the leaves."""

    up: tuple
    down: tuple


def allgather_phases(tree: HierNode) -> AllgatherPlan:
    up: list[HierPhase] = []
    for leaf in _tree_leaves(tree):
        if len(leaf.members) > 1:
            up.append(_leaf_phase(leaf, leaf.leader))
    internals = tree_internal_nodes(tree)
    for node in sorted(internals, key=lambda n: -len(n.path)):
        up.append(_node_phase(node, node.leader))
    down: list[HierPhase] = []
    for node in internals:                                   # top-down
        if node is not tree:
            down.append(_node_phase(node, node.leader))
    for leaf in _tree_leaves(tree):
        if len(leaf.members) > 1:
            down.append(_leaf_phase(leaf, leaf.leader))
    return AllgatherPlan(tuple(up), tuple(down))


def _tree_leaves(tree: HierNode) -> list[HierNode]:
    leaves: list[HierNode] = []
    stack = [tree]
    while stack:
        node = stack.pop()
        if node.is_leaf:
            leaves.append(node)
        else:
            stack.extend(node.children)
    leaves.sort(key=lambda n: n.seg)
    return leaves


@dataclass(frozen=True, eq=False)
class SegmentLayout:
    """The rank-invariant hierarchy of one member set (immutable, so
    every rank holding the communicator shares one instance)."""

    seg_of_rank: tuple    #: dense segment index of every rank
    members: tuple        #: member ranks per dense segment, ascending
    leaders: tuple        #: leader (smallest member rank) per segment
    #: the recursive leader-ordered fold preserves MPI's canonical
    #: operand order (see the module docstring)
    contiguous: bool
    paths: Optional[tuple]   #: switch-tree path per dense segment
    tree: HierNode        #: :func:`build_hier_tree` of the above


def layout_from_segments(raw, paths=None) -> SegmentLayout:
    """Pure core of :func:`segment_layout`: the :class:`SegmentLayout`
    of a per-rank segment-id list (and optionally the dense segments'
    switch-tree paths) — dense segment indices, ascending member
    tuples, min-rank leaders, the hierarchy tree and its contiguous
    flag."""
    dense = {s: k for k, s in enumerate(sorted(set(raw)))}
    seg_of_rank = tuple(dense[s] for s in raw)
    members: list[list[int]] = [[] for _ in dense]
    for rank, k in enumerate(seg_of_rank):
        members[k].append(rank)
    tree = build_hier_tree(seg_of_rank, paths)
    contiguous = canonical_order(tree) == list(range(len(raw)))
    return SegmentLayout(seg_of_rank, tuple(map(tuple, members)),
                         tuple(m[0] for m in members), contiguous,
                         paths, tree)


def segment_layout(comm) -> SegmentLayout:
    """The rank-invariant hierarchy of one communicator, from the
    cluster's discovery API.

    Computed once per distinct member-address tuple and memoized on
    the world (``MpiWorld.layouts``): the layout depends only on the
    fabric and the member set, so every rank holding the communicator
    reads back the same immutable object.  Single source of truth
    shared by :class:`HierState` (the execution side) and the auto
    policy's :func:`~repro.mpi.collective.policy.comm_topology` (the
    modelling side) — the policy's hier-withholding gate and the
    reduce's fallback condition must agree bit-for-bit or auto would
    select an implementation whose model assumes the other path.
    """
    layouts = comm.world.layouts
    layout = layouts.get(comm.ranks)
    if layout is None:
        cluster = comm.world.cluster
        raw = [cluster.segment_of(addr) for addr in comm.ranks]
        paths = tuple(cluster.segment_path(s) for s in sorted(set(raw)))
        layout = layouts[comm.ranks] = layout_from_segments(raw, paths)
    return layout


class HierState:
    """Cached per-communicator hierarchy: the tree, leaders, channels.

    Built lazily on the first ``hier-mcast`` dispatch (every rank builds
    it at the same collective, so group joins pair up) and owned by the
    communicator — :meth:`repro.mpi.communicator.Communicator.free`
    closes the sub-channels, emitting the IGMP leaves that shrink the
    switches' snooped member sets.
    """

    def __init__(self, comm):
        from ...simnet.frame import mcast_mac

        layout = segment_layout(comm)
        #: dense segment index of every communicator rank
        self.seg_of_rank = layout.seg_of_rank
        #: member ranks per dense segment, ascending
        self.members = layout.members
        #: leader (smallest member rank) per dense segment
        self.leaders = layout.leaders
        #: contiguous rank blocks — hierarchical folding is canonical
        self.contiguous = layout.contiguous
        #: switch-tree path per dense segment
        self.paths = layout.paths
        self.nsegments = len(self.members)
        if self.nsegments > MAX_HIER_SEGMENTS:
            raise ValueError(
                f"communicator spans {self.nsegments} segments; "
                f"hier-mcast supports at most {MAX_HIER_SEGMENTS}")
        self.my_seg = self.seg_of_rank[comm.rank]
        self.is_leader = comm.rank == self.leaders[self.my_seg]
        #: the collapsed hierarchy (leaves = occupied segments,
        #: internal nodes = leader groups; see :func:`build_hier_tree`),
        #: shared with every other rank through the layout
        self.tree = layout.tree

        #: whether the one-time post-creation p2p barrier has run (see
        #: :func:`hier_ready`); trivially true with no sub-channels
        self.synced = self.nsegments <= 1
        #: this rank's leaf channel (None on single-segment comms and
        #: for ranks alone in their leaf — no phase ever uses a one-
        #: member leaf group, so joining it would be pure setup waste)
        self.seg_comm: Optional[SegmentComm] = None
        #: channels of every group this rank is a member of, by key
        self.comms: dict[tuple, SegmentComm] = {}
        #: this rank's leader-group chain, bottom-up (node, channel)
        self.chain: list[tuple[HierNode, SegmentComm]] = []
        self._slab: "tuple | None" = None   # (world, ctx) to release
        if self.nsegments > 1:
            internals = tree_internal_nodes(self.tree)
            keys = ([("leaf", s) for s in range(self.nsegments)]
                    + [("node", n.path) for n in internals])
            group_base, port_base = comm.world.alloc_hier_slab(
                comm.ctx, len(keys), HIER_GROUP_BASE, HIER_PORT_BASE)
            self._slab = (comm.world, comm.ctx)
            index = {key: i for i, key in enumerate(keys)}

            def make(key, members) -> SegmentComm:
                gi = index[key]
                return SegmentComm(comm, members,
                                   group=mcast_mac(group_base + gi),
                                   data_port=port_base + 2 * gi,
                                   scout_port=port_base + 2 * gi + 1)

            if len(self.members[self.my_seg]) > 1:
                self.seg_comm = make(("leaf", self.my_seg),
                                     self.members[self.my_seg])
                self.comms[("leaf", self.my_seg)] = self.seg_comm
            for node in sorted(internals, key=lambda n: -len(n.path)):
                gm = group_members(node)
                if comm.rank in gm:
                    sub = make(("node", node.path), gm)
                    self.comms[("node", node.path)] = sub
                    self.chain.append((node, sub))

    def close(self) -> None:
        for sub in self.comms.values():
            sub.close()
        self.comms = {}
        self.chain = []
        self.seg_comm = None
        if self._slab is not None:
            world, ctx = self._slab
            self._slab = None
            world.free_hier_slab(ctx)


def hier_state(comm) -> HierState:
    """The communicator's cached :class:`HierState` (built on first use
    by :func:`hier_ready` — prefer that inside collectives)."""
    if comm._hier is None:
        comm._hier = HierState(comm)
    return comm._hier


def hier_ready(comm) -> Generator:
    """Build-and-synchronize accessor used by the collectives.

    The sub-channels are created lazily on the first ``hier-mcast``
    dispatch — a *collective* moment, so every rank builds them during
    the same call.  Creation alone is not enough, though: a rank that
    enters its first phase early could unicast a scout toward a peer
    that has not yet opened its (buffered) scout socket, and the
    datagram would die as ``drops_no_listener``.  Mirroring
    ``Communicator._setup``, the building call therefore runs one p2p
    barrier after creation — afterwards every member's sockets exist
    and every IGMP join has been snooped along its uplink (FIFO per
    link), so phases may race freely.
    """
    st = hier_state(comm)
    if not st.synced:
        # Explicit flag, not "did this call build the state": a rank
        # that merely inspected hier_state() early (the discovery API)
        # must still join — and must not skip — the group's one
        # synchronization.  Every rank reaches its first hier-mcast
        # dispatch with synced=False, so the barrier is collective.
        from .barrier_p2p import barrier_mpich

        yield from barrier_mpich(comm)
        st.synced = True
    return st


def _phase_label(op: str, key: tuple) -> str:
    """Compact stable span label for one phase: ``bcast@leaf2``,
    ``gather@node0.1`` — derived from the plan key alone, so every rank
    of a phase names it identically."""
    kind, ident = key
    if kind == "leaf":
        return f"{op}@leaf{ident}"
    return f"{op}@node" + ".".join(str(p) for p in ident)


@contextmanager
def _phase_span(comm, label: str):
    """Bracket one hierarchical phase for the flight recorder.

    Duck-typed through ``stats.recorder`` like every producer-side hook:
    one attribute load and a branch when tracing is off.  The span is
    attributed to the *parent* communicator's host, so it lands inside
    the collective span the dispatcher opened on the same host.
    """
    rec = comm.host.stats.recorder
    if rec is None:
        yield
        return
    token = rec.phase_begin(comm.sim.now, comm.host.addr, label)
    try:
        yield
    finally:
        rec.phase_end(comm.sim.now, token)


# ----------------------------------------------------------------------
# the collectives
# ----------------------------------------------------------------------
@register("bcast", "hier-mcast")
def bcast_hier(comm, obj: Any, root: int = 0) -> Generator:
    """Recursive hierarchical broadcast (see :func:`bcast_phases`): the
    root streams to its leaf, the data climbs the root's leader chain
    (each trunk tier carries each payload frame once, and only
    per-*leader* control, not per-rank), then cascades down the other
    subtrees and leaves in parallel — repairs stay inside the losing
    group's switch subtree."""
    from ...core.segment import bcast_mcast_seg_nack

    st = yield from hier_ready(comm)
    if st.nsegments == 1:
        result = yield from bcast_mcast_seg_nack(comm, obj, root)
        return result
    for phase in bcast_phases(st.tree, root):
        if comm.rank in phase.members:
            sub = st.comms[phase.key]
            with _phase_span(comm, _phase_label("bcast", phase.key)):
                obj = yield from bcast_mcast_seg_nack(
                    sub, obj, sub.members.index(phase.root))
    return obj


@register("reduce", "hier-mcast")
def reduce_hier(comm, obj: Any, op, root: int = 0) -> Generator:
    """Recursive hierarchical reduce: leaves fold to their leaders,
    leader groups fold bottom-up (see :func:`up_phases`), and the
    holder forwards to the root point-to-point when they differ.

    Folding order is canonical (ascending absolute rank) whenever the
    hierarchy partitions the ranks into recursively contiguous blocks;
    otherwise non-commutative operators take the flat segmented reduce
    (see module docstring).  Returns the reduction at ``root``; ``None``
    elsewhere.
    """
    from ...core.mcast_reduce import reduce_mcast_seg_combine

    st = yield from hier_ready(comm)
    if st.nsegments == 1 or (not st.contiguous
                             and not getattr(op, "commutative", True)):
        result = yield from reduce_mcast_seg_combine(comm, obj, op, root)
        return result
    phases, holder = up_phases(st.tree, root)
    value = copy.copy(obj)
    for phase in phases:
        if comm.rank in phase.members:
            sub = st.comms[phase.key]
            with _phase_span(comm, _phase_label("reduce", phase.key)):
                out = yield from reduce_mcast_seg_combine(
                    sub, value, op, sub.members.index(phase.root))
            if comm.rank == phase.root:
                value = out
    result = value if comm.rank == holder else None
    if holder != root:
        if comm.rank == holder:
            yield from comm._send_coll(result, root, TAG_HIER)
            result = None
        elif comm.rank == root:
            result = yield from comm._recv_coll(holder, TAG_HIER)
    return result if comm.rank == root else None


@register("allreduce", "hier-mcast")
def allreduce_hier(comm, obj: Any, op) -> Generator:
    """Hierarchical allreduce: hier reduce to rank 0 (the leader of
    every subtree on its chain by construction), then hier broadcast of
    the result."""
    result = yield from reduce_hier(comm, obj, op, 0)
    result = yield from bcast_hier(comm, result, 0)
    return result


@register("barrier", "hier-mcast")
def barrier_hier(comm) -> Generator:
    """Recursive hierarchical barrier: scouts gather up every group of
    this rank's chain (leaf first), the top leader — global rank 0 —
    pivots, and data-less release multicasts cascade back down."""
    from ...core.scout import scout_gather_binary

    st = yield from hier_ready(comm)
    if st.nsegments == 1:
        from ...core.mcast_barrier import barrier_mcast

        yield from barrier_mcast(comm)
        return None
    stages: list[SegmentComm] = []
    if st.seg_comm is not None:
        stages.append(st.seg_comm)
    stages.extend(sub for _node, sub in st.chain)
    seqs: list[int] = []
    posted: list = []
    for i, sub in enumerate(stages):        # gather up, bottom-up
        channel = sub.mcast
        seq = channel.next_seq()
        seqs.append(seq)
        # post the release receive BEFORE scouting up (the paper's
        # readiness invariant, same as the flat barrier)
        posted.append(None if sub.rank == 0 else channel.post_data())
        with _phase_span(comm, f"barrier@up{i}"):
            yield from scout_gather_binary(sub, channel, seq, 0)
    for i in reversed(range(len(stages))):  # release down, top-down
        sub, channel = stages[i], stages[i].mcast
        with _phase_span(comm, f"barrier@down{i}"):
            if sub.rank == 0:
                yield from channel.send_data(None, 0, seqs[i],
                                             control=True)
            else:
                src, got_seq, _ = yield from channel.wait_data(posted[i])
                if got_seq != seqs[i] or src != 0:  # pragma: no cover
                    raise AssertionError(
                        f"rank {comm.rank} got stale hierarchical "
                        f"barrier release (seq {got_seq} != {seqs[i]})")
    return None


@register("scatter", "hier-mcast")
def scatter_hier(comm, objs, root: int = 0) -> Generator:
    """Hierarchical scatter (see :func:`scatter_phases`): the root
    serves its own leaf directly, hands the remaining elements to the
    top phase's server (a p2p hoist, skipped when the root serves the
    top itself), and per-subtree *bundles* cascade down the leader
    groups until each leaf leader scatters its segment.  Returns this
    rank's element of the root's sequence."""
    from ...core.mcast_scatter import scatter_mcast_seg_root

    st = yield from hier_ready(comm)
    if st.nsegments == 1:
        result = yield from scatter_mcast_seg_root(comm, objs, root)
        return result
    size = comm.size
    if comm.rank == root and (objs is None or len(objs) != size):
        raise ValueError(
            f"scatter root needs exactly {size} elements, "
            f"got {None if objs is None else len(objs)}")
    plan = scatter_phases(st.tree, root)
    root_seg = st.seg_of_rank[root]
    result = objs[root] if comm.rank == root else None

    if plan.root_leaf is not None and comm.rank in plan.root_leaf.members:
        sub = st.comms[plan.root_leaf.key]
        local = [objs[r] for r in plan.root_leaf.members] \
            if comm.rank == root else None
        with _phase_span(comm,
                         _phase_label("scatter", plan.root_leaf.key)):
            mine = yield from scatter_mcast_seg_root(
                sub, local, sub.members.index(root))
        if comm.rank != root:
            result = mine

    # the bundle: {rank: element} for every rank outside the root's leaf
    carried = None
    if comm.rank == root:
        carried = {r: objs[r] for r in range(size)
                   if st.seg_of_rank[r] != root_seg}
    if plan.hoist is not None:
        src, dst = plan.hoist
        if comm.rank == src:
            yield from comm._send_coll(carried, dst, TAG_HIER)
            carried = None
        elif comm.rank == dst:
            carried = yield from comm._recv_coll(src, TAG_HIER)

    for phase in plan.internals:
        if comm.rank not in phase.members:
            continue
        sub = st.comms[phase.key]
        local = None
        if comm.rank == phase.root:
            parts = []
            for member in phase.members:
                child = _child_containing(phase.node, member)
                parts.append({r: carried[r] for r in child.members
                              if r in carried})
            local = parts
        with _phase_span(comm, _phase_label("scatter", phase.key)):
            carried = yield from scatter_mcast_seg_root(
                sub, local, sub.members.index(phase.root))

    for phase in plan.leaves:
        if comm.rank in phase.members:
            sub = st.comms[phase.key]
            local = None
            if comm.rank == phase.root:
                local = [carried[r] for r in phase.members]
            with _phase_span(comm, _phase_label("scatter", phase.key)):
                result = yield from scatter_mcast_seg_root(
                    sub, local, sub.members.index(phase.root))
    if result is None and carried is not None:
        # a single-member leaf outside the root's: the element arrived
        # as this rank's one-entry bundle from its lowest leader group
        result = carried.get(comm.rank)
    return result


@register("gather", "hier-mcast")
def gather_hier(comm, obj: Any, root: int = 0) -> Generator:
    """Hierarchical gather: the reverse of the scatter — leaves gather
    to their leaders, leader groups gather bundles bottom-up (see
    :func:`up_phases`), and the holder forwards the assembled list to
    the root when they differ.  Returns the rank-ordered list at
    ``root``; ``None`` elsewhere."""
    from ...core.mcast_gather import gather_mcast_seg_root_follow

    st = yield from hier_ready(comm)
    if st.nsegments == 1:
        result = yield from gather_mcast_seg_root_follow(comm, obj, root)
        return result
    phases, holder = up_phases(st.tree, root)
    carried = {comm.rank: obj}
    for phase in phases:
        if comm.rank in phase.members:
            sub = st.comms[phase.key]
            with _phase_span(comm, _phase_label("gather", phase.key)):
                out = yield from gather_mcast_seg_root_follow(
                    sub, carried, sub.members.index(phase.root))
            if comm.rank == phase.root:
                merged: dict = {}
                for part in out:
                    merged.update(part)
                carried = merged
    if holder != root:
        if comm.rank == holder:
            yield from comm._send_coll(carried, root, TAG_HIER)
        elif comm.rank == root:
            carried = yield from comm._recv_coll(holder, TAG_HIER)
    if comm.rank == root:
        return [carried[r] for r in range(comm.size)]
    return None


@register("allgather", "hier-mcast")
def allgather_hier(comm, obj: Any) -> Generator:
    """Hierarchical allgather (see :func:`allgather_phases`): every
    group allgathers its children's bundles bottom-up — each trunk tier
    carries each contribution once — then the groups below the top
    re-broadcast the assembled result top-down and the leaf leaders
    deliver it segment-locally."""
    from ...core.segment import (allgather_mcast_seg_paced,
                                 bcast_mcast_seg_nack)

    st = yield from hier_ready(comm)
    if st.nsegments == 1:
        result = yield from allgather_mcast_seg_paced(comm, obj)
        return result
    plan = allgather_phases(st.tree)
    carried = {comm.rank: obj}
    for phase in plan.up:
        if comm.rank in phase.members:
            sub = st.comms[phase.key]
            with _phase_span(
                    comm, _phase_label("allgather-up", phase.key)):
                outs = yield from allgather_mcast_seg_paced(sub, carried)
            merged: dict = {}
            for part in outs:
                merged.update(part)
            carried = merged
    for phase in plan.down:
        if comm.rank in phase.members:
            sub = st.comms[phase.key]
            payload = carried if comm.rank == phase.root else None
            with _phase_span(
                    comm, _phase_label("allgather-down", phase.key)):
                carried = yield from bcast_mcast_seg_nack(
                    sub, payload, sub.members.index(phase.root))
    return [carried[r] for r in range(comm.size)]
