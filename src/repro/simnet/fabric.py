"""Multi-segment switched fabrics: a recursive tree of switches joined
by trunks.

The paper's platforms are a single hub or a single switch; this module
grows the simulator past that ceiling with recursive "switch of
switches" fabrics of any depth: every **segment** is a leaf
:class:`~repro.simnet.switchdev.Switch` with its own hosts, interior
switches aggregate subtrees, and every parent-child pair is joined by a
full-duplex **trunk** whose links may carry their own
:class:`~repro.simnet.calibration.NetParams` — per *tier*, so a fat-tree
style backbone (fast near the core, slower toward the edge, or the
reverse) is one list away.

Topology string grammar (accepted by
:func:`~repro.simnet.topology.build_cluster` alongside ``"hub"`` and
``"switch"``):

* ``"tree:SxH"`` — the classic two-tier build: S leaf switches of H
  hosts each behind one core switch (``"tree:2x4"`` = 8 hosts);
* ``"tree:B1x...xBkxH"`` — an arbitrary-depth tree: the core fans out
  to B1 switches, each fans out to B2, ..., the last tier is
  ``B1*...*Bk`` leaf switches of H hosts each (``"tree:2x2x2"`` = a
  three-tier tree of 4 leaves, 8 hosts, with host pairs up to 4 trunk
  serializations apart);
* ``"tree:[n1,n2,...]"`` — heterogeneous segment sizes: one core, one
  leaf switch per list entry, ``ni`` hosts on leaf i
  (``"tree:[4,8,2]"`` = 14 hosts in three unequal segments).

Three properties make the fabric more than wiring:

* **trunk accounting** — trunk half-links are created with
  ``is_trunk=True``, so every serialization on a switch-to-switch link
  lands in ``NetStats.frames_trunk`` / ``trunk_frames_by_kind``.  Trunks
  are the scarce, shared resource of a tiered network (Karonis &
  de Supinski's motivation for topology-aware collectives), and the
  hierarchical collectives of :mod:`repro.mpi.collective.hier` are
  judged by exactly this counter;
* **snooping across tiers** — IGMP report/leave frames are snooped at
  the ingress switch and propagated out its trunk ports (see
  :meth:`~repro.simnet.switchdev.Switch._snoop`), so membership
  knowledge diffuses through any number of trunk hops: every switch in
  the tree learns which of its ports face downstream (or upstream)
  members.  A multicast frame therefore traverses exactly the trunk
  edges that separate the sender's segment from segments with members —
  once per edge, never once per member;
* **topology discovery** — the :class:`Fabric` exposes segment
  membership, per-host segment ids, per-segment tree *paths*, and true
  multi-level trunk-hop distances.
  :class:`~repro.simnet.topology.Cluster` forwards this API (degrading
  to one segment on flat topologies), and ranks query it at runtime via
  ``comm.world.cluster`` to elect per-segment leaders (recursively:
  leaders of leaders, see :mod:`repro.mpi.collective.hier`) and to let
  the auto collective policy weigh trunk crossings.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .calibration import NetParams
from .host import Host
from .kernel import SimError, Simulator
from .link import HalfLink
from .stats import NetStats
from .switchdev import Switch

__all__ = ["FabricSpec", "Fabric", "PartitionError", "parse_topology",
           "build_fabric", "path_trunk_hops"]


class PartitionError(SimError):
    """The run could not make progress because the fabric was
    partitioned: a trunk was down, a switch was dead, or a host's
    links were cut while ranks still depended on each other.

    Raised by :func:`repro.runtime.program.run_spmd` when a deadlock
    is detected *and* the cluster reports active partition faults
    (:meth:`~repro.simnet.topology.Cluster.partition_faults`) — the
    round engine itself cannot distinguish a partition from loss, but
    the launcher can, and a typed error beats a bare deadlock in every
    chaos postcondition.
    """

_TREE_RE = re.compile(r"^tree:(\d+(?:x\d+)+)$")
_TREE_LIST_RE = re.compile(r"^tree:\[(\d+(?:\s*,\s*\d+)*)\]$")

#: per-tier trunk wire parameters: one NetParams for every trunk, or a
#: sequence indexed by tier (0 = core-to-children; deeper tiers toward
#: the leaves reuse the last entry when the sequence is short)
TrunkParams = Union[NetParams, Sequence[NetParams], None]


@dataclass(frozen=True)
class FabricSpec:
    """A parsed tiered-topology description.

    ``branching`` lists the per-tier fan-outs from the core down to the
    leaf-switch tier (``(S,)`` for the two-tier ``tree:SxH``);
    ``leaf_sizes`` lists hosts per leaf segment in tree (DFS) order.
    The two-field constructor ``FabricSpec(segments, hosts_per_segment)``
    still describes the uniform two-tier fabric; the extra fields
    default accordingly.
    """

    segments: int            #: leaf switches of the tree
    hosts_per_segment: int   #: hosts per leaf (0 when heterogeneous)
    branching: tuple = ()    #: per-tier fan-out, core downwards
    leaf_sizes: tuple = ()   #: hosts per leaf segment, tree order

    def __post_init__(self):
        if not self.branching:
            object.__setattr__(self, "branching", (self.segments,))
        if not self.leaf_sizes:
            object.__setattr__(
                self, "leaf_sizes",
                (self.hosts_per_segment,) * self.segments)
        prod = 1
        for b in self.branching:
            prod *= b
        if (self.segments < 1 or prod != self.segments
                or len(self.leaf_sizes) != self.segments):
            raise ValueError(
                f"inconsistent fabric spec: branching {self.branching} "
                f"and leaf sizes {self.leaf_sizes} do not describe "
                f"{self.segments} segments")
        if any(b < 1 for b in self.branching) or any(
                sz < 1 for sz in self.leaf_sizes):
            raise ValueError(
                f"fabric spec needs at least one switch per tier and "
                f"one host per segment, got branching={self.branching} "
                f"leaf_sizes={self.leaf_sizes}")

    @property
    def n(self) -> int:
        return sum(self.leaf_sizes)

    @property
    def depth(self) -> int:
        """Switch tiers below the core (1 = the two-tier fabric)."""
        return len(self.branching)

    def leaf_paths(self) -> list[tuple]:
        """Tree path (child indices from the core) of every leaf, in
        segment order."""
        paths: list[tuple] = [()]
        for b in self.branching:
            paths = [p + (i,) for p in paths for i in range(b)]
        return paths


def parse_topology(spec: str) -> Optional[FabricSpec]:
    """Parse a topology string; ``None`` for the flat topologies.

    * ``"tree:SxH"`` — S segments of H hosts each behind one core;
    * ``"tree:B1x..xBkxH"`` — arbitrary-depth: per-tier branching
      factors, then hosts per leaf (``"tree:2x2x2"`` = 4 leaves of 2);
    * ``"tree:[n1,n2,...]"`` — heterogeneous two-tier: one leaf per
      entry, ``ni`` hosts on leaf i.

    Anything else that is not a known flat topology raises at the
    caller (:func:`~repro.simnet.topology.build_cluster`).
    """
    match = _TREE_LIST_RE.match(spec)
    if match is not None:
        sizes = tuple(int(tok) for tok in match.group(1).split(","))
        if any(sz < 1 for sz in sizes):
            raise ValueError(f"topology {spec!r} needs at least one "
                             f"host per segment")
        uniform = sizes[0] if len(set(sizes)) == 1 else 0
        return FabricSpec(segments=len(sizes),
                          hosts_per_segment=uniform,
                          leaf_sizes=sizes)
    match = _TREE_RE.match(spec)
    if match is None:
        return None
    nums = [int(tok) for tok in match.group(1).split("x")]
    if any(v < 1 for v in nums):
        raise ValueError(f"topology {spec!r} needs at least one switch "
                         f"per tier and one host per segment")
    branching, hosts = tuple(nums[:-1]), nums[-1]
    segments = 1
    for b in branching:
        segments *= b
    return FabricSpec(segments=segments, hosts_per_segment=hosts,
                      branching=branching)


def path_trunk_hops(pa: tuple, pb: tuple) -> int:
    """Trunk serializations between two segment tree paths: the edges
    up from ``pa`` to the lowest common ancestor and down to ``pb``
    (0 inside one segment, 2 across siblings, 4 across a three-tier
    fabric's halves, ...)."""
    common = 0
    for a, b in zip(pa, pb):
        if a != b:
            break
        common += 1
    return (len(pa) - common) + (len(pb) - common)


class Fabric:
    """A recursive switch-tree fabric plus its discovery API.

    Interior switches live at tree *paths* (tuples of child indices
    from the core, the core itself at ``()``); leaf switches carry the
    hosts.  ``trunk_params`` may be a single :class:`NetParams` for
    every trunk or a sequence indexed by tier (0 = the trunks leaving
    the core), so each level of the backbone can run its own wire
    speed.
    """

    def __init__(self, sim: Simulator, params: NetParams,
                 stats: NetStats, trunk_params: TrunkParams = None):
        self.sim = sim
        self.params = params
        self.stats = stats
        self.trunk_params = trunk_params
        self.core = Switch(sim, params, stats=stats, name="core")
        #: every switch of the tree, keyed by its path ('()' = core)
        self.nodes: dict[tuple, Switch] = {(): self.core}
        self.leaves: list[Switch] = []
        #: both half links of every trunk, keyed by the *child* path
        #: (``(up_toward_parent, down_toward_child)``) — the handle the
        #: partition API toggles
        self.trunks: dict[tuple, tuple[HalfLink, HalfLink]] = {}
        #: per-host access links ``addr -> (up_to_leaf, down_to_host)``,
        #: the handle the host-crash API toggles
        self.host_links: dict[int, tuple[HalfLink, HalfLink]] = {}
        self._segments: list[list[int]] = []   # host addrs per segment
        self._segment_of: dict[int, int] = {}
        self._paths: list[tuple] = []          # tree path per segment
        #: member-address tuple -> (hops, µs/byte); see trunk_diameter
        self._diameters: dict[tuple, tuple[int, float]] = {}

    # -- construction ----------------------------------------------------
    def trunk_params_for(self, tier: int) -> NetParams:
        """Wire parameters of a trunk at ``tier`` (0 = leaving the core).
        A short per-tier sequence repeats its last entry downwards."""
        tp = self.trunk_params
        if tp is None:
            return self.params
        if isinstance(tp, NetParams):
            return tp
        if not tp:
            return self.params
        return tp[min(tier, len(tp) - 1)]

    def _connect(self, parent: Switch, child: Switch, tier: int,
                 path: tuple) -> None:
        """Wire the full-duplex trunk between ``parent`` and ``child``;
        both directions carry the tier's trunk NetParams and are tallied
        in the trunk counters.  ``path`` (the child's tree path) keys
        the trunk in :attr:`trunks` for the partition API."""
        tparams = self.trunk_params_for(tier)
        parent_holder: list[int] = []
        child_holder: list[int] = []
        up = HalfLink(self.sim, tparams, self.stats,
                      deliver=_ingress(parent, parent_holder),
                      name=f"{child.name}->{parent.name}",
                      count_as_send=False, is_trunk=True)
        down = HalfLink(self.sim, tparams, self.stats,
                        deliver=_ingress(child, child_holder),
                        name=f"{parent.name}->{child.name}",
                        count_as_send=False, is_trunk=True)
        child_holder.append(child.add_port(up, trunk=True))
        parent_holder.append(parent.add_port(down, trunk=True))
        self.trunks[path] = (up, down)

    def add_node(self, path: tuple) -> Switch:
        """Create an interior switch at ``path`` and trunk it to its
        (already existing) parent."""
        if not path or path in self.nodes:
            raise ValueError(f"cannot add interior switch at {path!r}")
        parent = self.nodes[path[:-1]]
        node = Switch(self.sim, self.params, stats=self.stats,
                      name="sw" + ".".join(map(str, path)))
        self.nodes[path] = node
        self._connect(parent, node, tier=len(path) - 1, path=path)
        return node

    def add_segment(self, hosts: list[Host],
                    path: Optional[tuple] = None) -> Switch:
        """Wire ``hosts`` to a fresh leaf switch at tree position
        ``path`` (default: directly under the core, the two-tier
        layout), trunked to its parent."""
        seg_id = len(self.leaves)
        if path is None:
            path = (seg_id,)
        if path in self.nodes or not path:
            raise ValueError(f"cannot add leaf switch at {path!r}")
        parent = self.nodes.get(path[:-1])
        if parent is None:
            raise ValueError(f"no parent switch at {path[:-1]!r} for a "
                             f"leaf at {path!r}")
        leaf = Switch(self.sim, self.params, stats=self.stats,
                      name=f"leaf{seg_id}")
        for host in hosts:
            port_holder: list[int] = []
            up = HalfLink(self.sim, self.params, self.stats,
                          deliver=_ingress(leaf, port_holder),
                          name=f"{host.name}->{leaf.name}")
            down = HalfLink(self.sim, self.params, self.stats,
                            deliver=host.nic.deliver,
                            name=f"{leaf.name}->{host.name}",
                            count_as_send=False)
            port_holder.append(leaf.add_port(down))
            host.nic.attach_link(up)
            self.host_links[host.addr] = (up, down)
        self.nodes[path] = leaf
        self._connect(parent, leaf, tier=len(path) - 1, path=path)
        self.leaves.append(leaf)
        self._segments.append([h.addr for h in hosts])
        for host in hosts:
            self._segment_of[host.addr] = seg_id
        self._paths.append(path)
        return leaf

    # -- chaos seams -----------------------------------------------------
    def partition_trunk(self, path: tuple):
        """Cut both directions of the trunk above the switch at
        ``path`` — the subtree below it can no longer exchange frames
        with the rest of the fabric.  Frames in flight still serialize
        (the transmitter cannot tell) but never arrive.  Returns the
        matching undo callable (== ``lambda: heal_trunk(path)``), so
        scenario code stacks it for teardown."""
        up, down = self.trunks[path]
        up.up = down.up = False
        return lambda: self.heal_trunk(path)

    def heal_trunk(self, path: tuple) -> None:
        """Restore a trunk cut by :meth:`partition_trunk`."""
        up, down = self.trunks[path]
        up.up = down.up = True

    def partition_faults(self) -> list[str]:
        """Human-readable descriptions of every active fault — downed
        trunks, dead switches — for :class:`PartitionError` messages
        and the launcher's deadlock classification."""
        faults = []
        for path in sorted(self.trunks):
            up, down = self.trunks[path]
            if not (up.up and down.up):
                faults.append(f"trunk above sw{path} down")
        for path in sorted(self.nodes):
            if not self.nodes[path].alive:
                faults.append(f"switch {self.nodes[path].name} dead")
        for addr in sorted(self.host_links):
            up, down = self.host_links[addr]
            if not (up.up and down.up):
                faults.append(f"host {addr} links down")
        return faults

    # -- discovery -------------------------------------------------------
    @property
    def nsegments(self) -> int:
        return len(self._segments)

    @property
    def depth(self) -> int:
        """Deepest switch tier below the core (1 = two-tier)."""
        return max((len(p) for p in self._paths), default=0)

    def segment_of(self, addr: int) -> int:
        """Segment id of a host address."""
        try:
            return self._segment_of[addr]
        except KeyError:
            raise ValueError(f"host {addr} is not attached to this "
                             f"fabric") from None

    def segment_members(self, seg_id: int) -> list[int]:
        """Host addresses attached to segment ``seg_id``."""
        if not 0 <= seg_id < len(self._segments):
            raise ValueError(f"no segment {seg_id} in a "
                             f"{len(self._segments)}-segment fabric")
        return list(self._segments[seg_id])

    def segment_path(self, seg_id: int) -> tuple:
        """Tree path of segment ``seg_id``'s leaf switch: the child
        indices walked from the core ('(i,)' on a two-tier build)."""
        if not 0 <= seg_id < len(self._paths):
            raise ValueError(f"no segment {seg_id} in a "
                             f"{len(self._paths)}-segment fabric")
        return self._paths[seg_id]

    def trunk_hops(self, a: int, b: int) -> int:
        """Trunk serializations between hosts ``a`` and ``b``: the
        number of switch-to-switch links on their path (0 inside one
        segment, 2 across sibling segments, up to ``2 * depth`` across
        the fabric's farthest corners)."""
        sa, sb = self.segment_of(a), self.segment_of(b)
        if sa == sb:
            return 0
        return path_trunk_hops(self._paths[sa], self._paths[sb])

    def trunk_path_tiers(self, a: int, b: int) -> list[int]:
        """Tier of every trunk edge on the a↔b path (one entry per
        hop counted by :meth:`trunk_hops`).  Lets latency models weigh
        each hop by its own tier's wire rate when ``trunk_params``
        differ per tier."""
        sa, sb = self.segment_of(a), self.segment_of(b)
        if sa == sb:
            return []
        pa, pb = self._paths[sa], self._paths[sb]
        common = 0
        for x, y in zip(pa, pb):
            if x != y:
                break
            common += 1
        # the edge above a node at depth d is a tier-(d-1) trunk
        return ([d - 1 for d in range(common + 1, len(pa) + 1)]
                + [d - 1 for d in range(common + 1, len(pb) + 1)])

    def trunk_diameter(self, addrs: tuple) -> tuple[int, float]:
        """Worst trunk path between any two of the hosts ``addrs``:
        ``(hops, wire µs per payload byte across those hops)``, each
        hop weighed by its own tier's rate (:meth:`trunk_params_for`).

        The answer depends only on the set of occupied segments, so the
        pairwise walk runs over one representative host per segment,
        once per distinct ``addrs``: every rank of a communicator asks
        with the same member tuple, and the memo answers all but the
        first.
        """
        hit = self._diameters.get(addrs)
        if hit is not None:
            return hit
        reps: dict[int, int] = {}
        for addr in addrs:
            reps.setdefault(self.segment_of(addr), addr)
        seg_reps = list(reps.values())
        hops = 0
        us_per_byte = 0.0
        for i, a in enumerate(seg_reps):
            for b in seg_reps[i + 1:]:
                tiers = self.trunk_path_tiers(a, b)
                hops = max(hops, len(tiers))
                us_per_byte = max(us_per_byte, sum(
                    8.0 / self.trunk_params_for(t).rate_mbps
                    for t in tiers))
        self._diameters[addrs] = (hops, us_per_byte)
        return hops, us_per_byte

    def trunk_distance_matrix(self) -> list[list[int]]:
        """``matrix[a][b]`` = trunk hops between host addrs a and b."""
        addrs = sorted(self._segment_of)
        return [[self.trunk_hops(a, b) for b in addrs] for a in addrs]


def build_fabric(sim: Simulator, params: NetParams, hosts: list[Host],
                 spec: FabricSpec, stats: NetStats,
                 trunk_params: TrunkParams = None) -> Fabric:
    """Partition ``hosts`` into consecutive segments per ``spec`` and
    wire the (possibly multi-tier) fabric."""
    if len(hosts) != spec.n:
        raise ValueError(
            f"fabric spec {spec.branching}x{spec.leaf_sizes} needs "
            f"exactly {spec.n} hosts, got {len(hosts)}")
    fabric = Fabric(sim, params, stats, trunk_params=trunk_params)
    # interior tiers first (top-down), so every leaf finds its parent;
    # `paths` holds the previous tier's node paths as we descend
    paths: list[tuple] = [()]
    for branch in spec.branching[:-1]:
        paths = [p + (i,) for p in paths for i in range(branch)]
        for path in paths:
            fabric.add_node(path)
    off = 0
    for path, size in zip(spec.leaf_paths(), spec.leaf_sizes):
        fabric.add_segment(hosts[off:off + size], path=path)
        off += size
    return fabric


def _ingress(switch: Switch, port_holder: list[int]):
    """Bind the ingress callback to the port index assigned afterwards."""

    def ingress(frame):
        switch.receive(port_holder[0], frame)

    return ingress
