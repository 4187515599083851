"""Communicator topology is computed once per member set, not per rank.

Every rank holding a communicator asks the same questions about its
member set: the channel's trunk diameter (``McastChannel.trunk_hops`` /
``trunk_us_per_byte``) and the hierarchy layout behind ``HierState``.
The fast path answers them once per distinct member tuple and shares the
answer; these tests hold it against the per-rank brute force it
replaced, on every fabric shape, and bound the set-up work to linear.
"""

from dataclasses import replace

import pytest

from repro import run_spmd
from repro.mpi.collective.hier import (build_hier_tree, canonical_order,
                                       hier_state, tree_internal_nodes)
from repro.simnet import quiet
from repro.simnet.calibration import FAST_ETHERNET_SWITCH

AUTO = quiet(replace(FAST_ETHERNET_SWITCH, segment_bytes="auto"))
SLOW = replace(AUTO, rate_mbps=10.0)
FAST = replace(AUTO, rate_mbps=1000.0)


# ------------------------------------------------ the per-rank reference
def reference_trunk_path(cluster, addrs):
    """The per-rank pairwise walk: one representative host per
    occupied segment, the worst (hops, µs/byte) over all pairs."""
    fabric = cluster.fabric
    if fabric is None:
        return 0, 0.0
    reps = {}
    for addr in addrs:
        reps.setdefault(cluster.segment_of(addr), addr)
    reps = list(reps.values())
    hops, us_per_byte = 0, 0.0
    for i, a in enumerate(reps):
        for b in reps[i + 1:]:
            tiers = fabric.trunk_path_tiers(a, b)
            hops = max(hops, len(tiers))
            us_per_byte = max(us_per_byte, sum(
                8.0 / fabric.trunk_params_for(t).rate_mbps
                for t in tiers))
    return hops, us_per_byte


def reference_layout(cluster, addrs):
    """The per-rank segment layout: dense ids by list search, members
    by an S x N scan, the tree rebuilt from scratch."""
    size = len(addrs)
    raw = [cluster.segment_of(a) for a in addrs]
    segs = sorted(set(raw))
    seg_of_rank = [segs.index(s) for s in raw]
    members = [[r for r in range(size) if seg_of_rank[r] == k]
               for k in range(len(segs))]
    paths = tuple(cluster.segment_path(s) for s in segs)
    tree = build_hier_tree(seg_of_rank, paths)
    return {
        "seg_of_rank": seg_of_rank,
        "members": members,
        "leaders": [m[0] for m in members],
        "contiguous": canonical_order(tree) == list(range(size)),
        "paths": paths,
        "order": canonical_order(tree),
        "internals": [n.path for n in tree_internal_nodes(tree)],
    }


def observed(comm):
    """What the fast path handed this rank, in the reference's shape,
    plus the reference itself — computed on the rank, per rank."""
    cluster = comm.world.cluster
    addrs = [comm.addr_of(r) for r in range(comm.size)]
    st = hier_state(comm)
    got = {
        "seg_of_rank": list(st.seg_of_rank),
        "members": [list(m) for m in st.members],
        "leaders": list(st.leaders),
        "contiguous": st.contiguous,
        "paths": st.paths,
        "order": canonical_order(st.tree),
        "internals": [n.path for n in tree_internal_nodes(st.tree)],
    }
    channels = [(comm.mcast.trunk_hops, comm.mcast.trunk_us_per_byte,
                 reference_trunk_path(cluster, addrs))]
    for sub in st.comms.values():
        channels.append((sub.mcast.trunk_hops, sub.mcast.trunk_us_per_byte,
                         reference_trunk_path(cluster, sub.ranks)))
    return got, reference_layout(cluster, addrs), channels


def assert_matches_reference(returns):
    for rank, (got, ref, channels) in enumerate(returns):
        assert got == ref, f"rank {rank}"
        for hops, us_per_byte, expect in channels:
            assert (hops, us_per_byte) == expect, f"rank {rank}"


@pytest.mark.parametrize("topology,n", [
    ("hub", 5), ("switch", 6), ("tree:2x4", 8), ("tree:2x2x2", 8),
    ("tree:[4,8,2]", 14)])
def test_fast_path_equals_per_rank_reference(topology, n):
    def main(env):
        yield from env.comm.bcast(b"x" if env.rank == 0 else None, 0)
        return observed(env.comm)

    result = run_spmd(n, main, topology=topology, params=AUTO,
                      collectives={"bcast": "hier-mcast"})
    assert_matches_reference(result.returns)


def test_fast_path_weighs_per_tier_trunk_rates():
    def main(env):
        yield from env.comm.bcast(b"x" if env.rank == 0 else None, 0)
        return observed(env.comm)

    result = run_spmd(8, main, topology="tree:2x2x2", params=AUTO,
                      trunk_params=[SLOW, FAST],
                      collectives={"bcast": "hier-mcast"})
    assert_matches_reference(result.returns)
    _got, _ref, channels = result.returns[0]
    hops, us_per_byte, _ = channels[0]
    # two slow core trunks and two fast edge trunks across the tree
    assert hops == 4
    assert us_per_byte == pytest.approx(2 * 0.8 + 2 * 0.008)


def test_split_member_sets_share_one_world_memo():
    """Two colors over different segment subsets of ``tree:2x2x2``:
    one world memo, one answer per member set."""
    #: color 1's new rank order interleaves two leaves of one subtree,
    #: so its hierarchical fold is not canonical
    keys = {1: 0, 4: 1, 6: 2, 5: 3, 7: 4}

    def main(env):
        color = 0 if env.rank in (0, 2, 3) else 1
        key = keys.get(env.rank, env.rank)
        sub = yield from env.comm.split(color, key=key)
        sub.use_collectives(bcast="hier-mcast")
        yield from sub.bcast(b"x" if sub.rank == 0 else None, 0)
        got, ref, channels = observed(sub)
        return color, sub.ranks, (got, ref, channels)

    result = run_spmd(8, main, topology="tree:2x2x2", params=AUTO)
    assert_matches_reference([obs for _c, _r, obs in result.returns])
    by_color = {}
    for color, ranks, (got, _ref, channels) in result.returns:
        by_color.setdefault(color, set()).add(
            (ranks, channels[0][0], got["contiguous"]))
    # every rank of a color agrees; the colors get their own answers
    assert by_color == {0: {((0, 2, 3), 2, True)},
                        1: {((1, 4, 6, 5, 7), 4, False)}}
    layouts = result.world.layouts
    assert {(0, 2, 3), (1, 4, 6, 5, 7)} <= set(layouts)
    diameters = result.cluster.fabric._diameters
    assert diameters[(0, 2, 3)][0] == 2
    assert diameters[(1, 4, 6, 5, 7)][0] == 4


def test_setup_work_is_linear_in_ranks():
    """One hier-mcast bcast on 64 ranks over 8 segments: the trunk-path
    walk runs once per member set (the world and the leaders' group,
    ``S*(S-1)/2`` pairs each), and the segment lookups once per rank."""
    segments, n = 8, 64
    counts = {"paths": 0, "segments": 0}

    def count(cluster):
        fabric = cluster.fabric
        path_tiers, segment_of = fabric.trunk_path_tiers, cluster.segment_of

        def counted_path_tiers(a, b):
            counts["paths"] += 1
            return path_tiers(a, b)

        def counted_segment_of(addr):
            counts["segments"] += 1
            return segment_of(addr)

        fabric.trunk_path_tiers = counted_path_tiers
        cluster.segment_of = counted_segment_of

    def main(env):
        out = yield from env.comm.bcast(
            bytes(4000) if env.rank == 0 else None, 0)
        return len(out)

    result = run_spmd(n, main, topology="tree:8x8", params=AUTO,
                      collectives={"bcast": "hier-mcast"},
                      on_cluster=count)
    assert result.returns == [4000] * n
    assert 0 < counts["paths"] <= segments * (segments - 1)
    assert 0 < counts["segments"] <= 4 * n
