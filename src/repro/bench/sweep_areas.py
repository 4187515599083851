"""This repo's extension sweep areas on :mod:`repro.bench.sweep`.

Five areas — four on the simulated network, plus the simulator's own
speed:

* ``segmented-bcast``:
  frame counts of the segmented NACK-repair broadcast vs the PVM-style
  ``mcast-ack`` baseline under induced loss, the seeded-loss repair
  closed loop, and the latency sweep incl. the ``"auto"`` policy;
* ``fabric-scaling``: per-call trunk
  serializations of flat vs hierarchical broadcast on a two-tier
  ``tree:2x4`` fabric, the auto policy's model-consistency audit, and
  the latency sweep;
* ``deep-fabric``: exact trunk models
  for flat and hierarchical collectives on three-tier and
  heterogeneous trees, hierarchy trunk wins, auto dispatch, and the
  loss-model closed loop;
* ``segmented-reduce``: payload
  frames of the turn-based segmented reduce/allreduce vs the MPICH
  binomial trees, selective segment repair under induced loss, and
  the ``"auto"`` never-worse postcondition over frames and latency;
* ``sim-throughput``: wall-clock and
  events/sec of a 1024-host broadcast plus the deep-fabric gate sweep
  with the analytic fluid backend on vs off.  Event/clock metrics are
  exact; ``wall*``/``rate*`` metrics are banded wide in
  :func:`repro.bench.sweep.diff_docs` and so are the one deliberate
  exception to gate documents being rerun-deterministic.

Where a case asks only for a loss-free trunk-frame count that the
coverage ledger marks exact, :mod:`repro.analysis.fluid` answers it
analytically instead of simulating (``REPRO_FLUID=0`` forces the DES;
``tests/test_fluid.py`` proves both paths emit identical documents).

Every reproduction criterion is either an in-runner assertion
(correctness of the collective's result) or an area **postcondition**
over the collected document, checked by ``run_area(..., check=True)``.

Two scales per area: ``"gate"`` is tiny and **environment-independent**
(its documents are committed under ``benchmarks/results/`` and re-run
by ``make bench-gate``); ``"full"`` is the big sweep, with fixed rep
counts.  The paper's own figures are the ``paper`` area
(:mod:`repro.bench.paper`).
"""

from __future__ import annotations

import os
import statistics
from dataclasses import replace

import numpy as np

from ..analysis import fluid
from ..analysis.framecount import (expected_seg_repair_frames,
                                   model_hier_frames,
                                   model_seg_allgather_trunk_frames,
                                   model_seg_bcast_trunk_frames,
                                   model_seg_reduce_trunk_frames,
                                   model_seg_scatter_trunk_frames)
from ..core.segment import (plan_segments, plan_transport,
                            seg_nack_datagram_count,
                            seg_nack_frame_count)
from ..mpi.ops import SUM
from ..runtime import run_spmd
from ..simnet import quiet
from ..simnet.calibration import FAST_ETHERNET_SWITCH
from .paper import measure
from .sweep import AreaSpec, Family, find_series, metric, register_area

FIXED = FAST_ETHERNET_SWITCH
AUTO = replace(FAST_ETHERNET_SWITCH, segment_bytes="auto")
QUIET = quiet(FIXED)
QUIET_AUTO = quiet(AUTO)


def _fluid_enabled() -> bool:
    """May the analytic fluid backend stand in for the DES?  On by
    default; ``REPRO_FLUID=0`` forces every case to simulate (used by
    the parity tests to prove both paths produce the same document)."""
    return os.environ.get("REPRO_FLUID", "1") != "0"


# ---------------------------------------------------------------------------
# induced-loss machinery (verbatim semantics from the bespoke scripts)
# ---------------------------------------------------------------------------
def _drop_first_copy(unit_of):
    """Filter dropping the first arrival of each distinct data unit."""
    seen = set()

    def flt(dgram):
        unit = unit_of(dgram)
        if unit is None or unit in seen:
            return False
        seen.add(unit)
        return True

    return flt


def _seg_unit(dgram):
    """A ``mcast-seg`` datagram whose batch holds a segment ≡ 3 mod 8."""
    if dgram.kind != "mcast-seg":
        return None
    _root, seq, seg = dgram.payload
    segs = seg if isinstance(seg, tuple) else (seg,)
    if not any(s.index % 8 == 3 for s in segs):
        return None
    return (seq, min(s.index for s in segs))


def _any_data_unit(kind):
    """First-copy-per-broadcast unit, symmetric across impls (used by
    the frame-count comparison so a 1-segment payload still sees loss)."""
    def unit_of(dgram):
        if dgram.kind != kind:
            return None
        return (dgram.payload[1],)          # the broadcast's seq
    return unit_of


def _lossy_setup(unit_of):
    def setup(env):
        if env.rank % 2 == 1:
            env.comm.mcast.data_sock.drop_filter = _drop_first_copy(unit_of)
    return setup


# ===========================================================================
# area: segmented-bcast
# ===========================================================================
SEG_NPROCS = 4
#: wide enough for mcast-ack's full-payload retransmission storms
SEG_WINDOW_US = 150_000.0

#: variant -> (registry impl, NetParams, lossy?)
_SEG_VARIANTS = {
    "seg-fixed-lossy": ("mcast-seg-nack", FIXED, True),
    "seg-auto-lossy": ("mcast-seg-nack", AUTO, True),
    "seg-fixed-clean": ("mcast-seg-nack", FIXED, False),
    "seg-auto-clean": ("mcast-seg-nack", AUTO, False),
    "ack-lossy": ("mcast-ack", FIXED, True),
    "p2p-clean": ("p2p-binomial", FIXED, False),
    "policy-clean": ("auto", AUTO, False),
}
_SEG_VARIANTS_FULL = dict(_SEG_VARIANTS)
_SEG_VARIANTS_FULL["seg-730-lossy"] = (
    "mcast-seg-nack", replace(FIXED, segment_bytes=730), True)


def _seg_sizes(scale: str) -> tuple:
    return (12_000,) if scale == "gate" else (1000, 12_000, 48_000)


def _seg_reps(scale: str) -> int:
    return 3 if scale == "gate" else 20


def _seg_loss_unit(impl: str, plan: str):
    """The bespoke scripts' per-impl induced-loss units: the fixed
    per-segment plan loses segments ≡ 3 mod 8, the batched auto plan
    and the ack baseline lose the first copy of each call's data."""
    if impl == "mcast-ack":
        return _any_data_unit("mcast-data")
    if plan == "auto":
        return _any_data_unit("mcast-seg")
    return _seg_unit


def seg_frames_case(scale, seed, impl, size, loss):
    """One quiet single-shot broadcast; stream/data/datagram counts."""
    if impl == "ack":
        registry_impl, params = "mcast-ack", QUIET
        plan = "fixed"
    elif impl == "seg-auto":
        registry_impl, params = "mcast-seg-nack", QUIET_AUTO
        plan = "auto"
    else:                                   # seg-fixed
        registry_impl, params = "mcast-seg-nack", QUIET
        plan = "fixed"
    setup = (_lossy_setup(_seg_loss_unit(registry_impl, plan))
             if loss == "induced" else None)
    payload = bytes(size)

    def main(env):
        env.comm.use_collectives(bcast=registry_impl)
        if setup is not None:
            setup(env)
        obj = payload if env.rank == 0 else None
        out = yield from env.comm.bcast(obj, 0)
        return out == payload

    result = run_spmd(SEG_NPROCS, main, params=params, seed=seed)
    assert all(result.returns), f"{impl}@{size}B/{loss}: corrupt payload"
    kinds = result.stats["frames_by_kind"]
    if registry_impl == "mcast-ack":
        stream = kinds.get("mcast-data", 0) + kinds.get("scout", 0)
        data = kinds.get("mcast-data", 0)
    else:
        stream = sum(kinds.get(k, 0) for k in
                     ("mcast-seg", "mcast-seg-hdr", "seg-report",
                      "seg-dec", "scout"))
        data = kinds.get("mcast-seg", 0)
    return {
        "frames_stream": stream,
        "frames_data": data,
        "datagrams_net": (result.stats["datagrams_sent"]
                          - kinds.get("p2p", 0)),
        "retransmissions": result.stats["retransmissions"],
    }


def seg_repair_case(scale, seed):
    """Seeded probabilistic loss vs ``expected_seg_repair_frames``."""
    n, loss, size = 8, 0.05, 96_000
    n_ops = 2 if scale == "gate" else 4

    def main(env):
        env.comm.use_collectives(bcast="mcast-seg-nack")
        for _ in range(n_ops):
            out = yield from env.comm.bcast(
                bytes(size) if env.rank == 0 else None, 0)
            assert len(out) == size
        return True

    clean = run_spmd(n, main, params=QUIET_AUTO, seed=seed)
    lossy = run_spmd(n, main, params=replace(QUIET_AUTO, loss=loss),
                     seed=seed)
    assert all(clean.returns) and all(lossy.returns)
    nsegs = plan_transport(size, QUIET_AUTO).nsegs
    return {
        "frames_repair": (lossy.stats["frames_sent"]
                          - clean.stats["frames_sent"]),
        "frames_repair_expected":
            n_ops * expected_seg_repair_frames(n, nsegs, loss),
        "drops_lossy": lossy.stats["drops_lossy"],
    }


def seg_latency_case(scale, seed, variant, size):
    """Max-over-ranks bcast latency of one variant at one size."""
    variants = (_SEG_VARIANTS if scale == "gate" else _SEG_VARIANTS_FULL)
    impl, params, lossy = variants[variant]
    setup = (_lossy_setup(_seg_loss_unit(impl, "any")) if lossy else None)
    lats = measure("bcast", impl, "switch", SEG_NPROCS, [size],
                   _seg_reps(scale), seed, params=params, setup=setup,
                   window_us=SEG_WINDOW_US)[size]
    return {"latency_us_median": statistics.median(lats),
            "latency_us_min": min(lats), "latency_us_max": max(lats)}


def _seg_families(scale):
    sizes = _seg_sizes(scale)
    variants = (_SEG_VARIANTS if scale == "gate" else _SEG_VARIANTS_FULL)
    return [
        Family("frames", {"impl": ("seg-fixed", "seg-auto", "ack"),
                          "size": sizes, "loss": ("clean", "induced")},
               seg_frames_case),
        Family("repair", {}, seg_repair_case),
        Family("latency", {"variant": tuple(variants), "size": sizes},
               seg_latency_case),
    ]


def _seg_union(nsegs: int) -> list:
    return [i for i in range(nsegs) if i % 8 == 3]


def seg_post_frame_formula(doc):
    """Per-segment frame counts match the closed formula (criterion 2
    of the bespoke script), loss-free and with one repair round."""
    size = _seg_sizes(doc["scale"])[-1]
    nsegs = len(plan_segments(size, QUIET.segment_bytes))
    union = _seg_union(nsegs)

    def get(loss, name):
        return metric(doc, "frames", name, impl="seg-fixed",
                      size=size, loss=loss)

    assert get("clean", "frames_stream") == \
        seg_nack_frame_count(SEG_NPROCS, nsegs)
    assert get("clean", "frames_data") == nsegs
    assert get("clean", "retransmissions") == 0
    assert get("induced", "frames_stream") == \
        seg_nack_frame_count(SEG_NPROCS, nsegs, [len(union)])
    assert get("induced", "frames_data") == nsegs + len(union)
    assert get("induced", "retransmissions") == len(union)


def seg_post_beats_ack(doc):
    """Selective repair beats whole-payload retransmission on the wire
    at the many-segment end (criterion 1)."""
    size = _seg_sizes(doc["scale"])[-1]
    seg = metric(doc, "frames", "frames_stream", impl="seg-fixed",
                 size=size, loss="induced")
    ack = metric(doc, "frames", "frames_stream", impl="ack",
                 size=size, loss="induced")
    assert seg < ack, (f"seg-nack used {seg} frames at {size} B, "
                       f"ack only {ack}")


def seg_post_auto_plan(doc):
    """The crossover criterion (3): at every size the auto plan puts
    no more payload frames on the wire than mcast-ack under symmetric
    first-copy loss, and its loss-free datagram count matches the
    batched closed form."""
    for size in _seg_sizes(doc["scale"]):
        seg_data = metric(doc, "frames", "frames_data", impl="seg-auto",
                          size=size, loss="induced")
        ack_data = metric(doc, "frames", "frames_data", impl="ack",
                          size=size, loss="induced")
        assert seg_data <= ack_data, (
            f"auto seg-nack sent {seg_data} payload frames at {size} B, "
            f"mcast-ack only {ack_data}")
        tp = plan_transport(size, QUIET_AUTO)
        dg = metric(doc, "frames", "datagrams_net", impl="seg-auto",
                    size=size, loss="clean")
        assert dg == seg_nack_datagram_count(SEG_NPROCS, tp.nsegs,
                                             tp.batch)


def seg_post_repair_band(doc):
    """Criterion 5: measured seeded-loss repair traffic inside the
    [expected/3, 1.5*expected] model band."""
    entry = find_series(doc, "repair")
    measured = entry["metrics"]["frames_repair"]
    expected = entry["metrics"]["frames_repair_expected"]
    assert entry["metrics"]["drops_lossy"] > 0
    assert expected / 3 <= measured <= 1.5 * expected, (
        f"measured {measured} repair frames outside the model band "
        f"[{expected / 3:.0f}, {1.5 * expected:.0f}]")


def seg_post_policy_tracks(doc):
    """The payload-aware policy tracks the impl it chose per size
    (modulo the scout announcement + window jitter)."""
    from ..mpi.collective.policy import auto_impl

    for size in _seg_sizes(doc["scale"]):
        def med(variant):
            return metric(doc, "latency", "latency_us_median",
                          variant=variant, size=size)

        chosen = auto_impl("bcast", size, SEG_NPROCS, AUTO)
        ref = med("p2p-clean" if chosen == "p2p-binomial"
                  else "seg-auto-clean")
        assert med("policy-clean") <= ref * 1.35 + 400, (
            f"auto bcast median {med('policy-clean'):.0f} us at "
            f"{size} B vs chosen {chosen}'s {ref:.0f} us")


def seg_post_full_orderings(doc):
    """Full-scale-only latency orderings (criteria 1 and 4): seg-nack
    and the auto plan beat mcast-ack at the ≥32-segment end, and the
    auto plan's loss-free median beats the fixed plan's below the
    batching crossover."""
    if doc["scale"] != "full":
        return
    big = _seg_sizes("full")[-1]

    def med(variant, size):
        return metric(doc, "latency", "latency_us_median",
                      variant=variant, size=size)

    assert len(plan_segments(big, FIXED.segment_bytes)) >= 32
    assert med("seg-fixed-lossy", big) < med("ack-lossy", big)
    assert med("seg-auto-lossy", big) < med("ack-lossy", big)
    assert med("seg-auto-clean", 12_000) < med("seg-fixed-clean", 12_000)


register_area(AreaSpec(
    name="segmented-bcast",
    title="Segmented NACK-repair broadcast vs whole-payload "
          "retransmission, under loss",
    families=_seg_families,
    postconditions=(seg_post_frame_formula, seg_post_beats_ack,
                    seg_post_auto_plan, seg_post_repair_band,
                    seg_post_policy_tracks, seg_post_full_orderings),
))


# ===========================================================================
# area: fabric-scaling
# ===========================================================================
FAB_TOPOLOGY = "tree:2x4"
FAB_NPROCS = 8
FAB_SEG_OF = (0, 0, 0, 0, 1, 1, 1, 1)
FAB_IMPLS = ("p2p-binomial", "mcast-seg-nack", "hier-mcast", "auto")
_FAB_ENGINE = {"flat": "mcast-seg-nack", "hier": "hier-mcast"}


def _fab_sizes(scale: str) -> tuple:
    return (24_000,) if scale == "gate" else (2000, 24_000, 96_000)


def _fab_reps(scale: str) -> int:
    return 2 if scale == "gate" else 5


def _bcast_trunk(topology, nprocs, impl, size, n_ops, seed):
    def main(env):
        env.comm.use_collectives(bcast=impl)
        for _ in range(n_ops):
            data = yield from env.comm.bcast(
                bytes(size) if env.rank == 0 else None, 0)
            assert len(data) == size
        return True

    result = run_spmd(nprocs, main, topology=topology,
                      params=QUIET_AUTO, seed=seed)
    assert all(result.returns)
    return result.stats["frames_trunk"]


def _fab_per_call_des(impl, size, seed):
    """Per-call trunk frames measured by the simulator (two-op minus
    one-op, isolating channel-setup IGMP)."""
    one = _bcast_trunk(FAB_TOPOLOGY, FAB_NPROCS, impl, size, 1, seed)
    two = _bcast_trunk(FAB_TOPOLOGY, FAB_NPROCS, impl, size, 2, seed)
    return two - one


def fab_trunk_case(scale, seed, engine, size):
    """Trunk frames of ONE bcast (quiet, deterministic).  The fluid
    backend answers when its model is exact (same integer, no
    simulation); ``REPRO_FLUID=0`` forces the DES."""
    impl = _FAB_ENGINE[engine]
    if _fluid_enabled():
        trunk = fluid.trunk_frames_per_call("bcast", impl, FAB_SEG_OF,
                                            0, size, QUIET_AUTO)
        if trunk is not None:
            return {"frames_trunk_call": trunk}
    return {"frames_trunk_call": _fab_per_call_des(impl, size, seed)}


def fab_latency_case(scale, seed, impl, size):
    """Median over reps of the slowest rank's bcast duration (jittered
    platform, barrier-fenced reps)."""
    reps = _fab_reps(scale)

    def main(env):
        env.comm.use_collectives(bcast=impl)
        durations = []
        yield from env.comm.bcast(b"w" if env.rank == 0 else None, 0)
        for _ in range(reps):
            yield from env.comm.barrier()
            start = env.now
            data = yield from env.comm.bcast(
                bytes(size) if env.rank == 0 else None, 0)
            assert len(data) == size
            durations.append(env.now - start)
        return durations

    result = run_spmd(FAB_NPROCS, main, topology=FAB_TOPOLOGY,
                      params=AUTO, seed=seed)
    per_rep = [max(d[i] for d in result.returns) for i in range(reps)]
    return {"latency_us_median": statistics.median(per_rep)}


def fab_audit_case(scale, seed):
    """The policy's pick equals the modeled argmin for every benched
    (op, size), loss-free and at 10% loss (asserted in-runner)."""
    from ..mpi.collective.policy import (TopoInfo, auto_impl,
                                         modeled_frame_costs)

    topo = TopoInfo(seg_of_rank=FAB_SEG_OF, contiguous=True)
    picks = []
    for params, tag in ((QUIET_AUTO, "loss-free"),
                        (replace(QUIET_AUTO, loss=0.10), "10% loss")):
        for op in ("bcast", "reduce", "allreduce"):
            for size in _fab_sizes(scale):
                costs = modeled_frame_costs(op, size, FAB_NPROCS,
                                            params, topo, root=0)
                pick = auto_impl(op, size, FAB_NPROCS, params,
                                 topo=topo)
                assert costs[pick] == min(costs.values()), (
                    f"auto {op}@{size}B ({tag}) picked {pick} "
                    f"({costs[pick]:.0f} modeled frames); costs {costs}")
                picks.append(f"{tag}:{op}@{size}->{pick}")
    return {"audited": len(picks), "picks": ";".join(picks)}


def fab_dispatch_case(scale, seed):
    """Every rank of an auto bcast dispatches the modeled argmin."""
    from ..mpi.collective.policy import TopoInfo, auto_impl

    sizes = _fab_sizes(scale)

    def main(env):
        env.comm.use_collectives(bcast="auto")
        for size in sizes:
            data = yield from env.comm.bcast(
                bytes(size) if env.rank == 0 else None, 0)
            assert len(data) == size
        return [name for op, name in env.comm.impl_log if op == "bcast"]

    result = run_spmd(FAB_NPROCS, main, topology=FAB_TOPOLOGY,
                      params=QUIET_AUTO, seed=seed)
    topo = TopoInfo(seg_of_rank=FAB_SEG_OF, contiguous=True)
    expected = [auto_impl("bcast", size, FAB_NPROCS, QUIET_AUTO,
                          topo=topo) for size in sizes]
    for log in result.returns:
        assert log == expected, (log, expected)
    return {"dispatch": ",".join(expected)}


def _fab_families(scale):
    sizes = _fab_sizes(scale)
    return [
        Family("trunk", {"engine": ("flat", "hier"), "size": sizes},
               fab_trunk_case),
        Family("latency", {"impl": FAB_IMPLS, "size": sizes},
               fab_latency_case),
        Family("auto-audit", {}, fab_audit_case),
        Family("auto-dispatch", {}, fab_dispatch_case),
    ]


def fab_post_trunk_models(doc):
    """Hier-mcast bcast puts strictly fewer frames on the trunks than
    the flat engine, and both match the closed forms exactly."""
    for size in _fab_sizes(doc["scale"]):
        nsegs = plan_transport(size, QUIET_AUTO).nsegs
        flat = metric(doc, "trunk", "frames_trunk_call", engine="flat",
                      size=size)
        hier = metric(doc, "trunk", "frames_trunk_call", engine="hier",
                      size=size)
        assert hier < flat, (
            f"hier-mcast bcast at {size} B crossed the trunks {hier} "
            f"times, the flat engine only {flat}")
        assert flat == model_seg_bcast_trunk_frames(FAB_SEG_OF, 0, nsegs)
        assert hier == model_hier_frames("bcast", FAB_SEG_OF, 0, size,
                                         QUIET_AUTO)[1]


def fab_post_latency_sanity(doc):
    """The trunk savings are not bought with pathological slowdowns."""
    for size in _fab_sizes(doc["scale"]):
        hier = metric(doc, "latency", "latency_us_median",
                      impl="hier-mcast", size=size)
        flat = metric(doc, "latency", "latency_us_median",
                      impl="mcast-seg-nack", size=size)
        assert hier < 3 * flat, (
            f"hier-mcast median {hier:.0f} us at {size} B vs flat "
            f"{flat:.0f} us")


register_area(AreaSpec(
    name="fabric-scaling",
    title="Hierarchical vs flat collectives on a two-tier switch "
          "fabric (trunk frames, auto policy, latency)",
    families=_fab_families,
    postconditions=(fab_post_trunk_models, fab_post_latency_sanity),
))


# ===========================================================================
# area: deep-fabric
# ===========================================================================
#: topology -> (n, seg_of_rank, per-segment switch-tree paths)
DEEP_FABRICS = {
    "tree:2x2x2": (8, (0, 0, 1, 1, 2, 2, 3, 3),
                   ((0, 0), (0, 1), (1, 0), (1, 1))),
    "tree:[4,8,2]": (14, (0,) * 4 + (1,) * 8 + (2,) * 2,
                     ((0,), (1,), (2,))),
}

DEEP_FLAT_IMPL = {"bcast": "mcast-seg-nack",
                  "reduce": "mcast-seg-combine",
                  "scatter": "mcast-seg-root",
                  "gather": "mcast-seg-root-follow",
                  "allgather": "mcast-seg-paced"}


def _deep_size(scale: str) -> int:
    return 24_000 if scale == "gate" else 48_000


def _deep_flat_ops(scale: str) -> tuple:
    if scale == "gate":
        return ("bcast", "scatter", "gather")
    return ("bcast", "reduce", "scatter", "gather", "allgather")


def _deep_hier_ops(scale: str) -> tuple:
    if scale == "gate":
        return ("bcast", "gather")
    return ("bcast", "reduce", "scatter", "gather", "allgather")


def _deep_hier_exact_ops(scale: str) -> tuple:
    return ("bcast",) if scale == "gate" else ("bcast", "reduce")


def _deep_win_ops(scale: str, fabric: str) -> tuple:
    if scale == "gate":
        return ("gather",)
    ops = ["reduce", "gather", "scatter", "allgather"]
    if fabric == "tree:[4,8,2]":
        ops.append("bcast")     # few leaders vs many ranks
    return tuple(ops)


def _op_body(op, size):
    def body(env):
        n = env.comm.size
        if op == "bcast":
            out = yield from env.comm.bcast(
                bytes(size) if env.rank == 0 else None, 0)
            assert len(out) == size
        elif op == "reduce":
            # float64 payload of exactly `size` bytes: partials keep
            # their size through the fold at every hierarchy level
            yield from env.comm.reduce(
                np.zeros(size // 8, dtype=np.float64), SUM, 0)
        elif op == "scatter":
            objs = ([bytes(size // n)] * n if env.rank == 0 else None)
            out = yield from env.comm.scatter(objs, 0)
            assert len(out) == size // n
        elif op == "gather":
            yield from env.comm.gather(bytes(size // n), 0)
        elif op == "allgather":
            out = yield from env.comm.allgather(bytes(size // n))
            assert len(out) == n
        else:  # pragma: no cover - config error
            raise KeyError(op)
    return body


def _deep_trunk(topology, n, op, impl, size, n_ops, seed):
    body = _op_body(op, size)

    def main(env):
        env.comm.use_collectives(**{op: impl})
        for _ in range(n_ops):
            yield from body(env)
        return True

    result = run_spmd(n, main, topology=topology, params=QUIET_AUTO,
                      seed=seed)
    assert all(result.returns)
    return result.stats["frames_trunk"]


def _deep_per_call(topology, n, op, impl, size, seed):
    """Per-call trunk frames (two-op minus one-op, as upstream)."""
    return (_deep_trunk(topology, n, op, impl, size, 2, seed)
            - _deep_trunk(topology, n, op, impl, size, 1, seed))


def _deep_case(scale, seed, fabric, op, impl):
    """One per-call trunk measurement, fluid-first: when the frame
    model for (op, impl) is exact, the analytic backend supplies the
    integer the DES would measure (the area postconditions assert the
    equality whenever the DES does run); otherwise — estimate-grade
    models, lossy platforms, ``REPRO_FLUID=0`` — fall back to the
    two-op-minus-one-op simulation."""
    n, seg_of, paths = DEEP_FABRICS[fabric]
    size = _deep_size(scale)
    if _fluid_enabled():
        trunk = fluid.trunk_frames_per_call(op, impl, seg_of, 0, size,
                                            QUIET_AUTO, paths)
        if trunk is not None:
            return {"frames_trunk_call": trunk}
    return {"frames_trunk_call":
            _deep_per_call(fabric, n, op, impl, size, seed)}


def deep_flat_case(scale, seed, fabric, op):
    return _deep_case(scale, seed, fabric, op, DEEP_FLAT_IMPL[op])


def deep_hier_case(scale, seed, fabric, op):
    return _deep_case(scale, seed, fabric, op, "hier-mcast")


def deep_repair_case(scale, seed):
    """The loss-model closed loop at the legacy [x/4, 2x] band."""
    n, loss = 8, 0.05
    n_ops = 2 if scale == "gate" else 4
    size = 48_000 if scale == "gate" else 96_000

    def main(env):
        env.comm.use_collectives(bcast="mcast-seg-nack")
        for _ in range(n_ops):
            out = yield from env.comm.bcast(
                bytes(size) if env.rank == 0 else None, 0)
            assert len(out) == size
        return True

    clean = run_spmd(n, main, params=QUIET_AUTO, seed=seed)
    lossy = run_spmd(n, main, params=replace(QUIET_AUTO, loss=loss),
                     seed=seed)
    assert all(clean.returns) and all(lossy.returns)
    nsegs = plan_transport(size, QUIET_AUTO).nsegs
    return {
        "frames_repair": (lossy.stats["frames_sent"]
                          - clean.stats["frames_sent"]),
        "frames_repair_expected":
            n_ops * expected_seg_repair_frames(n, nsegs, loss),
        "drops_lossy": lossy.stats["drops_lossy"],
    }


def deep_audit_case(scale, seed, fabric):
    """Auto model-consistency on deep trees (asserted in-runner)."""
    from ..mpi.collective.policy import (TopoInfo, auto_impl,
                                         modeled_frame_costs)

    n, seg_of, paths = DEEP_FABRICS[fabric]
    topo = TopoInfo(seg_of_rank=seg_of, contiguous=True, paths=paths)
    picks = []
    for params, tag in ((QUIET_AUTO, "loss-free"),
                        (replace(QUIET_AUTO, loss=0.05), "5% loss")):
        for op in ("bcast", "reduce", "allreduce", "scatter",
                   "gather", "allgather"):
            for size in (2000, _deep_size(scale)):
                costs = modeled_frame_costs(op, size, n, params, topo,
                                            root=0)
                pick = auto_impl(op, size, n, params, topo=topo)
                assert costs[pick] == min(costs.values()), (
                    f"auto {op}@{size}B on {fabric} ({tag}) picked "
                    f"{pick}; costs {costs}")
                picks.append(f"{tag}:{op}@{size}->{pick}")
    return {"audited": len(picks), "picks": ";".join(picks)}


def deep_dispatch_case(scale, seed):
    """Every rank of an auto gather + bcast on the three-tier tree
    dispatches the modeled argmin."""
    from ..mpi.collective.policy import TopoInfo, auto_impl

    fabric = "tree:2x2x2"
    n, seg_of, paths = DEEP_FABRICS[fabric]
    size = _deep_size(scale)

    def main(env):
        env.comm.use_collectives(gather="auto", bcast="auto")
        yield from env.comm.gather(bytes(size // env.comm.size), 0)
        out = yield from env.comm.bcast(
            bytes(size) if env.rank == 0 else None, 0)
        assert len(out) == size
        return [name for _op, name in env.comm.impl_log]

    result = run_spmd(n, main, topology=fabric, params=QUIET_AUTO,
                      seed=seed)
    topo = TopoInfo(seg_of_rank=seg_of, contiguous=True, paths=paths)
    expected = [auto_impl("gather", size // n, n, QUIET_AUTO, topo=topo),
                auto_impl("bcast", size, n, QUIET_AUTO, topo=topo)]
    for log in result.returns:
        assert log == expected, (log, expected)
    return {"dispatch": ",".join(expected)}


def _deep_families(scale):
    fabrics = tuple(DEEP_FABRICS)
    return [
        Family("trunk-flat", {"fabric": fabrics,
                              "op": _deep_flat_ops(scale)},
               deep_flat_case),
        Family("trunk-hier", {"fabric": fabrics,
                              "op": _deep_hier_ops(scale)},
               deep_hier_case),
        Family("repair", {}, deep_repair_case),
        Family("auto-audit", {"fabric": fabrics}, deep_audit_case),
        Family("auto-dispatch", {}, deep_dispatch_case),
    ]


def deep_post_flat_models(doc):
    """Flat segmented trunk counts == closed forms on deep trees."""
    size = _deep_size(doc["scale"])
    for fabric, (n, seg_of, paths) in DEEP_FABRICS.items():
        nsegs = plan_transport(size, QUIET_AUTO).nsegs
        share = plan_transport(size // n, QUIET_AUTO).nsegs
        models = {
            "bcast": model_seg_bcast_trunk_frames(seg_of, 0, nsegs,
                                                  paths),
            "reduce": model_seg_reduce_trunk_frames(seg_of, 0, nsegs,
                                                    paths),
            "scatter": model_seg_scatter_trunk_frames(
                seg_of, 0, (n - 1) * share, paths),
            "gather": model_seg_reduce_trunk_frames(seg_of, 0, share,
                                                    paths),
            "allgather": model_seg_allgather_trunk_frames(seg_of, share,
                                                          paths),
        }
        for op in _deep_flat_ops(doc["scale"]):
            sim = metric(doc, "trunk-flat", "frames_trunk_call",
                         fabric=fabric, op=op)
            assert sim == models[op], (
                f"flat {op} on {fabric}: sim {sim} != model "
                f"{models[op]}")


def deep_post_hier_models_and_wins(doc):
    """Hier bcast/reduce trunk counts == the phase-walking model, and
    hier strictly below flat where confinement wins."""
    size = _deep_size(doc["scale"])
    for fabric, (n, seg_of, paths) in DEEP_FABRICS.items():
        for op in _deep_hier_exact_ops(doc["scale"]):
            _f, trunk_model = model_hier_frames(op, seg_of, 0, size,
                                                QUIET_AUTO, paths)
            sim = metric(doc, "trunk-hier", "frames_trunk_call",
                         fabric=fabric, op=op)
            assert sim == trunk_model, (
                f"hier {op} on {fabric}: sim {sim} != model "
                f"{trunk_model}")
        for op in _deep_win_ops(doc["scale"], fabric):
            flat = metric(doc, "trunk-flat", "frames_trunk_call",
                          fabric=fabric, op=op)
            hier = metric(doc, "trunk-hier", "frames_trunk_call",
                          fabric=fabric, op=op)
            assert hier < flat, (
                f"hier {op} on {fabric} crossed the trunks {hier} "
                f"times, the flat engine only {flat}")


def deep_post_repair_band(doc):
    """Measured repair traffic inside the legacy [x/4, 2x] band."""
    entry = find_series(doc, "repair")
    measured = entry["metrics"]["frames_repair"]
    expected = entry["metrics"]["frames_repair_expected"]
    assert entry["metrics"]["drops_lossy"] > 0
    assert expected / 4 <= measured <= 2 * expected, (
        f"measured {measured} repair frames outside the model band "
        f"[{expected / 4:.0f}, {2 * expected:.0f}]")


register_area(AreaSpec(
    name="deep-fabric",
    title="Flat vs hierarchical collectives on three-tier and "
          "heterogeneous switch trees, with the loss closed loop",
    families=_deep_families,
    postconditions=(deep_post_flat_models,
                    deep_post_hier_models_and_wins,
                    deep_post_repair_band),
))


# ===========================================================================
# area: segmented-reduce
# ===========================================================================
SEGRED_NPROCS = 4

#: op -> {role: registry impl} — the reduction-side rivals of PR 3
_SEGRED_IMPLS = {
    "reduce": {"p2p": "p2p-binomial", "seg": "mcast-seg-combine"},
    "allreduce": {"p2p": "p2p-reduce-bcast", "seg": "mcast-seg-nack"},
}


def _segred_sizes(scale: str) -> tuple:
    return (12_000,) if scale == "gate" else (1000, 12_000, 48_000)


def _segred_reps(scale: str) -> int:
    return 2 if scale == "gate" else 10


def _segred_drop_unit(want=None):
    """First-copy unit of each ``mcast-seg`` datagram whose leading
    segment index satisfies ``want`` (default all)."""
    def unit_of(dgram):
        if dgram.kind != "mcast-seg":
            return None
        seg = dgram.payload[2]
        first = seg[0].index if isinstance(seg, tuple) else seg.index
        if want is not None and not want(first):
            return None
        return (dgram.payload[0], dgram.payload[1], first)
    return unit_of


def _segred_run(op, impl, size, params, seed, lossy_ranks=(), want=None):
    """One quiet single-shot reduce/allreduce; asserts the numeric
    result on every rank, returns (stats, impl_log of rank 0)."""
    expected = float(sum(range(1, SEGRED_NPROCS + 1)))

    def main(env):
        env.comm.use_collectives(**{op: impl})
        if env.rank in lossy_ranks:
            env.comm.mcast.data_sock.drop_filter = _drop_first_copy(
                _segred_drop_unit(want))
        arr = np.full(max(1, size // 8), float(env.rank + 1),
                      dtype=np.float64)
        if op == "reduce":
            out = yield from env.comm.reduce(arr, SUM, 0)
            ok = out is None or bool(np.all(out == expected))
        else:
            out = yield from env.comm.allreduce(arr, SUM)
            ok = bool(np.all(out == expected))
        return ok, list(env.comm.impl_log)

    result = run_spmd(SEGRED_NPROCS, main, params=params, seed=seed)
    assert all(ok for ok, _log in result.returns), (op, impl, size)
    return result.stats, result.returns[0][1]


def _segred_null_frames(seed):
    """Wireup-only frame baseline: (p2p frames, total frames) of a run
    with no collective, subtracted from the measured runs."""
    result = run_spmd(SEGRED_NPROCS, lambda env: iter(()),
                      params=QUIET_AUTO, seed=seed)
    return (result.stats["frames_by_kind"].get("p2p", 0),
            result.stats["frames_sent"])


def segred_frames_case(scale, seed, op, size):
    """Payload frames on the wire: the segmented engine vs the p2p
    default, loss-free (each contribution crosses the wire once either
    way; the broadcast half of the segmented allreduce is ONE stream
    against the tree's N-1 re-sends)."""
    from ..analysis.framecount import model_p2p_tree_frames

    base_p2p, _ = _segred_null_frames(seed)
    p2p_stats, _ = _segred_run(op, _SEGRED_IMPLS[op]["p2p"], size,
                               QUIET_AUTO, seed)
    seg_stats, _ = _segred_run(op, _SEGRED_IMPLS[op]["seg"], size,
                               QUIET_AUTO, seed)
    p2p = p2p_stats["frames_by_kind"].get("p2p", 0) - base_p2p
    seg = seg_stats["frames_by_kind"].get("mcast-seg", 0)
    if op == "reduce":
        assert p2p == model_p2p_tree_frames(QUIET_AUTO, SEGRED_NPROCS,
                                            size)
    return {"frames_payload_p2p": p2p, "frames_payload_seg": seg}


def segred_formulas_case(scale, seed):
    """Loss-free stream frames == the closed forms, with the fixed
    per-segment plan (the formulas count segments exactly)."""
    from ..analysis.framecount import (model_seg_allreduce_frames,
                                       model_seg_reduce_frames)

    size = _segred_sizes(scale)[-1]
    nsegs = len(plan_segments(size, QUIET.segment_bytes))

    def stream(stats):
        kinds = stats["frames_by_kind"]
        return sum(kinds.get(k, 0) for k in
                   ("mcast-seg", "mcast-seg-hdr", "seg-report",
                    "seg-dec", "scout"))

    red_stats, _ = _segred_run("reduce", "mcast-seg-combine", size,
                               QUIET, seed)
    assert stream(red_stats) == model_seg_reduce_frames(SEGRED_NPROCS,
                                                        nsegs)
    assert red_stats["retransmissions"] == 0
    ar_stats, _ = _segred_run("allreduce", "mcast-seg-nack", size,
                              QUIET, seed)
    assert stream(ar_stats) == model_seg_allreduce_frames(SEGRED_NPROCS,
                                                          nsegs)
    return {"nsegs": nsegs,
            "frames_stream_reduce": stream(red_stats),
            "frames_stream_allreduce": stream(ar_stats)}


def segred_repair_case(scale, seed):
    """Selective repair: induced loss at the root (the only consumer of
    reduce data) re-multicasts exactly the lost segments, never whole
    payloads."""
    size = _segred_sizes(scale)[-1]
    stats, _ = _segred_run("reduce", "mcast-seg-combine", size, QUIET,
                           seed, lossy_ranks=(0,),
                           want=lambda first: first % 8 == 3)
    nsegs = len(plan_segments(size, QUIET.segment_bytes))
    lost_per_turn = len([i for i in range(nsegs) if i % 8 == 3])
    assert stats["retransmissions"] == (SEGRED_NPROCS - 1) * lost_per_turn
    assert (stats["frames_by_kind"]["mcast-seg"]
            == (SEGRED_NPROCS - 1) * (nsegs + lost_per_turn))
    return {"retransmissions": stats["retransmissions"],
            "frames_data": stats["frames_by_kind"]["mcast-seg"]}


def segred_auto_case(scale, seed, op, size):
    """The payload-aware policy: the per-call choice matches the
    closed-form prediction, measured in **total** frames on the wire
    (control traffic included — it is what makes p2p win small
    payloads)."""
    from ..mpi.collective.policy import auto_impl

    _, base_total = _segred_null_frames(seed)
    expect = auto_impl(op, size, SEGRED_NPROCS, QUIET_AUTO)
    auto_stats, log = _segred_run(op, "auto", size, QUIET_AUTO, seed)
    chosen = [name for o, name in log if o == op]
    assert expect in chosen, (op, size, log, expect)
    p2p_stats, _ = _segred_run(op, _SEGRED_IMPLS[op]["p2p"], size,
                               QUIET_AUTO, seed)
    seg_stats, _ = _segred_run(op, _SEGRED_IMPLS[op]["seg"], size,
                               QUIET_AUTO, seed)
    best = min(p2p_stats["frames_sent"],
               seg_stats["frames_sent"]) - base_total
    mine = auto_stats["frames_sent"] - base_total
    return {"frames_auto": mine, "frames_best_fixed": best,
            "pick": expect}


def segred_latency_case(scale, seed, op, size):
    """Median latencies of the p2p default, the segmented engine and
    "auto" under the jittered platform (barrier-fenced reps)."""
    reps = _segred_reps(scale)
    out = {}
    for role, impl in (("p2p", _SEGRED_IMPLS[op]["p2p"]),
                       ("seg", _SEGRED_IMPLS[op]["seg"]),
                       ("auto", "auto")):
        def main(env):
            env.comm.use_collectives(**{op: impl})
            durations = []
            arr = np.full(max(1, size // 8), float(env.rank + 1),
                          dtype=np.float64)
            for _ in range(reps):
                yield from env.comm.barrier()
                start = env.now
                if op == "reduce":
                    yield from env.comm.reduce(arr, SUM, 0)
                else:
                    yield from env.comm.allreduce(arr, SUM)
                durations.append(env.now - start)
            return durations

        result = run_spmd(SEGRED_NPROCS, main, params=AUTO, seed=seed)
        per_rep = [max(d[i] for d in result.returns)
                   for i in range(reps)]
        out[f"latency_us_{role}"] = statistics.median(per_rep)
    return out


def _segred_families(scale):
    sizes = _segred_sizes(scale)
    ops = tuple(_SEGRED_IMPLS)
    return [
        Family("frames", {"op": ops, "size": sizes},
               segred_frames_case),
        Family("formulas", {}, segred_formulas_case),
        Family("repair", {}, segred_repair_case),
        Family("auto", {"op": ops, "size": sizes}, segred_auto_case),
        Family("latency", {"op": ops, "size": sizes},
               segred_latency_case),
    ]


def segred_post_payload_frames(doc):
    """Segmented reduce never exceeds p2p in payload frames; the
    composed segmented allreduce beats p2p outright at every size."""
    for size in _segred_sizes(doc["scale"]):
        red_seg = metric(doc, "frames", "frames_payload_seg",
                         op="reduce", size=size)
        red_p2p = metric(doc, "frames", "frames_payload_p2p",
                         op="reduce", size=size)
        assert red_seg <= red_p2p, (size, red_seg, red_p2p)
        ar_seg = metric(doc, "frames", "frames_payload_seg",
                        op="allreduce", size=size)
        ar_p2p = metric(doc, "frames", "frames_payload_p2p",
                        op="allreduce", size=size)
        assert ar_seg < ar_p2p, (size, ar_seg, ar_p2p)


def segred_post_auto_never_worse(doc):
    """The policy's pick is never worse than the best fixed entry in
    measured total frames — the auto-never-worse criterion."""
    for size in _segred_sizes(doc["scale"]):
        for op in _SEGRED_IMPLS:
            mine = metric(doc, "auto", "frames_auto", op=op, size=size)
            best = metric(doc, "auto", "frames_best_fixed", op=op,
                          size=size)
            assert mine <= best, (
                f"auto {op} at {size} B put {mine} frames on the "
                f"wire; the best fixed entry needs only {best}")


def segred_post_auto_latency_tracks(doc):
    """"auto" resolves reduce/allreduce locally (zero announcement
    cost): its median must track the faster fixed entry (generous
    slack — separately seeded jitter draws)."""
    for size in _segred_sizes(doc["scale"]):
        for op in _SEGRED_IMPLS:
            auto = metric(doc, "latency", "latency_us_auto", op=op,
                          size=size)
            best = min(metric(doc, "latency", "latency_us_p2p", op=op,
                              size=size),
                       metric(doc, "latency", "latency_us_seg", op=op,
                              size=size))
            assert auto <= best * 1.5, (
                f"auto {op} median {auto:.0f} us at {size} B vs best "
                f"fixed {best:.0f} us")


register_area(AreaSpec(
    name="segmented-reduce",
    title="Segmented reduce/allreduce vs the MPICH p2p trees, plus "
          "the payload-aware auto policy",
    families=_segred_families,
    postconditions=(segred_post_payload_frames,
                    segred_post_auto_never_worse,
                    segred_post_auto_latency_tracks),
))


# ===========================================================================
# area: sim-throughput
# ===========================================================================
#: topology -> rank count of the thousand-host throughput workloads
THRU_FABRICS = {"tree:8x8": 64, "tree:32x32": 1024}
THRU_SIZE = 24_000

#: generous wall budget (seconds) for the 1024-host broadcast — the
#: make-smoke guard: an order-of-magnitude kernel regression blows it,
#: scheduler jitter on a loaded CI box does not
THRU_BUDGET_S = 60.0


def _thru_fabrics(scale: str) -> tuple:
    if scale == "gate":
        return tuple(THRU_FABRICS)
    return ("tree:8x8", "tree:16x16", "tree:32x32", "tree:64x32")


def _thru_nprocs(fabric: str) -> int:
    if fabric in THRU_FABRICS:
        return THRU_FABRICS[fabric]
    segs, hosts = fabric.split(":")[1].split("x")
    return int(segs) * int(hosts)


def thru_workload_case(scale, seed, fabric):
    """One flat segmented broadcast across the whole fabric: exact
    event/clock counters (any increase is a kernel regression) plus
    banded wall-clock and events/sec.

    Set-up (cluster build, MPI_Init's group joins and barrier) is
    measured apart from the broadcast: ``setup_events`` and
    ``wall_setup_s`` end when the last rank's ``main`` starts, and
    ``rate_events_per_s`` counts only the events and wall time after
    that, so a set-up cost cannot pass for a slower kernel."""
    import time

    n = _thru_nprocs(fabric)
    starts = []     # (wall clock, events processed) at each main entry

    def main(env):
        starts.append((time.perf_counter(), env.sim.processed))
        env.comm.use_collectives(bcast="mcast-seg-nack")
        out = yield from env.comm.bcast(
            bytes(THRU_SIZE) if env.rank == 0 else None, 0)
        assert len(out) == THRU_SIZE
        return True

    t0 = time.perf_counter()
    result = run_spmd(n, main, topology=fabric, params=QUIET_AUTO,
                      seed=seed)
    t_end = time.perf_counter()
    assert all(result.returns)
    sim = result.cluster.sim
    t_run, setup_events = max(starts)
    wall_run = t_end - t_run
    return {
        "events": sim.processed,
        "setup_events": setup_events,
        "peak_live": sim.peak_live,
        "sim_clock_us": result.sim_time_us,
        "wall_s": round(t_end - t0, 3),
        "wall_setup_s": round(t_run - t0, 3),
        "wall_run_s": round(wall_run, 3),
        "rate_events_per_s": round(
            (sim.processed - setup_events) / wall_run, 1),
    }


def thru_sweep_case(scale, seed, mode):
    """Wall seconds of the whole deep-fabric gate sweep, with the
    analytic fluid backend answering eligible cases (``fluid``) and
    with every case simulated (``des``).  The committed pair is the
    recorded evidence of the backend's speedup."""
    import time

    from .sweep import run_area as _run_area

    old = os.environ.get("REPRO_FLUID")
    os.environ["REPRO_FLUID"] = "1" if mode == "fluid" else "0"
    try:
        t0 = time.perf_counter()
        doc = _run_area("deep-fabric", scale="gate", workers=1,
                        check=True)
        wall = time.perf_counter() - t0
    finally:
        if old is None:
            os.environ.pop("REPRO_FLUID", None)
        else:
            os.environ["REPRO_FLUID"] = old
    return {"cases": len(doc["series"]), "wall_s": round(wall, 3)}


def _thru_families(scale):
    return [
        Family("workload", {"fabric": _thru_fabrics(scale)},
               thru_workload_case),
        Family("gate-sweep", {"mode": ("fluid", "des")},
               thru_sweep_case),
    ]


def thru_post_smoke_budget(doc):
    """The 1024-host broadcast completes inside the smoke budget."""
    wall = metric(doc, "workload", "wall_s", fabric="tree:32x32")
    assert wall < THRU_BUDGET_S, (
        f"1024-host bcast took {wall:.1f}s — over the {THRU_BUDGET_S:.0f}s "
        f"smoke budget; the kernel has regressed an order of magnitude")


def thru_post_fluid_wins(doc):
    """The analytic backend strictly beats running every case in the
    DES (2x floor — the committed evidence shows ~5x)."""
    fluid_wall = metric(doc, "gate-sweep", "wall_s", mode="fluid")
    des_wall = metric(doc, "gate-sweep", "wall_s", mode="des")
    assert metric(doc, "gate-sweep", "cases", mode="fluid") == \
        metric(doc, "gate-sweep", "cases", mode="des")
    assert fluid_wall * 2 <= des_wall, (
        f"fluid sweep {fluid_wall:.3f}s vs DES {des_wall:.3f}s — the "
        f"backend no longer pays for itself")


def thru_post_trace_off_wall(doc):
    """Tracing off costs ~nothing: the flight-recorder hooks on the
    frame/round/dispatch hot paths are one predictable ``recorder is
    None`` branch each, so with ``REPRO_TRACE`` unset the workload must
    process the *exact* committed event count in wall time within the
    usual band of the committed baseline — a baseline measured with the
    hooks already in place, so this holds the tracing-off cost where it
    was recorded rather than against a hook-free build."""
    import json

    from .sweep import WALL_REL_TOL, baseline_path, find_series

    path = baseline_path("sim-throughput")
    if not path.exists():
        return                  # nothing committed to hold against
    baseline = json.loads(path.read_text())
    if (baseline.get("scale") != doc.get("scale")
            or baseline.get("base_seed") != doc.get("base_seed")):
        return                  # ad-hoc run; the gate diff still applies
    for fabric in _thru_fabrics(doc.get("scale", "gate")):
        try:
            base = find_series(baseline, "workload", fabric=fabric)
            fresh = find_series(doc, "workload", fabric=fabric)
        except KeyError:
            continue
        assert fresh["metrics"]["events"] == base["metrics"]["events"], (
            f"workload[{fabric}]: processed {fresh['metrics']['events']} "
            f"events vs the committed {base['metrics']['events']} — the "
            f"tracing hooks must schedule nothing")
        base_wall = base["metrics"]["wall_s"]
        wall = fresh["metrics"]["wall_s"]
        assert wall <= base_wall * (1.0 + WALL_REL_TOL), (
            f"workload[{fabric}]: {wall:.3f}s wall vs committed "
            f"{base_wall:.3f}s — tracing-off overhead regressed past "
            f"the {WALL_REL_TOL:.0f}x band")


register_area(AreaSpec(
    name="sim-throughput",
    title="Simulator speed: events/sec and wall-clock of thousand-host "
          "fabrics, and the analytic-backend speedup",
    families=_thru_families,
    postconditions=(thru_post_smoke_budget, thru_post_fluid_wins,
                    thru_post_trace_off_wall),
))
