"""Repository benchmark: run one workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload lan-9 --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 1
    python3 perfbench/run.py --workload lossy-64 --seed 1 --selfcheck

``--trace 0`` measures the end-to-end metrics with tracing off.  It runs
the seeded plan in rounds for as long as the next round should still end
within ``--seconds`` (at least one round) and checks that every round
simulated exactly the same thing.  Passes that only set up the clusters
then make up the workload's number of set-up samples.  ``--trace 1``
runs the plan untraced and then traced (flight recorder plus the timing
wrappers of ``probes.py``), in the same time box, checks that both
simulated exactly the same thing, and prints the per-layer metrics.
``--selfcheck`` runs the plan twice with the seed and once with the next
seed and checks that the simulated results repeat and then change.
A failed check prints ``CHECK FAILED`` and makes the exit code 1.

The last line of the output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See README.md for the metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: end-to-end metrics that are printed but not gated: BENCHMARK.json lists
#: only metrics every workload defines and that are never 0 (README.md)
E2E_EXTRA = {
    "sim_latency_us.p99": "us",
    "trunk_frames_per_call": "count",
    "fail_ratio": "ratio",
}


def load_units() -> tuple[dict, dict]:
    """Units of the gated end-to-end and of the per-layer metrics, in
    BENCHMARK.json's order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


# ----------------------------------------------------------------------
# passes: one run of every job of the plan
# ----------------------------------------------------------------------
class Pass:
    """The results of running every job of a plan once."""

    def __init__(self, results):
        self.results = results

    def total(self, key: str) -> int:
        return sum(r.stats[key] for r in self.results)

    @property
    def setup_s(self) -> float:
        return sum(r.setup_s for r in self.results)

    @property
    def wall_s(self) -> float:
        return sum(r.wall_s for r in self.results)

    @property
    def call_s(self) -> float:
        return sum(r.wall_s - r.setup_s for r in self.results)

    @property
    def latencies(self) -> list:
        return [lat for r in self.results for lat in r.latency_us]

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def completed(self) -> int:
        return sum(r.completed for r in self.results)

    @property
    def failures(self) -> dict:
        out: dict = {}
        for r in self.results:
            for label, count in r.failures.items():
                out[label] = out.get(label, 0) + count
        return out

    @property
    def deadline_us(self) -> float:
        return max(r.job.max_sim_us for r in self.results)

    def digest(self) -> tuple:
        return tuple(r.digest() for r in self.results)


def run_pass(plan, setup_only=False, traced=False) -> Pass:
    from perfbench.jobs import run_job

    return Pass([run_job(job, setup_only=setup_only, traced=traced)
                 for job in plan])


def time_boxed(seconds: float, one_round) -> list:
    """Results of ``one_round()``, repeated while the next round, taking
    as long as the slowest so far, should end within ``seconds``; at
    least one."""
    t0 = perf_counter()
    out, longest = [], 0.0
    while not out or perf_counter() - t0 + longest <= seconds:
        t = perf_counter()
        out.append(one_round())
        longest = max(longest, perf_counter() - t)
    return out


# ----------------------------------------------------------------------
# end-to-end metrics (--trace 0)
# ----------------------------------------------------------------------
def percentile(samples: list, q: float) -> float:
    """Nearest-rank percentile; failed calls are ``math.inf``."""
    s = sorted(samples)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def end_to_end(spec, plan, seconds: float) -> tuple[dict, dict, list, Pass]:
    rounds = time_boxed(seconds, lambda: run_pass(plan))
    # no rank starts calling before the last one's main starts
    # (jobs.py), so a round's set-up is timed as in a set-up-only pass
    setups = [r.setup_s for r in rounds]
    while len(setups) < spec.setup_samples:
        setups.append(run_pass(plan, setup_only=True).setup_s)
    problems = []
    if any(r.digest() != rounds[0].digest() for r in rounds[1:]):
        problems.append("rounds of one seed simulated different results")
    first = rounds[0]
    lats = first.latencies
    p50 = percentile(lats, 0.50)
    beyond_p99 = len(lats) - math.ceil(0.99 * len(lats))
    metrics = {
        "setup_s": statistics.median(setups),
        "calls_per_s": statistics.median(r.completed / r.call_s
                                         for r in rounds),
        # a percentile that lands on a failed call reads as the
        # simulated deadline, which no completed call can exceed
        "sim_latency_us.p50": p50 if p50 != math.inf else first.deadline_us,
        "frames_per_call": first.total("frames_sent") / first.attempted,
        "trunk_frames_per_call": (first.total("frames_trunk")
                                  / first.attempted),
        "fail_ratio": (first.attempted - first.completed) / first.attempted,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if beyond_p99 >= 10:
        p99 = percentile(lats, 0.99)
        metrics["sim_latency_us.p99"] = (p99 if p99 != math.inf
                                         else first.deadline_us)
    notes = {
        "setup_s": f"median of {len(setups)} set-up samples, "
                   f"{len(rounds)} from rounds",
        "calls_per_s": (f"median of {len(rounds)} rounds"
                        if len(rounds) > 1 else
                        "one round: a second would not end in --seconds"),
        "sim_latency_us.p50": f"{len(lats)} calls"
        + (", lands on a failed call" if p50 == math.inf else ""),
        "sim_latency_us.p99": (
            f"{beyond_p99} calls beyond it" if beyond_p99 >= 10 else
            f"n/a: {len(lats)} calls leave fewer than 10 beyond p99"),
        "fail_ratio": f"{first.attempted - first.completed} of "
                      f"{first.attempted} calls",
        "peak_rss_mb": "whole benchmark process",
    }
    return metrics, notes, problems, first


# ----------------------------------------------------------------------
# per-layer metrics (--trace 1)
# ----------------------------------------------------------------------
def per_layer(plan, seconds: float,
              layer_units: dict) -> tuple[dict, dict, list, Pass]:
    from perfbench.probes import Probes
    from repro.obs import TRACE_ENV

    problems: list[str] = []

    def one_round() -> tuple[dict, Pass]:
        plain = run_pass(plan)
        os.environ[TRACE_ENV] = "1"
        try:
            with Probes() as probes:
                traced = run_pass(plan, traced=True)
        finally:
            del os.environ[TRACE_ENV]
        if traced.digest() != plain.digest():
            problems.append("the traced run simulated different results "
                            "from the untraced run")
        return _layer_metrics(probes, plain, traced), plain

    rounds = time_boxed(seconds, one_round)
    samples = [sample for sample, _ in rounds]
    plain = rounds[0][1]
    metrics = {}
    for name, unit in layer_units.items():
        values = [s[name] for s in samples]
        if unit == "count" and len(set(values)) > 1:
            problems.append(f"{name} differs between traced runs: {values}")
        metrics[name] = statistics.median(values)
    return metrics, {}, problems, plain


def _ratio(num: float, den: float, empty: float = 1.0) -> float:
    return num / den if den else empty


def _layer_metrics(probes, plain: Pass, traced: Pass) -> dict:
    calls, busy = probes.calls, probes.busy
    records = [c for r in traced.results for c in r.call_records]
    events = sum(r.events for r in traced.results)
    accepted = (calls["udp.accept"] - traced.total("drops_not_posted")
                - traced.total("drops_buffer_full"))
    return {
        "simnet.topology.build_cluster_s":
            busy["simnet.topology.build_cluster"],
        "simnet.topology.segment_of_calls": calls["segment_of"],
        "simnet.fabric.trunk_path_tiers_calls":
            calls["Fabric.trunk_path_tiers"],
        "simnet.fabric.self_s": probes.self_s["simnet.fabric"],
        "mpi.world.init_s": busy["mpi.world"],
        "core.channel.init_calls": calls["McastChannel.__init__"],
        "core.channel.init_s": busy["core.channel"],
        "mpi.communicator.setup_s": busy["mpi.communicator.setup"],
        "mpi.collective.hier.build_calls": calls["HierState"],
        "mpi.collective.hier.build_s": busy["mpi.collective.hier"],
        "mpi.communicator.dispatch_calls": calls["dispatch"],
        "mpi.collective.policy.resolve_calls": calls["resolve_auto"],
        "mpi.collective.policy.busy_s": busy["mpi.collective.policy"],
        "analysis.framecount.model_calls":
            probes.entries["analysis.framecount"],
        "analysis.framecount.busy_s": busy["analysis.framecount"],
        "mpi.p2p.messages": calls["isend"],
        "simnet.kernel.events": events,
        "simnet.kernel.peak_live": max(r.peak_live for r in traced.results),
        "simnet.kernel.run_s": busy["simnet.kernel"],
        "simnet.kernel.us_per_event": busy["simnet.kernel"] / events * 1e6,
        "simnet.net.frames_sent": traced.total("frames_sent"),
        "simnet.net.frames_forwarded": traced.total("frames_forwarded"),
        "simnet.net.frames_trunk": traced.total("frames_trunk"),
        "simnet.net.frames_delivered": traced.total("frames_delivered"),
        "simnet.frame.pool_allocated": traced.total("pool_frames_allocated"),
        "simnet.frame.pool_reused": traced.total("pool_frames_reused"),
        "simnet.frame.reuse_ratio": _ratio(
            traced.total("pool_frames_reused"),
            traced.total("pool_frames_reused")
            + traced.total("pool_frames_allocated")),
        "simnet.medium.collisions": traced.total("collisions"),
        "simnet.medium.backoffs": traced.total("backoffs"),
        "core.rounds.rounds": sum(c["rounds"] for c in records),
        "core.rounds.repair_rounds": sum(c["repair_rounds"]
                                         for c in records),
        "core.rounds.nacked_segments": sum(c["nacked_segments"]
                                           for c in records),
        "core.rounds.drain_timeouts": sum(c["drain_timeouts"]
                                          for c in records),
        "core.rounds.pacing_gap_us": sum(c["pacing_gap_us"]
                                         for c in records),
        "core.rounds.posted_high_water": max(
            (c["posted_high_water"] for c in records), default=0),
        "core.rounds.busy_s": busy["core.rounds"],
        "core.rounds.useful_ratio": _ratio(calls["send_batch:False"],
                                           calls["send_batch"]),
        "simnet.udp.datagrams_sent": traced.total("datagrams_sent"),
        "simnet.udp.datagrams_delivered": accepted,
        "simnet.udp.drops_not_posted": traced.total("drops_not_posted"),
        "simnet.udp.drops_buffer_full": traced.total("drops_buffer_full"),
        "simnet.udp.drops_lossy": traced.total("drops_lossy"),
        "simnet.udp.delivery_ratio": _ratio(accepted, calls["udp.arrive"]),
        "runtime.run_spmd_s": plain.wall_s,
        "runtime.tracing_overhead_ratio": traced.wall_s / plain.wall_s,
    }


# ----------------------------------------------------------------------
# self-check: same seed repeats, another seed differs
# ----------------------------------------------------------------------
def selfcheck(workload: str, seed: int) -> list[str]:
    from perfbench.workloads import make_plan

    first = run_pass(make_plan(workload, seed)).digest()
    again = run_pass(make_plan(workload, seed)).digest()
    other = run_pass(make_plan(workload, seed + 1)).digest()
    problems = []
    if again != first:
        problems.append(f"seed {seed} simulated different results twice")
    if other == first:
        problems.append(f"seeds {seed} and {seed + 1} simulated the same "
                        f"results")
    return problems


# ----------------------------------------------------------------------
# output
# ----------------------------------------------------------------------
def _fmt(value) -> str:
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def report(workload: str, seed: int, first: Pass, metrics: dict,
           units: dict, notes: dict) -> None:
    jobs = len(first.results)
    print(f"workload {workload}  seed {seed}  jobs {jobs}  "
          f"calls {first.attempted}  (closed loop, one host thread)")
    for name, unit in units.items():
        value = _fmt(metrics[name]) if name in metrics else "-"
        note = notes.get(name, "")
        print(f"  {name:<40} {value:>14} {unit:<6} {note}".rstrip())
    failures = first.failures
    print("  failures by type: " + (", ".join(
        f"{label}={count}" for label, count in sorted(failures.items()))
        or "none"))
    by_impl: dict = {}
    for r in first.results:
        for call, lat in zip(r.job.calls, r.latency_us):
            tally = by_impl.setdefault(call.impl, [0, 0])
            tally[0] += lat == math.inf
            tally[1] += 1
    print("  failed/attempted by implementation: " + ", ".join(
        f"{impl} {failed}/{attempted}"
        for impl, (failed, attempted) in sorted(by_impl.items())))


def run_all(args) -> int:
    """Every workload in its own process (each with its own peak RSS)."""
    from perfbench.workloads import WORKLOADS

    combined = {}
    code = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.selfcheck:
            cmd.append("--selfcheck")
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              check=False)
        lines = proc.stdout.splitlines()
        try:
            combined[name] = json.loads(lines[-1])
            lines = lines[:-1]
        except (IndexError, ValueError):
            pass                  # a self-check or a failed run
        print("\n".join(lines))
        sys.stderr.write(proc.stderr)
        code = code or proc.returncode
    print(json.dumps({"workloads": combined}))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: the repro sources are missing ({SRC})",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(SRC)]
    os.environ.pop("REPRO_TRACE", None)

    from perfbench.jobs import WRONG
    from perfbench.workloads import WORKLOADS, make_plan

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{sorted(WORKLOADS)} or all")
    spec = WORKLOADS[args.workload]
    gated_units, layer_units = load_units()
    plan = make_plan(args.workload, args.seed)

    if args.selfcheck:
        problems = selfcheck(args.workload, args.seed)
        for p in problems:
            print(f"SELFCHECK FAILED: {p}")
        print(f"selfcheck {args.workload} seed {args.seed}: "
              + ("ok" if not problems else "failed"))
        return 1 if problems else 0

    if args.trace:
        metrics, notes, problems, first = per_layer(plan, args.seconds,
                                                    layer_units)
        units = shown = layer_units
    else:
        metrics, notes, problems, first = end_to_end(spec, plan,
                                                     args.seconds)
        shown = gated_units
        units = {**gated_units, **E2E_EXTRA}
    report(args.workload, args.seed, first, metrics, units, notes)
    if WRONG in first.failures:
        problems.append("some calls returned wrong results")
    for p in problems:
        print(f"CHECK FAILED: {p}")
    failed = first.attempted - first.completed
    print(json.dumps({
        "correct": not problems,
        "attempted": first.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in shown.items()},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
