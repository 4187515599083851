"""Command-line entry point: ``python -m repro.bench.cli <command>``.

The sweep runner, its regression gate and the docs generators::

    python -m repro.bench.cli sweep paper           # the paper's figures
    python -m repro.bench.cli sweep --check         # the bench-gate diff
    python -m repro.bench.cli sweep segmented-bcast --scale full \
        --results-dir build/bench-full              # the big sweep
    python -m repro.bench.cli registry-doc          # docs/collectives.md
    python -m repro.bench.cli registry-doc --check  # exit 1 if stale
    python -m repro.bench.cli bench-doc        # docs/benchmarks-index.md
    python -m repro.bench.cli profile deep-fabric \
        "trunk-hier[fabric=tree:2x2x2,op=gather]"   # cProfile one case

``sweep`` with no area names runs every registered area (see
``docs/BENCHMARKS.md`` for the document schema and gate tolerances).
Only gate-scale documents are committed baselines, so a ``full`` sweep
must name its own ``--results-dir``.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

__all__ = ["main"]


def _registry_doc_cmd(output: str, check: bool) -> int:
    from .registry_doc import collective_registry_doc, default_doc_path

    path = pathlib.Path(output) if output else default_doc_path()
    fresh = collective_registry_doc()
    if check:
        current = path.read_text() if path.exists() else ""
        if current != fresh:
            print(f"{path} is stale — regenerate with "
                  f"'python -m repro.bench.cli registry-doc'",
                  file=sys.stderr)
            return 1
        print(f"{path} is up to date")
        return 0
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(fresh)
    print(f"wrote {path}")
    return 0


def _bench_doc_cmd(output: str, check: bool) -> int:
    from .bench_doc import benchmarks_index_doc, default_index_path

    path = pathlib.Path(output) if output else default_index_path()
    fresh = benchmarks_index_doc()
    if check:
        current = path.read_text() if path.exists() else ""
        if current != fresh:
            print(f"{path} is stale — regenerate with "
                  f"'python -m repro.bench.cli bench-doc'",
                  file=sys.stderr)
            return 1
        print(f"{path} is up to date")
        return 0
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(fresh)
    print(f"wrote {path}")
    return 0


def _sweep_cmd(areas, scale: str, base_seed: int, workers,
               results_dir, check: bool) -> int:
    from . import sweep

    known = sweep.load_areas()
    targets = areas or sorted(known)
    unknown = [a for a in targets if a not in known]
    if unknown:
        print(f"unknown area(s) {unknown}; known: {sorted(known)}",
              file=sys.stderr)
        return 2
    if scale != "gate" and not check and not results_dir:
        print(f"a {scale}-scale sweep needs --results-dir: "
              f"benchmarks/results/ holds the committed gate baselines",
              file=sys.stderr)
        return 2
    results = (pathlib.Path(results_dir) if results_dir
               else sweep.results_dir())
    failed = False
    for area in targets:
        doc = sweep.run_area(area, scale=scale, base_seed=base_seed,
                             workers=workers)
        json_path = sweep.baseline_path(area, results)
        md_path = results / f"{area}.md"
        if check:
            if not json_path.exists():
                print(f"{area}: no committed baseline {json_path} — "
                      f"run 'make bench-baselines'", file=sys.stderr)
                failed = True
                continue
            import json as _json
            baseline = _json.loads(json_path.read_text())
            report = sweep.diff_docs(baseline, doc)
            for note in report.improvements:
                print(f"{area}: improvement: {note}")
            for err in report.errors:
                print(f"{area}: {err}", file=sys.stderr)
            stale_md = (not md_path.exists()
                        or md_path.read_text()
                        != sweep.sweep_markdown(baseline))
            if stale_md:
                print(f"{area}: {md_path} does not match the committed "
                      f"baseline — regenerate with 'make "
                      f"bench-baselines'", file=sys.stderr)
            if report.errors or stale_md:
                failed = True
            else:
                print(f"{area}: ok — {report.matched} series within "
                      f"tolerance")
        else:
            results.mkdir(parents=True, exist_ok=True)
            json_path.write_text(sweep.dumps_canonical(doc))
            md_path.write_text(sweep.sweep_markdown(doc))
            print(f"wrote {json_path}")
            print(f"wrote {md_path}")
    return 1 if failed else 0


def _profile_cmd(args_list, scale: str, base_seed: int, sort: str,
                 limit: int) -> int:
    """cProfile one sweep case (or a whole area) and print the stats."""
    import cProfile
    import pstats

    from . import sweep

    if not args_list:
        print("profile needs an area name (and optionally a case key)",
              file=sys.stderr)
        return 2
    area, case = args_list[0], (args_list[1] if len(args_list) > 1
                                else None)
    known = sweep.load_areas()
    if area not in known:
        print(f"unknown area {area!r}; known: {sorted(known)}",
              file=sys.stderr)
        return 2
    profiler = cProfile.Profile()
    if case is None:
        profiler.enable()
        sweep.run_area(area, scale=scale, base_seed=base_seed,
                       workers=1, check=True)
        profiler.disable()
        target = f"area {area!r} [{scale}]"
    else:
        for family in known[area].families(scale):
            for axes in sweep.expand(family.axes):
                if sweep.case_key(family.name, axes) == case:
                    seed = sweep.case_seed(area, base_seed,
                                           case)
                    profiler.enable()
                    family.runner(scale=scale, seed=seed, **axes)
                    profiler.disable()
                    target = f"case {case!r} of {area!r} [{scale}]"
                    break
            else:
                continue
            break
        else:
            keys = [sweep.case_key(f.name, a)
                    for f in known[area].families(scale)
                    for a in sweep.expand(f.axes)]
            print(f"no case {case!r} in area {area!r} at scale "
                  f"{scale!r}; cases: {keys}", file=sys.stderr)
            return 2
    print(f"profile of {target}, sorted by {sort}:")
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.strip_dirs().sort_stats(sort).print_stats(limit)
    return 0


def _trace_cmd(args_list, scale: str, base_seed: int, output) -> int:
    """Run one sweep case under the flight recorder and export it
    (Perfetto ``trace.json`` + per-rank ``report.txt``), checking the
    per-collective frame attribution against the NetStats deltas."""
    import os

    from .. import obs
    from . import sweep

    if not args_list:
        print("trace needs an area name and a case key",
              file=sys.stderr)
        return 2
    area, case = args_list[0], (args_list[1] if len(args_list) > 1
                                else None)
    known = sweep.load_areas()
    if area not in known:
        print(f"unknown area {area!r}; known: {sorted(known)}",
              file=sys.stderr)
        return 2
    cases = {sweep.case_key(f.name, axes): (f, axes)
             for f in known[area].families(scale)
             for axes in sweep.expand(f.axes)}
    if case not in cases:
        print(f"no case {case!r} in area {area!r} at scale {scale!r}; "
              f"cases: {sorted(cases)}", file=sys.stderr)
        return 2
    family, axes = cases[case]
    # Force the event-level simulator (the fluid backend sends no
    # frames) and arm the recorder for every run_spmd inside the case.
    saved = {k: os.environ.get(k) for k in (obs.TRACE_ENV, "REPRO_FLUID")}
    os.environ[obs.TRACE_ENV] = "1"
    os.environ["REPRO_FLUID"] = "0"
    obs.drain_recorders()               # drop stale recorders, if any
    try:
        seed = sweep.case_seed(area, base_seed, case)
        family.runner(scale=scale, seed=seed, **axes)
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
        recorders = obs.drain_recorders()
    if not recorders:
        print(f"case {case!r} ran no traced SPMD program",
              file=sys.stderr)
        return 1
    exact = True
    for run, rec in enumerate(recorders):
        totals = dict(rec.frame_totals())
        delta = {k: v for k, v in
                 rec.stats_delta()["frames_by_kind"].items() if v}
        ok = totals == delta
        exact = exact and ok
        print(f"run {run}: {len(rec.calls)} collective calls, "
              f"{len(rec.events)} events; frame attribution "
              f"{'exact' if ok else 'MISMATCH'}")
        if rec.hang_report:
            print(rec.hang_report, file=sys.stderr)
    out = pathlib.Path(output) if output else (
        pathlib.Path("trace_out") / case)
    paths = obs.write_trace(out, recorders)
    print(f"wrote {paths['trace']}")
    print(f"wrote {paths['report']}")
    return 0 if exact else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Benchmark sweeps (including the figures of 'MPI "
                    "Collective Operations over IP Multicast', IPPS "
                    "2000), their regression gate and generated docs.")
    parser.add_argument("command",
                        choices=["registry-doc", "sweep", "bench-doc",
                                 "profile", "trace"],
                        help="registry-doc: (re)generate the "
                             "docs/collectives.md reference; sweep: run "
                             "declarative benchmark sweeps into "
                             "BENCH_<area>.json; bench-doc: (re)generate "
                             "docs/benchmarks-index.md from the "
                             "committed baselines; profile: cProfile one "
                             "sweep case (or a whole area) and print the "
                             "hot spots; trace: run one sweep case under "
                             "the flight recorder and export trace.json "
                             "+ report.txt (see docs/OBSERVABILITY.md)")
    parser.add_argument("areas", nargs="*",
                        help="sweep: area names (default: all "
                             "registered areas); profile/trace: an area "
                             "name plus a case key like "
                             "'trunk-flat[fabric=tree:2x2x2,op=bcast]'")
    parser.add_argument("--check", action="store_true",
                        help="registry-doc/bench-doc: fail if the doc "
                             "is stale instead of rewriting it; sweep: "
                             "diff the fresh run against the committed "
                             "BENCH_*.json baselines (the bench gate) "
                             "instead of writing")
    parser.add_argument("--output", default=None,
                        help="registry-doc/bench-doc: target path "
                             "(default docs/collectives.md / "
                             "docs/benchmarks-index.md); trace: output "
                             "directory (default trace_out/<case-key>)")
    parser.add_argument("--scale", choices=["gate", "full"],
                        default="gate",
                        help="sweep: gate = the committed-baseline "
                             "sweep; full = the big one (needs "
                             "--results-dir unless --check)")
    parser.add_argument("--base-seed", type=int, default=1,
                        help="sweep: base seed the per-case seeds are "
                             "derived from (baselines use 1)")
    parser.add_argument("--workers", type=int, default=None,
                        help="sweep: worker processes (default: cpu "
                             "count capped at 8; 1 = inline)")
    parser.add_argument("--results-dir", default=None,
                        help="sweep: where BENCH_*.json + <area>.md "
                             "live (default benchmarks/results/)")
    parser.add_argument("--sort", default="cumulative",
                        help="profile: pstats sort key "
                             "(default cumulative)")
    parser.add_argument("--limit", type=int, default=25,
                        help="profile: rows of stats to print")
    args = parser.parse_args(argv)

    if args.command == "registry-doc":
        return _registry_doc_cmd(args.output, args.check)
    if args.command == "bench-doc":
        return _bench_doc_cmd(args.output, args.check)
    if args.command == "sweep":
        return _sweep_cmd(args.areas, args.scale, args.base_seed,
                          args.workers, args.results_dir, args.check)
    if args.command == "profile":
        return _profile_cmd(args.areas, args.scale, args.base_seed,
                            args.sort, args.limit)
    return _trace_cmd(args.areas, args.scale, args.base_seed, args.output)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
