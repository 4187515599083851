# Developer entry points.  `make smoke` is the CI test gate: the tier-1
# tests.  `make bench-gate` is the perf gate: every declarative sweep
# area (the paper's figures 7-13 among them, as the `paper` area) re-run
# at gate scale and diffed against the committed
# benchmarks/results/BENCH_*.json baselines (frame counts exactly,
# latency within the band documented in docs/BENCHMARKS.md), with each
# area's postconditions checked; refresh baselines intentionally with
# `make bench-baselines`.  `make
# docs-check` is the docs gate: the generated docs/collectives.md and
# docs/benchmarks-index.md must be current and every relative Markdown
# link under README.md / docs/ / benchmarks/results/ must resolve.
# `make lint-deep` is the protocol-invariant gate: the in-tree
# `repro.lint` analyzer (resource leaks, sim determinism, layering, tag
# namespaces, registry consistency — see docs/lint.md) plus the tier-1
# suite re-run with REPRO_SANITIZE=1, which makes every run_spmd
# teardown assert that no sockets, group memberships or events leak.
#
# CI: .github/workflows/ci.yml runs `make smoke` on every push and PR
# across Python 3.10-3.12, plus `make bench-gate`, `make lint`, `make lint-deep` and
# `make docs-check` as separate jobs.  Locally, `make lint` needs ruff
# on PATH (pip install ruff) and skips with a notice otherwise — CI
# always installs it, so lint failures cannot slip through.  `make
# lint-deep` has no dependencies beyond the repo itself.

PY := PYTHONPATH=src python

.PHONY: test smoke lint lint-deep fuzz bench-gate bench-baselines \
	bench-full docs docs-check

test:
	$(PY) -m pytest -x -q

smoke: test

lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests examples; \
	else \
		echo "ruff not installed; skipping lint (CI installs it)"; \
	fi

# Protocol-invariant static analysis + the leak-sanitized tier-1 run.
# Stdlib-only: works everywhere the tests work.
lint-deep:
	$(PY) -m repro.lint src tests examples
	REPRO_SANITIZE=1 $(PY) -m pytest -x -q

# The chaos gate: 200 seeded property-fuzz cases over every registered
# fault scenario (docs/CHAOS.md).  Fixed seed, so the run is a
# regression test, not a lottery; any failure prints a one-line replay
# command and writes its flight-recorder dump under chaos-artifacts/.
fuzz:
	REPRO_SANITIZE=1 $(PY) -m repro.chaos.fuzz --budget 200 --seed 1 \
		--workers 2 --artifacts chaos-artifacts

# The perf regression gate CI runs: re-sweep every area at gate scale
# and diff against the committed BENCH_*.json baselines (frame counts
# exactly; latency within the documented band — see docs/BENCHMARKS.md).
bench-gate:
	$(PY) -m repro.bench.cli sweep --check

# Intentionally refresh the committed baselines (BENCH_*.json + the
# rendered markdown + the generated benchmarks index).  Refuses to run
# while src/ has uncommitted changes: a baseline must name the commit
# whose code produced it.
bench-baselines:
	@git diff --quiet HEAD -- src || { echo "bench-baselines: src/ has \
	uncommitted changes; commit them first so the baselines record the \
	code that produced them" >&2; exit 1; }
	$(PY) -m repro.bench.cli sweep
	$(PY) -m repro.bench.cli bench-doc

# The big sweeps, written to build/bench-full/ (never committed).
bench-full:
	$(PY) -m repro.bench.cli sweep --scale full --results-dir build/bench-full

# Regenerate the derived docs (the collective registry reference and
# the benchmarks index).
docs:
	$(PY) -m repro.bench.cli registry-doc
	$(PY) -m repro.bench.cli bench-doc

# The docs gate CI runs: the generated references must be current and
# every relative Markdown link in README.md / docs/ /
# benchmarks/results/ must resolve.
docs-check:
	$(PY) -m repro.bench.cli registry-doc --check
	$(PY) -m repro.bench.cli bench-doc --check
	$(PY) scripts/check_links.py README.md docs benchmarks/results
