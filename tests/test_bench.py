"""The §4 measurement method (`measure`), the crossover helper, and the
``paper`` sweep area that reproduces the paper's figures."""

import statistics

import pytest

from repro.bench import PAPER_SIZES, crossover, measure, run_area
from repro.bench.paper import framecount_case
from repro.bench.sweep import load_areas, sweep_markdown

SIZES = [0, 2000]


def test_measure_bcast_produces_full_grid():
    samples = measure("bcast", "p2p-binomial", "switch", 3, SIZES, 4, 5)
    assert list(samples) == SIZES
    for size in SIZES:
        assert len(samples[size]) == 4
        assert all(lat > 0 for lat in samples[size])


def test_measure_bcast_reproducible():
    a = measure("bcast", "mcast-binary", "hub", 3, SIZES, 3, 7)
    b = measure("bcast", "mcast-binary", "hub", 3, SIZES, 3, 7)
    assert a == b
    assert a != measure("bcast", "mcast-binary", "hub", 3, SIZES, 3, 8)


def test_measure_barrier():
    samples = measure("barrier", "mcast", "hub", 4, [0], 5, 2)
    assert list(samples) == [0]
    assert len(samples[0]) == 5 and min(samples[0]) > 0


@pytest.mark.parametrize("op, impl", [("reduce", "p2p-binomial"),
                                      ("allreduce", "p2p-reduce-bcast")])
def test_measure_reductions(op, impl):
    samples = measure(op, impl, "switch", 4, [8, 800], 2, 3)
    assert all(len(lats) == 2 and min(lats) > 0
               for lats in samples.values())


def test_measure_rejects_unknown_op():
    with pytest.raises(ValueError, match="unsupported op"):
        measure("scan", "p2p-linear", "switch", 2, [0], 1, 1)


def test_crossover_finder():
    fast = {size: 50.0 + size * 0.1 for size in (0, 100, 200)}
    slow = {size: 40.0 + size * 0.3 for size in (0, 100, 200)}
    assert crossover(fast, slow) == 100    # worse at 0, better from 100
    assert crossover(slow, fast) == 0


def test_crossover_never():
    same = {0: 1.0, 100: 2.0}
    assert crossover(same, dict(same)) is None   # never strictly lower


def test_fig7_smoke_tiny():
    mpich = measure("bcast", "p2p-binomial", "hub", 4, [0, 4000], 3, 1)
    binary = measure("bcast", "mcast-binary", "hub", 4, [0, 4000], 3, 2)
    # even a tiny run shows the large-message multicast win
    assert statistics.median(binary[4000]) < statistics.median(mpich[4000])


def test_figure_registry_complete():
    families = {f.name for f in load_areas()["paper"].families("gate")}
    assert {"fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13",
            "framecounts", "ablation-reliability", "ablation-overrun",
            "via"} <= families


def test_framecounts_figure_rows():
    row = framecount_case("gate", 1, n=4, m=3000)
    assert row["sim_mpich_bcast"] == row["model_mpich_bcast"]
    assert row["sim_mcast_scouts"] == row["model_mcast_scouts"] == 3
    assert row["sim_mcast_data"] == row["model_mcast_data"]
    assert row["paper_mcast_bcast"] <= row["paper_mpich_bcast"]


def test_paper_area_holds_every_claim():
    doc = run_area("paper", workers=2, check=True)
    fig7 = [e for e in doc["series"] if e["family"] == "fig7"]
    assert len(fig7) == 3
    assert all(len(e["metrics"]) == len(PAPER_SIZES) for e in fig7)


def test_markdown_table():
    doc = {"area": "demo", "title": "t", "schema": "s", "scale": "gate",
           "base_seed": 1,
           "series": [{"key": "fig[impl=a]", "family": "fig",
                       "axes": {"impl": "a"},
                       "metrics": {"latency_us_0000": 305.04}}]}
    out = sweep_markdown(doc)
    assert "| impl | latency_us_0000 |" in out
    assert "| a | 305.0 |" in out


def test_cli_requires_target():
    from repro.bench.cli import main

    with pytest.raises(SystemExit):
        main([])
