"""``repro.bench`` — the declarative sweep runner behind
``BENCH_<area>.json`` and the perf gate, including the ``paper`` area
that reproduces the paper's figures with its §4 method (:func:`measure`)."""

from .paper import PAPER_SIZES, crossover, measure
from .sweep import (diff_docs, dumps_canonical, load_areas, run_area,
                    sweep_markdown)

__all__ = [
    "PAPER_SIZES", "crossover", "diff_docs", "dumps_canonical",
    "load_areas", "measure", "run_area", "sweep_markdown",
]
