#!/usr/bin/env python3
"""Reproduce the paper's headline figure from the public API.

Sweeps message size 0-5 kB for MPI_Bcast with 4 processes over both the
hub and the switch (paper Figs. 7, 8 and 11), prints the median-latency
tables, and reports the measured crossover points.

Run:  python examples/compare_broadcast.py [--reps 15]
"""

import argparse
from statistics import median

from repro.bench import PAPER_SIZES, crossover, measure

IMPLS = ("p2p-binomial", "mcast-linear", "mcast-binary")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--reps", type=int, default=15,
                        help="iterations per size (paper used 20-30)")
    parser.add_argument("--procs", type=int, default=4)
    args = parser.parse_args()

    for topology in ("hub", "switch"):
        curves = {}
        for seed, impl in enumerate(IMPLS, start=1):
            samples = measure("bcast", impl, topology, args.procs,
                              PAPER_SIZES, args.reps, seed)
            curves[impl] = {size: median(lats)
                            for size, lats in samples.items()}
        print(f"MPI_Bcast, {args.procs} processes, {topology} "
              f"(median of {args.reps} runs, us)")
        print(f"{'size (B)':>8} " + " ".join(f"{i:>14}" for i in IMPLS))
        for size in PAPER_SIZES:
            print(f"{size:>8} " + " ".join(f"{curves[i][size]:>14.1f}"
                                           for i in IMPLS))
        mpich = curves["p2p-binomial"]
        for impl in IMPLS[1:]:
            x = crossover(curves[impl], mpich)
            print(f"  {impl}/{topology} beats mpich from "
                  f"{x if x is not None else '>5000'} bytes")
        print()


if __name__ == "__main__":
    main()
