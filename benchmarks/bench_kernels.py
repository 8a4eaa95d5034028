#!/usr/bin/env python3
"""Time the sparse-boolean CSR kernels.

Times are best-of-N wall clock, on synthetic workloads sized like a
mid-size graph (20k-50k rows, low tens of nonzeros per row).

Usage, from the repository root without installing the package:
    PYTHONPATH=src python benchmarks/bench_kernels.py [--repeat N]
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from hornforge import _kernels


def _random_csr(rng, n_rows, n_cols, degree):
    rows = [np.unique(rng.integers(0, n_cols, degree)) for _ in range(n_rows)]
    indptr = np.zeros(n_rows + 1, np.int64)
    for i, row in enumerate(rows):
        indptr[i + 1] = indptr[i] + row.size
    return indptr, np.concatenate(rows).astype(np.int64)


def _best_of(fn, repeat):
    best = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - t0
        best = elapsed if best is None else min(best, elapsed)
    return best


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=5, help="runs per kernel, best kept")
    args = parser.parse_args()

    rng = np.random.default_rng(0)
    a = _random_csr(rng, 20_000, 20_000, 15)
    b = _random_csr(rng, 20_000, 20_000, 15)
    u = np.unique(rng.integers(0, 2_000_000, 200_000)).astype(np.int64)
    v = np.unique(rng.integers(0, 2_000_000, 200_000)).astype(np.int64)
    g = _random_csr(rng, 50_000, 50_000, 20)
    frontier = np.unique(rng.integers(0, 50_000, 5_000)).astype(np.int64)
    timings = {
        "spgemm_bool": lambda: _kernels.spgemm_bool(a[0], a[1], b[0], b[1], 20_000),
        "intersect_count": lambda: _kernels.intersect_count(u, v),
        "frontier_reach": lambda: _kernels.frontier_reach(g[0], g[1], frontier, 50_000),
    }
    print(f"{'kernel':<18}{'best':>12}")
    for kernel, fn in timings.items():
        print(f"{kernel:<18}{_best_of(fn, args.repeat):>11.4f}s")


if __name__ == "__main__":
    main()
