"""Sparse boolean CSR kernels in numpy.

Each matrix is a pair (indptr, cols) of int64 arrays with sorted, unique
column indices per row.
"""

from __future__ import annotations

import numpy as np

_EMPTY = np.empty(0, np.int64)


def spgemm_bool(indptr_a, cols_a, indptr_b, cols_b):
    """Boolean sparse product of two CSR matrices; returns (indptr, cols)."""
    n_rows = indptr_a.shape[0] - 1
    indptr_c = np.zeros(n_rows + 1, np.int64)
    rows = []
    for i in range(n_rows):
        js = cols_a[indptr_a[i] : indptr_a[i + 1]]
        if js.size:
            merged = np.unique(
                np.concatenate([cols_b[indptr_b[j] : indptr_b[j + 1]] for j in js])
            )
        else:
            merged = _EMPTY
        rows.append(merged)
        indptr_c[i + 1] = indptr_c[i] + merged.size
    cols_c = np.concatenate(rows) if rows else _EMPTY.copy()
    return indptr_c, cols_c.astype(np.int64, copy=False)


def intersect_count(a, b) -> int:
    """Size of the intersection of two sorted unique int64 arrays."""
    return int(np.intersect1d(a, b, assume_unique=True).size)


def frontier_reach(indptr, cols, frontier):
    """Sorted unique columns reachable from the given row set."""
    if frontier.size == 0:
        return _EMPTY.copy()
    chunks = [cols[indptr[i] : indptr[i + 1]] for i in frontier]
    return np.unique(np.concatenate(chunks)).astype(np.int64, copy=False)
