"""The CSR kernels against a pure-Python set-of-pairs product."""

import ast
import inspect
import random

import numpy as np
import pytest

from hornforge import _kernels


def to_csr(n, pairs):
    indptr = np.zeros(n + 1, np.int64)
    cols = []
    for i in range(n):
        row = sorted(c for r, c in pairs if r == i)
        cols.extend(row)
        indptr[i + 1] = indptr[i] + len(row)
    return indptr, np.array(cols, np.int64)


def to_pairs(indptr, cols):
    return {(i, int(c)) for i in range(indptr.shape[0] - 1) for c in cols[indptr[i] : indptr[i + 1]]}


def product(a, b):
    return {(i, k) for i, j in a for j2, k in b if j == j2}


def random_pairs(rng, n, max_degree):
    return {(i, rng.randrange(n)) for i in range(n) for _ in range(rng.randint(0, max_degree))}


def cases():
    """(n, pairs of A, pairs of B): seeded random pairs and the edge shapes."""
    rng = random.Random(14)
    out = [(1, set(), set()), (1, {(0, 0)}, {(0, 0)}), (1, {(0, 0)}, set()), (5, set(), set())]
    full = {(i, j) for i in range(6) for j in range(6)}
    out.append((6, full, full))
    out.append((6, full, {(0, 1), (3, 2)}))
    # A's columns hit only B's empty rows, and B's non-empty rows go unread
    out.append((6, {(i, j) for i in range(6) for j in (1, 2, 4)}, {(0, 3), (3, 5), (5, 0)}))
    for _ in range(200):
        n = rng.randint(1, 30)
        out.append((n, random_pairs(rng, n, rng.randint(0, 5)), random_pairs(rng, n, rng.randint(0, 5))))
    return out


def test_spgemm_bool_matches_set_product():
    for n, a, b in cases():
        indptr, cols = _kernels.spgemm_bool(*to_csr(n, a), *to_csr(n, b))
        assert indptr.dtype == cols.dtype == np.int64
        assert indptr.shape == (n + 1,) and indptr[0] == 0 and indptr[-1] == cols.shape[0]
        for i in range(n):
            assert (np.diff(cols[indptr[i] : indptr[i + 1]]) > 0).all()
        assert to_pairs(indptr, cols) == product(a, b)


def test_frontier_reach_matches_set_image():
    rng = random.Random(15)
    for n, _, b in cases():
        frontier = sorted(rng.sample(range(n), rng.randint(1, n)))
        got = _kernels.frontier_reach(*to_csr(n, b), np.array(frontier, np.int64))
        assert got.dtype == np.int64
        assert got.tolist() == sorted({c for r, c in b if r in frontier})


def test_frontier_reach_empty_frontier_is_shared_read_only():
    indptr, cols = to_csr(3, {(0, 1), (2, 2)})
    first = _kernels.frontier_reach(indptr, cols, np.empty(0, np.int64))
    second = _kernels.frontier_reach(indptr, cols, np.empty(0, np.int64))
    assert first is second and first.size == 0 and first.dtype == np.int64
    with pytest.raises(ValueError):
        first[...] = 0


@pytest.mark.parametrize(
    "values",
    [[], [7], [3, 3, 3, 3], [5, 1, 5, 1, 1, 5, 0], [9, 8, 7, 6], [-2, 4, -2, 0, 4]],
)
def test_sorted_unique_small(values):
    got = _kernels.sorted_unique(np.array(values, np.int64))
    assert got.dtype == np.int64
    assert got.tolist() == sorted(set(values))


def test_sorted_unique_duplicate_heavy():
    rng = random.Random(16)
    for _ in range(50):
        values = [rng.randrange(8) for _ in range(rng.randint(0, 200))]
        assert _kernels.sorted_unique(np.array(values, np.int64)).tolist() == sorted(set(values))


def test_no_python_loops():
    tree = ast.parse(inspect.getsource(_kernels))
    loops = (ast.For, ast.While, ast.comprehension)
    assert [type(node).__name__ for node in ast.walk(tree) if isinstance(node, loops)] == []
