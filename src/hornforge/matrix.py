"""Adjacency-matrix route to rule evaluation.

Chain rules are scored by multiplying boolean relation matrices, each
`kg.entity_count` square, with transposes for inverted atoms.  This is an
independent second implementation of support / coverage / CWA confidence
used to cross-check metrics.py's symbolic engine; keep the two decoupled.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _kernels
from .metrics import as_fraction
from .rules import Rule, sort_key


class NonChainRuleError(ValueError):
    """The matrix oracle requires chain rules; raised for anything else."""

    def __init__(self, detail):
        super().__init__(f"matrix oracle requires chain rules: {detail}")


class SparseBoolMatrix:
    """Square boolean matrix, CSR with sorted unique columns per row."""

    __slots__ = ("n", "indptr", "cols", "_t", "_keys")

    def __init__(self, n, indptr, cols):
        self.n = n
        self.indptr = np.asarray(indptr, np.int64)
        self.cols = np.asarray(cols, np.int64)
        self._t = None
        self._keys = None

    @classmethod
    def from_pairs(cls, n, pairs):
        arr = np.asarray(list(pairs), np.int64).reshape(-1, 2)
        keys = _kernels.sorted_unique(arr[:, 0] * n + arr[:, 1])
        return cls(n, *_kernels.csr_from_keys(keys, n))

    @classmethod
    def identity(cls, n):
        return cls(n, np.arange(n + 1, dtype=np.int64), np.arange(n, dtype=np.int64))

    @property
    def nnz(self) -> int:
        return int(self.cols.shape[0])

    def keys(self):
        """row*n+col encodings, sorted ascending (rows ascend, cols sorted)."""
        if self._keys is None:
            self._keys = _kernels.row_ids(self.indptr) * self.n + self.cols
        return self._keys

    def pairs(self):
        return list(zip(_kernels.row_ids(self.indptr).tolist(), self.cols.tolist()))

    def transpose(self) -> "SparseBoolMatrix":
        if self._t is not None:
            return self._t
        keys = np.sort(self.cols * self.n + _kernels.row_ids(self.indptr))
        t = SparseBoolMatrix(self.n, *_kernels.csr_from_keys(keys, self.n))
        t._t = self
        self._t = t
        return t

    def __matmul__(self, other: "SparseBoolMatrix") -> "SparseBoolMatrix":
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        indptr, cols = _kernels.spgemm_bool(self.indptr, self.cols, other.indptr, other.cols)
        return SparseBoolMatrix(self.n, indptr, cols)

    def __eq__(self, other):
        if not isinstance(other, SparseBoolMatrix):
            return NotImplemented
        return (
            self.n == other.n
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.cols, other.cols)
        )

    def __repr__(self):
        return f"SparseBoolMatrix(n={self.n}, nnz={self.nnz})"


_adjacency_cache = weakref.WeakKeyDictionary()


def adjacency_matrix(kg, relation) -> SparseBoolMatrix:
    """Boolean subject-object adjacency of one relation, cached per graph."""
    relation = kg.relation_id(relation)
    per_kg = _adjacency_cache.get(kg)
    if per_kg is None:
        per_kg = _adjacency_cache[kg] = {}
    m = per_kg.get(relation)
    if m is None:
        m = per_kg[relation] = SparseBoolMatrix.from_pairs(kg.entity_count, kg.pairs(relation))
    return m


def chain_orientations(rule: Rule):
    """Oriented relation sequence walking the body from the head's subject
    variable to its object variable.  Raises NonChainRuleError when the rule
    is not a two-variable-headed chain."""
    head = rule.head
    if not (head.subject.is_var and head.object.is_var) or head.subject == head.object:
        raise NonChainRuleError("matrix route needs a two-variable head")
    x, y = head.subject.index, head.object.index
    if not rule.body:
        return []
    for atom in rule.body:
        if not (atom.subject.is_var and atom.object.is_var) or atom.subject == atom.object:
            raise NonChainRuleError("matrix route needs variable-only chain atoms")
    cur = x
    remaining = list(rule.body)
    seq = []
    while remaining:
        matches = [a for a in remaining if cur in a.variables()]
        if len(matches) != 1:
            raise NonChainRuleError("body is not a simple chain")
        atom = matches[0]
        if atom.subject.index == cur:
            seq.append((atom.relation, False))
            cur = atom.object.index
        else:
            seq.append((atom.relation, True))
            cur = atom.subject.index
        remaining.remove(atom)
    if cur != y:
        raise NonChainRuleError("chain does not terminate in the head object variable")
    return seq


_PRODUCT_CACHE_SIZE = 4
_product_cache = weakref.WeakKeyDictionary()


def body_product(kg, rule: Rule) -> SparseBoolMatrix:
    """Boolean product of the body chain's matrices; empty body gives identity.

    The matrix metrics each need the product, so the last few per graph are
    memoized here.  The memo lives only in the matrix route and shares no
    code with metrics.py, keeping the route an independent check.
    """
    per_kg = _product_cache.get(kg)
    if per_kg is None:
        per_kg = _product_cache[kg] = {}
    prod = per_kg.get(rule)
    if prod is None:
        prod = _chain_product(kg, rule)
        if len(per_kg) >= _PRODUCT_CACHE_SIZE:
            del per_kg[next(iter(per_kg))]
        per_kg[rule] = prod
    return prod


def _chain_product(kg, rule: Rule) -> SparseBoolMatrix:
    out = None
    for r, inv in chain_orientations(rule):
        m = adjacency_matrix(kg, r)
        if inv:
            m = m.transpose()
        out = m if out is None else out @ m
    return SparseBoolMatrix.identity(kg.entity_count) if out is None else out


def matrix_support(kg, rule: Rule) -> int:
    prod = body_product(kg, rule)
    head = adjacency_matrix(kg, rule.head.relation)
    return _kernels.intersect_count(prod.keys(), head.keys())


def matrix_head_coverage(kg, rule: Rule) -> Fraction:
    n = kg.fact_count(rule.head.relation)
    if n == 0:
        raise ValueError("undefined head coverage: head relation has no facts")
    return Fraction(matrix_support(kg, rule), n)


def matrix_cwa_body_size(kg, rule: Rule) -> int:
    if not rule.body:
        raise ValueError("confidence undefined for empty body")
    return body_product(kg, rule).nnz


def matrix_std_confidence(kg, rule: Rule) -> Fraction:
    size = matrix_cwa_body_size(kg, rule)
    return Fraction(matrix_support(kg, rule), size) if size else Fraction(0)


@dataclass(frozen=True)
class EntityVector:
    """Boolean entity-set result of forward inference."""

    dimension: int
    nonzeros: frozenset

    def indicator(self):
        arr = np.zeros(self.dimension, np.int64)
        for i in self.nonzeros:
            arr[i] = 1
        return arr


def tensorlog_infer(kg, rule: Rule, x) -> EntityVector:
    """Entities reachable from x through the rule body: one-hot vector
    pushed through the chain of adjacency matrices."""
    frontier = np.array([kg.entity_id(x)], np.int64)
    for r, inv in chain_orientations(rule):
        m = adjacency_matrix(kg, r)
        if inv:
            m = m.transpose()
        frontier = _kernels.frontier_reach(m.indptr, m.cols, frontier)
    return EntityVector(kg.entity_count, frozenset(int(i) for i in frontier))


def aggregate_infer(kg, scored_rules, x):
    """Sum-aggregated inference over several (rule, confidence) pairs.

    score(y) = sum of confidences of the rules whose body chain connects x
    to y, accumulated exactly. Returns (entity id, score) pairs sorted by
    descending score then id.
    """
    scores = {}
    for rule, conf in sorted(scored_rules, key=lambda rc: sort_key(rc[0])):
        conf = as_fraction(conf)
        vec = tensorlog_infer(kg, rule, x)
        for e in vec.nonzeros:
            scores[e] = scores.get(e, Fraction(0)) + conf
    return sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
