"""Answers computed outside the engine, after the timed phase.

Path costs come from ``scipy.sparse.csgraph`` on the generated edge
arrays; relational answers from numpy.  Nothing here imports the
engine, so a bug shared by two engine code paths cannot hide itself.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra


def q14_weights(weights: np.ndarray) -> np.ndarray:
    """``CAST(weight * 10 AS bigint)`` as the engine evaluates it: a
    float64 multiply, then truncation toward zero."""
    return np.trunc(np.asarray(weights, dtype=np.float64) * 10.0).astype(np.int64)


class PathOracle:
    """Shortest-path costs over one directed edge list.

    Parallel edges keep their cheapest weight (scipy would sum them).
    """

    def __init__(self, src, dst, weights=None):
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        self.ids = np.unique(np.concatenate([src, dst]))
        n = len(self.ids)
        s = np.searchsorted(self.ids, src)
        d = np.searchsorted(self.ids, dst)
        self.unweighted = weights is None
        w = np.ones(len(s), np.float64) if weights is None else np.asarray(weights, np.float64)
        key = s * n + d
        order = np.lexsort((w, key))
        first = np.ones(len(order), dtype=bool)
        first[1:] = key[order][1:] != key[order][:-1]
        keep = order[first]
        self.graph = csr_matrix((w[keep], (s[keep], d[keep])), shape=(n, n))

    def costs(self, pairs) -> list:
        """Cost per (source, dest) pair; None when unreachable or when an
        endpoint is not a vertex of the edge table."""
        pairs = list(pairs)
        if not pairs:
            return []
        src = np.array([p[0] for p in pairs], dtype=np.int64)
        dst = np.array([p[1] for p in pairs], dtype=np.int64)
        si = np.searchsorted(self.ids, src).clip(0, len(self.ids) - 1)
        di = np.searchsorted(self.ids, dst).clip(0, len(self.ids) - 1)
        # only endpoints of some edge are vertices of the engine's domain
        known = (self.ids[si] == src) & (self.ids[di] == dst)
        sources = np.unique(si[known])
        table = {}
        if len(sources):
            dist = dijkstra(self.graph, directed=True, indices=sources, unweighted=self.unweighted)
            table = {int(v): row for v, row in zip(sources, dist)}
        out = []
        for ok, a, b in zip(known, si, di):
            value = table[int(a)][b] if ok else math.inf
            out.append(None if math.isinf(value) else int(round(value)))
        return out


def check_path(path_rows, source, dest, cost, weight_of) -> bool:
    """A Q14 path: edges chain source→dest and their weights sum to cost.

    ``path_rows`` are ``(person1, person2, weight)`` in path order;
    ``weight_of`` maps a raw weight to its integer query weight.
    """
    if source == dest:
        return cost == 0
    if not path_rows:
        return False
    at = source
    total = 0
    for person1, person2, weight in path_rows:
        if person1 != at:
            return False
        at = person2
        total += weight_of(weight)
    return at == dest and total == cost


def group_by_person1(person1, weights) -> dict:
    keys, inverse = np.unique(person1, return_inverse=True)
    counts = np.bincount(inverse)
    sums = np.bincount(inverse, weights=weights)
    return {int(k): (int(c), float(s)) for k, c, s in zip(keys, counts, sums)}


def join_gender(person1, weights, person_ids, genders) -> dict:
    order = np.argsort(person_ids)
    position = order[np.searchsorted(person_ids, person1, sorter=order)]
    gender = np.asarray(genders, dtype=object)[position]
    out = {}
    for g in sorted(set(genders)):
        mask = gender == g
        if mask.any():
            out[g] = (int(mask.sum()), float(weights[mask].mean()))
    return out


def top_weights(weights, limit: int) -> list:
    return sorted(np.asarray(weights).tolist(), reverse=True)[:limit]


def selective(person1, weights, bound) -> tuple:
    mask = person1 < bound
    return int(mask.sum()), float(weights[mask].sum())


def friends_of_friends(person1, person2, person) -> int:
    first = person2[person1 == person]
    return len(np.unique(person2[np.isin(person1, first)]))


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)
