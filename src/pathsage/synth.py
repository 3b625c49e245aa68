"""Synthetic planted-k-hop dataset generator.

Each node carries a hidden one-hot attribute embedded in its features
(plus gaussian noise dims). Its label is the majority hidden attribute
over the nodes at shortest-path distance exactly k, ties broken by the
smallest class index. Depth-k labels are invisible to models whose
receptive field stops short of k hops, which is exactly what the
depth-sensitivity experiment needs.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateGraph, InvalidSetting
from .graph import SINGLE_LABEL, SPLIT_NAMES, build_csr, unique_keys, write_dataset
from .sampler import check_seed

NOISE_DIM = 8  # gaussian feature columns after the one-hot attribute
NOISE_SCALE = 0.5  # their standard deviation


def planted_labels(offsets, neighbors, hidden, k):
    """Majority hidden attribute over each node's exact-k-hop shell, or None
    if a shell is empty. A block of sources moves one hop at a time as sorted
    keys source * n + node, keeping the pairs no earlier hop reached; no hop
    of a block holds more pairs than the graph has nodes and entries."""
    n = len(offsets) - 1
    degree = np.diff(offsets)
    classes = int(hidden.max()) + 1
    block = max(1, (n + len(neighbors)) // max(int(degree.max()) ** k, classes))
    labels = np.empty(n, dtype=np.int64)
    for first in range(0, n, block):
        sources = np.arange(first, min(first + block, n))
        seen = frontier = sources * n + sources
        for _ in range(k):
            node = frontier % n
            width = degree[node]
            # the CSR position of each neighbour of each frontier node
            pos = np.repeat(offsets[node] - np.cumsum(width) + width, width) + np.arange(width.sum())
            reached = unique_keys(np.repeat(frontier - node, width) + neighbors[pos])
            at = np.minimum(np.searchsorted(seen, reached), len(seen) - 1)
            frontier = reached[seen[at] != reached]
            seen = np.sort(np.concatenate([seen, frontier]))
        votes = np.bincount((frontier // n - first) * classes + hidden[frontier % n],
                            minlength=len(sources) * classes).reshape(-1, classes)
        if not votes.any(axis=1).all():
            return None
        labels[sources] = votes.argmax(axis=1)  # the first maximum: the smallest class
    return labels


def _random_edges(num_nodes, avg_degree, rng):
    """Sorted (u < v) rows: a random spanning chain, then uniform pairs up to
    avg_degree. Each round draws as many pairs as edges are still missing. A
    repeat or a self-pair adds no edge, so no round overshoots, and the draws
    are exactly those of a loop that draws one pair at a time."""
    def keys(u, v):
        return (np.minimum(u, v) * num_nodes + np.maximum(u, v))[u != v]

    target = max(num_nodes - 1, int(round(num_nodes * avg_degree / 2)))
    perm = rng.permutation(num_nodes)
    edges = unique_keys(keys(perm[:-1], perm[1:]))
    while len(edges) < target:
        u, v = rng.integers(0, num_nodes, size=(target - len(edges), 2)).T
        edges = unique_keys(np.concatenate([edges, keys(u, v)]))
    return np.stack([edges // num_nodes, edges % num_nodes], axis=1)


def _ring_edges(num_nodes, rng):
    """One big directed cycle over a random node order (out-degree 1)."""
    perm = rng.permutation(num_nodes)
    return np.stack([perm, np.roll(perm, -1)], axis=1)


def synth_planted_khop(dir_path, num_nodes, avg_degree, k, num_classes, seed,
                       topology="er"):
    """Generate and write a planted-k-hop dataset; returns the directory.

    topology "er": undirected uniform-random graph (spanning chain plus
    random edges up to avg_degree). topology "ring": directed random
    cycle, whose exact-k-hop shell is the single node k steps ahead; the
    sharpest probe of receptive-field depth, since no shorter walk can
    see it. Retries generation (up to 10 reseeds) when some exact-k-hop
    shell is empty, then raises DegenerateGraph.
    """
    if num_nodes < 10:
        raise InvalidSetting("num_nodes must be >= 10")
    if k < 0:
        raise InvalidSetting("k must be >= 0")
    if topology not in ("er", "ring"):
        raise InvalidSetting(f"unknown topology {topology!r}")
    if num_classes < 1:
        raise InvalidSetting(f"num_classes must be >= 1, got {num_classes}")
    if not math.isfinite(avg_degree) or avg_degree < 0:
        raise InvalidSetting(f"avg_degree {avg_degree} is not a finite number >= 0")
    if topology == "er" and avg_degree > num_nodes - 1:
        raise InvalidSetting(f"avg_degree {avg_degree} > {num_nodes - 1}, the degree "
                             f"of a complete graph on {num_nodes} nodes")
    check_seed(seed)
    directed = topology == "ring"
    for attempt in range(10):
        rng = np.random.Generator(np.random.PCG64((seed + attempt) % 2**64))
        if topology == "ring":
            edges = _ring_edges(num_nodes, rng)
        else:
            edges = _random_edges(num_nodes, avg_degree, rng)
        offsets, neighbors = build_csr(num_nodes, edges, directed=directed)
        hidden = rng.integers(0, num_classes, size=num_nodes)
        labels = planted_labels(offsets, neighbors, hidden, k)
        if labels is None:
            continue
        features = np.zeros((num_nodes, num_classes + NOISE_DIM), dtype=np.float32)
        features[np.arange(num_nodes), hidden] = 1.0
        features[:, num_classes:] = rng.normal(0.0, NOISE_SCALE, size=(num_nodes, NOISE_DIM))
        n_train, n_val = int(num_nodes * 0.6), int(num_nodes * 0.2)
        parts = np.split(rng.permutation(num_nodes), [n_train, n_train + n_val])
        splits = dict(zip(SPLIT_NAMES, map(np.sort, parts)))
        return write_dataset(dir_path, edges, features, labels, splits,
                             task=SINGLE_LABEL, num_classes=num_classes,
                             directed=directed)
    raise DegenerateGraph(f"no graph with non-empty exact-{k}-hop shells after 10 attempts")
