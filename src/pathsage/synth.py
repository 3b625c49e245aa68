"""Synthetic planted-k-hop dataset generator.

Each node carries a hidden one-hot attribute embedded in its features
(plus gaussian noise dims). Its label is the majority hidden attribute
over the nodes at shortest-path distance exactly k, ties broken by the
smallest class index. Depth-k labels are invisible to models whose
receptive field stops short of k hops, which is exactly what the
depth-sensitivity experiment needs.
"""

from __future__ import annotations

import collections
import math

import numpy as np

from .errors import DegenerateGraph, InvalidSetting
from .graph import SINGLE_LABEL, build_csr, write_dataset
from .sampler import check_seed

NOISE_DIM = 8  # gaussian feature columns after the one-hot attribute
NOISE_SCALE = 0.5  # their standard deviation


def exact_khop(offsets, neighbors, source, k):
    """Node indices at shortest-path distance exactly k from source (BFS)."""
    if k == 0:
        return np.asarray([source], dtype=np.int64)
    dist = {source: 0}
    frontier = [source]
    for depth in range(1, k + 1):
        nxt = []
        for u in frontier:
            for v in neighbors[offsets[u]:offsets[u + 1]]:
                v = int(v)
                if v not in dist:
                    dist[v] = depth
                    nxt.append(v)
        frontier = nxt
        if not frontier:
            break
    return np.asarray(sorted(frontier), dtype=np.int64)


def planted_labels(offsets, neighbors, hidden, k):
    """Majority hidden attribute over each node's exact-k-hop shell.

    Returns None in place of a label when the shell is empty.
    """
    num_nodes = len(offsets) - 1
    labels = np.full(num_nodes, -1, dtype=np.int64)
    for u in range(num_nodes):
        shell = exact_khop(offsets, neighbors, u, k)
        if shell.size == 0:
            return None
        counts = collections.Counter(int(hidden[v]) for v in shell)
        best = max(counts.values())
        labels[u] = min(c for c, n in counts.items() if n == best)
    return labels


def _random_edges(num_nodes, avg_degree, rng):
    target = max(num_nodes - 1, int(round(num_nodes * avg_degree / 2)))
    # a random spanning chain keeps the graph connected, the rest is uniform
    perm = rng.permutation(num_nodes)
    edges = {(min(int(perm[i]), int(perm[i + 1])), max(int(perm[i]), int(perm[i + 1])))
             for i in range(num_nodes - 1)}
    while len(edges) < target:
        u, v = rng.integers(0, num_nodes, size=2)
        if u != v:
            edges.add((min(int(u), int(v)), max(int(u), int(v))))
    return sorted(edges)


def _ring_edges(num_nodes, rng):
    """One big directed cycle over a random node order (out-degree 1)."""
    perm = rng.permutation(num_nodes)
    return [(int(perm[i]), int(perm[(i + 1) % num_nodes])) for i in range(num_nodes)]


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
    if not math.isfinite(avg_degree):
        raise InvalidSetting(f"avg_degree {avg_degree} is not finite")
    if topology == "er" and avg_degree > num_nodes - 1:
        raise InvalidSetting(f"avg_degree {avg_degree} > {num_nodes - 1}, the degree "
                             f"of a complete graph on {num_nodes} nodes")
    check_seed(seed)
    directed = topology == "ring"
    for attempt in range(10):
        rng = np.random.Generator(np.random.PCG64(np.uint64(seed) + np.uint64(attempt)))
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
        perm = rng.permutation(num_nodes)
        n_train = int(num_nodes * 0.6)
        n_val = int(num_nodes * 0.2)
        splits = {"train": sorted(int(i) for i in perm[:n_train]),
                  "val": sorted(int(i) for i in perm[n_train:n_train + n_val]),
                  "test": sorted(int(i) for i in perm[n_train + n_val:])}
        return write_dataset(dir_path, edges, features, labels, splits,
                             task=SINGLE_LABEL, num_classes=num_classes,
                             directed=directed)
    raise DegenerateGraph(f"no graph with non-empty exact-{k}-hop shells after 10 attempts")
