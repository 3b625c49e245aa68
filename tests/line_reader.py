"""A line-by-line reader of single-label datasets, kept as the reference that
`graph.load_dataset`'s array parsing must match bit for bit.

It builds the CSR from per-node neighbour sets rather than through
`graph.build_csr`, so the sort-based dedupe is checked too.
"""

import json
from pathlib import Path

import numpy as np


def _rows(path):
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                yield [int(field) for field in line.split(",")]


def read_reference(dir_path):
    """-> (offsets, neighbors, labels, {split name: sorted ids}), all int64."""
    root = Path(dir_path)
    meta = json.loads((root / "meta.json").read_text())
    n = meta["num_nodes"]
    adjacent = [set() for _ in range(n)]
    for u, v in _rows(root / "edges.csv"):
        adjacent[u].add(v)
        if not meta.get("directed", False):
            adjacent[v].add(u)
    for u in range(n):
        if not adjacent[u]:  # a node without out-edges walks to itself
            adjacent[u].add(u)
    offsets = np.zeros(n + 1, dtype=np.int64)
    offsets[1:] = np.cumsum([len(s) for s in adjacent])
    neighbors = np.array([v for s in adjacent for v in sorted(s)], dtype=np.int64)
    labels = np.full(n, -1, dtype=np.int64)
    for node, label in _rows(root / "labels.csv"):
        labels[node] = label
    raw = json.loads((root / "splits.json").read_text())
    splits = {name: np.array(sorted(ids), dtype=np.int64) for name, ids in raw.items()}
    return offsets, neighbors, labels, splits
