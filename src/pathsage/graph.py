"""Immutable graph storage: CSR adjacency, node features, labels, splits.

Dataset directory layout:
    meta.json     {"num_nodes", "feature_dim" >= 1, "num_classes" >= 1, "task", "directed"}
    edges.csv     one `src,dst` per line, 0-based, no header
    features.bin  magic "PSGF", u32 version, u64 rows, u64 cols, f32 LE row-major
    labels.csv    single_label: `node,label`; multi_label: `node,l1;l2;...`
    splits.json   {"train": [...], "val": [...], "test": [...]}
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    MalformedRecord,
    MissingFile,
    SplitOverlap,
)

FEATURES_MAGIC = b"PSGF"
FEATURES_VERSION = 1

SINGLE_LABEL = "single_label"
MULTI_LABEL = "multi_label"
SPLIT_NAMES = ("train", "val", "test")  # the fields of SplitMasks


@dataclass(frozen=True)
class Graph:
    num_nodes: int
    offsets: np.ndarray      # int64, len num_nodes + 1
    neighbors: np.ndarray    # int64 CSR column indices, sorted per node
    features: np.ndarray     # float32, [num_nodes, F]
    directed: bool

    @property
    def feature_dim(self):
        return self.features.shape[1]


@dataclass(frozen=True)
class LabelSet:
    task: str
    num_classes: int
    labels: np.ndarray  # single: int64 [N]; multi: uint8 [N, num_classes]


@dataclass(frozen=True)
class SplitMasks:
    train: np.ndarray
    val: np.ndarray
    test: np.ndarray


def build_csr(num_nodes, edges, directed):
    """Build sorted CSR from an edge list; symmetrize when undirected and
    give isolated nodes a self-loop so random walks never stall.

    Edges are deduplicated and sorted as the keys src * num_nodes + dst,
    which fit in int64 while node ids stay below the shuffle pseudo-node
    (sampler.STREAMS).
    """
    pairs = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if len(pairs) and (pairs.min() < 0 or pairs.max() >= num_nodes):
        raise IndexOutOfRange("edge endpoint outside [0, num_nodes)")
    src, dst = pairs[:, 0], pairs[:, 1]
    if not directed:
        src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
    isolated = np.flatnonzero(np.bincount(src, minlength=num_nodes) == 0)
    keys = np.unique(np.concatenate([src * num_nodes + dst, isolated * num_nodes + isolated]))
    offsets = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys // num_nodes, minlength=num_nodes), out=offsets[1:])
    return offsets, keys % num_nodes


def _require(path: Path):
    if not path.is_file():
        raise MissingFile(str(path))
    return path


def read_features_bin(path: Path) -> np.ndarray:
    with open(_require(path), "rb") as fh:
        header = fh.read(24)
        if len(header) < 24 or header[:4] != FEATURES_MAGIC:
            raise MalformedRecord(path, 0, "bad features header")
        version, rows, cols = struct.unpack("<IQQ", header[4:])
        if version != FEATURES_VERSION:
            raise MalformedRecord(path, 0, f"unsupported features version {version}")
        data = np.fromfile(fh, dtype="<f4", count=rows * cols)
        extra = len(fh.read())
    if data.size != rows * cols:
        raise MalformedRecord(path, 0, "truncated feature payload")
    if extra:
        raise MalformedRecord(path, 0, f"{extra} bytes after the feature payload")
    return data.reshape(rows, cols)


def write_features_bin(path: Path, features: np.ndarray):
    features = np.ascontiguousarray(features, dtype="<f4")
    with open(path, "wb") as fh:
        fh.write(FEATURES_MAGIC)
        fh.write(struct.pack("<IQQ", FEATURES_VERSION, features.shape[0], features.shape[1]))
        features.tofile(fh)


def _read_edges(path: Path, num_nodes):
    edges = []
    with open(_require(path)) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise MalformedRecord(path, line_no, f"expected `src,dst`, got {line!r}")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise MalformedRecord(path, line_no, f"non-integer endpoint in {line!r}") from None
            if not (0 <= u < num_nodes and 0 <= v < num_nodes):
                raise IndexOutOfRange(f"{path}:{line_no}: edge ({u},{v}) outside [0,{num_nodes})")
            edges.append((u, v))
    return edges


def _read_labels(path: Path, num_nodes, num_classes, task):
    if task == SINGLE_LABEL:
        labels = np.full(num_nodes, -1, dtype=np.int64)
    else:
        labels = np.zeros((num_nodes, num_classes), dtype=np.uint8)
    with open(_require(path)) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",", 1)
            if len(parts) != 2:
                raise MalformedRecord(path, line_no, f"expected `node,label`, got {line!r}")
            try:
                node = int(parts[0])
            except ValueError:
                raise MalformedRecord(path, line_no, f"non-integer node in {line!r}") from None
            if not 0 <= node < num_nodes:
                raise IndexOutOfRange(f"{path}:{line_no}: node {node} outside [0,{num_nodes})")
            if task == SINGLE_LABEL:
                try:
                    lab = int(parts[1])
                except ValueError:
                    raise MalformedRecord(path, line_no, f"non-integer label in {line!r}") from None
                if not 0 <= lab < num_classes:
                    raise IndexOutOfRange(f"{path}:{line_no}: label {lab} outside [0,{num_classes})")
                labels[node] = lab
            else:
                field = parts[1].strip()
                for tok in (field.split(";") if field else []):
                    try:
                        lab = int(tok)
                    except ValueError:
                        raise MalformedRecord(path, line_no, f"non-integer label id {tok!r}") from None
                    if not 0 <= lab < num_classes:
                        raise IndexOutOfRange(f"{path}:{line_no}: label {lab} outside [0,{num_classes})")
                    labels[node, lab] = 1
    if task == SINGLE_LABEL and (labels < 0).any():
        missing = int(np.flatnonzero(labels < 0)[0])
        raise MalformedRecord(path, 0, f"node {missing} has no label")
    return labels


def is_int(value):
    """True for a JSON integer; a bool or a float is not one."""
    return isinstance(value, int) and not isinstance(value, bool)


def _read_json_object(path: Path):
    with open(_require(path)) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise MalformedRecord(path, exc.lineno, exc.msg) from None
    if not isinstance(raw, dict):
        raise MalformedRecord(path, 0, "expected a JSON object")
    return raw


def _read_splits(path: Path, num_nodes):
    raw = _read_json_object(path)
    out = {}
    for name in SPLIT_NAMES:
        ids = raw.get(name, [])
        if not (isinstance(ids, list) and all(map(is_int, ids))):
            raise MalformedRecord(path, 0, f"{name} split is not a list of node ids")
        if not all(0 <= i < num_nodes for i in ids):
            raise IndexOutOfRange(f"{name} split index outside [0,{num_nodes})")
        idx = np.asarray(ids, dtype=np.int64)
        if len(np.unique(idx)) != len(idx):
            raise SplitOverlap(f"duplicate indices inside {name} split")
        out[name] = np.sort(idx)
    for a, b in (("train", "val"), ("train", "test"), ("val", "test")):
        if np.intersect1d(out[a], out[b]).size:
            raise SplitOverlap(f"{a} and {b} splits overlap")
    if out["train"].size == 0:
        raise SplitOverlap("train split is empty")
    return SplitMasks(out["train"], out["val"], out["test"])


def load_dataset(dir_path):
    """Load and validate a dataset directory -> (Graph, LabelSet, SplitMasks)."""
    root = Path(dir_path)
    meta = _read_json_object(root / "meta.json")
    for key in ("num_nodes", "feature_dim", "num_classes", "task"):
        if key not in meta:
            raise MalformedRecord(root / "meta.json", 0, f"missing key {key!r}")
    for key in ("num_nodes", "feature_dim", "num_classes"):
        if not is_int(meta[key]):
            raise MalformedRecord(root / "meta.json", 0,
                                  f"{key} must be an integer, got {meta[key]!r}")
    for key in ("feature_dim", "num_classes"):
        if meta[key] < 1:
            raise MalformedRecord(root / "meta.json", 0, f"{key} must be >= 1, got {meta[key]}")
    num_nodes, feature_dim, num_classes, task = (
        meta["num_nodes"], meta["feature_dim"], meta["num_classes"], meta["task"])
    if task not in (SINGLE_LABEL, MULTI_LABEL):
        raise MalformedRecord(root / "meta.json", 0, f"unknown task {task!r}")
    directed = meta.get("directed", False)
    if not isinstance(directed, bool):
        raise MalformedRecord(root / "meta.json", 0,
                              f"directed must be true or false, got {directed!r}")

    features = read_features_bin(root / "features.bin")
    if features.shape[0] != num_nodes:
        raise DimensionMismatch(f"features rows {features.shape[0]} != num_nodes {num_nodes}")
    if features.shape[1] != feature_dim:
        raise DimensionMismatch(f"features cols {features.shape[1]} != feature_dim {feature_dim}")

    edges = _read_edges(root / "edges.csv", num_nodes)
    offsets, neighbors = build_csr(num_nodes, edges, directed)
    graph = Graph(num_nodes=num_nodes, offsets=offsets, neighbors=neighbors,
                  features=features, directed=directed)
    labels = LabelSet(task=task, num_classes=num_classes,
                      labels=_read_labels(root / "labels.csv", num_nodes, num_classes, task))
    splits = _read_splits(root / "splits.json", num_nodes)
    return graph, labels, splits


def write_dataset(dir_path, edges, features, labels, splits, task, num_classes, directed=False):
    """Write a dataset directory in the canonical on-disk layout."""
    root = Path(dir_path)
    root.mkdir(parents=True, exist_ok=True)
    features = np.asarray(features, dtype=np.float32)
    num_nodes = features.shape[0]
    meta = {"num_nodes": num_nodes, "feature_dim": int(features.shape[1]),
            "num_classes": int(num_classes), "task": task, "directed": bool(directed)}
    (root / "meta.json").write_text(json.dumps(meta, sort_keys=True) + "\n")
    with open(root / "edges.csv", "w") as fh:
        for u, v in edges:
            fh.write(f"{u},{v}\n")
    write_features_bin(root / "features.bin", features)
    with open(root / "labels.csv", "w") as fh:
        if task == SINGLE_LABEL:
            for node, lab in enumerate(labels):
                fh.write(f"{node},{int(lab)}\n")
        else:
            for node, row in enumerate(labels):
                pos = ";".join(str(i) for i in np.flatnonzero(row))
                fh.write(f"{node},{pos}\n")
    (root / "splits.json").write_text(json.dumps(
        {k: [int(i) for i in v] for k, v in splits.items()}, sort_keys=True) + "\n")
    return root
