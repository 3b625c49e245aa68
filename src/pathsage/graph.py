"""Immutable graph storage: CSR adjacency, node features, labels, splits.

Dataset directory layout:
    meta.json     {"num_nodes", "feature_dim" >= 1, "num_classes" >= 1, "task", "directed"}
    edges.csv     one `src,dst` per line, 0-based, no header
    features.bin  magic "PSGF", u32 version, u64 rows, u64 cols, f32 LE row-major
    labels.csv    single_label: `node,label`, one line per node; multi_label: `node,l1;l2;...`
    splits.json   {"train": [...], "val": [...], "test": [...]}

CSV fields are int64 integers, with optional whitespace around them; `_`
separators and `#` comments are errors. Empty lines are skipped, but a line
of only whitespace is an error. Both CSVs parse as one int64 array with
np.loadtxt; when that or a range check fails, a line-by-line scan finds the
first bad line and raises its error.
"""

from __future__ import annotations

import json
import os
import re
import struct
import warnings
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
_CSV_SLICE_ROWS = 1 << 16  # edges.csv rows formatted per write: ~5 MB of Python ints


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


def _outside(values, n):
    """True if some entry of the int array `values` is outside [0, n)."""
    return values.size > 0 and (values.min() < 0 or values.max() >= n)


def unique_keys(keys):
    """The sorted distinct values of an int64 array, by a sort and a neighbour
    compare: numpy >= 2.3 makes np.unique hash, many times slower here."""
    keys = np.sort(keys)
    first = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return keys[first]


def build_csr(num_nodes, edges, directed):
    """Build sorted CSR from an edge list; symmetrize when undirected and
    give isolated nodes a self-loop so random walks never stall.

    Edges are deduplicated and sorted as the keys src * num_nodes + dst,
    which fit in int64 while node ids stay below the shuffle pseudo-node
    (sampler.STREAMS).
    """
    pairs = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if _outside(pairs, num_nodes):
        raise IndexOutOfRange("edge endpoint outside [0, num_nodes)")
    src, dst = pairs[:, 0], pairs[:, 1]
    if not directed:
        src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
    isolated = np.flatnonzero(np.bincount(src, minlength=num_nodes) == 0)
    keys = unique_keys(np.concatenate([src * num_nodes + dst, isolated * num_nodes + isolated]))
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
        # checked before the read: rows * cols from the header may not fit a C size
        payload, need = os.fstat(fh.fileno()).st_size - len(header), rows * cols * 4
        if payload < need:
            raise MalformedRecord(path, 0, f"truncated feature payload: the header's "
                                           f"{rows} x {cols} floats need {need} bytes, "
                                           f"the file holds {payload}")
        if payload > need:
            raise MalformedRecord(path, 0, f"{payload - need} bytes after the feature payload")
        data = np.fromfile(fh, dtype="<f4", count=rows * cols)
    if data.size != rows * cols:
        raise MalformedRecord(path, 0, "truncated feature payload")
    return data.reshape(rows, cols)


def write_features_bin(path: Path, features: np.ndarray):
    features = np.ascontiguousarray(features, dtype="<f4")
    with open(path, "wb") as fh:
        fh.write(FEATURES_MAGIC)
        fh.write(struct.pack("<IQQ", FEATURES_VERSION, features.shape[0], features.shape[1]))
        features.tofile(fh)


_INT_FIELD = re.compile(r"[+-]?[0-9]+")


def _int_field(field):
    """The value of a CSV integer field, or None if it is not one. Whitespace
    around it is allowed; `_` separators and non-ASCII digits are not, as
    numpy's parser rejects them."""
    field = field.strip()
    return int(field) if _INT_FIELD.fullmatch(field) else None


def _int_table(path: Path, cols):
    """Every non-blank line of a comma-separated int64 file as one (rows,
    cols) array, or None if numpy cannot read it as one."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        try:  # comments=None: a `#` line is a bad field, not a comment
            table = np.loadtxt(path, delimiter=",", dtype=np.int64, ndmin=2, comments=None)
        except ValueError:  # a bad field, or rows of differing lengths
            return None
    if table.size == 0:  # an empty file reads as shape (0, 1)
        return np.empty((0, cols), dtype=np.int64)
    return table if table.shape[1] == cols else None


def _csv_lines(path: Path):
    """(line number, stripped text) of each non-blank line. A line of only
    whitespace is not blank: numpy's parser reads it as a field."""
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            text = line.strip()
            if text:
                yield line_no, text
            elif line.rstrip("\n"):
                raise MalformedRecord(path, line_no, "line holds only whitespace")


def _reject(path: Path, records, kind="int64"):
    """Run `records`, a line-by-line parse of a file the array path
    rejected, so that the first bad line raises its own error. A file in
    which no line fails still fails."""
    for _ in records:
        pass
    raise MalformedRecord(path, 0, f"not a table of comma-separated {kind} fields")


def _float_records(path: Path):
    """One row of float fields per line, each as wide as the first."""
    width = None
    for line_no, line in _csv_lines(path):
        parts = line.split(",")
        width = width or len(parts)
        if len(parts) != width:
            raise MalformedRecord(path, line_no, f"{len(parts)} fields, the first row has {width}")
        for field in parts:
            try:
                float(field)
            except ValueError:
                raise MalformedRecord(path, line_no, f"non-numeric field {field.strip()!r}") from None
        yield


def read_features_csv(path: Path) -> np.ndarray:
    """A comma-separated float table -> float32 (rows, cols). A `#` line is
    a bad field, not a comment; a bad file raises at its first bad line."""
    try:
        return np.loadtxt(path, delimiter=",", dtype=np.float32, ndmin=2, comments=None)
    except ValueError:
        _reject(path, _float_records(path), "float")


def _edge_records(path: Path, num_nodes):
    """(src, dst) per line."""
    for line_no, line in _csv_lines(path):
        parts = line.split(",")
        if len(parts) != 2:
            raise MalformedRecord(path, line_no, f"expected `src,dst`, got {line!r}")
        u, v = map(_int_field, parts)
        if u is None or v is None:
            raise MalformedRecord(path, line_no, f"non-integer endpoint in {line!r}")
        if not (0 <= u < num_nodes and 0 <= v < num_nodes):
            raise IndexOutOfRange(f"{path}:{line_no}: edge ({u},{v}) outside [0,{num_nodes})")
        yield u, v


def _label_records(path: Path, num_nodes, num_classes, task):
    """(node, label ids) per line; a single-label node may appear only once."""
    first_line = {}
    for line_no, line in _csv_lines(path):
        parts = line.split(",", 1)
        if len(parts) != 2:
            raise MalformedRecord(path, line_no, f"expected `node,label`, got {line!r}")
        node = _int_field(parts[0])
        if node is None:
            raise MalformedRecord(path, line_no, f"non-integer node in {line!r}")
        if not 0 <= node < num_nodes:
            raise IndexOutOfRange(f"{path}:{line_no}: node {node} outside [0,{num_nodes})")
        if task == SINGLE_LABEL:
            if node in first_line:
                raise MalformedRecord(path, line_no, f"node {node} already labelled "
                                                     f"on line {first_line[node]}")
            first_line[node] = line_no
            tokens = [parts[1]]
        else:
            field = parts[1].strip()
            tokens = field.split(";") if field else []
        labs = []
        for tok in tokens:
            lab = _int_field(tok)
            if lab is None:
                raise MalformedRecord(path, line_no, f"non-integer label {tok.strip()!r}")
            if not 0 <= lab < num_classes:
                raise IndexOutOfRange(f"{path}:{line_no}: label {lab} outside [0,{num_classes})")
            labs.append(lab)
        yield node, labs


def _read_edges(path: Path, num_nodes):
    """edges.csv -> int64 (E, 2) array of in-range endpoints."""
    edges = _int_table(_require(path), 2)
    if edges is None or _outside(edges, num_nodes):
        _reject(path, _edge_records(path, num_nodes))
    return edges


def _read_labels(path: Path, num_nodes, num_classes, task):
    _require(path)
    if task == SINGLE_LABEL:
        labels = np.full(num_nodes, -1, dtype=np.int64)
        rows = _int_table(path, 2)
        valid = not (rows is None or _outside(rows[:, 0], num_nodes)
                     or _outside(rows[:, 1], num_classes))
        if valid:
            labels[rows[:, 0]] = rows[:, 1]
        # a node listed twice leaves fewer labelled nodes than rows
        if not valid or np.count_nonzero(labels >= 0) != len(rows):
            _reject(path, _label_records(path, num_nodes, num_classes, task))
    else:
        labels = np.zeros((num_nodes, num_classes), dtype=np.uint8)
        for node, labs in _label_records(path, num_nodes, num_classes, task):
            labels[node, labs] = 1
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
        # type, not isinstance: a JSON true is a bool, not a node id
        if not (isinstance(ids, list) and set(map(type, ids)) <= {int}):
            raise MalformedRecord(path, 0, f"{name} split is not a list of node ids")
        # on the Python ints, so that an id past int64 is out of range, not an overflow
        if ids and not (0 <= min(ids) and max(ids) < num_nodes):
            raise IndexOutOfRange(f"{name} split index outside [0,{num_nodes})")
        idx = np.sort(np.asarray(ids, dtype=np.int64))
        if (idx[1:] == idx[:-1]).any():
            raise SplitOverlap(f"duplicate indices inside {name} split")
        out[name] = idx
    for a, b in (("train", "val"), ("train", "test"), ("val", "test")):
        if np.intersect1d(out[a], out[b], assume_unique=True).size:
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
        src, dst = np.asarray(edges, dtype=np.int64).reshape(-1, 2).T
        for a in range(0, len(src), _CSV_SLICE_ROWS):  # Python ints for one slice at a time
            b = a + _CSV_SLICE_ROWS
            fh.writelines(f"{u},{v}\n" for u, v in zip(src[a:b].tolist(), dst[a:b].tolist()))
    write_features_bin(root / "features.bin", features)
    with open(root / "labels.csv", "w") as fh:
        if task == SINGLE_LABEL:
            labels = np.asarray(labels, dtype=np.int64).tolist()
            fh.writelines(f"{node},{lab}\n" for node, lab in enumerate(labels))
        else:
            for node, row in enumerate(labels):
                pos = ";".join(str(i) for i in np.flatnonzero(row))
                fh.write(f"{node},{pos}\n")
    splits = {k: np.asarray(v, dtype=np.int64).tolist() for k, v in splits.items()}
    (root / "splits.json").write_text(json.dumps(splits, sort_keys=True) + "\n")
    return root
