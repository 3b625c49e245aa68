import json
import struct

import numpy as np
import pytest

from pathsage.errors import (
    DimensionMismatch,
    IndexOutOfRange,
    MalformedRecord,
    MissingFile,
    SplitOverlap,
)
from pathsage.graph import (
    FEATURES_MAGIC,
    FEATURES_VERSION,
    SPLIT_NAMES,
    load_dataset,
    read_features_bin,
    read_features_csv,
    write_dataset,
    write_features_bin,
)
from pathsage.synth import synth_planted_khop

from line_reader import read_reference


def make_dataset(tmp_path, edges, num_nodes, task="single_label", num_classes=2,
                 labels=None, splits=None, feature_dim=3):
    rng = np.random.Generator(np.random.PCG64(0))
    features = rng.normal(size=(num_nodes, feature_dim)).astype(np.float32)
    if labels is None:
        labels = np.zeros(num_nodes, dtype=np.int64) if task == "single_label" \
            else np.zeros((num_nodes, num_classes), dtype=np.uint8)
    if splits is None:
        splits = {"train": list(range(num_nodes)), "val": [], "test": []}
    return write_dataset(tmp_path / "ds", edges, features, labels, splits,
                         task=task, num_classes=num_classes)


def neighbors(g, u):
    return g.neighbors[g.offsets[u]:g.offsets[u + 1]]


def test_triangle_graph_offsets(tmp_path):
    d = make_dataset(tmp_path, [(0, 1), (1, 2), (0, 2)], 3)
    g, _, _ = load_dataset(d)
    assert list(g.offsets) == [0, 2, 4, 6]
    assert list(np.diff(g.offsets)) == [2, 2, 2]
    assert list(neighbors(g, 0)) == [1, 2]


def test_isolated_node_gets_self_loop(tmp_path):
    d = make_dataset(tmp_path, [], 1, splits={"train": [0], "val": [], "test": []})
    g, _, _ = load_dataset(d)
    assert list(g.offsets) == [0, 1]
    assert list(g.neighbors) == [0]
    assert list(neighbors(g, 0)) == [0]


def test_path_graph_offsets(tmp_path):
    # 0-1-2-3-4: degrees 1,2,2,2,1 -> offsets [0,1,3,5,7,8]
    d = make_dataset(tmp_path, [(0, 1), (1, 2), (2, 3), (3, 4)], 5)
    g, _, _ = load_dataset(d)
    assert list(g.offsets) == [0, 1, 3, 5, 7, 8]
    assert list(neighbors(g, 2)) == [1, 3]


def test_csr_round_trip_undirected(tmp_path):
    rng = np.random.Generator(np.random.PCG64(3))
    n = 40
    edges = {(int(min(u, v)), int(max(u, v)))
             for u, v in rng.integers(0, n, size=(120, 2)) if u != v}
    d = make_dataset(tmp_path, sorted(edges), n)
    g, _, _ = load_dataset(d)
    for u, v in edges:
        assert v in neighbors(g, u)
        assert u in neighbors(g, v)
    assert g.offsets[-1] == len(g.neighbors)
    assert np.diff(g.offsets).sum() == len(g.neighbors)


def test_load_is_deterministic(tmp_path):
    d = make_dataset(tmp_path, [(0, 1), (1, 2)], 3)
    g1, l1, s1 = load_dataset(d)
    g2, l2, s2 = load_dataset(d)
    assert (g1.offsets == g2.offsets).all()
    assert (g1.neighbors == g2.neighbors).all()
    assert (g1.features == g2.features).all()
    assert (l1.labels == l2.labels).all()
    assert (s1.train == s2.train).all()


def test_missing_file(tmp_path):
    d = make_dataset(tmp_path, [(0, 1)], 2)
    (d / "edges.csv").unlink()
    with pytest.raises(MissingFile):
        load_dataset(d)


def test_malformed_edge_reports_line(tmp_path):
    d = make_dataset(tmp_path, [(0, 1)], 2)
    (d / "edges.csv").write_text("0,1\nbogus line\n")
    with pytest.raises(MalformedRecord) as exc:
        load_dataset(d)
    assert ":2:" in str(exc.value)


def _meta_without(key):
    meta = {"num_nodes": 2, "feature_dim": 3, "num_classes": 2, "task": "single_label"}
    del meta[key]
    return json.dumps(meta)


def _meta_with(**fields):
    meta = {"num_nodes": 2, "feature_dim": 3, "num_classes": 2, "task": "single_label"}
    return json.dumps({**meta, **fields})


@pytest.mark.parametrize("name,text,needle", [
    ("meta.json", _meta_without("num_classes"), "missing key 'num_classes'"),
    ("meta.json", '{"num_nodes": 2,', ":1:"),
    ("meta.json", json.dumps({"num_nodes": "x", "feature_dim": 3, "num_classes": 2,
                              "task": "single_label"}), "'x'"),
    ("meta.json", "[2, 3]", "expected a JSON object"),
    ("meta.json", _meta_with(num_nodes=2.5), "num_nodes must be an integer, got 2.5"),
    ("meta.json", _meta_with(feature_dim=True), "feature_dim must be an integer, got True"),
    ("meta.json", _meta_with(num_classes="2"), "num_classes must be an integer, got '2'"),
    ("meta.json", _meta_with(directed="false"), "directed must be true or false"),
    ("meta.json", _meta_with(num_classes=0), "num_classes must be >= 1, got 0"),
    ("meta.json", _meta_with(feature_dim=0), "feature_dim must be >= 1, got 0"),
    ("meta.json", _meta_with(num_classes=-1, task="multi_label"), "num_classes must be >= 1, got -1"),
    ("splits.json", '{"train": [0, 1]', ":1:"),
    ("splits.json", json.dumps({"train": ["x"]}), "train split is not a list"),
    ("splits.json", json.dumps({"train": [0], "val": [[1]]}), "val split is not a list"),
    ("splits.json", json.dumps({"train": 0}), "train split is not a list"),
    ("splits.json", json.dumps({"train": [0, 1.5]}), "train split is not a list"),
    ("splits.json", json.dumps({"train": [0], "test": [True]}), "test split is not a list"),
])
def test_malformed_json_file_raises_malformed_record(tmp_path, name, text, needle):
    d = make_dataset(tmp_path, [(0, 1)], 2)
    (d / name).write_text(text)
    with pytest.raises(MalformedRecord, match=name) as exc:
        load_dataset(d)
    assert needle in str(exc.value)


def _assert_matches_reference(d):
    g, ls, sm = load_dataset(d)
    offsets, nbrs, labels, splits = read_reference(d)
    pairs = [(g.offsets, offsets), (g.neighbors, nbrs), (ls.labels, labels),
             *((getattr(sm, name), splits[name]) for name in SPLIT_NAMES)]
    for got, want in pairs:
        assert got.dtype == want.dtype and got.shape == want.shape
        assert (got == want).all()


# One row per CSV input: (file, its text, None if the dataset loads, else the
# error class and the 1-based line its message names; 0 for the whole file).
# The dataset has 2 nodes and 2 classes; the other file is the valid one.
CSV_CASES = [
    ("edges.csv", "0,1\n\n\nbogus\n", (MalformedRecord, 4)),
    ("edges.csv", "\n0,1\n\n1,5\n", (IndexOutOfRange, 4)),
    ("edges.csv", "0,1\r\n\r\n1,1\r\n", None),
    ("edges.csv", " 0 , 1 \n\t1,\t1\t\n", None),
    ("edges.csv", "0,1\n1,0\n0,1\n", None),  # the same edge thrice
    ("edges.csv", "0,1\n1\n", (MalformedRecord, 2)),
    ("edges.csv", "0,1,1\n", (MalformedRecord, 1)),
    ("edges.csv", "0,1.5\n", (MalformedRecord, 1)),
    ("edges.csv", "0,1\nx,1\n", (MalformedRecord, 2)),
    ("edges.csv", "0,1\n-1,0\n", (IndexOutOfRange, 2)),
    ("edges.csv", f"0,{2 ** 70}\n", (IndexOutOfRange, 1)),
    ("edges.csv", "# src,dst\n0,1\n", (MalformedRecord, 1)),
    ("edges.csv", "0,1\n# src,dst\n", (MalformedRecord, 2)),
    ("edges.csv", "", None),
    ("labels.csv", "0,0\n\n\n1,x\n", (MalformedRecord, 4)),
    ("labels.csv", "\n0,0\n\n1,2\n", (IndexOutOfRange, 4)),
    ("labels.csv", "0,1\r\n\r\n1,0\r\n", None),
    ("labels.csv", " 0 , 1 \n\t1,\t0\t\n", None),
    ("labels.csv", "0,0\n1\n", (MalformedRecord, 2)),
    ("labels.csv", "0,0\n1,1,1\n", (MalformedRecord, 2)),
    ("labels.csv", "0,0\n1,1.5\n", (MalformedRecord, 2)),
    ("labels.csv", "0,0\nx,1\n", (MalformedRecord, 2)),
    ("labels.csv", "0,0\n-1,1\n", (IndexOutOfRange, 2)),
    ("labels.csv", "0,0\n1,-1\n", (IndexOutOfRange, 2)),
    ("labels.csv", f"0,0\n{2 ** 70},1\n", (IndexOutOfRange, 2)),
    ("labels.csv", f"0,0\n1,{2 ** 70}\n", (IndexOutOfRange, 2)),
    ("labels.csv", "# node,label\n0,0\n1,1\n", (MalformedRecord, 1)),
    ("labels.csv", "0,0\n1,1\n# node,label\n", (MalformedRecord, 3)),
    ("labels.csv", "", (MalformedRecord, 0)),  # node 0 has no label
]


@pytest.mark.parametrize("name,text,expected", CSV_CASES)
def test_csv_inputs(tmp_path, name, text, expected):
    d = make_dataset(tmp_path, [(0, 1)], 2)
    (d / name).write_bytes(text.encode())
    if expected is None:
        _assert_matches_reference(d)
        return
    error, line = expected
    with pytest.raises(error) as exc:
        load_dataset(d)
    assert type(exc.value) is error
    assert str(exc.value).startswith(f"{d / name}:{line}: ")


@pytest.mark.parametrize("name,text,line", [
    ("labels.csv", "0,0\n1,1\n\n0,1\n", 4),  # a node labelled twice
    ("edges.csv", "0,1\n1_0,1\n", 2),  # int() accepts `_` separators
    ("labels.csv", "0,0\n1,1_0\n", 2),
    ("edges.csv", "0,1\n\u0661,1\n", 2),  # and non-ASCII digits
    ("edges.csv", "0,1\n  \n1,0\n", 2),  # numpy reads a line of spaces as a field
    ("labels.csv", "0,0\n\t\n1,1\n", 2),
])
def test_csv_inputs_outside_the_grammar_name_their_line(tmp_path, name, text, line):
    d = make_dataset(tmp_path, [(0, 1)], 2)
    (d / name).write_bytes(text.encode())
    with pytest.raises(MalformedRecord) as exc:
        load_dataset(d)
    assert str(exc.value).startswith(f"{d / name}:{line}: ")


def test_multi_label_node_listed_twice_gets_both_labels(tmp_path):
    d = make_dataset(tmp_path, [(0, 1)], 2, task="multi_label", num_classes=3)
    (d / "labels.csv").write_text("0,0\n1,\n0,2;1\n")
    _, ls, _ = load_dataset(d)
    assert ls.labels.tolist() == [[1, 1, 1], [0, 0, 0]]


@pytest.mark.parametrize("topology,seed", [("er", 1), ("er", 2), ("ring", 3), ("ring", 4)])
def test_load_matches_line_reader_with_blank_lines(tmp_path, topology, seed):
    d = synth_planted_khop(tmp_path / "ds", num_nodes=120, avg_degree=3.0, k=2,
                           num_classes=3, seed=seed, topology=topology)
    rng = np.random.Generator(np.random.PCG64(seed))
    for name in ("edges.csv", "labels.csv"):
        lines = (d / name).read_text().splitlines(keepends=True)
        for at in sorted(rng.integers(0, len(lines) + 1, size=len(lines) // 4), reverse=True):
            lines[at:at] = ["\n"] * int(rng.integers(1, 4))
        (d / name).write_text("".join(lines))
    _assert_matches_reference(d)


def test_edge_index_out_of_range(tmp_path):
    d = make_dataset(tmp_path, [(0, 1)], 2)
    (d / "edges.csv").write_text("0,5\n")
    with pytest.raises(IndexOutOfRange):
        load_dataset(d)


@pytest.mark.parametrize("node", [2, -1, 2 ** 70])
def test_split_index_out_of_range(tmp_path, node):
    d = make_dataset(tmp_path, [(0, 1)], 2)
    (d / "splits.json").write_text(json.dumps({"train": [0], "test": [node]}))
    with pytest.raises(IndexOutOfRange, match="test split index outside"):
        load_dataset(d)


def test_feature_row_count_mismatch(tmp_path):
    d = make_dataset(tmp_path, [(0, 1)], 2)
    write_features_bin(d / "features.bin", np.zeros((5, 3), dtype=np.float32))
    with pytest.raises(DimensionMismatch):
        load_dataset(d)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_feature_names_the_first_bad_node(tmp_path, value):
    d = make_dataset(tmp_path, [(0, 1)], 9)
    feats = read_features_bin(d / "features.bin")
    feats[7, 0] = feats[5, 2] = value
    write_features_bin(d / "features.bin", feats)
    with pytest.raises(MalformedRecord, match=f"node 5 has a non-finite feature {value} "
                                              "in column 2"):
        load_dataset(d)


@pytest.mark.parametrize("text,line,field", [
    ("1,2\nnan,3\ninf,1\n", 2, "nan"),
    ("1,2\n\n3,-inf\n", 3, "-inf"),
    ("1,2\n3, 1e39\n", 2, "1e39"),  # finite as text, past float32's range
    ("1,2\n-INF,x\n", 2, "-INF"),   # the line-by-line scan finds it too
    ("1,2\n-3.5e38,1\n1,x\n", 2, "-3.5e38"),
])
def test_non_finite_features_csv_names_its_line(tmp_path, text, line, field):
    path = tmp_path / "features.csv"
    path.write_text(text)
    with pytest.raises(MalformedRecord, match=f"features.csv:{line}: non-finite field '{field}'"):
        read_features_csv(path)


def test_split_overlap(tmp_path):
    d = make_dataset(tmp_path, [(0, 1)], 2)
    (d / "splits.json").write_text(json.dumps({"train": [0, 1], "val": [1], "test": []}))
    with pytest.raises(SplitOverlap):
        load_dataset(d)


def test_features_bin_round_trip(tmp_path):
    rng = np.random.Generator(np.random.PCG64(9))
    feats = rng.normal(size=(7, 4)).astype(np.float32)
    write_features_bin(tmp_path / "f.bin", feats)
    again = read_features_bin(tmp_path / "f.bin")
    assert (feats == again).all()


def test_truncated_features_bin(tmp_path):
    feats = np.zeros((4, 4), dtype=np.float32)
    write_features_bin(tmp_path / "f.bin", feats)
    raw = (tmp_path / "f.bin").read_bytes()
    (tmp_path / "f.bin").write_bytes(raw[:-8])
    with pytest.raises(MalformedRecord):
        read_features_bin(tmp_path / "f.bin")


def test_features_bin_with_trailing_bytes_rejected(tmp_path):
    write_features_bin(tmp_path / "f.bin", np.zeros((30, 11), dtype=np.float32))
    with open(tmp_path / "f.bin", "ab") as fh:
        fh.write(bytes(40))
    with pytest.raises(MalformedRecord, match="40 bytes after the feature payload"):
        read_features_bin(tmp_path / "f.bin")


@pytest.mark.parametrize("rows,cols", [(2 ** 63, 2), (2 ** 40, 2 ** 30), (2 ** 64 - 1, 2 ** 64 - 1)])
def test_features_bin_header_past_the_file_rejected(tmp_path, rows, cols):
    path = tmp_path / "f.bin"
    path.write_bytes(FEATURES_MAGIC + struct.pack("<IQQ", FEATURES_VERSION, rows, cols) + bytes(16))
    with pytest.raises(MalformedRecord, match="truncated feature payload"):
        read_features_bin(path)


def test_multi_label_round_trip(tmp_path):
    labels = np.array([[1, 0, 1], [0, 0, 0], [0, 1, 0]], dtype=np.uint8)
    d = make_dataset(tmp_path, [(0, 1), (1, 2)], 3, task="multi_label",
                     num_classes=3, labels=labels)
    _, ls, _ = load_dataset(d)
    assert ls.task == "multi_label"
    assert (ls.labels == labels).all()
