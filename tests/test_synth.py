import collections
import hashlib
import warnings

import networkx as nx
import numpy as np
import pytest

from pathsage.errors import DegenerateGraph, InvalidSetting
from pathsage.graph import build_csr, load_dataset
from pathsage.synth import planted_labels, synth_planted_khop


def test_k0_label_is_own_attribute():
    offsets, neighbors = build_csr(4, [(0, 1), (1, 2), (2, 3)], directed=False)
    hidden = np.array([2, 0, 1, 2])
    labels = planted_labels(offsets, neighbors, hidden, k=0)
    assert list(labels) == [2, 0, 1, 2]


def test_star_graph_k1_leaves_follow_center():
    # center 0, leaves 1..4: each leaf's 1-hop shell is exactly {center}
    offsets, neighbors = build_csr(5, [(0, i) for i in range(1, 5)], directed=False)
    hidden = np.array([1, 0, 0, 0, 0])
    labels = planted_labels(offsets, neighbors, hidden, k=1)
    assert list(labels[1:]) == [1, 1, 1, 1]
    # center sees all leaves (hidden 0)
    assert labels[0] == 0


def test_tie_breaks_to_smallest_class():
    # node 0's 1-hop shell = {1, 2} with classes {1, 0} -> tie -> class 0
    offsets, neighbors = build_csr(3, [(0, 1), (0, 2)], directed=False)
    hidden = np.array([2, 1, 0])
    labels = planted_labels(offsets, neighbors, hidden, k=1)
    assert labels[0] == 0


def _networkx_labels(gx, hidden, k):
    """Exact-k majority labels by networkx BFS, ties to the smallest class;
    None if some shell is empty."""
    labels = []
    for src in range(gx.number_of_nodes()):
        dists = nx.single_source_shortest_path_length(gx, src, cutoff=k)
        counts = collections.Counter(int(hidden[v]) for v, d in dists.items() if d == k)
        if not counts:
            return None
        best = max(counts.values())
        labels.append(min(c for c, n in counts.items() if n == best))
    return labels


def _graphs():
    """(name, n, edges, directed): sparse undirected graphs with and without
    empty shells, a denser one, a directed ring, and that ring plus chords."""
    rng = np.random.Generator(np.random.PCG64(5))
    for n, m in ((60, 150), (60, 45), (40, 300)):
        yield f"er{n}x{m}", n, [(int(u), int(v)) for u, v in rng.integers(0, n, size=(m, 2))
                                if u != v], False
    perm = rng.permutation(30)
    ring = [(int(perm[i]), int(perm[(i + 1) % 30])) for i in range(30)]
    yield "ring", 30, ring, True
    yield "chords", 30, ring + [(int(u), int(v)) for u, v in rng.integers(0, 30, size=(60, 2))
                                if u != v], True


@pytest.mark.parametrize("graph", list(_graphs()), ids=lambda graph: graph[0])
def test_planted_labels_match_networkx(graph):
    name, n, edges, directed = graph
    # CSR adds self-loops on isolated nodes only; harmless for BFS
    offsets, neighbors = build_csr(n, edges, directed=directed)
    gx = nx.DiGraph(edges) if directed else nx.Graph(edges)
    gx.add_nodes_from(range(n))
    hidden = np.random.Generator(np.random.PCG64(n)).integers(0, 3, size=n)
    for k in (0, 1, 2, 3):
        got = planted_labels(offsets, neighbors, hidden, k)
        expect = _networkx_labels(gx, hidden, k)
        assert (got if got is None else got.tolist()) == expect, (name, k)


def test_generated_dataset_is_valid_and_deterministic(tmp_path):
    d1 = synth_planted_khop(tmp_path / "a", num_nodes=80, avg_degree=3.0, k=2,
                            num_classes=3, seed=13)
    d2 = synth_planted_khop(tmp_path / "b", num_nodes=80, avg_degree=3.0, k=2,
                            num_classes=3, seed=13)
    g1, l1, s1 = load_dataset(d1)
    g2, l2, s2 = load_dataset(d2)
    assert (g1.neighbors == g2.neighbors).all()
    assert (l1.labels == l2.labels).all()
    assert len(s1.train) == 48 and len(s1.val) == 16 and len(s1.test) == 16
    # splits partition all nodes
    union = np.concatenate([s1.train, s1.val, s1.test])
    assert sorted(union) == list(range(80))


def test_labels_match_brute_force_bfs(tmp_path):
    d = synth_planted_khop(tmp_path / "ds", num_nodes=200, avg_degree=3.0, k=3,
                           num_classes=3, seed=7)
    g, labels, _ = load_dataset(d)
    feats = g.features
    hidden = np.argmax(feats[:, :3], axis=1)
    gx = nx.Graph()
    gx.add_nodes_from(range(g.num_nodes))
    for u in range(g.num_nodes):
        for v in g.neighbors[g.offsets[u]:g.offsets[u + 1]]:
            if u != v:
                gx.add_edge(u, int(v))
    for u in range(g.num_nodes):
        dists = nx.single_source_shortest_path_length(gx, u, cutoff=3)
        shell = [v for v, dd in dists.items() if dd == 3]
        counts = collections.Counter(int(hidden[v]) for v in shell)
        best = max(counts.values())
        expect = min(c for c, n in counts.items() if n == best)
        assert labels.labels[u] == expect


def test_ring_topology_is_single_directed_cycle(tmp_path):
    d = synth_planted_khop(tmp_path / "ring", num_nodes=50, avg_degree=1.0, k=3,
                           num_classes=3, seed=2, topology="ring")
    g, labels, _ = load_dataset(d)
    assert g.directed
    # every node has out-degree exactly 1
    degs = np.diff(g.offsets)
    assert (degs == 1).all()
    # following successors visits every node once before returning
    succ = {u: int(g.neighbors[g.offsets[u]]) for u in range(50)}
    seen, u = set(), 0
    while u not in seen:
        seen.add(u)
        u = succ[u]
    assert len(seen) == 50 and u == 0


def test_ring_label_is_hidden_attr_three_ahead(tmp_path):
    d = synth_planted_khop(tmp_path / "ring", num_nodes=40, avg_degree=1.0, k=3,
                           num_classes=4, seed=9, topology="ring")
    g, labels, _ = load_dataset(d)
    hidden = np.argmax(g.features[:, :4], axis=1)
    for u in range(40):
        v = u
        for _ in range(3):
            v = int(g.neighbors[g.offsets[v]])
        assert labels.labels[u] == hidden[v]


def test_unknown_topology_rejected(tmp_path):
    with pytest.raises(ValueError):
        synth_planted_khop(tmp_path / "x", num_nodes=20, avg_degree=2.0, k=1,
                           num_classes=2, seed=0, topology="torus")


def test_rejects_tiny_graphs(tmp_path):
    with pytest.raises(ValueError):
        synth_planted_khop(tmp_path / "x", num_nodes=5, avg_degree=2.0, k=1,
                           num_classes=2, seed=0)


# An er avg_degree above num_nodes - 1 would hang the suite if unchecked, so
# test_cli runs that case in a subprocess with a timeout.
@pytest.mark.parametrize("setting", [
    dict(num_classes=0), dict(avg_degree=float("nan")), dict(avg_degree=float("inf")),
    dict(avg_degree=float("nan"), topology="ring"), dict(avg_degree=-3.0),
    dict(avg_degree=-3.0, topology="ring")])
def test_rejects_settings_that_crash(tmp_path, setting):
    args = {**dict(num_nodes=20, avg_degree=2.0, k=1, num_classes=2, seed=0), **setting}
    with pytest.raises(InvalidSetting):
        synth_planted_khop(tmp_path / "x", **args)
    assert not (tmp_path / "x").exists()


# sha256 of every file, written by the per-node generator this one replaced
PINNED = {
    ("ring", "edges.csv"): "98e71886c9a9a78416d3089d6db2373fbd4bed25123c78c951337469bca8217e",
    ("ring", "features.bin"): "9a0a9c46e940387d3d67cbd73e50afd6eabf2926403691a0ea93033882f86206",
    ("ring", "labels.csv"): "e146c3271f0f0ba51e7f0ec645521a7eeef1f1aac1441f0ecd1dd65f4641a6db",
    ("ring", "meta.json"): "af2cc143c7d407f38720b81d6f78734e6f84b6e92640efc0abe8ad139215d766",
    ("ring", "splits.json"): "79597d241bee162a46e447b8d992a7eec00326b4a9484688763972eb58204857",
    ("er", "edges.csv"): "74f3ea08f89cc0f80f981b4760ca9df2d62854e698fa6cab50a1ad54528e35f8",
    ("er", "features.bin"): "11619bb045f6254529371c5af74573ef1be93011a56748f33cb948583aac59d3",
    ("er", "labels.csv"): "3f7f290d382e0fba4c3ad441dad5e4a153cb78df696f68f39910dd0eedd698bd",
    ("er", "meta.json"): "cb0ffc9bcdcf654ae0449726fe56af1b99cdf0548a6885de189bec3cc6d64ff0",
    ("er", "splits.json"): "352705ead7d968cf90a9fdecc31354d079d97911aca4952c46fe82aea73422ee",
}


def test_datasets_are_byte_identical_to_the_pinned_files(tmp_path):
    # the depth-sensitivity ring, and an ER graph at er-infer's degree
    made = {"ring": synth_planted_khop(tmp_path / "ring", num_nodes=1000, avg_degree=1.0, k=3,
                                       num_classes=4, seed=11, topology="ring"),
            "er": synth_planted_khop(tmp_path / "er", num_nodes=2000, avg_degree=6.0, k=2,
                                     num_classes=4, seed=5)}
    got = {(name, f.name): hashlib.sha256(f.read_bytes()).hexdigest()
           for name, d in made.items() for f in d.iterdir()}
    assert got == PINNED


def test_reseeding_past_the_last_seed_wraps_without_a_warning(tmp_path):
    # a 10-node ring's 10-hop shell is empty, so every one of the 10 attempts reseeds
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateGraph):
            synth_planted_khop(tmp_path / "x", num_nodes=10, avg_degree=1.0, k=10,
                               num_classes=3, seed=2 ** 64 - 1, topology="ring")
