import collections

import networkx as nx
import numpy as np
import pytest

from pathsage.errors import InvalidSetting
from pathsage.graph import build_csr, load_dataset
from pathsage.synth import exact_khop, planted_labels, synth_planted_khop


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


def test_exact_khop_matches_networkx():
    rng = np.random.Generator(np.random.PCG64(5))
    n = 60
    edges = sorted({(int(min(u, v)), int(max(u, v)))
                    for u, v in rng.integers(0, n, size=(150, 2)) if u != v})
    offsets, neighbors = build_csr(n, edges, directed=False)
    gx = nx.Graph(edges)
    gx.add_nodes_from(range(n))
    for src in range(0, n, 7):
        dists = nx.single_source_shortest_path_length(gx, src)
        for k in (1, 2, 3):
            expect = sorted(v for v, d in dists.items() if d == k)
            got = list(exact_khop(offsets, neighbors, src, k))
            # CSR adds self-loops on isolated nodes only; harmless for BFS
            assert got == expect, (src, k)


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
    dict(avg_degree=float("nan"), topology="ring")])
def test_rejects_settings_that_crash(tmp_path, setting):
    args = {**dict(num_nodes=20, avg_degree=2.0, k=1, num_classes=2, seed=0), **setting}
    with pytest.raises(InvalidSetting):
        synth_planted_khop(tmp_path / "x", **args)
    assert not (tmp_path / "x").exists()
