import numpy as np
import pytest

from pathsage.errors import IndexOutOfRange, InvalidPlan, InvalidSetting
from pathsage.graph import Graph, build_csr
from pathsage.sampler import (
    STREAMS,
    SamplePlan,
    derive_sample_seed,
    rng_for,
    sample_paths,
    stream_rng,
)


def make_graph(num_nodes, edges):
    offsets, neighbors = build_csr(num_nodes, edges, directed=False)
    features = np.zeros((num_nodes, 2), dtype=np.float32)
    return Graph(num_nodes=num_nodes, offsets=offsets, neighbors=neighbors,
                 features=features, directed=False)


STAR = make_graph(5, [(0, i) for i in range(1, 5)])
K3 = make_graph(3, [(0, 1), (1, 2), (0, 2)])


def test_plan_validation():
    with pytest.raises(InvalidPlan):
        SamplePlan(())
    with pytest.raises(InvalidPlan):
        SamplePlan((1, 0))


def walks_of(g, node, counts, seed=3, kind="walk", a=0):
    """One node's walk arrays, sampled as a batch of one, batch axis dropped."""
    return tuple(w[0] for w in sample_paths(g, [node], SamplePlan(counts), seed, kind, a))


def test_star_center_length1_hits_a_leaf():
    walks = walks_of(STAR, 0, (10,))[0]
    assert walks.shape == (10, 2)
    assert (walks[:, 0] == 0).all()
    assert set(walks[:, 1]) <= {1, 2, 3, 4}


def test_star_length2_forced_back_to_center():
    walks = walks_of(STAR, 0, (1, 10))[1]
    assert walks.shape == (10, 3)
    assert (walks[:, 0] == 0).all()
    assert (walks[:, 2] == 0).all()  # each leaf's only neighbor is the center


def test_bucket_shapes_and_counts():
    walks = sample_paths(K3, [0, 2], SamplePlan((2, 2)), 42, "walk", 0)
    assert len(walks) == 2
    assert walks[0].shape == (2, 2, 2) and walks[0].dtype == np.int64
    assert walks[1].shape == (2, 2, 3) and walks[1].dtype == np.int64
    assert all((w[:, :, 0] == [[0], [2]]).all() for w in walks)


def test_all_steps_are_edges():
    rng = np.random.Generator(np.random.PCG64(8))
    n = 50
    edges = sorted({(int(min(u, v)), int(max(u, v)))
                    for u, v in rng.integers(0, n, size=(140, 2)) if u != v})
    g = make_graph(n, edges)
    edge_set = {(int(u), int(v)) for u in range(n)
                for v in g.neighbors[g.offsets[u]:g.offsets[u + 1]]}
    plan = SamplePlan((3, 3, 3, 3))
    for walks in sample_paths(g, np.arange(0, n, 5), plan, 8, "walk", 0):
        for row in walks.reshape(-1, walks.shape[-1]):
            for a, b in zip(row[:-1], row[1:]):
                assert (int(a), int(b)) in edge_set


def test_determinism_bit_identical():
    b1 = walks_of(K3, 0, (4, 4, 4), seed=99)
    b2 = walks_of(K3, 0, (4, 4, 4), seed=99)
    for w1, w2 in zip(b1, b2):
        assert (w1 == w2).all()


def test_first_step_uniformity_three_sigma():
    trials = 30000
    counts = np.bincount(walks_of(K3, 0, (trials,), seed=5)[0][:, 1], minlength=3)
    assert counts[0] == 0
    p = 0.5
    sigma = np.sqrt(trials * p * (1 - p))
    for c in counts[1:]:
        assert abs(c - trials * p) <= 3 * sigma


# node 0 has degree 3 and node 4 degree 7: multiply-shift is exact only at
# powers of two, so these check its rounding does not skew the pick
HUBS = make_graph(12, [(0, i) for i in (1, 2, 3)] + [(4, i) for i in range(5, 12)])


@pytest.mark.parametrize("hub,deg", [(0, 3), (4, 7)])
def test_first_step_uniform_at_degrees_3_and_7(hub, deg):
    trials = 30000
    first = walks_of(HUBS, hub, (trials,), seed=11)[0][:, 1]
    nbrs = HUBS.neighbors[HUBS.offsets[hub]:HUBS.offsets[hub + 1]]
    assert len(nbrs) == deg and set(first) <= set(nbrs)
    counts = np.bincount(first, minlength=HUBS.num_nodes)[nbrs]
    p = 1 / deg
    sigma = np.sqrt(trials * p * (1 - p))
    assert np.abs(counts - trials * p).max() <= 3 * sigma


def test_node_walks_do_not_depend_on_the_batch():
    g = make_graph(50, [(u, (u * 7 + 3) % 50) for u in range(50) if u != (u * 7 + 3) % 50])
    nodes = np.array([4, 17, 0, 33, 49])
    plan = SamplePlan((3, 2, 4))
    batch = sample_paths(g, nodes, plan, 6, "eval", 2)
    reverse = sample_paths(g, nodes[::-1], plan, 6, "eval", 2)
    for i, node in enumerate(nodes):
        alone = walks_of(g, node, plan.counts_per_length, seed=6, kind="eval", a=2)
        for l in range(3):
            assert (batch[l][i] == alone[l]).all()
            assert (reverse[l][len(nodes) - 1 - i] == alone[l]).all()


def test_draws_do_not_repeat_across_walks_steps_and_lengths():
    # every node's neighbor list is 0..1023, so a walk's nodes are its picks,
    # and a pick is the top 10 bits of its draw
    n = 1024
    g = Graph(num_nodes=n, offsets=np.arange(0, n * n + 1, n), neighbors=np.tile(np.arange(n), n),
              features=np.zeros((n, 2), dtype=np.float32), directed=True)
    one, two, three = walks_of(g, 5, (100, 100, 100))
    pairs = {
        "length-1 vs length-2 first steps": (one[:, 1], two[:, 1]),
        "first vs second step of a walk": (two[:, 1], two[:, 2]),
        "walk j vs walk j+1": (two[:-1, 1:], two[1:, 1:]),
        "step 2 of walk j vs step 1 of walk j+1": (two[:-1, 2], two[1:, 1]),
    }
    for name, (x, y) in pairs.items():
        assert (x == y).mean() < 0.05, name  # 1/1024 for independent draws
    # over all 600 draws, equal pairs stay near the C(600, 2)/1024 of
    # independent draws; a counter reused between any two draw families adds
    # at least 100
    picks = np.concatenate([one[:, 1:].ravel(), two[:, 1:].ravel(), three[:, 1:].ravel()])
    counts = np.bincount(picks, minlength=n)
    equal_pairs = (counts * (counts - 1) // 2).sum()
    expected = len(picks) * (len(picks) - 1) / 2 / n
    assert equal_pairs < expected + 5 * np.sqrt(expected)


def test_central_out_of_range():
    for nodes, bad in (([7], 7), ([0, -1, 2], -1), ([1, 3], 3)):
        with pytest.raises(IndexOutOfRange, match=f"node {bad} not in"):
            sample_paths(K3, nodes, SamplePlan((1,)), 0, "walk", 0)


def test_derive_seed_deterministic_and_distinct():
    assert derive_sample_seed(0, 0, 0) == derive_sample_seed(0, 0, 0)
    assert derive_sample_seed(0, 0, 0) != derive_sample_seed(0, 0, 1)
    assert derive_sample_seed(0, 0, 0) != derive_sample_seed(0, 1, 0)
    assert derive_sample_seed(0, 0, 0) != derive_sample_seed(1, 0, 0)
    nodes = np.array([0, 1, 0xC0DE, 2 ** 40])
    assert derive_sample_seed(3, 2, nodes).tolist() == [derive_sample_seed(3, 2, int(n))
                                                        for n in nodes]


def test_derive_seed_collision_scan():
    nodes = np.arange(10000)
    seeds = np.sort(np.concatenate([derive_sample_seed(7, e, nodes) for e in range(100)]))
    assert seeds.size == 100 * 10000
    assert (seeds[1:] != seeds[:-1]).all()  # zero 64-bit collisions expected at 1e6 draws


def _state(rng):
    return rng.bit_generator.state["state"]["state"]


@pytest.mark.parametrize("seed,a,b", [(0, 0, 0), (7, 3, 41), (2 ** 64 - 1, 9, 5)])
def test_stream_keys_match_the_documented_derivations(seed, a, b):
    expected = {
        "walk": derive_sample_seed(seed, a, b),
        "eval": derive_sample_seed(seed ^ 0xE7A1, a, b),
        "shuffle": derive_sample_seed(seed, a, 0x5F5CAA1D + b),
        "dropout": derive_sample_seed(seed ^ 0xD20F0C37, a, b),
    }
    for kind, derived in expected.items():
        assert _state(stream_rng(seed, kind, a, b)) == _state(rng_for(derived)), kind


@pytest.mark.parametrize("seed,a,b", [(0, 0, 0), (1, 2, 3), (5, 0, 0xC0DE)])
def test_stream_kinds_give_distinct_seeds(seed, a, b):
    states = {_state(stream_rng(seed, kind, a, b)) for kind in STREAMS}
    assert len(states) == len(STREAMS)


def test_init_stream_is_not_a_walk_stream():
    # init weights must not come from the epoch-0 walk stream of any node,
    # in particular node 0xC0DE (49374)
    for seed in range(20):
        init = _state(stream_rng(seed, "init"))
        assert init not in {_state(stream_rng(seed, "walk", 0, n)) for n in (0, 1, 0xC0DE)}


@pytest.mark.parametrize("seed", [-1, 2 ** 64])
def test_seed_outside_64_bits_rejected(seed):
    for kind in STREAMS:
        with pytest.raises(InvalidSetting, match="seed"):
            stream_rng(seed, kind)
