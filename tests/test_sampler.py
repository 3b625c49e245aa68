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


def test_star_center_length1_hits_a_leaf():
    walks = sample_paths(STAR, 0, SamplePlan((10,)), rng_for(3))[0]
    assert walks.shape == (10, 2)
    assert (walks[:, 0] == 0).all()
    assert set(walks[:, 1]) <= {1, 2, 3, 4}


def test_star_length2_forced_back_to_center():
    walks = sample_paths(STAR, 0, SamplePlan((1, 10)), rng_for(3))[1]
    assert walks.shape == (10, 3)
    assert (walks[:, 0] == 0).all()
    assert (walks[:, 2] == 0).all()  # each leaf's only neighbor is the center


def test_bucket_shapes_and_counts():
    plan = SamplePlan((2, 2))
    walks = sample_paths(K3, 0, plan, rng_for(42))
    assert len(walks) == 2
    assert walks[0].shape == (2, 2) and walks[0].dtype == np.int64
    assert walks[1].shape == (2, 3) and walks[1].dtype == np.int64
    assert all((w[:, 0] == 0).all() for w in walks)


def test_all_steps_are_edges():
    rng = np.random.Generator(np.random.PCG64(8))
    n = 50
    edges = sorted({(int(min(u, v)), int(max(u, v)))
                    for u, v in rng.integers(0, n, size=(140, 2)) if u != v})
    g = make_graph(n, edges)
    edge_set = {(int(u), int(v)) for u in range(n)
                for v in g.neighbors[g.offsets[u]:g.offsets[u + 1]]}
    plan = SamplePlan((3, 3, 3, 3))
    for central in range(0, n, 5):
        for walks in sample_paths(g, central, plan, rng_for(central)):
            for row in walks:
                for a, b in zip(row[:-1], row[1:]):
                    assert (int(a), int(b)) in edge_set


def test_determinism_bit_identical():
    plan = SamplePlan((4, 4, 4))
    b1 = sample_paths(K3, 0, plan, rng_for(99))
    b2 = sample_paths(K3, 0, plan, rng_for(99))
    for w1, w2 in zip(b1, b2):
        assert (w1 == w2).all()


def test_first_step_uniformity_three_sigma():
    trials = 30000
    plan = SamplePlan((1,))
    counts = np.zeros(3, dtype=np.int64)
    for i in range(trials):
        walks = sample_paths(K3, 0, plan, rng_for(derive_sample_seed(5, 0, i)))
        counts[walks[0][0, 1]] += 1
    assert counts[0] == 0
    p = 0.5
    sigma = np.sqrt(trials * p * (1 - p))
    for c in counts[1:]:
        assert abs(c - trials * p) <= 3 * sigma


def test_central_out_of_range():
    with pytest.raises(IndexOutOfRange):
        sample_paths(K3, 7, SamplePlan((1,)), rng_for(0))


def test_derive_seed_deterministic_and_distinct():
    assert derive_sample_seed(0, 0, 0) == derive_sample_seed(0, 0, 0)
    assert derive_sample_seed(0, 0, 0) != derive_sample_seed(0, 0, 1)
    assert derive_sample_seed(0, 0, 0) != derive_sample_seed(0, 1, 0)
    assert derive_sample_seed(0, 0, 0) != derive_sample_seed(1, 0, 0)


def test_derive_seed_collision_scan():
    seeds = {derive_sample_seed(7, e, n) for e in range(100) for n in range(10000)}
    assert len(seeds) == 100 * 10000  # zero 64-bit collisions expected at 1e6 draws


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
