import hashlib
import json
from collections import Counter
from dataclasses import asdict, replace

import numpy as np
import pytest

from pathsage import autograd as ag
from pathsage import head
from pathsage import model as model_module
from pathsage.autograd import Tensor, no_record
from pathsage.encoder import attention_maps
from pathsage.errors import InvalidSetting, ShapeMismatch
from pathsage.graph import load_dataset
from pathsage.model import ModelConfig, PathSageModel, distinct_rows
from pathsage.sampler import SamplePlan, rng_for, sample_paths
from pathsage.synth import synth_planted_khop

from helpers import mul, recorded_ops, tsum

RNG = np.random.Generator(np.random.PCG64(17))


@pytest.fixture(scope="module")
def setup(tmp_path_factory):
    d = synth_planted_khop(tmp_path_factory.mktemp("ds") / "m", num_nodes=40,
                           avg_degree=3.0, k=1, num_classes=3, seed=12)
    graph, labels, splits = load_dataset(d)
    mc = ModelConfig(feature_dim=graph.feature_dim, num_classes=3,
                     task=labels.task, hidden=8, heads=2, layers=2, depth_s=3)
    model = PathSageModel.init(mc, rng_for(2))
    return graph, model


def walks_for(graph, nodes, counts=(3, 3, 3), seed=0):
    return sample_paths(graph, list(nodes), SamplePlan(counts), seed, "walk", 0)


def test_logit_shapes(setup):
    graph, model = setup
    logits = model.forward_batch(graph, walks_for(graph, range(5)))
    assert isinstance(logits, Tensor) and logits.shape == (5, 3)


def test_single_node_matches_batch_row(setup):
    graph, model = setup
    batches = walks_for(graph, [4, 9])
    with no_record():
        full = model.forward_batch(graph, batches)
        single = model.forward_batch(graph, tuple(w[:1] for w in batches))
    assert single.data[0].tobytes() == full.data[0].tobytes()


def test_inference_encodes_each_distinct_walk_once(tmp_path, monkeypatch):
    # every walk of one length from a node of a directed ring is the same path
    graph, labels, _ = load_dataset(synth_planted_khop(
        tmp_path / "ring", num_nodes=30, avg_degree=1.0, k=1, num_classes=3, seed=4,
        topology="ring"))
    model = PathSageModel.init(ModelConfig(feature_dim=graph.feature_dim, num_classes=3,
                                           task=labels.task, hidden=8, heads=2, depth_s=3),
                               rng_for(2))
    passes = []
    real = model_module.encode_paths

    def counting(params, pos, feats, segments, **kwargs):
        passes.append(segments)  # (tokens per path, paths) of each length
        return real(params, pos, feats, segments, **kwargs)

    monkeypatch.setattr(model_module, "encode_paths", counting)
    walks = walks_for(graph, range(5))
    with no_record():
        plain = model.forward_batch(graph, walks)
    assert passes == [((2, 5), (3, 5), (4, 5))]  # one path per (node, length), one pass
    passes.clear()
    recorded = model.forward_batch(graph, walks)  # a recording forward encodes every walk
    assert passes == [((2, 15), (3, 15), (4, 15))]
    assert plain.data.tobytes() == recorded.data.tobytes()
    passes.clear()
    with no_record():
        model.forward_batch(graph, walks, rng=rng_for(9))  # so does one with dropout
    assert passes == [((2, 15), (3, 15), (4, 15))]


def _entries(tokens):
    """Stand-ins for forward_batch's per-length entries: (l, rows, inverse)."""
    return [(l, np.zeros((n // (l + 1), l + 1), dtype=np.int64), None)
            for l, n in enumerate(tokens, start=1)]


@pytest.mark.parametrize("tokens, chunks", [
    ((30, 45, 60), [[1, 2, 3]]),                  # every length in one chunk
    ((60, 90, 120, 150), [[1, 2], [3], [4]]),     # cut before a length that does not fit
    ((20, 300, 40, 50), [[1], [2], [3, 4]]),      # a length over the bound is a chunk alone
    ((100,), [[1]]),
])
def test_chunks_group_consecutive_lengths_up_to_pack_tokens(monkeypatch, tokens, chunks):
    monkeypatch.setattr(model_module, "PACK_TOKENS", 150)
    got = [[l for l, _, _ in chunk] for chunk in model_module._chunks(_entries(tokens))]
    assert got == chunks


@pytest.mark.parametrize("pack_tokens", [1, 60, 10**9])
def test_logits_and_gradients_do_not_depend_on_the_chunking(setup, monkeypatch, pack_tokens):
    # 1: every length alone; 60: lengths 1 and 2 (24 + 36 recorded tokens)
    # share a pass; 10**9: one pass
    graph, model = setup
    model = PathSageModel.init(model.config, rng_for(4), dtype=np.float64)
    walks = walks_for(graph, range(4))

    def run():
        model.zero_grad()
        with no_record():
            plain = model.forward_batch(graph, walks).data
        logits = model.forward_batch(graph, walks)
        ag.backward(tsum(mul(logits, logits)))
        return plain, [p.grad for _, p in model.named_params()]

    base_plain, base_grads = run()
    monkeypatch.setattr(model_module, "PACK_TOKENS", pack_tokens)
    plain, grads = run()
    assert plain.tobytes() == base_plain.tobytes()
    for g, want in zip(grads, base_grads):
        np.testing.assert_allclose(g, want, rtol=0, atol=1e-12)


def test_a_ring3_small_shaped_step_records_19_nodes(setup):
    # ring3-small's model and counts, 32 nodes: 1,472 tokens, one chunk. The
    # chunk records the embed GEMM (positions add in place), then 4 nodes per
    # layer; each of the 4 lengths records its pooling, which gathers its own
    # rows; then concat, the head (matmul, relu, dropout, matmul) and the loss.
    graph, _ = setup
    mc = ModelConfig(feature_dim=graph.feature_dim, num_classes=3, task="single_label",
                     hidden=32, heads=4, layers=2, depth_s=4)
    model = PathSageModel.init(mc, rng_for(3))
    walks = walks_for(graph, range(32), counts=(2, 2, 4, 4))
    logits = model.forward_batch(graph, walks, rng=rng_for(5))
    ops = Counter(recorded_ops(head.loss(logits, np.zeros(32, dtype=np.int64), mc.task)))
    assert sum(ops.values()) == 19
    assert (ops["_attention"], ops["_readout_attention"]) == (1, 1)
    assert (ops["layer_norm"], ops["_feed_forward"]) == (4, 2)
    assert (ops["canonical_bucket_mean"], ops["matmul"], ops["add"]) == (4, 3, 0)


def _same_groups(x, y):
    """True when x and y put the same positions into equal groups."""
    return ((x[:, None] == x[None, :]) == (y[:, None] == y[None, :])).all()


@pytest.mark.parametrize("case", ["random", "all duplicates", "no duplicates"])
def test_distinct_rows_matches_np_unique(case):
    rows = {"random": RNG.integers(0, 4, size=(300, 3)),
            "all duplicates": np.tile([7, 1, 7, 2], (50, 1)),
            "no duplicates": RNG.permutation(600).reshape(200, 3)}[case]
    keep, inverse = distinct_rows(rows)
    unique, unique_inverse = np.unique(rows, axis=0, return_inverse=True)
    assert (rows[keep][inverse] == rows).all()
    assert rows[keep][np.lexsort(rows[keep].T[::-1])].tobytes() == unique.tobytes()
    assert _same_groups(inverse, unique_inverse.reshape(-1))


def test_distinct_rows_never_merges_rows_whose_hashes_collide(monkeypatch):
    monkeypatch.setattr(model_module, "_ROW_HASH_MUL", np.uint64(0))  # every hash is 0
    rows = RNG.integers(0, 3, size=(100, 2))
    keep, inverse = distinct_rows(rows)
    assert (rows[keep][inverse] == rows).all()


def test_bucket_shuffle_leaves_logits_bit_identical(setup):
    graph, model = setup
    batches = walks_for(graph, [7])
    base = model.forward_batch(graph, batches)
    rng = np.random.Generator(np.random.PCG64(5))
    for _ in range(4):
        shuffled = tuple(w[:, rng.permutation(w.shape[1])] for w in batches)
        again = model.forward_batch(graph, shuffled)
        assert base.data.tobytes() == again.data.tobytes()


def test_attention_collection_shapes(setup):
    graph, model = setup
    batches = walks_for(graph, [0, 1])
    assert len(batches) == 3
    for l, walks in enumerate(batches, start=1):
        feats = Tensor(graph.features[walks.reshape(-1, l + 1)])
        per_layer = attention_maps(model.encoder, model.pos_table, feats)
        assert len(per_layer) == 2  # encoder layers
        for w in per_layer:
            assert w.shape == (2 * 3, 2, l + 1, l + 1)
            np.testing.assert_allclose(w.sum(axis=-1), 1.0, atol=1e-5)


def test_depth_mismatch_rejected(setup):
    graph, model = setup
    with pytest.raises(ShapeMismatch, match="batch depth 2 != model depth 3"):
        model.forward_batch(graph, walks_for(graph, [0], counts=(2, 2)))
    with pytest.raises(ShapeMismatch):
        model.forward_batch(graph, ())
    with pytest.raises(ShapeMismatch, match="empty batch"):
        model.forward_batch(graph, walks_for(graph, []))


def test_malformed_batch_arrays_rejected(setup):
    graph, model = setup
    shallow = PathSageModel.init(replace(model.config, depth_s=2), rng_for(2))
    one, two = walks_for(graph, [0, 1], counts=(2, 2))
    for bad in ((one, two[:1]),              # the lengths disagree on B
                (one[:1], two),
                (one, two[:, :, :2]),        # length-2 walks of 2 nodes, not 3
                (one[..., :1], two),
                (one[0], two[0])):           # one node's arrays without the batch axis
        with pytest.raises(ShapeMismatch):
            shallow.forward_batch(graph, bad)


def test_training_mode_dropout_differs_but_is_seeded(setup):
    graph, model = setup
    batches = walks_for(graph, [3])
    a = model.forward_batch(graph, batches, rng=rng_for(9))
    b = model.forward_batch(graph, batches, rng=rng_for(9))
    c = model.forward_batch(graph, batches, rng=rng_for(10))
    assert (a.data == b.data).all()
    assert not (a.data == c.data).all()


def test_config_json_roundtrip(setup):
    _, model = setup
    d = json.loads(json.dumps(asdict(model.config)))
    assert ModelConfig(**d) == model.config


@pytest.mark.parametrize("field, value", [
    ("layers", 0), ("layers", -1), ("hidden", 0), ("heads", 0), ("heads", 3), ("depth_s", 0),
    ("dropout_encoder", 1.5), ("dropout_encoder", 1.0), ("dropout_encoder", -0.1),
    ("dropout_output", 1.0), ("dropout_output", float("nan")),
])
def test_config_rejects_settings_the_model_cannot_serve(field, value):
    with pytest.raises(InvalidSetting, match=field):
        ModelConfig(feature_dim=4, num_classes=3, task="multiclass", **{field: value})


def test_config_accepts_one_layer_and_zero_dropout():
    mc = ModelConfig(feature_dim=4, num_classes=3, task="multiclass", layers=1,
                     dropout_encoder=0.0, dropout_output=0.0)
    assert (mc.layers, mc.dropout_encoder, mc.dropout_output) == (1, 0.0, 0.0)


# --- one parameter builder ---------------------------------------------------

def _param_digest(model):
    h = hashlib.sha256()
    for name, p in model.named_params():
        h.update(name.encode())
        h.update(p.data.tobytes())
    return h.hexdigest()


# sha256 over every parameter's name and bytes in named_params order, as the
# init draws stood when the model was first made by `build`; any change to
# their order or law changes it
@pytest.mark.parametrize("dtype, digest", [
    (np.float32, "bf3188c7d46dbf86550cec605df845f4af180d3bcfb25cbc4aea9277a9b9ac79"),
    (np.float64, "50dd718ad86694b38c525391be42d962fce6508f3a5bb15874385bd603a70456"),
])
def test_init_draws_are_pinned(dtype, digest):
    mc = ModelConfig(feature_dim=5, num_classes=3, task="single_label", hidden=8, heads=2,
                     layers=2, depth_s=3)
    model = PathSageModel.init(mc, rng_for(1), dtype=dtype)
    assert _param_digest(model) == digest
    assert model.pos_table.dtype == dtype


def test_build_asks_for_every_parameter_in_named_params_order(setup):
    _, model = setup
    arrays = {name: p.data for name, p in model.named_params()}
    asked = []

    def take(name, shape):
        asked.append((name, shape))
        return arrays[name]

    again = PathSageModel.build(model.config, take)
    assert asked == [(name, p.shape) for name, p in model.named_params()]
    assert len(asked) == 2 + 15 * model.config.layers + 4
    assert [name for name, _ in again.named_params()] == list(arrays)
    assert all(p.data is arrays[name] and p.requires_grad for name, p in again.named_params())
    assert again.pos_table.tobytes() == model.pos_table.tobytes()


def test_build_rejects_an_array_of_the_wrong_shape(setup):
    _, model = setup

    def take(name, shape):
        return np.zeros((2, 2) if name == "encoder.layer1.w1" else shape, dtype=np.float32)

    with pytest.raises(ShapeMismatch, match=r"encoder\.layer1\.w1: \(2, 2\) vs \(8, 32\)"):
        PathSageModel.build(model.config, take)
