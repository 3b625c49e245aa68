import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathsage.autograd import Tensor
from pathsage.errors import EmptySplit, LengthMismatch, ShapeMismatch
from pathsage.graph import LabelSet, load_dataset
from pathsage.metrics import (
    attention_stats,
    dump_attention,
    eval_runs,
    eval_split,
    micro_f1,
)
from pathsage.model import ModelConfig, PathSageModel
from pathsage.sampler import rng_for
from pathsage.synth import synth_planted_khop

RNG = np.random.Generator(np.random.PCG64(31))


def brute_force_f1(preds, targets, num_classes, task):
    """Independent per-class confusion tally."""
    tp = fp = fn = 0
    if task == "single_label":
        for c in range(num_classes):
            tp += int(((preds == c) & (targets == c)).sum())
            fp += int(((preds == c) & (targets != c)).sum())
            fn += int(((preds != c) & (targets == c)).sum())
    else:
        for c in range(targets.shape[1]):
            p, t = preds[:, c] > 0, targets[:, c] > 0
            tp += int((p & t).sum())
            fp += int((p & ~t).sum())
            fn += int((~p & t).sum())
    denom = 2 * tp + fp + fn
    return 2 * tp / denom if denom else 0.0


# --- micro_f1 -----------------------------------------------------------

def test_perfect_predictions():
    assert micro_f1([0, 1, 2], [0, 1, 2], "single_label") == 1.0
    y = np.eye(4, dtype=np.uint8)
    assert micro_f1(y, y, "multi_label") == 1.0


def test_all_negative_multilabel_is_zero():
    preds = np.zeros((3, 4))
    targets = np.zeros((3, 4))
    targets[0, 1] = 1
    assert micro_f1(preds, targets, "multi_label") == 0.0


def test_empty_denominator_is_zero():
    assert micro_f1(np.zeros((2, 3)), np.zeros((2, 3)), "multi_label") == 0.0


def test_hand_case_three_samples():
    # preds [0,1,1], targets [0,1,0]: tp=2, fp=1, fn=1 -> 4/6
    assert micro_f1([0, 1, 1], [0, 1, 0], "single_label") == pytest.approx(2 / 3)


def test_brute_force_1000_pairs_single_label():
    preds = RNG.integers(0, 5, size=1000)
    targets = RNG.integers(0, 5, size=1000)
    assert micro_f1(preds, targets, "single_label") == brute_force_f1(
        preds, targets, 5, "single_label")


def test_brute_force_1000_pairs_multi_label():
    preds = (RNG.random((1000, 6)) < 0.3).astype(np.uint8)
    targets = (RNG.random((1000, 6)) < 0.3).astype(np.uint8)
    assert micro_f1(preds, targets, "multi_label") == brute_force_f1(
        preds, targets, 6, "multi_label")


def test_permutation_symmetry():
    preds = RNG.integers(0, 3, size=50)
    targets = RNG.integers(0, 3, size=50)
    base = micro_f1(preds, targets, "single_label")
    perm = RNG.permutation(50)
    assert micro_f1(preds[perm], targets[perm], "single_label") == base


def test_length_mismatch():
    with pytest.raises(LengthMismatch):
        micro_f1([0, 1], [0], "single_label")


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1,
                max_size=40))
def test_micro_f1_property_matches_tally(pairs):
    preds = np.asarray([p for p, _ in pairs])
    targets = np.asarray([t for _, t in pairs])
    got = micro_f1(preds, targets, "single_label")
    assert got == brute_force_f1(preds, targets, 4, "single_label")
    assert 0.0 <= got <= 1.0


# --- eval ---------------------------------------------------------------

@pytest.fixture(scope="module")
def small_setup(tmp_path_factory):
    d = synth_planted_khop(tmp_path_factory.mktemp("ds") / "m", num_nodes=60,
                           avg_degree=3.0, k=1, num_classes=3, seed=6)
    graph, labels, splits = load_dataset(d)
    mc = ModelConfig(feature_dim=graph.feature_dim, num_classes=3,
                     task=labels.task, hidden=8, heads=2, layers=2, depth_s=2)
    model = PathSageModel.init(mc, rng_for(1))
    return graph, labels, splits, model


def test_eval_same_seed_identical(small_setup):
    graph, labels, splits, model = small_setup
    a = eval_split(model, graph, labels, splits.test, (2, 2), seed=5)
    b = eval_split(model, graph, labels, splits.test, (2, 2), seed=5)
    assert a == b


def test_eval_empty_split(small_setup):
    graph, labels, _, model = small_setup
    with pytest.raises(EmptySplit):
        eval_split(model, graph, labels, [], (2, 2), seed=0)


@pytest.mark.parametrize("counts", [(2,), (2, 2, 2)])
def test_eval_counts_of_wrong_depth_rejected(small_setup, counts):
    # the model has depth 2; the depth is the number of counts
    graph, labels, splits, model = small_setup
    with pytest.raises(ShapeMismatch, match="batch depth"):
        eval_split(model, graph, labels, splits.test, counts, seed=0)


def test_zero_model_predicts_class_zero_frequency(small_setup):
    # zero parameters -> zero logits -> argmax tie-break picks class 0,
    # so micro-F1 is exactly the class-0 frequency of the split
    graph, labels, splits, _ = small_setup
    mc = ModelConfig(feature_dim=graph.feature_dim, num_classes=3,
                     task=labels.task, hidden=8, heads=2, layers=1, depth_s=2)
    model = PathSageModel.init(mc, rng_for(0))
    for _, p in model.named_params():
        p.data[...] = 0.0
    f1, _ = eval_split(model, graph, labels, splits.test, (2, 2), seed=0)
    expect = float((labels.labels[splits.test] == 0).mean())
    assert f1 == pytest.approx(expect)


def test_eval_runs_report_shape(small_setup):
    graph, labels, splits, model = small_setup
    report = eval_runs(model, graph, labels, splits.test, (2, 2), seed=0, runs=3)
    assert set(report) == {"runs", "micro_f1_mean", "micro_f1_std", "loss_mean"}
    assert report["runs"] == 3
    assert 0.0 <= report["micro_f1_mean"] <= 1.0
    assert report["micro_f1_std"] >= 0.0


def test_eval_peak_memory_does_not_grow_with_batches(tmp_path):
    # a batch's forward graph must not stay alive into the next batch
    graph, labels, _ = load_dataset(synth_planted_khop(
        tmp_path / "m", num_nodes=200, avg_degree=3.0, k=1, num_classes=3, seed=6))
    mc = ModelConfig(feature_dim=graph.feature_dim, num_classes=3, task=labels.task,
                     hidden=32, heads=4, layers=2, depth_s=3)
    model = PathSageModel.init(mc, rng_for(1))

    def peak(batches):
        tracemalloc.start()
        try:
            eval_split(model, graph, labels, np.arange(16 * batches), (3, 3, 3), seed=0,
                       batch_size=16)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one, four = peak(1), peak(4)
    assert four <= 1.25 * one, (one, four)


def test_eval_loss_matches_training_loss_definition(small_setup):
    # inference per-sample loss must agree with the training loss on the
    # same logits
    from pathsage.head import loss as train_loss
    from pathsage.head import sample_losses

    logits = RNG.normal(size=(9, 3)) * 4
    targets = RNG.integers(0, 3, size=9)
    a = float(sample_losses(Tensor(logits), targets, "single_label").mean())
    b = train_loss(Tensor(logits), targets, "single_label").item()
    assert a == pytest.approx(b, rel=1e-6)

    y = (RNG.random((9, 3)) < 0.5).astype(np.float64)
    a = float(sample_losses(Tensor(logits), y, "multi_label").mean())
    b = train_loss(Tensor(logits), y, "multi_label").item()
    assert a == pytest.approx(b, rel=1e-6)


# --- attention dump / stats ---------------------------------------------

def test_dump_record_count_and_schema(small_setup, tmp_path):
    graph, labels, splits, model = small_setup
    out = tmp_path / "dump.jsonl"
    counts = (3, 2)
    n = dump_attention(model, graph, labels, int(splits.test[0]), counts,
                       seed=1, out_path=out)
    layers, heads = model.config.layers, model.config.heads
    assert n == sum(counts) * layers * heads
    lines = out.read_text().splitlines()
    assert len(lines) == n
    for line in lines:
        rec = json.loads(line)
        assert set(rec) == {"central", "path", "layer", "head", "weights",
                            "labels"}
        t = len(rec["path"])
        assert len(rec["labels"]) == t
        w = np.asarray(rec["weights"])
        assert w.shape == (t, t)
        np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-5)


def test_dump_tags_multi_label_tokens_with_their_first_label(small_setup, tmp_path):
    graph, _, splits, model = small_setup
    # node v has no label, label 1, labels 0 and 2, or label 2, by v % 4
    patterns = np.array([[0, 0, 0], [0, 1, 0], [1, 0, 1], [0, 0, 1]], dtype=np.uint8)
    rows = patterns[np.arange(graph.num_nodes) % 4]
    labels = LabelSet(task="multi_label", num_classes=3, labels=rows)
    out = tmp_path / "dump.jsonl"
    seen = set()
    for node in range(4):
        dump_attention(model, graph, labels, node, (3, 2), seed=1, out_path=out)
        for line in out.read_text().splitlines():
            rec = json.loads(line)
            assert rec["labels"] == [(-1, 1, 0, 2)[v % 4] for v in rec["path"]]
            seen.update(v % 4 for v in rec["path"])
    assert seen == {0, 1, 2, 3}


def test_stats_aggregates_same_and_diff_label_mass(small_setup, tmp_path):
    graph, labels, splits, model = small_setup
    out = tmp_path / "dump.jsonl"
    dump_attention(model, graph, labels, int(splits.test[1]), (4, 4), seed=2,
                   out_path=out)
    stats = attention_stats(out)
    assert stats["records"] == 8 * 2 * 2
    assert stats["same_label_mean"] is None or 0 <= stats["same_label_mean"] <= 1
    assert stats["diff_label_mean"] is None or 0 <= stats["diff_label_mean"] <= 1
    for entry in stats["per_head"]:
        assert 0 <= entry["layer"] < model.config.layers
        assert 0 <= entry["head"] < model.config.heads


def test_stats_hand_checked_two_records(tmp_path):
    out = tmp_path / "d.jsonl"
    recs = [
        {"central": 0, "path": [0, 1], "layer": 0, "head": 0,
         "weights": [[0.9, 0.1], [0.4, 0.6]], "labels": [1, 1]},
        {"central": 0, "path": [0, 2], "layer": 0, "head": 0,
         "weights": [[0.7, 0.3], [0.2, 0.8]], "labels": [1, 0]},
    ]
    out.write_text("\n".join(json.dumps(r) for r in recs) + "\n")
    stats = attention_stats(out)
    # same-label off-diagonal masses: 0.1, 0.4; diff: 0.3, 0.2
    assert stats["same_label_mean"] == pytest.approx(0.25)
    assert stats["diff_label_mean"] == pytest.approx(0.25)
    assert stats["records"] == 2
