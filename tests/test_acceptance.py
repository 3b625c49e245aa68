"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints a single PASS/FAIL line (visible even without -s) so the
suite doubles as a sign-off report.
"""

import json
import math
import time

import numpy as np
import pytest

from pathsage import autograd as ag
from pathsage.autograd import Tensor
from pathsage.encoder import attention_maps, build_position_table
from pathsage.graph import Graph, LabelSet, build_csr, load_dataset
from pathsage.head import loss as head_loss
from pathsage.metrics import attention_stats, dump_attention, eval_split, micro_f1
from pathsage.model import ModelConfig, PathSageModel
from pathsage.sampler import (
    SamplePlan,
    derive_sample_seed,
    rng_for,
    sample_paths,
)
from pathsage.synth import synth_planted_khop
from pathsage.trainer import OptimizerState, TrainConfig, fit, train_epoch


def report(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"\n[acceptance {num:2d}] {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, detail


def random_undirected_graph(num_nodes, num_edges, seed, feat_dim=4):
    rng = np.random.Generator(np.random.PCG64(seed))
    edges = sorted({(int(min(u, v)), int(max(u, v)))
                    for u, v in rng.integers(0, num_nodes, size=(num_edges, 2))
                    if u != v})
    offsets, neighbors = build_csr(num_nodes, edges, directed=False)
    features = rng.normal(size=(num_nodes, feat_dim)).astype(np.float32)
    return Graph(num_nodes=num_nodes, offsets=offsets, neighbors=neighbors,
                 features=features, directed=False)


# -----------------------------------------------------------------------
# 1. every parameter gradient matches 64-bit central finite differences
# -----------------------------------------------------------------------

def test_gradient_integrity(capsys):
    t0 = time.time()
    graph = random_undirected_graph(6, 9, seed=1)
    mc = ModelConfig(feature_dim=4, num_classes=3, task="single_label",
                     hidden=8, heads=2, layers=1, depth_s=2)
    model = PathSageModel.init(mc, rng_for(5), dtype=np.float64)
    plan = SamplePlan((2, 2))
    batches = sample_paths(graph, [0, 3], plan, 0, "walk", 0)
    targets = np.array([1, 2])

    def loss_value():
        logits = model.forward_batch(graph, batches)
        return head_loss(logits, targets, "single_label").item()

    model.zero_grad()
    logits = model.forward_batch(graph, batches)
    ag.backward(head_loss(logits, targets, "single_label"))

    h = 1e-3
    worst = 0.0
    checked = 0
    for name, p in model.named_params():
        grad = p.grad
        assert grad is not None, name
        flat = p.data.reshape(-1)
        gflat = grad.reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + h
            lp = loss_value()
            flat[idx] = orig - h
            lm = loss_value()
            flat[idx] = orig
            fd = (lp - lm) / (2 * h)
            denom = max(abs(fd), abs(gflat[idx]), 1e-6)
            worst = max(worst, abs(fd - gflat[idx]) / denom)
            checked += 1
    elapsed = time.time() - t0
    ok = worst < 1e-3 and elapsed < 60
    report(capsys, 1, ok,
           f"gradient check over {checked} parameter entries: max rel err "
           f"{worst:.2e} (< 1e-3), {elapsed:.1f}s (< 60s)")


# -----------------------------------------------------------------------
# 2. sampler validity and first-step uniformity at 10^5-path scale
# -----------------------------------------------------------------------

def test_sampler_validity_and_uniformity(capsys):
    t0 = time.time()
    graph = random_undirected_graph(1000, 3000, seed=2)
    edge_set = {(u, int(v)) for u in range(1000)
                for v in graph.neighbors[graph.offsets[u]:graph.offsets[u + 1]]}
    plan = SamplePlan((25, 25, 25, 25))
    total = bad_steps = 0
    bad_shapes = 0
    centrals = np.arange(1000)
    batch = sample_paths(graph, centrals, plan, 9, "walk", 0)
    for l, walks in enumerate(batch, start=1):
        if walks.shape != (1000, 25, l + 1) or (walks[:, :, 0] != centrals[:, None]).any():
            bad_shapes += 1
        total += walks.shape[0] * walks.shape[1]
        steps = np.stack([walks[..., :-1].ravel(), walks[..., 1:].ravel()], axis=1)
        for a, b in steps:
            if (int(a), int(b)) not in edge_set:
                bad_steps += 1

    degrees = np.diff(graph.offsets)
    node4 = int(np.flatnonzero(degrees == 4)[0])
    draws = 20000
    walks = sample_paths(graph, [node4], SamplePlan((draws,)), 77, "walk", 0)[0][0]
    counts = np.bincount(walks[:, 1], minlength=1000)
    nbrs = graph.neighbors[graph.offsets[node4]:graph.offsets[node4 + 1]]
    p = 1 / 4
    sigma = math.sqrt(draws * p * (1 - p))
    max_dev = max(abs(counts[int(v)] - draws * p) for v in nbrs)
    off_nbr = counts.sum() - sum(counts[int(v)] for v in nbrs)

    elapsed = time.time() - t0
    ok = (total == 100000 and bad_steps == 0 and bad_shapes == 0
          and off_nbr == 0 and max_dev <= 3 * sigma and elapsed < 30)
    report(capsys, 2, ok,
           f"{total} paths all adjacency-valid ({bad_steps} bad steps), exact "
           f"bucket shapes; degree-4 first-step max dev {max_dev:.0f} <= "
           f"3σ={3 * sigma:.0f}; {elapsed:.1f}s (< 30s)")


# -----------------------------------------------------------------------
# 3. sinusoidal position table matches scalar evaluation
# -----------------------------------------------------------------------

def test_position_table_correctness(capsys):
    d, max_len = 16, 9
    table = build_position_table(max_len, d)
    worst = 0.0
    for p in range(max_len):
        for i in range(d // 2):
            angle = p / 10000 ** (2 * i / d)
            worst = max(worst, abs(table[p, 2 * i] - math.sin(angle)),
                        abs(table[p, 2 * i + 1] - math.cos(angle)))
    row0_exact = (table[0] == np.tile([0.0, 1.0], d // 2)).all()
    ok = worst < 1e-6 and row0_exact
    report(capsys, 3, ok,
           f"position entries match scalar sin/cos formula: max abs err "
           f"{worst:.1e} (< 1e-6); row 0 exactly alternating 0/1: {row0_exact}")


# -----------------------------------------------------------------------
# 4. every attention row sums to 1 across a 100-node forward
# -----------------------------------------------------------------------

def test_attention_rows_normalized(capsys):
    graph = random_undirected_graph(300, 900, seed=4)
    mc = ModelConfig(feature_dim=4, num_classes=3, task="single_label",
                     hidden=16, heads=4, layers=2, depth_s=3)
    model = PathSageModel.init(mc, rng_for(3))
    plan = SamplePlan((3, 3, 3))
    nodes = rng_for(1).choice(300, size=100, replace=False)
    batches = sample_paths(graph, nodes, plan, 4, "walk", 0)
    worst = 0.0
    rows = 0
    for l, walks in enumerate(batches, start=1):
        feats = Tensor(graph.features[walks.reshape(-1, l + 1)])
        for w in attention_maps(model.encoder, model.pos_table, feats):
            sums = w.sum(axis=-1)
            worst = max(worst, float(np.abs(sums - 1.0).max()))
            rows += sums.size
    ok = worst < 1e-5
    report(capsys, 4, ok,
           f"{rows} attention rows over 100 nodes sum to 1: max |sum-1| "
           f"{worst:.1e} (< 1e-5)")


# -----------------------------------------------------------------------
# 5. within-bucket path shuffles leave logits bit-identical
# -----------------------------------------------------------------------

def test_pooling_order_invariance(capsys):
    graph = random_undirected_graph(100, 300, seed=5)
    mc = ModelConfig(feature_dim=4, num_classes=3, task="single_label",
                     hidden=16, heads=2, layers=2, depth_s=3)
    model = PathSageModel.init(mc, rng_for(6))
    plan = SamplePlan((5, 5, 5))
    rng = np.random.Generator(np.random.PCG64(0))
    identical = True
    for central in (0, 17, 42):
        batch = sample_paths(graph, [central], plan, 2, "walk", 0)
        base = model.forward_batch(graph, batch)
        for _ in range(5):
            shuffled = tuple(w[:, rng.permutation(w.shape[1])] for w in batch)
            again = model.forward_batch(graph, shuffled)
            identical &= base.data.tobytes() == again.data.tobytes()
    report(capsys, 5, identical,
           "logits bit-identical under 15 within-bucket path shuffles "
           f"(3 nodes x 5 shuffles): {identical}")


# -----------------------------------------------------------------------
# 6 + 10 share one trained model on the planted 1-hop dataset
# -----------------------------------------------------------------------

@pytest.fixture(scope="module")
def overfit_run(tmp_path_factory):
    d = synth_planted_khop(tmp_path_factory.mktemp("ds") / "k1", num_nodes=200,
                           avg_degree=3.0, k=1, num_classes=3, seed=8)
    graph, labels, splits = load_dataset(d)
    cfg = TrainConfig(epochs=200, seed=0, depth_s=2, counts_per_length=(8, 8),
                      hidden=32, heads=4, layers=2, batch_size=32)
    mc = ModelConfig(feature_dim=graph.feature_dim, num_classes=3,
                     task=labels.task, hidden=32, heads=4, layers=2, depth_s=2)
    model = PathSageModel.init(mc, rng_for(derive_sample_seed(0, 0, 0xC0DE)))
    state = OptimizerState()
    total = math.ceil(len(splits.train) / cfg.batch_size) * cfg.epochs
    t0 = time.time()
    best_f1, epochs_used = 0.0, 0
    for epoch in range(cfg.epochs):
        _, f1, _ = train_epoch(model, graph, labels, splits.train, cfg, epoch,
                               state, total)
        best_f1 = max(best_f1, f1)
        epochs_used = epoch + 1
        if f1 >= 0.95:
            break
    elapsed = time.time() - t0
    return graph, labels, splits, model, cfg, best_f1, epochs_used, elapsed


def test_overfit_planted_one_hop(capsys, overfit_run):
    *_, best_f1, epochs_used, elapsed = overfit_run
    ok = best_f1 >= 0.95 and epochs_used <= 200 and elapsed < 300
    report(capsys, 6, ok,
           f"planted 1-hop overfit: train micro-F1 {best_f1:.3f} (>= 0.95) in "
           f"{epochs_used} epochs, {elapsed:.1f}s (< 300s)")


# -----------------------------------------------------------------------
# 7. longer paths beat short ones on a planted 3-hop dataset
# -----------------------------------------------------------------------

@pytest.mark.slow
def test_depth_sensitivity(capsys, tmp_path):
    t0 = time.time()
    d = synth_planted_khop(tmp_path / "k3", num_nodes=1000, avg_degree=1.0,
                           k=3, num_classes=4, seed=11, topology="ring")
    graph, labels, splits = load_dataset(d)

    def run(depth, counts, seed):
        cfg = TrainConfig(epochs=30, seed=seed, depth_s=depth,
                          counts_per_length=counts, hidden=32, heads=4,
                          layers=2, batch_size=32)
        mc = ModelConfig(feature_dim=graph.feature_dim, num_classes=4,
                         task=labels.task, hidden=32, heads=4, layers=2,
                         depth_s=depth)
        model = PathSageModel.init(mc, rng_for(seed))
        fit(model, graph, labels, splits, cfg)
        f1, _ = eval_split(model, graph, labels, splits.test, counts, seed)
        return f1

    shallow, deep = [], []
    for seed in (0, 1, 2):
        shallow.append(run(1, (4,), seed))
        deep.append(run(4, (2, 2, 4, 4), seed))
    gap = float(np.mean(deep) - np.mean(shallow))
    elapsed = time.time() - t0
    ok = gap >= 0.15 and elapsed < 1200
    report(capsys, 7, ok,
           f"planted 3-hop over 3 seeds: depth-4 test micro-F1 "
           f"{np.mean(deep):.3f} vs depth-1 {np.mean(shallow):.3f}, gap "
           f"{gap:.3f} (>= 0.15); {elapsed:.0f}s (< 1200s)")


# -----------------------------------------------------------------------
# 8. micro-F1 agrees exactly with a brute-force confusion tally
# -----------------------------------------------------------------------

def test_micro_f1_oracle(capsys):
    rng = np.random.Generator(np.random.PCG64(14))

    def tally(preds, targets, classes, multi):
        tp = fp = fn = 0
        for c in range(classes):
            if multi:
                p, t = preds[:, c] > 0, targets[:, c] > 0
            else:
                p, t = preds == c, targets == c
            tp += int((p & t).sum())
            fp += int((p & ~t).sum())
            fn += int((~p & t).sum())
        denom = 2 * tp + fp + fn
        return 2 * tp / denom if denom else 0.0

    sp = rng.integers(0, 6, size=1000)
    stt = rng.integers(0, 6, size=1000)
    exact_single = micro_f1(sp, stt, "single_label") == tally(sp, stt, 6, False)
    mp = (rng.random((1000, 5)) < 0.4).astype(np.uint8)
    mt = (rng.random((1000, 5)) < 0.4).astype(np.uint8)
    exact_multi = micro_f1(mp, mt, "multi_label") == tally(mp, mt, 5, True)
    ok = exact_single and exact_multi
    report(capsys, 8, ok,
           f"1000-pair brute-force agreement: single_label exact "
           f"{exact_single}, multi_label exact {exact_multi}")


# -----------------------------------------------------------------------
# 9. fixed-seed determinism and checkpoint replay
# -----------------------------------------------------------------------

def test_determinism_and_replay(capsys, tmp_path):
    from pathsage.trainer import load_model_checkpoint, save_model_checkpoint

    d = synth_planted_khop(tmp_path / "det", num_nodes=60, avg_degree=3.0,
                           k=1, num_classes=3, seed=21)
    graph, labels, splits = load_dataset(d)
    cfg = TrainConfig(epochs=4, seed=0, depth_s=2, counts_per_length=(3, 3),
                      hidden=16, heads=2, layers=1, batch_size=16)

    def fresh():
        mc = ModelConfig(feature_dim=graph.feature_dim, num_classes=3,
                         task=labels.task, hidden=16, heads=2, layers=1,
                         depth_s=2)
        return PathSageModel.init(mc, rng_for(1))

    r1 = fit(fresh(), graph, labels, splits, cfg)
    r2 = fit(fresh(), graph, labels, splits, cfg)
    curves_match = ([h["loss"] for h in r1.history]
                    == [h["loss"] for h in r2.history])

    model = fresh()
    state = OptimizerState()
    total = math.ceil(len(splits.train) / cfg.batch_size) * cfg.epochs
    for epoch in range(2):
        train_epoch(model, graph, labels, splits.train, cfg, epoch, state, total)
    ckpt = tmp_path / "resume.psck"
    save_model_checkpoint(ckpt, model, state, cfg, next_epoch=2)
    model2, state2, cfg2, extras = load_model_checkpoint(ckpt)
    rest = fit(model2, graph, labels, splits, cfg2, state=state2,
               start_epoch=extras["next_epoch"])
    replay_match = ([h["loss"] for h in rest.history]
                    == [h["loss"] for h in r1.history][2:])

    ok = curves_match and replay_match
    report(capsys, 9, ok,
           f"two seeded runs identical loss curves: {curves_match}; "
           f"resume-from-checkpoint replays the tail exactly: {replay_match}")


# -----------------------------------------------------------------------
# 10. attention dump + stats pipeline on the trained model
# -----------------------------------------------------------------------

def test_attention_analysis_pipeline(capsys, overfit_run, tmp_path):
    graph, labels, splits, model, cfg, *_ = overfit_run
    node = int(splits.test[0])
    out = tmp_path / "attn.jsonl"
    count = dump_attention(model, graph, labels, node, cfg.counts_per_length,
                           seed=0, out_path=out)
    expected = sum(cfg.counts_per_length) * cfg.layers * cfg.heads

    schema_ok = True
    for line in out.read_text().splitlines():
        rec = json.loads(line)
        if set(rec) != {"central", "path", "layer", "head", "weights", "labels"}:
            schema_ok = False
        w = np.asarray(rec["weights"])
        t = len(rec["path"])
        if w.shape != (t, t) or np.abs(w.sum(axis=1) - 1).max() > 1e-5:
            schema_ok = False

    stats = attention_stats(out)
    stats_ok = (stats["records"] == count
                and stats["same_label_mean"] is not None
                and 0.0 <= stats["same_label_mean"] <= 1.0)
    ok = count == expected and schema_ok and stats_ok
    report(capsys, 10, ok,
           f"attention dump: {count} records (= Σ n_l·m·heads = {expected}), "
           f"schema valid: {schema_ok}; stats same-label mean "
           f"{stats['same_label_mean']:.3f}")
