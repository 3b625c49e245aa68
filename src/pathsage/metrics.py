"""Micro-F1 evaluation and attention-weight extraction/reporting."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .autograd import Tensor, no_record
from .encoder import attention_maps
from .errors import EmptySplit, InvalidSetting, LengthMismatch, MalformedRecord, MissingFile
from .graph import SINGLE_LABEL, is_int
from .head import predict, sample_losses
from .sampler import SamplePlan, sample_paths


def micro_f1(predictions, targets, task):
    """F1 from class-pooled tp/fp/fn counts; 0 when the denominator is 0.

    single_label inputs are integer class ids (counted one-hot);
    multi_label inputs are binary indicator matrices.
    """
    p = np.asarray(predictions)
    t = np.asarray(targets)
    if p.shape != t.shape:
        raise LengthMismatch(f"predictions {p.shape} vs targets {t.shape}")
    if task == SINGLE_LABEL:
        tp = int((p == t).sum())
        fp = fn = int(p.size - tp)
    else:
        p = p.astype(bool)
        t = t.astype(bool)
        tp = int((p & t).sum())
        fp = int((p & ~t).sum())
        fn = int((~p & t).sum())
    denom = 2 * tp + fp + fn
    return 2 * tp / denom if denom else 0.0


def eval_split(model, graph, labels, nodes, counts_per_length, seed,
               batch_size=64, run=0):
    """Inference-mode evaluation over a node set -> (micro-F1, mean loss).

    Paths are drawn from the nodes' eval streams; a fixed (seed, run)
    pair is exactly reproducible. The forward passes record no autograd
    graph.
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    if nodes.size == 0:
        raise EmptySplit("evaluation split is empty")
    plan = SamplePlan(counts_per_length)
    preds, losses = [], []
    for b0 in range(0, len(nodes), batch_size):
        chunk = nodes[b0:b0 + batch_size]
        walks = sample_paths(graph, chunk, plan, seed, "eval", run)
        with no_record():
            logits = model.forward_batch(graph, walks)
        target = labels.labels[chunk]
        preds.append(predict(logits, labels.task))
        losses.append(sample_losses(logits, target, labels.task))
    preds = np.concatenate(preds)
    losses = np.concatenate(losses)
    return micro_f1(preds, labels.labels[nodes], labels.task), float(losses.mean())


def eval_runs(model, graph, labels, nodes, counts_per_length, seed, runs):
    """Repeat eval_split over `runs` evaluation seeds -> mean +/- sample std."""
    if runs < 1:
        raise InvalidSetting(f"runs {runs} < 1")
    f1s, losses = [], []
    for run in range(runs):
        f1, loss = eval_split(model, graph, labels, nodes, counts_per_length,
                              seed, run=run)
        f1s.append(f1)
        losses.append(loss)
    std = float(np.std(f1s, ddof=1)) if runs > 1 else 0.0
    return {
        "runs": runs,
        "micro_f1_mean": float(np.mean(f1s)),
        "micro_f1_std": std,
        "loss_mean": float(np.mean(losses)),
    }


# ---------------------------------------------------------------------------
# attention extraction
# ---------------------------------------------------------------------------

def _token_labels(labels, path):
    if labels.task == SINGLE_LABEL:
        return [int(labels.labels[v]) for v in path]
    # a multi-label token is tagged with its first label, or -1 without one
    return [int(np.argmax(row)) if row.any() else -1 for row in labels.labels[path]]


def dump_attention(model, graph, labels, node, counts_per_length, seed, out_path):
    """Write a JSON line per (path, layer, head) of `node`'s eval-stream
    paths with the full attention weight matrix; returns the line count."""
    walks = sample_paths(graph, [node], SamplePlan(counts_per_length), seed, "eval", 0)
    count = 0
    with open(out_path, "w") as fh:
        for bucket in walks:
            per_layer = attention_maps(model.encoder, model.pos_table,
                                       Tensor(graph.features[bucket[0]]))
            for j, path in enumerate(bucket[0].tolist()):
                toks = _token_labels(labels, path)
                for layer_idx, weights in enumerate(per_layer):
                    for h in range(weights.shape[1]):
                        record = {"central": int(node), "path": path, "layer": layer_idx,
                                  "head": h, "weights": weights[j, h].tolist(), "labels": toks}
                        fh.write(json.dumps(record) + "\n")
                        count += 1
    return count


def attention_stats(dump_path):
    """Aggregate a dump file: mean attention mass between same-label token
    pairs vs different-label pairs, overall and per (layer, head)."""
    # (layer, head) -> [same-label weight sum, pairs, diff-label sum, pairs]
    totals = {}
    records = 0
    if not Path(dump_path).is_file():
        raise MissingFile(f"attention dump not found: {dump_path}")
    with open(dump_path) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                key = (rec["layer"], rec["head"])
                weights = np.asarray(rec["weights"], dtype=np.float64)
                labs = rec["labels"]
            except (ValueError, KeyError, TypeError) as exc:
                raise MalformedRecord(dump_path, line_no,
                                      f"not an attention record: {exc}") from None
            if not (isinstance(labs, list) and all(map(is_int, (*key, *labs)))):
                raise MalformedRecord(dump_path, line_no, "layer, head and labels must be "
                                      f"integers, got layer {key[0]!r}, head {key[1]!r}")
            try:
                labs = np.asarray(labs, dtype=np.int64)
            except OverflowError:
                raise MalformedRecord(dump_path, line_no, "a label exceeds 64 bits") from None
            if weights.shape != (len(labs), len(labs)):
                raise MalformedRecord(dump_path, line_no, f"weights of shape {weights.shape} "
                                      f"for {len(labs)} token labels")
            records += 1
            pairs = np.outer(labs >= 0, labs >= 0)  # both tokens labelled
            np.fill_diagonal(pairs, False)
            same = pairs & (labs[:, None] == labs)
            diff = pairs & ~same
            acc = totals.setdefault(key, np.zeros(4))
            acc += (weights[same].sum(), same.sum(), weights[diff].sum(), diff.sum())

    def mean(total, count):
        return float(total / count) if count else None

    overall = sum(totals.values(), np.zeros(4))
    return {
        "records": records,
        "same_label_mean": mean(*overall[:2]),
        "diff_label_mean": mean(*overall[2:]),
        "per_head": [{"layer": key[0], "head": key[1],
                      "same_label_mean": mean(*t[:2]), "diff_label_mean": mean(*t[2:])}
                     for key, t in sorted(totals.items()) if t[1] + t[3]],
    }
