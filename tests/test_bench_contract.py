"""The benchmark in perfbench/ rebinds package functions by name; a name it
needs must not disappear from the module that binds it."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import bench  # noqa: E402
import tracer  # noqa: E402
from helpers import recorded_ops  # noqa: E402

from pathsage import autograd, graph, head, metrics, trainer  # noqa: E402
from pathsage.model import ModelConfig, PathSageModel  # noqa: E402
from pathsage.sampler import rng_for  # noqa: E402
from pathsage.synth import synth_planted_khop  # noqa: E402
from pathsage.trainer import OptimizerState, TrainConfig  # noqa: E402


def test_tracer_installs_and_restores_every_binding():
    before = {(owner, attr): owner.__dict__[attr]
              for bindings in tracer._TARGETS.values() for owner, attr in bindings}
    t = tracer.Tracer()
    t.install()
    t.uninstall()
    for (owner, attr), fn in before.items():
        assert owner.__dict__[attr] is fn, attr


def test_recorder_targets_exist():
    for owner, attr in ((trainer, "adam_step"), (head, "loss"), (metrics, "predict")):
        assert callable(owner.__dict__.get(attr)), attr
    rec = bench.Recorder()
    rec.install()
    rec.uninstall()


def test_traced_train_epoch_and_eval_split(tmp_path):
    # the tracer's hooks read arguments by position; a signature they no
    # longer match fails here rather than in a benchmark run
    g, labels, splits = graph.load_dataset(synth_planted_khop(
        tmp_path / "ds", num_nodes=30, avg_degree=3.0, k=1, num_classes=3, seed=1))
    cfg = TrainConfig(epochs=1, seed=1, depth_s=2, counts_per_length=(2, 2), hidden=8,
                      heads=2, layers=2, batch_size=8)
    model = PathSageModel.init(ModelConfig(
        feature_dim=g.feature_dim, num_classes=labels.num_classes, task=labels.task,
        hidden=8, heads=2, layers=2, depth_s=2), rng_for(1))
    rec, t = bench.Recorder(), tracer.Tracer()
    rec.install()
    t.install()
    try:
        t.phase = "train"
        trainer.train_epoch(model, g, labels, splits.train, cfg, 0, OptimizerState(),
                            total_steps=3)
        t.phase = "eval"
        metrics.eval_split(model, g, labels, splits.test, cfg.counts_per_length, cfg.seed,
                           batch_size=8, run=0)
    finally:
        t.uninstall()
        rec.uninstall()
    spans, layers, hygiene = t.analyse()
    # the readout layer is traced like the others, forward and backward
    assert sorted(layers) == [0, 1]
    for k in (0, 1):
        fwd, bwd = layers[k]
        assert fwd > 0 and bwd > 0, k
    for name in ("sampler.sample_paths", "encoder.encode_paths", "encoder.layer",
                 "autograd.dropout.fwd", "head.head_forward"):
        assert spans.get(name, (0,))[0] > 0, name
    assert t.counts["sampler.walk_steps"] > 0 and t.counts["encoder.tokens"] > 0
    # evaluation records no autograd graph; training does
    assert t.counts["autograd.recorded_nodes.train"] > 0
    assert t.counts["autograd.recorded_nodes.eval"] == 0
    assert (hygiene["child_outside_parent"], hygiene["negative_self_time"],
            hygiene["open_spans"]) == (0, 0, 0)
    assert len(rec.losses) == 3 and rec.preds


# Recorded ops the tracer neither times nor counts: their vjp time lands in
# `autograd.backward.self_s`, not in an op or an encoder layer. A new fused op
# is listed here until the benchmark traces it.
UNTRACED = {"_attention", "_readout_attention", "_feed_forward"}


def test_every_recorded_op_is_traced_or_listed(tmp_path, monkeypatch):
    g, labels, splits = graph.load_dataset(synth_planted_khop(
        tmp_path / "ds", num_nodes=30, avg_degree=3.0, k=1, num_classes=3, seed=1))
    cfg = TrainConfig(epochs=1, seed=1, depth_s=2, counts_per_length=(2, 2), hidden=8,
                      heads=2, layers=2, batch_size=8)
    model = PathSageModel.init(cfg.model_config(g.feature_dim, labels.num_classes,
                                                labels.task), rng_for(1))
    seen = []
    real_backward = autograd.backward

    def backward(loss):
        seen.extend(recorded_ops(loss))
        real_backward(loss)

    monkeypatch.setattr(autograd, "backward", backward)
    trainer.train_epoch(model, g, labels, splits.train[:8], cfg, 0, OptimizerState(),
                        total_steps=1)
    assert seen and {op for op in seen if op not in tracer.AUTOGRAD_OPS} == UNTRACED


def test_benchmark_selftest_passes_on_a_copy_of_the_tree(tmp_path):
    # the benchmark's own contract check, on a copy so that its work
    # directory (.perfbench_work/) lands under tmp_path
    root = Path(__file__).resolve().parents[1]
    skip = shutil.ignore_patterns("__pycache__", ".perfbench_work")
    for name in ("src", "perfbench"):
        shutil.copytree(root / name, tmp_path / name, ignore=skip)
    shutil.copy(root / "BENCHMARK.json", tmp_path)
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0 and "selftest: ok" in proc.stdout, proc.stdout + proc.stderr
