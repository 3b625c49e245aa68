import json
import math
import os
import re
import stat
import struct
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

from pathsage import autograd as ag
from pathsage import checkpoint
from pathsage import trainer as trainer_mod
from pathsage.checkpoint import load_checkpoint, save_checkpoint
from pathsage.errors import (ChecksumMismatch, IncompleteCheckpoint, InvalidSetting,
                             NonFiniteGradient, NumericalError, VersionMismatch)
from pathsage.graph import load_dataset
from pathsage.metrics import eval_split
from pathsage.model import PathSageModel
from pathsage.sampler import rng_for
from pathsage.synth import synth_planted_khop
from pathsage.trainer import (
    PATIENCE,
    PHASES,
    OptimizerState,
    TrainConfig,
    adam_step,
    fit,
    load_model_checkpoint,
    lr_at,
    save_model_checkpoint,
    train_epoch,
)


def tiny_cfg(**overrides):
    base = dict(epochs=2, seed=0, depth_s=2, counts_per_length=(2, 2),
                hidden=8, heads=2, layers=1, batch_size=8)
    base.update(overrides)
    return TrainConfig(**base)


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    d = synth_planted_khop(tmp_path_factory.mktemp("ds") / "tiny", num_nodes=30,
                           avg_degree=3.0, k=1, num_classes=3, seed=4)
    return load_dataset(d)


def make_model(graph, labels, cfg):
    mc = cfg.model_config(graph.feature_dim, labels.num_classes, labels.task)
    return PathSageModel.init(mc, rng_for(7))


# --- config -------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        tiny_cfg(warmup_ratio=1.5)
    with pytest.raises(ValueError):
        tiny_cfg(batch_size=0)
    with pytest.raises(ValueError):
        tiny_cfg(counts_per_length=(2,))  # one count for depth 2


def test_defaults_shape():
    cfg = TrainConfig(epochs=1)
    assert cfg.depth_s == 8
    assert cfg.counts_per_length == (5, 5, 5, 5, 5, 10, 10, 10)
    assert cfg.hidden == 128 and cfg.heads == 8 and cfg.layers == 2
    assert cfg.batch_size == 32 and cfg.lr == 1e-3 and cfg.warmup_ratio == 0.1
    assert cfg.dropout_encoder == 0.1 and cfg.dropout_output == 0.3


# --- learning-rate schedule ---------------------------------------------

def test_lr_step_zero_is_zero():
    assert lr_at(0, 1000, tiny_cfg()) == 0.0


def test_lr_peak_at_warmup_end_exact():
    cfg = tiny_cfg()
    assert lr_at(100, 1000, cfg) == cfg.lr == 1e-3


def test_lr_midpoint_of_decay():
    assert lr_at(550, 1000, tiny_cfg()) == pytest.approx(5e-4, abs=1e-12)


def test_lr_ends_at_zero():
    assert lr_at(1000, 1000, tiny_cfg()) == 0.0


def test_lr_piecewise_linear_and_continuous():
    cfg = tiny_cfg()
    vals = np.array([lr_at(s, 200, cfg) for s in range(201)])
    assert vals.max() == cfg.lr
    assert (vals >= 0).all()
    d2 = np.diff(vals, 2)
    # one kink (at the warmup boundary), otherwise linear
    assert np.count_nonzero(np.abs(d2) > 1e-12) == 1


def test_lr_odd_warmup_boundary_rounds_up():
    # ratio 0.1 of 15 steps -> warmup ends at step ceil(1.5) = 2
    cfg = tiny_cfg()
    assert lr_at(2, 15, cfg) == cfg.lr
    assert lr_at(1, 15, cfg) == pytest.approx(cfg.lr / 2)


@pytest.mark.parametrize("step,total", [(11, 10), (2, 1), (1, 0), (-1, 10)])
def test_lr_rejects_a_step_outside_the_schedule(step, total):
    # past the end the line would go negative (gradient ascent) or divide by zero
    with pytest.raises(InvalidSetting, match=f"step {step} outside"):
        lr_at(step, total, TrainConfig())


def test_epoch_that_would_run_past_total_steps_raises_before_its_first_step(tiny_dataset):
    graph, labels, splits = tiny_dataset
    cfg = tiny_cfg()
    steps = math.ceil(len(splits.train) / cfg.batch_size)
    assert steps >= 2
    model = make_model(graph, labels, cfg)
    before = {n: p.data.copy() for n, p in model.named_params()}
    state = OptimizerState(step=1)
    with pytest.raises(InvalidSetting, match=f"steps 2 to {steps + 1}, past total_steps {steps}"):
        train_epoch(model, graph, labels, splits.train, cfg, 0, state, total_steps=steps)
    assert state.step == 1
    assert all((p.data == before[n]).all() and p.grad is None for n, p in model.named_params())
    # an epoch that ends exactly at total_steps runs, and its last lr is 0
    train_epoch(model, graph, labels, splits.train, cfg, 0, state, total_steps=steps + 1)
    assert state.step == steps + 1


# --- adam ---------------------------------------------------------------

class _P:
    def __init__(self, data):
        self.data = np.asarray(data, dtype=np.float64)
        self.dtype = self.data.dtype


def test_adam_zero_grad_is_noop():
    p = _P([1.0, -2.0])
    state = OptimizerState()
    adam_step([("p", p)], {"p": np.zeros(2)}, state, lr=0.1)
    np.testing.assert_array_equal(p.data, [1.0, -2.0])
    assert state.step == 1


def test_adam_first_step_magnitude_is_lr():
    p = _P([0.0])
    adam_step([("p", p)], {"p": np.ones(1)}, OptimizerState(), lr=0.05)
    # bias correction makes mhat/sqrt(vhat) = 1 on step one (up to eps)
    assert abs(p.data[0] + 0.05) < 1e-6


def test_adam_trajectory_matches_reference():
    # independent 64-bit scalar implementation of bias-corrected Adam
    rng = np.random.Generator(np.random.PCG64(3))
    grads = rng.normal(size=100)
    lr, b1, b2, eps = 1e-2, 0.9, 0.999, 1e-8
    x_ref, m, v = 0.7, 0.0, 0.0
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        x_ref -= lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)

    p = _P([0.7])
    state = OptimizerState()
    for g in grads:
        adam_step([("p", p)], {"p": np.array([g])}, state, lr)
    assert abs(p.data[0] - x_ref) < 1e-6


def test_adam_shape_mismatch():
    from pathsage.errors import ShapeMismatch
    with pytest.raises(ShapeMismatch):
        adam_step([("p", _P([1.0]))], {"p": np.zeros(3)}, OptimizerState(), 0.1)


# --- train_epoch --------------------------------------------------------

def test_zero_lr_epoch_leaves_params_bit_identical(tiny_dataset):
    graph, labels, splits = tiny_dataset
    cfg = tiny_cfg(lr=0.0)
    model = make_model(graph, labels, cfg)
    before = {n: p.data.copy() for n, p in model.named_params()}
    train_epoch(model, graph, labels, splits.train, cfg, epoch=0,
                state=OptimizerState(), total_steps=100)
    for name, p in model.named_params():
        assert (p.data == before[name]).all(), name


def test_epoch_returns_finite_loss_and_f1(tiny_dataset):
    graph, labels, splits = tiny_dataset
    cfg = tiny_cfg()
    model = make_model(graph, labels, cfg)
    loss, f1, norm = train_epoch(model, graph, labels, splits.train, cfg, epoch=0,
                                 state=OptimizerState(), total_steps=100)
    assert np.isfinite(loss)
    assert 0.0 <= f1 <= 1.0
    assert 0.0 < norm < np.inf


def test_epoch_grad_norm_is_the_largest_pre_clip_norm(tiny_dataset, monkeypatch):
    graph, labels, splits = tiny_dataset
    cfg = tiny_cfg()
    model = make_model(graph, labels, cfg)
    norms = []
    real_clip = trainer_mod._clip_grads

    def reporting_clip(grads):  # the largest norm of step 2 is neither first nor last
        norms.append(real_clip(grads))
        return 9.0 if len(norms) == 2 else 1.0

    monkeypatch.setattr(trainer_mod, "_clip_grads", reporting_clip)
    _, _, norm = train_epoch(model, graph, labels, splits.train, cfg, 0, OptimizerState(), 100)
    assert len(norms) == -(-len(splits.train) // cfg.batch_size) > 2
    assert norm == 9.0


def test_fit_records_last_lr_and_grad_norm(tiny_dataset, tmp_path):
    graph, labels, splits = tiny_dataset
    cfg = tiny_cfg(epochs=3)
    path = tmp_path / "m.psck"
    logged = []

    def log_fn(rec):  # called once the epoch's checkpoint is on disk
        logged.append((rec, load_model_checkpoint(path)[3]["next_epoch"]))

    result = fit(make_model(graph, labels, cfg), graph, labels, splits, cfg,
                 checkpoint_path=path, eval_fn=lambda m, epoch: (epoch / 10, 1.0), log_fn=log_fn)
    steps = -(-len(splits.train) // cfg.batch_size)
    for rec in result.history:
        last_step = (rec["epoch"] + 1) * steps
        assert rec["lr"] == lr_at(last_step, steps * cfg.epochs, cfg)
        assert 0.0 < rec["grad_norm"] < np.inf
        assert rec["eval_seconds"] > 0.0 and rec["checkpoint_seconds"] > 0.0
        assert rec["peak_rss_mb"] > 0.0
        phases = [rec[f"{name}_seconds"] for name in PHASES]
        assert min(phases) > 0.0 and sum(phases) <= rec["seconds"]
    assert result.history[-1]["lr"] == 0.0  # the schedule ends at zero
    assert [(rec["epoch"], next_epoch) for rec, next_epoch in logged] == [(0, 1), (1, 2), (2, 3)]
    assert [rec for rec, _ in logged] == result.history


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_gradient_stops_training(tiny_dataset, monkeypatch, bad):
    graph, labels, splits = tiny_dataset
    cfg = tiny_cfg()
    model = make_model(graph, labels, cfg)
    before = {n: p.data.copy() for n, p in model.named_params()}
    real_backward = ag.backward

    def poisoned_backward(loss):
        real_backward(loss)
        model.head.b2.grad[0] = bad

    monkeypatch.setattr(ag, "backward", poisoned_backward)
    state = OptimizerState()
    with pytest.raises(NonFiniteGradient, match="epoch 0 step 0"):
        train_epoch(model, graph, labels, splits.train, cfg, 0, state, 100)
    assert state.step == 0
    for name, p in model.named_params():
        assert (p.data == before[name]).all(), name


def test_diverged_step_stops_before_the_next(tiny_dataset):
    graph, labels, splits = tiny_dataset
    cfg = tiny_cfg(lr=1e308)  # over 10 steps the warmup is 1 step, so step 0 takes lr 1e308
    model = make_model(graph, labels, cfg)
    state = OptimizerState()
    needle = r"non-finite parameter \S+ after epoch 0 step 0 \(lr=1\.000e\+308\)"
    with np.errstate(all="ignore"), pytest.raises(NumericalError, match=needle):
        train_epoch(model, graph, labels, splits.train, cfg, 0, state, 10)
    assert state.step == 1


@pytest.mark.parametrize("seed", [-1, 2 ** 64])
def test_seed_outside_64_bits_rejected(tiny_dataset, seed):
    graph, labels, splits = tiny_dataset
    cfg = tiny_cfg(seed=seed)
    model = make_model(graph, labels, cfg)
    with pytest.raises(InvalidSetting, match="seed"):
        train_epoch(model, graph, labels, splits.train, cfg, 0, OptimizerState(), 10)
    with pytest.raises(InvalidSetting, match="seed"):
        eval_split(model, graph, labels, splits.train, cfg.counts_per_length, seed)


# One training step and one eval batch at the paper's model shape (hidden 128,
# 8 heads, depth 8, 32 nodes), large enough that OpenBLAS splits its sgemms
# across threads. Prints the sha256 of the loss, parameter and logit bytes.
THREAD_PROBE = """
import hashlib, sys
import numpy as np
from pathsage import autograd as ag
from pathsage.graph import load_dataset
from pathsage.model import PathSageModel
from pathsage.sampler import SamplePlan, rng_for, sample_paths
from pathsage.trainer import OptimizerState, TrainConfig, train_epoch
graph, labels, splits = load_dataset(sys.argv[1])
cfg = TrainConfig(epochs=1, seed=3, batch_size=32)
mc = cfg.model_config(graph.feature_dim, labels.num_classes, labels.task)
model = PathSageModel.init(mc, rng_for(7))
nodes = splits.train[:32]
loss, _, _ = train_epoch(model, graph, labels, nodes, cfg, 0, OptimizerState(), 1)
walks = sample_paths(graph, nodes, SamplePlan(cfg.counts_per_length), cfg.seed, "eval", 0)
with ag.no_record():
    logits = model.forward_batch(graph, walks)
digest = hashlib.sha256(np.float64(loss).tobytes())
for _, p in model.named_params():
    digest.update(p.data.tobytes())
digest.update(logits.data.tobytes())
print(digest.hexdigest())
"""


def test_a_paper_shape_step_does_not_depend_on_the_blas_thread_count(tmp_path):
    d = synth_planted_khop(tmp_path / "ring", num_nodes=100, avg_degree=1.0, k=3,
                           num_classes=4, seed=11, topology="ring")
    src = str(Path(trainer_mod.__file__).parents[1])
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", THREAD_PROBE, str(d)], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout.strip())
    assert digests[0] == digests[1]


# --- fit + checkpointing ------------------------------------------------

def test_fit_deterministic_loss_curve(tiny_dataset):
    graph, labels, splits = tiny_dataset
    cfg = tiny_cfg(epochs=3)
    r1 = fit(make_model(graph, labels, cfg), graph, labels, splits, cfg)
    r2 = fit(make_model(graph, labels, cfg), graph, labels, splits, cfg)
    assert [h["loss"] for h in r1.history] == [h["loss"] for h in r2.history]
    assert r1.epochs_run == 3


def test_checkpoint_roundtrip_bit_exact(tiny_dataset, tmp_path):
    graph, labels, splits = tiny_dataset
    cfg = tiny_cfg(epochs=2)
    model = make_model(graph, labels, cfg)
    state = OptimizerState()
    train_epoch(model, graph, labels, splits.train, cfg, 0, state, 100)
    path = tmp_path / "a.psck"
    save_model_checkpoint(path, model, state, cfg, next_epoch=1, best_val=0.5)
    loaded, state2, cfg2, extras = load_model_checkpoint(path)
    for (n, p1), (_, p2) in zip(model.named_params(), loaded.named_params()):
        assert (p1.data == p2.data).all(), n
    assert state2.step == state.step
    for name in state.m:
        assert (state2.m[name] == state.m[name].astype(np.float32)).all()
    assert cfg2 == cfg
    assert extras == {"next_epoch": 1, "best_val": 0.5, "bad_epochs": 0}
    # every restored parameter and moment is its own writable array
    arrays = ([p.data for _, p in loaded.named_params()]
              + list(state2.m.values()) + list(state2.v.values()))
    assert all(a.flags.writeable and a.flags.c_contiguous for a in arrays)
    assert not any(np.shares_memory(a, b) for i, a in enumerate(arrays) for b in arrays[:i])
    # save -> load -> save is byte-identical
    path2 = tmp_path / "b.psck"
    save_model_checkpoint(path2, loaded, state2, cfg2, next_epoch=1, best_val=0.5)
    assert path.read_bytes() == path2.read_bytes()


def test_truncated_checkpoint_rejected(tiny_dataset, tmp_path):
    graph, labels, splits = tiny_dataset
    cfg = tiny_cfg()
    model = make_model(graph, labels, cfg)
    path = tmp_path / "c.psck"
    save_model_checkpoint(path, model, OptimizerState(), cfg, next_epoch=0)
    data = path.read_bytes()
    path.write_bytes(data[:-20])
    with pytest.raises(ChecksumMismatch):
        load_model_checkpoint(path)
    path.write_bytes(b"NOPE" + data[4:])
    with pytest.raises(VersionMismatch):
        load_model_checkpoint(path)


def test_version_1_checkpoint_rejected(tmp_path):
    # version 1 recorded the Adam and clipping constants, version 2 held
    # encoder.layer{k}.bk, version 3 ended in a CRC64
    for old in (1, 2, 3):
        path = tmp_path / f"v{old}.psck"
        save_checkpoint(path, {"x": 1}, {"w": np.ones(4, np.float32)})
        data = bytearray(path.read_bytes())
        data[4:8] = old.to_bytes(4, "little")
        path.write_bytes(bytes(data))
        with pytest.raises(VersionMismatch, match=f"version {old}, expected 4"):
            load_model_checkpoint(path)


def _block(name, shape, payload=None):
    raw = name.encode()
    if payload is None:
        payload = np.arange(math.prod(shape), dtype="<f4").tobytes()
    return struct.pack(f"<H{len(raw)}sB{len(shape)}Q", len(raw), raw, len(shape), *shape) + payload


def _checksummed(n_blocks, *blocks, state=b'{"x": 1}'):
    """A version-4 file with a valid CRC-32 trailer, whatever its fields say."""
    body = (b"PSCK" + struct.pack("<IQ", 4, len(state)) + state + struct.pack("<Q", n_blocks)
            + b"".join(blocks))
    return body + struct.pack("<I", zlib.crc32(body))


def test_trailer_is_the_crc32_of_every_byte_before_it(tmp_path):
    path = tmp_path / "t.psck"
    blocks = {"a": np.arange(6, dtype=np.float32).reshape(2, 3), "w": np.arange(4, dtype=np.float32)}
    save_checkpoint(path, {"x": 1}, blocks)
    data = path.read_bytes()
    assert data[-4:] == struct.pack("<I", zlib.crc32(data[:-4]))
    assert data == _checksummed(2, _block("a", (2, 3)), _block("w", (4,)),
                                state=json.dumps({"x": 1}).encode())


def test_zero_and_three_dimensional_blocks_round_trip(tmp_path):
    path = tmp_path / "nd.psck"
    cube = np.arange(24, dtype=np.float32).reshape(2, 3, 4)
    blocks = {"scalar": np.float32(3), "cube": cube, "strided": cube[:, ::2, 1:].T}
    save_checkpoint(path, {"x": 1}, blocks)
    _, loaded = load_checkpoint(path)
    assert set(loaded) == set(blocks)
    for name, arr in blocks.items():
        assert loaded[name].shape == np.shape(arr), name
        assert loaded[name].dtype == np.float32 and (loaded[name] == arr).all(), name
    assert loaded["scalar"].ndim == 0


@pytest.mark.parametrize("data, needle", [
    (_checksummed(2, _block("w", (4,))), "block 1 of 2 runs past the end of the data"),
    (_checksummed(2 ** 64 - 1, _block("w", (4,))), "block 1 of 18446744073709551615 runs past"),
    (_checksummed(1, _block("w", (5,), np.ones(4, "<f4").tobytes())),
     "block 'w' of shape (5,) runs past the end of the data"),
    (_checksummed(1, _block("w", (2 ** 40, 2 ** 40), b"")), "block 'w' of shape"),
    (_checksummed(0, _block("w", (4,))), "28 bytes after the last block"),
    (_checksummed(1, _block("w", (4,)), b"\0"), "1 bytes after the last block"),
    (_checksummed(2, _block("w", (4,)), _block("w", (4,))), "block 'w' appears twice"),
    (_checksummed(1, _block("w", (0, 2 ** 63), b"")), "block 'w' has shape"),
    (_checksummed(1, _block("?", (1,)).replace(b"?", b"\xff")), "not UTF-8"),
    (_checksummed(0, state=b"[1]"), "the state is not a JSON object"),
    (_checksummed(0, state=b"\xff{}"), "the state is not a JSON object"),
    (b"PSCK" + struct.pack("<IQ", 4, 99) + b"{}" + struct.pack("<I", zlib.crc32(
        b"PSCK" + struct.pack("<IQ", 4, 99) + b"{}")), "the state runs past the end"),
], ids=["count past blocks", "huge count", "shape past file", "huge shape", "leftover block",
        "leftover byte", "duplicate name", "dimension past numpy", "name not UTF-8",
        "state not an object", "state not UTF-8", "state length past file"])
def test_checksummed_file_with_bad_structure_rejected(tmp_path, data, needle):
    path = tmp_path / "s.psck"
    path.write_bytes(data)
    with pytest.raises(IncompleteCheckpoint) as info:
        load_checkpoint(path)
    assert needle in str(info.value)


def test_save_fsyncs_the_directory_after_the_rename(tmp_path, monkeypatch):
    events = []
    real_fsync, real_replace = os.fsync, os.replace

    def record_fsync(fd):
        events.append("dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file")
        real_fsync(fd)

    def record_replace(src, dst):
        events.append("replace")
        real_replace(src, dst)

    monkeypatch.setattr(checkpoint.os, "fsync", record_fsync)
    monkeypatch.setattr(checkpoint.os, "replace", record_replace)
    save_checkpoint(tmp_path / "e.psck", {"x": 1}, {"w": np.ones(4, np.float32)})
    assert events == ["file", "replace", "dir"]


def test_corrupted_payload_fails_crc(tmp_path):
    path = tmp_path / "d.psck"
    save_checkpoint(path, {"x": 1}, {"a": np.ones(2, np.float32), "w": np.ones(4, np.float32)})
    good = path.read_bytes()
    # a header byte, a byte of the last float block, a byte of the trailer
    for pos in (30, len(good) - 6, len(good) - 2):
        data = bytearray(good)
        data[pos] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(ChecksumMismatch, match="checksum mismatch"):
            load_model_checkpoint(path)


def test_fit_stops_after_patience_epochs_without_improvement(tiny_dataset):
    graph, labels, splits = tiny_dataset
    cfg = tiny_cfg(epochs=PATIENCE + 4)
    result = fit(make_model(graph, labels, cfg), graph, labels, splits, cfg,
                 eval_fn=lambda m, epoch: (0.5, 1.0))
    # epoch 0 sets the best; epochs 1..PATIENCE do not improve on it
    assert result.epochs_run == PATIENCE + 1 and result.best_val == 0.5


def test_failed_save_keeps_previous_checkpoint(tiny_dataset, tmp_path, monkeypatch):
    graph, labels, splits = tiny_dataset
    cfg = tiny_cfg()
    model = make_model(graph, labels, cfg)
    state = OptimizerState()
    path = tmp_path / "m.psck"
    save_model_checkpoint(path, model, state, cfg, next_epoch=0)
    before = path.read_bytes()
    train_epoch(model, graph, labels, splits.train, cfg, 0, state, 10)

    def failing_fsync(fd):
        raise OSError("disk full")

    monkeypatch.setattr(checkpoint.os, "fsync", failing_fsync)
    with pytest.raises(OSError, match="disk full"):
        save_model_checkpoint(path, model, state, cfg, next_epoch=1)
    assert path.read_bytes() == before
    assert [f.name for f in tmp_path.iterdir()] == ["m.psck"]
    monkeypatch.undo()
    save_model_checkpoint(path, model, state, cfg, next_epoch=1)
    assert load_model_checkpoint(path)[3]["next_epoch"] == 1


def _resave_altered(src, dst, block=None, meta_key=None, model_key=None, put=None, train=None):
    """Rewrite a checkpoint with one part removed, added or replaced; the
    result carries a valid CRC."""
    meta, blocks = load_checkpoint(src)
    blocks.pop(block, None)
    meta.pop(meta_key, None)
    if model_key:
        meta["model"][model_key] = 1
    meta["train"].update(train or {})
    blocks.update(put or {})
    save_checkpoint(dst, meta, blocks)
    return dst


@pytest.mark.parametrize("part,needle", [
    ({"block": "param:encoder.w_in"}, "param:encoder.w_in"),
    ({"block": "adam.v:head.b2"}, "adam.v:head.b2"),
    ({"meta_key": "adam"}, "adam"),
    ({"meta_key": "next_epoch"}, "next_epoch"),
    ({"model_key": "width"}, "width"),
    ({"block": "adam.m:head.b2"}, "adam.m:head.b2"),
    ({"put": {"param:head.b2": np.zeros((7, 3))}}, "head.b2: (7, 3) vs (3,)"),
    ({"put": {"adam.m:head.b2": np.zeros((7, 3))}}, "'adam.m:head.b2': (7, 3) vs (3,)"),
    ({"put": {"adam.v:encoder.layer0.wq": np.zeros(8)}},
     "'adam.v:encoder.layer0.wq': (8,) vs (8, 8)"),
    ({"put": {"adam.m:head.b3": np.zeros(3), "adam.v:head.b3": np.zeros(3)}},
     "'adam.m:head.b3' names no parameter"),
    # the train block describes another model than the model block
    ({"train": {"hidden": 64}}, "model hidden 8 != train hidden 64"),
    ({"train": {"depth_s": 3, "counts_per_length": [2, 2, 2]}},
     "model depth_s 2 != train depth_s 3"),
    ({"train": {"dropout_output": 0.5}}, "model dropout_output 0.3 != train dropout_output 0.5"),
])
def test_incomplete_checkpoint_names_the_key(tiny_dataset, tmp_path, part, needle):
    graph, labels, splits = tiny_dataset
    cfg = tiny_cfg()
    model = make_model(graph, labels, cfg)
    state = OptimizerState()
    train_epoch(model, graph, labels, splits.train, cfg, 0, state, 10)
    full = tmp_path / "full.psck"
    save_model_checkpoint(full, model, state, cfg, next_epoch=1)
    bad = _resave_altered(full, tmp_path / "bad.psck", **part)
    with pytest.raises(IncompleteCheckpoint, match=re.escape(needle)):
        load_model_checkpoint(bad)


def test_save_refuses_a_model_its_run_does_not_describe(tiny_dataset, tmp_path):
    graph, labels, _ = tiny_dataset
    cfg = tiny_cfg()
    path = tmp_path / "m.psck"
    save_model_checkpoint(path, make_model(graph, labels, cfg), OptimizerState(), cfg,
                          next_epoch=0)
    before = path.read_bytes()
    wider = make_model(graph, labels, tiny_cfg(hidden=16))
    with pytest.raises(InvalidSetting, match="model hidden 16 != train hidden 8"):
        save_model_checkpoint(path, wider, OptimizerState(), cfg, next_epoch=1)
    assert path.read_bytes() == before
    assert [f.name for f in tmp_path.iterdir()] == ["m.psck"]


# A format-4 checkpoint written by the code as it stood before every model was
# made by `PathSageModel.build`: hidden 8, 2 heads, 1 layer, depth 2, 3 classes,
# after one epoch on a 30-node synth dataset, so it carries Adam moments.
V4_FILE = Path(__file__).parent / "data" / "tiny_v4.psck"


def test_earlier_format_4_file_round_trips_bit_identically(tmp_path):
    model, state, cfg, extras = load_model_checkpoint(V4_FILE)
    assert len(state.m) == len(state.v) == len(list(model.named_params())) == 21
    assert state.step > 0 and extras == {"next_epoch": 1, "best_val": 0.5, "bad_epochs": 1}
    save_model_checkpoint(tmp_path / "again.psck", model, state, cfg, **extras)
    assert (tmp_path / "again.psck").read_bytes() == V4_FILE.read_bytes()


def test_load_draws_no_random_numbers(monkeypatch):
    class NoDraw(np.random.Generator):
        def uniform(self, *args, **kwargs):
            raise AssertionError("uniform draw")

    monkeypatch.setattr(np.random, "Generator", NoDraw)
    model, _, _, _ = load_model_checkpoint(V4_FILE)
    with pytest.raises(AssertionError, match="uniform draw"):  # the patch does bite
        PathSageModel.init(model.config, rng_for(0))


@pytest.mark.parametrize("section, key, value, needle", [
    ("train", "counts_per_length", ["a", 2], "invalid literal for int()"),
    ("model", "layers", 0, "layers must be >= 1"),
])
def test_checkpoint_config_value_that_does_not_convert(tiny_dataset, tmp_path, section, key,
                                                       value, needle):
    graph, labels, _ = tiny_dataset
    cfg = tiny_cfg()
    full = tmp_path / "full.psck"
    save_model_checkpoint(full, make_model(graph, labels, cfg), OptimizerState(), cfg,
                          next_epoch=1)
    meta, blocks = load_checkpoint(full)
    meta[section][key] = value
    save_checkpoint(tmp_path / "bad.psck", meta, blocks)
    with pytest.raises(IncompleteCheckpoint, match=re.escape(needle)):
        load_model_checkpoint(tmp_path / "bad.psck")


def test_resume_matches_uninterrupted_run(tiny_dataset, tmp_path):
    import math

    graph, labels, splits = tiny_dataset
    cfg = tiny_cfg(epochs=4)

    straight = fit(make_model(graph, labels, cfg), graph, labels, splits, cfg)

    # run the first two epochs by hand under the full 4-epoch schedule,
    # checkpoint, reload from disk, and let fit finish the rest
    model = make_model(graph, labels, cfg)
    state = OptimizerState()
    total = math.ceil(len(splits.train) / cfg.batch_size) * cfg.epochs
    for epoch in range(2):
        train_epoch(model, graph, labels, splits.train, cfg, epoch, state, total)
    ckpt = tmp_path / "resume.psck"
    save_model_checkpoint(ckpt, model, state, cfg, next_epoch=2)
    model2, state2, cfg2, extras = load_model_checkpoint(ckpt)
    rest = fit(model2, graph, labels, splits, cfg2, state=state2,
               start_epoch=extras["next_epoch"])

    full = [h["loss"] for h in straight.history]
    assert [h["loss"] for h in rest.history] == full[2:]
    assert rest.history[0]["epoch"] == 2
