import dataclasses
import json
import logging
import math
import os
import re
import shutil
import struct
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

import pathsage
from pathsage import cli, encoder, trainer
from pathsage.checkpoint import load_checkpoint, save_checkpoint
from pathsage.cli import COMMAND_FLAGS, SETTINGS, build_parser, main, resolve_config
from pathsage.graph import load_dataset, read_features_bin, write_features_bin
from pathsage.sampler import derive_sample_seed, rng_for, stream_rng


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("data") / "ds"
    code = main(["synth", "--nodes", "60", "--k", "1", "--classes", "3",
                 "--out", str(out), "--seed", "3"])
    assert code == 0
    return out


TRAIN_FLAGS = ["--counts", "2,2", "--hidden", "8",
               "--heads", "2", "--layers", "1", "--epochs", "2",
               "--batch-size", "16", "--seed", "1"]


# --- config resolution --------------------------------------------------

def test_flag_beats_config_beats_default(tmp_path):
    cfg_file = tmp_path / "c.json"
    cfg_file.write_text(json.dumps({"hidden": 64, "lr": 5e-4}))
    parser = build_parser()
    args = parser.parse_args(["train", "--config", str(cfg_file),
                              "--hidden", "16"])
    cfg = resolve_config(args)
    assert cfg["hidden"] == 16        # flag wins
    assert cfg["lr"] == 5e-4          # config file beats default
    assert cfg["heads"] == 8          # untouched default


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg_file = tmp_path / "c.json"
    # the depth is len(counts) and every epoch is logged: neither is a setting
    for key in ("hiden", "depth", "log_interval"):
        cfg_file.write_text(json.dumps({key: 2}))
        code = main(["train", "--config", str(cfg_file), "--dataset", "whatever"])
        assert code == 2 and "unknown config keys" in capsys.readouterr().err


@pytest.mark.parametrize("raw,needle", [
    ({"epochs": "2"}, "'epochs' must be an integer"),
    ({"lr": "0.1"}, "'lr' must be a number"),
    ({"counts": 5}, "'counts' must be a list of integers"),
    ({"counts": "2,x"}, "'counts' must be a list of integers"),
    ({"dataset": 3}, "'dataset' must be a string"),
    ({"hidden": None}, "'hidden' must be an integer"),
    ({"dropout_encoder": "0.1"}, "'dropout_encoder' must be a number"),
    ([1, 2], "does not hold a JSON object"),
])
def test_bad_config_value_exits_2(dataset, tmp_path, capsys, raw, needle):
    cfg_file = tmp_path / "c.json"
    cfg_file.write_text(json.dumps(raw))
    code = main(["train", "--config", str(cfg_file), "--dataset", str(dataset),
                 "--checkpoint", str(tmp_path / "m.psck")])
    err = capsys.readouterr().err
    assert code == 2 and needle in err, err
    assert "Traceback" not in err


def test_every_train_field_is_a_setting_with_its_default():
    # the depth is not a setting: it is the number of counts
    train = {"counts" if f.name == "counts_per_length" else f.name: f.default
             for f in dataclasses.fields(trainer.TrainConfig) if f.name != "depth_s"}
    assert {key: SETTINGS[key][1] for key in train if key in SETTINGS} == train
    assert set(cli.JSON_CHECKS) == {kind for kind, _ in SETTINGS.values()}


def test_dropout_rates_train_from_config(dataset, tmp_path):
    cfg_file = tmp_path / "c.json"
    cfg_file.write_text(json.dumps({"dropout_encoder": 0.2, "dropout_output": 0.4}))
    ckpt = tmp_path / "m.psck"
    assert main(["train", "--config", str(cfg_file), "--dataset", str(dataset),
                 "--checkpoint", str(ckpt), *TRAIN_FLAGS]) == 0
    model, _, tc, _ = trainer.load_model_checkpoint(ckpt)
    assert (tc.dropout_encoder, tc.dropout_output) == (0.2, 0.4)
    assert (model.config.dropout_encoder, model.config.dropout_output) == (0.2, 0.4)


def test_config_counts_string_is_parsed_like_the_flag(tmp_path):
    cfg_file = tmp_path / "c.json"
    cfg_file.write_text(json.dumps({"counts": "3,4", "dataset": None}))
    args = build_parser().parse_args(["train", "--config", str(cfg_file)])
    cfg = resolve_config(args)
    assert cfg["counts"] == [3, 4] and cfg["dataset"] is None


def test_counts_string_parsing():
    parser = build_parser()
    args = parser.parse_args(["train", "--counts", "1,2,3"])
    assert resolve_config(args)["counts"] == [1, 2, 3]


# --- exit codes ---------------------------------------------------------

def test_usage_error_exits_1(capsys):
    assert main(["no-such-command"]) == 1
    assert main(["synth"]) == 1  # missing required --nodes
    assert main(["train", "--depth", "2"]) == 1  # the depth is len(counts)
    # the checkpoint goes only to --checkpoint, every epoch is logged, and
    # reports go only to stdout
    for argv in (["train", "--out", "x"], ["train", "--log-interval", "2"],
                 ["eval", "--out", "x.json"], ["attn-stats", "--dump", "d", "--out", "x"]):
        assert main(argv) == 1, argv


def test_missing_dataset_exits_2(capsys):
    code, _ = run(capsys, "sample", "--dataset", "/nonexistent", "--node", "0")
    assert code == 2


def test_negative_node_exits_2(dataset, capsys):
    assert main(["sample", "--dataset", str(dataset), "--node", "-1"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["pathsage: data error: node -1 not in [0, 60)"]


def test_node_past_the_last_exits_2(dataset, capsys):
    assert main(["sample", "--dataset", str(dataset), "--node", "60"]) == 2  # 60 nodes
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["pathsage: data error: node 60 not in [0, 60)"]


def test_missing_required_setting_exits_2(dataset, tmp_path, capsys, monkeypatch):
    code, _ = run(capsys, "sample", "--dataset", str(dataset))  # no --node
    assert code == 2
    monkeypatch.chdir(tmp_path)  # train once fell back to ./checkpoint.psck
    code = main(["train", "--dataset", str(dataset), *TRAIN_FLAGS])
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 2 and err == ["pathsage: data error: missing required setting --checkpoint"]
    assert list(tmp_path.iterdir()) == []


def test_invalid_setting_exits_2_without_traceback(dataset, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(pathsage.__file__).parents[1]))
    ckpt = tmp_path / "m.psck"
    train = ["train", "--dataset", str(dataset), "--checkpoint", str(ckpt)]
    nested = tmp_path / "out" / "sub"
    for argv in ([*train, "--counts", ""],  # depth 0
                 # rejected before the checkpoint's directory is made
                 ["train", "--dataset", str(dataset), "--checkpoint", str(nested / "m.psck"),
                  "--counts", "0,1"],
                 ["synth", "--nodes", "5", "--k", "1", "--out", str(tmp_path / "s")],
                 [*train, "--seed", "-1"],
                 ["sample", "--dataset", str(dataset), "--node", "0",
                  "--seed", str(2 ** 64)],
                 [*train, "--hidden", "0"],
                 [*train, "--heads", "0"],
                 [*train, "--lr", "nan"],
                 [*train, "--lr", "-0.1"],
                 [*train, "--epochs", "0"],
                 # more edges than a complete graph has: a hang if unchecked
                 ["synth", "--nodes", "10", "--k", "1", "--avg-degree", "100",
                  "--out", str(tmp_path / "s")],
                 ["synth", "--nodes", "30", "--k", "1", "--avg-degree", "nan",
                  "--out", str(tmp_path / "s")],
                 ["synth", "--nodes", "30", "--k", "1", "--classes", "0",
                  "--out", str(tmp_path / "s")]):
        proc = subprocess.run([sys.executable, "-m", "pathsage.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2, (argv, proc.stderr)
        assert "Traceback" not in proc.stderr
        assert "pathsage: error:" in proc.stderr
    assert not ckpt.exists() and not nested.parent.exists()


def test_degenerate_synth_at_the_last_seed_exits_2_with_one_line(tmp_path):
    # every retry reseeds past 2**64 - 1; stderr must hold only the error line
    env = dict(os.environ, PYTHONPATH=str(Path(pathsage.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "pathsage.cli", "synth", "--nodes", "10",
                           "--k", "10", "--topology", "ring", "--seed", str(2 ** 64 - 1),
                           "--out", str(tmp_path / "x")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("pathsage: data error: no graph with"), lines


@pytest.fixture(scope="module")
def checkpoint(dataset, tmp_path_factory):
    ckpt = tmp_path_factory.mktemp("ckpt") / "model.psck"
    assert main(["train", "--dataset", str(dataset), "--checkpoint", str(ckpt),
                 *TRAIN_FLAGS]) == 0
    return ckpt


def _bad_input(case, dataset, checkpoint, tmp_path):
    """-> argv feeding one bad input to a subcommand, and a fragment of its
    one-line error."""
    if case == "split":  # not a split, though an attribute of the split masks
        return ["eval", "--dataset", str(dataset), "--checkpoint", str(checkpoint),
                "--split", "__doc__"], "unknown split '__doc__'"
    if case == "checkpoint directory":  # one line, so no epoch was trained
        (tmp_path / "ckpt_dir").mkdir()
        return ["train", "--dataset", str(dataset), "--checkpoint", str(tmp_path / "ckpt_dir"),
                *TRAIN_FLAGS], "ckpt_dir is a directory"
    if case == "dump directory":
        (tmp_path / "dump_dir").mkdir()
        return ["attn-dump", "--dataset", str(dataset), "--checkpoint", str(checkpoint),
                "--node", "0", "--out", str(tmp_path / "dump_dir")], "dump_dir is a directory"
    if case in ("synth out file", "ingest out file", "checkpoint under a file",
                "dump under a file"):  # mkdir would raise FileExistsError
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        return {"synth out file": ["synth", "--nodes", "10", "--k", "1", "--out", str(blocker)],
                "ingest out file": ["ingest", "--input", str(dataset), "--out", str(blocker)],
                "checkpoint under a file": ["train", "--dataset", str(dataset), "--checkpoint",
                                            str(blocker / "m.psck"), *TRAIN_FLAGS],
                "dump under a file": ["attn-dump", "--dataset", str(dataset), "--checkpoint",
                                      str(checkpoint), "--node", "0", "--out",
                                      str(blocker / "x")]}[case], "blocker is not a directory"
    if case == "missing dump":
        return ["attn-stats", "--dump", str(tmp_path / "missing.jsonl")], "missing.jsonl"
    if case == "non-JSON dump line":
        dump = tmp_path / "attn.jsonl"
        record = {"layer": 0, "head": 0, "weights": [[1.0]], "labels": [0]}
        dump.write_text(json.dumps(record) + "\n{oops\n")
        return ["attn-stats", "--dump", str(dump)], "attn.jsonl:2:"
    if case == "ragged dump record":
        dump = tmp_path / "attn.jsonl"
        dump.write_text(json.dumps({"layer": 0, "head": 0, "weights": [[1.0]], "labels": [0, 0]}))
        return ["attn-stats", "--dump", str(dump)], "attn.jsonl:1: weights of shape (1, 1)"
    if case == "non-integer dump fields":
        dump = tmp_path / "attn.jsonl"
        dump.write_text(json.dumps({"layer": 0.9, "head": "1", "weights": [[1.0, 0.0], [0.0, 1.0]],
                                    "labels": [0.7, 1.2]}))
        return ["attn-stats", "--dump", str(dump)], "attn.jsonl:1: layer, head and labels"
    if case == "huge dump label":
        dump = tmp_path / "attn.jsonl"
        dump.write_text(json.dumps({"layer": 0, "head": 0, "weights": [[1.0]], "labels": [2 ** 64]}))
        return ["attn-stats", "--dump", str(dump)], "attn.jsonl:1: a label exceeds 64 bits"
    if case == "no classes":  # a multi_label dataset whose meta.json has num_classes -1
        bad = tmp_path / "no_classes"
        bad.mkdir()
        for name in ("edges.csv", "features.bin", "labels.csv", "splits.json"):
            (bad / name).write_bytes((dataset / name).read_bytes())
        meta = json.loads((dataset / "meta.json").read_text())
        (bad / "meta.json").write_text(json.dumps(dict(meta, num_classes=-1, task="multi_label")))
        return ["train", "--dataset", str(bad), "--checkpoint", str(tmp_path / "m.psck"),
                *TRAIN_FLAGS], "meta.json:0: num_classes must be >= 1, got -1"
    if case == "huge features header":  # rows * cols does not fit a C size
        bad = tmp_path / "huge_header"
        shutil.copytree(dataset, bad)
        with open(bad / "features.bin", "r+b") as fh:
            fh.seek(8)
            fh.write(struct.pack("<QQ", 2 ** 63, 2))
        return ["sample", "--dataset", str(bad), "--node", "0", "--counts", "2"], \
            "features.bin:0: truncated feature payload"
    if case == "NaN feature in features.bin":  # a data error, not a non-finite loss
        bad = tmp_path / "nan_feature"
        shutil.copytree(dataset, bad)
        feats = read_features_bin(bad / "features.bin")
        feats[5, 2] = np.nan
        write_features_bin(bad / "features.bin", feats)
        return ["train", "--dataset", str(bad), "--checkpoint", str(tmp_path / "m.psck"),
                *TRAIN_FLAGS], "features.bin:0: node 5 has a non-finite feature nan in column 2"
    raw = tmp_path / "raw"
    raw.mkdir()
    for name in ("meta.json", "edges.csv", "labels.csv", "splits.json"):
        (raw / name).write_bytes((dataset / name).read_bytes())
    argv = ["ingest", "--input", str(raw), "--out", str(tmp_path / "out")]
    if case == "non-numeric feature":
        (raw / "features.csv").write_text("0.5,1\n0.5,abc\n")
        return argv, "features.csv:2: non-numeric field 'abc'"
    if case == "feature after a blank line":  # the error names the file's own line
        (raw / "features.csv").write_text("0.5,1\n\n0.5,1\n0.5,2\n0.5,abc\n")
        return argv, "features.csv:5: non-numeric field 'abc'"
    if case == "feature header line":  # `#` starts no comment
        (raw / "features.csv").write_text("# header\n0.5,1\n")
        return argv, "features.csv:1: non-numeric field '# header'"
    if case in ("empty features", "blank features"):  # numpy warns of no data
        (raw / "features.csv").write_text("" if case == "empty features" else "\n\n")
        return argv, "features rows 0 != num_nodes 60"
    if case == "ragged features":
        (raw / "features.csv").write_text("0.5,1\n0.5,1,2\n")
        return argv, "features.csv:2: 3 fields, the first row has 2"
    if case == "non-finite features":
        (raw / "features.csv").write_text("1,2\n\n3,inf\nnan,3\n")
        return argv, "features.csv:3: non-finite field 'inf'"
    if case == "non-finite feature among bad ones":  # the line-by-line scan stops first
        (raw / "features.csv").write_text("1,2\n-inf,3\n0.5,abc\n")
        return argv, "features.csv:2: non-finite field '-inf'"
    feats = read_features_bin(dataset / "features.bin")
    np.savetxt(raw / "features.csv", feats, delimiter=",", fmt="%.8g")
    (raw / "edges.csv").write_text("0,1\n1,60\n")  # out-of-range edge: 60 nodes
    return argv, "edge (1,60) outside [0,60)"


@pytest.mark.parametrize("case", ["split", "checkpoint directory", "dump directory",
                                  "synth out file", "ingest out file",
                                  "checkpoint under a file", "dump under a file",
                                  "missing dump", "non-JSON dump line",
                                  "ragged dump record", "non-integer dump fields", "huge dump label",
                                  "no classes", "huge features header", "non-numeric feature",
                                  "feature after a blank line", "feature header line",
                                  "ragged features", "empty features", "blank features",
                                  "non-finite features", "non-finite feature among bad ones",
                                  "NaN feature in features.bin", "out-of-range edge"])
def test_bad_input_exits_2_with_one_line(dataset, checkpoint, tmp_path, capsys, case):
    argv, needle = _bad_input(case, dataset, checkpoint, tmp_path)
    capsys.readouterr()
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("pathsage: data error:"), lines
    assert needle in lines[0]
    # ingest leaves neither --out nor its temporary build directory behind
    assert not [p for p in tmp_path.iterdir() if "out" in p.name]


def test_non_finite_gradient_exits_3(dataset, tmp_path, capsys, monkeypatch):
    real_clip = trainer._clip_grads

    def poisoned_clip(grads):
        next(iter(grads.values()))[...] = np.nan
        return real_clip(grads)

    monkeypatch.setattr(trainer, "_clip_grads", poisoned_clip)
    code = main(["train", "--dataset", str(dataset),
                 "--checkpoint", str(tmp_path / "m.psck"), *TRAIN_FLAGS])
    assert code == 3
    assert "non-finite gradient norm nan at epoch 0 step 0" in capsys.readouterr().err


def test_diverged_run_exits_3_with_one_line_and_keeps_the_checkpoint(dataset, tmp_path, capsys):
    ckpt = tmp_path / "m.psck"
    train = ["train", "--dataset", str(dataset), "--checkpoint", str(ckpt)]
    assert main([*train, *TRAIN_FLAGS]) == 0
    before = ckpt.read_bytes()
    # one step per epoch; the first step's lr of 1e308 overflows the float32 parameters
    env = dict(os.environ, PYTHONPATH=str(Path(pathsage.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "pathsage.cli", *train, "--counts", "2",
                           "--hidden", "8", "--heads", "2", "--layers", "1", "--epochs", "3",
                           "--batch-size", "1000", "--lr", "1e308"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 3, proc.stderr
    lines = proc.stderr.strip().splitlines()
    not_json = []
    for line in lines:
        try:
            json.loads(line)
        except ValueError:
            not_json.append(line)
    assert len(not_json) == 1, lines
    assert re.fullmatch(r"pathsage: numerical failure: non-finite parameter \S+ after epoch 0 "
                        r"step 0 \(lr=1\.000e\+308\)", not_json[0]), not_json
    assert ckpt.read_bytes() == before


@pytest.mark.parametrize("command", ["eval", "attn-dump"])
def test_non_finite_checkpoint_exits_2(dataset, checkpoint, tmp_path, capsys, command):
    meta, blocks = load_checkpoint(checkpoint)
    blocks["param:encoder.layer0.wv"][0, 1] = np.nan
    bad = tmp_path / "bad.psck"
    save_checkpoint(bad, meta, blocks)
    dump = tmp_path / "a.jsonl"
    argv = {"eval": ["eval"], "attn-dump": ["attn-dump", "--node", "0", "--out", str(dump)]}
    capsys.readouterr()
    code = main([*argv[command], "--dataset", str(dataset), "--checkpoint", str(bad)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.strip().splitlines() == [
        "pathsage: data error: checkpoint parameter encoder.layer0.wv is not finite"]
    assert not dump.exists()


def test_train_init_stream_is_not_a_walk_stream(dataset, tmp_path, monkeypatch):
    class Stop(Exception):
        pass

    seen = []

    def record_init(config, rng, **kwargs):
        seen.append(rng.bit_generator.state)
        raise Stop

    monkeypatch.setattr(cli.PathSageModel, "init", record_init)
    with pytest.raises(Stop):
        main(["train", "--dataset", str(dataset), "--checkpoint",
              str(tmp_path / "m.psck"), *TRAIN_FLAGS])
    walk = rng_for(derive_sample_seed(1, 0, 0xC0DE)).bit_generator.state
    assert seen == [stream_rng(1, "init").bit_generator.state]
    assert seen[0] != walk


def test_eval_runs_below_one_exits_2(dataset, tmp_path, capsys):
    ckpt = tmp_path / "model.psck"
    assert main(["train", "--dataset", str(dataset), "--checkpoint", str(ckpt),
                 *TRAIN_FLAGS]) == 0
    capsys.readouterr()
    code = main(["eval", "--dataset", str(dataset), "--checkpoint", str(ckpt), "--runs", "0"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "runs 0 < 1" in captured.err


def test_bad_checkpoint_exits_2(dataset, capsys):
    code, _ = run(capsys, "eval", "--dataset", str(dataset),
                  "--checkpoint", "/nonexistent.psck")
    assert code == 2


def test_flag_of_another_subcommand_exits_1(dataset, tmp_path, capsys):
    ckpt = tmp_path / "model.psck"
    assert run(capsys, "train", "--dataset", str(dataset), "--checkpoint", str(ckpt),
               *TRAIN_FLAGS)[0] == 0
    # eval takes its counts from the checkpoint; a --counts flag would be ignored
    code = main(["eval", "--dataset", str(dataset), "--checkpoint", str(ckpt),
                 "--counts", "9,9"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert "unrecognized arguments: --counts 9,9" in captured.err
    for argv in (["attn-stats", "--dump", "x.jsonl", "--epochs", "5"],
                 ["synth", "--nodes", "30", "--k", "1", "--out", str(tmp_path / "s"),
                  "--dataset", str(dataset)],
                 ["ingest", "--input", "raw", "--out", "x", "--seed", "1"]):
        assert main(argv) == 1, argv


def test_subcommand_flags_follow_the_table():
    parser = build_parser()
    sub = next(a for a in parser._actions if a.dest == "command")
    slots = 0
    for name, p in sub.choices.items():
        flags = {a.dest for a in p._actions if a.dest in SETTINGS or a.dest == "config"}
        assert flags == {"config", *COMMAND_FLAGS[name]}, name
        slots += len(flags)
    assert slots == 35


def test_readme_flag_table_matches_the_parser():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    table = readme.split("| subcommand | flags |\n|---|---|\n", 1)[1].split("\n\n", 1)[0]
    rows = {}
    for line in table.splitlines():
        name, flags = line.strip("|").split("|")
        rows[name.strip(" `")] = set(re.findall(r"`(--[a-z-]+)`", flags))
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    assert rows == {name: {o for a in p._actions for o in a.option_strings} - {"-h", "--help"}
                    for name, p in sub.choices.items()}


def test_incomplete_checkpoint_exits_2(dataset, tmp_path, capsys):
    ckpt = tmp_path / "model.psck"
    assert main(["train", "--dataset", str(dataset), "--checkpoint", str(ckpt),
                 *TRAIN_FLAGS]) == 0
    meta, blocks = load_checkpoint(ckpt)
    del blocks["param:head.w2"]
    save_checkpoint(ckpt, meta, blocks)
    capsys.readouterr()
    assert main(["eval", "--dataset", str(dataset), "--checkpoint", str(ckpt)]) == 2
    err = capsys.readouterr().err
    assert "param:head.w2" in err and "Traceback" not in err


def test_checkpoint_with_leftover_bytes_exits_2(checkpoint, dataset, tmp_path, capsys):
    # the checksum holds, but a block follows the last one the count names
    body = checkpoint.read_bytes()[:-4] + b"\x01\x00w\x00" + b"\x00" * 4
    ckpt = tmp_path / "model.psck"
    ckpt.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
    capsys.readouterr()
    assert main(["eval", "--dataset", str(dataset), "--checkpoint", str(ckpt)]) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("pathsage: data error:"), lines
    assert "8 bytes after the last block" in lines[0]


def _variant(dataset, out, field, value):
    """A copy of `dataset` whose meta.json `field` is `value`; a wider
    feature_dim gets zero-padded features of that width."""
    shutil.copytree(dataset, out)
    meta = json.loads((out / "meta.json").read_text())
    if field == "feature_dim":
        feats = read_features_bin(dataset / "features.bin")
        write_features_bin(out / "features.bin", np.pad(feats, ((0, 0), (0, value - feats.shape[1]))))
    (out / "meta.json").write_text(json.dumps(dict(meta, **{field: value})))
    return out


@pytest.mark.parametrize("command", ["eval", "attn-dump"])
@pytest.mark.parametrize("field, value, needle", [
    ("num_classes", 4, "checkpoint num_classes 3 != dataset num_classes 4"),
    ("task", "multi_label", "checkpoint task 'single_label' != dataset task 'multi_label'"),
    ("feature_dim", 20, "checkpoint feature_dim"),
])
def test_dataset_the_checkpoint_was_not_built_for_exits_2(dataset, checkpoint, tmp_path, capsys,
                                                          monkeypatch, command, field, value,
                                                          needle):
    other = _variant(dataset, tmp_path / "other", field, value)
    load_dataset(other)  # a valid dataset, just not the model's

    def no_forward(*args):
        raise AssertionError("forward pass before the dataset check")

    monkeypatch.setattr(encoder, "_embed", no_forward)
    dump = tmp_path / "a.jsonl"
    argv = {"eval": ["eval"], "attn-dump": ["attn-dump", "--node", "0", "--out", str(dump)]}
    capsys.readouterr()
    code = main([*argv[command], "--dataset", str(other), "--checkpoint", str(checkpoint)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("pathsage: data error:"), lines
    assert needle in lines[0]
    assert not dump.exists()


# --- subcommands --------------------------------------------------------

def test_synth_topology_flag(tmp_path, capsys):
    out = tmp_path / "ring"
    code, _ = run(capsys, "synth", "--nodes", "30", "--k", "3",
                  "--classes", "3", "--out", str(out), "--topology", "ring")
    assert code == 0
    g, _, _ = load_dataset(out)
    assert g.directed and (np.diff(g.offsets) == 1).all()


def test_sample_emits_plan_shaped_jsonl(dataset, capsys):
    code, out = run(capsys, "sample", "--dataset", str(dataset), "--node", "5",
                    "--counts", "3,4", "--seed", "2")
    assert code == 0
    lines = [json.loads(l) for l in out.strip().splitlines()]
    assert len(lines) == 7
    assert [l["length"] for l in lines] == [1] * 3 + [2] * 4
    for rec in lines:
        assert len(rec["path"]) == rec["length"] + 1
        assert rec["path"][0] == 5


def test_ingest_roundtrip(dataset, tmp_path, capsys):
    raw = tmp_path / "raw"
    raw.mkdir()
    for name in ("meta.json", "edges.csv", "labels.csv", "splits.json"):
        (raw / name).write_bytes((dataset / name).read_bytes())
    feats = read_features_bin(dataset / "features.bin")
    np.savetxt(raw / "features.csv", feats, delimiter=",", fmt="%.8g")
    out = tmp_path / "ingested"
    code, _ = run(capsys, "ingest", "--input", str(raw), "--out", str(out))
    assert code == 0
    g1, l1, _ = load_dataset(dataset)
    g2, l2, _ = load_dataset(out)
    assert (g1.neighbors == g2.neighbors).all()
    assert (l1.labels == l2.labels).all()
    np.testing.assert_allclose(g1.features, g2.features, rtol=1e-5)


def test_train_eval_dump_stats_pipeline(dataset, tmp_path, capsys):
    ckpt = tmp_path / "model.psck"
    code, out = run(capsys, "train", "--dataset", str(dataset),
                    "--checkpoint", str(ckpt), *TRAIN_FLAGS)
    assert code == 0
    summary = json.loads(out.strip().splitlines()[-1])
    assert summary["event"] == "train_done" and ckpt.is_file()
    model, _, tc, _ = trainer.load_model_checkpoint(ckpt)
    assert model.config.depth_s == tc.depth_s == 2  # len of --counts 2,2

    code, out = run(capsys, "eval", "--dataset", str(dataset),
                    "--checkpoint", str(ckpt), "--split", "test", "--runs", "3")
    assert code == 0
    report = json.loads(out.strip())
    assert report["split"] == "test"
    assert report["runs"] == 3 and 0 <= report["micro_f1_mean"] <= 1

    dump = tmp_path / "attn.jsonl"
    code, _ = run(capsys, "attn-dump", "--dataset", str(dataset),
                  "--checkpoint", str(ckpt), "--node", "3",
                  "--out", str(dump))
    assert code == 0
    assert len(dump.read_text().splitlines()) == (2 + 2) * 1 * 2  # sum(n_l)*m*heads

    code, out = run(capsys, "attn-stats", "--dump", str(dump))
    assert code == 0
    stats = json.loads(out.strip())
    assert stats["records"] == 8


def test_train_logs_epoch_seconds_and_throughput(dataset, tmp_path, capsys):
    assert main(["train", "--dataset", str(dataset), "--checkpoint",
                 str(tmp_path / "m.psck"), *TRAIN_FLAGS]) == 0
    records = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    epochs = [r for r in records if r["event"] == "epoch"]
    assert [r["epoch"] for r in epochs] == [0, 1]
    for r in epochs:
        assert r["seconds"] > 0 and r["nodes_per_s"] > 0
        assert r["eval_seconds"] > 0 and r["checkpoint_seconds"] > 0
        assert r["peak_rss_mb"] > 0


def test_train_logs_epoch_lr_and_grad_norm(dataset, tmp_path, capsys):
    assert main(["train", "--dataset", str(dataset), "--checkpoint",
                 str(tmp_path / "m.psck"), *TRAIN_FLAGS]) == 0
    records = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    epochs = [r for r in records if r["event"] == "epoch"]
    assert len(epochs) == 2
    assert 0.0 < epochs[0]["lr"] <= 1e-3 and epochs[1]["lr"] == 0.0  # decays to 0
    assert all(0.0 < r["grad_norm"] < float("inf") for r in epochs)


@pytest.mark.parametrize("level, lines_per_step", [("debug", 1), ("info", 0)])
def test_debug_log_adds_one_step_line_per_step(dataset, tmp_path, capsys, monkeypatch, level,
                                               lines_per_step):
    monkeypatch.setenv("PATHSAGE_LOG", level)
    try:
        assert main(["train", "--dataset", str(dataset), "--checkpoint",
                     str(tmp_path / "m.psck"), *TRAIN_FLAGS]) == 0
    finally:
        logging.getLogger("pathsage").setLevel(logging.INFO)
    records = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    steps_per_epoch = math.ceil(len(load_dataset(dataset)[2].train) / 16)
    steps = [r for r in records if r["event"] == "step"]
    assert len(steps) == lines_per_step * 2 * steps_per_epoch
    assert [r["step"] for r in steps] == list(range(1, len(steps) + 1))
    assert [r["epoch"] for r in steps] == sorted([0, 1] * (len(steps) // 2))
    for r in steps:
        assert set(r) == {"event", "epoch", "step", "loss", "grad_norm", "lr"}
        assert r["loss"] > 0 and 0 < r["grad_norm"] < float("inf") and 0 <= r["lr"] <= 1e-3
    assert [r["event"] for r in records if r["event"] != "step"] == [
        "epoch", "epoch", "train_done"]


@pytest.mark.parametrize("argv, config, needle", [
    (["--layers", "0"], None, "layers must be >= 1, got 0"),
    ([], {"dropout_encoder": 1.5}, "dropout_encoder 1.5 outside [0, 1)"),
])
def test_model_setting_without_a_readout_exits_2(dataset, tmp_path, capsys, argv, config,
                                                  needle):
    ckpt = tmp_path / "m.psck"
    if config is not None:
        (tmp_path / "c.json").write_text(json.dumps(config))
        argv = [*argv, "--config", str(tmp_path / "c.json")]
    capsys.readouterr()
    code = main(["train", "--dataset", str(dataset), "--checkpoint", str(ckpt),
                 *TRAIN_FLAGS, *argv])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.strip().splitlines() == [f"pathsage: error: {needle}"]
    assert not ckpt.exists()


def test_train_and_attn_dump_create_output_directories(dataset, tmp_path, capsys):
    ckpt = tmp_path / "new" / "m.psck"
    dump = tmp_path / "other" / "a.jsonl"
    assert main(["train", "--dataset", str(dataset), "--checkpoint", str(ckpt),
                 *TRAIN_FLAGS]) == 0
    assert main(["attn-dump", "--dataset", str(dataset), "--checkpoint", str(ckpt),
                 "--node", "3", "--out", str(dump)]) == 0
    assert ckpt.is_file() and dump.is_file()


def test_train_twice_identical_checkpoint_bytes(dataset, tmp_path, capsys):
    c1, c2 = tmp_path / "a.psck", tmp_path / "b.psck"
    for ck in (c1, c2):
        code, _ = run(capsys, "train", "--dataset", str(dataset),
                      "--checkpoint", str(ck), *TRAIN_FLAGS)
        assert code == 0
    assert c1.read_bytes() == c2.read_bytes()
