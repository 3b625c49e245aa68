"""Command-line entry point.

Subcommands: ingest, synth, sample, train, eval, attn-dump, attn-stats.
Each subcommand takes only the flags of the settings it reads, plus
--config; a config file may hold any setting. Settings resolve once, as
flag > config file > default, before the subcommand runs. Logs are
line-oriented JSON on stderr; reports go to stdout, and files only to the
--out or --checkpoint path a subcommand requires.
Exit codes: 0 success, 1 usage error, 2 data error or invalid setting,
3 numerical failure, 141 stdout closed early (a shell's SIGPIPE status).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np

from .errors import DataError, InvalidSetting, NumericalError, PathSageError
from .graph import SPLIT_NAMES, is_int, load_dataset, read_features_csv, write_features_bin
from .metrics import attention_stats, dump_attention, eval_runs, eval_split
from .model import PathSageModel
from .sampler import SamplePlan, sample_paths, stream_rng
from .synth import synth_planted_khop
from .trainer import TrainConfig, fit, load_model_checkpoint

log = logging.getLogger("pathsage")


def _parse_counts(text):
    return [int(c) for c in str(text).split(",") if c != ""]


# Setting -> (type, default). The type is its flag's argparse type and, through
# JSON_CHECKS, the JSON value a config file may give it. The train settings are
# the TrainConfig fields named here (`counts` is counts_per_length), with that
# field's default; the depth is not a setting but the number of counts.
SETTINGS = {
    "dataset": (str, None), "out": (str, None), "checkpoint": (str, None),
    "seed": (int, TrainConfig.seed), "epochs": (int, TrainConfig.epochs),
    "counts": (_parse_counts, TrainConfig.counts_per_length),
    "hidden": (int, TrainConfig.hidden), "heads": (int, TrainConfig.heads),
    "layers": (int, TrainConfig.layers), "batch_size": (int, TrainConfig.batch_size),
    "lr": (float, TrainConfig.lr), "warmup_ratio": (float, TrainConfig.warmup_ratio),
    "dropout_encoder": (float, TrainConfig.dropout_encoder),
    "dropout_output": (float, TrainConfig.dropout_output),
    "runs": (int, 5), "node": (int, None), "split": (str, "test"),
}

# Subcommand -> the settings its cmd_* function reads. Each becomes a flag
# of that subcommand only; every subcommand also takes --config.
COMMAND_FLAGS = {
    "ingest": ("out",),
    "synth": ("out", "seed"),
    "sample": ("dataset", "node", "seed", "counts"),
    "train": ("dataset", "checkpoint", "seed", "epochs", "counts", "hidden",
              "heads", "layers", "batch_size", "lr", "warmup_ratio"),
    "eval": ("dataset", "checkpoint", "seed", "split", "runs"),
    "attn-dump": ("dataset", "checkpoint", "out", "seed", "node"),
    "attn-stats": (),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _setup_logging():
    level = {"debug": logging.DEBUG, "info": logging.INFO}.get(
        os.environ.get("PATHSAGE_LOG", "info").lower(), logging.INFO)
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(message)s"))
    log.handlers[:] = [handler]
    log.setLevel(level)


def _log_json(**fields):
    log.info(json.dumps(fields, sort_keys=True))


def resolve_config(args):
    """Merge defaults <- config file <- explicitly-set flags."""
    cfg = {key: default for key, (_, default) in SETTINGS.items()}
    config_path = args.config
    if config_path:
        try:
            raw = json.loads(Path(config_path).read_text())
        except FileNotFoundError:
            raise DataError(f"config file not found: {config_path}") from None
        except json.JSONDecodeError as exc:
            raise DataError(f"config file {config_path}: {exc}") from None
        if not isinstance(raw, dict):
            raise DataError(f"config file {config_path} does not hold a JSON object")
        unknown = set(raw) - set(cfg)
        if unknown:
            raise DataError(f"unknown config keys: {sorted(unknown)}")
        cfg.update({key: _config_value(key, value) for key, value in raw.items()})
    cfg.update({key: value for key, value in vars(args).items()
                if key in cfg and value is not None})
    return cfg


def _config_value(key, value):
    """Check a config-file value against its setting's type and return it,
    with a counts string parsed as the flag parses it. null only stands for
    a setting whose default is null."""
    kind, default = SETTINGS[key]
    if value is None and default is None:
        return None
    if kind is _parse_counts and isinstance(value, str):
        try:
            return _parse_counts(value)
        except ValueError:
            pass
    elif JSON_CHECKS[kind][0](value):
        return value
    raise InvalidSetting(f"config key {key!r} must be {JSON_CHECKS[kind][1]}, got {value!r}")


def _require(cfg, key, flag):
    if cfg.get(key) is None:
        raise DataError(f"missing required setting {flag}")
    return cfg[key]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_ingest(cfg, args):
    """Build and validate the dataset in a temporary directory beside --out,
    so a bad input leaves --out as it was."""
    src = Path(args.input)
    out = _no_file_in_the_way(Path(_require(cfg, "out", "--out")), "--out")
    out.parent.mkdir(parents=True, exist_ok=True)
    copied = ("meta.json", "edges.csv", "labels.csv", "splits.json")
    with tempfile.TemporaryDirectory(dir=out.parent, prefix=f".{out.name}.") as tmp:
        tmp = Path(tmp)
        for name in copied:
            if not (src / name).is_file():
                raise DataError(f"missing input file {src / name}")
            (tmp / name).write_bytes((src / name).read_bytes())
        feats_csv = src / "features.csv"
        if not feats_csv.is_file():
            raise DataError(f"missing input file {feats_csv}")
        features = read_features_csv(feats_csv)
        write_features_bin(tmp / "features.bin", features)
        load_dataset(tmp)  # validation pass
        out.mkdir(exist_ok=True)
        for name in (*copied, "features.bin"):
            os.replace(tmp / name, out / name)
    _log_json(event="ingest", out=str(out), nodes=int(features.shape[0]))
    return 0


def cmd_synth(cfg, args):
    out = _no_file_in_the_way(Path(_require(cfg, "out", "--out")), "--out")
    synth_planted_khop(out, num_nodes=args.nodes, avg_degree=args.avg_degree,
                       k=args.k, num_classes=args.classes, seed=cfg["seed"],
                       topology=args.topology)
    _log_json(event="synth", out=str(out), nodes=args.nodes, k=args.k,
              classes=args.classes, seed=cfg["seed"], topology=args.topology)
    return 0


def cmd_sample(cfg, args):
    graph, _, _ = load_dataset(_require(cfg, "dataset", "--dataset"))
    node = _require(cfg, "node", "--node")
    walks = sample_paths(graph, [node], SamplePlan(cfg["counts"]), cfg["seed"], "walk", 0)
    for l, bucket in enumerate(walks, start=1):
        for row in bucket[0]:
            print(json.dumps({"length": l, "path": [int(v) for v in row]}))
    return 0


def _no_file_in_the_way(path, flag):
    """Reject, before any work is done, a directory path that is or lies
    under an existing non-directory, where mkdir would fail."""
    for part in (path, *path.parents):
        if part.exists() and not part.is_dir():
            raise DataError(f"{flag} {path}: {part} is not a directory")
    return path


def _output_file(cfg, key, flag):
    """The path of a file the subcommand will write; one that names an
    existing directory is rejected before any work is done."""
    path = Path(_require(cfg, key, flag))
    if path.is_dir():
        raise DataError(f"{flag} {path} is a directory")
    _no_file_in_the_way(path.parent, flag)
    return path


def cmd_train(cfg, args):
    ckpt = _output_file(cfg, "checkpoint", "--checkpoint")
    graph, labels, splits = load_dataset(_require(cfg, "dataset", "--dataset"))
    tc = TrainConfig(depth_s=len(cfg["counts"]), counts_per_length=cfg["counts"],
                     **{f.name: cfg[f.name] for f in fields(TrainConfig) if f.name in cfg})
    mc = tc.model_config(graph.feature_dim, labels.num_classes, labels.task)
    model = PathSageModel.init(mc, stream_rng(tc.seed, "init"))

    def eval_fn(m, epoch):
        return eval_split(m, graph, labels, splits.val, tc.counts_per_length,
                          tc.seed)

    ckpt.parent.mkdir(parents=True, exist_ok=True)
    result = fit(model, graph, labels, splits, tc, checkpoint_path=ckpt,
                 eval_fn=eval_fn,
                 log_fn=lambda record: _log_json(event="epoch", **record))
    summary = {"event": "train_done", "epochs_run": result.epochs_run,
               "best_val_micro_f1": result.best_val, "checkpoint": str(ckpt)}
    _log_json(**summary)
    print(json.dumps(summary, sort_keys=True))
    return 0


def _model_and_dataset(cfg):
    """-> (model, TrainConfig, graph, labels, splits) for --checkpoint and
    --dataset, rejecting a non-finite model or a dataset it was not built for."""
    model, _, tc, _ = load_model_checkpoint(_require(cfg, "checkpoint", "--checkpoint"))
    if bad := model.non_finite_param():
        raise DataError(f"checkpoint parameter {bad} is not finite")
    graph, labels, splits = load_dataset(_require(cfg, "dataset", "--dataset"))
    for name, value in (("feature_dim", graph.feature_dim),
                        ("num_classes", labels.num_classes), ("task", labels.task)):
        if getattr(model.config, name) != value:
            raise DataError(f"checkpoint {name} {getattr(model.config, name)!r} "
                            f"!= dataset {name} {value!r}")
    return model, tc, graph, labels, splits


def cmd_eval(cfg, args):
    model, tc, graph, labels, splits = _model_and_dataset(cfg)
    split = cfg["split"]
    if split not in SPLIT_NAMES:
        raise DataError(f"unknown split {split!r}")
    report = eval_runs(model, graph, labels, getattr(splits, split), tc.counts_per_length,
                       cfg["seed"], cfg["runs"])
    print(json.dumps({"split": split, **report}, sort_keys=True))
    return 0


def cmd_attn_dump(cfg, args):
    out = _output_file(cfg, "out", "--out")
    model, tc, graph, labels, _ = _model_and_dataset(cfg)
    node = _require(cfg, "node", "--node")
    out.parent.mkdir(parents=True, exist_ok=True)
    count = dump_attention(model, graph, labels, node, tc.counts_per_length,
                           cfg["seed"], out)
    _log_json(event="attn_dump", node=node, records=count, out=str(out))
    return 0


def cmd_attn_stats(cfg, args):
    print(json.dumps(attention_stats(args.dump), sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

# setting type -> (accepts a JSON value, what it expects)
JSON_CHECKS = {
    int: (is_int, "an integer"),
    float: (lambda v: is_int(v) or isinstance(v, float), "a number"),
    str: (lambda v: isinstance(v, str), "a string"),
    _parse_counts: (lambda v: isinstance(v, list) and all(map(is_int, v)),
                    "a list of integers or a comma-separated string"),
}


def _command(sub, name, fn, help_text):
    p = sub.add_parser(name, help=help_text)
    p.add_argument("--config")
    for key in COMMAND_FLAGS[name]:
        p.add_argument("--" + key.replace("_", "-"), dest=key, type=SETTINGS[key][0])
    p.set_defaults(fn=fn)
    return p


def build_parser():
    parser = _Parser(prog="pathsage")
    sub = parser.add_subparsers(dest="command", required=True)

    p = _command(sub, "ingest", cmd_ingest, "convert raw CSVs to the dataset layout")
    p.add_argument("--input", required=True)

    p = _command(sub, "synth", cmd_synth, "generate a planted-k-hop dataset")
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--classes", type=int, default=3)
    p.add_argument("--avg-degree", dest="avg_degree", type=float, default=3.0)
    p.add_argument("--topology", choices=("er", "ring"), default="er")

    _command(sub, "sample", cmd_sample, "print sampled paths as JSON lines")
    _command(sub, "train", cmd_train, "train a model")
    _command(sub, "eval", cmd_eval, "evaluate a checkpoint on a split")
    _command(sub, "attn-dump", cmd_attn_dump, "dump attention weights for a node")
    p = _command(sub, "attn-stats", cmd_attn_stats, "aggregate an attention dump")
    p.add_argument("--dump", required=True)
    return parser


def main(argv=None):
    _setup_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    try:
        with np.errstate(all="ignore"):
            code = args.fn(resolve_config(args), args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the Python docs' SIGPIPE recipe: exit's flush of stdout cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except NumericalError as exc:
        print(f"pathsage: numerical failure: {exc}", file=sys.stderr)
        return 3
    except DataError as exc:
        print(f"pathsage: data error: {exc}", file=sys.stderr)
        return 2
    except PathSageError as exc:
        print(f"pathsage: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
