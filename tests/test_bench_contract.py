"""The benchmark in perfbench/ rebinds package functions by name; a name it
needs must not disappear from the module that binds it."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import bench  # noqa: E402
import tracer  # noqa: E402

from pathsage import head, metrics, trainer  # noqa: E402


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
