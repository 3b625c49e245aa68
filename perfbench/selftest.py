"""Fast self-test of the benchmark's output contract (about a minute).

    python3 perfbench/selftest.py

Checks that BENCHMARK.json names the same workloads and metrics, with the
same units, as the benchmark computes; then runs every workload shrunk to a
few seconds, untraced and traced, and checks that each run is correct and
emits exactly those metrics, each with a unit and a finite value, plus the
report fields (sample counts, tail percentile, environment stamp, digest).
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import replace

import run

run.prepare_environment()

import bench  # noqa: E402  (needs the environment prepared first)
from tracer import PER_LAYER_UNITS  # noqa: E402


def shrink(w):
    """Same pipeline and plan shape on a tiny graph and model."""
    return replace(w, num_nodes=300, epochs=1, train_nodes=32, eval_nodes=32,
                   hidden=min(w.hidden, 16), heads=min(w.heads, 2))


def check(failures, cond, message):
    if not cond:
        failures.append(message)


def check_metrics(failures, where, emitted, expected_units):
    check(failures, set(emitted) == set(expected_units),
          f"{where}: metric names differ: {sorted(set(emitted) ^ set(expected_units))}")
    for name, m in emitted.items():
        check(failures, set(m) == {"value", "unit"}, f"{where}: {name} keys {sorted(m)}")
        check(failures, m.get("unit") == expected_units.get(name),
              f"{where}: {name} unit {m.get('unit')!r}")
        check(failures, isinstance(m.get("value"), (int, float)) and math.isfinite(m["value"]),
              f"{where}: {name} value {m.get('value')!r}")


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    failures = []
    check(failures, [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS),
          "BENCHMARK.json workloads differ from bench.WORKLOADS")
    check(failures, {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.E2E_UNITS,
          "BENCHMARK.json end_to_end differs from bench.E2E_UNITS")
    check(failures, {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS,
          "BENCHMARK.json per_layer differs from tracer.PER_LAYER_UNITS")

    for w in bench.WORKLOADS.values():
        for trace in (0, 1):
            where = f"{w.name} trace={trace}"
            line, report = bench.run(shrink(w), seed=3, seconds=0.01, trace=trace, root=run.ROOT)
            check(failures, line["correct"] and line["failed"] == 0 and line["attempted"] > 0,
                  f"{where}: run not correct: {report.get('error')}")
            if not line["correct"]:
                continue
            check_metrics(failures, where, line["metrics"],
                          PER_LAYER_UNITS if trace else bench.E2E_UNITS)
            e2e = report["end_to_end"]
            for name in {**bench.E2E_UNITS, **bench.REPORT_ONLY_UNITS}:
                check(failures, name in e2e and e2e[name]["samples"] >= 1,
                      f"{where}: report lacks {name} or its sample count")
            check(failures, "percentile" in e2e.get("train_step_ms_tail", {}),
                  f"{where}: tail percentile not named")
            check(failures, set(report["env"]) >= {"nproc", "python", "numpy", "blas",
                                                   "blas_threads", "seed"},
                  f"{where}: environment stamp incomplete")
            check(failures, len(report.get("result_digest", "")) == 64,
                  f"{where}: no result digest")
            print(f"{where}: checked", file=sys.stderr)

    for f in failures:
        print(f"FAIL {f}")
    print("selftest: " + ("FAILED" if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
