"""Run workloads over several seeds and summarise each metric's spread.

    python3 perfbench/spread.py --seeds 1-10 [--workloads er-infer] [--trace 0]
        [--out perfbench/BENCH_baseline.json]

Runs `perfbench/run.py` once per (workload, seed), one process at a time,
from the root of the source tree. For every metric it prints the median,
the quartiles (`statistics.quantiles(values, n=4)`) and the spread, i.e.
the interquartile distance as a share of the median, next to the metric's
bound from BENCHMARK.json. It stops at the first run that fails (exit code
not 0) and checks that runs of the same seed gave the same result digest.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,7")
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="write the summary as JSON to this file")
    args = p.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    seeds = parse_seeds(args.seeds)
    summary = {"seconds": args.seconds, "trace": args.trace, "seeds": seeds, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        per_metric, digests, env = {}, {}, None
        for seed in seeds:
            report, line = run_once(workload, seed, args.seconds, args.trace)
            env = {k: v for k, v in report["env"].items() if k != "seed"}
            if digests.setdefault(seed, report["result_digest"]) != report["result_digest"]:
                ok = False
                print(f"{workload} seed {seed}: result digest changed", file=sys.stderr)
            for name, m in line["metrics"].items():
                per_metric.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{name}={m['value']:.4g}" for name, m in line["metrics"].items()), file=sys.stderr)
        stats = {name: summarise(vals) for name, vals in per_metric.items()}
        summary["workloads"][workload] = {"env": env, "digests": digests, "metrics": stats}
        print(f"\n{workload}")
        for name, s in stats.items():
            bound = bounds.get(name)
            flag = "" if bound is None else ("ok" if s["spread"] < bound / 3 else
                                             "WIDE" if s["spread"] < bound else "OVER")
            print(f"  {name:44s} median {s['median']:12.5g}  q1 {s['q1']:12.5g}  "
                  f"q3 {s['q3']:12.5g}  spread {s['spread']:7.2%}  bound {bound}  {flag}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
