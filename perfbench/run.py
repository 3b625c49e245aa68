"""Run one pathsage benchmark workload and print its metrics.

    python3 perfbench/run.py --workload ring3-small --seed 1 --seconds 30 --trace 0

Run from the root of a pathsage source tree: the benchmark imports the
package from `src/` next to this directory, never an installed copy. The
last stdout line is one JSON object with `correct`, `attempted`, `failed`
and `metrics` (end-to-end metrics with `--trace 0`, per-layer metrics with
`--trace 1`); the line before it is a full report with sample counts, the
environment stamp and the result digest. Exit code 0 means every check
passed.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def prepare_environment():
    """Cap BLAS threads at the CPUs this process may use and put the tree's
    `src/` first on the import path. Must run before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        cap = min(int(current), nproc) if current.isdigit() and int(current) > 0 else nproc
        os.environ[var] = str(cap)
    src = ROOT / "src"
    if not (src / "pathsage" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no pathsage sources at {src}")
    sys.path.insert(0, str(src))
    import pathsage
    if not Path(pathsage.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"perfbench: imported pathsage from {pathsage.__file__}, not {src}")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measurement budget; at least one trial always runs")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    prepare_environment()
    import bench
    if args.workload not in bench.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(bench.WORKLOADS)}")
    return bench.main(args.workload, args.seed, args.seconds, args.trace, ROOT)


if __name__ == "__main__":
    sys.exit(main())
