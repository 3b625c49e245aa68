"""Random path sampling: fixed-count uniform random walks per length.

For a central node c and a plan of counts [n_1..n_s] (depth s) the sampler
draws, for each length l, exactly n_l independent walks of l steps. Every
step picks uniformly among the current node's CSR neighbors; revisits and
backtracking are allowed. Each stored sequence is [c, v_1, ..., v_l].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IndexOutOfRange, InvalidPlan, InvalidSetting
from .graph import Graph

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
# Stream kind -> (tag XOR-ed into the run seed, base added to key b). Shuffles
# use the walk stream of pseudo-node 0x5F5CAA1D: node ids must stay below it.
STREAMS = {"walk": (0, 0), "eval": (0xE7A1, 0), "shuffle": (0, 0x5F5CAA1D),
           "dropout": (0xD20F0C37, 0), "init": (0x1A17, 0)}


@dataclass(frozen=True)
class SamplePlan:
    counts_per_length: tuple  # index l-1 -> walks of length l; depth = len

    def __post_init__(self):
        counts = tuple(int(c) for c in self.counts_per_length)
        object.__setattr__(self, "counts_per_length", counts)
        if not counts or any(c < 1 for c in counts):
            raise InvalidPlan(f"need >= 1 count, each >= 1, got {counts}")


def _splitmix64(x):
    x = x + _GOLDEN  # uint64 arithmetic wraps modulo 2**64
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def derive_sample_seed(global_seed, epoch, node):
    """Stable 64-bit mix of (global_seed, epoch, node); distinct triples give
    decorrelated seeds. The run's streams are keyed through `stream_rng`."""
    with np.errstate(over="ignore"):
        x = _splitmix64(np.uint64(global_seed) ^ (np.uint64(epoch) * _GOLDEN))
        x = _splitmix64(x ^ (np.uint64(node) * _GOLDEN))
    return int(x)


def sample_paths(g: Graph, central, plan: SamplePlan, rng) -> tuple:
    """Run Algorithm-style random walks for one central node -> a tuple
    whose entry l-1 is the int64 (n_l, l+1) array of its length-l walks.

    Deterministic given (graph, central, plan, rng seed). Walks within a
    length bucket advance in lockstep off vectorized uniform draws.
    """
    if not 0 <= central < g.num_nodes:
        raise IndexOutOfRange(f"central node {central} not in [0, {g.num_nodes})")
    offsets, neighbors = g.offsets, g.neighbors
    buckets = []
    for l, n_l in enumerate(plan.counts_per_length, start=1):
        walks = np.empty((n_l, l + 1), dtype=np.int64)
        walks[:, 0] = central
        current = np.full(n_l, central, dtype=np.int64)
        for step in range(1, l + 1):
            start = offsets[current]
            deg = offsets[current + 1] - start
            pick = rng.integers(0, deg)  # per-walk uniform over each degree
            current = neighbors[start + pick]
            walks[:, step] = current
        buckets.append(walks)
    return tuple(buckets)


def rng_for(seed):
    """Deterministic generator for a derived seed."""
    return np.random.Generator(np.random.PCG64(np.uint64(seed)))


def check_seed(seed):
    """Reject a seed outside the unsigned 64-bit range with InvalidSetting."""
    if not 0 <= seed < 2 ** 64:
        raise InvalidSetting(f"seed {seed} outside [0, 2**64)")


def stream_rng(seed, kind, a=0, b=0):
    """Generator of run `seed`'s stream `kind` at keys (a, b): walk (epoch,
    node), eval (run, node), shuffle (epoch), dropout (epoch, first batch
    row) or init; it is derive_sample_seed(seed ^ tag, a, base + b)."""
    check_seed(seed)
    if not (0 <= a < 2 ** 64 and 0 <= b < 2 ** 64):
        raise IndexOutOfRange(f"{kind} stream key ({a}, {b}) outside [0, 2**64)")
    tag, base = STREAMS[kind]
    return rng_for(derive_sample_seed(seed ^ tag, a, base + b))
