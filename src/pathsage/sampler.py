"""Random path sampling: fixed-count uniform random walks per length.

For a central node c and a plan of counts [n_1..n_s] (depth s) the sampler
draws, for each length l, exactly n_l independent walks of l steps. Every
step picks uniformly among the current node's CSR neighbors; revisits and
backtracking are allowed. Each stored sequence is [c, v_1, ..., v_l].
All walks of a batch advance together, one length and one step at a time,
on counter-keyed draws (Salmon et al., SC'11) picked by multiply-shift
(Lemire, TOMACS 2019).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IndexOutOfRange, InvalidPlan, InvalidSetting
from .graph import Graph

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
# Stream kind -> (tag XOR-ed into the run seed, base added to key b). Shuffles
# use the walk key of pseudo-node 0x5F5CAA1D: node ids must stay below it.
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
    """Stable 64-bit mix of (global_seed, epoch, node), a uint64 array for an
    array of nodes; distinct triples give decorrelated seeds."""
    with np.errstate(over="ignore"):
        x = _splitmix64(np.uint64(global_seed) ^ (np.uint64(epoch) * _GOLDEN))
        x = _splitmix64(x ^ (np.asarray(node).astype(np.uint64) * _GOLDEN))
    return x if np.ndim(node) else int(x)


def sample_paths(g: Graph, nodes, plan: SamplePlan, seed, kind, a) -> tuple:
    """Walks of `nodes` -> a tuple whose entry l-1 is the int64 (B, n_l, l+1)
    array of length-l walks. Node c's k-th draw, counting in (length, walk,
    step) order, is u = splitmix64(stream_key(seed, kind, a, c) + k * gamma);
    it picks neighbor ((u >> 32) * deg) >> 32, so c's walks do not depend on
    the rest of the batch."""
    nodes = np.asarray(nodes)
    bad = nodes[(nodes < 0) | (nodes >= g.num_nodes)]
    if bad.size:
        raise IndexOutOfRange(f"node {bad[0]} not in [0, {g.num_nodes})")
    keys = stream_key(seed, kind, a, nodes)[:, None]
    buckets, k = [], 0  # k: draws of the shorter lengths
    for l, n_l in enumerate(plan.counts_per_length, start=1):
        walks = np.empty((len(nodes), n_l, l + 1), dtype=np.int64)
        walks[:, :, 0] = nodes[:, None]
        walk_k = np.arange(k, k + n_l * l, l, dtype=np.uint64)
        for step in range(1, l + 1):
            current = walks[:, :, step - 1]
            start = g.offsets[current]
            deg = (g.offsets[current + 1] - start).astype(np.uint64)
            u = _splitmix64(keys + (walk_k + np.uint64(step - 1)) * _GOLDEN)
            pick = ((u >> np.uint64(32)) * deg) >> np.uint64(32)
            walks[:, :, step] = g.neighbors[start + pick.astype(np.int64)]
        buckets.append(walks)
        k += n_l * l
    return tuple(buckets)


def rng_for(seed):
    """Deterministic generator for a derived seed."""
    return np.random.Generator(np.random.PCG64(np.uint64(seed)))


def check_seed(seed):
    """Reject a seed outside the unsigned 64-bit range with InvalidSetting."""
    if not 0 <= seed < 2 ** 64:
        raise InvalidSetting(f"seed {seed} outside [0, 2**64)")


def stream_key(seed, kind, a=0, b=0):
    """Key of run `seed`'s stream `kind` at keys (a, b), keys for an array b:
    walk (epoch, node), eval (run, node), shuffle (epoch), dropout (epoch,
    first batch row) or init; it is derive_sample_seed(seed ^ tag, a, base + b)."""
    check_seed(seed)
    if not (0 <= a < 2 ** 64 and 0 <= np.min(b, initial=0) and np.max(b, initial=0) < 2 ** 64):
        raise IndexOutOfRange(f"{kind} stream key ({a}, {b}) outside [0, 2**64)")
    tag, base = STREAMS[kind]
    return derive_sample_seed(seed ^ tag, a, base + b)


def stream_rng(seed, kind, a=0, b=0):
    """Generator of the shuffle, dropout and init draws at `stream_key`."""
    return rng_for(stream_key(seed, kind, a, b))
