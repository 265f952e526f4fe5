"""Ablations of the design choices DESIGN.md calls out.

* **E-A1** — virtual-node count vs consistent-hash balance: the ring's
  chunk-count spread tightens as replicas increase.
* **E-A2** — Uniform Range tree height: taller trees balance better but
  move more data at each global re-slice.
* **E-A3** — Quadtree adjacent-pair regrouping: allowing face-adjacent
  pairs (the paper's algorithm) halves storage better than handing over
  single quarters.
"""

import numpy as np

from benchmarks.conftest import run_once
from repro.arrays import Box, ChunkRef
from repro.cluster.metrics import relative_std
from repro.core.consistent_hash import ConsistentHashPartitioner
from repro.core.quadtree import IncrementalQuadtreePartitioner
from repro.core.uniform_range import UniformRangePartitioner
from tests.helpers import columns

GRID = Box((0, 0, 0), (40, 29, 23))


def _chunks(n=1500, skew=False, seed=9):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        key = (
            int(rng.integers(0, 40)),
            int(rng.integers(0, 29)),
            int(rng.integers(0, 23)),
        )
        if skew and rng.random() < 0.8:
            key = (key[0], int(rng.integers(20, 23)),
                   int(rng.integers(6, 9)))
        size = float(rng.lognormal(3, 1.5)) if skew else 10.0
        out.append((ChunkRef("a", key), size))
    return out


def test_ablation_vnodes(benchmark):
    """E-A1: more virtual nodes -> tighter chunk balance."""
    def sweep():
        spreads = {}
        for vnodes in (1, 4, 16, 64, 256):
            p = ConsistentHashPartitioner(
                list(range(8)), virtual_nodes=vnodes
            )
            refs = [ref for ref, _size in _chunks()]
            p.place_batch(refs, [1.0] * len(refs))
            counts = [len(p.chunks_on(n)) for n in p.nodes]
            spreads[vnodes] = relative_std(counts)
        return spreads

    spreads = run_once(benchmark, sweep)
    print()
    print("vnodes -> chunk-count RSD:")
    for v, s in spreads.items():
        print(f"  {v:>4d}: {s * 100:6.1f}%")
    assert spreads[256] < spreads[4] < spreads[1]


def test_ablation_tree_height(benchmark):
    """E-A2: taller Uniform Range trees balance better, move more."""
    def sweep():
        out = {}
        for height in (3, 5, 8, 10):
            p = UniformRangePartitioner(
                [0, 1], GRID, height=height, split_dims=(1, 2)
            )
            p.place_batch(*columns(_chunks()))
            plan = p.scale_out([2, 3, 4, 5])
            rsd = relative_std(list(p.node_loads().values()))
            out[height] = (rsd, plan.chunk_count)
        return out

    results = run_once(benchmark, sweep)
    print()
    print("height -> (byte RSD, chunks moved at 2->6 scale-out):")
    for h, (rsd, moved) in results.items():
        print(f"  {h:>2d}: rsd {rsd * 100:6.1f}%  moved {moved}")
    # better balance with more leaves
    assert results[10][0] < results[3][0]


def test_ablation_quadtree_pairs(benchmark):
    """E-A3: adjacent-pair regrouping halves the donor better."""
    def sweep():
        out = {}
        for allow_pairs in (True, False):
            p = IncrementalQuadtreePartitioner(
                [0], GRID, split_dims=(1, 2), allow_pairs=allow_pairs
            )
            p.place_batch(*columns(_chunks(skew=True)))
            total = p.total_bytes
            p.scale_out([1])
            loads = p.node_loads()
            # how far from a perfect halving did the split land?
            out[allow_pairs] = abs(loads[1] - total / 2) / total
        return out

    deviations = run_once(benchmark, sweep)
    print()
    print("allow_pairs -> deviation from halving:")
    for k, v in deviations.items():
        print(f"  {k!s:>5s}: {v * 100:6.1f}% of total bytes")
    assert deviations[True] <= deviations[False] + 1e-9
