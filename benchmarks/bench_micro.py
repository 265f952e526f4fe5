"""Micro-benchmarks of the hot code paths (true pytest-benchmark loops).

These time the library primitives themselves — chunk placement, curve
indexing, tree lookups, batch chunking, and the query-operator kernels —
rather than simulated workloads.

Scalar and batch variants of each hot path run side by side on identical
inputs — the scalar arms are the reference implementations in
``tests/oracles`` — and ``benchmark.extra_info["items"]`` records the per-round item
count so ``bench_report.py`` can normalize every result to items/second
and derive batch-vs-scalar speedups from one run (the BENCH trajectory
tracked in ``BENCH_micro.json`` at the repo root).

``BENCH_SCALE`` scales the input sizes (default 1.0) for quick local
iteration.  Gate runs (``bench_gate.py``) must use the same scale as
the committed baseline: items/second of loops with per-round setup
does not transfer across scales.
"""

import os

import numpy as np
import pytest

from repro.arrays import Box, ChunkData, ChunkRef, hilbert_index, parse_schema
from repro.arrays.array import chunk_cells
from repro.arrays.sfc import RectangleHilbert, hilbert_index_batch
from repro.cluster import ElasticCluster, TieredStorage, execute_rebalance
from repro.cluster.costs import CostParameters
from repro.core import make_partitioner
from repro.core.base import Move, RebalancePlan
from repro.core.catalog import Read, concat_payload
from repro.query import operators as ops
from repro.query.cost import (
    CostAccumulator,
    accumulator_for,
    charge_scan,
    halo_shuffle_bytes,
)
from repro.query.incremental import (
    DeltaJoinState,
    GridGroupByState,
    MaintainedGridStats,
    join_aggregate_full,
)
from repro.workloads import AisWorkload
from tests import oracles
from tests.oracles import (
    add_scan_work_scalar,
    array_payload_scan,
    chunk_cells_scalar,
    chunks_in_region_scan,
    chunks_of_array_scan,
    concat_payload_per_chunk,
    execute_rebalance_scalar,
    halo_shuffle_bytes_scalar,
)

GRID = Box((0, 0, 0), (40, 29, 23))

PARTITIONERS = [
    "consistent_hash", "extendible_hash", "kd_tree",
    "hilbert_curve", "round_robin", "uniform_range",
]

#: Input-size multiplier (CI perf gate may shrink the run).
SCALE = float(os.environ.get("BENCH_SCALE", "1"))

#: Hot-path batch size: 10x the original micro-benchmark scale, the
#: regime where vectorization matters (ISSUE 1 acceptance criteria).
N_REFS = max(1_000, int(20_000 * SCALE))


def _refs(n=N_REFS, seed=1):
    rng = np.random.default_rng(seed)
    return [
        (
            ChunkRef(
                "a",
                (
                    int(rng.integers(0, 40)),
                    int(rng.integers(0, 29)),
                    int(rng.integers(0, 23)),
                ),
            ),
            float(rng.lognormal(2, 1)),
        )
        for _ in range(n)
    ]


@pytest.mark.parametrize("name", PARTITIONERS)
def test_placement_throughput(benchmark, name):
    refs = _refs()
    benchmark.extra_info["items"] = len(refs)

    def place_all():
        p = make_partitioner(
            name, [0, 1, 2, 3], grid=GRID, node_capacity_bytes=1e12
        )
        for ref, size in refs:
            p.place(ref, size)
        return p

    p = benchmark(place_all)
    assert p.chunk_count <= len(refs)


@pytest.mark.parametrize("name", PARTITIONERS)
def test_place_batch_throughput(benchmark, name):
    """The batch placement API on the same refs as the scalar loop."""
    refs = _refs()
    benchmark.extra_info["items"] = len(refs)

    def place_batch_all():
        p = make_partitioner(
            name, [0, 1, 2, 3], grid=GRID, node_capacity_bytes=1e12
        )
        p.place_batch(refs)
        return p

    p = benchmark(place_batch_all)
    assert p.chunk_count <= len(refs)


def test_scale_out_throughput(benchmark):
    refs = _refs()
    benchmark.extra_info["items"] = len(refs)

    def grow():
        p = make_partitioner(
            "consistent_hash", [0, 1], grid=GRID,
            node_capacity_bytes=1e12,
        )
        p.place_batch(refs)
        p.scale_out([2, 3])
        p.scale_out([4, 5])
        return p

    p = benchmark(grow)
    assert p.node_count == 6


def _hilbert_points(n=N_REFS):
    return [(t % 40, (t * 7) % 29, (t * 13) % 23) for t in range(n)]


def test_hilbert_indexing(benchmark):
    rect = RectangleHilbert((40, 29, 23))
    points = _hilbert_points()
    benchmark.extra_info["items"] = len(points)

    def index_all():
        return [rect.index(p) for p in points]

    out = benchmark(index_all)
    assert len(set(out)) == len(set(points))


def test_hilbert_indexing_batch(benchmark):
    """Vectorized Skilling transform on the same points, in one call."""
    rect = RectangleHilbert((40, 29, 23))
    points = _hilbert_points()
    arr = np.array(points, dtype=np.int64)
    benchmark.extra_info["items"] = len(points)

    out = benchmark(rect.index_batch, arr)
    assert out.tolist() == [rect.index(p) for p in points]


def test_hilbert_index_batch_raw(benchmark):
    """The bare cube-curve transform (no rectangle/overflow folding)."""
    rng = np.random.default_rng(2)
    pts = rng.integers(0, 64, size=(N_REFS, 3))
    benchmark.extra_info["items"] = N_REFS

    out = benchmark(hilbert_index_batch, pts, 6)
    assert out.shape == (N_REFS,)
    assert out.tolist() == [
        hilbert_index(tuple(p), 6) for p in pts.tolist()
    ]


def _chunk_cells_inputs(n=20000):
    schema = parse_schema(
        "B<v:double, w:int32>[t=0:*,100, x=0:999,50, y=0:999,50]"
    )
    rng = np.random.default_rng(3)
    coords = np.stack(
        [
            rng.integers(0, 1000, n),
            rng.integers(0, 1000, n),
            rng.integers(0, 1000, n),
        ],
        axis=1,
    )
    attrs = {
        "v": rng.random(n),
        "w": rng.integers(0, 100, n).astype(np.int32),
    }
    return schema, coords, attrs


def test_chunk_cells_scalar(benchmark):
    """The dict-of-cell-masks parity oracle: one Python probe per cell.

    Note this is the deliberately naive reference implementation, not
    the previously shipped code — the pre-PR-3 path (lexsort grouping +
    re-validating ChunkData construction) sits between the two at
    roughly 5x the batch kernel's time on these inputs.
    """
    schema, coords, attrs = _chunk_cells_inputs()
    benchmark.extra_info["items"] = coords.shape[0]

    chunks = benchmark(chunk_cells_scalar, schema, coords, attrs)
    assert sum(c.cell_count for c in chunks) == coords.shape[0]


def test_chunk_cells_throughput(benchmark):
    """One packed-key argsort grouping pass over the same cells."""
    schema, coords, attrs = _chunk_cells_inputs()
    benchmark.extra_info["items"] = coords.shape[0]

    chunks = benchmark(chunk_cells, schema, coords, attrs)
    assert sum(c.cell_count for c in chunks) == coords.shape[0]
    ref = chunk_cells_scalar(schema, coords, attrs)
    assert [c.key for c in chunks] == [c.key for c in ref]
    assert [c.size_bytes for c in chunks] == [c.size_bytes for c in ref]


# ----------------------------------------------------------------------
# payload gather (one piece per chunk vs one slab per batch)
# ----------------------------------------------------------------------
GATHER_ATTRS = ["speed", "course", "ship_id"]


def _gather_chunks():
    """Five AIS-shaped batches in catalog order: ~6.7k ~12-cell chunks.

    Time leads the chunk key, so batch after batch *is* key order — the
    list a whole-array payload read of ``ais_inproc`` hands the gather.
    """
    workload = AisWorkload(
        n_cycles=5, ships=max(50, int(500 * SCALE)),
        broadcasts_per_ship=30, seed=20140622,
    )
    return [
        chunk
        for cycle in range(1, 6)
        for chunk in workload.batch(cycle).chunks
    ]


def test_payload_gather_per_chunk(benchmark):
    """The per-chunk oracle: (1 + attrs) reads and one piece per chunk."""
    chunks = _gather_chunks()
    benchmark.extra_info["items"] = len(chunks)

    coords, _values = benchmark(
        concat_payload_per_chunk, chunks, GATHER_ATTRS, 3
    )
    assert coords.shape[0] == sum(c.cell_count for c in chunks)


def test_payload_gather(benchmark):
    """The run walk: adjacent extents coalesce into one slab a batch."""
    chunks = _gather_chunks()
    benchmark.extra_info["items"] = len(chunks)

    coords, values = benchmark(concat_payload, chunks, GATHER_ATTRS, 3)
    want = concat_payload_per_chunk(chunks, GATHER_ATTRS, 3)
    assert np.array_equal(coords, want[0])
    for attr in GATHER_ATTRS:
        assert np.array_equal(values[attr], want[1][attr])


def test_kd_lookup_latency(benchmark):
    p = make_partitioner(
        "kd_tree", list(range(16)), grid=GRID, node_capacity_bytes=1e12
    )
    keys = [(t % 40, (t * 3) % 29, (t * 5) % 23) for t in range(5000)]
    benchmark.extra_info["items"] = len(keys)

    def lookup_all():
        return [p.locate_key(k) for k in keys]

    out = benchmark(lookup_all)
    assert all(n in p.nodes for n in out)


def test_kd_lookup_batch_latency(benchmark):
    """Batch tree descent over the same keys as the scalar lookups."""
    p = make_partitioner(
        "kd_tree", list(range(16)), grid=GRID, node_capacity_bytes=1e12
    )
    keys = [(t % 40, (t * 3) % 29, (t * 5) % 23) for t in range(5000)]
    arr = np.array(keys, dtype=np.int64)
    benchmark.extra_info["items"] = len(keys)

    out = benchmark(p.locate_keys, arr)
    assert out.tolist() == [p.locate_key(k) for k in keys]


# ----------------------------------------------------------------------
# query-operator kernels (scalar oracle vs vectorized batch kernel)
# ----------------------------------------------------------------------
N_CELLS = max(1_000, int(20_000 * SCALE))
KNN_POINTS = max(500, int(4_000 * SCALE))
KNN_QUERIES = max(32, int(256 * SCALE))


def _kmeans_points(n=N_CELLS):
    rng = np.random.default_rng(7)
    return rng.normal(0, 50.0, size=(n, 3))


def test_kmeans_scalar(benchmark):
    pts = _kmeans_points()
    benchmark.extra_info["items"] = pts.shape[0]

    out = benchmark(oracles.kmeans_scalar, pts, 8, 6, 0)
    assert out[0].shape == (8, 3)


def test_kmeans_batch(benchmark):
    """Matmul assignment + bincount update on the scalar run's points."""
    pts = _kmeans_points()
    benchmark.extra_info["items"] = pts.shape[0]

    centroids, labels = benchmark(ops.kmeans, pts, 8, 6, 0)
    ref_c, ref_l = oracles.kmeans_scalar(pts, 8, 6, 0)
    # Near-tie assignments may round differently across BLAS builds;
    # compare clustering quality, not exact centroids.
    inertia = ((pts - centroids[labels]) ** 2).sum(axis=1).mean()
    ref_inertia = ((pts - ref_c[ref_l]) ** 2).sum(axis=1).mean()
    assert inertia == pytest.approx(ref_inertia, rel=0.01)


def _knn_inputs():
    rng = np.random.default_rng(8)
    pts = rng.uniform(0, 1000.0, size=(KNN_POINTS, 2))
    return pts, pts[:KNN_QUERIES]


def test_knn_scalar(benchmark):
    pts, queries = _knn_inputs()
    benchmark.extra_info["items"] = queries.shape[0]

    out = benchmark(oracles.knn_mean_distance_scalar, pts, queries, 5)
    assert out.shape == (queries.shape[0],)


def test_knn_batch(benchmark):
    """All query points against the point set in one distance matrix."""
    pts, queries = _knn_inputs()
    benchmark.extra_info["items"] = queries.shape[0]

    out = benchmark(ops.knn_mean_distance, pts, queries, 5)
    ref = oracles.knn_mean_distance_scalar(pts, queries, 5)
    assert np.allclose(out, ref, rtol=1e-9, equal_nan=True)


def _grid_coords(n=N_CELLS):
    rng = np.random.default_rng(9)
    return np.stack(
        [
            rng.integers(0, 60, n),
            rng.integers(0, 1000, n),
            rng.integers(0, 1000, n),
        ],
        axis=1,
    )


def test_grid_groupby_scalar(benchmark):
    """The pre-vectorization query path: per-chunk group-by dicts, merged."""
    coords = _grid_coords()
    chunks = np.array_split(coords, 50)
    benchmark.extra_info["items"] = coords.shape[0]

    def per_chunk_merge():
        counts = {}
        for chunk in chunks:
            local = ops.group_count_by_grid(chunk, [1, 2], [8, 8])
            for bucket, count in local.items():
                counts[bucket] = counts.get(bucket, 0) + count
        return counts

    out = benchmark(per_chunk_merge)
    assert sum(out.values()) == coords.shape[0]


def test_grid_groupby_batch(benchmark):
    """One unique/count pass over the same cells, no dicts."""
    coords = _grid_coords()
    benchmark.extra_info["items"] = coords.shape[0]

    _buckets, counts = benchmark(
        ops.group_count_by_grid_arrays, coords, [1, 2], [8, 8]
    )
    assert int(counts.sum()) == coords.shape[0]


def _window_inputs(n=N_CELLS):
    rng = np.random.default_rng(10)
    coords = np.stack(
        [
            rng.integers(0, 60, n),
            rng.integers(0, 256, n),
            rng.integers(0, 256, n),
        ],
        axis=1,
    )
    return coords, rng.random(n)


def test_window_average_scalar(benchmark):
    coords, values = _window_inputs()
    benchmark.extra_info["items"] = coords.shape[0]

    out = benchmark(
        oracles.window_average_scalar, coords, values, (1, 2), 16
    )
    assert out


def test_window_average_batch(benchmark):
    """Stencil-slice scatter instead of a full mask per bucket."""
    coords, values = _window_inputs()
    benchmark.extra_info["items"] = coords.shape[0]

    buckets, _means = benchmark(
        ops.window_average_arrays, coords, values, (1, 2), 16
    )
    ref = oracles.window_average_scalar(coords, values, (1, 2), 16)
    assert buckets.shape[0] == len(ref)


# ----------------------------------------------------------------------
# position join (the §3.3 vegetation-index engine; int64 position keys)
# ----------------------------------------------------------------------
JOIN_CELLS = max(1_000, int(20_000 * SCALE))


def test_position_join(benchmark):
    """One day slice of two bands sampling the same positions.

    MODIS-shaped coordinates (minute, longitude, latitude), each side
    in its own order — the packing, sort and match of every
    ``join_ndvi`` query.
    """
    rng = np.random.default_rng(16)
    coords = np.unique(
        np.stack(
            [
                rng.integers(0, 1440, JOIN_CELLS),
                rng.integers(-180, 180, JOIN_CELLS),
                rng.integers(-90, 90, JOIN_CELLS),
            ],
            axis=1,
        ),
        axis=0,
    )
    side_b = rng.permutation(coords.shape[0])
    band1 = rng.random(coords.shape[0])
    band2 = rng.random(coords.shape[0])
    benchmark.extra_info["items"] = 2 * coords.shape[0]

    matched, _a, _b = benchmark(
        ops.position_join, coords, band1, coords[side_b], band2[side_b]
    )
    assert np.array_equal(matched, coords)


# ----------------------------------------------------------------------
# cost-model accounting (scalar dict oracle vs column kernels)
# ----------------------------------------------------------------------
COST_CHUNKS = max(1_000, int(20_000 * SCALE))
COST_NODES = 8
_COST_SCHEMA = parse_schema(
    "C<a:double, b:int32>[t=0:*,1, x=0:199,1, y=0:199,1]"
)


def _cost_layout(n=COST_CHUNKS, seed=20):
    """(chunk, node) pairs over a dense spatial grid (unique keys)."""
    rng = np.random.default_rng(seed)
    sizes = rng.lognormal(18, 1.5, size=n)
    nodes = rng.integers(0, COST_NODES, size=n)
    layout = []
    for i in range(n):
        key = (0, i // 200, i % 200)
        layout.append(
            (
                ChunkData(
                    _COST_SCHEMA, key,
                    np.array([key], dtype=np.int64),
                    {
                        "a": np.array([1.0]),
                        "b": np.array([1], dtype=np.int32),
                    },
                    size_bytes=float(sizes[i]),
                ),
                int(nodes[i]),
            )
        )
    return layout


def test_cost_scan_scalar(benchmark):
    """Per-chunk dict accounting: one bytes_for + dict update per chunk."""
    layout = _cost_layout()
    costs = CostParameters()
    benchmark.extra_info["items"] = len(layout)

    def scan():
        per_node = {}
        add_scan_work_scalar(per_node, layout, ["a"], costs, 1.5)
        return per_node

    out = benchmark(scan)
    assert len(out) == COST_NODES


def test_cost_scan_batch(benchmark):
    """One read's columns: one fused multiply + one np.add.at pass."""
    layout = _cost_layout()
    costs = CostParameters()
    benchmark.extra_info["items"] = len(layout)
    chunks = np.empty(len(layout), dtype=object)
    chunks[:] = [c for c, _ in layout]
    read = Read(
        chunks,
        np.array([c.size_bytes for c, _ in layout]),
        np.array([n for _, n in layout], dtype=np.int64),
        _COST_SCHEMA,
    )

    def scan():
        acc = CostAccumulator(range(COST_NODES))
        charge_scan(acc, read, ["a"], costs, 1.5)
        return acc

    acc = benchmark(scan)
    per_node = {}
    add_scan_work_scalar(per_node, layout, ["a"], costs, 1.5)
    got = acc.as_dict()
    assert all(
        abs(got[n] - s) <= 1e-9 * s for n, s in per_node.items()
    )


def test_halo_bytes_scalar(benchmark):
    """Per-chunk dict probes over every stencil neighbour."""
    layout = _cost_layout()
    benchmark.extra_info["items"] = len(layout)

    out = benchmark(
        halo_shuffle_bytes_scalar, layout, ["a"], (1, 2), 0.5
    )
    assert out


def test_halo_bytes_batch(benchmark):
    """One packed-key searchsorted per stencil offset, np.add.at wires."""
    layout = _cost_layout()
    benchmark.extra_info["items"] = len(layout)

    out = benchmark(halo_shuffle_bytes, layout, ["a"], (1, 2), 0.5)
    ref = halo_shuffle_bytes_scalar(layout, ["a"], (1, 2), 0.5)
    assert set(out) == set(ref)
    assert all(abs(out[n] - v) <= 1e-9 * v for n, v in ref.items())


# ----------------------------------------------------------------------
# collision-candidate pairing (scalar oracle vs searchsorted pairing)
# ----------------------------------------------------------------------
CLOSE_POINTS = max(500, int(8_000 * SCALE))


def _close_pairs_inputs(n=CLOSE_POINTS):
    rng = np.random.default_rng(11)
    return (
        rng.uniform(0.0, 100.0, n),
        rng.uniform(0.0, 100.0, n),
        0.5,
    )


def test_close_pairs_scalar(benchmark):
    """Python bucket walk with per-pair distance tests."""
    lon, lat, radius = _close_pairs_inputs()
    benchmark.extra_info["items"] = lon.shape[0]

    out = benchmark(oracles.count_close_pairs_scalar, lon, lat, radius)
    assert out >= 0


def test_close_pairs_batch(benchmark):
    """Sorted packed keys + one searchsorted per stencil offset."""
    lon, lat, radius = _close_pairs_inputs()
    benchmark.extra_info["items"] = lon.shape[0]

    out = benchmark(ops.count_close_pairs, lon, lat, radius)
    assert out == oracles.count_close_pairs_scalar(lon, lat, radius)


# ----------------------------------------------------------------------
# catalog query routing (store-scan oracle vs columnar catalog)
# ----------------------------------------------------------------------
CATALOG_CHUNKS = max(1_000, int(20_000 * SCALE))
CATALOG_NODES = 8
_CATALOG_SCHEMA = parse_schema(
    "Q<v:double>[t=0:*,1, x=0:199,1, y=0:199,1]"
)


def _routing_chunks(n=CATALOG_CHUNKS, seed=21):
    rng = np.random.default_rng(seed)
    sizes = rng.lognormal(18, 1.0, size=n)
    chunks = []
    for i in range(n):
        key = (i // 40_000, (i // 200) % 200, i % 200)
        chunks.append(
            ChunkData(
                _CATALOG_SCHEMA, key,
                np.array([key], dtype=np.int64),
                {"v": np.array([float(i)])},
                size_bytes=float(sizes[i]),
            )
        )
    return chunks


def _routing_cluster():
    p = make_partitioner(
        "round_robin", list(range(CATALOG_NODES)),
        grid=GRID, node_capacity_bytes=1e15,
    )
    cluster = ElasticCluster(p, 1e15)
    cluster.ingest(_routing_chunks())
    return cluster


def _route_query(cluster):
    """One query's storage reads: routed pairs + the payload gather."""
    pairs = cluster.catalog.pairs_of_array("Q")
    coords, _vals = cluster.catalog.payload_of_array("Q", ["v"], ndim=3)
    return len(pairs), coords.shape[0]


def _route_query_scan(cluster):
    """The same reads through the store walks."""
    pairs = chunks_of_array_scan(cluster, "Q")
    coords, _vals = array_payload_scan(cluster, "Q", ["v"], ndim=3)
    return len(pairs), coords.shape[0]


#: Region-scoped selection over the 20k-chunk routing cluster: the
#: t=0 slice's x < 60, y < 120 corner (~7 200 of 20 000 chunks).
REGION = Box((0, 0, 0), (1, 60, 120))


def test_region_route_scan(benchmark):
    """The pre-routing oracle: one chunk_box().intersects() per chunk."""
    cluster = _routing_cluster()
    benchmark.extra_info["items"] = CATALOG_CHUNKS

    touched = benchmark(chunks_in_region_scan, cluster, "Q", REGION)
    assert 0 < len(touched) < CATALOG_CHUNKS


def test_region_route_catalog(benchmark):
    """One vectorized key-interval test over the catalog's key matrix."""
    cluster = _routing_cluster()
    benchmark.extra_info["items"] = CATALOG_CHUNKS

    touched = benchmark(cluster.catalog.pairs_in_region, "Q", REGION)
    ref = chunks_in_region_scan(cluster, "Q", REGION)
    assert [(id(c), n) for c, n in touched] == [
        (id(c), n) for c, n in ref
    ]


def test_region_cost_scalar(benchmark):
    """Pre-routing region charge: box walk + per-chunk dict accounting."""
    cluster = _routing_cluster()
    costs = CostParameters()
    benchmark.extra_info["items"] = CATALOG_CHUNKS

    def charge():
        touched = chunks_in_region_scan(cluster, "Q", REGION)
        per_node = {}
        add_scan_work_scalar(per_node, touched, ["v"], costs, 1.0)
        return per_node

    out = benchmark(charge)
    assert len(out) == CATALOG_NODES


def test_region_cost_batch(benchmark):
    """Catalog key-interval routing + region column gather + np.add.at."""
    cluster = _routing_cluster()
    costs = CostParameters()
    benchmark.extra_info["items"] = CATALOG_CHUNKS

    def charge():
        acc = accumulator_for(cluster)
        # The catalog routes a region like a session, unpinned.
        read = cluster.catalog.pairs_in_region("Q", REGION)
        charge_scan(acc, read, ["v"], costs, 1.0)
        return acc

    acc = benchmark(charge)
    touched = chunks_in_region_scan(cluster, "Q", REGION)
    per_node = {}
    add_scan_work_scalar(per_node, touched, ["v"], costs, 1.0)
    got = acc.as_dict()
    assert all(
        abs(got[n] - s) <= 1e-9 * s for n, s in per_node.items()
    )


def test_query_route_scan(benchmark):
    """The pre-catalog oracle: walk every store, re-sort, re-concat."""
    cluster = _routing_cluster()
    benchmark.extra_info["items"] = CATALOG_CHUNKS

    pairs, cells = benchmark(_route_query_scan, cluster)
    assert pairs == CATALOG_CHUNKS == cells


def test_query_route_catalog(benchmark):
    """Catalog-view gathers + the per-epoch payload cache."""
    cluster = _routing_cluster()
    benchmark.extra_info["items"] = CATALOG_CHUNKS

    pairs, cells = benchmark(_route_query, cluster)
    assert pairs == CATALOG_CHUNKS == cells
    assert (pairs, cells) == _route_query_scan(cluster)


# ----------------------------------------------------------------------
# rebalance execution (per-move oracle vs grouped batch pass)
# ----------------------------------------------------------------------
def _rebalance_fixture():
    """A loaded cluster plus forward/reverse plans over half its chunks.

    Executing forward then reverse inside the timed loop restores the
    starting state, so every round does identical work.
    """
    cluster = _routing_cluster()
    donors = list(cluster.catalog.pairs_of_array("Q"))[: CATALOG_CHUNKS // 2]
    fwd, rev = [], []
    for chunk, node in donors:
        dest = (node + 1) % CATALOG_NODES
        ref = chunk.ref()
        fwd.append(Move(ref, node, dest, chunk.size_bytes))
        rev.append(Move(ref, dest, node, chunk.size_bytes))
    return cluster, RebalancePlan(moves=fwd), RebalancePlan(moves=rev)


def test_rebalance_scalar(benchmark):
    """One evict + one put per move (the pre-catalog executor)."""
    cluster, fwd, rev = _rebalance_fixture()
    costs = CostParameters()
    benchmark.extra_info["items"] = fwd.chunk_count * 2

    def pingpong():
        execute_rebalance_scalar(
            cluster.nodes, fwd, costs, cluster.catalog
        )
        return execute_rebalance_scalar(
            cluster.nodes, rev, costs, cluster.catalog
        )

    report = benchmark(pingpong)
    assert report.chunks_moved == fwd.chunk_count


def test_rebalance_batch(benchmark):
    """Whole-plan validation + grouped evict_many/put_many passes."""
    cluster, fwd, rev = _rebalance_fixture()
    costs = CostParameters()
    benchmark.extra_info["items"] = fwd.chunk_count * 2

    def pingpong():
        execute_rebalance(cluster.nodes, fwd, costs, cluster.catalog)
        return execute_rebalance(
            cluster.nodes, rev, costs, cluster.catalog
        )

    report = benchmark(pingpong)
    assert report.chunks_moved == fwd.chunk_count


# ----------------------------------------------------------------------
# tiered storage (cold segment faults vs resident in-memory reads)
# ----------------------------------------------------------------------
SPILL_CHUNKS = max(128, int(512 * SCALE))
SPILL_CELLS = 64
_SPILL_SCHEMA = parse_schema("S<v:double>[t=0:*,1, x=0:199,1]")
_SPILL_GRID = Box((0, 0), (40, 200))


def _spill_batch(n=SPILL_CHUNKS, seed=23):
    rng = np.random.default_rng(seed)
    chunks = []
    for i in range(n):
        key = (i // 200, i % 200)
        coords = np.column_stack(
            [
                np.full(SPILL_CELLS, key[0], dtype=np.int64),
                np.full(SPILL_CELLS, key[1], dtype=np.int64),
            ]
        )
        chunks.append(
            ChunkData(
                _SPILL_SCHEMA, key, coords,
                {"v": rng.random(SPILL_CELLS)},
                size_bytes=float(rng.lognormal(18, 0.5)),
            )
        )
    return chunks


def _spill_cluster(storage=None):
    p = make_partitioner(
        "round_robin", [0, 1], grid=_SPILL_GRID,
        node_capacity_bytes=1e15,
    )
    cluster = ElasticCluster(p, 1e15, storage=storage)
    cluster.ingest(_spill_batch())
    return cluster


def _scan_payloads(pairs):
    """One full-array read through the payload handles (no caches)."""
    cells = 0
    for chunk, _node in pairs:
        coords, _values = chunk.payload_parts()
        cells += coords.shape[0]
    return cells


def test_spill_scan_full(benchmark, tmp_path):
    """The out-of-core arm: every payload faults from its segment file.

    The budget is one byte, so the LRU sheds each payload right after
    the fault that loaded it — every round decodes the entire array
    from disk, the 10-100x-over-memory regime the tier exists for.
    """
    storage = TieredStorage(
        root=str(tmp_path / "tiers"), memory_budget_bytes=1.0,
    )
    cluster = _spill_cluster(storage)
    pairs = cluster.catalog.pairs_of_array("S")
    benchmark.extra_info["items"] = SPILL_CHUNKS

    cells = benchmark(_scan_payloads, pairs)
    assert cells == SPILL_CHUNKS * SPILL_CELLS
    stats = cluster.storage_stats()
    assert sum(s["fault_count"] for s in stats.values()) >= SPILL_CHUNKS


def test_spill_scan_memory(benchmark):
    """The resident arm: identical chunks, payloads held in memory."""
    cluster = _spill_cluster()
    pairs = cluster.catalog.pairs_of_array("S")
    benchmark.extra_info["items"] = SPILL_CHUNKS

    cells = benchmark(_scan_payloads, pairs)
    assert cells == SPILL_CHUNKS * SPILL_CELLS
    assert cluster.storage_stats() == {}


# ----------------------------------------------------------------------
# incremental view maintenance (full-recompute arm vs delta fold)
# ----------------------------------------------------------------------
INCR_CELLS = max(1_000, int(20_000 * SCALE))

#: ~1% churn per cycle: the regime where delta maintenance pays.
INCR_DELTA = max(64, INCR_CELLS // 100)


def _incr_grid_inputs(n=INCR_CELLS):
    rng = np.random.default_rng(30)
    coords = np.stack(
        [
            rng.integers(0, 60, n),
            rng.integers(0, 200, n),
            rng.integers(0, 200, n),
        ],
        axis=1,
    )
    return coords, rng.normal(0.0, 10.0, n)


def test_incr_groupby_full(benchmark):
    """The full-recompute arm: one grid-stats sweep over every cell."""
    coords, values = _incr_grid_inputs()
    benchmark.extra_info["items"] = coords.shape[0]

    out = benchmark(
        ops.group_stats_by_grid_arrays, coords, values, [1, 2], [8, 8]
    )
    assert int(out[1].sum()) == coords.shape[0]


def test_incr_groupby_delta(benchmark):
    """The delta arm: fold a ±1% cell batch into primed group state.

    Each round applies the same delta with weight +1 then -1, so the
    maintained counts/sums return to the primed view and every round
    does identical work on a view of ``INCR_CELLS`` cells.
    """
    coords, values = _incr_grid_inputs()
    state = GridGroupByState([1, 2], [8, 8])
    state.apply(
        coords, values, np.ones(coords.shape[0], dtype=np.int64)
    )
    d_coords = coords[:INCR_DELTA]
    d_values = values[:INCR_DELTA]
    plus = np.ones(INCR_DELTA, dtype=np.int64)
    benchmark.extra_info["items"] = coords.shape[0]

    def fold():
        state.apply(d_coords, d_values, plus)
        state.apply(d_coords, d_values, -plus)
        return state

    out = benchmark(fold)
    assert int(out.counts.sum()) == coords.shape[0]


def _incr_join_inputs(n=INCR_CELLS):
    rng = np.random.default_rng(31)
    keys_a = rng.integers(0, n // 4, n)
    keys_b = rng.integers(0, n // 4, n)
    return (
        keys_a, rng.normal(0.0, 2.0, n),
        keys_b, rng.normal(0.0, 2.0, n),
    )


def test_incr_join_full(benchmark):
    """The full-recompute arm: bincount + intersect1d over both sides."""
    keys_a, values_a, keys_b, values_b = _incr_join_inputs()
    benchmark.extra_info["items"] = keys_a.shape[0] * 2

    out = benchmark(
        join_aggregate_full, keys_a, values_a, keys_b, values_b
    )
    assert out["pairs"] > 0


def test_incr_join_delta(benchmark):
    """The delta arm: bilinear ±1% fold against primed join state."""
    keys_a, values_a, keys_b, values_b = _incr_join_inputs()
    state = DeltaJoinState()
    ones = np.ones(keys_a.shape[0], dtype=np.int64)
    state.apply("a", keys_a, values_a, ones)
    state.apply("b", keys_b, values_b, ones)
    d_keys = keys_a[:INCR_DELTA]
    d_values = values_a[:INCR_DELTA]
    plus = np.ones(INCR_DELTA, dtype=np.int64)
    benchmark.extra_info["items"] = keys_a.shape[0] * 2

    def fold():
        state.apply("a", d_keys, d_values, plus)
        state.apply("a", d_keys, d_values, -plus)
        return state

    out = benchmark(fold)
    ref = join_aggregate_full(keys_a, values_a, keys_b, values_b)
    assert out.emit()["pairs"] == ref["pairs"]


def _incr_view_fixture():
    """A maintained grid view over the routing cluster, plus one delta.

    The view is primed at the pre-churn epoch, then ~1% fresh chunks
    are ingested.  Rewinding ``view.cursor`` to the primed epoch makes
    every refresh replay the same addition-only delta — constant work
    per round through the planner, the delta gather, and the fold.
    """
    cluster = _routing_cluster()
    view = MaintainedGridStats(
        cluster, "Q", "v", dims=(1, 2), cell_sizes=(8, 8), ndim=3,
        track_minmax=False,
    )
    view.refresh()
    cursor = view.cursor
    delta_n = max(64, CATALOG_CHUNKS // 100)
    fresh = []
    for i in range(delta_n):
        key = (40_000, (i // 200) % 200, i % 200)
        fresh.append(
            ChunkData(
                _CATALOG_SCHEMA, key,
                np.array([key], dtype=np.int64),
                {"v": np.array([float(i)])},
                size_bytes=2e5,
            )
        )
    cluster.ingest(fresh)
    return view, cursor, delta_n


def test_incr_cycle_full(benchmark):
    """One maintenance cycle with the recompute arm forced on."""
    view, _cursor, delta_n = _incr_view_fixture()
    benchmark.extra_info["items"] = CATALOG_CHUNKS + delta_n

    def cycle():
        view.cursor = -1  # unprimed: the planner is skipped, full arm
        return view.refresh()

    report = benchmark(cycle)
    assert report.mode == "full"
    assert report.rows == CATALOG_CHUNKS + delta_n


def test_incr_cycle_delta(benchmark):
    """One maintenance cycle folding the ~1% delta since the cursor."""
    view, cursor, delta_n = _incr_view_fixture()
    benchmark.extra_info["items"] = CATALOG_CHUNKS + delta_n

    def cycle():
        view.cursor = cursor
        return view.refresh()

    report = benchmark(cycle)
    assert report.mode == "delta"
    assert report.plan is not None and report.plan.incremental
    assert report.rows == delta_n
