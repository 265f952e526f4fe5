"""Science analytics benchmark (paper §3.3.2).

Six math-intensive queries, three per workload:

* **Statistics** — MODIS takes a rolling average of polar-cap light levels
  over the last several days; AIS builds a coarse map of track counts
  where ships are in motion.  Both are group-by aggregates over dimension
  space.
* **Modeling** — MODIS runs k-means over (lat, long, NDVI) of the Amazon
  basin to flag deforestation; AIS estimates traffic density with
  k-nearest-neighbours over a uniform ship sample (Figure 7's query).
* **Complex projection** — MODIS computes a windowed aggregate of the most
  recent day's vegetation index (partially overlapping windows → smooth
  image); AIS predicts vessel collisions by dead-reckoning each ship
  minutes ahead.

These queries access data *spatially*, so their latency rewards
n-dimensionally clustered placement: chunk neighbourhoods that live on one
node cost no network (§6.2.2).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.arrays.chunk import ChunkData
from repro.arrays.coords import Box, region_mask
from repro.cluster.session import ClusterSession
from repro.query import operators as ops
from repro.query.cost import (
    accumulator_for,
    charge_network,
    charge_scan,
    elapsed_time,
    halo_shuffle_bytes,
    neighbor_pairs,
    node_byte_sums,
    spatial_neighbors,
    sum_endpoint_bytes,
)
from repro.query.executor import (
    CATEGORY_SCIENCE,
    Query,
    require_count,
    require_positive,
)
from repro.query.result import QueryResult
from repro.workloads.ais import TIME_CHUNKS_PER_CYCLE, AisWorkload
from repro.workloads.modis import ModisWorkload


def merge_regional_daily_means(
    per_region: Iterable[Dict[Tuple[int, ...], float]],
) -> Dict[int, float]:
    """Average per-day means across regions with an explicit sum/count.

    Each region contributes at most one mean per day; a day observed by
    ``k`` regions averages their ``k`` means with equal weight.  (The
    pre-fix in-place formula — add then divide by 2 when the day was
    seen — happened to work for exactly two disjoint regions but
    silently mis-weighted any third region or repeated day.)
    """
    sums: Dict[int, float] = {}
    counts: Dict[int, int] = {}
    for per_day in per_region:
        for (day,), mean in per_day.items():
            sums[day] = sums.get(day, 0.0) + mean
            counts[day] = counts.get(day, 0) + 1
    return {day: sums[day] / counts[day] for day in sums}


class ModisRollingAverage(Query):
    """Rolling average of polar-cap light levels over recent days."""

    name = "modis_statistics"
    category = CATEGORY_SCIENCE

    def __init__(self, workload: ModisWorkload, days: int = 3) -> None:
        self.workload = workload
        self.days = require_count("days", days)

    def _run(self, cluster: ClusterSession, cycle: int) -> QueryResult:
        lo = max(1, cycle - self.days + 1)
        north, south = self.workload.polar_caps(lo, cycle)
        regions = (north, south)
        # Per-region routing: each cap selects its own chunks with one
        # vectorized key-interval test, and each cap's cells are then
        # filtered against only its own routed chunks — no re-masking of
        # the other cap's chunks per pass.
        routed = [
            cluster.chunks_in_region("band1", region)
            for region in regions
        ]
        # The caps are disjoint, but dedup the scan set defensively so a
        # chunk spanning several regions is never charged twice.
        touched: List[Tuple[ChunkData, int]] = []
        seen: set = set()
        for pairs in routed:
            for chunk, node in pairs:
                if chunk.key not in seen:
                    seen.add(chunk.key)
                    touched.append((chunk, node))
        acc = accumulator_for(cluster)
        scanned = charge_scan(
            acc, touched, ["radiance"], cluster.costs,
            cpu_intensity=1.2,
        )
        # Group-by merge: per-day partial aggregates are tiny; charge 1 %.
        merge = node_byte_sums(touched, ["radiance"], fraction=0.01)
        network = charge_network(acc, merge, cluster.costs)

        per_region: List[Dict[Tuple[int, ...], float]] = []
        for region, pairs in zip(regions, routed):
            coords, values = cluster.gather_payload(
                pairs, ["radiance"], ndim=region.ndim
            )
            if coords.shape[0]:
                mask = region_mask(coords, region)
                coords = coords[mask]
                values = {a: v[mask] for a, v in values.items()}
            if coords.shape[0] == 0:
                continue
            per_region.append(ops.group_mean_by_grid(
                coords, values["radiance"], dims=[0], cell_sizes=[1440]
            ))
        daily = merge_regional_daily_means(per_region)
        return QueryResult(
            name=self.name,
            category=self.category,
            value={"daily_polar_radiance": daily},
            elapsed_seconds=elapsed_time(acc, cluster.costs),
            per_node_seconds=acc.as_dict(),
            network_bytes=network,
            scanned_bytes=scanned,
        )


class ModisKMeans(Query):
    """k-means over (lat, long, NDVI) of the Amazon basin."""

    name = "modis_modeling"
    category = CATEGORY_SCIENCE

    def __init__(
        self, workload: ModisWorkload, k: int = 4, iterations: int = 8
    ) -> None:
        self.workload = workload
        self.k = require_count("k", k)
        self.iterations = require_count("iterations", iterations)

    def _run(self, cluster: ClusterSession, cycle: int) -> QueryResult:
        # Both bands route through the catalog's key-interval test; one
        # read per band feeds its body and its scan charge.
        region = self.workload.amazon_box(cycle)
        band1 = cluster.chunks_in_region("band1", region)
        band2_read = cluster.chunks_in_region("band2", region)
        band2 = {c.key: (c, n) for c, n in band2_read}
        acc = accumulator_for(cluster)
        # Iterative clustering re-reads the working set each sweep; charge
        # one I/O pass plus per-iteration compute.
        scanned = charge_scan(
            acc, band1, ["radiance"], cluster.costs,
            cpu_intensity=0.5 * self.iterations,
        )
        scanned += charge_scan(
            acc, band2_read, ["radiance"], cluster.costs,
            cpu_intensity=0.5,
        )
        # Centroid broadcast per iteration: negligible bytes, but one
        # barrier per iteration across participating nodes.
        barrier = (
            cluster.costs.query_overhead_seconds * 0.2 * self.iterations
        )

        points = self._ndvi_points(cluster, band1, band2, region)
        if points.shape[0]:
            centroids, labels = ops.kmeans(
                points, self.k, self.iterations, seed=cycle
            )
            inertia = float(
                np.linalg.norm(
                    points - centroids[labels], axis=1
                ).mean()
            )
            value = {
                "points": int(points.shape[0]),
                "centroids": centroids.tolist(),
                "mean_residual": inertia,
            }
        else:
            value = {"points": 0, "centroids": [], "mean_residual": None}
        return QueryResult(
            name=self.name,
            category=self.category,
            value=value,
            elapsed_seconds=elapsed_time(acc, cluster.costs) + barrier,
            per_node_seconds=acc.as_dict(),
            scanned_bytes=scanned,
        )

    def _ndvi_points(
        self,
        cluster: ClusterSession,
        band1: Sequence[Tuple[ChunkData, int]],
        band2: Dict[Tuple[int, ...], Tuple[ChunkData, int]],
        region: Box,
    ) -> np.ndarray:
        # Batch join: concatenate the key-matched chunks of both bands
        # and intersect the packed positions once.  Positions are
        # unique within a band, so the joined *set* equals the old
        # per-chunk-pair joins; the rows come back in packed-key order
        # rather than chunk order, so kmeans' rng-seeded init may draw
        # different rows than the pre-batch code did (both are valid
        # uniform draws over the same point set).
        matched1 = [
            (c1, n1) for c1, n1 in band1 if c1.key in band2
        ]
        matched2 = [band2[c1.key] for c1, _ in matched1]
        coords1, vals1 = cluster.gather_payload(
            matched1, ["radiance"], ndim=3
        )
        coords2, vals2 = cluster.gather_payload(
            matched2, ["radiance"], ndim=3
        )
        coords, v1, v2 = ops.position_join(
            coords1, vals1["radiance"], coords2, vals2["radiance"]
        )
        if coords.shape[0] == 0:
            return np.empty((0, 3))
        mask = region_mask(coords, region)
        if not mask.any():
            return np.empty((0, 3))
        nd = ops.ndvi(v1[mask], v2[mask])
        pts = np.stack(
            [
                coords[mask, 1].astype(np.float64),
                coords[mask, 2].astype(np.float64),
                nd * 100.0,
            ],
            axis=1,
        )
        return pts[~np.isnan(pts).any(axis=1)]


class ModisWindowAggregate(Query):
    """Windowed aggregate of the latest day's NDVI (overlapping windows).

    Each chunk needs ghost cells from its spatial neighbours, so the query
    pays network for every neighbour hosted elsewhere — the purest test of
    n-dimensional clustering.
    """

    name = "modis_complex"
    category = CATEGORY_SCIENCE

    def __init__(self, workload: ModisWorkload, window: int = 6) -> None:
        self.workload = workload
        self.window = require_count("window", window)

    def _run(self, cluster: ClusterSession, cycle: int) -> QueryResult:
        day = cycle - 1
        touched = cluster.chunks_in_region(
            "band1", self.workload.time_chunk_box(day, day + 1)
        )
        acc = accumulator_for(cluster)
        scanned = charge_scan(
            acc, touched, ["radiance"], cluster.costs,
            cpu_intensity=2.0,
        )
        halo = halo_shuffle_bytes(
            touched, ["radiance"], spatial_dims=(1, 2),
            halo_fraction=0.5,
        )
        network = charge_network(acc, halo, cluster.costs)
        wire = network / 2.0

        coords, values = cluster.gather_payload(
            touched, ["radiance"], ndim=3
        )
        # The stencil kernel returns plain arrays; the query only needs
        # the occupied-window count, so no per-bucket dicts are built.
        windows, _means = ops.window_average_arrays(
            coords, values["radiance"],
            spatial_dims=(1, 2), window=self.window,
        )
        return QueryResult(
            name=self.name,
            category=self.category,
            value={"windows": int(windows.shape[0])},
            elapsed_seconds=elapsed_time(
                acc, cluster.costs, wire_bytes=wire
            ),
            per_node_seconds=acc.as_dict(),
            network_bytes=network,
            scanned_bytes=scanned,
        )


class AisDensityMap(Query):
    """Coarse track-count map of ships in motion (coastline erosion)."""

    name = "ais_statistics"
    category = CATEGORY_SCIENCE

    #: Grid group-by configuration, shared with the maintained
    #: grid-statistics view (:class:`repro.query.incremental.
    #: MaintainedGridStats`) so a delta-maintained density map folds
    #: into the same buckets this full sweep produces.
    grid_dims = (1, 2)

    def __init__(
        self, workload: AisWorkload, coarse_degrees: int = 8
    ) -> None:
        self.workload = workload
        self.coarse_degrees = coarse_degrees

    @property
    def grid_cell_sizes(self) -> Tuple[int, int]:
        """Bucket edge lengths matching :attr:`grid_dims`."""
        return (self.coarse_degrees, self.coarse_degrees)

    def _run(self, cluster: ClusterSession, cycle: int) -> QueryResult:
        # Whole-array query: the pinned read's column charge, and the
        # (coords, speed) concatenation comes from the per-epoch payload
        # cache — repeated density maps between reorganizations skip the
        # re-concatenation entirely.
        read = cluster.chunks_of_array("broadcast")
        acc = accumulator_for(cluster)
        scanned = charge_scan(
            acc, read, ["speed"], cluster.costs, cpu_intensity=1.2,
        )
        merge = node_byte_sums(read, ["speed"], fraction=0.01)
        network = charge_network(acc, merge, cluster.costs)

        # Batch group-by: one mask + one unique/count pass over every
        # moving ship, replacing the per-chunk dict merges.
        coords, values = cluster.array_payload(
            "broadcast", ["speed"], ndim=3
        )
        moving = values["speed"] > 0
        _buckets, counts = ops.group_count_by_grid_arrays(
            coords[moving],
            dims=list(self.grid_dims),
            cell_sizes=list(self.grid_cell_sizes),
        )
        return QueryResult(
            name=self.name,
            category=self.category,
            value={
                "buckets": int(counts.shape[0]),
                "busiest": int(counts.max()) if counts.size else 0,
            },
            elapsed_seconds=elapsed_time(acc, cluster.costs),
            per_node_seconds=acc.as_dict(),
            network_bytes=network,
            scanned_bytes=scanned,
        )


class AisKnn(Query):
    """k-nearest-neighbour density estimation over sampled ships.

    Figure 7's query.  Each sampled ship pulls its 3x3 spatial chunk
    neighbourhood (latest time slice); remote neighbours cost network and
    the owning node does the distance math, so clustered, skew-aware
    placement halves the latency relative to the baseline (§6.2.2).
    """

    name = "knn"
    category = CATEGORY_SCIENCE

    def __init__(
        self, workload: AisWorkload, samples: int = 56, k: int = 5
    ) -> None:
        self.workload = workload
        self.samples = require_count("samples", samples)
        self.k = require_count("k", k)

    def _run(self, cluster: ClusterSession, cycle: int) -> QueryResult:
        # The benchmarks refer to the newest data more frequently (§3.3,
        # "cooking"); ships are sampled from the latest 30-day slice.
        # Spatial-only range partitioning spreads that slice across every
        # host (each owns its region's newest chunks) while keeping each
        # sample's neighbourhood local — the §6.2.2 double win.
        latest = cycle * TIME_CHUNKS_PER_CYCLE - 1
        current = {
            c.key: (c, n)
            for c, n in cluster.chunks_in_region(
                "broadcast",
                self.workload.time_chunk_box(latest, latest + 1),
            )
        }
        if not current:
            return QueryResult(
                name=self.name, category=self.category,
                value={"samples": 0, "mean_knn_distance": None},
                elapsed_seconds=cluster.costs.query_overhead_seconds,
            )

        # Uniform ship sample: draw positions from the latest slice.
        rng = np.random.default_rng((self.workload.seed, cycle, 99))
        all_keys = sorted(current)
        weights = np.array(
            [current[k][0].cell_count for k in all_keys], dtype=np.float64
        )
        weights /= weights.sum()
        sampled_keys = rng.choice(
            len(all_keys), size=min(self.samples, len(all_keys)),
            p=weights, replace=True,
        )

        # Cost accounting: every sample pays its fragment dispatch,
        # but the bookkeeping runs as one vectorized pass over the
        # (center, neighbour) chunk pairs weighted by how often each
        # center was sampled.  The rng stream is drawn in sample
        # order, so sampling stays deterministic; the distance math
        # then runs once per distinct neighbourhood with all its query
        # points batched.
        acc = accumulator_for(cluster)
        wire_map, queries_by_key, key_order = self._account_samples(
            acc, cluster, current, all_keys, sampled_keys, rng
        )

        distances: List[float] = []
        for center_key in key_order:
            neighborhood = self._neighborhood(current, center_key)
            coords_all, _ = cluster.gather_payload(
                neighborhood, [], ndim=3
            )
            pts = coords_all[:, 1:3].astype(np.float64)
            qidx = np.asarray(queries_by_key[center_key])
            d = ops.knn_mean_distance(pts, pts[qidx], self.k)
            distances.extend(d[np.isfinite(d)].tolist())

        network = charge_network(acc, wire_map, cluster.costs)
        return QueryResult(
            name=self.name,
            category=self.category,
            value={
                "samples": len(sampled_keys),
                "mean_knn_distance": (
                    float(np.mean(distances)) if distances else None
                ),
            },
            elapsed_seconds=elapsed_time(
                acc, cluster.costs, wire_bytes=network / 2.0
            ),
            per_node_seconds=acc.as_dict(),
            network_bytes=network,
        )

    @staticmethod
    def _neighborhood(
        current: Dict[Tuple[int, ...], Tuple[ChunkData, int]],
        center_key: Tuple[int, ...],
    ) -> List[Tuple[ChunkData, int]]:
        """The center chunk plus its present 3x3 spatial neighbours."""
        center_chunk, owner = current[center_key]
        neighborhood = [(center_chunk, owner)]
        for nkey in spatial_neighbors(center_key, spatial_dims=(1, 2)):
            pair = current.get(nkey)
            if pair is not None:
                neighborhood.append(pair)
        return neighborhood

    def _account_samples(
        self, acc, cluster, current, all_keys, sampled_keys, rng
    ):
        """Vectorized per-sample bookkeeping.

        The owner reads its local chunks, pulls remote position columns,
        and dispatches a partial-kNN fragment to every remote node
        involved — the coordination cost clustered placement avoids (all
        nine chunks on one host: zero fragments).  One
        :func:`repro.query.cost.neighbor_pairs` pass finds every
        (center, neighbour) chunk pair; each cost term then lands as a
        single weighted ``np.add.at`` with the per-center sample counts
        as weights, instead of dict updates inside a per-sample loop.
        """
        costs = cluster.costs
        n = len(all_keys)
        keys_arr = np.array(all_keys, dtype=np.int64)
        pairs = neighbor_pairs(keys_arr, (1, 2))
        nodes = np.fromiter(
            (current[k][1] for k in all_keys), dtype=np.int64, count=n
        )
        sizes = np.fromiter(
            (current[k][0].size_bytes for k in all_keys),
            dtype=np.float64,
            count=n,
        ) * 0.15  # position columns are ~15 % of a broadcast chunk
        cells = np.fromiter(
            (current[k][0].cell_count for k in all_keys),
            dtype=np.int64,
            count=n,
        )
        # Each center's neighbourhood is itself plus its present
        # spatial neighbours.
        self_idx = np.arange(n, dtype=np.int64)
        src = np.concatenate([self_idx, pairs[0]])
        dst = np.concatenate([self_idx, pairs[1]])

        # Neighbourhood cell totals drive the query-point draws.
        nb_cells = np.zeros(n, dtype=np.int64)
        np.add.at(nb_cells, src, cells[dst])

        sample_idx = np.asarray(sampled_keys, dtype=np.int64)
        counts = np.bincount(sample_idx, minlength=n).astype(np.float64)
        hot = counts[src] > 0
        src, dst = src[hot], dst[hot]
        weight = counts[src]
        owner = nodes[src]
        nb_node = nodes[dst]
        size = sizes[dst]
        local = nb_node == owner

        # Local reads: the owner's disk; compute: the owner prices every
        # neighbourhood chunk.
        acc.add(owner[local], weight[local] * costs.io_time(size[local]))
        acc.add(owner, weight * costs.cpu_time(size, 2.5))

        # Remote pulls: both endpoints pay wire bytes per sample.
        remote = ~local
        wire_map: Dict[int, float] = {}
        if remote.any():
            wire_map = sum_endpoint_bytes(
                owner[remote], nb_node[remote],
                weight[remote] * size[remote],
            )
            # Fragment dispatch: one per distinct remote *node* in the
            # neighbourhood, per sample.
            uniq_pairs = np.unique(
                np.stack([src[remote], nb_node[remote]], axis=1), axis=0
            )
            centers = uniq_pairs[:, 0]
            acc.add(
                nodes[centers],
                counts[centers] * costs.task_dispatch_seconds,
            )

        queries_by_key: Dict[Tuple[int, ...], List[int]] = {}
        key_order: List[Tuple[int, ...]] = []
        for key_idx in sample_idx:
            center_key = all_keys[int(key_idx)]
            if center_key not in queries_by_key:
                queries_by_key[center_key] = []
                key_order.append(center_key)
            queries_by_key[center_key].append(
                int(rng.integers(0, int(nb_cells[key_idx])))
            )
        return wire_map, queries_by_key, key_order


class AisCollisionPrediction(Query):
    """Dead-reckon each recent ship ahead and count close pairs."""

    name = "ais_complex"
    category = CATEGORY_SCIENCE

    def __init__(
        self,
        workload: AisWorkload,
        minutes_ahead: float = 15.0,
        radius_deg: float = 0.5,
    ) -> None:
        self.workload = workload
        self.minutes_ahead = require_positive("minutes_ahead", minutes_ahead)
        self.radius_deg = require_positive("radius_deg", radius_deg)

    def _run(self, cluster: ClusterSession, cycle: int) -> QueryResult:
        latest = cycle * TIME_CHUNKS_PER_CYCLE - 1
        touched = cluster.chunks_in_region(
            "broadcast",
            self.workload.time_chunk_box(latest, latest + 1),
        )
        acc = accumulator_for(cluster)
        scanned = charge_scan(
            acc, touched, ["speed", "course"], cluster.costs,
            cpu_intensity=3.0,
        )
        halo = halo_shuffle_bytes(
            touched, ["speed", "course"], spatial_dims=(1, 2),
            halo_fraction=0.5,
        )
        network = charge_network(acc, halo, cluster.costs)
        wire = network / 2.0

        # Batch: dead-reckon every chunk's moving ships in one call and
        # count close pairs with the chunk index as the segment key, so
        # per-chunk pair semantics survive the concatenation.
        coords, values = cluster.gather_payload(
            touched, ["speed", "course"], ndim=3
        )
        segments = (
            np.repeat(
                np.arange(len(touched)),
                [c.cell_count for c, _ in touched],
            )
            if touched else np.empty(0, dtype=np.int64)
        )
        moving = values["speed"] > 0
        lon, lat = ops.dead_reckon(
            coords[moving, 1],
            coords[moving, 2],
            values["speed"][moving],
            values["course"][moving],
            self.minutes_ahead,
        )
        collisions = ops.count_close_pairs(
            lon, lat, self.radius_deg, segments=segments[moving]
        )
        return QueryResult(
            name=self.name,
            category=self.category,
            value={"predicted_close_pairs": int(collisions)},
            elapsed_seconds=elapsed_time(
                acc, cluster.costs, wire_bytes=wire
            ),
            per_node_seconds=acc.as_dict(),
            network_bytes=network,
            scanned_bytes=scanned,
        )
