"""Select-Project-Join benchmark (paper §3.3.1).

Six queries, three per workload:

* **Selection** — MODIS reads 1/16 of lat/long space at the lower-left
  corner of Band 1 (highly parallelizable); AIS filters to the densely
  trafficked Houston port area (stress-tests skew).
* **Sort** — MODIS computes radiance quantiles from a uniform random
  sample (parallel sort); AIS produces the sorted log of distinct ship
  ids (non-trivial aggregation).
* **Join** — MODIS joins its two bands where cells share a position and
  derives the vegetation index over the most recent day; AIS joins
  Broadcast with the replicated Vessel array on ``ship_id`` to map recent
  ship types.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.cluster.session import ClusterSession
from repro.query import operators as ops
from repro.query.cost import (
    accumulator_for,
    charge_network,
    charge_scan,
    colocation_shuffle_bytes,
    elapsed_time,
    node_byte_sums,
)
from repro.query.executor import CATEGORY_SPJ, Query
from repro.query.result import QueryResult
from repro.workloads.ais import TIME_CHUNKS_PER_CYCLE, AisWorkload
from repro.workloads.modis import ModisWorkload


class ModisSelection(Query):
    """Subset Band 1 to the lower-left 1/16 of lat/long space."""

    name = "modis_selection"
    category = CATEGORY_SPJ

    def __init__(self, workload: ModisWorkload) -> None:
        self.workload = workload

    def _run(self, cluster: ClusterSession, cycle: int) -> QueryResult:
        # Region routing: one vectorized key-interval test in the
        # catalog prices the scan, and the clipped cell table comes
        # from the region-scoped payload cache — a repeated hot
        # selection between mutations skips the per-chunk mask
        # entirely, and a miss reuses the read's routing pass.
        region = self.workload.lower_left_sixteenth(cycle)
        acc = accumulator_for(cluster)
        scanned = charge_scan(
            acc, cluster.chunks_in_region("band1", region), None,
            cluster.costs, cpu_intensity=0.2,
        )
        coords, values = cluster.payload_in_region(
            "band1", region, ["radiance"], ndim=len(region.lo)
        )
        return QueryResult(
            name=self.name,
            category=self.category,
            value={
                "cells": int(coords.shape[0]),
                "mean_radiance": (
                    float(values["radiance"].mean())
                    if coords.shape[0] else float("nan")
                ),
            },
            elapsed_seconds=elapsed_time(acc, cluster.costs),
            per_node_seconds=acc.as_dict(),
            scanned_bytes=scanned,
        )


class ModisQuantileSort(Query):
    """Radiance quantiles from a uniform random sample (parallel sort)."""

    name = "modis_sort"
    category = CATEGORY_SPJ

    def __init__(
        self,
        workload: ModisWorkload,
        sample_fraction: float = 0.1,
        qs: Sequence[float] = (0.25, 0.5, 0.75, 0.95),
    ) -> None:
        self.workload = workload
        self.sample_fraction = sample_fraction
        self.qs = tuple(qs)

    def _run(self, cluster: ClusterSession, cycle: int) -> QueryResult:
        # Whole-array query: cost prices the pinned read's byte/owner
        # columns, and the radiance concatenation is served from the
        # per-epoch payload cache (no pair list, no re-concat between
        # reorganizations).
        read = cluster.chunks_of_array("band1")
        acc = accumulator_for(cluster)
        # Vertical partitioning: the sort only reads the radiance column.
        scanned = charge_scan(
            acc, read, ["radiance"], cluster.costs, cpu_intensity=1.0,
        )
        # Merge phase: every node ships its sample to the coordinator.
        sample_bytes = node_byte_sums(
            read, ["radiance"], fraction=self.sample_fraction
        )
        charge_network(acc, sample_bytes, cluster.costs)

        _coords, vals = cluster.array_payload(
            "band1", ["radiance"], ndim=3
        )
        values = vals["radiance"]
        sample = ops.uniform_sample(
            values, self.sample_fraction, seed=cycle
        )
        quants = ops.quantiles(sample, self.qs)
        return QueryResult(
            name=self.name,
            category=self.category,
            value={
                "quantiles": {
                    q: float(v) for q, v in zip(self.qs, quants)
                }
            },
            elapsed_seconds=elapsed_time(acc, cluster.costs),
            per_node_seconds=acc.as_dict(),
            network_bytes=sum(sample_bytes.values()),
            scanned_bytes=scanned,
        )


class ModisJoinNdvi(Query):
    """Band1 ⋈ Band2 on position over the most recent day → NDVI.

    This is Figure 6's query: performance tracks how evenly the latest
    day's chunks spread (Append keeps them on one or two hosts) and
    whether the two bands' chunks are co-located (range schemes place by
    key alone; hash schemes pay a shuffle).
    """

    name = "join_ndvi"
    category = CATEGORY_SPJ

    def __init__(self, workload: ModisWorkload) -> None:
        self.workload = workload

    def _run(self, cluster: ClusterSession, cycle: int) -> QueryResult:
        day = cycle - 1  # latest day's time-chunk coordinate
        latest = self.workload.time_chunk_box(day, day + 1)
        band1 = {
            c.key: (c, n)
            for c, n in cluster.chunks_in_region("band1", latest)
        }
        band2 = {
            c.key: (c, n)
            for c, n in cluster.chunks_in_region("band2", latest)
        }
        common = sorted(set(band1) & set(band2))
        side1 = [band1[key] for key in common]
        side2 = [band2[key] for key in common]
        acc = accumulator_for(cluster)
        attrs = ["radiance"]
        scanned = charge_scan(
            acc, side1, attrs, cluster.costs, cpu_intensity=0.8
        )
        scanned += charge_scan(
            acc, side2, attrs, cluster.costs, cpu_intensity=0.8
        )
        shuffle = colocation_shuffle_bytes(
            [(*a, *b) for a, b in zip(side1, side2)], attrs_small=attrs
        )
        network = charge_network(acc, shuffle, cluster.costs)
        wire = network / 2.0  # endpoint sums count each transfer twice

        # Batch join: concatenate each band's day slice and intersect
        # the packed positions once — cell positions are globally unique
        # within a band, so one join over the concatenation equals the
        # union of the per-chunk-pair joins.
        coords1, vals1 = cluster.gather_payload(
            side1, ["radiance"], ndim=3
        )
        coords2, vals2 = cluster.gather_payload(
            side2, ["radiance"], ndim=3
        )
        _, v1, v2 = ops.position_join(
            coords1, vals1["radiance"], coords2, vals2["radiance"]
        )
        ndvi_all = ops.ndvi(v1, v2) if v1.shape[0] else np.empty(0)
        return QueryResult(
            name=self.name,
            category=self.category,
            value={
                "cells": int(ndvi_all.shape[0]),
                "mean_ndvi": (
                    float(np.nanmean(ndvi_all))
                    if ndvi_all.size else float("nan")
                ),
            },
            elapsed_seconds=elapsed_time(
                acc, cluster.costs, wire_bytes=wire
            ),
            per_node_seconds=acc.as_dict(),
            network_bytes=network,
            scanned_bytes=scanned,
        )


class AisSelectionHouston(Query):
    """Filter broadcasts to the Houston port area (skew stress test)."""

    name = "ais_selection"
    category = CATEGORY_SPJ

    def __init__(self, workload: AisWorkload) -> None:
        self.workload = workload

    def _run(self, cluster: ClusterSession, cycle: int) -> QueryResult:
        # Cached region-scoped gather + one routed read's scan charge,
        # as in ModisSelection.
        region = self.workload.houston_box(cycle)
        acc = accumulator_for(cluster)
        scanned = charge_scan(
            acc, cluster.chunks_in_region("broadcast", region), None,
            cluster.costs, cpu_intensity=0.2,
        )
        coords, values = cluster.payload_in_region(
            "broadcast", region, ["ship_id"], ndim=len(region.lo)
        )
        distinct = int(np.unique(values["ship_id"]).size) if coords.shape[0] else 0
        return QueryResult(
            name=self.name,
            category=self.category,
            value={"cells": int(coords.shape[0]), "ships": distinct},
            elapsed_seconds=elapsed_time(acc, cluster.costs),
            per_node_seconds=acc.as_dict(),
            scanned_bytes=scanned,
        )


class AisDistinctShips(Query):
    """Sorted log of distinct ship ids over the whole broadcast array."""

    name = "ais_sort"
    category = CATEGORY_SPJ

    def __init__(self, workload: AisWorkload) -> None:
        self.workload = workload

    def _run(self, cluster: ClusterSession, cycle: int) -> QueryResult:
        # Whole-array query: the pinned read's column charge + cached
        # ship-id concatenation (see ModisQuantileSort).
        read = cluster.chunks_of_array("broadcast")
        acc = accumulator_for(cluster)
        scanned = charge_scan(
            acc, read, ["ship_id"], cluster.costs, cpu_intensity=1.0,
        )
        # Each node ships its local distinct set (tiny) — model as 1 % of
        # the scanned column per node.
        merge_bytes = node_byte_sums(read, ["ship_id"], fraction=0.01)
        network = charge_network(acc, merge_bytes, cluster.costs)

        _coords, vals = cluster.array_payload(
            "broadcast", ["ship_id"], ndim=3
        )
        distinct = ops.sorted_distinct(vals["ship_id"])
        return QueryResult(
            name=self.name,
            category=self.category,
            value={"distinct_ships": int(distinct.size)},
            elapsed_seconds=elapsed_time(acc, cluster.costs),
            per_node_seconds=acc.as_dict(),
            network_bytes=network,
            scanned_bytes=scanned,
        )


class AisVesselJoin(Query):
    """Broadcast ⋈ Vessel on ship_id over the latest cycle's data.

    The vessel array is replicated on every node (paper §3.2), so the join
    is local everywhere — an equi-join that hash placement serves well.
    """

    name = "ais_join"
    category = CATEGORY_SPJ

    def __init__(self, workload: AisWorkload) -> None:
        self.workload = workload
        # The vessel array is static and replicated; sort its lookup
        # table once per array object instead of per cycle.  Holding
        # the array itself keys the cache by identity safely (an id()
        # key could be reused after garbage collection).
        self._lookup_cache: Optional[
            Tuple[object, np.ndarray, np.ndarray]
        ] = None

    def _vessel_lookup(self) -> Tuple[np.ndarray, np.ndarray]:
        array = self.workload.vessel_array
        cached = self._lookup_cache
        if cached is not None and cached[0] is array:
            return cached[1], cached[2]
        vessel_coords, vessel_vals = array.scan(["ship_type"])
        ids, types = ops.make_sorted_lookup(
            vessel_coords[:, 0], vessel_vals["ship_type"]
        )
        self._lookup_cache = (array, ids, types)
        return ids, types

    def _run(self, cluster: ClusterSession, cycle: int) -> QueryResult:
        hi = cycle * TIME_CHUNKS_PER_CYCLE
        touched = cluster.chunks_in_region(
            "broadcast",
            self.workload.time_chunk_box(hi - TIME_CHUNKS_PER_CYCLE, hi),
        )
        acc = accumulator_for(cluster)
        scanned = charge_scan(
            acc, touched, ["ship_id", "speed"], cluster.costs,
            cpu_intensity=0.8,
        )

        vessel_ids, vessel_types = self._vessel_lookup()

        # Batch join: one lookup over the concatenated ship ids, one
        # unique/count pass for the per-type histogram.
        if touched:
            _, vals = cluster.gather_payload(
                touched, ["ship_id"], ndim=3
            )
            ship_ids = vals["ship_id"]
        else:
            ship_ids = np.empty(0, dtype=np.int64)
        types = ops.equi_join_lookup(ship_ids, vessel_ids, vessel_types)
        uniq_types, counts = np.unique(types, return_counts=True)
        type_counts = {
            int(t): int(c) for t, c in zip(uniq_types, counts)
        }
        return QueryResult(
            name=self.name,
            category=self.category,
            value={"broadcasts_by_type": type_counts},
            elapsed_seconds=elapsed_time(acc, cluster.costs),
            per_node_seconds=acc.as_dict(),
            scanned_bytes=scanned,
        )
