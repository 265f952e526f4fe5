"""Reference implementations: the specification the fast paths must equal.

A vectorized or incremental program is correct iff it equals the
from-scratch one, so the from-scratch one is the *spec* — and a spec
belongs in the test suite, not in the binary as a mode.  Everything here
was moved verbatim out of ``src/repro`` — when the ledger / cost /
catalog / incr mode switches were retired, or once its last caller
outside the tests was gone; nothing under ``src/`` imports from this
package.

:data:`ORACLES` is the registry: one ``(production, oracle, signature)``
row of real imports per pair.  ``"same"`` — the twins are drop-in
interchangeable (equal parameter names, a method's leading ``self``
aside), so the ``oracles`` fixture in ``tests/conftest.py`` can
substitute one for the other and run a whole query, rebalance or read
path through the reference; ``"lowered"`` — the oracle keeps a
pre-vectorization calling convention and is only ever called directly.
``tests/test_oracle_registry.py`` polices the table.
"""

from __future__ import annotations

from typing import Any, Callable, List, Tuple

from repro.arrays.array import chunk_cells
from repro.cluster.cluster import ElasticCluster
from repro.cluster.coordinator import execute_rebalance
from repro.cluster.session import ClusterSession
from repro.core.catalog import ChunkCatalog, concat_payload
from repro.core.ledger import ArrayChunkLedger
from repro.core.quadtree import IncrementalQuadtreePartitioner
from repro.parallel.engine import ProcessEngine
from repro.query.cost import (
    add_scan_work,
    charge_network,
    charge_scan,
    charge_scan_array,
    charge_scan_delta,
    charge_scan_region,
    charge_scan_routed,
    colocation_shuffle_bytes,
    halo_shuffle_bytes,
    scan_columns,
)
from repro.query.incremental import delta_cells, join_aggregate_full
from repro.query.operators import (
    _unique_rows,
    count_close_pairs,
    group_count_by_grid,
    group_mean_by_grid,
    group_stats_by_grid_arrays,
    kmeans,
    knn_mean_distance,
    position_join,
    window_average,
    window_average_arrays,
)
from repro.query.science import AisKnn

from tests.oracles.arrays import chunk_cells_scalar
from tests.oracles.catalog import (
    concat_payload_per_chunk,
    put_batch_per_chunk,
    remove_batch_per_chunk,
)
from tests.oracles.cluster import (
    array_payload_scan,
    chunk_data_scan,
    chunks_in_region_scan,
    chunks_of_array_scan,
    execute_rebalance_scalar,
    payload_in_region_scan,
    placement_of_array_scan,
)
from tests.oracles.cost import (
    account_samples_scalar,
    add_network_work_scalar,
    add_scan_work_scalar,
    array_scan_columns_scan,
    charge_network_scalar,
    charge_scan_array_scalar,
    charge_scan_delta_scalar,
    charge_scan_region_scalar,
    charge_scan_routed_scalar,
    charge_scan_scalar,
    colocation_shuffle_bytes_scalar,
    halo_shuffle_bytes_scalar,
    region_scan_columns_scan,
)
from tests.oracles.incremental import (
    delta_cells_per_chunk,
    join_aggregate_scalar,
)
from tests.oracles.ledger import DictChunkLedger
from tests.oracles.operators import (
    count_close_pairs_scalar,
    filter_region,
    group_count_by_grid_scalar,
    group_mean_by_grid_scalar,
    group_stats_by_grid_scalar,
    kmeans_scalar,
    knn_mean_distance_scalar,
    position_join_intersect1d,
    unique_rows_sorted,
    window_average_arrays_sorted,
    window_average_scalar,
)
from tests.oracles.parallel import (
    serial_equi_join,
    serial_kmeans,
    serial_knn_mean,
)
from tests.oracles.partitioners import try_split_scalar

ORACLES: List[Tuple[Callable[..., Any], Callable[..., Any], str]] = [
    # ledger
    (ArrayChunkLedger, DictChunkLedger, "same"),
    # ingest
    (chunk_cells, chunk_cells_scalar, "same"),
    # the Incremental Quadtree's split: per-chunk tally and give
    (IncrementalQuadtreePartitioner._try_split, try_split_scalar, "same"),
    # session reads, the by-ref payload probe and the rebalance executor
    (ClusterSession.chunks_of_array, chunks_of_array_scan, "same"),
    (ClusterSession.chunks_in_region, chunks_in_region_scan, "same"),
    (ElasticCluster.chunk_data, chunk_data_scan, "same"),
    (ClusterSession.placement_of_array, placement_of_array_scan, "same"),
    (ClusterSession.array_payload, array_payload_scan, "same"),
    (ClusterSession.payload_in_region, payload_in_region_scan, "same"),
    (execute_rebalance, execute_rebalance_scalar, "same"),
    # the gather: one read per chunk per column
    (concat_payload, concat_payload_per_chunk, "same"),
    # the publish and unpublish paths: one branch and one tuple per chunk
    (ChunkCatalog.put_batch, put_batch_per_chunk, "same"),
    (ChunkCatalog.remove_batch, remove_batch_per_chunk, "same"),
    # cost kernels
    (add_scan_work, add_scan_work_scalar, "lowered"),
    (charge_network, add_network_work_scalar, "lowered"),
    (halo_shuffle_bytes, halo_shuffle_bytes_scalar, "same"),
    (colocation_shuffle_bytes, colocation_shuffle_bytes_scalar, "same"),
    # a session read lowered by scan_columns, against the store walk's
    (scan_columns, array_scan_columns_scan, "lowered"),
    (scan_columns, region_scan_columns_scan, "lowered"),
    # cost charges, as the queries call them
    (charge_scan, charge_scan_scalar, "same"),
    (charge_scan_array, charge_scan_array_scalar, "same"),
    (charge_scan_region, charge_scan_region_scalar, "same"),
    (charge_scan_routed, charge_scan_routed_scalar, "same"),
    (charge_scan_delta, charge_scan_delta_scalar, "same"),
    (charge_network, charge_network_scalar, "same"),
    (AisKnn._account_samples, account_samples_scalar, "same"),
    # query kernels
    (group_count_by_grid, group_count_by_grid_scalar, "same"),
    (group_mean_by_grid, group_mean_by_grid_scalar, "same"),
    (group_stats_by_grid_arrays, group_stats_by_grid_scalar, "same"),
    (window_average, window_average_scalar, "same"),
    (kmeans, kmeans_scalar, "same"),
    (knn_mean_distance, knn_mean_distance_scalar, "same"),
    (count_close_pairs, count_close_pairs_scalar, "same"),
    # the sort-based batch kernels the offset-reduce ones replaced
    (position_join, position_join_intersect1d, "same"),
    (_unique_rows, unique_rows_sorted, "same"),
    (window_average_arrays, window_average_arrays_sorted, "same"),
    (join_aggregate_full, join_aggregate_scalar, "same"),
    (delta_cells, delta_cells_per_chunk, "same"),
    # region selection, per chunk
    (ClusterSession.payload_in_region, filter_region, "lowered"),
    # the process backend's shuffle exchanges, run serially
    (ProcessEngine.partitioned_kmeans, serial_kmeans, "lowered"),
    (ProcessEngine.partitioned_knn_mean, serial_knn_mean, "lowered"),
    (ProcessEngine.partitioned_equi_join, serial_equi_join, "lowered"),
]
